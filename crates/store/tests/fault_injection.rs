//! Fault-injection suite: every way a crash or a corrupted byte can
//! damage a store directory, recovery must either reconstruct an
//! *exact prefix* of the true history or refuse loudly — never return
//! a session that silently diverges, and never under-count spent
//! budget.
//!
//! The workload driver mirrors the serve loop's discipline (WAL
//! append before ingest, checkpoint on a row cadence, manifest before
//! artifact) under an injected [`FaultIo`] that kills the write stream
//! at a chosen cumulative byte. A dense sweep covers *every* kill
//! point of a small workload; proptests randomize the workload shape,
//! kill point, tear length, and flipped byte.

use dpsan_dp::BudgetEntry;
use dpsan_store::snapshot::list_generations;
use dpsan_store::store::wal_path;
use dpsan_store::wal::scan_segment;
use dpsan_store::{
    flip_byte, tear_tail, DiskIo, DurableStore, FaultIo, StoreConfig, StoreError, StoreIo,
};
use dpsan_stream::{IngestSession, StreamConfig};
use proptest::prelude::*;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::{fs, process};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpsan-fault-{tag}-{}", process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cfg(dir: &Path) -> StoreConfig {
    StoreConfig { dir: dir.to_path_buf(), checkpoint_rows: 0 }
}

fn stream_cfg() -> StreamConfig {
    StreamConfig { shards: 3, chunk_rows: 8, sketch_capacity: 0, jobs: 1 }
}

/// Deterministic per-chunk TSV payload (4 valid rows each).
fn chunk(i: u64) -> Vec<u8> {
    (0..4)
        .map(|j| {
            format!(
                "user{:02}\tq{}\tsite{}.net\t{}\n",
                (i * 3 + j) % 7,
                j % 5,
                i % 4,
                1 + (i + j) % 3
            )
        })
        .collect::<String>()
        .into_bytes()
}

/// One-shot reference: the first `k` chunks through a fresh session.
fn reference(k: u64) -> IngestSession {
    let mut s = IngestSession::new(stream_cfg());
    for i in 0..k {
        s.ingest(Cursor::new(chunk(i))).unwrap();
    }
    s
}

fn spend(seq: u64) -> Vec<BudgetEntry> {
    vec![BudgetEntry { label: format!("release {seq}"), epsilon: 0.5, delta: 0.01 }]
}

/// What the doomed run managed before the injected crash.
#[derive(Debug, Default)]
struct Driven {
    /// Chunks whose WAL append fully succeeded (durably logged).
    logged: u64,
    /// `record_release` calls that returned `Ok`.
    released: u64,
    /// `(generation, chunks covered)` of every *attempted* checkpoint
    /// (a crash during pruning leaves a durable checkpoint behind an
    /// `Err` return).
    cover: Vec<(u64, u64)>,
}

/// Drive `n` chunks through a store under `io`, checkpointing after
/// every `checkpoint_every`-th chunk and releasing after every
/// `release_every`-th (0 = never), stopping at the first injected
/// failure. The artifact content of release `s` is `b"release s\n"`.
fn drive(
    io: Arc<dyn StoreIo>,
    dir: &Path,
    n: u64,
    checkpoint_every: u64,
    release_every: u64,
) -> Driven {
    let mut out = Driven::default();
    let Ok((mut store, recovered)) = DurableStore::open(io, cfg(dir)) else {
        return out;
    };
    let mut session = recovered.resume_session(stream_cfg()).unwrap();
    let mut offset = recovered.input_offset;
    for i in 0..n {
        let c = chunk(i);
        offset += c.len() as u64;
        if store.log_chunk(offset, &c).is_err() {
            return out;
        }
        out.logged += 1;
        session.ingest(Cursor::new(&c)).unwrap();
        if checkpoint_every > 0 && (i + 1) % checkpoint_every == 0 {
            // Record the candidate *before* the call: a crash during
            // post-checkpoint pruning returns Err with the checkpoint
            // itself already durable, and recovery may legally use it.
            out.cover.push((store.generation() + 1, i + 1));
            if store.checkpoint(&session.export_state(), offset).is_err() {
                return out;
            }
        }
        if release_every > 0 && (i + 1) % release_every == 0 {
            let seq = store.next_seq();
            let content = format!("release {seq}\n");
            if store.record_release(&spend(seq), session.rows(), content.as_bytes()).is_err() {
                return out;
            }
            out.released += 1;
        }
    }
    out
}

/// Recover `dir` with clean IO and assert the reconstructed session is
/// an exact prefix of the true chunk history: state, input offset, and
/// replay counts all line up. Returns the prefix length.
fn assert_exact_prefix(dir: &Path, driven: &Driven) -> u64 {
    let (_, rec) = DurableStore::open(Arc::new(DiskIo), cfg(dir))
        .unwrap_or_else(|e| panic!("crash artifacts must always recover: {e}"));
    let base_chunks = match rec.report.base_generation {
        None => 0,
        Some(g) => {
            driven
                .cover
                .iter()
                .find(|(gen, _)| *gen == g)
                .unwrap_or_else(|| panic!("recovered from unknown checkpoint generation {g}"))
                .1
        }
    };
    let j = base_chunks + rec.report.replayed_records as u64;
    assert!(j <= driven.logged, "recovery replayed chunks that were never durably logged");
    let session = rec.resume_session(stream_cfg()).unwrap();
    assert_eq!(
        session.export_state(),
        reference(j).export_state(),
        "recovered session is not the exact {j}-chunk prefix"
    );
    let want_offset: u64 = (0..j).map(|i| chunk(i).len() as u64).sum();
    assert_eq!(rec.input_offset, want_offset, "resume offset disagrees with the prefix");
    j
}

/// Recover and assert the budget-side invariants: every `Ok`-returned
/// release has a durable manifest (spends are never lost), at most one
/// extra manifest exists (the release that crashed mid-call), the
/// rebuilt ledger composes the recorded spends bit-exactly, and only
/// post-crash sequence numbers can be unpublished.
fn assert_budget_never_undercounts(dir: &Path, driven: &Driven) {
    let (_, rec) = DurableStore::open(Arc::new(DiskIo), cfg(dir)).unwrap();
    let manifests = rec.manifests.len() as u64;
    assert!(
        manifests >= driven.released,
        "a successful release lost its manifest: {manifests} < {}",
        driven.released
    );
    assert!(
        manifests <= driven.released + 1,
        "more manifests than release attempts: {manifests} > {} + 1",
        driven.released
    );
    let ledger = dpsan_store::rebuild_ledger(&rec.manifests, None);
    let want_eps = 0.5 * manifests as f64;
    let want_delta = 0.01 * manifests as f64;
    assert!((ledger.total_epsilon() - want_eps).abs() < 1e-12);
    assert!((ledger.total_delta() - want_delta).abs() < 1e-12);
    for seq in &rec.report.unpublished {
        assert!(
            *seq >= driven.released,
            "release {seq} returned Ok but its artifact does not verify"
        );
    }
}

/// Total bytes the uninterrupted workload writes (a `FaultIo` with an
/// unreachable kill point counts them without firing).
fn total_bytes(n: u64, checkpoint_every: u64, release_every: u64) -> u64 {
    let dir = tmpdir("measure");
    let io = Arc::new(FaultIo::new(u64::MAX));
    let driven = drive(io.clone(), &dir, n, checkpoint_every, release_every);
    assert_eq!(driven.logged, n, "measurement run must not crash");
    let written = io.written();
    fs::remove_dir_all(&dir).unwrap();
    written
}

#[test]
fn kill_at_every_byte_recovers_an_exact_prefix() {
    // Small workload — 3 chunks, a checkpoint after chunk 2, a release
    // after chunk 2 — swept with a kill at *every* cumulative byte the
    // run writes: WAL records, shard snapshots, checkpoint metadata,
    // manifest, artifact. No kill point may corrupt recovery.
    let (n, ckpt, rel) = (3, 2, 2);
    let total = total_bytes(n, ckpt, rel);
    assert!(total < 16_384, "sweep workload grew unexpectedly large ({total} bytes)");
    let parent = tmpdir("sweep");
    for kill in 0..=total {
        let dir = parent.join(format!("k{kill}"));
        let driven = drive(Arc::new(FaultIo::new(kill)), &dir, n, ckpt, rel);
        let j = assert_exact_prefix(&dir, &driven);
        assert_eq!(
            j, driven.logged,
            "kill at byte {kill}: every durably logged chunk must be recovered"
        );
        assert_budget_never_undercounts(&dir, &driven);
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&parent).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random workload shapes × random kill points: the recovered
    /// session is always the exact prefix of durably logged chunks and
    /// the ledger never under-counts.
    #[test]
    fn random_kill_points_recover_the_logged_prefix(
        n in 4u64..12,
        checkpoint_every in 0u64..4,
        release_every in 0u64..4,
        kill in 1u64..10_000,
        case in 0u32..u32::MAX,
    ) {
        let dir = tmpdir(&format!("kill-{case}"));
        let driven = drive(Arc::new(FaultIo::new(kill)), &dir, n, checkpoint_every, release_every);
        let j = assert_exact_prefix(&dir, &driven);
        prop_assert_eq!(j, driven.logged);
        assert_budget_never_undercounts(&dir, &driven);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A torn live-WAL tail (bytes lost from the page cache) truncates
    /// cleanly: recovery lands on an exact prefix, the repaired
    /// segment rescans clean, and nothing covered by a checkpoint is
    /// lost.
    #[test]
    fn torn_live_tail_recovers_a_clean_prefix(
        n in 2u64..8,
        checkpoint_every in 0u64..4,
        tear in 1u64..600,
        case in 0u32..u32::MAX,
    ) {
        let dir = tmpdir(&format!("tear-{case}"));
        let driven = drive(Arc::new(DiskIo), &dir, n, checkpoint_every, 0);
        prop_assert_eq!(driven.logged, n);
        let live = wal_path(&dir, list_generations(&dir).unwrap().last().copied().unwrap_or(0));
        if live.exists() {
            tear_tail(&live, tear).unwrap();
        }
        let j = assert_exact_prefix(&dir, &driven);
        let covered = driven.cover.last().map_or(0, |&(_, c)| c);
        prop_assert!(j >= covered, "a tear must never lose checkpointed chunks");
        if live.exists() {
            let rescan = scan_segment(&live).unwrap();
            prop_assert_eq!(rescan.torn_bytes, 0, "repair must leave a clean segment");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Flip one byte anywhere in the store: recovery either returns an
    /// exact prefix (checkpoint fallback, WAL truncation, unpublished
    /// artifact) or refuses with a corruption error — never a wrong
    /// session and never a quietly shrunk ledger.
    #[test]
    fn flipped_byte_never_yields_a_wrong_session(
        n in 3u64..9,
        checkpoint_every in 0u64..4,
        release_every in 0u64..3,
        file_pick in 0usize..64,
        offset_pick in 0u64..100_000,
        case in 0u32..u32::MAX,
    ) {
        let dir = tmpdir(&format!("flip-{case}"));
        let driven = drive(Arc::new(DiskIo), &dir, n, checkpoint_every, release_every);
        prop_assert_eq!(driven.logged, n);

        let mut files: Vec<PathBuf> = walk_files(&dir);
        files.sort();
        prop_assert!(!files.is_empty());
        let target = &files[file_pick % files.len()];
        let len = fs::metadata(target).unwrap().len();
        prop_assume!(len > 0);
        flip_byte(target, offset_pick % len).unwrap();
        let flipped_artifact: Option<u64> = target
            .file_name()
            .and_then(|f| f.to_str())
            .filter(|f| f.starts_with("release-") && f.ends_with(".tsv"))
            .and_then(|f| f[8..16].parse().ok());

        match DurableStore::open(Arc::new(DiskIo), cfg(&dir)) {
            Ok((_, rec)) => {
                let j = assert_exact_prefix(&dir, &driven);
                prop_assert!(j <= n);
                // budget: a readable chain is the complete chain
                prop_assert_eq!(rec.manifests.len() as u64, driven.released);
                if let Some(seq) = flipped_artifact {
                    prop_assert!(
                        rec.report.unpublished.contains(&seq),
                        "flipped artifact {seq} must fail verification: {:?}",
                        rec.report.unpublished
                    );
                }
            }
            Err(StoreError::Corrupt(_)) => {} // refusing loudly is always legal
            Err(StoreError::Io(e)) => panic!("clean-io recovery raised an io error: {e}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

fn walk_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap() {
            let p = entry.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else {
                out.push(p);
            }
        }
    }
    out
}
