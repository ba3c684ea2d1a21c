//! The durable store: checkpoints + WAL + manifest chain, glued into
//! one crash-safe recovery story.
//!
//! ```text
//! store-dir/
//!   checkpoint-00000001/   full session snapshot (see crate::snapshot)
//!   checkpoint-00000002/
//!   wal-00000000.log       chunks consumed before the first checkpoint
//!   wal-00000001.log       chunks consumed after checkpoint 1
//!   wal-00000002.log       ... the live segment
//!   releases/              manifest chain + release artifacts
//! ```
//!
//! WAL segment `G` holds exactly the chunks consumed *after*
//! checkpoint `G` was taken (segment 0 precedes any checkpoint), so
//!
//! ```text
//! session state  =  checkpoint G  ⊕  replay(wal-G)
//!                =  checkpoint G-1 ⊕ replay(wal-(G-1)) ⊕ replay(wal-G)
//! ```
//!
//! — the second form is the fallback when checkpoint `G` fails its
//! checksums. Writing checkpoint `G+1` prunes generation `G-1` and
//! older, so the store always keeps two recovery roots on disk and
//! storage stays bounded at roughly two checkpoints + two WAL spans.
//!
//! Recovery is conservative in exactly one direction: ingest state may
//! be recomputed (the input file still has the bytes), but **spent
//! budget may never shrink**. Hence checkpoint corruption falls back
//! and WAL tails truncate, while manifest-chain corruption is a hard
//! error surfaced to the operator.

use crate::io::StoreIo;
use crate::manifest::{chain_crc, read_chain, releases_dir, write_manifest, ReleaseManifest};
use crate::snapshot::{checkpoint_dir, list_generations, read_checkpoint, write_checkpoint};
use crate::wal::{append_record, repair_segment, scan_segment, WalRecord, WalScan};
use dpsan_dp::BudgetEntry;
use dpsan_stream::{IngestSession, SessionState, StreamConfig};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Store failures.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (includes injected crashes).
    Io(io::Error),
    /// On-disk state failed validation; the message says what and why.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What recovery found and did — surfaced to the operator via
/// `sanitize --stats` and asserted by the fault-injection suite.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Generation whose checkpoint seeded the session (`None` = the
    /// session was rebuilt from WAL alone / the store was fresh).
    pub base_generation: Option<u64>,
    /// Checkpoints that failed verification, with the reason each was
    /// rejected (newest first).
    pub rejected: Vec<(u64, String)>,
    /// WAL records replayed through the ingest engine.
    pub replayed_records: usize,
    /// Torn bytes truncated off the live WAL segment.
    pub truncated_bytes: u64,
    /// Manifests in the verified chain.
    pub manifests: usize,
    /// Manifest sequence numbers whose release artifact is missing or
    /// fails its checksum — budget spent, output not (re)published.
    /// Benign after a crash between manifest and artifact write.
    pub unpublished: Vec<u64>,
}

/// Everything `open` recovers from disk.
#[derive(Debug)]
pub struct Recovered {
    /// Checkpointed session state, if a valid checkpoint existed.
    pub state: Option<SessionState>,
    /// WAL records to replay on top of `state`, in order.
    pub replay: Vec<WalRecord>,
    /// The verified release-manifest chain.
    pub manifests: Vec<ReleaseManifest>,
    /// Input-file offset at which ingestion resumes.
    pub input_offset: u64,
    /// What happened.
    pub report: RecoveryReport,
}

impl Recovered {
    /// Rebuild a live [`IngestSession`] under `cfg`: restore the
    /// checkpoint state and replay the WAL chunks through the same
    /// deterministic ingest path the live loop uses — the result is
    /// exactly the session a one-shot ingest of the consumed prefix
    /// would have produced.
    pub fn resume_session(&self, cfg: StreamConfig) -> Result<IngestSession, StoreError> {
        let mut session = match &self.state {
            Some(state) => IngestSession::restore(cfg, state.clone())
                .map_err(|e| StoreError::Corrupt(format!("checkpoint state rejected: {e}")))?,
            None => IngestSession::new(cfg),
        };
        for (i, rec) in self.replay.iter().enumerate() {
            session.ingest(io::Cursor::new(&rec.chunk)).map_err(|e| {
                StoreError::Corrupt(format!("WAL replay failed at record {i}: {e}"))
            })?;
        }
        Ok(session)
    }
}

/// Size/trigger knobs for a durable store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Root directory of the store.
    pub dir: PathBuf,
    /// Take a checkpoint every time this many rows have been ingested
    /// since the last one (0 = only on shutdown/explicit calls).
    pub checkpoint_rows: u64,
}

/// Handle to an open store. All writes go through the injected
/// [`StoreIo`]; reads use plain `std::fs` (see [`crate::io`]).
pub struct DurableStore {
    io: Arc<dyn StoreIo>,
    dir: PathBuf,
    /// Newest generation on disk = the live WAL segment number.
    generation: u64,
    /// Next release sequence number.
    next_seq: u64,
    /// Chain CRC of the newest manifest (0 when the chain is empty).
    prev_crc: u32,
    /// Rows ingested since the last checkpoint (caller-maintained via
    /// [`note_rows`](Self::note_rows)).
    rows_since_checkpoint: u64,
    checkpoint_rows: u64,
}

impl fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.dir)
            .field("generation", &self.generation)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

/// Path of WAL segment `gen` under `dir`.
pub fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:08}.log"))
}

impl DurableStore {
    /// Open (creating if absent) the store at `cfg.dir` and recover
    /// whatever is on disk. See the module docs for the fallback
    /// ladder; manifest-chain problems are hard errors.
    pub fn open(
        io: Arc<dyn StoreIo>,
        cfg: StoreConfig,
    ) -> Result<(DurableStore, Recovered), StoreError> {
        io.create_dir_all(&cfg.dir)?;
        let manifests = read_chain(&cfg.dir).map_err(StoreError::Corrupt)?;
        let mut report = RecoveryReport { manifests: manifests.len(), ..Default::default() };
        report.unpublished = unpublished_artifacts(&cfg.dir, &manifests);

        let gens = list_generations(&cfg.dir)?;
        let newest = gens.last().copied().unwrap_or(0);

        // Fallback ladder: newest checkpoint, then its predecessor,
        // then (when the predecessor would be "before the first
        // checkpoint") the empty session. Anything deeper has been
        // pruned, so two strikes is genuinely the end.
        let mut base: Option<(Option<u64>, Option<SessionState>, u64)> = None;
        let mut candidates: Vec<Option<u64>> = Vec::new();
        let mut iter = gens.iter().rev();
        if let Some(&g) = iter.next() {
            candidates.push(Some(g));
            match iter.next() {
                Some(&p) => candidates.push(Some(p)),
                None => candidates.push(None),
            }
        } else {
            candidates.push(None);
        }
        for cand in candidates {
            match cand {
                Some(gen) => match read_checkpoint(&cfg.dir, gen) {
                    Ok((state, meta)) => {
                        base = Some((Some(gen), Some(state), meta.input_offset));
                        break;
                    }
                    Err(why) => report.rejected.push((gen, why)),
                },
                None => {
                    base = Some((None, None, 0));
                    break;
                }
            }
        }
        let Some((base_gen, state, base_offset)) = base else {
            return Err(StoreError::Corrupt(format!(
                "no usable recovery root: {}",
                report
                    .rejected
                    .iter()
                    .map(|(g, why)| format!("checkpoint {g}: {why}"))
                    .collect::<Vec<_>>()
                    .join("; ")
            )));
        };
        report.base_generation = base_gen;

        // Replay every WAL segment from the base to the live one. Only
        // the live segment can legally be torn (it was the one being
        // appended); truncate its tail. A torn *earlier* segment means
        // rows the rejected checkpoint had are unrecoverable — that is
        // corruption, not a crash artifact.
        let first_segment = base_gen.unwrap_or(0);
        let mut replay: Vec<WalRecord> = Vec::new();
        for seg in first_segment..=newest {
            let path = wal_path(&cfg.dir, seg);
            let scan: WalScan = if seg == newest {
                let scan = repair_segment(io.as_ref(), &path)?;
                report.truncated_bytes = scan.torn_bytes;
                scan
            } else {
                let scan = scan_segment(&path)?;
                if scan.torn_bytes > 0 {
                    return Err(StoreError::Corrupt(format!(
                        "WAL segment {seg} is torn mid-chain ({} bytes) — rows are \
                         unrecoverable; restore the segment or retire the store",
                        scan.torn_bytes
                    )));
                }
                scan
            };
            replay.extend(scan.records);
        }

        // Offsets must advance strictly; anything else means segments
        // from different histories got mixed.
        let mut prev = base_offset;
        for (i, rec) in replay.iter().enumerate() {
            if rec.offset_after <= prev && !(i == 0 && rec.offset_after == prev) {
                return Err(StoreError::Corrupt(format!(
                    "WAL offsets regress at record {i} ({} after {prev}) — segments from \
                     different histories",
                    rec.offset_after
                )));
            }
            prev = rec.offset_after;
        }

        report.replayed_records = replay.len();

        // Recovery telemetry: an outcome counter plus gauges holding
        // this open's report — the `recovery:` stderr line renders from
        // the same snapshot these feed.
        let outcome = if report.base_generation.is_some() {
            "checkpoint"
        } else if replay.is_empty() {
            "fresh"
        } else {
            "wal_replay"
        };
        crate::obs::recoveries_total(outcome).inc();
        crate::obs::recovery_base_generation()
            .set(report.base_generation.map_or(-1.0, |g| g as f64));
        crate::obs::recovery_replayed_records().set(report.replayed_records as f64);
        crate::obs::recovery_truncated_bytes().set(report.truncated_bytes as f64);
        crate::obs::recovery_manifests().set(report.manifests as f64);
        crate::obs::recovery_rejected_checkpoints().set(report.rejected.len() as f64);
        crate::obs::recovery_unpublished().set(report.unpublished.len() as f64);
        dpsan_obs::trace::event(
            dpsan_obs::trace::Level::Info,
            "store",
            "recovered",
            &[
                ("outcome", outcome.to_string()),
                ("replayed", report.replayed_records.to_string()),
                ("manifests", report.manifests.to_string()),
            ],
        );

        let input_offset = replay.last().map_or(base_offset, |r| r.offset_after);
        let prev_crc = manifests.last().map(chain_crc).unwrap_or(0);
        let store = DurableStore {
            io,
            dir: cfg.dir,
            generation: newest,
            next_seq: manifests.len() as u64,
            prev_crc,
            rows_since_checkpoint: 0,
            checkpoint_rows: cfg.checkpoint_rows,
        };
        let recovered = Recovered { state, replay, manifests, input_offset, report };
        Ok((store, recovered))
    }

    /// Durably log one consumed input chunk. Call **before** feeding
    /// the chunk to the ingest session — WAL first is the discipline
    /// that makes every ingested row recoverable.
    pub fn log_chunk(&mut self, offset_after: u64, chunk: &[u8]) -> Result<(), StoreError> {
        let record = WalRecord { offset_after, chunk: chunk.to_vec() };
        let start = std::time::Instant::now();
        append_record(self.io.as_ref(), &wal_path(&self.dir, self.generation), &record)?;
        crate::obs::wal_fsync_seconds().record_duration(start.elapsed());
        Ok(())
    }

    /// Tell the store how many rows the last chunk added; returns
    /// `true` when enough rows accumulated that the caller should
    /// checkpoint.
    pub fn note_rows(&mut self, rows: u64) -> bool {
        self.rows_since_checkpoint += rows;
        self.checkpoint_rows > 0 && self.rows_since_checkpoint >= self.checkpoint_rows
    }

    /// Take a checkpoint of `state` at input offset `input_offset`:
    /// write generation `G+1`, roll the WAL to segment `G+1`, prune
    /// generation `G-1` and older (keeping `G` as the fallback root).
    pub fn checkpoint(
        &mut self,
        state: &SessionState,
        input_offset: u64,
    ) -> Result<(), StoreError> {
        let start = std::time::Instant::now();
        let span = dpsan_obs::trace::span(dpsan_obs::trace::Level::Info, "store", "checkpoint");
        let gen = self.generation + 1;
        write_checkpoint(self.io.as_ref(), &self.dir, gen, state, input_offset)?;
        self.generation = gen;
        self.rows_since_checkpoint = 0;
        // Prune: keep generations G and G-1 (and their WAL spans).
        for old in list_generations(&self.dir)? {
            if old + 1 < gen {
                let _ = self.io.remove_all(&checkpoint_dir(&self.dir, old));
            }
        }
        for seg in 0..gen.saturating_sub(1) {
            let p = wal_path(&self.dir, seg);
            if p.exists() {
                let _ = self.io.remove_all(&p);
            }
        }
        drop(span);
        crate::obs::checkpoint_seconds().record_duration(start.elapsed());
        Ok(())
    }

    /// Durably record a release: manifest **first** (the budget spend
    /// becomes permanent), artifact second. Returns the manifest.
    /// A crash between the two steps loses the artifact but never the
    /// accounting — recovery reports it under
    /// [`RecoveryReport::unpublished`].
    pub fn record_release(
        &mut self,
        spent: &[BudgetEntry],
        rows: u64,
        content: &[u8],
    ) -> Result<ReleaseManifest, StoreError> {
        let seq = self.next_seq;
        let manifest = ReleaseManifest {
            seq,
            prev_crc: self.prev_crc,
            artifact: format!("release-{seq:08}.tsv"),
            artifact_len: content.len() as u64,
            artifact_crc: crate::crc::crc32(content),
            rows,
            spent: spent.to_vec(),
        };
        write_manifest(self.io.as_ref(), &self.dir, &manifest)?;
        // The manifest is durable; only now may the artifact appear.
        self.next_seq = seq + 1;
        self.prev_crc = chain_crc(&manifest);
        self.io.write_atomic(&releases_dir(&self.dir).join(&manifest.artifact), content)?;
        Ok(manifest)
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Newest generation = the live WAL segment number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Sequence number the next release will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

/// Manifest sequence numbers whose artifact is absent or fails its
/// recorded checksum.
fn unpublished_artifacts(dir: &Path, manifests: &[ReleaseManifest]) -> Vec<u64> {
    let releases = releases_dir(dir);
    manifests
        .iter()
        .filter(|m| match std::fs::read(releases.join(&m.artifact)) {
            Ok(bytes) => {
                bytes.len() as u64 != m.artifact_len || crate::crc::crc32(&bytes) != m.artifact_crc
            }
            Err(_) => true,
        })
        .map(|m| m.seq)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{flip_byte, DiskIo, FaultIo};
    use std::fs;
    use std::io::Cursor;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dpsan-store-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: &Path) -> StoreConfig {
        StoreConfig { dir: dir.to_path_buf(), checkpoint_rows: 0 }
    }

    fn stream_cfg() -> StreamConfig {
        StreamConfig { shards: 3, chunk_rows: 8, sketch_capacity: 0, jobs: 1 }
    }

    fn chunk(i: u64) -> Vec<u8> {
        (0..5)
            .map(|j| {
                format!("user{:02}\tq{}\tsite{}.com\t{}\n", (i * 5 + j) % 9, j % 4, i % 3, 1 + j)
            })
            .collect::<String>()
            .into_bytes()
    }

    /// Drive a store through `n` chunks with checkpoints at the given
    /// chunk indices; returns the uninterrupted session for reference.
    fn drive(
        io: Arc<dyn StoreIo>,
        dir: &Path,
        n: u64,
        checkpoints: &[u64],
    ) -> Result<(DurableStore, IngestSession), StoreError> {
        let (mut store, recovered) = DurableStore::open(io, cfg(dir))?;
        let mut session = recovered.resume_session(stream_cfg())?;
        let mut offset = recovered.input_offset;
        for i in 0..n {
            let c = chunk(i);
            offset += c.len() as u64;
            store.log_chunk(offset, &c)?;
            session.ingest(Cursor::new(&c)).unwrap();
            if checkpoints.contains(&i) {
                store.checkpoint(&session.export_state(), offset)?;
            }
        }
        Ok((store, session))
    }

    /// One-shot reference: the same chunks through a fresh session.
    fn reference(n: u64) -> IngestSession {
        let mut s = IngestSession::new(stream_cfg());
        for i in 0..n {
            s.ingest(Cursor::new(chunk(i))).unwrap();
        }
        s
    }

    #[test]
    fn fresh_store_opens_empty() {
        let dir = tmpdir("fresh");
        let (store, recovered) = DurableStore::open(Arc::new(DiskIo), cfg(&dir)).unwrap();
        assert!(recovered.state.is_none());
        assert!(recovered.replay.is_empty());
        assert_eq!(recovered.input_offset, 0);
        assert_eq!(store.generation(), 0);
        assert_eq!(store.next_seq(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_replays_wal_to_the_exact_session() {
        let dir = tmpdir("wal-only");
        drive(Arc::new(DiskIo), &dir, 4, &[]).unwrap();
        let (_, recovered) = DurableStore::open(Arc::new(DiskIo), cfg(&dir)).unwrap();
        assert_eq!(recovered.report.replayed_records, 4);
        assert!(recovered.report.base_generation.is_none());
        let session = recovered.resume_session(stream_cfg()).unwrap();
        assert_eq!(session.export_state(), reference(4).export_state());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_after_checkpoint_restores_and_replays() {
        let dir = tmpdir("ckpt");
        drive(Arc::new(DiskIo), &dir, 6, &[2]).unwrap();
        let (store, recovered) = DurableStore::open(Arc::new(DiskIo), cfg(&dir)).unwrap();
        assert_eq!(recovered.report.base_generation, Some(1));
        assert_eq!(recovered.report.replayed_records, 3, "chunks 3..6 in wal-1");
        assert_eq!(store.generation(), 1);
        let session = recovered.resume_session(stream_cfg()).unwrap();
        assert_eq!(session.export_state(), reference(6).export_state());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_one_generation() {
        let dir = tmpdir("fallback");
        drive(Arc::new(DiskIo), &dir, 8, &[2, 5]).unwrap();
        // Flip a byte in a shard of checkpoint 2.
        let shard = crate::snapshot::shard_file(&checkpoint_dir(&dir, 2), 1);
        let len = fs::metadata(&shard).unwrap().len();
        flip_byte(&shard, len / 2).unwrap();

        let (_, recovered) = DurableStore::open(Arc::new(DiskIo), cfg(&dir)).unwrap();
        assert_eq!(recovered.report.base_generation, Some(1));
        assert_eq!(recovered.report.rejected.len(), 1);
        assert_eq!(recovered.report.rejected[0].0, 2);
        // wal-1 (chunks 3..6) + wal-2 (chunks 6..8)
        assert_eq!(recovered.report.replayed_records, 5);
        let session = recovered.resume_session(stream_cfg()).unwrap();
        assert_eq!(session.export_state(), reference(8).export_state());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn first_checkpoint_corrupt_falls_back_to_wal_alone() {
        let dir = tmpdir("fallback-empty");
        drive(Arc::new(DiskIo), &dir, 5, &[2]).unwrap();
        let meta = checkpoint_dir(&dir, 1).join("meta.bin");
        let len = fs::metadata(&meta).unwrap().len();
        flip_byte(&meta, len - 1).unwrap();

        let (_, recovered) = DurableStore::open(Arc::new(DiskIo), cfg(&dir)).unwrap();
        assert!(recovered.report.base_generation.is_none());
        assert_eq!(recovered.report.rejected.len(), 1);
        assert_eq!(recovered.report.replayed_records, 5, "wal-0 + wal-1 in full");
        let session = recovered.resume_session(stream_cfg()).unwrap();
        assert_eq!(session.export_state(), reference(5).export_state());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_format_checkpoint_is_rejected_by_name_and_recovery_falls_back() {
        let dir = tmpdir("old-format");
        drive(Arc::new(DiskIo), &dir, 5, &[2]).unwrap();
        // re-frame checkpoint 1's meta under the previous format version
        let meta = checkpoint_dir(&dir, 1).join("meta.bin");
        let bytes = fs::read(&meta).unwrap();
        let payload = crate::codec::unframe_file(
            crate::snapshot::META_MAGIC,
            crate::snapshot::CHECKPOINT_FORMAT_VERSION,
            &bytes,
        )
        .unwrap();
        fs::write(&meta, crate::codec::frame_file(crate::snapshot::META_MAGIC, 1, payload))
            .unwrap();

        let (_, recovered) = DurableStore::open(Arc::new(DiskIo), cfg(&dir)).unwrap();
        assert!(recovered.report.base_generation.is_none());
        assert_eq!(recovered.report.rejected.len(), 1);
        let why = &recovered.report.rejected[0].1;
        assert!(why.contains("unsupported checkpoint format version 1"), "got: {why}");
        let session = recovered.resume_session(stream_cfg()).unwrap();
        assert_eq!(session.export_state(), reference(5).export_state());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn both_recovery_roots_corrupt_is_a_hard_error() {
        let dir = tmpdir("dead");
        drive(Arc::new(DiskIo), &dir, 8, &[2, 5]).unwrap();
        for gen in [1u64, 2] {
            let meta = checkpoint_dir(&dir, gen).join("meta.bin");
            let len = fs::metadata(&meta).unwrap().len();
            flip_byte(&meta, len - 1).unwrap();
        }
        let err = DurableStore::open(Arc::new(DiskIo), cfg(&dir)).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got: {err}");
        assert!(err.to_string().contains("no usable recovery root"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_live_wal_tail_is_truncated_and_replay_stops_there() {
        let dir = tmpdir("torn");
        drive(Arc::new(DiskIo), &dir, 4, &[]).unwrap();
        crate::io::tear_tail(&wal_path(&dir, 0), 7).unwrap();
        let (_, recovered) = DurableStore::open(Arc::new(DiskIo), cfg(&dir)).unwrap();
        assert_eq!(recovered.report.replayed_records, 3);
        // The tear removed part of record 4: 3 records survive and the
        // partial prefix of record 4 was truncated off.
        assert!(recovered.report.truncated_bytes > 0);
        let rescan = scan_segment(&wal_path(&dir, 0)).unwrap();
        assert_eq!(rescan.torn_bytes, 0, "repair left a clean segment");
        let session = recovered.resume_session(stream_cfg()).unwrap();
        assert_eq!(session.export_state(), reference(3).export_state());
        // Resume point: end of chunk 3, so re-reading the input file
        // from `input_offset` re-consumes exactly chunk 4.
        let want: u64 = (0..3).map(|i| chunk(i).len() as u64).sum();
        assert_eq!(recovered.input_offset, want);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_mid_chain_wal_is_a_hard_error() {
        let dir = tmpdir("torn-mid");
        drive(Arc::new(DiskIo), &dir, 8, &[2, 5]).unwrap();
        // Corrupt checkpoint 2 (forcing a fallback that needs wal-1)
        // AND tear wal-1: rows are genuinely unrecoverable.
        let shard = crate::snapshot::shard_file(&checkpoint_dir(&dir, 2), 0);
        flip_byte(&shard, 20).unwrap();
        crate::io::tear_tail(&wal_path(&dir, 1), 3).unwrap();
        let err = DurableStore::open(Arc::new(DiskIo), cfg(&dir)).unwrap_err();
        assert!(err.to_string().contains("torn mid-chain"), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_prune_old_generations() {
        let dir = tmpdir("prune");
        drive(Arc::new(DiskIo), &dir, 9, &[1, 3, 5, 7]).unwrap();
        let gens = list_generations(&dir).unwrap();
        assert_eq!(gens, vec![3, 4], "only the two newest generations survive");
        assert!(!wal_path(&dir, 0).exists());
        assert!(!wal_path(&dir, 2).exists());
        assert!(wal_path(&dir, 3).exists());
        assert!(wal_path(&dir, 4).exists());
        // And the pruned store still recovers exactly.
        let (_, recovered) = DurableStore::open(Arc::new(DiskIo), cfg(&dir)).unwrap();
        let session = recovered.resume_session(stream_cfg()).unwrap();
        assert_eq!(session.export_state(), reference(9).export_state());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn releases_record_manifest_before_artifact() {
        let dir = tmpdir("release");
        let (mut store, _) = DurableStore::open(Arc::new(DiskIo), cfg(&dir)).unwrap();
        let spent = vec![BudgetEntry { label: "release 0".into(), epsilon: 0.7, delta: 0.05 }];
        let m = store.record_release(&spent, 42, b"sanitized output\n").unwrap();
        assert_eq!(m.seq, 0);
        let on_disk = fs::read(releases_dir(&dir).join(&m.artifact)).unwrap();
        assert_eq!(on_disk, b"sanitized output\n");
        // Reopen: chain has the release, artifact verifies.
        let (store2, recovered) = DurableStore::open(Arc::new(DiskIo), cfg(&dir)).unwrap();
        assert_eq!(recovered.manifests.len(), 1);
        assert!(recovered.report.unpublished.is_empty());
        assert_eq!(store2.next_seq(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_manifest_and_artifact_spends_but_never_publishes() {
        let dir = tmpdir("crash-gap");
        {
            let (mut store, _) = DurableStore::open(Arc::new(DiskIo), cfg(&dir)).unwrap();
            store
                .record_release(
                    &[BudgetEntry { label: "r0".into(), epsilon: 0.3, delta: 0.0 }],
                    10,
                    b"first\n",
                )
                .unwrap();
        }
        // Now a store whose io dies right after the manifest write:
        // measure the manifest size, then kill at just past it.
        let manifest_len = fs::metadata(crate::manifest::manifest_path(&dir, 0)).unwrap().len();
        let io = Arc::new(FaultIo::new(manifest_len + 2));
        let (mut store, _) = DurableStore::open(io, cfg(&dir)).unwrap();
        let err = store
            .record_release(
                &[BudgetEntry { label: "r1".into(), epsilon: 0.3, delta: 0.0 }],
                20,
                b"second\n",
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "got: {err}");

        // Recovery: two manifests (the spend is permanent), artifact 1
        // missing → unpublished, and the ledger can never under-count.
        let (store3, recovered) = DurableStore::open(Arc::new(DiskIo), cfg(&dir)).unwrap();
        assert_eq!(recovered.manifests.len(), 2);
        assert_eq!(recovered.report.unpublished, vec![1]);
        let ledger = crate::manifest::rebuild_ledger(&recovered.manifests, None);
        assert!((ledger.total_epsilon() - 0.6).abs() < 1e-12);
        assert_eq!(store3.next_seq(), 2, "the lost artifact's seq is not reused");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_during_manifest_write_spends_nothing() {
        let dir = tmpdir("crash-manifest");
        let io = Arc::new(FaultIo::new(4)); // dies 4 bytes into the manifest temp file
        let (mut store, _) = DurableStore::open(io, cfg(&dir)).unwrap();
        let err = store
            .record_release(
                &[BudgetEntry { label: "r0".into(), epsilon: 0.3, delta: 0.0 }],
                10,
                b"out\n",
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::Io(_)));
        let (store2, recovered) = DurableStore::open(Arc::new(DiskIo), cfg(&dir)).unwrap();
        assert!(recovered.manifests.is_empty(), "no manifest, no spend, no artifact");
        assert_eq!(store2.next_seq(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn note_rows_triggers_at_the_threshold() {
        let dir = tmpdir("note");
        let (mut store, _) = DurableStore::open(
            Arc::new(DiskIo),
            StoreConfig { dir: dir.clone(), checkpoint_rows: 10 },
        )
        .unwrap();
        assert!(!store.note_rows(4));
        assert!(!store.note_rows(5));
        assert!(store.note_rows(1), "10 rows reached");
        fs::remove_dir_all(&dir).unwrap();
    }
}
