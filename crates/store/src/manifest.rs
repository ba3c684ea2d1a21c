//! Versioned release manifests: the durable privacy ledger.
//!
//! Every sanitized release the daemon publishes is recorded as a
//! manifest file under `releases/`:
//!
//! ```text
//! releases/
//!   manifest-00000000.bin
//!   manifest-00000001.bin
//!   ...
//!   release-00000001.tsv     the checksummed artifact itself
//! ```
//!
//! A manifest names the release artifact, its length and CRC-32, and
//! — the part that makes budgets survive restarts — the exact
//! [`BudgetEntry`] list the release spent, with ε and δ stored as raw
//! IEEE-754 bits. Manifests are **chained**: each embeds the CRC-32 of
//! the previous manifest's file bytes, so a deleted or substituted
//! middle manifest breaks every later link.
//!
//! The write ordering is *manifest first*: the manifest is durable on
//! disk **before** the release artifact is published. A crash between
//! the two wastes that release's budget (the ledger remembers a spend
//! whose output never shipped) — the conservative direction. The
//! reverse order could publish sanitized output that a restarted
//! daemon doesn't account for, silently overspending the lifetime
//! (ε, δ); that must be impossible.
//!
//! Accordingly, chain corruption is a **hard startup error**, not a
//! fallback: dropping an undecodable manifest would under-count spent
//! budget. The operator must restore the file or retire the store
//! directory; the daemon refuses to guess.

use crate::codec::{frame_file, unframe_file, CodecError, Decoder, Encoder, FORMAT_VERSION};
use crate::crc::crc32;
use crate::io::StoreIo;
use dpsan_dp::BudgetEntry;
use std::io;
use std::path::{Path, PathBuf};

/// Magic for manifest files: `"DMAN"`.
pub const MANIFEST_MAGIC: u32 = u32::from_le_bytes(*b"DMAN");

/// The releases subdirectory of a store.
pub fn releases_dir(store_dir: &Path) -> PathBuf {
    store_dir.join("releases")
}

/// Path of the manifest with sequence number `seq`.
pub fn manifest_path(store_dir: &Path, seq: u64) -> PathBuf {
    releases_dir(store_dir).join(format!("manifest-{seq:08}.bin"))
}

/// Parse a sequence number back out of a `manifest-NNNNNNNN.bin` name.
pub fn parse_manifest_name(name: &str) -> Option<u64> {
    name.strip_prefix("manifest-")?.strip_suffix(".bin")?.parse().ok()
}

/// One release's durable record.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleaseManifest {
    /// Release sequence number, 0-based, contiguous.
    pub seq: u64,
    /// CRC-32 of the previous manifest's file bytes (0 for seq 0).
    pub prev_crc: u32,
    /// File name of the release artifact (relative to `releases/`).
    pub artifact: String,
    /// Byte length of the artifact.
    pub artifact_len: u64,
    /// CRC-32 of the artifact bytes.
    pub artifact_crc: u32,
    /// Input rows the release covered (the window bound).
    pub rows: u64,
    /// The exact budget entries this release spent.
    pub spent: Vec<BudgetEntry>,
}

fn encode_manifest(m: &ReleaseManifest) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(m.seq);
    e.u32(m.prev_crc);
    e.str(&m.artifact);
    e.u64(m.artifact_len);
    e.u32(m.artifact_crc);
    e.u64(m.rows);
    e.u64(m.spent.len() as u64);
    for entry in &m.spent {
        e.str(&entry.label);
        e.f64(entry.epsilon);
        e.f64(entry.delta);
    }
    e.finish()
}

fn decode_manifest(payload: &[u8]) -> Result<ReleaseManifest, CodecError> {
    let mut d = Decoder::new(payload);
    let seq = d.u64()?;
    let prev_crc = d.u32()?;
    let artifact = d.str()?;
    let artifact_len = d.u64()?;
    let artifact_crc = d.u32()?;
    let rows = d.u64()?;
    let n = d.count(24)?; // label prefix + two f64s per entry
    let mut spent = Vec::with_capacity(n);
    for _ in 0..n {
        let label = d.str()?;
        let epsilon = d.f64()?;
        let delta = d.f64()?;
        spent.push(BudgetEntry { label, epsilon, delta });
    }
    d.expect_end()?;
    Ok(ReleaseManifest { seq, prev_crc, artifact, artifact_len, artifact_crc, rows, spent })
}

/// Durably append `manifest` to the chain. The caller is responsible
/// for setting `prev_crc` via [`chain_crc`] and for writing the
/// artifact only *after* this returns.
pub fn write_manifest(
    io: &dyn StoreIo,
    store_dir: &Path,
    manifest: &ReleaseManifest,
) -> io::Result<()> {
    io.create_dir_all(&releases_dir(store_dir))?;
    let bytes = frame_file(MANIFEST_MAGIC, FORMAT_VERSION, &encode_manifest(manifest));
    io.write_atomic(&manifest_path(store_dir, manifest.seq), &bytes)
}

/// CRC-32 of a manifest's file bytes — the value the *next* manifest
/// must embed as `prev_crc`.
pub fn chain_crc(manifest: &ReleaseManifest) -> u32 {
    crc32(&frame_file(MANIFEST_MAGIC, FORMAT_VERSION, &encode_manifest(manifest)))
}

/// Read and verify the whole manifest chain. Returns the manifests in
/// sequence order. Errors are hard: a gap, an undecodable file, or a
/// broken chain link all mean the spent-budget record is incomplete,
/// and proceeding could overspend the lifetime (ε, δ).
pub fn read_chain(store_dir: &Path) -> Result<Vec<ReleaseManifest>, String> {
    let dir = releases_dir(store_dir);
    let mut seqs = Vec::new();
    match std::fs::read_dir(&dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry.map_err(|e| format!("releases dir unreadable: {e}"))?;
                if let Some(name) = entry.file_name().to_str() {
                    if let Some(seq) = parse_manifest_name(name) {
                        seqs.push(seq);
                    }
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("releases dir unreadable: {e}")),
    }
    seqs.sort_unstable();
    let mut chain = Vec::with_capacity(seqs.len());
    let mut prev_crc = 0u32;
    for (i, &seq) in seqs.iter().enumerate() {
        if seq != i as u64 {
            return Err(format!(
                "manifest chain has a gap: expected manifest {i}, found {seq} — refusing to \
                 under-count spent budget"
            ));
        }
        let path = manifest_path(store_dir, seq);
        let bytes = std::fs::read(&path).map_err(|e| format!("manifest {seq} unreadable: {e}"))?;
        let payload = unframe_file(MANIFEST_MAGIC, FORMAT_VERSION, &bytes)
            .map_err(|e| format!("manifest {seq} corrupt: {e}"))?;
        let m = decode_manifest(payload).map_err(|e| format!("manifest {seq} corrupt: {e}"))?;
        if m.seq != seq {
            return Err(format!("manifest {seq} claims sequence {} (renamed file?)", m.seq));
        }
        if m.prev_crc != prev_crc {
            return Err(format!(
                "manifest {seq} chain link broken: embeds prev_crc {:#010x}, predecessor hashes \
                 to {prev_crc:#010x} — a manifest was altered or substituted",
                m.prev_crc
            ));
        }
        prev_crc = crc32(&bytes);
        chain.push(m);
    }
    Ok(chain)
}

/// Rebuild a [`dpsan_dp::BudgetLedger`] from a verified chain: every
/// recorded spend is replayed bit-for-bit, then the lifetime cap (if
/// any) governs *future* spends. Replayed history may already exceed a
/// newly lowered cap — the ledger records facts; `try_spend_all` will
/// refuse everything further, which is the safe behavior.
pub fn rebuild_ledger(
    chain: &[ReleaseManifest],
    lifetime: Option<(f64, f64)>,
) -> dpsan_dp::BudgetLedger {
    let mut ledger = match lifetime {
        Some((e, d)) => dpsan_dp::BudgetLedger::with_lifetime(e, d),
        None => dpsan_dp::BudgetLedger::new(),
    };
    for m in chain {
        for entry in &m.spent {
            ledger.spend(entry.label.clone(), entry.epsilon, entry.delta);
        }
    }
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{flip_byte, DiskIo};
    use std::fs;

    fn spent(label: &str, epsilon: f64, delta: f64) -> BudgetEntry {
        BudgetEntry { label: label.into(), epsilon, delta }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dpsan-store-man-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_manifest(seq: u64, prev_crc: u32) -> ReleaseManifest {
        ReleaseManifest {
            seq,
            prev_crc,
            artifact: format!("release-{seq:08}.tsv"),
            artifact_len: 100 + seq,
            artifact_crc: 0xABCD + seq as u32,
            rows: 10 * (seq + 1),
            spent: vec![
                BudgetEntry { label: format!("release {seq}"), epsilon: 0.5, delta: 0.01 },
                BudgetEntry { label: "laplace".into(), epsilon: 0.1, delta: 0.0 },
            ],
        }
    }

    fn write_chain(dir: &Path, n: u64) -> Vec<ReleaseManifest> {
        let mut prev = 0u32;
        let mut out = Vec::new();
        for seq in 0..n {
            let m = sample_manifest(seq, prev);
            write_manifest(&DiskIo, dir, &m).unwrap();
            prev = chain_crc(&m);
            out.push(m);
        }
        out
    }

    #[test]
    fn chain_roundtrips() {
        let dir = tmpdir("roundtrip");
        let written = write_chain(&dir, 4);
        let read = read_chain(&dir).unwrap();
        assert_eq!(read, written);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_store_has_empty_chain() {
        let dir = tmpdir("empty");
        assert_eq!(read_chain(&dir).unwrap(), Vec::new());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gap_in_chain_is_a_hard_error() {
        let dir = tmpdir("gap");
        write_chain(&dir, 3);
        fs::remove_file(manifest_path(&dir, 1)).unwrap();
        let err = read_chain(&dir).unwrap_err();
        assert!(err.contains("gap"), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_manifest_byte_is_a_hard_error() {
        let dir = tmpdir("flip");
        write_chain(&dir, 3);
        let p = manifest_path(&dir, 1);
        let len = fs::metadata(&p).unwrap().len();
        flip_byte(&p, len / 2).unwrap();
        let err = read_chain(&dir).unwrap_err();
        assert!(err.contains("corrupt"), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn substituted_manifest_breaks_the_chain_link() {
        // Replace manifest 1 with a perfectly well-formed manifest that
        // simply spends less — the CRC chain catches it.
        let dir = tmpdir("subst");
        let chain = write_chain(&dir, 3);
        let mut fake = sample_manifest(1, chain[1].prev_crc);
        fake.spent.truncate(1);
        write_manifest(&DiskIo, &dir, &fake).unwrap();
        let err = read_chain(&dir).unwrap_err();
        assert!(err.contains("chain link broken"), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebuilt_ledger_matches_sequential_composition_exactly() {
        let dir = tmpdir("ledger");
        let written = write_chain(&dir, 5);
        let chain = read_chain(&dir).unwrap();
        let ledger = rebuild_ledger(&chain, None);
        let want_entries: Vec<&BudgetEntry> = written.iter().flat_map(|m| m.spent.iter()).collect();
        assert_eq!(ledger.entries().len(), want_entries.len());
        for (got, want) in ledger.entries().iter().zip(want_entries) {
            assert_eq!(got, want);
            // bit-exact, not merely approximately equal
            assert_eq!(got.epsilon.to_bits(), want.epsilon.to_bits());
            assert_eq!(got.delta.to_bits(), want.delta.to_bits());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rebuilt_capped_ledger_enforces_the_remaining_budget() {
        let dir = tmpdir("capped");
        write_chain(&dir, 2); // spends 2 × (0.6, 0.01)
        let chain = read_chain(&dir).unwrap();
        let mut ledger = rebuild_ledger(&chain, Some((1.5, 0.1)));
        assert!((ledger.total_epsilon() - 1.2).abs() < 1e-12);
        ledger.try_spend_all(&[spent("r", 0.3, 0.0)]).unwrap();
        assert!(ledger.try_spend_all(&[spent("r", 0.1, 0.0)]).is_err(), "cap survives the restart");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn history_past_a_lowered_cap_refuses_all_future_spends() {
        let dir = tmpdir("lowered");
        write_chain(&dir, 3); // 1.8 total ε
        let chain = read_chain(&dir).unwrap();
        let mut ledger = rebuild_ledger(&chain, Some((1.0, 0.1)));
        assert!(ledger.total_epsilon() > 1.0, "history preserved even past the cap");
        assert!(ledger.try_spend_all(&[spent("r", 1e-9, 0.0)]).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
