//! Checkpoints: checksummed snapshots of the whole ingest session.
//!
//! A checkpoint is a directory
//!
//! ```text
//! checkpoint-GGGGGGGG/
//!   vocab.snap           framed session vocabulary (every string, once)
//!   shard-0000.snap      framed integer-only shard state
//!   shard-0001.snap
//!   ...
//!   meta.bin             framed metadata — written LAST, atomically
//! ```
//!
//! `meta.bin` records the generation, the input-file offset at
//! checkpoint time, the session counters, and the CRC-32 of the
//! vocabulary and of every shard payload. Because it is written last
//! with temp-file + rename, its presence *is* checkpoint validity: a
//! crash mid-checkpoint leaves a directory without a decodable
//! `meta.bin`, which recovery skips as if it never existed. A
//! checkpoint whose meta decodes but whose files don't match their
//! recorded CRCs is rejected the same way — recovery then falls back to
//! the previous generation and replays both WAL segments (see
//! [`crate::store`]).
//!
//! Checkpoint files carry their own format version,
//! [`CHECKPOINT_FORMAT_VERSION`], independent of the manifest frames. A
//! checkpoint written in another layout is refused as an "unsupported
//! checkpoint format" before any of it is decoded, and recovery treats
//! it like any other rejected checkpoint.
//!
//! Format 2 reserved a flag word in every shard file and in `meta.bin`
//! for per-shard sketch sections. Sessions that sketch are never
//! checkpointed, so both words are always written as `0`, and a
//! nonzero word is rejected as a decode error.

use crate::codec::{
    decode_shard_snapshot, decode_vocab, encode_shard_snapshot, encode_vocab, expect_no_sketch,
    frame_file, frame_version, unframe_file, CodecError, Decoder, Encoder,
};
use crate::crc::crc32;
use crate::io::StoreIo;
use dpsan_stream::SessionState;
use std::io;
use std::path::{Path, PathBuf};

/// Format version of every checkpoint file (`vocab.snap`, shard files,
/// `meta.bin`). Version 1 stored a private vocabulary per shard; version
/// 2 stores the session vocabulary once plus integer-only shards.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 2;

/// Magic for shard snapshot files: `"DSNP"`.
pub const SNAP_MAGIC: u32 = u32::from_le_bytes(*b"DSNP");

/// Magic for the vocabulary file: `"DVOC"`.
pub const VOCAB_MAGIC: u32 = u32::from_le_bytes(*b"DVOC");

/// Magic for checkpoint metadata files: `"DMET"`.
pub const META_MAGIC: u32 = u32::from_le_bytes(*b"DMET");

/// Directory name of generation `gen`.
pub fn checkpoint_dir(store_dir: &Path, gen: u64) -> PathBuf {
    store_dir.join(format!("checkpoint-{gen:08}"))
}

/// File name of shard `idx` inside a checkpoint directory.
pub fn shard_file(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("shard-{idx:04}.snap"))
}

/// The vocabulary file inside a checkpoint directory.
pub fn vocab_file(dir: &Path) -> PathBuf {
    dir.join("vocab.snap")
}

/// Parse a generation number back out of a `checkpoint-GGGGGGGG` name.
pub fn parse_checkpoint_dir(name: &str) -> Option<u64> {
    name.strip_prefix("checkpoint-")?.parse().ok()
}

/// Decoded checkpoint metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointMeta {
    /// Generation number (monotone per store).
    pub generation: u64,
    /// Input-file offset at checkpoint time: replay of the paired WAL
    /// segment continues from here.
    pub input_offset: u64,
    /// Session row counter at checkpoint time.
    pub rows: u64,
    /// Session line counter at checkpoint time.
    pub lines: u64,
    /// Session peak chunk buffer at checkpoint time.
    pub peak_chunk_rows: u64,
    /// CRC-32 of the vocabulary file's *payload*.
    pub vocab_crc: u32,
    /// CRC-32 of each shard file's *payload*, indexed by shard.
    pub shard_crcs: Vec<u32>,
}

fn encode_meta(meta: &CheckpointMeta) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(meta.generation);
    e.u64(meta.input_offset);
    e.u64(meta.rows);
    e.u64(meta.lines);
    e.u64(meta.peak_chunk_rows);
    e.u32(0); // the format-2 sketch flag: no shard file carries a sketch
    e.u32(meta.vocab_crc);
    e.u64(meta.shard_crcs.len() as u64);
    for &crc in &meta.shard_crcs {
        e.u32(crc);
    }
    e.finish()
}

fn decode_meta(payload: &[u8]) -> Result<CheckpointMeta, CodecError> {
    let mut d = Decoder::new(payload);
    let generation = d.u64()?;
    let input_offset = d.u64()?;
    let rows = d.u64()?;
    let lines = d.u64()?;
    let peak_chunk_rows = d.u64()?;
    expect_no_sketch(&mut d)?;
    let vocab_crc = d.u32()?;
    let n = d.count(4)?;
    let mut shard_crcs = Vec::with_capacity(n);
    for _ in 0..n {
        shard_crcs.push(d.u32()?);
    }
    d.expect_end()?;
    Ok(CheckpointMeta {
        generation,
        input_offset,
        rows,
        lines,
        peak_chunk_rows,
        vocab_crc,
        shard_crcs,
    })
}

/// Frame one checkpoint file at [`CHECKPOINT_FORMAT_VERSION`].
fn frame_checkpoint(magic: u32, payload: &[u8]) -> Vec<u8> {
    frame_file(magic, CHECKPOINT_FORMAT_VERSION, payload)
}

/// Strip a checkpoint file's frame. A file of another checkpoint format
/// version is refused by name, before any of its layout is trusted.
fn unframe_checkpoint(magic: u32, bytes: &[u8]) -> Result<&[u8], String> {
    match frame_version(magic, bytes) {
        Some(v) if v != CHECKPOINT_FORMAT_VERSION => Err(format!(
            "unsupported checkpoint format version {v} (this build reads version \
             {CHECKPOINT_FORMAT_VERSION})"
        )),
        _ => unframe_file(magic, CHECKPOINT_FORMAT_VERSION, bytes).map_err(|e| e.to_string()),
    }
}

/// Write a whole checkpoint for `state` at `gen`. Vocabulary and shard
/// files first, `meta.bin` last — the commit point.
pub fn write_checkpoint(
    io: &dyn StoreIo,
    store_dir: &Path,
    gen: u64,
    state: &SessionState,
    input_offset: u64,
) -> io::Result<()> {
    let dir = checkpoint_dir(store_dir, gen);
    io.create_dir_all(&dir)?;
    let vocab = encode_vocab(&state.vocab);
    let vocab_crc = crc32(&vocab);
    io.write_atomic(&vocab_file(&dir), &frame_checkpoint(VOCAB_MAGIC, &vocab))?;
    let mut shard_crcs = Vec::with_capacity(state.shards.len());
    for (i, shard) in state.shards.iter().enumerate() {
        let payload = encode_shard_snapshot(shard);
        shard_crcs.push(crc32(&payload));
        io.write_atomic(&shard_file(&dir, i), &frame_checkpoint(SNAP_MAGIC, &payload))?;
    }
    let meta = CheckpointMeta {
        generation: gen,
        input_offset,
        rows: state.rows,
        lines: state.lines,
        peak_chunk_rows: state.peak_chunk_rows as u64,
        vocab_crc,
        shard_crcs,
    };
    io.write_atomic(&dir.join("meta.bin"), &frame_checkpoint(META_MAGIC, &encode_meta(&meta)))
}

/// Read and fully verify the checkpoint at `gen`, reconstructing the
/// session state. Any failure — missing or undecodable meta, a file of
/// an unsupported checkpoint format, missing vocabulary or shard file,
/// CRC mismatch against the meta's record, undecodable payload — is
/// reported as a `String` so the caller can fall back to an older
/// generation.
pub fn read_checkpoint(
    store_dir: &Path,
    gen: u64,
) -> Result<(SessionState, CheckpointMeta), String> {
    let dir = checkpoint_dir(store_dir, gen);
    let meta_bytes = std::fs::read(dir.join("meta.bin"))
        .map_err(|e| format!("checkpoint {gen}: meta.bin unreadable: {e}"))?;
    let meta_payload = unframe_checkpoint(META_MAGIC, &meta_bytes)
        .map_err(|e| format!("checkpoint {gen}: meta.bin: {e}"))?;
    let meta = decode_meta(meta_payload).map_err(|e| format!("checkpoint {gen}: meta.bin: {e}"))?;
    if meta.generation != gen {
        return Err(format!(
            "checkpoint {gen}: meta claims generation {} (misplaced directory?)",
            meta.generation
        ));
    }
    let read_verified = |path: &Path, magic: u32, what: &str, want_crc: u32| {
        let bytes =
            std::fs::read(path).map_err(|e| format!("checkpoint {gen}: {what} unreadable: {e}"))?;
        let payload = unframe_checkpoint(magic, &bytes)
            .map_err(|e| format!("checkpoint {gen}: {what}: {e}"))?;
        if crc32(payload) != want_crc {
            return Err(format!(
                "checkpoint {gen}: {what} checksum does not match the meta record"
            ));
        }
        Ok(payload.to_vec())
    };
    let vocab_payload = read_verified(&vocab_file(&dir), VOCAB_MAGIC, "vocab", meta.vocab_crc)?;
    let vocab =
        decode_vocab(&vocab_payload).map_err(|e| format!("checkpoint {gen}: vocab: {e}"))?;
    let mut shards = Vec::with_capacity(meta.shard_crcs.len());
    for (i, &want_crc) in meta.shard_crcs.iter().enumerate() {
        let what = format!("shard {i}");
        let payload = read_verified(&shard_file(&dir, i), SNAP_MAGIC, &what, want_crc)?;
        shards.push(
            decode_shard_snapshot(&payload)
                .map_err(|e| format!("checkpoint {gen}: {what}: {e}"))?,
        );
    }
    let state = SessionState {
        vocab,
        shards,
        rows: meta.rows,
        lines: meta.lines,
        peak_chunk_rows: meta.peak_chunk_rows as usize,
    };
    Ok((state, meta))
}

/// List the generations that have a checkpoint directory under
/// `store_dir`, ascending. Directories are listed by *name only* —
/// validity is decided by [`read_checkpoint`].
pub fn list_generations(store_dir: &Path) -> io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    let entries = match std::fs::read_dir(store_dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(gens),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some(gen) = parse_checkpoint_dir(name) {
                gens.push(gen);
            }
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{flip_byte, DiskIo};
    use dpsan_stream::{IngestSession, StreamConfig};
    use std::fs;
    use std::io::Cursor;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dpsan-store-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_state() -> (StreamConfig, SessionState) {
        let mut tsv = String::new();
        for i in 0..50 {
            tsv.push_str(&format!("u{:02}\tq{}\ts{}.com\t{}\n", i % 11, i % 7, i % 3, 1 + i % 4));
        }
        let cfg = StreamConfig { shards: 4, chunk_rows: 8, sketch_capacity: 0, jobs: 1 };
        let mut s = IngestSession::new(cfg.clone());
        s.ingest(Cursor::new(tsv)).unwrap();
        (cfg, s.export_state())
    }

    #[test]
    fn checkpoint_roundtrip_is_exact() {
        let dir = tmpdir("roundtrip");
        let (cfg, state) = sample_state();
        write_checkpoint(&DiskIo, &dir, 3, &state, 12345).unwrap();
        let (got, meta) = read_checkpoint(&dir, 3).unwrap();
        assert_eq!(got, state);
        assert_eq!(meta.input_offset, 12345);
        assert_eq!(meta.generation, 3);
        // and the state actually restores into a working session
        IngestSession::restore(cfg, got).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_meta_invalidates_the_checkpoint() {
        let dir = tmpdir("no-meta");
        let (_, state) = sample_state();
        write_checkpoint(&DiskIo, &dir, 0, &state, 0).unwrap();
        fs::remove_file(checkpoint_dir(&dir, 0).join("meta.bin")).unwrap();
        let err = read_checkpoint(&dir, 0).unwrap_err();
        assert!(err.contains("meta.bin unreadable"), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_shard_byte_is_rejected() {
        let dir = tmpdir("flip-shard");
        let (_, state) = sample_state();
        write_checkpoint(&DiskIo, &dir, 0, &state, 0).unwrap();
        let shard0 = shard_file(&checkpoint_dir(&dir, 0), 0);
        let len = fs::metadata(&shard0).unwrap().len();
        flip_byte(&shard0, len / 2).unwrap();
        let err = read_checkpoint(&dir, 0).unwrap_err();
        assert!(err.contains("shard 0"), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_meta_byte_is_rejected() {
        let dir = tmpdir("flip-meta");
        let (_, state) = sample_state();
        write_checkpoint(&DiskIo, &dir, 0, &state, 0).unwrap();
        let meta = checkpoint_dir(&dir, 0).join("meta.bin");
        let len = fs::metadata(&meta).unwrap().len();
        flip_byte(&meta, len - 1).unwrap();
        assert!(read_checkpoint(&dir, 0).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn swapped_shard_files_are_rejected() {
        // Same format, valid frames — but the meta's per-shard CRCs
        // pin each file to its slot.
        let dir = tmpdir("swap");
        let (_, state) = sample_state();
        write_checkpoint(&DiskIo, &dir, 0, &state, 0).unwrap();
        let cp = checkpoint_dir(&dir, 0);
        let a = fs::read(shard_file(&cp, 0)).unwrap();
        let b = fs::read(shard_file(&cp, 1)).unwrap();
        assert_ne!(a, b, "test needs distinct shards");
        fs::write(shard_file(&cp, 0), &b).unwrap();
        fs::write(shard_file(&cp, 1), &a).unwrap();
        let err = read_checkpoint(&dir, 0).unwrap_err();
        assert!(err.contains("checksum"), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_vocab_byte_is_rejected() {
        let dir = tmpdir("flip-vocab");
        let (_, state) = sample_state();
        write_checkpoint(&DiskIo, &dir, 0, &state, 0).unwrap();
        let vocab = vocab_file(&checkpoint_dir(&dir, 0));
        let len = fs::metadata(&vocab).unwrap().len();
        flip_byte(&vocab, len / 2).unwrap();
        let err = read_checkpoint(&dir, 0).unwrap_err();
        assert!(err.contains("vocab"), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint in the version-1 layout (a private vocabulary and
    /// first-row tables inside every shard file, no `vocab.snap`) is
    /// refused by name; none of its bytes are decoded as version 2.
    #[test]
    fn old_layout_checkpoint_is_rejected_as_unsupported() {
        let dir = tmpdir("old-layout");
        let cp = checkpoint_dir(&dir, 1);
        fs::create_dir_all(&cp).unwrap();
        // version-1 shard payload: three string tables, first-row
        // tables, pair keys, triplets, counters — then no sketch
        let mut shard = Encoder::new();
        for strings in [&["u1"][..], &["q"], &["l"]] {
            shard.u64(strings.len() as u64);
            for s in strings {
                shard.str(s);
            }
        }
        for _ in 0..3 {
            shard.u64(1);
            shard.u64(0);
        }
        shard.u64(1);
        shard.u32(0);
        shard.u32(0);
        shard.u64(1);
        shard.u64(0);
        shard.u64(1);
        shard.u32(0);
        shard.u32(0);
        shard.u64(3);
        shard.u64(1);
        shard.u64(3);
        let mut payload = Encoder::new();
        payload.bytes(&shard.finish());
        payload.u32(0);
        let payload = payload.finish();
        fs::write(shard_file(&cp, 0), frame_file(SNAP_MAGIC, 1, &payload)).unwrap();
        // version-1 meta: no vocabulary CRC
        let mut meta = Encoder::new();
        for v in [1u64, 10, 1, 1, 1] {
            meta.u64(v);
        }
        meta.u32(0);
        meta.u64(1);
        meta.u32(crc32(&payload));
        fs::write(cp.join("meta.bin"), frame_file(META_MAGIC, 1, &meta.finish())).unwrap();

        let err = read_checkpoint(&dir, 1).unwrap_err();
        assert!(err.contains("meta.bin: unsupported checkpoint format version 1"), "got: {err}");
        // a version-1 shard file next to a current meta is refused too
        let (_, state) = sample_state();
        write_checkpoint(&DiskIo, &dir, 2, &state, 0).unwrap();
        fs::copy(shard_file(&cp, 0), shard_file(&checkpoint_dir(&dir, 2), 0)).unwrap();
        let err = read_checkpoint(&dir, 2).unwrap_err();
        assert!(err.contains("shard 0: unsupported checkpoint format version 1"), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Checkpoint format 2, pinned byte for byte: a fixed 3-shard
    /// session that does not sketch writes exactly these files. The
    /// literals were taken from the build that still carried the sketch
    /// codec, so dropping it moved no byte.
    #[test]
    fn format2_checkpoint_bytes_are_pinned() {
        let tsv: String = (0..12u32)
            .map(|i| format!("u{}\tq{}\tl{}\t{}\n", i % 5, i % 4, (i * 3) % 5, 1 + i % 3))
            .collect();
        let cfg = StreamConfig { shards: 3, chunk_rows: 4, sketch_capacity: 0, jobs: 1 };
        let mut session = IngestSession::new(cfg);
        session.ingest(Cursor::new(tsv)).unwrap();
        let dir = tmpdir("pinned");
        write_checkpoint(&DiskIo, &dir, 5, &session.export_state(), 777).unwrap();
        let cp = checkpoint_dir(&dir, 5);
        let hex = |name: &str| -> String {
            fs::read(cp.join(name)).unwrap().iter().map(|b| format!("{b:02x}")).collect()
        };
        let vocab = fs::read(vocab_file(&cp)).unwrap();
        assert_eq!((vocab.len(), crc32(&vocab)), (284, 0x1c12_ef6e), "vocab.snap");
        assert_eq!(
            hex("shard-0000.snap"),
            concat!(
                "44534e50020000004400000050a53ad638000000000000000200000000000000",
                "0200000002000000030000000000000007000000020000000200000000000000",
                "02000000000000000500000000000000",
                "00000000", // sketch flag
            )
        );
        for (name, len, crc) in
            [("shard-0001.snap", 132, 0xb867_e86a), ("shard-0002.snap", 132, 0xb255_b2f1)]
        {
            let b = fs::read(cp.join(name)).unwrap();
            assert_eq!((b.len(), crc32(&b)), (len, crc), "{name}");
        }
        assert_eq!(
            hex("meta.bin"),
            concat!(
                "444d45540200000044000000fc27ab56",
                "050000000000000009030000000000000c000000000000000c000000000000000400000000000000",
                "00000000", // sketch flag
                "9a13f026030000000000000050a53ad65baec8a6b093e98d",
            )
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A meta or shard file whose flag word announces a sketch section
    /// is rejected with an error. CRCs are kept consistent, so only the
    /// flag is wrong.
    #[test]
    fn nonzero_sketch_flag_is_rejected() {
        let dir = tmpdir("sketch-flag");
        let (_, state) = sample_state();
        write_checkpoint(&DiskIo, &dir, 0, &state, 0).unwrap();
        let cp = checkpoint_dir(&dir, 0);
        let meta_path = cp.join("meta.bin");
        let meta_payload =
            unframe_checkpoint(META_MAGIC, &fs::read(&meta_path).unwrap()).unwrap().to_vec();
        // the flag word follows the five u64 counters
        let mut bad = meta_payload.clone();
        bad[40..44].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&meta_path, frame_checkpoint(META_MAGIC, &bad)).unwrap();
        let err = read_checkpoint(&dir, 0).unwrap_err();
        assert!(err.contains("meta.bin") && err.contains("sketch flag 1"), "{err}");

        // a shard file with its flag set, its CRC re-recorded in the meta
        let shard0 = shard_file(&cp, 0);
        let mut payload =
            unframe_checkpoint(SNAP_MAGIC, &fs::read(&shard0).unwrap()).unwrap().to_vec();
        let at = payload.len() - 4;
        payload[at..].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&shard0, frame_checkpoint(SNAP_MAGIC, &payload)).unwrap();
        let mut meta = decode_meta(&meta_payload).unwrap();
        meta.shard_crcs[0] = crc32(&payload);
        fs::write(&meta_path, frame_checkpoint(META_MAGIC, &encode_meta(&meta))).unwrap();
        let err = read_checkpoint(&dir, 0).unwrap_err();
        assert!(err.contains("shard 0") && err.contains("sketch flag 1"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generations_list_sorted() {
        let dir = tmpdir("gens");
        let (_, state) = sample_state();
        for gen in [7u64, 2, 4] {
            write_checkpoint(&DiskIo, &dir, gen, &state, 0).unwrap();
        }
        assert_eq!(list_generations(&dir).unwrap(), vec![2, 4, 7]);
        assert_eq!(list_generations(&dir.join("nope")).unwrap(), Vec::<u64>::new());
        fs::remove_dir_all(&dir).unwrap();
    }
}
