//! Flat little-endian binary encoding for the store's on-disk
//! payloads.
//!
//! Deliberately boring: fixed-width integers, length-prefixed byte
//! strings, no compression, no self-description. The framing layer
//! above ([`crate::wal`], [`crate::snapshot`], [`crate::manifest`])
//! adds magic numbers, format versions, and CRCs; this module only
//! turns state structs into bytes and back. Floats are stored as raw
//! IEEE-754 bit patterns so a recovered ledger reproduces spent
//! budgets *bit for bit* — re-parsing through decimal could round.
//!
//! Every decoder is total: corrupt input yields `Err`, never a panic
//! or an out-of-bounds read, because recovery feeds these functions
//! bytes that may have been torn mid-write.

use dpsan_stream::{ShardState, VocabState};
use std::fmt;

/// Decoding failure: the bytes do not form a valid payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte sink for encoding.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Cursor over bytes being decoded; all reads are bounds-checked.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decode from `buf`, starting at the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless every byte was consumed (trailing garbage is
    /// corruption, not padding).
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError(format!("{} trailing bytes after payload", self.remaining())))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "truncated: wanted {n} bytes at offset {}, {} available",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` stored as a raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `u64` and narrow it to `usize`, rejecting overflow.
    #[allow(clippy::len_without_is_empty)] // a decode step, not a container length
    pub fn len(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        // Reject lengths past what the buffer could possibly hold so a
        // corrupt prefix can't trigger a huge allocation.
        if v > self.remaining() as u64 {
            return Err(CodecError(format!(
                "length {v} exceeds the {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(v as usize)
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.len()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| CodecError("invalid utf-8 string".into()))
    }

    /// Read an element count for fixed-stride items, rejecting counts
    /// the remaining bytes cannot hold.
    pub fn count(&mut self, stride: usize) -> Result<usize, CodecError> {
        let v = self.u64()?;
        if v.checked_mul(stride as u64).is_none_or(|total| total > self.remaining() as u64) {
            return Err(CodecError(format!(
                "count {v} of {stride}-byte items exceeds the {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(v as usize)
    }
}

/// Format version of release-manifest frames. Checkpoint files carry
/// their own version ([`crate::snapshot::CHECKPOINT_FORMAT_VERSION`]),
/// so the checkpoint layout can change while the ledger of record stays
/// readable.
pub const FORMAT_VERSION: u32 = 1;

/// Frame a whole-file payload: magic, format version, payload length,
/// payload CRC-32, payload. Unlike WAL frames (a *stream* of records),
/// a framed file holds exactly one payload and rejects trailing bytes.
pub fn frame_file(magic: u32, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u32(magic);
    e.u32(version);
    e.u32(payload.len() as u32);
    e.u32(crate::crc::crc32(payload));
    let mut out = e.finish();
    out.extend_from_slice(payload);
    out
}

/// The format version a framed file claims, if it starts with `magic`
/// — read before anything else is checked, so a file of another format
/// generation can be refused by name instead of failing to decode.
pub fn frame_version(magic: u32, bytes: &[u8]) -> Option<u32> {
    let mut d = Decoder::new(bytes);
    (d.u32().ok()? == magic).then(|| d.u32().ok()).flatten()
}

/// Verify and strip a whole-file frame of the given format `version`,
/// returning the payload.
pub fn unframe_file(magic: u32, version: u32, bytes: &[u8]) -> Result<&[u8], CodecError> {
    let mut d = Decoder::new(bytes);
    let got_magic = d.u32()?;
    if got_magic != magic {
        return Err(CodecError(format!("bad magic {got_magic:#010x}, wanted {magic:#010x}")));
    }
    let got_version = d.u32()?;
    if got_version != version {
        return Err(CodecError(format!("unsupported format version {got_version}")));
    }
    let len = d.u32()? as usize;
    let crc = d.u32()?;
    if d.remaining() != len {
        return Err(CodecError(format!(
            "payload length {len} but {} bytes follow the header",
            d.remaining()
        )));
    }
    let payload = &bytes[bytes.len() - len..];
    if crate::crc::crc32(payload) != crc {
        return Err(CodecError("payload checksum mismatch".into()));
    }
    Ok(payload)
}

fn put_strings(e: &mut Encoder, v: &[String]) {
    e.u64(v.len() as u64);
    for s in v {
        e.str(s);
    }
}

fn get_strings(d: &mut Decoder<'_>) -> Result<Vec<String>, CodecError> {
    let n = d.count(8)?; // each string is at least its 8-byte length prefix
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(d.str()?);
    }
    Ok(out)
}

/// Encode the session vocabulary: user, query and url strings in id
/// order, then the pair table.
pub fn encode_vocab(state: &VocabState) -> Vec<u8> {
    let mut e = Encoder::new();
    put_strings(&mut e, &state.users);
    put_strings(&mut e, &state.queries);
    put_strings(&mut e, &state.urls);
    e.u64(state.pairs.len() as u64);
    for &(q, u) in &state.pairs {
        e.u32(q);
        e.u32(u);
    }
    e.finish()
}

/// Decode the session vocabulary (structural validation is the
/// caller's job via `IngestSession::restore`).
pub fn decode_vocab(bytes: &[u8]) -> Result<VocabState, CodecError> {
    let mut d = Decoder::new(bytes);
    let users = get_strings(&mut d)?;
    let queries = get_strings(&mut d)?;
    let urls = get_strings(&mut d)?;
    let n_pairs = d.count(8)?;
    let mut pairs = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        let q = d.u32()?;
        let u = d.u32()?;
        pairs.push((q, u));
    }
    d.expect_end()?;
    Ok(VocabState { users, queries, urls, pairs })
}

/// Encode one shard's intake state: integers only.
pub fn encode_shard(state: &ShardState) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u64(state.triplets.len() as u64);
    for &(p, u, c) in &state.triplets {
        e.u32(p);
        e.u32(u);
        e.u64(c);
    }
    e.u64(state.rows);
    e.u64(state.clicks);
    e.finish()
}

/// Decode one shard's intake state (structural validation is the
/// caller's job via `IngestSession::restore`).
pub fn decode_shard(d: &mut Decoder<'_>) -> Result<ShardState, CodecError> {
    let n_triplets = d.count(16)?;
    let mut triplets = Vec::with_capacity(n_triplets);
    for _ in 0..n_triplets {
        let p = d.u32()?;
        let u = d.u32()?;
        let c = d.u64()?;
        triplets.push((p, u, c));
    }
    let rows = d.u64()?;
    let clicks = d.u64()?;
    Ok(ShardState { triplets, rows, clicks })
}

/// Encode the per-shard payload of one snapshot file: the shard state,
/// then a flag word that is always `0`. Format 2 reserved the flag for
/// a sketch section; sessions that sketch are never checkpointed, so
/// no such section is written.
pub fn encode_shard_snapshot(shard: &ShardState) -> Vec<u8> {
    let mut e = Encoder::new();
    e.bytes(&encode_shard(shard));
    e.u32(0);
    e.finish()
}

/// Decode one snapshot file's payload back into shard state. A nonzero
/// flag word (a sketch section) is rejected.
pub fn decode_shard_snapshot(bytes: &[u8]) -> Result<ShardState, CodecError> {
    let mut d = Decoder::new(bytes);
    let shard_bytes = d.bytes()?;
    let mut sd = Decoder::new(shard_bytes);
    let shard = decode_shard(&mut sd)?;
    sd.expect_end()?;
    expect_no_sketch(&mut d)?;
    d.expect_end()?;
    Ok(shard)
}

/// Read the format-2 sketch flag word and require it to be `0`.
pub(crate) fn expect_no_sketch(d: &mut Decoder<'_>) -> Result<(), CodecError> {
    match d.u32()? {
        0 => Ok(()),
        other => Err(CodecError(format!("sketch flag {other}: checkpoints carry no sketch"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_session() -> dpsan_stream::SessionState {
        use dpsan_stream::{IngestSession, StreamConfig};
        use std::io::Cursor;
        let mut tsv = String::new();
        for i in 0..40 {
            tsv.push_str(&format!(
                "user{:02}\tq{}\tsite{}.com\t{}\n",
                i % 9,
                i % 6,
                i % 4,
                1 + i % 3
            ));
        }
        let cfg = StreamConfig { shards: 3, chunk_rows: 8, sketch_capacity: 0, jobs: 1 };
        let mut s = IngestSession::new(cfg);
        s.ingest(Cursor::new(tsv)).unwrap();
        s.export_state()
    }

    #[test]
    fn shard_snapshot_roundtrip_is_exact() {
        let state = sample_session();
        for shard in &state.shards {
            let bytes = encode_shard_snapshot(shard);
            assert_eq!(&decode_shard_snapshot(&bytes).unwrap(), shard);
        }
    }

    #[test]
    fn vocab_roundtrip_is_exact_and_truncations_fail() {
        let state = sample_session();
        let bytes = encode_vocab(&state.vocab);
        assert_eq!(decode_vocab(&bytes).unwrap(), state.vocab);
        for cut in 0..bytes.len() {
            assert!(decode_vocab(&bytes[..cut]).is_err(), "truncation to {cut} bytes");
        }
    }

    #[test]
    fn frames_carry_and_check_their_version() {
        let framed = frame_file(0xABCD, 7, b"payload");
        assert_eq!(frame_version(0xABCD, &framed), Some(7));
        assert_eq!(frame_version(0x1234, &framed), None, "wrong magic");
        assert_eq!(unframe_file(0xABCD, 7, &framed).unwrap(), b"payload");
        let err = unframe_file(0xABCD, 8, &framed).unwrap_err();
        assert!(err.0.contains("unsupported format version 7"), "{err}");
    }

    #[test]
    fn sketchless_snapshot_roundtrip() {
        let shard = ShardState { rows: 0, ..Default::default() };
        let bytes = encode_shard_snapshot(&shard);
        assert_eq!(decode_shard_snapshot(&bytes).unwrap(), shard);
        // the payload ends in the format-2 sketch flag, written as 0
        assert_eq!(bytes[bytes.len() - 4..], [0, 0, 0, 0]);
    }

    /// A snapshot whose flag word announces a sketch section is
    /// rejected with an error, whatever follows the flag.
    #[test]
    fn nonzero_sketch_flag_is_rejected() {
        let state = sample_session();
        let good = encode_shard_snapshot(&state.shards[0]);
        let flag_at = good.len() - 4;
        for (flag, tail) in
            [(1u32, &[][..]), (1, &[7u8; 24][..]), (2, &[][..]), (u32::MAX, &[][..])]
        {
            let mut bad = good[..flag_at].to_vec();
            bad.extend_from_slice(&flag.to_le_bytes());
            bad.extend_from_slice(tail);
            let err = decode_shard_snapshot(&bad).unwrap_err();
            assert!(err.0.contains(&format!("sketch flag {flag}")), "{err}");
        }
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let state = sample_session();
        let bytes = encode_shard_snapshot(&state.shards[0]);
        for cut in 0..bytes.len() {
            assert!(
                decode_shard_snapshot(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must fail to decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let state = sample_session();
        let mut bytes = encode_shard_snapshot(&state.shards[0]);
        bytes.push(0xAB);
        assert!(decode_shard_snapshot(&bytes).is_err());
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocating() {
        let mut e = Encoder::new();
        e.u64(u64::MAX); // claims a vastly larger payload than exists
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(d.bytes().is_err());
        let mut d2 = Decoder::new(&bytes);
        assert!(d2.count(16).is_err());
    }

    #[test]
    fn f64_bits_roundtrip_exactly() {
        for v in [0.0, -0.0, 1.5, 0.1 + 0.2, f64::MIN_POSITIVE, 1e300] {
            let mut e = Encoder::new();
            e.f64(v);
            let bytes = e.finish();
            let got = Decoder::new(&bytes).f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }
}
