//! The ingestion engine: chunked intake → one session-wide vocabulary
//! + user-hash shards → parallel drain → sort-only merge.
//!
//! Every string is interned exactly once, at intake, into one
//! vocabulary shared by all shards. Records are applied in file order,
//! so users, queries and urls get their ids in first-occurrence order
//! and each new `(query, url)` key gets the next global pair id —
//! exactly the ids a sequential [`read_tsv`] build assigns. Shards then
//! hold only integer `(pair, user) → count` maps. The merge never sees
//! a string: each shard drains to a `(pair, user)`-sorted vector (in
//! parallel), the sorted runs are merged, and
//! [`SearchLog::from_sorted_triplets`] fills the CSR arrays in one
//! pass. Because the ids are global from the start, the streamed
//! [`SearchLog`] is structurally identical to the one-shot in-memory
//! build — same interners, same ids, same CSR arrays — for **any**
//! shard count and any drain parallelism, so everything downstream
//! (constraints, LP, sampling) is byte-identical.
//!
//! [`read_tsv`]: dpsan_searchlog::io::read_tsv

use std::io::BufRead;
use std::sync::Arc;
use std::time::Instant;

use dpsan_searchlog::{
    id_map_with_capacity, IdMap, IdPair, Interner, LogError, PairId, QueryId, SearchLog, TsvChunk,
    TsvStream, UrlId, UserId,
};

use crate::pool::run_sharded;
use crate::shard::{shard_of, ShardIntake, ShardState};
use crate::sketch::PairSketch;

/// Ingestion knobs.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Number of user-hash shards (≥ 1). Shard assignment depends only
    /// on the user string, never on this machine or run.
    pub shards: usize,
    /// Maximum raw records resident at once (the chunk buffer bound).
    pub chunk_rows: usize,
    /// Heavy-hitters sketch capacity per shard; `0` (the default)
    /// disables sketching.
    ///
    /// No production caller; kept for the perfbench driver.
    pub sketch_capacity: usize,
    /// Worker threads for the shard drain (results are identical for
    /// every value; see [`crate::pool`]).
    pub jobs: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { shards: 16, chunk_rows: 8 * 1024, sketch_capacity: 0, jobs: 1 }
    }
}

impl StreamConfig {
    /// Panic on nonsense values (the config is programmer input).
    pub fn validate(&self) {
        assert!(self.shards >= 1, "need at least one shard");
        assert!(self.chunk_rows >= 1, "need a positive chunk size");
        assert!(self.jobs >= 1, "need at least one worker");
    }
}

/// Bounded-memory accounting of one ingestion run. The bounds are
/// *counters*, not RSS guesses: tests assert them directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestReport {
    /// Records ingested.
    pub rows: u64,
    /// Physical lines consumed (including comments/blanks).
    pub lines: u64,
    /// Largest number of raw records resident at once — never exceeds
    /// the configured `chunk_rows`.
    pub peak_chunk_rows: usize,
    /// Largest per-shard aggregated triplet count at end of intake —
    /// the per-shard memory footprint.
    pub max_shard_triplets: usize,
    /// Live counters in the merged sketch (≤ configured capacity), 0
    /// when sketching is disabled.
    pub sketch_entries: usize,
}

/// Everything one ingestion run produces.
#[derive(Debug)]
pub struct IngestResult {
    /// The merged log — identical to the one-shot in-memory build.
    pub log: SearchLog,
    /// The merged heavy-hitters sketch over the whole stream (`None`
    /// when `sketch_capacity` is 0).
    ///
    /// No production caller; kept for the perfbench driver.
    pub sketch: Option<PairSketch>,
    /// Memory-bound counters.
    pub report: IngestReport,
}

/// The session-wide vocabulary: every user, query and url string
/// interned once, in first-occurrence order, plus the global pair table
/// in the same order. The interners sit behind [`Arc`] so a snapshot's
/// log shares them; intake copies them only if such a log is still
/// alive when the next chunk lands.
#[derive(Debug, Default)]
struct Vocabulary {
    users: Arc<Interner>,
    queries: Arc<Interner>,
    urls: Arc<Interner>,
    // (query, url) -> pair
    pair_index: IdMap<u32>,
    pair_keys: Vec<(QueryId, UrlId)>,
}

/// An incremental ingestion session: the always-on counterpart of
/// [`ingest_tsv`].
///
/// The one-shot engine ingests once and exits; a serving pipeline
/// instead receives appended TSV chunks over time and must re-release
/// between them. `IngestSession` keeps the session vocabulary and the
/// per-shard triplet maps (and sketches, if configured) **live across
/// [`ingest`](IngestSession::ingest) calls** — so at every point in
/// time the session's state is exactly what one-shot ingestion of the
/// concatenated input would have produced.
///
/// [`snapshot`](IngestSession::snapshot) materializes the merged
/// [`SearchLog`] *without* consuming the session (intake continues
/// afterwards), and [`finish`](IngestSession::finish) is the consuming
/// variant the one-shot path uses. Every snapshot is structurally
/// identical to a one-shot build of the prefix ingested so far — the
/// invariant that makes windowed re-releases byte-identical to one-shot
/// `sanitize` runs over the same window.
///
/// An `ingest` call that fails (parse error) applies all complete
/// chunks read before the error and discards the partial one. A chunk
/// is parsed in full before any of it is interned, so a discarded chunk
/// leaves no trace — not even vocabulary. The session stays usable and
/// the error's line number is global across every ingest call
/// (continuation lines keep counting up).
#[derive(Debug)]
pub struct IngestSession {
    cfg: StreamConfig,
    vocab: Vocabulary,
    shards: Vec<ShardIntake>,
    sketches: Vec<PairSketch>,
    report: IngestReport,
}

impl IngestSession {
    /// A fresh session with no ingested rows.
    pub fn new(cfg: StreamConfig) -> Self {
        cfg.validate();
        let sketches = if cfg.sketch_capacity > 0 {
            (0..cfg.shards).map(|_| PairSketch::new(cfg.sketch_capacity)).collect()
        } else {
            Vec::new()
        };
        let shards = (0..cfg.shards).map(|_| ShardIntake::new()).collect();
        IngestSession {
            cfg,
            vocab: Vocabulary::default(),
            shards,
            sketches,
            report: IngestReport::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Ingest one appended TSV chunk (any `BufRead` over *complete*
    /// lines). Returns the number of records added by this call.
    ///
    /// Line numbers in errors are global: a parse error on the first
    /// line of the third appended chunk reports the stream-wide line
    /// number, not `1`.
    pub fn ingest<R: BufRead>(&mut self, reader: R) -> Result<u64, LogError> {
        let started = Instant::now();
        let lines_before = self.report.lines;
        let mut stream = TsvStream::new(reader);
        let mut added: u64 = 0;
        let mut chunks: u64 = 0;
        let result = loop {
            // `read_chunk` parses the whole chunk before returning, so
            // an error discards it before anything is interned
            match stream.read_chunk(self.cfg.chunk_rows) {
                Ok(chunk) if chunk.is_empty() => break Ok(added),
                Ok(chunk) => {
                    chunks += 1;
                    self.report.peak_chunk_rows = self.report.peak_chunk_rows.max(chunk.len());
                    added += chunk.len() as u64;
                    self.apply(chunk);
                }
                Err(e) => break Err(offset_error_lines(e, lines_before)),
            }
        };
        self.report.lines = lines_before + stream.lines_read() as u64;
        // Observational telemetry, once per call: the applied rows and
        // chunks (complete chunks land even when a later chunk errors),
        // the peak staged shard size and the call's wall time.
        crate::obs::rows_total().add(added);
        crate::obs::chunks_total().add(chunks);
        crate::obs::shard_triplets_max().max(self.max_shard_triplets() as f64);
        crate::obs::ingest_seconds().record(started.elapsed().as_secs_f64());
        result
    }

    /// Intern and route one fully parsed chunk, in file order.
    fn apply(&mut self, chunk: TsvChunk<'_>) {
        let v = &mut self.vocab;
        let users = Arc::make_mut(&mut v.users);
        let queries = Arc::make_mut(&mut v.queries);
        let urls = Arc::make_mut(&mut v.urls);
        for rec in chunk.iter() {
            let s = shard_of(rec.user, self.cfg.shards);
            let u = users.intern(rec.user);
            let q = queries.intern(rec.query);
            let l = urls.intern(rec.url);
            let next = u32::try_from(v.pair_keys.len()).expect("pair id overflow");
            let p = *v.pair_index.entry(IdPair(q, l)).or_insert_with(|| {
                v.pair_keys.push((QueryId(q), UrlId(l)));
                next
            });
            self.shards[s].add(p, u, rec.count);
            if let Some(sk) = self.sketches.get_mut(s) {
                sk.offer(QueryId(q), UrlId(l), rec.count);
            }
        }
        self.report.rows += chunk.len() as u64;
    }

    /// Records ingested so far (across every `ingest` call).
    pub fn rows(&self) -> u64 {
        self.report.rows
    }

    fn max_shard_triplets(&self) -> usize {
        self.shards.iter().map(ShardIntake::staged_triplets).max().unwrap_or(0)
    }

    /// The memory-bound counters so far. `max_shard_triplets` and
    /// `sketch_entries` reflect the *current* staged state.
    pub fn report(&self) -> IngestReport {
        let mut r = self.report;
        r.max_shard_triplets = self.max_shard_triplets();
        r.sketch_entries = merge_sketches(&self.sketches).as_ref().map_or(0, PairSketch::len);
        r
    }

    /// Merge the current state into an [`IngestResult`] without
    /// consuming the session: shards drain to sorted vectors in
    /// parallel, the runs are merged, and the log shares the session
    /// vocabulary. Intake can continue afterwards. The returned log is
    /// structurally identical to a one-shot build of everything
    /// ingested so far.
    pub fn snapshot(&self) -> IngestResult {
        let started = Instant::now();
        let views: Vec<&ShardIntake> = self.shards.iter().collect();
        let runs = run_sharded(views, self.cfg.jobs, ShardIntake::sorted_triplets);
        // Shards are user-disjoint, so the (pair, user) keys of the runs
        // never collide; the stable sort detects the sorted runs and
        // merges them.
        let mut triplets: Vec<(PairId, UserId, u64)> =
            runs.into_iter().flatten().map(|(p, u, c)| (PairId(p), UserId(u), c)).collect();
        triplets.sort_by_key(|&(p, u, _)| (p, u));
        let v = &self.vocab;
        let log = SearchLog::from_sorted_triplets(
            Arc::clone(&v.users),
            Arc::clone(&v.queries),
            Arc::clone(&v.urls),
            v.pair_keys.clone(),
            triplets,
        );
        let sketch = merge_sketches(&self.sketches);
        let mut report = self.report;
        report.max_shard_triplets = self.max_shard_triplets();
        report.sketch_entries = sketch.as_ref().map_or(0, PairSketch::len);
        crate::obs::merge_seconds().record(started.elapsed().as_secs_f64());
        IngestResult { log, sketch, report }
    }

    /// Merge and consume the session (the one-shot path).
    pub fn finish(self) -> IngestResult {
        self.snapshot()
    }
}

/// The session vocabulary as plain data: strings in id order and the
/// pair table as `(query id, url id)` per pair id.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VocabState {
    /// User strings in id order.
    pub users: Vec<String>,
    /// Query strings in id order.
    pub queries: Vec<String>,
    /// Url strings in id order.
    pub urls: Vec<String>,
    /// `(query, url)` ids per pair id.
    pub pairs: Vec<(u32, u32)>,
}

/// A plain-data image of a whole [`IngestSession`] mid-stream — the
/// unit the durable store (`dpsan-store`) checkpoints. It holds strings
/// only in the vocabulary. Restoring it through
/// [`IngestSession::restore`] yields a session indistinguishable from
/// one that ingested the original stream: same vocabulary, same shards,
/// same global row/line counters. Sketches are not part of the image,
/// so only a session that does not sketch round-trips.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SessionState {
    /// The session-wide vocabulary, held once.
    pub vocab: VocabState,
    /// Per-shard intake state (integers only), indexed by shard number.
    pub shards: Vec<ShardState>,
    /// Records ingested so far (the global row counter).
    pub rows: u64,
    /// Physical lines consumed so far.
    pub lines: u64,
    /// Largest chunk buffer observed (carried so a restored session's
    /// report stays monotone).
    pub peak_chunk_rows: usize,
}

impl IngestSession {
    /// Export the session state as plain data (sketches excluded; see
    /// [`SessionState`]).
    pub fn export_state(&self) -> SessionState {
        let strings = |i: &Interner| i.iter().map(|(_, s)| s.to_string()).collect();
        let v = &self.vocab;
        SessionState {
            vocab: VocabState {
                users: strings(&v.users),
                queries: strings(&v.queries),
                urls: strings(&v.urls),
                pairs: v.pair_keys.iter().map(|&(q, u)| (q.0, u.0)).collect(),
            },
            shards: self.shards.iter().map(ShardIntake::export_state).collect(),
            rows: self.report.rows,
            lines: self.report.lines,
            peak_chunk_rows: self.report.peak_chunk_rows,
        }
    }

    /// Rebuild a session from exported state under `cfg`. The state
    /// must have been exported under the same shard count — the shard
    /// routing function is baked into the persisted data, so restoring
    /// under another value would silently break the user-complete
    /// invariant — and `cfg` must not sketch: the state carries no
    /// sketch, and a restored sketch that had missed the stream so far
    /// would break its error bound. Violations (and structurally
    /// corrupt state: ids outside the vocabulary, a user stored in a
    /// shard it does not route to) are reported, never panicked on.
    pub fn restore(cfg: StreamConfig, state: SessionState) -> Result<Self, String> {
        cfg.validate();
        if state.shards.len() != cfg.shards {
            return Err(format!(
                "state has {} shards but config wants {} — resharding a persisted store is not \
                 supported (it would re-route users mid-stream)",
                state.shards.len(),
                cfg.shards
            ));
        }
        if cfg.sketch_capacity > 0 {
            return Err(format!(
                "config wants a sketch of capacity {} but a persisted session carries none — \
                 restore with sketch_capacity 0",
                cfg.sketch_capacity
            ));
        }
        let shard_rows: u64 = state.shards.iter().map(|s| s.rows).sum();
        if shard_rows != state.rows {
            return Err(format!(
                "shard rows sum to {shard_rows} but the session counter says {}",
                state.rows
            ));
        }
        let vocab = restore_vocab(&state.vocab)?;
        // every user routes to exactly one shard: its triplets may live
        // nowhere else
        let home: Vec<usize> = vocab.users.iter().map(|(_, s)| shard_of(s, cfg.shards)).collect();
        let mut shards = Vec::with_capacity(cfg.shards);
        for (i, s) in state.shards.into_iter().enumerate() {
            s.validate(vocab.pair_keys.len(), vocab.users.len())
                .map_err(|e| format!("shard {i}: {e}"))?;
            if let Some(&(_, u, _)) = s.triplets.iter().find(|t| home[t.1 as usize] != i) {
                return Err(format!(
                    "shard {i}: user {u} is stored here but routes to shard {}",
                    home[u as usize]
                ));
            }
            shards.push(ShardIntake::from_state(s));
        }
        Ok(IngestSession {
            cfg,
            vocab,
            shards,
            sketches: Vec::new(),
            report: IngestReport {
                rows: state.rows,
                lines: state.lines,
                peak_chunk_rows: state.peak_chunk_rows,
                max_shard_triplets: 0,
                sketch_entries: 0,
            },
        })
    }
}

/// Rebuild the live vocabulary (interners and pair index) from its
/// plain-data image, rejecting duplicates and out-of-range pair keys.
fn restore_vocab(state: &VocabState) -> Result<Vocabulary, String> {
    let intern = |name: &str, strings: &[String]| {
        let mut i = Interner::with_capacity(strings.len());
        for s in strings {
            i.intern(s);
        }
        if i.len() != strings.len() {
            return Err(format!("duplicate string in the {name} vocabulary"));
        }
        Ok(Arc::new(i))
    };
    let users = intern("user", &state.users)?;
    let queries = intern("query", &state.queries)?;
    let urls = intern("url", &state.urls)?;
    let mut pair_index = id_map_with_capacity(state.pairs.len());
    for (id, &(q, l)) in state.pairs.iter().enumerate() {
        if q as usize >= queries.len() || l as usize >= urls.len() {
            return Err(format!("pair key ({q}, {l}) outside the vocabulary"));
        }
        if pair_index.insert(IdPair(q, l), id as u32).is_some() {
            return Err(format!("duplicate pair key ({q}, {l})"));
        }
    }
    let pair_keys = state.pairs.iter().map(|&(q, l)| (QueryId(q), UrlId(l))).collect();
    Ok(Vocabulary { users, queries, urls, pair_index, pair_keys })
}

/// Shift an error's line number by the lines already consumed in
/// earlier `ingest` calls, so multi-chunk sessions report global
/// positions.
fn offset_error_lines(e: LogError, lines_before: u64) -> LogError {
    let off = lines_before as usize;
    match e {
        LogError::Parse { line, message } => LogError::Parse { line: line + off, message },
        LogError::ZeroCount { line } => LogError::ZeroCount { line: line + off },
        other => other,
    }
}

/// Ingest a native-TSV stream through the sharded engine.
pub fn ingest_tsv<R: BufRead>(reader: R, cfg: &StreamConfig) -> Result<IngestResult, LogError> {
    let mut session = IngestSession::new(cfg.clone());
    session.ingest(reader)?;
    Ok(session.finish())
}

/// Ingest a native-TSV file from disk.
pub fn ingest_path(
    path: impl AsRef<std::path::Path>,
    cfg: &StreamConfig,
) -> Result<IngestResult, LogError> {
    let file = std::fs::File::open(path)?;
    ingest_tsv(std::io::BufReader::new(file), cfg)
}

/// Merge the per-shard sketches in shard order (`None` when sketching
/// is disabled).
fn merge_sketches(sketches: &[PairSketch]) -> Option<PairSketch> {
    let (head, rest) = sketches.split_first()?;
    let mut merged = head.clone();
    for sk in rest {
        merged.merge(sk);
    }
    Some(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsan_searchlog::io::read_tsv;
    use std::io::Cursor;

    fn sample_tsv() -> String {
        let mut s = String::new();
        // interleaved users so every shard sees ids out of global
        // first-occurrence order
        for i in 0..30 {
            let user = format!("user{:02}", i % 7);
            let q = format!("q{}", i % 5);
            let url = format!("site{}.com", (i * 3) % 4);
            s.push_str(&format!("{user}\t{q}\t{url}\t{}\n", 1 + i % 3));
        }
        s
    }

    /// Structural equality: interners (content *and* order), ids,
    /// triplets. This is the property that makes everything downstream
    /// byte-identical.
    fn assert_logs_identical(a: &SearchLog, b: &SearchLog) {
        let vocab = |i: &Interner| i.iter().map(|(_, s)| s.to_string()).collect::<Vec<_>>();
        assert_eq!(vocab(a.users()), vocab(b.users()), "user interner order");
        assert_eq!(vocab(a.queries()), vocab(b.queries()), "query interner order");
        assert_eq!(vocab(a.urls()), vocab(b.urls()), "url interner order");
        let recs = |l: &SearchLog| l.records().collect::<Vec<_>>();
        assert_eq!(recs(a), recs(b), "pair-major records incl. all ids");
        assert_eq!(a.size(), b.size());
    }

    #[test]
    fn streamed_log_equals_one_shot_build() {
        let text = sample_tsv();
        let reference = read_tsv(Cursor::new(text.as_str())).unwrap();
        for shards in [1usize, 2, 3, 8] {
            for jobs in [1usize, 4] {
                let cfg = StreamConfig { shards, chunk_rows: 4, jobs, ..Default::default() };
                let got = ingest_tsv(Cursor::new(text.as_str()), &cfg).unwrap();
                assert_logs_identical(&got.log, &reference);
            }
        }
    }

    #[test]
    fn report_respects_configured_bounds() {
        let text = sample_tsv();
        let cfg = StreamConfig { shards: 4, chunk_rows: 5, sketch_capacity: 8, jobs: 2 };
        let got = ingest_tsv(Cursor::new(text.as_str()), &cfg).unwrap();
        assert_eq!(got.report.rows, 30);
        assert!(got.report.peak_chunk_rows <= 5, "chunk buffer bound");
        assert!(got.report.sketch_entries <= 8, "sketch capacity bound");
        assert!(got.report.max_shard_triplets <= got.log.n_triplets());
    }

    #[test]
    fn sketch_sees_the_whole_stream() {
        let text = sample_tsv();
        let cfg = StreamConfig { shards: 3, sketch_capacity: 64, ..Default::default() };
        let got = ingest_tsv(Cursor::new(text.as_str()), &cfg).unwrap();
        let sk = got.sketch.expect("sketching enabled");
        assert_eq!(sk.total_weight(), got.log.size());
        assert_eq!(sk.error_bound(), 0, "capacity 64 >> distinct pairs: sketch is exact");
    }

    #[test]
    fn sketching_can_be_disabled() {
        let cfg = StreamConfig { sketch_capacity: 0, ..Default::default() };
        let got = ingest_tsv(Cursor::new("u1\tq\tl\t1\nu2\tq\tl\t2\n"), &cfg).unwrap();
        assert!(got.sketch.is_none());
        assert_eq!(got.report.sketch_entries, 0);
    }

    #[test]
    fn parse_errors_propagate() {
        let cfg = StreamConfig::default();
        let err = ingest_tsv(Cursor::new("u1\tq\tl\tnope\n"), &cfg).unwrap_err();
        assert!(err.to_string().contains("bad count"));
    }

    #[test]
    fn empty_input_yields_empty_log() {
        let got = ingest_tsv(Cursor::new(""), &StreamConfig::default()).unwrap();
        assert_eq!(got.log.size(), 0);
        assert_eq!(got.report.rows, 0);
    }

    /// The session invariant: after any split of the stream into
    /// appended chunks, a snapshot is structurally identical to the
    /// one-shot build of the concatenated prefix.
    #[test]
    fn incremental_snapshots_equal_one_shot_prefix_builds() {
        let text = sample_tsv();
        let lines: Vec<&str> = text.lines().collect();
        for split in [1usize, 7, 15, 29] {
            let (head, tail) = lines.split_at(split);
            let head_tsv = head.join("\n") + "\n";
            let tail_tsv = tail.join("\n") + "\n";
            let cfg = StreamConfig { shards: 3, chunk_rows: 4, jobs: 2, ..Default::default() };

            let mut session = IngestSession::new(cfg.clone());
            let added = session.ingest(Cursor::new(head_tsv.as_str())).unwrap();
            assert_eq!(added as usize, split);

            // mid-stream snapshot == one-shot build of the prefix
            let snap = session.snapshot();
            let prefix = ingest_tsv(Cursor::new(head_tsv.as_str()), &cfg).unwrap();
            assert_logs_identical(&snap.log, &prefix.log);

            // ...and intake continues: the final state == full build
            session.ingest(Cursor::new(tail_tsv.as_str())).unwrap();
            let full = ingest_tsv(Cursor::new(text.as_str()), &cfg).unwrap();
            assert_logs_identical(&session.snapshot().log, &full.log);
            let mut one_shot = IngestSession::new(cfg.clone());
            one_shot.ingest(Cursor::new(text.as_str())).unwrap();
            assert_eq!(session.export_state(), one_shot.export_state());
            let finished = session.finish();
            assert_logs_identical(&finished.log, &full.log);
            assert_eq!(finished.report.rows, full.report.rows);
        }
    }

    #[test]
    fn session_sketch_merges_across_chunks() {
        let text = sample_tsv();
        let lines: Vec<&str> = text.lines().collect();
        let cfg = StreamConfig { shards: 3, sketch_capacity: 64, ..Default::default() };
        let mut session = IngestSession::new(cfg.clone());
        for chunk in lines.chunks(10) {
            session.ingest(Cursor::new(chunk.join("\n") + "\n")).unwrap();
        }
        let one_shot = ingest_tsv(Cursor::new(text.as_str()), &cfg).unwrap();
        let snap = session.snapshot();
        let sk = snap.sketch.expect("sketching enabled");
        assert_eq!(sk.total_weight(), one_shot.sketch.unwrap().total_weight());
        assert_eq!(sk.total_weight(), snap.log.size());
    }

    #[test]
    fn session_error_lines_are_global_and_session_survives() {
        let cfg = StreamConfig { chunk_rows: 2, ..Default::default() };
        let mut session = IngestSession::new(cfg);
        let applied = "u1\tq\tl\t1\nu2\tq\tl\t2\n";
        session.ingest(Cursor::new(applied)).unwrap();
        // line 2 of this chunk = global line 4; its first row brings a
        // new user, query and url that must not survive the discard
        let err = session
            .ingest(Cursor::new("u3\tq-lost\tl-lost\t3\nbroken line\nu4\tq\tl\t4\n"))
            .unwrap_err();
        assert!(err.to_string().contains("line 4"), "global line number, got: {err}");
        // complete chunks before the error were applied; the partial
        // chunk holding the bad line was not
        assert_eq!(session.rows(), 2, "chunk_rows=2: the failing chunk was discarded whole");
        // ...and it left no trace in the vocabulary: the snapshot is
        // the one-shot build of the applied rows, ids and all
        let reference = read_tsv(Cursor::new(applied)).unwrap();
        assert_logs_identical(&session.snapshot().log, &reference);
        // the session is still usable, and stays identical to the
        // one-shot build after a further good append
        let more = "u5\tq-new\tl\t5\n";
        session.ingest(Cursor::new(more)).unwrap();
        assert_eq!(session.rows(), 3);
        let snap = session.snapshot().log;
        assert_eq!(snap.size(), 1 + 2 + 5);
        assert_logs_identical(&snap, &read_tsv(Cursor::new(format!("{applied}{more}"))).unwrap());
    }

    /// The durability contract: a session restored from exported
    /// state mid-stream, then fed the rest of the input, ends up
    /// structurally identical to an uninterrupted session — and the
    /// exported state itself round-trips exactly.
    #[test]
    fn restored_session_continues_identically() {
        let text = sample_tsv();
        let lines: Vec<&str> = text.lines().collect();
        for split in [1usize, 7, 15, 29] {
            let (head, tail) = lines.split_at(split);
            let head_tsv = head.join("\n") + "\n";
            let tail_tsv = tail.join("\n") + "\n";
            let cfg = StreamConfig { shards: 3, chunk_rows: 4, sketch_capacity: 0, jobs: 2 };

            let mut original = IngestSession::new(cfg.clone());
            original.ingest(Cursor::new(head_tsv.as_str())).unwrap();
            let state = original.export_state();

            let mut restored = IngestSession::restore(cfg.clone(), state.clone()).unwrap();
            assert_eq!(restored.export_state(), state, "export∘restore is the identity");
            assert_eq!(restored.rows(), original.rows());

            original.ingest(Cursor::new(tail_tsv.as_str())).unwrap();
            restored.ingest(Cursor::new(tail_tsv.as_str())).unwrap();
            assert_eq!(restored.export_state(), original.export_state());

            let full = ingest_tsv(Cursor::new(text.as_str()), &cfg).unwrap();
            assert_logs_identical(&restored.snapshot().log, &full.log);
        }
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let cfg = StreamConfig { shards: 3, chunk_rows: 4, sketch_capacity: 0, jobs: 1 };
        let mut session = IngestSession::new(cfg.clone());
        session.ingest(Cursor::new(sample_tsv().as_str())).unwrap();
        let state = session.export_state();

        let resharded = StreamConfig { shards: 5, ..cfg.clone() };
        assert!(IngestSession::restore(resharded, state.clone()).unwrap_err().contains("shards"));

        let mut lied = state.clone();
        lied.rows += 1;
        assert!(IngestSession::restore(cfg.clone(), lied).unwrap_err().contains("counter"));

        let mut corrupt = state;
        corrupt.vocab.users.pop();
        assert!(IngestSession::restore(cfg, corrupt)
            .unwrap_err()
            .contains("outside the vocabulary"));
    }

    #[test]
    fn restore_rejects_triplet_ids_outside_the_vocabulary() {
        let cfg = StreamConfig { shards: 3, chunk_rows: 4, sketch_capacity: 0, jobs: 1 };
        let mut session = IngestSession::new(cfg.clone());
        session.ingest(Cursor::new(sample_tsv().as_str())).unwrap();
        let state = session.export_state();
        let (i, _) = state.shards.iter().enumerate().find(|(_, s)| !s.triplets.is_empty()).unwrap();

        let mut bad_pair = state.clone();
        bad_pair.shards[i].triplets.last_mut().unwrap().0 = state.vocab.pairs.len() as u32;
        let err = IngestSession::restore(cfg.clone(), bad_pair).unwrap_err();
        assert!(
            err.contains(&format!("shard {i}")) && err.contains("outside the vocabulary"),
            "{err}"
        );

        let mut bad_user = state.clone();
        bad_user.shards[i].triplets.last_mut().unwrap().1 = state.vocab.users.len() as u32;
        let err = IngestSession::restore(cfg.clone(), bad_user).unwrap_err();
        assert!(err.contains("outside the vocabulary"), "{err}");

        let mut bad_key = state;
        bad_key.vocab.pairs[0].1 = bad_key.vocab.urls.len() as u32;
        let err = IngestSession::restore(cfg, bad_key).unwrap_err();
        assert!(err.contains("pair key") && err.contains("outside the vocabulary"), "{err}");
    }

    /// A persisted session carries no sketch, so restoring it under a
    /// sketching config is refused rather than handed an empty sketch
    /// that missed the stream so far.
    #[test]
    fn restore_refuses_a_sketching_config() {
        let cfg = StreamConfig { shards: 2, chunk_rows: 4, sketch_capacity: 8, jobs: 1 };
        let mut session = IngestSession::new(cfg.clone());
        session.ingest(Cursor::new(sample_tsv().as_str())).unwrap();
        let state = session.export_state();
        let err = IngestSession::restore(cfg.clone(), state.clone()).unwrap_err();
        assert!(err.contains("sketch_capacity 0"), "{err}");
        // the same image restores once the config stops sketching
        let plain = StreamConfig { sketch_capacity: 0, ..cfg };
        let restored = IngestSession::restore(plain, state.clone()).unwrap();
        assert_eq!(restored.export_state(), state);
        assert!(restored.snapshot().sketch.is_none());
    }

    #[test]
    fn restore_rejects_a_user_stored_in_a_foreign_shard() {
        let cfg = StreamConfig { shards: 3, chunk_rows: 4, sketch_capacity: 0, jobs: 1 };
        let mut session = IngestSession::new(cfg.clone());
        session.ingest(Cursor::new(sample_tsv().as_str())).unwrap();
        let mut state = session.export_state();
        // move one shard's first triplet, unchanged, into the next shard
        let from = state.shards.iter().position(|s| !s.triplets.is_empty()).unwrap();
        let to = (from + 1) % cfg.shards;
        let moved = state.shards[from].triplets.remove(0);
        state.shards[to].triplets.push(moved);
        state.shards[to].triplets.sort_unstable();
        // keep the row counters consistent so only the routing is wrong
        state.shards[from].rows -= 1;
        state.shards[to].rows += 1;
        let err = IngestSession::restore(cfg, state).unwrap_err();
        assert!(
            err.contains(&format!("shard {to}"))
                && err.contains(&format!("routes to shard {from}")),
            "{err}"
        );
    }

    #[test]
    fn snapshot_of_empty_session_is_empty() {
        let session = IngestSession::new(StreamConfig::default());
        let snap = session.snapshot();
        assert_eq!(snap.log.size(), 0);
        assert_eq!(snap.report.rows, 0);
    }
}
