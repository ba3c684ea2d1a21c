//! The ingestion engine: two-stage chunked intake → one session-wide
//! vocabulary + user-hash shards → parallel drain → holder filter →
//! sort-only merge.
//!
//! Every string is interned exactly once, at intake, into one
//! [`Vocabulary`] shared by all shards. [`IngestSession::ingest`] runs
//! intake as a pipeline of two stages, each owning its columns:
//!
//! * **the reader stage** reads and parses a whole chunk
//!   ([`TsvStream::read_chunk`]), then interns the chunk's **urls** and
//!   computes each row's shard (`shard_of(user)`);
//! * **the apply stage**, on the session thread (the caller's), interns
//!   the chunk's **users** and **queries**, assigns each row's **pair
//!   id** ([`PairTable::intern`]) and appends `(pair, user, count)` to
//!   the row's shard.
//!
//! The session thread stages the first chunk itself. A chunk that comes
//! back short ends the input, so a call whose input fits in one chunk
//! runs both stages on the calling thread and starts no thread. After a
//! full first chunk, a scoped reader thread, joined before `ingest`
//! returns on every path, stages the rest and passes each chunk on over
//! a bounded channel. Two chunk buffers circulate, so one chunk is
//! parsed while the other is applied.
//!
//! Both stages intern their columns (urls on the reader; users, then
//! queries, on the session thread) in windows of 64 strings through
//! [`Interner::intern_batch`], which overlaps the windows' cache misses
//! and assigns the ids of one-at-a-time interning. So each interner
//! still sees the rows in file order: users, queries and urls get their
//! ids in first-occurrence order and each new `(query, url)` key gets
//! the next global pair id, exactly the ids a sequential [`read_tsv`]
//! build assigns through the same table. A chunk is parsed in full
//! before any of its urls are interned, and every chunk the reader
//! stage passes on is applied, so a parse error leaves the session
//! exactly as if the input had ended before the failing chunk.
//!
//! Shards hold only integer triplets, staged as sorted runs with no map
//! (see [`crate::shard`]). The merge never sees a string: each shard
//! drains to a `(pair, user)`-sorted vector (in parallel), the sorted
//! runs are merged, and [`SearchLog::from_sorted_triplets`] fills the
//! CSR arrays in one pass.
//!
//! The drain emits the **preprocessed** log
//! ([`IngestSession::finish_preprocessed`] for the one-shot path,
//! [`IngestSession::snapshot_preprocessed`] for follow-mode releases).
//! Before the runs are merged it counts each pair's holders, one `u32`
//! per pair id summed over the runs, and drops every pair that only one
//! user holds (the paper's Condition 1). The kept pairs are renumbered
//! in id order through a fresh [`PairTable`] over the shared interners,
//! exactly as [`preprocess`] renumbers them, so no CSR of the
//! single-holder pairs is ever built. The session itself, and so every checkpoint, keeps
//! every pair: a later append may give a single-holder pair its second
//! holder.
//!
//! Because the ids are global from the start, the drained [`SearchLog`]
//! is structurally identical to `preprocess` of the one-shot in-memory
//! build — same interners, same ids, same CSR arrays — for **any**
//! shard count, chunk size and drain parallelism, so everything
//! downstream (constraints, LP, sampling) is byte-identical. The raw
//! drain ([`IngestSession::finish`], [`IngestSession::snapshot`],
//! [`ingest_tsv`], [`ingest_path`]) is the same merge with nothing
//! filtered; it is structurally identical to the [`read_tsv`] build.
//!
//! [`read_tsv`]: dpsan_searchlog::io::read_tsv
//! [`preprocess`]: dpsan_searchlog::preprocess()

use std::borrow::Cow;
use std::io::BufRead;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpsan_searchlog::{
    Interner, LogError, PairId, PairTable, PreprocessReport, QueryId, SearchLog, TsvChunk,
    TsvStream, UrlId, UserId, Vocabulary,
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
    /// Maximum raw records per chunk buffer. Intake keeps two chunk
    /// buffers in flight (one parsed while the other is applied), so up
    /// to twice this many raw records are resident at once;
    /// [`IngestReport::peak_chunk_rows`] stays per chunk.
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
    /// Largest number of raw records in one chunk — never exceeds the
    /// configured `chunk_rows`.
    pub peak_chunk_rows: usize,
    /// Largest per-shard aggregated triplet count at end of intake (of
    /// the drained runs) — the per-shard memory footprint, which the
    /// staged runs exceed by at most itself plus
    /// [`FOLD_FLOOR`](crate::shard::FOLD_FLOOR).
    pub max_shard_triplets: usize,
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

/// What a preprocessing drain produces
/// ([`IngestSession::finish_preprocessed`],
/// [`IngestSession::snapshot_preprocessed`]).
#[derive(Debug)]
pub struct PreprocessedIngest {
    /// The preprocessed log — identical to
    /// [`preprocess`](dpsan_searchlog::preprocess()) of the raw merged log.
    pub log: SearchLog,
    /// Memory-bound counters, the raw drain's: `max_shard_triplets`
    /// counts the drained runs before any pair is removed.
    pub report: IngestReport,
    /// What preprocessing removed.
    pub preprocess: PreprocessReport,
}

/// An incremental ingestion session: the always-on counterpart of
/// [`ingest_tsv`].
///
/// The one-shot engine ingests once and exits; a serving pipeline
/// instead receives appended TSV chunks over time and must re-release
/// between them. `IngestSession` keeps the session [`Vocabulary`]
/// (every string interned once, in first-occurrence order, and the pair
/// table in the same order) and the per-shard staged triplets (and
/// sketches, if configured) **live across
/// [`ingest`](IngestSession::ingest) calls** — so at every point in
/// time the session's state is exactly what one-shot ingestion of the
/// concatenated input would have produced.
///
/// [`snapshot_preprocessed`](IngestSession::snapshot_preprocessed)
/// materializes the preprocessed [`SearchLog`] *without* consuming the
/// session (intake continues afterwards), and
/// [`finish_preprocessed`](IngestSession::finish_preprocessed) is the
/// consuming variant the one-shot path uses. Every snapshot is
/// structurally identical to a one-shot build of the prefix ingested so
/// far, preprocessed — the invariant that makes windowed re-releases
/// byte-identical to one-shot `sanitize` runs over the same window.
///
/// An `ingest` call that fails (parse error) applies all complete
/// chunks read before the error and discards the partial one. A chunk
/// is parsed in full before any of it is interned, so a discarded chunk
/// leaves no trace — not even vocabulary — although the reader stage
/// parses it while earlier chunks are still being applied. The session
/// stays usable and the error's line number is global across every
/// ingest call (continuation lines keep counting up).
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

    /// Ingest one appended TSV chunk (any `BufRead` over *complete*
    /// lines). Returns the number of records added by this call.
    ///
    /// The call runs two stages (see the module docs). Past the first
    /// chunk the reader stage runs on its own thread, which owns
    /// `reader` — hence the `Send` bound — and is joined before this
    /// returns, on every path.
    ///
    /// Line numbers in errors are global: a parse error on the first
    /// line of the third appended chunk reports the stream-wide line
    /// number, not `1`.
    pub fn ingest<R: BufRead + Send>(&mut self, reader: R) -> Result<u64, LogError> {
        let started = Instant::now();
        let lines_before = self.report.lines;
        let (chunk_rows, n_shards) = (self.cfg.chunk_rows, self.cfg.shards);
        // The interners are made unique once per call: a snapshot's log
        // that still shares them costs one copy here, not one check per
        // row. The url interner then belongs to the reader stage until
        // it is joined; its first allocation is made here, so that it
        // grows in this thread's malloc arena.
        let Vocabulary { users, queries, urls, pairs } = &mut self.vocab;
        let (users, queries, urls) =
            (Arc::make_mut(users), Arc::make_mut(queries), Arc::make_mut(urls));
        if urls.is_empty() {
            urls.reserve(STAGE_ROWS, STAGE_ROWS * STAGE_ROW_BYTES);
        }
        let mut apply = Apply {
            users,
            queries,
            pairs,
            shards: &mut self.shards,
            sketches: &mut self.sketches,
            report: &mut self.report,
            hashes: Vec::with_capacity(BATCH),
            user_ids: Vec::new(),
            query_ids: Vec::new(),
            busy: Duration::ZERO,
            added: 0,
            chunks: 0,
        };
        // The first chunk is staged here. Only a full one can have a
        // successor, so only then is the reader thread worth spawning.
        let mut stream = TsvStream::new(reader);
        let mut first = Staged::new(chunk_rows);
        let stage_started = Instant::now();
        let read = stage(&mut stream, urls, chunk_rows, n_shards, &mut first);
        let mut parse_busy = stage_started.elapsed();
        let (lines, result) = match read {
            Ok(()) if first.chunk.len() == chunk_rows => {
                let (lines, busy, result) = std::thread::scope(|scope| {
                    // created inside the scope, so a panic here drops them
                    // and the reader stops instead of waiting on them
                    // forever
                    let (full_tx, full_rx) = mpsc::sync_channel(IN_FLIGHT);
                    let (free_tx, free_rx) = mpsc::sync_channel(IN_FLIGHT);
                    for _ in 1..IN_FLIGHT {
                        free_tx
                            .send(Staged::new(chunk_rows))
                            .expect("the receiver is in this scope");
                    }
                    let reader = scope.spawn(move || {
                        read_stage(stream, urls, chunk_rows, n_shards, &free_rx, &full_tx)
                    });
                    apply.apply(&first);
                    let _ = free_tx.send(first);
                    for staged in &full_rx {
                        apply.apply(&staged);
                        // never blocks: the channel has room for every
                        // buffer. It fails only once the reader has
                        // stopped.
                        let _ = free_tx.send(staged);
                    }
                    reader.join().unwrap_or_else(|e| std::panic::resume_unwind(e))
                });
                parse_busy += busy;
                (lines, result)
            }
            read => {
                if read.is_ok() && !first.chunk.is_empty() {
                    apply.apply(&first);
                }
                (stream.lines_read(), read)
            }
        };
        let Apply { busy: apply_busy, added, chunks, .. } = apply;
        self.report.lines = lines_before + lines as u64;
        // Observational telemetry, once per call: the applied rows and
        // chunks (complete chunks land even when a later chunk errors),
        // the peak staged shard size, both stages' busy times and the
        // call's wall time.
        crate::obs::rows_total().add(added);
        crate::obs::chunks_total().add(chunks);
        crate::obs::shard_triplets_max().max(self.max_staged_triplets() as f64);
        crate::obs::parse_seconds().record(parse_busy.as_secs_f64());
        crate::obs::apply_seconds().record(apply_busy.as_secs_f64());
        crate::obs::ingest_seconds().record(started.elapsed().as_secs_f64());
        result.map(|()| added).map_err(|e| offset_error_lines(e, lines_before))
    }

    /// Records ingested so far (across every `ingest` call).
    pub fn rows(&self) -> u64 {
        self.report.rows
    }

    fn max_staged_triplets(&self) -> usize {
        self.shards.iter().map(ShardIntake::staged_triplets).max().unwrap_or(0)
    }

    /// The raw drain without consuming the session: shards drain to
    /// sorted vectors in parallel, the runs are merged, and the log gets
    /// a copy of the session vocabulary (its interners shared, its pair
    /// table copied). Intake can continue afterwards. The returned log
    /// is structurally identical to a one-shot build of everything
    /// ingested so far.
    ///
    /// No production caller; kept for the perfbench driver and the
    /// raw-equivalence tests. Releases snapshot through
    /// [`snapshot_preprocessed`](Self::snapshot_preprocessed).
    pub fn snapshot(&self) -> IngestResult {
        let started = Instant::now();
        self.merge(self.borrowed_runs(), Cow::Borrowed(&self.vocab), false, started).0
    }

    /// The raw drain, consuming the session: as
    /// [`snapshot`](Self::snapshot), but the log takes the session
    /// vocabulary itself.
    ///
    /// No production caller; kept for the perfbench driver and the
    /// raw-equivalence tests. The one-shot path drains through
    /// [`finish_preprocessed`](Self::finish_preprocessed).
    pub fn finish(mut self) -> IngestResult {
        let started = Instant::now();
        let runs = self.take_runs();
        let vocab = std::mem::take(&mut self.vocab);
        self.merge(runs, Cow::Owned(vocab), false, started).0
    }

    /// The preprocessing drain without consuming the session: the log
    /// [`preprocess`](dpsan_searchlog::preprocess()) makes of
    /// [`snapshot`](Self::snapshot)'s, built directly. Pairs that only
    /// one user holds never reach a CSR, and the log copies only the
    /// kept pair keys (its interners shared). Intake continues
    /// afterwards, and the session keeps every pair: a later append may
    /// give a single-holder pair its second holder.
    pub fn snapshot_preprocessed(&self) -> PreprocessedIngest {
        let started = Instant::now();
        let runs = self.borrowed_runs();
        let (r, removed) = self.merge(runs, Cow::Borrowed(&self.vocab), true, started);
        PreprocessedIngest { log: r.log, report: r.report, preprocess: removed.expect("filtered") }
    }

    /// The preprocessing drain, consuming the session (the one-shot
    /// path): as [`snapshot_preprocessed`](Self::snapshot_preprocessed),
    /// but the log takes the session's interners and the full pair table
    /// is freed before the CSR is built.
    pub fn finish_preprocessed(mut self) -> PreprocessedIngest {
        let started = Instant::now();
        let runs = self.take_runs();
        let vocab = std::mem::take(&mut self.vocab);
        let (r, removed) = self.merge(runs, Cow::Owned(vocab), true, started);
        PreprocessedIngest { log: r.log, report: r.report, preprocess: removed.expect("filtered") }
    }

    /// Every shard drained to a sorted run, on copies (intake can
    /// continue).
    fn borrowed_runs(&self) -> Vec<Vec<(u32, u32, u64)>> {
        let views: Vec<&ShardIntake> = self.shards.iter().collect();
        run_sharded(views, self.cfg.jobs, ShardIntake::sorted_triplets)
    }

    /// Every shard drained to a sorted run, in place.
    fn take_runs(&mut self) -> Vec<Vec<(u32, u32, u64)>> {
        let shards = std::mem::take(&mut self.shards);
        run_sharded(shards, self.cfg.jobs, ShardIntake::into_sorted_triplets)
    }

    /// The one merge behind every drain: the drained shard `runs` become
    /// a log over `vocab`, the session vocabulary. With `preprocess`,
    /// the single-holder pairs are dropped from the runs first
    /// ([`keep_shared_pairs`]) and the log gets the kept pairs' table,
    /// and their report is returned; otherwise the log takes `vocab`
    /// whole. `started` opens the merge stage's timing.
    fn merge(
        &self,
        mut runs: Vec<Vec<(u32, u32, u64)>>,
        vocab: Cow<'_, Vocabulary>,
        preprocess: bool,
        started: Instant,
    ) -> (IngestResult, Option<PreprocessReport>) {
        // of the raw drained runs, before any pair is removed
        let max_shard_triplets = runs.iter().map(Vec::len).max().unwrap_or(0);
        let (vocab, removed) = if preprocess {
            let (kept, removed) = keep_shared_pairs(&mut runs, &vocab);
            // the full pair table goes before the CSR is built
            drop(vocab);
            (kept, Some(removed))
        } else {
            (vocab.into_owned(), None)
        };
        // Shards are user-disjoint, so the (pair, user) keys of the runs
        // never collide; the stable sort detects the sorted runs and
        // merges them.
        let mut triplets: Vec<(PairId, UserId, u64)> =
            runs.into_iter().flatten().map(|(p, u, c)| (PairId(p), UserId(u), c)).collect();
        triplets.sort_by_key(|&(p, u, _)| (p, u));
        let log = SearchLog::from_sorted_triplets(vocab, triplets);
        let sketch = merge_sketches(&self.sketches);
        let mut report = self.report;
        report.max_shard_triplets = max_shard_triplets;
        crate::obs::merge_seconds().record(started.elapsed().as_secs_f64());
        (IngestResult { log, sketch, report }, removed)
    }
}

/// Condition-1 preprocessing on the drained runs, before any CSR is
/// built. Each pair's holders are counted over every run (shards are
/// user-complete, so each `(pair, user)` appears once). The pairs with
/// more than one holder are renumbered in old id order through a fresh
/// [`PairTable`] over the shared interners
/// ([`Vocabulary::share_strings`]), exactly as
/// [`SearchLog::retain_pairs`] numbers them for
/// [`preprocess`](dpsan_searchlog::preprocess()); and every run is
/// rewritten to the new ids, the other pairs' triplets dropped. The
/// renumbering is monotone, so each run stays sorted. Returns the kept
/// pairs' vocabulary and what was removed.
fn keep_shared_pairs(
    runs: &mut [Vec<(u32, u32, u64)>],
    vocab: &Vocabulary,
) -> (Vocabulary, PreprocessReport) {
    let mut holders = vec![0u32; vocab.pairs.len()];
    for &(p, _, _) in runs.iter().flatten() {
        holders[p as usize] += 1;
    }
    let mut kept = vocab.share_strings();
    kept.pairs = PairTable::with_capacity(holders.iter().filter(|&&h| h > 1).count());
    // the holder counts become the id map: old pair id -> new pair id,
    // or DROPPED
    let mut new_id = holders;
    for (id, &(q, u)) in new_id.iter_mut().zip(vocab.pairs.keys()) {
        *id = if *id > 1 { kept.pairs.intern(q, u).0 } else { DROPPED };
    }
    // per user: 0 holds nothing, 1 only removed pairs, 2 a kept pair
    let mut users = vec![0u8; vocab.users.len()];
    let mut removed_count = 0;
    for run in runs.iter_mut() {
        run.retain_mut(|(p, u, c)| {
            let user = &mut users[*u as usize];
            match new_id[*p as usize] {
                DROPPED => {
                    removed_count += *c;
                    *user = (*user).max(1);
                    false
                }
                new => {
                    *p = new;
                    *user = 2;
                    true
                }
            }
        });
    }
    let report = PreprocessReport {
        removed_pairs: vocab.pairs.len() - kept.pairs.len(),
        removed_count,
        emptied_users: users.iter().filter(|&&s| s == 1).count(),
    };
    (kept, report)
}

/// The id [`keep_shared_pairs`] maps a removed pair to.
const DROPPED: u32 = u32::MAX;

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
                pairs: v.pairs.keys().iter().map(|&(q, u)| (q.0, u.0)).collect(),
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
            s.validate(vocab.pairs.len(), vocab.users.len())
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
            },
        })
    }
}

/// Rebuild the live vocabulary (interners and pair table) from its
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
    let mut pairs = PairTable::with_capacity(state.pairs.len());
    for (id, &(q, l)) in state.pairs.iter().enumerate() {
        if q as usize >= queries.len() || l as usize >= urls.len() {
            return Err(format!("pair key ({q}, {l}) outside the vocabulary"));
        }
        if pairs.intern(QueryId(q), UrlId(l)).index() != id {
            return Err(format!("duplicate pair key ({q}, {l})"));
        }
    }
    Ok(Vocabulary { users, queries, urls, pairs })
}

/// Chunks in flight between the two intake stages: one being parsed
/// while the other is applied.
const IN_FLIGHT: usize = 2;

/// Strings per [`Interner::intern_batch`] window at intake.
const BATCH: usize = 64;

/// Initial rows of a stage buffer, and of room in an empty url
/// interner. Non-zero so that the first allocation of each is made on
/// the session thread (see [`Staged::new`]); both grow as needed.
const STAGE_ROWS: usize = 256;

/// Initial text bytes per row of [`STAGE_ROWS`].
const STAGE_ROW_BYTES: usize = 64;

/// One chunk on its way from the reader stage to the session thread:
/// the parsed records and, per record, its url id and shard.
struct Staged {
    chunk: TsvChunk,
    // url id per record of `chunk`
    urls: Vec<u32>,
    // shard per record of `chunk`
    shards: Vec<usize>,
    // intern_batch scratch
    hashes: Vec<u64>,
}

impl Staged {
    /// A buffer made on the session thread. The reader grows it by
    /// reallocation, which glibc's malloc keeps in the arena of the
    /// thread that made the first allocation, so the reader thread
    /// leaves no memory in an arena of its own.
    fn new(chunk_rows: usize) -> Self {
        let rows = chunk_rows.min(STAGE_ROWS);
        Staged {
            chunk: TsvChunk::with_capacity(rows, rows * STAGE_ROW_BYTES),
            urls: Vec::with_capacity(rows),
            shards: Vec::with_capacity(rows),
            hashes: Vec::with_capacity(BATCH),
        }
    }
}

/// The reader stage's work on one chunk: read and parse up to
/// `chunk_rows` records into `staged`, then intern their urls in file
/// order and route each row to its shard. A chunk that fails to parse
/// interns nothing.
fn stage<R: BufRead>(
    stream: &mut TsvStream<R>,
    urls: &mut Interner,
    chunk_rows: usize,
    n_shards: usize,
    staged: &mut Staged,
) -> Result<(), LogError> {
    stream.read_chunk(chunk_rows, &mut staged.chunk)?;
    let Staged { chunk, urls: url_ids, shards, hashes } = staged;
    url_ids.clear();
    intern_column(urls, chunk.iter().map(|r| r.url), hashes, url_ids);
    shards.clear();
    shards.extend(chunk.iter().map(|r| shard_of(r.user, n_shards)));
    Ok(())
}

/// The session thread's half of intake for one [`IngestSession::ingest`]
/// call: the columns it owns, its scratch, and what it has applied.
struct Apply<'a> {
    users: &'a mut Interner,
    queries: &'a mut Interner,
    pairs: &'a mut PairTable,
    shards: &'a mut [ShardIntake],
    sketches: &'a mut [PairSketch],
    report: &'a mut IngestReport,
    // intern_batch scratch, and the chunk's user and query ids
    hashes: Vec<u64>,
    user_ids: Vec<u32>,
    query_ids: Vec<u32>,
    // time spent applying, and rows and chunks applied, in this call
    busy: Duration,
    added: u64,
    chunks: u64,
}

impl Apply<'_> {
    /// Apply one staged chunk: intern its users and queries in file
    /// order, assign each row's pair id and append the row to its shard.
    fn apply(&mut self, staged: &Staged) {
        let started = Instant::now();
        let chunk = &staged.chunk;
        self.user_ids.clear();
        intern_column(
            self.users,
            chunk.iter().map(|r| r.user),
            &mut self.hashes,
            &mut self.user_ids,
        );
        self.query_ids.clear();
        intern_column(
            self.queries,
            chunk.iter().map(|r| r.query),
            &mut self.hashes,
            &mut self.query_ids,
        );
        let ids = self.user_ids.iter().zip(&self.query_ids).zip(&staged.urls).zip(&staged.shards);
        for (rec, (((&u, &q), &l), &s)) in chunk.iter().zip(ids) {
            let (q, l) = (QueryId(q), UrlId(l));
            let p = self.pairs.intern(q, l);
            self.shards[s].add(p.0, u, rec.count);
            if let Some(sk) = self.sketches.get_mut(s) {
                sk.offer(q, l, rec.count);
            }
        }
        let n = chunk.len();
        self.report.peak_chunk_rows = self.report.peak_chunk_rows.max(n);
        self.report.rows += n as u64;
        self.added += n as u64;
        self.chunks += 1;
        self.busy += started.elapsed();
    }
}

/// Intern one column of a chunk in file order, in windows of [`BATCH`]
/// strings, appending each string's id to `out`.
fn intern_column<'s>(
    interner: &mut Interner,
    column: impl Iterator<Item = &'s str>,
    hashes: &mut Vec<u64>,
    out: &mut Vec<u32>,
) {
    let mut window = [""; BATCH];
    let mut n = 0;
    for s in column {
        window[n] = s;
        n += 1;
        if n == BATCH {
            interner.intern_batch(&window, hashes, out);
            n = 0;
        }
    }
    interner.intern_batch(&window[..n], hashes, out);
}

/// The reader stage of [`IngestSession::ingest`], on its own thread,
/// after the session thread has staged the first chunk: take a free
/// buffer, [`stage`] the next chunk into it and pass it on. It stops at
/// end of input, at the first error (the failing chunk is parsed but
/// never interned or passed on), or when the session thread stops
/// taking buffers. Returns the lines consumed by the whole call, the
/// time spent staging (not waiting), and the error, if any.
fn read_stage<R: BufRead>(
    mut stream: TsvStream<R>,
    urls: &mut Interner,
    chunk_rows: usize,
    n_shards: usize,
    free: &Receiver<Staged>,
    full: &SyncSender<Staged>,
) -> (usize, Duration, Result<(), LogError>) {
    let mut busy = Duration::ZERO;
    let result = loop {
        let Ok(mut staged) = free.recv() else { break Ok(()) };
        let started = Instant::now();
        let read = stage(&mut stream, urls, chunk_rows, n_shards, &mut staged);
        busy += started.elapsed();
        match read {
            Err(e) => break Err(e),
            Ok(()) if staged.chunk.is_empty() => break Ok(()),
            Ok(()) => {
                if full.send(staged).is_err() {
                    break Ok(());
                }
            }
        }
    };
    (stream.lines_read(), busy, result)
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

/// Ingest a native-TSV stream through the sharded engine and drain it
/// raw ([`IngestSession::finish`]).
///
/// No production caller; kept for the perfbench driver and the
/// raw-equivalence tests.
pub fn ingest_tsv<R: BufRead + Send>(
    reader: R,
    cfg: &StreamConfig,
) -> Result<IngestResult, LogError> {
    let mut session = IngestSession::new(cfg.clone());
    session.ingest(reader)?;
    Ok(session.finish())
}

/// Ingest a native-TSV file from disk and drain it raw, as
/// [`ingest_tsv`].
///
/// No production caller; kept for the perfbench driver and the
/// raw-equivalence tests.
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
        assert!(got.sketch.expect("sketching enabled").len() <= 8, "sketch capacity bound");
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
        let so_far = read_tsv(Cursor::new(format!("{applied}{more}"))).unwrap();
        assert_logs_identical(&snap, &so_far);
        // an input that fits in one chunk is staged without the reader
        // thread; its error is numbered globally too (line 2 of this
        // call follows the 5 lines consumed so far) and leaves no trace
        let err = session.ingest(Cursor::new("u6\tq-one\tl-one\t6\nbroken line\n")).unwrap_err();
        assert!(err.to_string().contains("line 7"), "global line number, got: {err}");
        assert_eq!(session.rows(), 3);
        let snap = session.snapshot().log;
        assert_eq!(snap.urls().get("l-one"), None, "the failing chunk interned nothing");
        assert_logs_identical(&snap, &so_far);
    }

    /// The reader stage parses ahead of the session thread; an error
    /// in a later chunk still applies every chunk before it and nothing
    /// of the failing one, whose first line had already been read.
    #[test]
    fn error_after_read_ahead_applies_every_earlier_chunk() {
        let cfg = StreamConfig { chunk_rows: 2, ..Default::default() };
        let mut session = IngestSession::new(cfg);
        let applied = "u1\tq1\tl1\t1\nu2\tq1\tl2\t2\nu1\tq2\tl1\t3\nu3\tq3\tl3\t4\n";
        let text = format!("{applied}u4\tq4\tl-read-ahead\t5\nbroken line\nu5\tq5\tl5\t6\n");
        let err = session.ingest(Cursor::new(text)).unwrap_err();
        assert!(err.to_string().contains("line 6"), "{err}");
        assert_eq!(session.rows(), 4);
        let snap = session.snapshot().log;
        assert_eq!(snap.urls().get("l-read-ahead"), None, "line 5's url was never interned");
        assert_logs_identical(&snap, &read_tsv(Cursor::new(applied)).unwrap());
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

        let mut dup = state.clone();
        dup.vocab.pairs[1] = dup.vocab.pairs[0];
        let err = IngestSession::restore(cfg.clone(), dup).unwrap_err();
        assert!(err.contains("duplicate pair key"), "{err}");

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
        // keep the row and click counters consistent so only the
        // routing is wrong
        state.shards[from].rows -= 1;
        state.shards[to].rows += 1;
        state.shards[from].clicks -= moved.2;
        state.shards[to].clicks += moved.2;
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
