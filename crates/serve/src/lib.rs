//! # dpsan-serve
//!
//! The always-on sanitization service: tail an append-only TSV search
//! log, keep the sharded ingestion state live, and re-release on a
//! window or event-count trigger — every release debiting one enforced
//! cross-release privacy ledger.
//!
//! ```text
//! appended TSV ──FollowReader (line-atomic)──▶ ServeSession: IngestSession
//!   (live vocabulary + shards) ──trigger──▶ Sanitizer::sanitize_into
//!   (check ledger ▸ cold solve in a fresh SolveSession ▸ debit ledger)
//!   ──▶ release-NNNN.tsv
//! ```
//!
//! Three properties carry the design:
//!
//! 1. **Re-releases are windowed one-shots.** Every release covers the
//!    full stream ingested so far, and because the incremental merge
//!    reconstructs the exact sequential interning order, a windowed
//!    re-release is byte-identical to a one-shot `sanitize` over the
//!    same prefix with the same seed — for any shard count or drain
//!    parallelism (CI diffs this).
//! 2. **Every re-solve is one cold solve.** The mechanism object
//!    persists across releases but holds only its configuration: a
//!    `UmpSanitizer` opens a fresh `SolveSession` per release, so the
//!    answer depends only on the window, never on earlier releases,
//!    which is what property 1 needs. An O-UMP release takes the
//!    packing route (a dual-guided greedy, no simplex pivots), exactly
//!    as one-shot `sanitize` does.
//! 3. **Composition is enforced, not just recorded.** The lifetime
//!    `(ε, δ)` ledger refuses a release it cannot afford
//!    ([`dpsan_dp::BudgetError`]); the service treats that refusal as
//!    a clean stop with all state intact — repeated publication never
//!    silently exceeds the configured guarantee (Götz et al.).
//!
//! **Crash behavior:** releases are written to a temp file and
//! renamed into place, so `release-NNNN.tsv` files are always
//! complete; the follow reader consumes only through the last
//! newline, so every consumed byte sits on a line boundary. Without a
//! store, a restarted service re-ingests from the start of the file
//! and the budget ledger resets — acceptable for experiments, a
//! privacy bug for production. With [`ServeOptions::store`] set, the
//! service runs durably: every consumed chunk is WAL-logged (fsynced)
//! *before* ingestion, checkpoints bound replay, each release's
//! `(ε, δ)` spend is recorded in a chained manifest *before* the
//! output is published, and a restart recovers the exact session —
//! same interners, same ledger, same refusal behavior — then resumes
//! reading the input where it left off (see `dpsan-store`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod follow;
pub mod obs;
pub mod session;

pub use dpsan_store::StoreConfig;
pub use follow::{FollowError, FollowReader};
pub use session::{ReleaseRecord, ServeError, ServeSession};

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpsan_core::mechanism::{Sanitizer, TriggerPolicy};
use dpsan_dp::composition::BudgetLedger;
use dpsan_dp::params::PrivacyParams;
use dpsan_store::{DiskIo, DurableStore, RecoveryReport};
use dpsan_stream::StreamConfig;

/// Configuration of the follow/serve loop.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Sharded-ingestion knobs (shards, chunk rows, jobs). Its
    /// `sketch_capacity` must be 0 when a store is attached: a
    /// checkpoint carries no sketch.
    pub stream: StreamConfig,
    /// Privacy parameters of every release.
    pub params: PrivacyParams,
    /// Base RNG seed, reused by every release (what makes the final
    /// re-release byte-identical to a one-shot run).
    pub seed: u64,
    /// Event-count trigger: re-release after this many new rows
    /// (`0` = only the final flush releases).
    pub trigger_rows: u64,
    /// How often to poll the followed file for appended bytes.
    pub poll: Duration,
    /// Exit after this long without new data (the window trigger for
    /// quiet streams). `None` = follow forever (until `max_releases`).
    pub idle_exit: Option<Duration>,
    /// Stop after this many successful releases.
    pub max_releases: Option<u64>,
    /// Enforced lifetime `(ε, δ)` across all releases; `None` records
    /// composition without refusing.
    pub lifetime: Option<(f64, f64)>,
    /// Directory for `release-NNNN.tsv` outputs (created if missing).
    pub out_dir: PathBuf,
    /// Durable crash-safe persistence, handed to [`DurableStore::open`]
    /// as is: the store's root directory (created if missing) and how
    /// many ingested rows trigger a checkpoint (`0` = only on clean
    /// exit). `None` keeps all state in memory (the pre-store behavior).
    pub store: Option<StoreConfig>,
    /// Write a Prometheus-text metrics snapshot here (atomically,
    /// temp + rename) — once at exit, and periodically while following
    /// when [`ServeOptions::metrics_interval`] is also set. Telemetry
    /// is observational only: releases are byte-identical with this on
    /// or off (CI diffs it).
    pub metrics_file: Option<PathBuf>,
    /// How often to re-export the snapshot while the follow loop runs
    /// (`None` = only the final flush).
    pub metrics_interval: Option<Duration>,
}

/// What one serve run did, for reporting and benchmarking.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-release records (latency, solver deltas, composed totals) of
    /// the releases this process made.
    pub releases: Vec<ReleaseRecord>,
    /// Paths written, aligned with `releases`.
    pub paths: Vec<PathBuf>,
    /// Records ingested over the whole stream at exit (restored ones
    /// included).
    pub rows: u64,
    /// Successful releases over the whole stream at exit (restored ones
    /// included): the same scope as `rows`.
    pub release_count: u64,
    /// The cross-release ledger at exit.
    pub ledger: BudgetLedger,
    /// `Some(message)` when the service stopped because the lifetime
    /// budget refused the next release (state intact, not a failure).
    pub budget_refusal: Option<String>,
    /// What store recovery found on startup (`None` when running
    /// without a store).
    pub recovery: Option<RecoveryReport>,
}

/// Follow `input` and serve releases until a stop condition: the
/// release quota is reached, the stream goes idle past `idle_exit`, or
/// the lifetime budget refuses the next release.
///
/// Malformed input aborts with the global line number; filesystem
/// errors abort; a budget refusal is reported as a clean stop.
pub fn serve(
    mechanism: Box<dyn Sanitizer>,
    input: &Path,
    opts: &ServeOptions,
) -> Result<ServeReport, ServeError> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let trigger = TriggerPolicy::every_rows(opts.trigger_rows);

    // With a store: recover (checkpoint + WAL replay + manifest-chain
    // ledger), then resume the input where the WAL left off. Without:
    // fresh session from the top of the file.
    let (mut store, mut session, mut follow, recovery) = match &opts.store {
        Some(cfg) => {
            let (store, recovered) = DurableStore::open(Arc::new(DiskIo), cfg.clone())?;
            let ingest = recovered.resume_session(opts.stream.clone())?;
            let ledger = dpsan_store::rebuild_ledger(&recovered.manifests, opts.lifetime);
            let released_rows = recovered.manifests.last().map_or(0, |m| m.rows);
            let session = ServeSession::restore(
                mechanism,
                ingest,
                opts.params,
                opts.seed,
                trigger,
                ledger,
                recovered.manifests.len() as u64,
                released_rows,
            );
            let follow = FollowReader::open_at(input, recovered.input_offset)?;
            (Some(store), session, follow, Some(recovered.report))
        }
        None => {
            let session = ServeSession::new(
                mechanism,
                opts.stream.clone(),
                opts.params,
                opts.seed,
                trigger,
                opts.lifetime,
            );
            (None, session, FollowReader::open(input)?, None)
        }
    };
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut budget_refusal = None;
    let mut last_data = Instant::now();
    let mut last_flush = Instant::now();

    'serve: loop {
        let polled = follow.poll()?;
        // lag = bytes the writer appended that we have not consumed
        // yet; after a successful poll this is the partial trailing
        // line (if any), between polls it is the backlog
        if let Ok(meta) = std::fs::metadata(input) {
            obs::follow_lag_bytes().set(meta.len().saturating_sub(follow.consumed()) as f64);
        }
        if let Some(chunk) = polled {
            // WAL first: the chunk is durable before the session sees
            // it, so a crash at any later point can replay it.
            if let Some(store) = store.as_mut() {
                store.log_chunk(follow.consumed(), &chunk)?;
            }
            let added = session.feed(chunk.as_slice())?;
            if let Some(store) = store.as_mut() {
                if store.note_rows(added) {
                    store.checkpoint(&session.ingest_state(), follow.consumed())?;
                }
            }
            last_data = Instant::now();
        }

        if session.due() {
            match write_release(&mut session, store.as_mut(), &opts.out_dir) {
                Ok(path) => paths.push(path),
                Err(e) if e.is_budget_refusal() => {
                    budget_refusal = Some(e.to_string());
                    break 'serve;
                }
                Err(e) => return Err(e),
            }
            if let Some(max) = opts.max_releases {
                if session.releases() >= max {
                    break 'serve;
                }
            }
            continue; // drain the backlog before sleeping
        }

        if let Some(idle) = opts.idle_exit {
            if last_data.elapsed() >= idle {
                // final flush: release whatever is pending, then stop
                if session.pending_rows() > 0 && session.rows() > 0 {
                    match write_release(&mut session, store.as_mut(), &opts.out_dir) {
                        Ok(path) => paths.push(path),
                        Err(e) if e.is_budget_refusal() => budget_refusal = Some(e.to_string()),
                        Err(e) => return Err(e),
                    }
                }
                break 'serve;
            }
        }
        // idle tick: nothing polled, nothing due — the heartbeat makes
        // "alive but quiet" observable (DPSAN_TRACE=serve=debug)
        obs::heartbeats_total().inc();
        dpsan_obs::trace::event(
            dpsan_obs::trace::Level::Debug,
            "serve",
            "heartbeat",
            &[("pending_rows", session.pending_rows().to_string())],
        );
        if let (Some(path), Some(interval)) = (&opts.metrics_file, opts.metrics_interval) {
            if last_flush.elapsed() >= interval {
                dpsan_obs::export::write_prometheus(path, &dpsan_obs::global().snapshot())?;
                last_flush = Instant::now();
            }
        }
        std::thread::sleep(opts.poll);
    }

    // A clean exit checkpoints so the next start replays nothing.
    if let Some(store) = store.as_mut() {
        if session.rows() > 0 {
            store.checkpoint(&session.ingest_state(), follow.consumed())?;
        }
    }

    // Final metrics flush, after the exit checkpoint so its fsync
    // latency is in the snapshot.
    if let Some(path) = &opts.metrics_file {
        dpsan_obs::export::write_prometheus(path, &dpsan_obs::global().snapshot())?;
    }

    Ok(ServeReport {
        releases: session.records().to_vec(),
        paths,
        rows: session.rows(),
        release_count: session.releases(),
        ledger: session.ledger().clone(),
        budget_refusal,
        recovery,
    })
}

/// Run one re-release and write it atomically (temp file + rename) as
/// `release-NNNN.tsv` in `out_dir`.
///
/// With a store, the durable ordering is: render the output, write
/// the manifest recording this release's exact `(ε, δ)` spend, *then*
/// publish — store artifact first, `out_dir` copy second. A crash
/// anywhere in that sequence can waste budget but can never publish
/// output the reconstructed ledger doesn't account for.
fn write_release(
    session: &mut ServeSession,
    store: Option<&mut DurableStore>,
    out_dir: &Path,
) -> Result<PathBuf, ServeError> {
    let entries_before = session.ledger().entries().len();
    let release = session.release_now()?;
    let mut bytes = Vec::new();
    dpsan_searchlog::io::write_tsv(&release.output, &mut bytes)?;
    if let Some(store) = store {
        let spent = session.ledger().entries()[entries_before..].to_vec();
        store.record_release(&spent, session.rows(), &bytes)?;
    }
    let index = session.releases();
    let path = out_dir.join(format!("release-{index:04}.tsv"));
    let tmp = out_dir.join(format!(".release-{index:04}.tsv.tmp"));
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}
