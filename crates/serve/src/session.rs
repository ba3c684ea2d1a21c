//! The clock-free core of the service: incremental ingest + planned
//! re-release, one struct.
//!
//! [`ServeSession`] glues a [`dpsan_stream::IngestSession`] (live
//! session vocabulary and shard counts) to a
//! [`dpsan_core::mechanism::ReleasePlanner`] (mechanism + trigger +
//! enforced cross-release budget ledger). The file-tailing loop in
//! [`crate::serve`] drives it against a wall clock; benches and tests
//! drive it directly, deterministically.
//!
//! Because the mechanism object is persistent, a `UmpSanitizer`'s
//! internal [`SolveSession`](dpsan_core::session::SolveSession)
//! survives across re-releases and accumulates their solver counters;
//! every re-solve is still a cold solve of the current window. The
//! per-release [`ReleaseRecord::solver`] deltas show what each release
//! cost.

use std::io::BufRead;
use std::time::{Duration, Instant};

use dpsan_core::error::CoreError;
use dpsan_core::mechanism::{Release, ReleasePlanner, Sanitizer, TriggerPolicy};
use dpsan_core::session::SessionStats;
use dpsan_dp::composition::BudgetLedger;
use dpsan_dp::params::PrivacyParams;
use dpsan_searchlog::LogError;
use dpsan_stream::{IngestReport, IngestSession, SessionState, StreamConfig};

/// Everything that can go wrong while serving.
#[derive(Debug)]
pub enum ServeError {
    /// Malformed input in an appended chunk (line numbers are global
    /// across the whole followed stream).
    Ingest(LogError),
    /// The mechanism failed — including [`CoreError::Budget`], the
    /// lifetime-ledger refusal that stops the service.
    Mechanism(CoreError),
    /// Filesystem trouble (tailing the input, writing a release).
    Io(std::io::Error),
    /// The durable store failed (WAL, checkpoint, manifest, or
    /// recovery).
    Store(dpsan_store::StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Ingest(e) => write!(f, "ingest: {e}"),
            ServeError::Mechanism(e) => write!(f, "release: {e}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Ingest(e) => Some(e),
            ServeError::Mechanism(e) => Some(e),
            ServeError::Io(e) => Some(e),
            ServeError::Store(e) => Some(e),
        }
    }
}

impl From<LogError> for ServeError {
    fn from(e: LogError) -> Self {
        ServeError::Ingest(e)
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Mechanism(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<dpsan_store::StoreError> for ServeError {
    fn from(e: dpsan_store::StoreError) -> Self {
        ServeError::Store(e)
    }
}

impl ServeError {
    /// Whether this is the budget-exhausted refusal (the one error the
    /// service treats as a clean stop, not a failure).
    pub fn is_budget_refusal(&self) -> bool {
        matches!(self, ServeError::Mechanism(CoreError::Budget(_)))
    }
}

/// One successful re-release, as observed by the service.
#[derive(Debug, Clone)]
pub struct ReleaseRecord {
    /// 1-based release number.
    pub index: u64,
    /// Total rows ingested when this release ran.
    pub rows: u64,
    /// Wall-clock latency of the full re-release: snapshot merge +
    /// preprocess + solve + sample.
    pub latency: Duration,
    /// LP-solver counters of this release alone (all-zero for non-LP
    /// mechanisms).
    pub solver: SessionStats,
    /// Composed ledger totals *after* this release.
    pub epsilon_total: f64,
    /// Composed δ total after this release.
    pub delta_total: f64,
}

/// Incremental ingest + planned re-release, clock-free.
pub struct ServeSession {
    ingest: IngestSession,
    planner: ReleasePlanner<Box<dyn Sanitizer>>,
    params: PrivacyParams,
    seed: u64,
    records: Vec<ReleaseRecord>,
}

impl ServeSession {
    /// A session over `mechanism` with an event-count trigger and an
    /// optional enforced lifetime budget.
    ///
    /// `seed` is the *base* release seed: every re-release uses it
    /// as-is, which is what makes the final windowed re-release
    /// byte-identical to a one-shot `sanitize --seed <seed>` over the
    /// same window.
    pub fn new(
        mechanism: Box<dyn Sanitizer>,
        stream: StreamConfig,
        params: PrivacyParams,
        seed: u64,
        trigger: TriggerPolicy,
        lifetime: Option<(f64, f64)>,
    ) -> Self {
        let planner = match lifetime {
            Some((e, d)) => ReleasePlanner::with_lifetime_budget(mechanism, trigger, e, d),
            None => ReleasePlanner::new(mechanism, trigger),
        };
        ServeSession {
            ingest: IngestSession::new(stream),
            planner,
            params,
            seed,
            records: Vec::new(),
        }
    }

    /// A session resuming from durable state: `ingest` is the
    /// recovered ingest session (checkpoint + WAL replay), `ledger`
    /// carries the spends replayed from the release-manifest chain,
    /// `releases` counts the manifests, and `released_rows` is how
    /// many rows the last release covered (so the trigger resumes with
    /// the correct pending count instead of re-observing history).
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        mechanism: Box<dyn Sanitizer>,
        ingest: IngestSession,
        params: PrivacyParams,
        seed: u64,
        trigger: TriggerPolicy,
        ledger: BudgetLedger,
        releases: u64,
        released_rows: u64,
    ) -> Self {
        let pending = ingest.rows().saturating_sub(released_rows);
        let planner = ReleasePlanner::restore(mechanism, trigger, ledger, releases, pending);
        ServeSession { ingest, planner, params, seed, records: Vec::new() }
    }

    /// Ingest one appended chunk of complete TSV lines; feeds the
    /// trigger. Returns the rows added.
    pub fn feed<R: BufRead>(&mut self, reader: R) -> Result<u64, ServeError> {
        let added = self.ingest.ingest(reader)?;
        self.planner.observe_rows(added);
        Ok(added)
    }

    /// Whether the trigger policy calls for a re-release.
    pub fn due(&self) -> bool {
        self.planner.due()
    }

    /// Rows ingested since the last successful release.
    pub fn pending_rows(&self) -> u64 {
        self.planner.pending_rows()
    }

    /// Total rows ingested so far.
    pub fn rows(&self) -> u64 {
        self.ingest.rows()
    }

    /// Number of successful releases so far.
    pub fn releases(&self) -> u64 {
        self.planner.releases()
    }

    /// Re-release the full window ingested so far: snapshot-merge the
    /// live shards (intake continues afterwards), run the mechanism
    /// through the planner, record latency and solver deltas.
    ///
    /// A budget refusal ([`ServeError::is_budget_refusal`]) leaves the
    /// ingest state, the ledger, and the trigger state untouched.
    pub fn release_now(&mut self) -> Result<Release, ServeError> {
        let span = dpsan_obs::trace::span(dpsan_obs::trace::Level::Info, "serve", "release");
        let start = Instant::now();
        let snapshot = self.ingest.snapshot();
        let release = match self.planner.release(&snapshot.log, self.params, self.seed) {
            Ok(r) => r,
            Err(e) => {
                if matches!(e, CoreError::Budget(_)) {
                    crate::obs::release_refusals_total().inc();
                }
                return Err(e.into());
            }
        };
        let latency = start.elapsed();
        drop(span);
        crate::obs::releases_total().inc();
        crate::obs::release_seconds().record_duration(latency);
        crate::obs::release_rows().set(self.ingest.rows() as f64);
        self.records.push(ReleaseRecord {
            index: self.planner.releases(),
            rows: self.ingest.rows(),
            latency,
            solver: release.solver,
            epsilon_total: self.planner.ledger().total_epsilon(),
            delta_total: self.planner.ledger().total_delta(),
        });
        Ok(release)
    }

    /// The cross-release budget ledger.
    pub fn ledger(&self) -> &BudgetLedger {
        self.planner.ledger()
    }

    /// Per-release records so far.
    pub fn records(&self) -> &[ReleaseRecord] {
        &self.records
    }

    /// Current ingest counters.
    pub fn ingest_report(&self) -> IngestReport {
        self.ingest.report()
    }

    /// Export the full ingest state (the unit a durable store
    /// checkpoints).
    pub fn ingest_state(&self) -> SessionState {
        self.ingest.export_state()
    }

    /// The privacy parameters each release runs at.
    pub fn params(&self) -> PrivacyParams {
        self.params
    }
}
