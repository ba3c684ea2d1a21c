//! The clock-free core of the service: incremental ingest + triggered,
//! budgeted re-release, one struct.
//!
//! [`ServeSession`] owns a [`dpsan_stream::IngestSession`] (live
//! session vocabulary and shard counts), the mechanism, a
//! [`TriggerPolicy`] fed by ingested row counts, and the cross-release
//! [`BudgetLedger`] every release is charged to through
//! [`Sanitizer::sanitize_into`]. Repeated publication composes
//! sequentially (Götz et al.), so a release that would overdraw the
//! lifetime budget is refused outright; the refusal leaves the ledger,
//! the trigger state and the ingest state untouched, so the service can
//! surface it without losing data. The file-tailing loop in
//! [`crate::serve`] drives the session against a wall clock; benches
//! and tests drive it directly, deterministically.
//!
//! The mechanism object persists across re-releases but carries no
//! solver state: a `UmpSanitizer` solves each window cold through a
//! fresh [`SolveSession`](dpsan_core::session::SolveSession), and
//! [`ReleaseRecord::solver`] holds that one release's solver counters.

use std::io::BufRead;
use std::time::{Duration, Instant};

use dpsan_core::error::CoreError;
use dpsan_core::mechanism::{Release, Sanitizer, TriggerPolicy};
use dpsan_core::session::SessionStats;
use dpsan_dp::composition::BudgetLedger;
use dpsan_dp::params::PrivacyParams;
use dpsan_searchlog::LogError;
use dpsan_stream::{IngestSession, SessionState, StreamConfig};

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

/// Incremental ingest + triggered, budgeted re-release, clock-free.
pub struct ServeSession {
    ingest: IngestSession,
    mechanism: Box<dyn Sanitizer>,
    trigger: TriggerPolicy,
    /// The process's one authoritative spend record, so it reports to
    /// the telemetry registry (`observed`).
    ledger: BudgetLedger,
    /// Rows ingested since the last successful release.
    pending_rows: u64,
    /// Successful releases, restored ones included.
    releases: u64,
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
        let ledger = match lifetime {
            Some((e, d)) => BudgetLedger::with_lifetime(e, d),
            None => BudgetLedger::new(),
        };
        Self::restore(mechanism, IngestSession::new(stream), params, seed, trigger, ledger, 0, 0)
    }

    /// A session resuming from durable state: `ingest` is the
    /// recovered ingest session (checkpoint + WAL replay), `ledger`
    /// carries the spends replayed from the release-manifest chain,
    /// `releases` counts the manifests, and `released_rows` is how
    /// many rows the last release covered (so the trigger resumes with
    /// the correct pending count instead of re-observing history). The
    /// session behaves as if it had performed those releases itself: a
    /// capped ledger keeps refusing once the replayed history exhausts
    /// the lifetime budget.
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
        let pending_rows = ingest.rows().saturating_sub(released_rows);
        ServeSession {
            ingest,
            mechanism,
            trigger,
            // marking observed *after* replay syncs the gauges to the
            // restored totals without counting history as fresh spends
            ledger: ledger.observed(),
            pending_rows,
            releases,
            params,
            seed,
            records: Vec::new(),
        }
    }

    /// Ingest one appended chunk of complete TSV lines; feeds the
    /// trigger. Returns the rows added. `reader` is `Send` because the
    /// ingest session parses on a reader thread of its own
    /// ([`IngestSession::ingest`]).
    pub fn feed<R: BufRead + Send>(&mut self, reader: R) -> Result<u64, ServeError> {
        let added = self.ingest.ingest(reader)?;
        self.pending_rows += added;
        Ok(added)
    }

    /// Whether the trigger policy calls for a re-release.
    pub fn due(&self) -> bool {
        self.trigger.every_rows > 0 && self.pending_rows >= self.trigger.every_rows
    }

    /// Rows ingested since the last successful release.
    pub fn pending_rows(&self) -> u64 {
        self.pending_rows
    }

    /// Total rows ingested so far.
    pub fn rows(&self) -> u64 {
        self.ingest.rows()
    }

    /// Number of successful releases so far.
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// Re-release the full window ingested so far: snapshot-merge the
    /// live shards through the preprocessing drain
    /// ([`IngestSession::snapshot_preprocessed`]; intake continues
    /// afterwards, every pair still in the session), run the mechanism
    /// against the cross-release ledger, record latency and solver
    /// deltas. On success the pending-row counter resets.
    ///
    /// A budget refusal ([`ServeError::is_budget_refusal`]) leaves the
    /// ingest state, the ledger, and the trigger state untouched.
    pub fn release_now(&mut self) -> Result<Release, ServeError> {
        let span = dpsan_obs::trace::span(dpsan_obs::trace::Level::Info, "serve", "release");
        let start = Instant::now();
        let snapshot = self.ingest.snapshot_preprocessed();
        let release = match self.mechanism.sanitize_into(
            &snapshot.log,
            self.params,
            self.seed,
            &mut self.ledger,
        ) {
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
        self.pending_rows = 0;
        self.releases += 1;
        crate::obs::releases_total().inc();
        crate::obs::release_seconds().record_duration(latency);
        crate::obs::release_rows().set(self.ingest.rows() as f64);
        self.records.push(ReleaseRecord {
            index: self.releases,
            rows: self.ingest.rows(),
            latency,
            solver: release.solver,
            epsilon_total: self.ledger.total_epsilon(),
            delta_total: self.ledger.total_delta(),
        });
        Ok(release)
    }

    /// The cross-release budget ledger.
    pub fn ledger(&self) -> &BudgetLedger {
        &self.ledger
    }

    /// Per-release records so far.
    pub fn records(&self) -> &[ReleaseRecord] {
        &self.records
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

#[cfg(test)]
mod tests {
    use super::*;
    use dpsan_core::mechanism::ZealousSanitizer;

    const SEED: u64 = 0xd95a_11ce;

    fn params() -> PrivacyParams {
        PrivacyParams::from_e_epsilon(2.0, 0.2)
    }

    /// `rows` TSV lines: eight users sharing two pairs, so every
    /// release has something to publish.
    fn chunk(rows: usize) -> String {
        (0..rows).map(|i| format!("u{}\tq{}\tl{}\t1\n", i % 8, i % 2, i % 2)).collect()
    }

    fn session(trigger: TriggerPolicy, lifetime: Option<(f64, f64)>) -> ServeSession {
        let stream = StreamConfig { shards: 2, chunk_rows: 16, sketch_capacity: 0, jobs: 1 };
        ServeSession::new(
            Box::new(ZealousSanitizer::new()),
            stream,
            params(),
            SEED,
            trigger,
            lifetime,
        )
    }

    #[test]
    fn trigger_fires_on_accumulated_rows() {
        let mut s = session(TriggerPolicy::every_rows(100), None);
        assert!(!s.due());
        s.feed(chunk(60).as_bytes()).unwrap();
        assert!(!s.due());
        s.feed(chunk(60).as_bytes()).unwrap();
        assert!(s.due(), "120 ≥ 100 rows pending");
        s.release_now().unwrap();
        assert!(!s.due(), "a successful release resets the counter");
        assert_eq!(s.pending_rows(), 0);
        assert_eq!(s.releases(), 1);
        assert_eq!(s.ledger().entries().len(), 1);
    }

    #[test]
    fn manual_trigger_is_never_due() {
        let mut s = session(TriggerPolicy::manual(), None);
        s.feed(chunk(1_000).as_bytes()).unwrap();
        assert!(!s.due());
        // ...but an explicit release still works
        s.release_now().unwrap();
        assert_eq!(s.releases(), 1);
    }

    #[test]
    fn restored_session_keeps_enforcing_the_replayed_history() {
        let p = params();
        // history worth two releases, replayed into a capped ledger
        // that only affords two
        let mut ledger = BudgetLedger::with_lifetime(2.0 * p.epsilon(), 2.0 * p.delta());
        ledger.spend("release 1", p.epsilon(), p.delta());
        ledger.spend("release 2", p.epsilon(), p.delta());
        let mut ingest = IngestSession::new(StreamConfig::default());
        ingest.ingest(chunk(17).as_bytes()).unwrap();
        let mut s = ServeSession::restore(
            Box::new(ZealousSanitizer::new()),
            ingest,
            p,
            SEED,
            TriggerPolicy::every_rows(10),
            ledger,
            2,
            10,
        );
        assert_eq!(s.releases(), 2);
        assert_eq!(s.pending_rows(), 7, "rows past the last release");
        assert!(!s.due());
        s.feed(chunk(3).as_bytes()).unwrap();
        assert!(s.due());
        let err = s.release_now().unwrap_err();
        assert!(err.is_budget_refusal(), "replayed spends still bind: {err}");
        assert_eq!(s.releases(), 2);
        assert_eq!(s.pending_rows(), 10, "trigger state unchanged");
        assert_eq!(s.ledger().entries().len(), 2);
    }
}
