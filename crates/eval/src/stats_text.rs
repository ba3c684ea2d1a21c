//! One renderer for every operator-facing stderr stat line.
//!
//! Before this module, `repro --stats`, the serve per-release report,
//! and the `recovery:` startup line each formatted their own ad-hoc
//! string — three places to drift apart. Now all three render here,
//! from the same data the metrics exporters publish:
//!
//! * [`SolverCounters`] is the shared solver vocabulary. It converts
//!   from a per-scope [`SessionStats`] *and* from a registry
//!   [`Snapshot`] delta — and because `SolveSession` mirrors every
//!   increment into the registry, the two sources agree by
//!   construction, so a stderr line and a Prometheus scrape can never
//!   tell different stories.
//! * [`recovery_line`] reads the `dpsan_recovery_*` gauges straight
//!   from a snapshot — the identical series a `--metrics-file` export
//!   contains.
//!
//! The rendered shapes are load-bearing: CI's crash-smoke job parses
//! `recovery: ... manifests=N` and `release[N]: ... eps-total=X` with
//! awk. Change a key here only together with `.github/workflows`.

use dpsan_core::session::SessionStats;
use dpsan_obs::Snapshot;

/// The solver counters every stat line renders from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCounters {
    /// Total solves.
    pub solves: u64,
    /// Simplex iterations over all solves.
    pub iterations: u64,
    /// Basis (re)factorizations over all solves.
    pub refactorizations: u64,
    /// O-UMP solves accepted at the iteration cap (anytime incumbents).
    pub capped: u64,
}

impl From<&SessionStats> for SolverCounters {
    fn from(s: &SessionStats) -> Self {
        SolverCounters {
            solves: s.solves as u64,
            iterations: s.iterations as u64,
            refactorizations: s.refactorizations as u64,
            capped: s.capped as u64,
        }
    }
}

impl SolverCounters {
    /// Read the solver series out of a registry snapshot (usually a
    /// [`Snapshot::delta`], to scope the counters to one experiment or
    /// release).
    pub fn from_snapshot(s: &Snapshot) -> Self {
        SolverCounters {
            solves: s.counter("dpsan_solves_total{path=\"cold_primal\"}")
                + s.counter("dpsan_solves_total{path=\"cold_primal_sparse\"}"),
            iterations: s.counter("dpsan_solve_iterations_total"),
            refactorizations: s.counter("dpsan_solve_refactorizations_total"),
            capped: s.counter("dpsan_solves_capped_total"),
        }
    }

    /// The shared `key=value` payload of every solver line.
    fn kv(&self) -> String {
        format!(
            "solves={} iterations={} refactorizations={} capped={}",
            self.solves, self.iterations, self.refactorizations, self.capped,
        )
    }
}

/// The `repro --stats` per-experiment line: `stats[scope]: solves=…`.
pub fn solver_stats_line(scope: &str, c: &SolverCounters) -> String {
    format!("stats[{scope}]: {}", c.kv())
}

/// The one-shot `sanitize --stats` line: `solver: solves=…`.
pub fn solver_line(c: &SolverCounters) -> String {
    format!("solver: {}", c.kv())
}

/// The serve per-release line: `release[N]: rows=… eps-total=…`.
/// (CI's crash-smoke awk depends on the `eps-total=` key.)
pub fn release_line(
    index: u64,
    rows: u64,
    latency: std::time::Duration,
    c: &SolverCounters,
    epsilon_total: f64,
    delta_total: f64,
    out: &std::path::Path,
) -> String {
    format!(
        "release[{index}]: rows={rows} latency_ms={:.1} {} eps-total={epsilon_total:.6} \
         delta-total={delta_total:.6} out={}",
        latency.as_secs_f64() * 1e3,
        c.kv(),
        out.display(),
    )
}

/// The store startup line, rendered from the `dpsan_recovery_*` gauges
/// of a registry snapshot (the same series a `--metrics-file` export
/// carries). CI's crash-smoke awk depends on the `manifests=` key.
pub fn recovery_line(s: &Snapshot) -> String {
    let int = |name: &str| s.gauge(name) as i64;
    // −1 (and "series never set") both mean: no checkpoint seeded this
    // recovery
    let base = match s.values.get("dpsan_recovery_base_generation") {
        Some(dpsan_obs::SnapValue::Gauge(g)) if *g >= 0.0 => (*g as u64).to_string(),
        _ => "none".into(),
    };
    format!(
        "recovery: base-checkpoint={base} replayed-records={} truncated-bytes={} manifests={} \
         rejected={} unpublished={}",
        int("dpsan_recovery_replayed_records"),
        int("dpsan_recovery_truncated_bytes"),
        int("dpsan_recovery_manifests"),
        int("dpsan_recovery_rejected_checkpoints"),
        int("dpsan_recovery_unpublished"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_stats_and_snapshot_agree_on_the_same_history() {
        // the struct-sourced and registry-sourced counters must render
        // identically for the same underlying history
        let stats = SessionStats {
            solves: 5,
            iterations: 42,
            refactorizations: 7,
            capped: 1,
            ..SessionStats::default()
        };
        let registry = dpsan_obs::Registry::new();
        registry.counter_with("dpsan_solves_total", "path", "cold_primal").add(3);
        registry.counter_with("dpsan_solves_total", "path", "cold_primal_sparse").add(2);
        registry.counter("dpsan_solve_iterations_total").add(42);
        registry.counter("dpsan_solve_refactorizations_total").add(7);
        registry.counter("dpsan_solves_capped_total").inc();
        let from_stats = SolverCounters::from(&stats);
        assert_eq!(from_stats, SolverCounters::from_snapshot(&registry.snapshot()));
        assert_eq!(
            solver_stats_line("t", &from_stats),
            "stats[t]: solves=5 iterations=42 refactorizations=7 capped=1"
        );
    }

    #[test]
    fn recovery_line_renders_missing_gauges_as_fresh() {
        let empty = Snapshot::default();
        assert_eq!(
            recovery_line(&empty),
            "recovery: base-checkpoint=none replayed-records=0 truncated-bytes=0 manifests=0 \
             rejected=0 unpublished=0"
        );
    }

    #[test]
    fn release_line_keeps_the_awk_parsed_keys() {
        let line = release_line(
            2,
            100,
            std::time::Duration::from_millis(12),
            &SolverCounters::default(),
            1.5,
            0.25,
            std::path::Path::new("out/release-0002.tsv"),
        );
        assert!(line.starts_with("release[2]: rows=100 latency_ms=12.0 "));
        assert!(line.contains(" eps-total=1.500000 "));
        assert!(line.ends_with(" out=out/release-0002.tsv"));
    }
}
