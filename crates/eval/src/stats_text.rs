//! One renderer for every operator-facing stderr stat line.
//!
//! Before this module, `repro --stats`, the serve per-release report,
//! and the `recovery:` startup line each formatted their own ad-hoc
//! string — three places to drift apart. Now all three render here,
//! from the same data the metrics exporters publish:
//!
//! * [`SessionStats`] is the one solver vocabulary. A line renders
//!   from a per-release `SessionStats` or from one read out of a
//!   registry [`Snapshot`] delta ([`SessionStats::from_snapshot`]) —
//!   and because `SolveSession` mirrors every increment into the
//!   registry, the two sources agree by construction, so a stderr line
//!   and a Prometheus scrape can never tell different stories.
//! * [`recovery_line`] reads the `dpsan_recovery_*` gauges straight
//!   from a snapshot — the identical series a `--metrics-file` export
//!   contains.
//!
//! The rendered shapes are load-bearing: CI's crash-smoke job parses
//! `recovery: ... manifests=N` and `release[N]: ... eps-total=X` with
//! awk. Change a key here only together with `.github/workflows`.

use dpsan_core::session::SessionStats;
use dpsan_obs::Snapshot;

/// The shared `key=value` payload of every solver line.
fn solver_kv(s: &SessionStats) -> String {
    format!(
        "solves={} iterations={} refactorizations={} capped={}",
        s.solves, s.iterations, s.refactorizations, s.capped,
    )
}

/// The `repro --stats` per-experiment line: `stats[scope]: solves=…`.
pub fn solver_stats_line(scope: &str, s: &SessionStats) -> String {
    format!("stats[{scope}]: {}", solver_kv(s))
}

/// The one-shot `sanitize --stats` line: `solver: solves=…`.
pub fn solver_line(s: &SessionStats) -> String {
    format!("solver: {}", solver_kv(s))
}

/// The one-shot `sanitize --stats` certificate line of an O-UMP
/// release: `bound: lambda=… upper_bound=… gap=…`, where the gap is
/// `1 − λ / UB` (0 when the bound is 0). CI's scale-smoke job greps the
/// `gap=` key.
pub fn bound_line(lambda: u64, upper_bound: f64) -> String {
    let gap = if upper_bound > 0.0 { 1.0 - lambda as f64 / upper_bound } else { 0.0 };
    format!("bound: lambda={lambda} upper_bound={upper_bound:.3} gap={gap:.4}")
}

/// The serve per-release line: `release[N]: rows=… eps-total=…`.
/// (CI's crash-smoke awk depends on the `eps-total=` key.)
pub fn release_line(
    index: u64,
    rows: u64,
    latency: std::time::Duration,
    solver: &SessionStats,
    epsilon_total: f64,
    delta_total: f64,
    out: &std::path::Path,
) -> String {
    format!(
        "release[{index}]: rows={rows} latency_ms={:.1} {} eps-total={epsilon_total:.6} \
         delta-total={delta_total:.6} out={}",
        latency.as_secs_f64() * 1e3,
        solver_kv(solver),
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
    fn solver_lines_render_every_counter() {
        let stats = SessionStats {
            solves: 5,
            iterations: 42,
            refactorizations: 7,
            capped: 1,
            ..SessionStats::default()
        };
        let kv = "solves=5 iterations=42 refactorizations=7 capped=1";
        assert_eq!(solver_stats_line("t", &stats), format!("stats[t]: {kv}"));
        assert_eq!(solver_line(&stats), format!("solver: {kv}"));
    }

    #[test]
    fn bound_line_reports_the_certified_gap() {
        assert_eq!(bound_line(75, 100.0), "bound: lambda=75 upper_bound=100.000 gap=0.2500");
        assert_eq!(bound_line(0, 0.0), "bound: lambda=0 upper_bound=0.000 gap=0.0000");
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
            &SessionStats::default(),
            1.5,
            0.25,
            std::path::Path::new("out/release-0002.tsv"),
        );
        assert!(line.starts_with("release[2]: rows=100 latency_ms=12.0 "));
        assert!(line.contains(" eps-total=1.500000 "));
        assert!(line.ends_with(" out=out/release-0002.tsv"));
    }
}
