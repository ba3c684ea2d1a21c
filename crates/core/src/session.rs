//! Solve sessions: the one home of the LP options, plus per-scope
//! solver counters.
//!
//! The evaluation workload (Tables 4–7, Figures 3–5) solves one LP per
//! `(ε, δ)`/budget grid cell, and a sanitizer solves one per release.
//! Every UMP solve goes through a [`SolveSession`] (`solve_oump`,
//! `solve_fump`, `solve_dump`): the session holds the LP options those
//! solves share and counts what they cost in [`SessionStats`] and in
//! the process-wide metrics registry. A `UmpSanitizer` opens a fresh
//! session per release, so its stats are that release's work; `repro`
//! opens one per grid cell and merges their stats, and its `--stats`
//! lines read the same counters back out of a registry snapshot delta
//! ([`SessionStats::from_snapshot`]).
//!
//! Every solve is the plain two-phase primal simplex
//! ([`dpsan_lp::simplex::solve`]) from the slack basis, so a session's
//! answer is a function of the problem alone — never of the solves
//! before it. That is what keeps "same window + same seed ⇒ identical
//! release" true across re-releases, retractions, and sharded grids.
//! The O-UMP's optimum is almost always non-unique, so a solve seeded
//! from an earlier basis could legally stop at a different optimal
//! vertex and floor to different counts; a future warm start must first
//! make the optimum canonical.

use dpsan_lp::error::LpError;
use dpsan_lp::problem::Problem;
use dpsan_lp::simplex::{solve, SimplexOptions, Solution};
use dpsan_obs::Snapshot;

/// Counters describing how a session's solves went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Total solves issued through the session.
    pub solves: usize,
    /// Simplex iterations summed over all solves.
    pub iterations: usize,
    /// Basis (re)factorizations summed over all solves.
    pub refactorizations: usize,
    /// O-UMP solves that returned an anytime answer instead of a proven
    /// optimum: every packing-route answer.
    pub capped: usize,
    /// Always `0`: every solve is cold. Kept only because the
    /// `perfbench` driver reads it as its `core.warm_kept` metric.
    pub warm_starts: usize,
    /// Always `0`: there is no warm answer to veto. Kept only because
    /// the `perfbench` driver reads it as its `core.warm_vetoed` metric.
    pub degenerate_fallbacks: usize,
}

impl SessionStats {
    /// Accumulate another stats block into this one (used to aggregate
    /// per-shard sessions into experiment-wide totals).
    pub fn merge(&mut self, other: &SessionStats) {
        self.solves += other.solves;
        self.iterations += other.iterations;
        self.refactorizations += other.refactorizations;
        self.capped += other.capped;
    }

    /// Read the solver series back out of a registry snapshot (usually
    /// a [`Snapshot::delta`], to scope the counters to one experiment).
    /// Every [`SolveSession`] increment lands in both places, so this
    /// equals the merged stats of the sessions that ran in between.
    pub fn from_snapshot(s: &Snapshot) -> SessionStats {
        let n = |name: &str| s.counter(name) as usize;
        SessionStats {
            solves: n("dpsan_solves_total{path=\"cold_primal\"}")
                + n("dpsan_solves_total{path=\"cold_primal_sparse\"}")
                + n("dpsan_solves_total{path=\"packing\"}"),
            iterations: n("dpsan_solve_iterations_total"),
            refactorizations: n("dpsan_solve_refactorizations_total"),
            capped: n("dpsan_solves_capped_total"),
            ..SessionStats::default()
        }
    }
}

/// A solver session: the LP options every solve uses, plus counters.
#[derive(Debug, Clone)]
pub struct SolveSession {
    lp: SimplexOptions,
    stats: SessionStats,
}

impl SolveSession {
    /// New session with the given LP options.
    pub fn new(lp: SimplexOptions) -> SolveSession {
        SolveSession { lp, stats: SessionStats::default() }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Solve `problem` with the session's options and count the work.
    pub fn solve(&mut self, problem: &Problem) -> Result<Solution, LpError> {
        let sol = solve(problem, &self.lp)?;
        // every increment mirrors into the process-wide registry so the
        // exported series and this session's stats agree by construction
        self.stats.solves += 1;
        self.stats.iterations += sol.iterations;
        self.stats.refactorizations += sol.refactorizations;
        crate::obs::solves_total(sol.sparse).inc();
        crate::obs::iterations_total().add(sol.iterations as u64);
        crate::obs::refactorizations_total().add(sol.refactorizations as u64);
        Ok(sol)
    }

    /// Count one O-UMP solve answered by the packing route: a capped
    /// solve (not proven optimal) with no simplex iterations or
    /// factorizations.
    pub(crate) fn count_packing_solve(&mut self) {
        self.stats.solves += 1;
        self.stats.capped += 1;
        crate::obs::packing_solves_total().inc();
        crate::obs::solves_capped_total().inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsan_lp::problem::{RowBounds, Sense, VarBounds};
    use dpsan_lp::simplex::SolveStatus;

    /// `max x0 + x1` over one shared row: the optimal face is the whole
    /// segment `x0 + x1 = rhs`, so any optimal vertex is a legal answer.
    fn flat(rhs: f64) -> Problem {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_col(1.0, VarBounds { lower: 0.0, upper: 10.0 }).unwrap();
        let b = p.add_col(1.0, VarBounds { lower: 0.0, upper: 10.0 }).unwrap();
        p.add_row(RowBounds::at_most(rhs), &[(a, 1.0), (b, 1.0)]).unwrap();
        p
    }

    #[test]
    fn sweep_counts_every_solve() {
        let mut s = SolveSession::new(SimplexOptions::default());
        let mut iterations = 0;
        for (i, rhs) in [2.0, 3.0, 5.0, 8.0].into_iter().enumerate() {
            let sol = s.solve(&flat(rhs)).unwrap();
            assert_eq!(sol.status, SolveStatus::Optimal);
            assert!((sol.objective - rhs).abs() < 1e-9);
            iterations += sol.iterations;
            let st = s.stats();
            assert_eq!(st.solves, i + 1);
            assert_eq!(st.iterations, iterations);
            assert!(st.refactorizations > i, "each solve factors at least once: {st:?}");
        }
        assert_eq!((s.stats().warm_starts, s.stats().degenerate_fallbacks), (0, 0));
    }

    #[test]
    fn session_answers_do_not_depend_on_history() {
        // a down-sweep over a degenerate optimum: a session that has
        // solved other budgets first must return the same vertex as a
        // fresh session, so releases never depend on solver history
        let mut s = SolveSession::new(SimplexOptions::default());
        for rhs in [9.0, 7.0, 5.0, 3.0] {
            let swept = s.solve(&flat(rhs)).unwrap();
            let fresh = SolveSession::new(SimplexOptions::default()).solve(&flat(rhs)).unwrap();
            assert_eq!(swept.status, SolveStatus::Optimal);
            assert_eq!(swept.x, fresh.x, "rhs={rhs}: history leaked into the vertex");
        }
    }

    #[test]
    fn stats_merge_adds_fieldwise() {
        let mut a = SessionStats {
            solves: 1,
            iterations: 5,
            refactorizations: 2,
            capped: 0,
            ..SessionStats::default()
        };
        let b = SessionStats {
            solves: 2,
            iterations: 11,
            refactorizations: 3,
            capped: 1,
            ..SessionStats::default()
        };
        a.merge(&b);
        assert_eq!(a.solves, 3);
        assert_eq!(a.iterations, 16);
        assert_eq!(a.refactorizations, 5);
        assert_eq!(a.capped, 1);
    }

    #[test]
    fn session_stats_and_snapshot_agree_on_the_same_history() {
        // the registry series a session feeds must read back as the same
        // stats, so a stat line rendered from either source agrees
        let stats = SessionStats {
            solves: 5,
            iterations: 42,
            refactorizations: 7,
            capped: 1,
            ..SessionStats::default()
        };
        let registry = dpsan_obs::Registry::new();
        registry.counter_with("dpsan_solves_total", "path", "cold_primal").add(2);
        registry.counter_with("dpsan_solves_total", "path", "cold_primal_sparse").add(2);
        registry.counter_with("dpsan_solves_total", "path", "packing").inc();
        registry.counter("dpsan_solve_iterations_total").add(42);
        registry.counter("dpsan_solve_refactorizations_total").add(7);
        registry.counter("dpsan_solves_capped_total").inc();
        assert_eq!(SessionStats::from_snapshot(&registry.snapshot()), stats);
    }
}
