//! Sequential composition bookkeeping and enforcement.
//!
//! The paper's full pipeline can spend privacy budget in two places: the
//! multinomial sanitization itself (`(ε, δ)`-probabilistic DP, Theorem 1)
//! and the optional Laplace step on the optimal counts (`ε′`-DP,
//! Section 4.2). [`BudgetLedger`] tracks the standard sequential
//! composition `(Σ ε_i, Σ δ_i)` so callers can assert a total budget.
//!
//! A ledger can additionally be given a **lifetime budget** with
//! [`BudgetLedger::with_lifetime`]. A capped ledger *enforces* sequential
//! composition: [`try_spend_all`](BudgetLedger::try_spend_all) refuses
//! (returns [`BudgetError`] and records nothing) any batch of
//! expenditures whose composed total would exceed the cap, and
//! [`check_all`](BudgetLedger::check_all) runs the same check without
//! recording, so a release can refuse before it does any work. This is
//! what keeps repeated publication from silently eroding the guarantee —
//! a re-release past the lifetime `(ε, δ)` is an error, not a bigger
//! number in a report.

use std::error::Error;
use std::fmt;

/// One recorded expenditure.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetEntry {
    /// What the budget was spent on (free-form label).
    pub label: String,
    /// ε spent.
    pub epsilon: f64,
    /// δ spent (0 for pure-ε mechanisms such as Laplace).
    pub delta: f64,
}

/// A refused expenditure: composing it onto the ledger would exceed the
/// configured lifetime budget. The ledger is unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetError {
    /// Label of the refused expenditure (first offending entry for a
    /// batch refusal).
    pub label: String,
    /// Composed ε the refused spend would have reached.
    pub would_epsilon: f64,
    /// Composed δ the refused spend would have reached.
    pub would_delta: f64,
    /// Lifetime ε cap.
    pub cap_epsilon: f64,
    /// Lifetime δ cap.
    pub cap_delta: f64,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exhausted: \"{}\" would compose to (ε={:.6}, δ={:.6}) past the lifetime cap (ε={:.6}, δ={:.6})",
            self.label, self.would_epsilon, self.would_delta, self.cap_epsilon, self.cap_delta
        )
    }
}

impl Error for BudgetError {}

/// An append-only ledger of `(ε, δ)` expenditures with sequential
/// composition totals and an optional enforced lifetime cap.
#[derive(Debug, Default, Clone)]
pub struct BudgetLedger {
    entries: Vec<BudgetEntry>,
    /// Lifetime `(ε, δ)` cap enforced by the fallible spend path;
    /// `None` means record-only (the seed behavior).
    lifetime: Option<(f64, f64)>,
    /// Whether this ledger reports into the process-wide metrics
    /// registry ([`crate::obs`]). Off by default so scratch ledgers
    /// never double-count; the serving layer marks its one
    /// authoritative ledger observed.
    observed: bool,
}

impl BudgetLedger {
    /// New empty ledger with no lifetime cap (record-only).
    pub fn new() -> Self {
        Self::default()
    }

    /// New empty ledger that enforces the lifetime budget `(ε, δ)`:
    /// fallible spends past the cap are refused.
    pub fn with_lifetime(epsilon: f64, delta: f64) -> Self {
        assert!(epsilon.is_finite() && epsilon >= 0.0, "lifetime epsilon must be finite and >= 0");
        assert!(
            delta.is_finite() && (0.0..1.0).contains(&delta),
            "lifetime delta must be in [0, 1)"
        );
        BudgetLedger { entries: Vec::new(), lifetime: Some((epsilon, delta)), observed: false }
    }

    /// The lifetime `(ε, δ)` cap, if one is enforced.
    pub fn lifetime(&self) -> Option<(f64, f64)> {
        self.lifetime
    }

    /// Mark this ledger as the process's authoritative one: every spend
    /// and refusal from here on reports into the metrics registry, and
    /// the absolute spent/remaining gauges are synced to the ledger's
    /// current totals immediately (so a ledger restored from durable
    /// history re-establishes the gauges without re-counting the
    /// replayed entries as fresh spend events).
    ///
    /// Telemetry is observational only — an observed ledger composes
    /// and refuses exactly like an unobserved one. At most one ledger
    /// per process should be observed; the spent/remaining gauges
    /// describe a single ledger, not a sum over ledgers.
    pub fn observed(mut self) -> Self {
        self.observed = true;
        self.sync_gauges();
        self
    }

    /// Whether this ledger reports into the metrics registry.
    pub fn is_observed(&self) -> bool {
        self.observed
    }

    fn sync_gauges(&self) {
        crate::obs::epsilon_spent().set(self.total_epsilon());
        crate::obs::delta_spent().set(self.total_delta());
        if let Some((re, rd)) = self.remaining() {
            crate::obs::epsilon_remaining().set(re);
            crate::obs::delta_remaining().set(rd);
        }
    }

    /// Record an expenditure unconditionally (replaying recorded
    /// history; see `dpsan_store::rebuild_ledger`).
    ///
    /// Panics on out-of-domain values; never refuses. New expenditures
    /// go through [`try_spend_all`](Self::try_spend_all), which enforces
    /// the cap.
    pub fn spend(&mut self, label: impl Into<String>, epsilon: f64, delta: f64) {
        Self::check_domain(epsilon, delta);
        self.entries.push(BudgetEntry { label: label.into(), epsilon, delta });
        if self.observed {
            crate::obs::spends_total().inc();
            self.sync_gauges();
        }
    }

    /// Check that a batch of expenditures fits under the lifetime cap,
    /// recording nothing. A refusal reports the first entry whose
    /// composed total overflows (and counts into the registry when the
    /// ledger is observed). Lets a release refuse before doing any
    /// work; [`try_spend_all`](Self::try_spend_all) runs the same check.
    pub fn check_all(&self, batch: &[BudgetEntry]) -> Result<(), BudgetError> {
        for e in batch {
            Self::check_domain(e.epsilon, e.delta);
        }
        let Some((cap_e, cap_d)) = self.lifetime else { return Ok(()) };
        let mut eps = self.total_epsilon();
        let mut del = self.total_delta();
        for e in batch {
            eps += e.epsilon;
            del += e.delta;
            if eps > cap_e + 1e-12 || del > cap_d + 1e-12 {
                if self.observed {
                    crate::obs::refusals_total().inc();
                }
                return Err(BudgetError {
                    label: e.label.clone(),
                    would_epsilon: eps,
                    would_delta: del,
                    cap_epsilon: cap_e,
                    cap_delta: cap_d,
                });
            }
        }
        Ok(())
    }

    /// Record a batch of expenditures **atomically**: either every entry
    /// fits under the lifetime cap and all are appended, or none are and
    /// the composed overflow is reported. A release that spends twice
    /// (sampling + Laplace) charges both entries through one call so a
    /// refusal can never leave a half-charged ledger.
    pub fn try_spend_all(&mut self, batch: &[BudgetEntry]) -> Result<(), BudgetError> {
        self.check_all(batch)?;
        self.entries.extend_from_slice(batch);
        if self.observed {
            crate::obs::spends_total().add(batch.len() as u64);
            self.sync_gauges();
        }
        Ok(())
    }

    /// Remaining `(ε, δ)` under the lifetime cap, or `None` if the
    /// ledger is uncapped.
    pub fn remaining(&self) -> Option<(f64, f64)> {
        self.lifetime
            .map(|(e, d)| ((e - self.total_epsilon()).max(0.0), (d - self.total_delta()).max(0.0)))
    }

    fn check_domain(epsilon: f64, delta: f64) {
        assert!(epsilon.is_finite() && epsilon >= 0.0, "epsilon must be finite and >= 0");
        assert!(delta.is_finite() && (0.0..1.0).contains(&delta), "delta must be in [0, 1)");
    }

    /// Total ε under sequential composition.
    pub fn total_epsilon(&self) -> f64 {
        // folded from +0.0: `Sum` for floats starts at -0.0, which an
        // empty ledger would print as "-0.0000"
        self.entries.iter().fold(0.0, |acc, e| acc + e.epsilon)
    }

    /// Total δ under sequential composition.
    pub fn total_delta(&self) -> f64 {
        self.entries.iter().fold(0.0, |acc, e| acc + e.delta)
    }

    /// Whether the composed totals fit within `(ε, δ)`.
    pub fn within(&self, epsilon: f64, delta: f64) -> bool {
        self.total_epsilon() <= epsilon + 1e-12 && self.total_delta() <= delta + 1e-12
    }

    /// The recorded entries in order.
    pub fn entries(&self) -> &[BudgetEntry] {
        &self.entries
    }
}

impl fmt::Display for BudgetLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.lifetime {
            Some((e, d)) => writeln!(
                f,
                "privacy ledger (ε={:.4}, δ={:.4}; lifetime ε={:.4}, δ={:.4}):",
                self.total_epsilon(),
                self.total_delta(),
                e,
                d
            )?,
            None => writeln!(
                f,
                "privacy ledger (ε={:.4}, δ={:.4}):",
                self.total_epsilon(),
                self.total_delta()
            )?,
        }
        for e in &self.entries {
            writeln!(f, "  {:<32} ε={:.4} δ={:.4}", e.label, e.epsilon, e.delta)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(label: &str, epsilon: f64, delta: f64) -> [BudgetEntry; 1] {
        [BudgetEntry { label: label.into(), epsilon, delta }]
    }

    #[test]
    fn totals_compose_sequentially() {
        let mut l = BudgetLedger::new();
        l.spend("sampling", 0.5, 0.1);
        l.spend("laplace counts", 0.2, 0.0);
        assert!((l.total_epsilon() - 0.7).abs() < 1e-12);
        assert!((l.total_delta() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn within_checks_both_coordinates() {
        let mut l = BudgetLedger::new();
        l.spend("a", 0.5, 0.05);
        assert!(l.within(0.5, 0.05));
        assert!(!l.within(0.4, 0.05));
        assert!(!l.within(0.5, 0.04));
    }

    #[test]
    fn empty_ledger_is_free() {
        let l = BudgetLedger::new();
        assert_eq!(l.total_epsilon(), 0.0);
        assert!(l.within(0.0, 0.0));
        assert!(l.entries().is_empty());
        assert_eq!(l.lifetime(), None);
        assert_eq!(l.remaining(), None);
    }

    #[test]
    fn display_lists_entries() {
        let mut l = BudgetLedger::new();
        l.spend("sampling", 0.5, 0.1);
        let s = l.to_string();
        assert!(s.contains("sampling"));
        assert!(s.contains("ε=0.5"));
    }

    #[test]
    #[should_panic(expected = "delta must be in [0, 1)")]
    fn rejects_delta_one() {
        let mut l = BudgetLedger::new();
        l.spend("bad", 0.1, 1.0);
    }

    #[test]
    fn uncapped_try_spend_never_refuses() {
        let mut l = BudgetLedger::new();
        for _ in 0..100 {
            l.try_spend_all(&one("r", 10.0, 0.009)).unwrap();
        }
        assert_eq!(l.entries().len(), 100);
    }

    #[test]
    fn capped_try_spend_refuses_past_lifetime() {
        let mut l = BudgetLedger::with_lifetime(1.0, 0.2);
        l.try_spend_all(&one("r1", 0.6, 0.1)).unwrap();
        let err = l.try_spend_all(&one("r2", 0.6, 0.05)).unwrap_err();
        assert_eq!(err.label, "r2");
        assert!(err.would_epsilon > 1.0);
        assert_eq!(l.entries().len(), 1, "refused spend records nothing");
        // A smaller spend that fits still goes through afterwards.
        l.try_spend_all(&one("r3", 0.4, 0.1)).unwrap();
        assert!(l.within(1.0, 0.2));
    }

    #[test]
    fn capped_try_spend_refuses_on_delta_alone() {
        let mut l = BudgetLedger::with_lifetime(10.0, 0.1);
        l.try_spend_all(&one("r1", 0.1, 0.08)).unwrap();
        assert!(l.try_spend_all(&one("r2", 0.1, 0.08)).is_err());
    }

    #[test]
    fn try_spend_all_is_atomic() {
        let mut l = BudgetLedger::with_lifetime(1.0, 0.5);
        let batch = vec![
            BudgetEntry { label: "sampling".into(), epsilon: 0.7, delta: 0.1 },
            BudgetEntry { label: "laplace".into(), epsilon: 0.7, delta: 0.0 },
        ];
        let err = l.try_spend_all(&batch).unwrap_err();
        assert_eq!(err.label, "laplace", "second entry is the one that overflows");
        assert!(l.entries().is_empty(), "no partial charge on batch refusal");
        assert_eq!(l.check_all(&batch), Err(err), "the bare check refuses the same way");
        // The same batch fits on a bigger ledger; checking it records nothing.
        let mut big = BudgetLedger::with_lifetime(2.0, 0.5);
        big.check_all(&batch).unwrap();
        assert!(big.entries().is_empty());
        big.try_spend_all(&batch).unwrap();
        assert_eq!(big.entries().len(), 2);
    }

    #[test]
    fn exact_cap_is_allowed() {
        let mut l = BudgetLedger::with_lifetime(1.0, 0.1);
        l.try_spend_all(&one("a", 0.5, 0.05)).unwrap();
        l.try_spend_all(&one("b", 0.5, 0.05)).unwrap();
        assert!(l.try_spend_all(&one("c", 1e-9, 0.0)).is_err());
    }

    #[test]
    fn remaining_tracks_cap() {
        let mut l = BudgetLedger::with_lifetime(1.0, 0.2);
        l.try_spend_all(&one("a", 0.25, 0.05)).unwrap();
        let (re, rd) = l.remaining().unwrap();
        assert!((re - 0.75).abs() < 1e-12);
        assert!((rd - 0.15).abs() < 1e-12);
    }

    #[test]
    fn display_shows_lifetime_cap() {
        let l = BudgetLedger::with_lifetime(1.0, 0.25);
        assert!(l.to_string().contains("lifetime"));
    }

    #[test]
    fn empty_ledger_totals_are_positive_zero() {
        let l = BudgetLedger::with_lifetime(0.5, 0.9);
        assert!(l.total_epsilon().is_sign_positive());
        assert!(l.total_delta().is_sign_positive());
        assert_eq!(
            l.to_string(),
            "privacy ledger (ε=0.0000, δ=0.0000; lifetime ε=0.5000, δ=0.9000):\n"
        );
    }

    /// One test owns every assertion about the global budget series:
    /// the registry is process-wide, so splitting this across tests
    /// would race under the parallel test runner.
    #[test]
    fn observed_ledger_reports_spends_refusals_and_gauges() {
        let spends0 = crate::obs::spends_total().get();
        let refusals0 = crate::obs::refusals_total().get();

        // Unobserved ledgers are silent.
        let mut quiet = BudgetLedger::new();
        quiet.spend("view entry", 0.3, 0.01);
        assert_eq!(crate::obs::spends_total().get(), spends0);

        // Marking observed syncs the absolute gauges to the restored
        // history without counting it as fresh spends.
        let mut l = BudgetLedger::with_lifetime(1.0, 0.2);
        l.spend("replayed release", 0.25, 0.05);
        let mut l = l.observed();
        assert!(l.is_observed());
        assert_eq!(crate::obs::spends_total().get(), spends0);
        assert!((crate::obs::epsilon_spent().get() - 0.25).abs() < 1e-12);
        assert!((crate::obs::epsilon_remaining().get() - 0.75).abs() < 1e-12);

        // Live spends count and move the gauges.
        l.try_spend_all(&one("release 2", 0.25, 0.05)).unwrap();
        assert_eq!(crate::obs::spends_total().get(), spends0 + 1);
        assert!((crate::obs::epsilon_spent().get() - 0.5).abs() < 1e-12);
        assert!((crate::obs::delta_remaining().get() - 0.1).abs() < 1e-12);

        // A refusal counts once and leaves the spend gauges alone.
        assert!(l.try_spend_all(&one("too big", 0.9, 0.0)).is_err());
        assert_eq!(crate::obs::refusals_total().get(), refusals0 + 1);
        assert!((crate::obs::epsilon_spent().get() - 0.5).abs() < 1e-12);

        // A check alone records nothing, and its refusal counts once.
        assert!(l.check_all(&one("checked", 0.25, 0.05)).is_ok());
        assert_eq!(crate::obs::spends_total().get(), spends0 + 1);
        assert!(l.check_all(&one("too big", 0.9, 0.0)).is_err());
        assert_eq!(crate::obs::refusals_total().get(), refusals0 + 2);
    }
}
