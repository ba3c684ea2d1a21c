//! The paper's mechanism behind the [`Sanitizer`] trait: utility-
//! maximizing LP solve + multinomial sampling (Algorithm 1).
//!
//! ```text
//! input log ──preprocess──▶ D ──build constraints──▶ UMP solve ──▶ x*
//!      x* ──(optional Laplace, §4.2)──▶ x̃ ──multinomial sampling──▶ O
//! ```
//!
//! A [`UmpSanitizer`] holds only its configuration: every release
//! solves through its own fresh [`SolveSession`], so a release is a
//! function of `(log, params, seed)` alone and its [`Release::solver`]
//! counters hold that release's solver work and nothing else.
//!
//! The O-UMP objective answers on the packing route
//! ([`crate::ump::packing`]) at every size, as production does;
//! [`UmpSanitizer::with_exact_lp`] selects the paper's LP + floor
//! instead, as `repro` does.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dpsan_dp::composition::BudgetEntry;
use dpsan_dp::multinomial::MultinomialStrategy;
use dpsan_dp::params::PrivacyParams;
use dpsan_lp::simplex::SimplexOptions;
use dpsan_searchlog::{preprocess, SearchLog};

use crate::constraints::PrivacyConstraints;
use crate::end_to_end::{noisy_counts, repair_counts};
use crate::error::CoreError;
use crate::mechanism::{MechanismInfo, PrivacyModel, Release, Sanitizer};
use crate::sampling::sample_output;
use crate::session::SolveSession;
use crate::ump::diversity::{DumpOptions, DumpSolver};
use crate::ump::frequent::FumpOptions;
use crate::ump::output_size::OumpOptions;

/// Which utility-maximizing problem drives the sanitization.
#[derive(Debug, Clone)]
pub enum UtilityObjective {
    /// O-UMP: maximize the output size.
    OutputSize,
    /// F-UMP: preserve frequent-pair supports at a fixed output size.
    /// The frequent set is mined exactly from each release's
    /// preprocessed log.
    FrequentPairs {
        /// Minimum support `s`.
        min_support: f64,
        /// Target output size `|O| ∈ [0, λ]` (`0` releases nothing).
        output_size: u64,
    },
    /// D-UMP: maximize pair diversity.
    Diversity {
        /// BIP solver choice.
        solver: DumpSolver,
    },
}

/// Optional Section-4.2 end-to-end step: Laplace noise on the optimal
/// counts (the count *computation* becomes ε′-differentially private
/// given sensitivity `d`).
#[derive(Debug, Clone, Copy)]
pub struct LaplaceStep {
    /// Count sensitivity bound `d`.
    pub sensitivity: f64,
    /// Privacy parameter ε′ of the count-computation step.
    pub epsilon_prime: f64,
}

/// The paper's mechanism: UMP solve + multinomial sampling, as a
/// [`Sanitizer`] impl.
pub struct UmpSanitizer {
    objective: UtilityObjective,
    laplace: Option<LaplaceStep>,
    exact_lp: bool,
}

impl UmpSanitizer {
    /// A sanitizer with no Laplace step.
    pub fn new(objective: UtilityObjective) -> Self {
        UmpSanitizer { objective, laplace: None, exact_lp: false }
    }

    /// Add the §4.2 Laplace step on the optimal counts (a second entry
    /// in each release's expenditure).
    pub fn with_laplace(mut self, laplace: LaplaceStep) -> Self {
        self.laplace = Some(laplace);
        self
    }

    /// Solve the O-UMP exactly, as the paper prints it: LP + floor
    /// through the simplex, instead of the packing route
    /// (O-UMP objective only; see
    /// [`crate::ump::output_size::OumpOptions::anytime`]).
    pub fn with_exact_lp(mut self) -> Self {
        self.exact_lp = true;
        self
    }
}

impl Sanitizer for UmpSanitizer {
    fn info(&self) -> MechanismInfo {
        let (id, name) = match &self.objective {
            UtilityObjective::OutputSize => ("oump", "O-UMP (max output size)"),
            UtilityObjective::FrequentPairs { .. } => {
                ("fump", "F-UMP (frequent-pair preservation)")
            }
            UtilityObjective::Diversity { .. } => ("dump", "D-UMP (max pair diversity)"),
        };
        MechanismInfo {
            id,
            name,
            paper: "Hong, Vaidya, Lu, Wu (EDBT 2012)",
            privacy: PrivacyModel::ProbabilisticDp,
            uses_lp: true,
        }
    }

    fn expenditure(&self, params: PrivacyParams) -> Vec<BudgetEntry> {
        let mut batch = vec![BudgetEntry {
            label: "multinomial sampling (Theorem 1)".into(),
            epsilon: params.epsilon(),
            delta: params.delta(),
        }];
        if let Some(lap) = self.laplace {
            batch.push(BudgetEntry {
                label: "Laplace on optimal counts (§4.2)".into(),
                epsilon: lap.epsilon_prime,
                delta: 0.0,
            });
        }
        batch
    }

    fn sanitize(
        &self,
        log: &SearchLog,
        params: PrivacyParams,
        seed: u64,
    ) -> Result<Release, CoreError> {
        let (pre, report) = preprocess(log);
        let constraints = PrivacyConstraints::build(&pre, params)?;

        // step 1: optimal output counts, through this release's session
        let mut session = SolveSession::new(SimplexOptions::default());
        let mut upper_bound = None;
        let mut counts = match &self.objective {
            UtilityObjective::OutputSize => {
                let sol = session.solve_oump(
                    &constraints,
                    &OumpOptions { anytime: !self.exact_lp, ..Default::default() },
                )?;
                upper_bound = Some(sol.upper_bound);
                sol.counts
            }
            // |O| = 0 is the empty release, the one output size a log
            // with λ = 0 admits; there is no LP to solve
            UtilityObjective::FrequentPairs { output_size: 0, .. } => {
                vec![0; constraints.n_pairs()]
            }
            UtilityObjective::FrequentPairs { min_support, output_size } => {
                session
                    .solve_fump(&pre, &constraints, &FumpOptions::new(*min_support, *output_size))?
                    .counts
            }
            UtilityObjective::Diversity { solver } => {
                session.solve_dump(&constraints, &DumpOptions { solver: solver.clone() })?.counts
            }
        };

        let mut rng = StdRng::seed_from_u64(seed);

        // optional §4.2 Laplace step on the counts
        if let Some(lap) = self.laplace {
            let noisy = noisy_counts(&mut rng, &counts, lap.sensitivity, lap.epsilon_prime);
            counts = repair_counts(&constraints, &noisy);
        }

        // the released counts must satisfy Theorem 1 — always re-checked
        crate::ump::verify_counts(&constraints, &counts)?;

        // step 2: multinomial sampling
        let output = sample_output(&mut rng, &pre, &counts, MultinomialStrategy::Auto);

        Ok(Release { output, reference: pre, counts, report, solver: session.stats(), upper_bound })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::testutil::input_log;
    use crate::metrics::{diversity_retained, precision_recall};
    use crate::sampling::output_pair_counts;

    fn params() -> PrivacyParams {
        PrivacyParams::from_e_epsilon(2.0, 0.5)
    }

    const SEED: u64 = 0xd95a_11ce;

    #[test]
    fn oump_pipeline_end_to_end() {
        let input = input_log();
        let s = UmpSanitizer::new(UtilityObjective::OutputSize);
        let out = s.sanitize(&input, params(), SEED).unwrap();
        assert_eq!(out.report.removed_pairs, 1, "the unique pair is dropped");
        assert_eq!(out.reference.n_pairs(), 4);
        // output totals equal the computed counts
        assert_eq!(output_pair_counts(&out.reference, &out.output), out.counts);
        // constraints hold on the released counts
        let c = PrivacyConstraints::build(&out.reference, params()).unwrap();
        assert!(c.satisfied_by(&out.counts, 1e-9));
        assert!(out.output.size() > 0, "a generous budget yields a non-empty output");
        // one release = one solve, answered by the packing route
        assert_eq!(out.solver.solves, 1);
        assert_eq!(out.solver.capped, 1);
        assert_eq!(out.solver.iterations, 0);
        assert!(out.upper_bound.unwrap() >= out.counts.iter().sum::<u64>() as f64);

        // the paper's LP + floor: a proven optimum through the simplex
        let exact = UmpSanitizer::new(UtilityObjective::OutputSize).with_exact_lp();
        let out = exact.sanitize(&input, params(), SEED).unwrap();
        assert!(c.satisfied_by(&out.counts, 1e-9));
        assert_eq!(out.solver.solves, 1);
        assert_eq!(out.solver.capped, 0);
        assert!(out.solver.iterations > 0);
    }

    #[test]
    fn fump_pipeline_respects_output_size() {
        let input = input_log();
        // first learn λ, then ask for half of it
        let o = UmpSanitizer::new(UtilityObjective::OutputSize)
            .sanitize(&input, params(), SEED)
            .unwrap();
        let lambda: u64 = o.counts.iter().sum();
        assert!(lambda > 2);
        let s = UmpSanitizer::new(UtilityObjective::FrequentPairs {
            min_support: 0.1,
            output_size: lambda / 2,
        });
        let out = s.sanitize(&input, params(), SEED).unwrap();
        let total: u64 = out.counts.iter().sum();
        assert!(total <= lambda / 2);
        let pr = precision_recall(&out.reference, &out.counts, 0.1);
        assert!(pr.precision > 0.0);
    }

    #[test]
    fn fump_zero_output_size_releases_nothing() {
        let s =
            UmpSanitizer::new(UtilityObjective::FrequentPairs { min_support: 0.1, output_size: 0 });
        let out = s.sanitize(&input_log(), params(), SEED).unwrap();
        assert!(out.counts.iter().all(|&c| c == 0));
        assert_eq!(out.output.size(), 0);
        assert_eq!(out.solver.solves, 0, "no LP is solved");
        // a log with nothing to release (every pair unique) answers the
        // same way
        let mut b = dpsan_searchlog::SearchLogBuilder::new();
        b.add("u1", "q1", "l1", 3).unwrap();
        b.add("u2", "q2", "l2", 4).unwrap();
        let out = s.sanitize(&b.build(), params(), SEED).unwrap();
        assert!(out.counts.is_empty() && out.output.size() == 0);
    }

    #[test]
    fn dump_pipeline_keeps_distinct_pairs() {
        let input = input_log();
        let s = UmpSanitizer::new(UtilityObjective::Diversity { solver: DumpSolver::Spe });
        let out = s.sanitize(&input, params(), SEED).unwrap();
        assert!(out.counts.iter().all(|&c| c <= 1), "D-UMP counts are binary");
        assert!(diversity_retained(&out.counts) > 0.0);
        // SPE never runs the LP
        assert_eq!(out.solver.solves, 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let input = input_log();
        let s = UmpSanitizer::new(UtilityObjective::OutputSize);
        let a = s.sanitize(&input, params(), SEED).unwrap();
        let b = s.sanitize(&input, params(), SEED).unwrap();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.output.size(), b.output.size());
    }

    #[test]
    fn used_sanitizer_releases_like_a_fresh_one() {
        // no solver state outlives a release: after releasing at other
        // budgets, a sanitizer answers exactly as a fresh one does, and
        // `Release::solver` counts only that release's work
        let input = input_log();
        let p = params();
        let makers: [fn() -> UmpSanitizer; 2] = [
            || UmpSanitizer::new(UtilityObjective::OutputSize),
            || UmpSanitizer::new(UtilityObjective::OutputSize).with_exact_lp(),
        ];
        for fresh in makers {
            let used = fresh();
            for e_eps in [1.4, 3.0] {
                used.sanitize(&input, PrivacyParams::from_e_epsilon(e_eps, 0.5), SEED).unwrap();
            }
            let a = used.sanitize(&input, p, SEED).unwrap();
            let b = fresh().sanitize(&input, p, SEED).unwrap();
            assert_eq!(a.counts, b.counts);
            assert_eq!(a.solver, b.solver);
            assert_eq!(a.solver.solves, 1);
        }
    }

    #[test]
    fn laplace_step_records_ledger_and_stays_private() {
        let input = input_log();
        let s = UmpSanitizer::new(UtilityObjective::OutputSize)
            .with_laplace(LaplaceStep { sensitivity: 1.0, epsilon_prime: 0.5 });
        let spent = s.expenditure(params());
        assert_eq!(spent.len(), 2);
        assert!((spent[0].epsilon + spent[1].epsilon - (params().epsilon() + 0.5)).abs() < 1e-12);
        let out = s.sanitize(&input, params(), SEED).unwrap();
        let c = PrivacyConstraints::build(&out.reference, params()).unwrap();
        assert!(c.satisfied_by(&out.counts, 1e-9), "repair keeps noisy counts private");
    }

    #[test]
    fn output_schema_identical_to_input() {
        let input = input_log();
        let s = UmpSanitizer::new(UtilityObjective::OutputSize);
        let out = s.sanitize(&input, params(), SEED).unwrap();
        // every output record is a (user, query, url, count) tuple over
        // the input vocabulary — write + re-read as TSV to prove schema
        let mut buf = Vec::new();
        dpsan_searchlog::io::write_tsv(&out.output, &mut buf).unwrap();
        let reread = dpsan_searchlog::io::read_tsv(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(reread.size(), out.output.size());
        assert_eq!(reread.n_pairs(), out.output.n_pairs());
    }

    #[test]
    fn info_tracks_objective() {
        assert_eq!(UmpSanitizer::new(UtilityObjective::OutputSize).info().id, "oump");
        assert_eq!(
            UmpSanitizer::new(UtilityObjective::Diversity { solver: DumpSolver::Spe }).info().id,
            "dump"
        );
        assert!(UmpSanitizer::new(UtilityObjective::OutputSize).info().uses_lp);
    }
}
