//! ZEALOUS — Götz et al.'s two-phase noisy-threshold heavy-hitter
//! release, as a [`Sanitizer`] impl.
//!
//! Phase 1 builds a *capped* pair histogram: each user contributes at
//! most `d` clicks (their heaviest pairs first), so removing any one
//! user moves the histogram by at most `d` in L1 — the sensitivity the
//! noise is calibrated to. Pairs below the coarse cutoff `τ′` are
//! dropped. Phase 2 adds `Lap(2d/ε)` noise to each surviving count and
//! releases only pairs whose noisy count clears
//! `τ = τ′ + b·ln(1/(2δ))` (see [`dpsan_dp::threshold`]). An item the
//! coarse phase would have suppressed passes with probability ≤ δ; an
//! item `b·ln(1/(2β))` above τ is released with probability ≥ 1 − β —
//! the reliability bound the property tests exercise.
//!
//! The release is an aggregate histogram: ZEALOUS does not attribute
//! counts to users, so the output log carries every released pair under
//! the pseudonymous user `"*"` (schema-compatible with the 4-column
//! TSV, but without the per-user structure the UMP mechanisms keep).
//!
//! The coarse phase reads the exact pair totals of the preprocessed
//! log, one pass over them. [`ZealousOptions::candidates`] can narrow
//! that pass to an externally mined superset of the candidates; it is
//! re-filtered against the exact totals, so the mask — and therefore
//! the noise stream — is the same either way.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dpsan_dp::composition::BudgetEntry;
use dpsan_dp::params::PrivacyParams;
use dpsan_dp::threshold;
use dpsan_searchlog::{preprocess, FrequentPair, PairId, SearchLog, SearchLogBuilder};

use crate::error::CoreError;
use crate::mechanism::{MechanismInfo, PrivacyModel, Release, Sanitizer};
use crate::session::SessionStats;

/// Configuration of the ZEALOUS mechanism.
#[derive(Debug, Clone)]
pub struct ZealousOptions {
    /// Per-user contribution cap `d` (clicks kept per user, heaviest
    /// pairs first). The histogram's user-level L1 sensitivity.
    pub contribution_cap: u64,
    /// Coarse candidate cutoff `τ′` on the capped histogram.
    pub coarse_threshold: u64,
    /// Optional externally mined candidate set: pairs whose *raw* input
    /// total may reach `τ′`. Re-filtered against exact totals
    /// internally, so any superset of the true candidates gives
    /// identical output. `None` scans the exact totals.
    ///
    /// No production caller; kept for the perfbench driver, which
    /// passes candidates mined by the `dpsan-stream` sketch.
    pub candidates: Option<Vec<FrequentPair>>,
}

impl Default for ZealousOptions {
    fn default() -> Self {
        ZealousOptions { contribution_cap: 8, coarse_threshold: 2, candidates: None }
    }
}

/// One pair's passage through the noisy threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZealousDecision {
    /// The pair (id in the preprocessed log).
    pub pair: PairId,
    /// Its capped-histogram count `h`.
    pub capped_count: u64,
    /// `h + Lap(2d/ε)`.
    pub noisy_count: f64,
    /// Whether `noisy_count ≥ τ`.
    pub released: bool,
}

/// The deterministic trace of one ZEALOUS release: calibration plus
/// the per-candidate threshold decisions, in pair-id order.
#[derive(Debug, Clone)]
pub struct ZealousPlan {
    /// Laplace noise scale `b = 2d/ε`.
    pub scale: f64,
    /// The release threshold `τ`.
    pub threshold: f64,
    /// The coarse cutoff `τ′` used.
    pub coarse_threshold: u64,
    /// The contribution cap `d` used.
    pub contribution_cap: u64,
    /// One decision per pair that survived the coarse phase.
    pub decisions: Vec<ZealousDecision>,
}

/// Compute the full ZEALOUS decision trace on a *preprocessed* log.
///
/// [`ZealousSanitizer::sanitize`] is a thin wrapper over this; tests
/// use it directly to check the threshold and reliability properties.
pub fn zealous_plan(
    pre: &SearchLog,
    params: PrivacyParams,
    seed: u64,
    opts: &ZealousOptions,
) -> ZealousPlan {
    let n = pre.n_pairs();
    let tau_prime = opts.coarse_threshold;

    // candidate mask on raw totals — identical whether the candidates
    // come from the exact scan or a supplied superset
    let candidate: Vec<bool> = match &opts.candidates {
        Some(mined) => {
            let mut mask = vec![false; n];
            for f in mined {
                if pre.pair_total(f.pair) >= tau_prime {
                    mask[f.pair.index()] = true;
                }
            }
            mask
        }
        None => pre.pairs().map(|pe| pe.total >= tau_prime).collect(),
    };

    // phase 1: capped histogram — each user keeps at most d clicks,
    // heaviest candidate pairs first (ties by pair id)
    let mut h = vec![0u64; n];
    for user in pre.users_with_logs() {
        let mut items: Vec<(u64, usize)> = pre
            .user_log(user)
            .filter(|r| candidate[r.pair.index()])
            .map(|r| (r.count, r.pair.index()))
            .collect();
        items.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut budget = opts.contribution_cap;
        for (count, idx) in items {
            if budget == 0 {
                break;
            }
            let take = count.min(budget);
            h[idx] += take;
            budget -= take;
        }
    }

    // phase 2: noisy threshold test per surviving candidate, pair-id
    // order (one Laplace draw per candidate — deterministic given seed)
    let scale = threshold::noise_scale(opts.contribution_cap, params.epsilon());
    let tau = threshold::release_threshold(tau_prime, scale, params.delta());
    let noise = threshold::noise(opts.contribution_cap, params.epsilon());
    let mut rng = StdRng::seed_from_u64(seed);
    let decisions = (0..n)
        .filter(|&idx| candidate[idx] && h[idx] >= tau_prime)
        .map(|idx| {
            let noisy = h[idx] as f64 + noise.sample(&mut rng);
            ZealousDecision {
                pair: PairId::from_index(idx),
                capped_count: h[idx],
                noisy_count: noisy,
                released: noisy >= tau,
            }
        })
        .collect();

    ZealousPlan {
        scale,
        threshold: tau,
        coarse_threshold: tau_prime,
        contribution_cap: opts.contribution_cap,
        decisions,
    }
}

/// The ZEALOUS mechanism.
#[derive(Debug, Clone, Default)]
pub struct ZealousSanitizer {
    opts: ZealousOptions,
}

impl ZealousSanitizer {
    /// A sanitizer with the default calibration (`d = 8`, `τ′ = 2`).
    pub fn new() -> Self {
        Self::default()
    }

    /// A sanitizer with explicit options.
    pub fn with_options(opts: ZealousOptions) -> Self {
        ZealousSanitizer { opts }
    }

    /// The options in use.
    pub fn options(&self) -> &ZealousOptions {
        &self.opts
    }
}

impl Sanitizer for ZealousSanitizer {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            id: "zealous",
            name: "ZEALOUS (noisy-threshold heavy hitters)",
            paper: "Götz, Machanavajjhala, Wang, Xiao, Gehrke",
            privacy: PrivacyModel::ApproximateDp,
            uses_lp: false,
        }
    }

    fn expenditure(&self, params: PrivacyParams) -> Vec<BudgetEntry> {
        vec![BudgetEntry {
            label: "ZEALOUS noisy-threshold release".into(),
            epsilon: params.epsilon(),
            delta: params.delta(),
        }]
    }

    fn sanitize(
        &self,
        log: &SearchLog,
        params: PrivacyParams,
        seed: u64,
    ) -> Result<Release, CoreError> {
        let (pre, report) = preprocess(log);
        let plan = zealous_plan(&pre, params, seed, &self.opts);

        let mut counts = vec![0u64; pre.n_pairs()];
        let mut builder = SearchLogBuilder::with_vocabulary_of(&pre);
        for d in &plan.decisions {
            if !d.released {
                continue;
            }
            // released value: the noisy count, rounded, at least 1 —
            // it may exceed the raw input total (the noise is public)
            let c = d.noisy_count.round().max(1.0) as u64;
            counts[d.pair.index()] = c;
            let (q, u) = pre.pair_key(d.pair);
            builder
                .add("*", pre.queries().resolve(q.0), pre.urls().resolve(u.0), c)
                .expect("released pair over the input vocabulary");
        }
        let output = builder.build();

        Ok(Release {
            output,
            reference: pre,
            counts,
            report,
            solver: SessionStats::default(),
            upper_bound: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::testutil::input_log;
    use dpsan_dp::threshold::tail_margin;

    fn params() -> PrivacyParams {
        PrivacyParams::from_e_epsilon(2.0, 0.1)
    }

    #[test]
    fn releases_exactly_the_above_threshold_decisions() {
        let (pre, _) = preprocess(&input_log());
        let opts = ZealousOptions::default();
        let plan = zealous_plan(&pre, params(), 7, &opts);
        let release =
            ZealousSanitizer::with_options(opts).sanitize(&input_log(), params(), 7).unwrap();
        for d in &plan.decisions {
            assert_eq!(d.released, d.noisy_count >= plan.threshold);
            assert_eq!(release.counts[d.pair.index()] > 0, d.released);
        }
        // pairs without a decision are never released
        let decided: Vec<usize> = plan.decisions.iter().map(|d| d.pair.index()).collect();
        for idx in 0..pre.n_pairs() {
            if !decided.contains(&idx) {
                assert_eq!(release.counts[idx], 0);
            }
        }
    }

    #[test]
    fn capped_histogram_respects_contribution_cap() {
        let (pre, _) = preprocess(&input_log());
        let opts = ZealousOptions { contribution_cap: 3, ..Default::default() };
        let plan = zealous_plan(&pre, params(), 7, &opts);
        let total: u64 = plan.decisions.iter().map(|d| d.capped_count).sum();
        assert!(total <= 3 * pre.users_with_logs().count() as u64, "≤ d per user");
    }

    #[test]
    fn sketch_style_candidate_superset_is_output_identical() {
        let input = input_log();
        let (pre, _) = preprocess(&input);
        let exact = ZealousSanitizer::new().sanitize(&input, params(), 7).unwrap();
        // a superset candidate list (every pair) must not change output
        let all: Vec<FrequentPair> = pre
            .pairs()
            .map(|pe| FrequentPair {
                pair: pe.pair,
                count: pe.total,
                support: pe.total as f64 / pre.size() as f64,
            })
            .collect();
        let opts = ZealousOptions { candidates: Some(all), ..Default::default() };
        let sketched = ZealousSanitizer::with_options(opts).sanitize(&input, params(), 7).unwrap();
        assert_eq!(exact.counts, sketched.counts);
    }

    #[test]
    fn ledger_debits_epsilon_and_delta_once() {
        let spent = ZealousSanitizer::new().expenditure(params());
        assert_eq!(spent.len(), 1);
        assert!((spent[0].epsilon - params().epsilon()).abs() < 1e-12);
        assert!((spent[0].delta - params().delta()).abs() < 1e-12);
        let r = ZealousSanitizer::new().sanitize(&input_log(), params(), 7).unwrap();
        assert_eq!(r.solver, SessionStats::default(), "no LP touched");
    }

    #[test]
    fn reliability_bound_holds_empirically() {
        // a pair whose capped count sits margin(β) above τ is released
        // in at least (1−β) of seeds, up to Monte-Carlo slack
        let input = input_log();
        let (pre, _) = preprocess(&input);
        let opts = ZealousOptions::default();
        let p = params();
        let beta = 0.2;
        let probe = zealous_plan(&pre, p, 0, &opts);
        let margin = tail_margin(probe.scale, beta);
        let heavy: Vec<PairId> = probe
            .decisions
            .iter()
            .filter(|d| d.capped_count as f64 >= probe.threshold + margin)
            .map(|d| d.pair)
            .collect();
        assert!(!heavy.is_empty(), "the head pair clears τ + margin at this calibration");
        let trials = 200;
        for pair in heavy {
            let released = (0..trials)
                .filter(|&seed| {
                    zealous_plan(&pre, p, seed, &opts)
                        .decisions
                        .iter()
                        .any(|d| d.pair == pair && d.released)
                })
                .count();
            let rate = released as f64 / trials as f64;
            assert!(rate >= 1.0 - beta - 0.08, "pair {pair}: rate {rate}");
        }
    }

    #[test]
    fn deterministic_given_seed_and_sensitive_to_it() {
        let input = input_log();
        let a = ZealousSanitizer::new().sanitize(&input, params(), 3).unwrap();
        let b = ZealousSanitizer::new().sanitize(&input, params(), 3).unwrap();
        assert_eq!(a.counts, b.counts);
        let plans: Vec<ZealousPlan> = (0..4)
            .map(|s| zealous_plan(&a.reference, params(), s, &ZealousOptions::default()))
            .collect();
        assert!(
            plans.windows(2).any(|w| {
                w[0].decisions
                    .iter()
                    .zip(&w[1].decisions)
                    .any(|(x, y)| (x.noisy_count - y.noisy_count).abs() > 1e-12)
            }),
            "different seeds draw different noise"
        );
    }
}
