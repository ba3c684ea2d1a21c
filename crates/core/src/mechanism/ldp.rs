//! Local-model baseline: per-user randomized response over the pair
//! vocabulary, as a [`Sanitizer`] impl.
//!
//! Each user reduces their log to a presence vector over the
//! preprocessed pair vocabulary, capped at their `d` heaviest pairs,
//! and pushes every bit through a randomized-response channel at
//! per-bit budget `ε′ = ε/(2d)` (Ding et al.'s linear reduction — two
//! capped records differ in at most `2d` bits, so the whole report is
//! ε-LDP at the user level; see [`dpsan_dp::response`]). The released
//! log keeps real user attributions: each user's report is safe to
//! publish under their own randomizer, which is the point of the local
//! model — no trusted curator.
//!
//! Determinism and the user-complete sharding invariant: each user's
//! channel is seeded from the release seed and a stable hash of their
//! *name* (FNV-1a, the same family `dpsan-stream` shards by), never
//! from shard layout or iteration order — and streamed ingestion
//! produces a structurally identical log anyway — so releases are
//! byte-identical across `--shards`/`--jobs`.
//!
//! Cost: randomizing every (user, pair) bit is `O(users × pairs)` —
//! the honest cost of the local model, since reporting only true bits
//! would leak which bits were present.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dpsan_dp::composition::BudgetEntry;
use dpsan_dp::params::PrivacyParams;
use dpsan_dp::response::RandomizedResponse;
use dpsan_searchlog::{preprocess, PairId, SearchLog, SearchLogBuilder};

use crate::error::CoreError;
use crate::mechanism::{MechanismInfo, PrivacyModel, Release, Sanitizer};
use crate::session::SessionStats;

/// Configuration of the LDP randomized-response mechanism.
#[derive(Debug, Clone)]
pub struct LdpOptions {
    /// Per-user presence cap `d`: each user reports at most their `d`
    /// heaviest pairs as true bits. Smaller caps concentrate the
    /// per-bit budget (`ε′ = ε/(2d)`).
    pub max_pairs_per_user: u64,
}

impl Default for LdpOptions {
    fn default() -> Self {
        LdpOptions { max_pairs_per_user: 4 }
    }
}

/// The per-user RNG seed: release seed mixed with a stable FNV-1a hash
/// of the user name. Depends only on `(seed, name)`, never on shard
/// layout or user-id assignment order.
pub fn ldp_user_seed(seed: u64, user_name: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in user_name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h ^ seed
}

/// The local-model randomized-response mechanism.
#[derive(Debug, Clone, Default)]
pub struct LdpSanitizer {
    opts: LdpOptions,
}

impl LdpSanitizer {
    /// A sanitizer with the default cap (`d = 4`).
    pub fn new() -> Self {
        Self::default()
    }

    /// A sanitizer with explicit options.
    pub fn with_options(opts: LdpOptions) -> Self {
        LdpSanitizer { opts }
    }

    /// The options in use.
    pub fn options(&self) -> &LdpOptions {
        &self.opts
    }
}

impl Sanitizer for LdpSanitizer {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            id: "ldp-rr",
            name: "LDP randomized response (linear reduction)",
            paper: "Ding et al. (local-model baseline)",
            privacy: PrivacyModel::LocalDp,
            uses_lp: false,
        }
    }

    fn expenditure(&self, params: PrivacyParams) -> Vec<BudgetEntry> {
        vec![BudgetEntry {
            label: "per-user randomized response (ε-LDP)".into(),
            epsilon: params.epsilon(),
            delta: 0.0,
        }]
    }

    fn sanitize(
        &self,
        log: &SearchLog,
        params: PrivacyParams,
        seed: u64,
    ) -> Result<Release, CoreError> {
        let (pre, report) = preprocess(log);
        let n = pre.n_pairs();
        let cap = self.opts.max_pairs_per_user;
        let rr = RandomizedResponse::per_item(params.epsilon(), cap);

        let mut counts = vec![0u64; n];
        let mut builder = SearchLogBuilder::with_vocabulary_of(&pre);
        let mut bits = vec![false; n];
        for user in pre.users_with_logs() {
            // the user's capped presence vector: d heaviest pairs
            // (ties by pair id), one bit per vocabulary pair
            let mut items: Vec<(u64, usize)> =
                pre.user_log(user).map(|r| (r.count, r.pair.index())).collect();
            items.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            bits.iter_mut().for_each(|b| *b = false);
            for &(_, idx) in items.iter().take(cap as usize) {
                bits[idx] = true;
            }

            let name = pre.users().resolve(user.0);
            let mut rng = StdRng::seed_from_u64(ldp_user_seed(seed, name));
            for (idx, &bit) in bits.iter().enumerate() {
                if rr.randomize(&mut rng, bit) {
                    counts[idx] += 1;
                    let (q, u) = pre.pair_key(PairId::from_index(idx));
                    builder
                        .add(name, pre.queries().resolve(q.0), pre.urls().resolve(u.0), 1)
                        .expect("reported pair over the input vocabulary");
                }
            }
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

    fn params() -> PrivacyParams {
        PrivacyParams::from_e_epsilon(2.0, 0.5)
    }

    #[test]
    fn deterministic_given_seed() {
        let input = input_log();
        let s = LdpSanitizer::new();
        let a = s.sanitize(&input, params(), 11).unwrap();
        let b = s.sanitize(&input, params(), 11).unwrap();
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.output.n_triplets(), b.output.n_triplets());
        let c = s.sanitize(&input, params(), 12).unwrap();
        assert_ne!(a.counts, c.counts, "a different seed flips different bits");
    }

    #[test]
    fn every_user_reports_every_pair_bit() {
        // each user emits one bernoulli per vocabulary pair, so any
        // released count is at most the number of reporting users
        let input = input_log();
        let r = LdpSanitizer::new().sanitize(&input, params(), 11).unwrap();
        let users = r.reference.users_with_logs().count() as u64;
        assert!(r.counts.iter().all(|&c| c <= users));
        assert_eq!(r.counts.len(), r.reference.n_pairs());
    }

    #[test]
    fn ledger_debits_pure_epsilon_once() {
        let spent = LdpSanitizer::new().expenditure(params());
        assert_eq!(spent.len(), 1);
        assert!((spent[0].epsilon - params().epsilon()).abs() < 1e-12);
        assert_eq!(spent[0].delta, 0.0, "pure ε-LDP spends no δ");
        let r = LdpSanitizer::new().sanitize(&input_log(), params(), 11).unwrap();
        assert_eq!(r.solver, SessionStats::default(), "no LP touched");
    }

    #[test]
    fn user_seed_is_stable_and_name_sensitive() {
        assert_eq!(ldp_user_seed(5, "alice"), ldp_user_seed(5, "alice"));
        assert_ne!(ldp_user_seed(5, "alice"), ldp_user_seed(5, "bob"));
        assert_ne!(ldp_user_seed(5, "alice"), ldp_user_seed(6, "alice"));
    }

    #[test]
    fn output_keeps_real_user_attributions() {
        let input = input_log();
        let r = LdpSanitizer::new().sanitize(&input, params(), 11).unwrap();
        // every output user exists in the input vocabulary
        for rec in r.output.records() {
            let name = r.output.users().resolve(rec.user.0);
            assert!(r.reference.users().get(name).is_some(), "unknown user {name:?}");
        }
    }
}
