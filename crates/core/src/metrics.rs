//! Utility metrics of the evaluation (Section 6).
//!
//! * precision / recall of frequent pairs (Eq. 9),
//! * sum and average of frequent-pair support distances (Eq. 5),
//! * retained pair diversity (Fig. 4 / Table 7),
//! * the `DiffRatio` triplet histogram (Eq. 10 / Fig. 6).

use dpsan_searchlog::{PairId, SearchLog};

/// Precision/recall of the frequent pairs between input and output
/// (Eq. 9), at a shared minimum support `s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// `|S0 ∩ S| / |S|` (1.0 when the output has no frequent pairs).
    pub precision: f64,
    /// `|S0 ∩ S| / |S0|` (1.0 when the input has no frequent pairs).
    pub recall: f64,
    /// Number of frequent pairs in the input (`|S0|`).
    pub input_frequent: usize,
    /// Number of frequent pairs in the output (`|S|`).
    pub output_frequent: usize,
}

/// Compute Eq. 9 for output counts expressed in the input's pair space.
/// The output size `|O|` is the realized `Σ x_ij`.
pub fn precision_recall(
    input: &SearchLog,
    output_counts: &[u64],
    min_support: f64,
) -> PrecisionRecall {
    let f: Vec<f64> = output_counts.iter().map(|&c| c as f64).collect();
    precision_recall_f(input, &f, min_support)
}

/// [`precision_recall`] over fractional (LP-optimal) counts. Utility
/// measurement at small scales uses the pre-floor counts because
/// flooring quantizes tiny per-pair optima to zero (negligible at the
/// paper's scale, dominant at toy scales); the F-UMP experiments
/// (Tables 5–6, Figure 3) score `FumpSolution::lp_counts` this way.
pub fn precision_recall_f(
    input: &SearchLog,
    output_counts: &[f64],
    min_support: f64,
) -> PrecisionRecall {
    assert_eq!(output_counts.len(), input.n_pairs(), "counts must cover every input pair");
    let size_d = input.size() as f64;
    let size_o: f64 = output_counts.iter().sum();

    let mut s0 = 0usize;
    let mut s = 0usize;
    let mut both = 0usize;
    for (pi, &x) in output_counts.iter().enumerate() {
        let c = input.pair_total(PairId::from_index(pi));
        let in_freq = size_d > 0.0 && c as f64 / size_d >= min_support;
        let out_freq = size_o > 0.0 && x / size_o >= min_support;
        s0 += usize::from(in_freq);
        s += usize::from(out_freq);
        both += usize::from(in_freq && out_freq);
    }
    PrecisionRecall {
        precision: if s == 0 { 1.0 } else { both as f64 / s as f64 },
        recall: if s0 == 0 { 1.0 } else { both as f64 / s0 as f64 },
        input_frequent: s0,
        output_frequent: s,
    }
}

/// Sum of support distances over the input-frequent pairs (Eq. 5),
/// evaluated with an explicit output size (the paper's specified `|O|`,
/// or the realized total — caller's choice).
pub fn support_distance_sum(
    input: &SearchLog,
    output_counts: &[u64],
    min_support: f64,
    output_size: u64,
) -> f64 {
    let f: Vec<f64> = output_counts.iter().map(|&c| c as f64).collect();
    support_distance_sum_f(input, &f, min_support, output_size as f64)
}

/// [`support_distance_sum`] over fractional (LP-optimal) counts.
pub fn support_distance_sum_f(
    input: &SearchLog,
    output_counts: &[f64],
    min_support: f64,
    output_size: f64,
) -> f64 {
    assert_eq!(output_counts.len(), input.n_pairs(), "counts must cover every input pair");
    let size_d = input.size() as f64;
    if size_d == 0.0 || output_size <= 0.0 {
        return 0.0;
    }
    let mut sum = 0.0;
    for (pi, &x) in output_counts.iter().enumerate() {
        let c = input.pair_total(PairId::from_index(pi)) as f64;
        if c / size_d >= min_support {
            sum += (x / output_size - c / size_d).abs();
        }
    }
    sum
}

/// Average support distance over the input-frequent pairs (Fig. 3(c)
/// uses this when the frequent set varies with `s`). Returns 0 when no
/// pair is frequent.
pub fn support_distance_avg(
    input: &SearchLog,
    output_counts: &[u64],
    min_support: f64,
    output_size: u64,
) -> f64 {
    let f: Vec<f64> = output_counts.iter().map(|&c| c as f64).collect();
    support_distance_avg_f(input, &f, min_support, output_size as f64)
}

/// [`support_distance_avg`] over fractional (LP-optimal) counts.
pub fn support_distance_avg_f(
    input: &SearchLog,
    output_counts: &[f64],
    min_support: f64,
    output_size: f64,
) -> f64 {
    let size_d = input.size() as f64;
    if size_d == 0.0 {
        return 0.0;
    }
    let n_frequent = (0..input.n_pairs())
        .filter(|&pi| input.pair_total(PairId::from_index(pi)) as f64 / size_d >= min_support)
        .count();
    if n_frequent == 0 {
        return 0.0;
    }
    support_distance_sum_f(input, output_counts, min_support, output_size) / n_frequent as f64
}

/// Fraction of distinct pairs retained (`Σ 1{x_ij > 0} / n_pairs`),
/// the diversity measure of Fig. 4 / Table 7.
pub fn diversity_retained(output_counts: &[u64]) -> f64 {
    if output_counts.is_empty() {
        return 0.0;
    }
    output_counts.iter().filter(|&&c| c > 0).count() as f64 / output_counts.len() as f64
}

/// The `DiffRatio` histogram of Eq. 10 / Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRatioHistogram {
    /// Bin width in ratio units (Fig. 6 uses 0.10 = 10 %).
    pub bin_width: f64,
    /// `bins[b]` counts triplets with `DiffRatio ∈ [b·w, (b+1)·w)`;
    /// the final element is the overflow bin (`≥ bins.len()·w`... i.e.
    /// every ratio above the covered range, including > 100 %).
    pub bins: Vec<u64>,
    /// Number of triplets measured.
    pub total: u64,
}

impl DiffRatioHistogram {
    /// Fraction of measured triplets with `DiffRatio` below `threshold`.
    pub fn fraction_below(&self, threshold: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let full_bins = (threshold / self.bin_width).floor() as usize;
        let covered: u64 = self.bins.iter().take(full_bins.min(self.bins.len())).sum();
        covered as f64 / self.total as f64
    }

    /// Merge counts of another histogram (same shape) into this one —
    /// used to average over repeated sampled outputs.
    pub fn merge(&mut self, other: &DiffRatioHistogram) {
        assert_eq!(self.bins.len(), other.bins.len(), "histogram shapes differ");
        assert_eq!(self.bin_width, other.bin_width, "histogram widths differ");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// Compute Eq. 10 for one sampled output: for every input triplet
/// `(q_i, u_j, s_k)` with `c_ijk > 0`,
/// `DiffRatio = |(x_ijk/|O| − c_ijk/|D|) / (c_ijk/|D|)|`,
/// binned at `bin_width` into `n_bins` regular bins plus one overflow
/// bin. `|O|` is the realized output size.
pub fn diff_ratio_histogram(
    input: &SearchLog,
    output: &SearchLog,
    bin_width: f64,
    n_bins: usize,
) -> DiffRatioHistogram {
    assert!(bin_width > 0.0 && n_bins > 0, "need positive bins");
    let size_d = input.size() as f64;
    let size_o = output.size() as f64;
    let mut bins = vec![0u64; n_bins + 1];
    let mut total = 0u64;
    for pi in 0..input.n_pairs() {
        let p = PairId::from_index(pi);
        let (q, u) = input.pair_key(p);
        let out_pair = output.pair_id(q, u);
        for t in input.holders(p) {
            let c_share = t.count as f64 / size_d;
            let x_ijk = out_pair.map_or(0, |op| output.triplet_count(op, t.user));
            let x_share = if size_o > 0.0 { x_ijk as f64 / size_o } else { 0.0 };
            let ratio = ((x_share - c_share) / c_share).abs();
            let bin = ((ratio / bin_width).floor() as usize).min(n_bins);
            bins[bin] += 1;
            total += 1;
        }
    }
    DiffRatioHistogram { bin_width, bins, total }
}

/// The shared cross-mechanism utility score of `repro compare`: every
/// [`Sanitizer`](crate::mechanism::Sanitizer) impl is measured on the
/// same released-counts frame (the preprocessed input's pair space),
/// so LP sampling, noisy thresholds, and local randomizers become
/// directly comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MechanismScore {
    /// Frequent-pair precision at the shared support threshold.
    pub precision: f64,
    /// Frequent-pair recall at the shared support threshold.
    pub recall: f64,
    /// Released volume `Σ x_ij / |D|` (may exceed 1 for mechanisms
    /// whose released counts are noisy rather than subsampled).
    pub retained_volume: f64,
    /// Query-frequency KL divergence (input ‖ release); see
    /// [`query_frequency_kl`].
    pub query_kl: f64,
}

/// Score released counts on the shared utility metrics at a minimum
/// support `s`. `counts` must be in the pair space of `reference`
/// (i.e. [`Release::counts`](crate::mechanism::Release::counts)
/// against [`Release::reference`](crate::mechanism::Release::reference)).
pub fn mechanism_score(reference: &SearchLog, counts: &[u64], min_support: f64) -> MechanismScore {
    let pr = precision_recall(reference, counts, min_support);
    let retained_volume = if reference.size() == 0 {
        0.0
    } else {
        counts.iter().sum::<u64>() as f64 / reference.size() as f64
    };
    MechanismScore {
        precision: pr.precision,
        recall: pr.recall,
        retained_volume,
        query_kl: query_frequency_kl(reference, counts),
    }
}

/// Distributional fidelity of a release: KL divergence
/// `KL(P ‖ Q)` between the input's query-frequency distribution `P`
/// and the release's `Q`, both obtained by marginalizing pair counts
/// over queries. The released side is add-α smoothed (α = ½ per query
/// active in the input) so queries a mechanism suppressed entirely
/// contribute a large-but-finite penalty. Zero iff the release
/// reproduces the input's query mix exactly.
pub fn query_frequency_kl(reference: &SearchLog, counts: &[u64]) -> f64 {
    assert_eq!(counts.len(), reference.n_pairs(), "counts must cover the reference pair space");
    let nq = reference.queries().len();
    let mut p = vec![0.0f64; nq];
    let mut q = vec![0.0f64; nq];
    for pe in reference.pairs() {
        let (qid, _) = reference.pair_key(pe.pair);
        p[qid.index()] += pe.total as f64;
        q[qid.index()] += counts[pe.pair.index()] as f64;
    }
    let p_sum: f64 = p.iter().sum();
    if p_sum == 0.0 {
        return 0.0;
    }
    const ALPHA: f64 = 0.5;
    let active = p.iter().filter(|&&v| v > 0.0).count() as f64;
    let q_sum: f64 = q.iter().sum::<f64>() + ALPHA * active;
    let mut kl = 0.0;
    for i in 0..nq {
        if p[i] > 0.0 {
            let pi = p[i] / p_sum;
            let qi = (q[i] + ALPHA) / q_sum;
            kl += pi * (pi / qi).ln();
        }
    }
    kl.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpsan_searchlog::{preprocess, SearchLogBuilder};

    fn input_log() -> SearchLog {
        let mut b = SearchLogBuilder::new();
        // pair counts: 40, 30, 20, 10 -> size 100
        let spec: [(&str, &[(&str, u64)]); 4] = [
            ("a", &[("u1", 25), ("u2", 15)]),
            ("b", &[("u1", 15), ("u3", 15)]),
            ("c", &[("u2", 10), ("u3", 10)]),
            ("d", &[("u1", 5), ("u2", 5)]),
        ];
        for (q, holders) in spec {
            for &(user, c) in holders {
                b.add(user, q, &format!("{q}.com"), c).unwrap();
            }
        }
        let (log, _) = preprocess(&b.build());
        log
    }

    #[test]
    fn perfect_output_has_perfect_metrics() {
        let log = input_log();
        let counts: Vec<u64> =
            (0..log.n_pairs()).map(|i| log.pair_total(PairId::from_index(i))).collect();
        let pr = precision_recall(&log, &counts, 0.15);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
        assert_eq!(pr.input_frequent, 3); // 40, 30, 20 of 100
        let d = support_distance_sum(&log, &counts, 0.15, counts.iter().sum());
        assert!(d.abs() < 1e-12);
        assert_eq!(diversity_retained(&counts), 1.0);
    }

    #[test]
    fn recall_drops_when_frequent_pair_lost() {
        let log = input_log();
        // kill the most frequent pair entirely
        let mut counts: Vec<u64> =
            (0..log.n_pairs()).map(|i| log.pair_total(PairId::from_index(i))).collect();
        let a = (0..log.n_pairs()).find(|&i| log.pair_total(PairId::from_index(i)) == 40).unwrap();
        counts[a] = 0;
        let pr = precision_recall(&log, &counts, 0.15);
        assert!(pr.recall < 1.0);
        assert_eq!(pr.input_frequent, 3);
    }

    #[test]
    fn precision_is_one_for_proportional_outputs() {
        // scaled-down proportional output keeps supports equal
        let log = input_log();
        let counts: Vec<u64> =
            (0..log.n_pairs()).map(|i| log.pair_total(PairId::from_index(i)) / 10).collect();
        let pr = precision_recall(&log, &counts, 0.15);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn support_distance_measures_deviation() {
        let log = input_log();
        // all-output mass on the "a" pair
        let mut counts = vec![0u64; log.n_pairs()];
        let a = (0..log.n_pairs()).find(|&i| log.pair_total(PairId::from_index(i)) == 40).unwrap();
        counts[a] = 50;
        // distances at s = 0.15: a: |1 - 0.4| = 0.6, b: 0.3, c: 0.2
        let d = support_distance_sum(&log, &counts, 0.15, 50);
        assert!((d - 1.1).abs() < 1e-12, "{d}");
        let avg = support_distance_avg(&log, &counts, 0.15, 50);
        assert!((avg - 1.1 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn diversity_counts_nonzero_pairs() {
        assert_eq!(diversity_retained(&[1, 0, 3, 0]), 0.5);
        assert_eq!(diversity_retained(&[]), 0.0);
    }

    #[test]
    fn diff_ratio_zero_for_proportional_sampling() {
        let log = input_log();
        // output = input exactly: every triplet share is preserved
        let hist = diff_ratio_histogram(&log, &log, 0.1, 10);
        assert_eq!(hist.total, 8);
        assert_eq!(hist.bins[0], 8, "all ratios are zero");
        assert_eq!(hist.fraction_below(0.4), 1.0);
    }

    #[test]
    fn diff_ratio_overflow_bin_catches_missing_triplets() {
        let log = input_log();
        let empty = SearchLogBuilder::with_vocabulary_of(&log).build();
        let hist = diff_ratio_histogram(&log, &empty, 0.1, 10);
        // x_ijk = 0 -> ratio = 1.0 -> lands at bin 10 (overflow edge)
        assert_eq!(hist.bins[10], 8);
        assert_eq!(hist.fraction_below(1.0), 0.0);
    }

    #[test]
    fn histograms_merge() {
        let log = input_log();
        let mut h1 = diff_ratio_histogram(&log, &log, 0.1, 10);
        let h2 = diff_ratio_histogram(&log, &log, 0.1, 10);
        h1.merge(&h2);
        assert_eq!(h1.total, 16);
        assert_eq!(h1.bins[0], 16);
    }

    #[test]
    fn empty_output_precision_is_one() {
        let log = input_log();
        let pr = precision_recall(&log, &vec![0; log.n_pairs()], 0.15);
        assert_eq!(pr.precision, 1.0, "no output-frequent pairs -> vacuous precision");
        assert_eq!(pr.recall, 0.0);
    }

    #[test]
    fn query_kl_is_zero_for_identity_release() {
        let log = input_log();
        let counts: Vec<u64> = log.pairs().map(|pe| pe.total).collect();
        let kl = query_frequency_kl(&log, &counts);
        assert!((0.0..0.05).contains(&kl), "identity release has near-zero KL, got {kl}");
    }

    #[test]
    fn query_kl_grows_when_queries_are_suppressed() {
        let log = input_log();
        let full: Vec<u64> = log.pairs().map(|pe| pe.total).collect();
        let mut head_only = full.clone();
        // suppress everything but the first pair's query
        for c in head_only.iter_mut().skip(1) {
            *c = 0;
        }
        assert!(
            query_frequency_kl(&log, &head_only) > query_frequency_kl(&log, &full),
            "suppressing query mass must increase the divergence"
        );
    }

    #[test]
    fn mechanism_score_bundles_shared_metrics() {
        let log = input_log();
        let counts: Vec<u64> = log.pairs().map(|pe| pe.total).collect();
        let score = mechanism_score(&log, &counts, 0.15);
        assert!((score.retained_volume - 1.0).abs() < 1e-12, "full release retains everything");
        assert_eq!(score.recall, 1.0);
        assert_eq!(score.precision, 1.0);
        let empty = mechanism_score(&log, &vec![0; log.n_pairs()], 0.15);
        assert_eq!(empty.retained_volume, 0.0);
        assert!(empty.query_kl > score.query_kl);
    }
}
