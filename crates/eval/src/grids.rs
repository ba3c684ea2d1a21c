//! The parameter grids of Section 6.

use dpsan_dp::params::PrivacyParams;

/// `e^ε` grid of Table 4 (and Figs. 3–4 minus the degenerate 1.001).
pub const E_EPS_GRID: [f64; 7] = [1.001, 1.01, 1.1, 1.4, 1.7, 2.0, 2.3];

/// δ grid of Table 4.
pub const DELTA_GRID: [f64; 7] = [1e-4, 1e-3, 1e-2, 1e-1, 0.2, 0.5, 0.8];

/// `e^ε` sweep of Figures 3(a)/(b) and 4.
pub const E_EPS_SWEEP: [f64; 6] = [1.01, 1.1, 1.4, 1.7, 2.0, 2.3];

/// δ curves of Figures 3(a)/(b) and 4.
pub const DELTA_CURVES: [f64; 4] = [0.01, 0.1, 0.5, 0.8];

/// Minimum-support grid of Tables 5–6 / Figure 3(c).
pub const SUPPORT_GRID: [f64; 5] =
    [1.0 / 1000.0, 1.0 / 750.0, 1.0 / 500.0, 1.0 / 250.0, 1.0 / 100.0];

/// The paper's reference cell for Tables 5–6 and Figure 6.
pub fn reference_params() -> PrivacyParams {
    PrivacyParams::from_e_epsilon(2.0, 0.5)
}

/// Output-size fractions of λ used by Tables 5–6. The paper swept
/// `|O| ∈ {3000..8000}` over `λ = 13088` (23–61 %); at laptop scales the
/// privacy budget only binds near λ, so the sweep is shifted upward to
/// keep the distance-vs-|O| trend visible (Tables 5–6 in
/// [`crate::experiments::table56`]).
pub const OUTPUT_FRACTIONS: [f64; 6] = [0.3, 0.45, 0.6, 0.75, 0.9, 0.98];

/// The Figure 3(a)/(b) fixed output size as a fraction of λ at the
/// reference cell (the paper used `3000 / 13088 ≈ 0.23`; see
/// [`OUTPUT_FRACTIONS`] for why this sits higher here).
pub const FIG3_OUTPUT_FRACTION: f64 = 0.6;

/// The Figure 3 fixed minimum support (the paper's `1/500`).
pub const FIG3_SUPPORT: f64 = 1.0 / 500.0;

/// Figure 6 output-size fractions (the paper compared a smaller and a
/// larger output, 4000 vs 6000 of 13088).
pub const FIG6_OUTPUT_FRACTIONS: [f64; 2] = [0.45, 0.9];

/// Figure 5 / Table 7 reference cells.
pub fn fig5_params() -> PrivacyParams {
    PrivacyParams::from_e_epsilon(1.7, 1e-3)
}

/// Map a paper support threshold to this dataset.
///
/// On the paper's preprocessed AOL subset the grid values marked a
/// specific *fraction of pairs* frequent (s = 1/100 → 15 of 6043 pairs,
/// …, 1/1000 → 127). Reusing the raw thresholds at other dataset sizes
/// marks wildly different fractions (at a 1k-click log, s = 1/1000
/// marks nearly everything frequent), so experiments translate each
/// paper `s` into the support of the pair at the equivalent frequency
/// rank of *this* dataset.
pub fn scaled_support(pre: &dpsan_searchlog::SearchLog, paper_s: f64) -> f64 {
    // anchors: (paper s, fraction of the 6043 pairs that were frequent)
    const ANCHORS: [(f64, f64); 5] = [
        (1.0 / 1000.0, 127.0 / 6043.0),
        (1.0 / 750.0, 105.0 / 6043.0),
        (1.0 / 500.0, 70.0 / 6043.0),
        (1.0 / 250.0, 34.0 / 6043.0),
        (1.0 / 100.0, 15.0 / 6043.0),
    ];
    // piecewise-linear interpolation of the fraction in 1/s space
    let inv = 1.0 / paper_s;
    let frac = if inv >= 1.0 / ANCHORS[0].0 {
        ANCHORS[0].1
    } else if inv <= 1.0 / ANCHORS[4].0 {
        ANCHORS[4].1
    } else {
        let mut f = ANCHORS[0].1;
        for w in ANCHORS.windows(2) {
            let (s0, f0) = w[0];
            let (s1, f1) = w[1];
            let (i0, i1) = (1.0 / s0, 1.0 / s1);
            if inv <= i0 && inv >= i1 {
                let t = (inv - i1) / (i0 - i1);
                f = f1 + t * (f0 - f1);
                break;
            }
        }
        f
    };

    let n = pre.n_pairs();
    if n == 0 || pre.size() == 0 {
        return paper_s;
    }
    let k = ((frac * n as f64).round() as usize).clamp(1, n);
    let mut counts: Vec<u64> = pre.pairs().map(|pe| pe.total).collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    counts[k - 1] as f64 / pre.size() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_sorted_ascending() {
        assert!(E_EPS_GRID.windows(2).all(|w| w[0] < w[1]));
        assert!(DELTA_GRID.windows(2).all(|w| w[0] < w[1]));
        assert!(SUPPORT_GRID.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn reference_cell_matches_paper() {
        let p = reference_params();
        assert!((p.e_epsilon() - 2.0).abs() < 1e-12);
        assert!((p.delta() - 0.5).abs() < 1e-12);
    }
}
