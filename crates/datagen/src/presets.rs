//! Calibrated generator presets.
//!
//! `aol_paper` targets the proportions of the paper's Table 3
//! experiment dataset (2,500 users, ≈95 click events per user; most
//! pairs unique and removed by preprocessing, a minority of the click
//! volume surviving; nearly all users keeping at least one shared
//! pair). The smaller presets keep the same shape at sizes suitable
//! for unit tests and CI experiments. The largest calibration residual
//! vs the real AOL subset: at paper scale, preprocessing keeps 17,571
//! pairs where the paper's dataset kept 6,043 (`repro table3 --scale
//! paper` prints the preprocessed sizes).

use crate::config::AolLikeConfig;

/// Tens of users — for unit tests that need milliseconds.
pub fn aol_tiny() -> AolLikeConfig {
    AolLikeConfig {
        n_users: 60,
        n_queries: 2_500,
        query_zipf: 0.8,
        urls_per_query: 8,
        url_zipf: 0.9,
        mean_events_per_user: 30.0,
        activity_sigma: 0.8,
        revisit_p: 0.3,
        seed: 0xa01_001,
    }
}

/// Hundreds of users — the default scale of the `repro` CLI.
pub fn aol_small() -> AolLikeConfig {
    AolLikeConfig {
        n_users: 400,
        n_queries: 25_000,
        query_zipf: 0.8,
        urls_per_query: 16,
        url_zipf: 0.8,
        mean_events_per_user: 60.0,
        activity_sigma: 0.9,
        revisit_p: 0.3,
        seed: 0xa01_002,
    }
}

/// A thousand users — a mid-scale sanity point.
pub fn aol_medium() -> AolLikeConfig {
    AolLikeConfig {
        n_users: 1_000,
        n_queries: 70_000,
        query_zipf: 0.8,
        urls_per_query: 16,
        url_zipf: 0.8,
        mean_events_per_user: 80.0,
        activity_sigma: 1.0,
        revisit_p: 0.3,
        seed: 0xa01_003,
    }
}

/// The paper-scale preset: 2,500 users as in the Table 3 experiment
/// dataset.
pub fn aol_paper() -> AolLikeConfig {
    AolLikeConfig {
        n_users: 2_500,
        n_queries: 200_000,
        query_zipf: 0.8,
        urls_per_query: 16,
        url_zipf: 0.8,
        mean_events_per_user: 95.0,
        activity_sigma: 1.0,
        revisit_p: 0.3,
        seed: 0xa01_2500,
    }
}

/// `base` rescaled to `users` users. The query vocabulary scales by the
/// same factor (rounded up, at least 1), so pair-sharing frequencies
/// keep the preset's Table-3-like shape; every other parameter, the
/// seed included, is kept. `genlog --users` scales presets this way.
pub fn with_users(base: AolLikeConfig, users: usize) -> AolLikeConfig {
    let ratio = users as f64 / base.n_users as f64;
    AolLikeConfig {
        n_users: users,
        n_queries: ((base.n_queries as f64 * ratio).ceil() as usize).max(1),
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate;
    use dpsan_searchlog::{preprocess, LogStats};

    #[test]
    fn presets_validate() {
        aol_tiny().validate();
        aol_small().validate();
        aol_medium().validate();
        aol_paper().validate();
    }

    #[test]
    fn small_preset_has_aol_like_shape() {
        let log = generate(&aol_small());
        let raw = LogStats::of(&log);
        let (pre, _) = preprocess(&log);
        let kept = LogStats::of(&pre);
        // Table 3 shape: most pairs unique; a minority of the volume
        // survives; most users still own at least one constraint row
        assert!(
            (kept.pairs as f64) < 0.25 * raw.pairs as f64,
            "most pairs must be unique ({}/{})",
            kept.pairs,
            raw.pairs
        );
        let volume_share = kept.total_tuples as f64 / raw.total_tuples as f64;
        assert!(
            (0.05..0.55).contains(&volume_share),
            "survivor volume share {volume_share} out of the AOL-like range"
        );
        assert!(
            kept.user_logs as f64 > 0.6 * raw.user_logs as f64,
            "most users keep a shared pair ({} of {})",
            kept.user_logs,
            raw.user_logs
        );
    }

    #[test]
    fn tiny_preset_usable_for_unit_tests() {
        let log = generate(&aol_tiny());
        let (pre, _) = preprocess(&log);
        assert!(pre.n_pairs() >= 20, "enough shared pairs for UMP tests ({})", pre.n_pairs());
        assert!(pre.n_user_logs() >= 20, "enough constraint rows ({})", pre.n_user_logs());
    }

    #[test]
    fn presets_scale_monotonically() {
        let tiny = generate(&aol_tiny());
        let small = generate(&aol_small());
        assert!(small.size() > tiny.size());
        assert!(small.n_pairs() > tiny.n_pairs());
    }
}
