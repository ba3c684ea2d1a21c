//! Golden-output gate: `repro all --scale tiny` must reproduce the
//! checked-in fixture exactly (modulo wall-clock durations, which the
//! normalizer masks — see `dpsan_eval::golden`). Mechanism or solver
//! refactors that change any released count, λ value, or metric will
//! show up as a diff here instead of slipping through silently.
//!
//! The same run also pins the solver's pivot fingerprint: the summed
//! solve, iteration and refactorization counts. Tiny-scale bytes alone
//! cannot catch pivot drift — a kernel change can take a different
//! pivot path to the same floored counts — so a change that moves the
//! counts fails here even when the fixture still matches. Update the
//! `PIVOT_FINGERPRINT` literal by hand, with a note on why the pivot
//! path moved.
//!
//! To intentionally refresh the fixture after a reviewed change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --release --test golden
//! ```

use dpsan_core::SessionStats;
use dpsan_eval::golden::normalize;
use dpsan_eval::{run_experiments, Ctx, RunOptions, Scale, EXPERIMENTS};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/repro_tiny.txt");

/// Summed solver counters of `repro all --scale tiny`.
const PIVOT_FINGERPRINT: SessionStats = SessionStats {
    solves: 43,
    iterations: 3322,
    refactorizations: 71,
    capped: 0,
    warm_starts: 0,
    degenerate_fallbacks: 0,
};

#[test]
fn repro_tiny_matches_golden_fixture() {
    // jobs=2 exercises the parallel prefetch path; output is
    // jobs-independent by design (see dpsan_eval::context)
    let ctx = Ctx::new(Scale::Tiny).with_jobs(2);
    let names: Vec<String> = EXPERIMENTS.iter().map(|(id, _)| id.to_string()).collect();
    let mut buf = Vec::new();
    run_experiments(&names, &ctx, &mut buf, &RunOptions::default()).expect("tiny repro runs");
    let got = normalize(&String::from_utf8(buf).expect("experiment output is UTF-8"));

    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        std::fs::write(FIXTURE, &got).expect("fixture written");
        eprintln!("golden fixture updated: {FIXTURE}");
        return;
    }

    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture exists (run with GOLDEN_UPDATE=1 to create it)");
    if got != want {
        // line-level report keeps the failure actionable without a
        // multi-kilobyte assert message
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "first divergence at fixture line {}", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            want.lines().count(),
            "outputs agree line-by-line but differ in length"
        );
        unreachable!("got != want but no line difference found");
    }
    assert_eq!(ctx.solve_stats(), PIVOT_FINGERPRINT, "pivot fingerprint moved");
}
