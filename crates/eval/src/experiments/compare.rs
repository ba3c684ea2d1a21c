//! Mechanism comparison: every [`Sanitizer`] impl scored on shared
//! utility metrics across the `(ε, δ)` grid.
//!
//! Not a table of the paper — the paper compares against ZEALOUS only
//! qualitatively (Section 7) — but the experiment its mechanism API
//! makes possible: O-UMP and F-UMP sampling, ZEALOUS noisy-threshold
//! release, and local randomized response all produce released counts
//! in the same preprocessed pair space, so frequent-pair
//! precision/recall, retained volume, and query-frequency KL are
//! directly comparable ([`dpsan_core::metrics::mechanism_score`]).
//!
//! The sweep runs serially: each mechanism release is deterministic in
//! `(log, params, seed)` (every LP solve is cold), so output is
//! byte-identical for every `--jobs` value. Per-release solver counters are merged into
//! the context aggregate — `repro compare --stats` reports LP activity
//! for the UMP rows and true zeros for the non-LP mechanisms.

use std::error::Error;
use std::io::Write;

use dpsan_core::mechanism::{
    LdpSanitizer, Sanitizer, UmpSanitizer, UtilityObjective, ZealousSanitizer,
};
use dpsan_core::metrics::{mechanism_score, MechanismScore};
use dpsan_dp::params::PrivacyParams;

use crate::context::Ctx;
use crate::experiments::clamped_output;
use crate::grids::{scaled_support, E_EPS_SWEEP, FIG3_OUTPUT_FRACTION, FIG3_SUPPORT};
use crate::table::Table;

/// The δ columns of the comparison grid (a subset of
/// [`crate::grids::DELTA_CURVES`]: one δ-bound regime, one ε-bound).
const COMPARE_DELTAS: [f64; 2] = [0.1, 0.5];

/// Base RNG seed; each grid cell perturbs it by its index so the
/// mechanisms' noise draws are independent across cells yet fully
/// deterministic.
const SEED: u64 = 0xd95a_11ce;

/// Regenerate the mechanism-comparison table.
pub fn run(ctx: &Ctx, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let grid: Vec<PrivacyParams> = COMPARE_DELTAS
        .iter()
        .flat_map(|&d| E_EPS_SWEEP.iter().map(move |&e| PrivacyParams::from_e_epsilon(e, d)))
        .collect();
    ctx.prefetch_oump(&grid)?; // λ for the F-UMP output sizes

    let s = scaled_support(&ctx.pre, FIG3_SUPPORT);
    writeln!(out, "Comparison: sanitization mechanisms on shared utility metrics")?;
    writeln!(out)?;
    writeln!(
        out,
        "mechanisms: oump/fump (this paper), zealous (Götz et al.), ldp-rr (local model)"
    )?;
    writeln!(
        out,
        "metrics at support s = {s:.5}: frequent-pair recall/precision, \
         released volume Σx/|D|, query-frequency KL(input ‖ release)"
    )?;
    writeln!(out)?;

    let mut t = Table::new(
        ["mechanism", "e^ε", "δ", "recall", "precision", "volume", "query-KL"]
            .map(str::to_string)
            .to_vec(),
    );
    // one persistent O-UMP sanitizer: its session counts every cell's
    // solve
    let oump = UmpSanitizer::new(UtilityObjective::OutputSize);
    let mut cell = 0u64;
    for &delta in &COMPARE_DELTAS {
        for &e_eps in &E_EPS_SWEEP {
            let params = PrivacyParams::from_e_epsilon(e_eps, delta);
            let lambda = ctx.lambda(params)?;
            let target = ((lambda as f64 * FIG3_OUTPUT_FRACTION).round() as u64).max(1);
            let fump = UmpSanitizer::new(UtilityObjective::FrequentPairs {
                min_support: s,
                output_size: clamped_output(lambda.max(1), target),
            });
            let zealous = ZealousSanitizer::new();
            let ldp = LdpSanitizer::new();
            let mechanisms: [&dyn Sanitizer; 4] = [&oump, &fump, &zealous, &ldp];
            for mech in mechanisms {
                if mech.info().uses_lp && lambda == 0 {
                    // the cell's budget cannot host any LP output
                    t.row(infeasible_row(mech.info().id, e_eps, delta));
                    continue;
                }
                let release = mech.sanitize(&ctx.raw, params, SEED ^ cell)?;
                ctx.record_solve_stats(&release.solver);
                let score = mechanism_score(&release.reference, &release.counts, s);
                t.row(score_row(mech.info().id, e_eps, delta, &score));
            }
            cell += 1;
        }
    }
    writeln!(out, "{t}")?;
    writeln!(
        out,
        "volume > 1 marks additive-noise releases (counts are noisy, not subsampled); \
         ldp-rr floors at the randomized-response noise plateau"
    )?;
    Ok(())
}

fn score_row(id: &str, e_eps: f64, delta: f64, score: &MechanismScore) -> Vec<String> {
    vec![
        id.to_string(),
        format!("{e_eps}"),
        format!("{delta}"),
        format!("{:.3}", score.recall),
        format!("{:.3}", score.precision),
        format!("{:.3}", score.retained_volume),
        format!("{:.3}", score.query_kl),
    ]
}

fn infeasible_row(id: &str, e_eps: f64, delta: f64) -> Vec<String> {
    let mut row = vec![id.to_string(), format!("{e_eps}"), format!("{delta}")];
    row.extend(["-", "-", "-", "-"].map(str::to_string));
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;
    use crate::runner::run_experiment;

    #[test]
    fn renders_all_mechanisms() {
        let ctx = Ctx::new(Scale::Tiny);
        let mut buf = Vec::new();
        run(&ctx, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        for id in ["oump", "fump", "zealous", "ldp-rr"] {
            assert!(s.contains(id), "{id} row missing:\n{s}");
        }
    }

    #[test]
    fn deterministic_across_runs_and_contexts() {
        let render = || {
            let ctx = Ctx::new(Scale::Tiny).with_jobs(2);
            let mut buf = Vec::new();
            run_experiment("compare", &ctx, &mut buf).unwrap();
            buf
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn solver_stats_flow_into_context() {
        let ctx = Ctx::new(Scale::Tiny);
        ctx.take_solve_stats();
        let mut buf = Vec::new();
        run(&ctx, &mut buf).unwrap();
        let stats = ctx.solve_stats();
        assert!(stats.solves > 0, "UMP rows must feed the aggregate");
    }
}
