//! Figure 3: F-UMP performance.
//!
//! * (a) Recall vs `e^ε` for four δ curves,
//! * (b) sum of frequent-pair support distances vs `e^ε`,
//! * (c) average support distance vs minimum support for several `|O|`.

use std::error::Error;
use std::io::Write;

use dpsan_core::metrics::{precision_recall_f, support_distance_avg_f, support_distance_sum_f};
use dpsan_dp::params::PrivacyParams;

use crate::context::Ctx;
use crate::experiments::{
    fump_cell, prefetch_fump_rows, prefetch_reference_grid, reference_outputs,
};
use crate::grids::{
    reference_params, scaled_support, DELTA_CURVES, E_EPS_SWEEP, FIG3_OUTPUT_FRACTION,
    FIG3_SUPPORT, SUPPORT_GRID,
};
use crate::table::{f4, Table};

fn fig3_target_output(ctx: &Ctx) -> Result<u64, Box<dyn Error>> {
    let lambda_ref = ctx.lambda(reference_params())?;
    Ok(((lambda_ref as f64 * FIG3_OUTPUT_FRACTION).round() as u64).max(1))
}

/// Prefetch the Figure 3(a)/(b) sweep: one shard per δ-curve, ε
/// ascending.
fn prefetch_sweep(ctx: &Ctx, s_eff: f64, target: u64) -> Result<(), Box<dyn Error>> {
    let grid: Vec<PrivacyParams> = DELTA_CURVES
        .iter()
        .flat_map(|&d| E_EPS_SWEEP.iter().map(move |&e| PrivacyParams::from_e_epsilon(e, d)))
        .collect();
    ctx.prefetch_oump(&grid)?;
    let rows: Vec<(f64, Vec<(PrivacyParams, u64)>)> = DELTA_CURVES
        .iter()
        .map(|&d| {
            let cells = E_EPS_SWEEP
                .iter()
                .map(|&e| (PrivacyParams::from_e_epsilon(e, d), target))
                .collect();
            (s_eff, cells)
        })
        .collect();
    prefetch_fump_rows(ctx, &rows)?;
    Ok(())
}

/// Figure 3(a): Recall on `(ε, δ)`.
pub fn run_a(ctx: &Ctx, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let target = fig3_target_output(ctx)?;
    let s_eff = scaled_support(&ctx.pre, FIG3_SUPPORT);
    prefetch_sweep(ctx, s_eff, target)?;
    writeln!(
        out,
        "Figure 3(a): F-UMP Recall vs e^ε (target |O| = {target}, paper s = 1/500 \
         rescaled to {s_eff:.5}; |O| clamped to 0.9λ per cell)"
    )?;
    writeln!(out)?;
    let mut headers = vec!["e^ε".to_string()];
    headers.extend(DELTA_CURVES.iter().map(|d| format!("δ={d}")));
    let mut t = Table::new(headers);
    for &e_eps in &E_EPS_SWEEP {
        let mut row = vec![format!("{e_eps}")];
        for &delta in &DELTA_CURVES {
            let params = PrivacyParams::from_e_epsilon(e_eps, delta);
            match fump_cell(ctx, params, s_eff, target)? {
                Some((sol, _)) => {
                    let pr = precision_recall_f(&ctx.pre, &sol.lp_counts, s_eff);
                    row.push(f4(pr.recall));
                }
                None => row.push("-".into()),
            }
        }
        t.row(row);
    }
    writeln!(out, "{t}")?;
    Ok(())
}

/// Figure 3(b): sum of support distances on `(ε, δ)`.
pub fn run_b(ctx: &Ctx, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let target = fig3_target_output(ctx)?;
    let s_eff = scaled_support(&ctx.pre, FIG3_SUPPORT);
    prefetch_sweep(ctx, s_eff, target)?;
    writeln!(
        out,
        "Figure 3(b): F-UMP sum of support distances vs e^ε (target |O| = {target}, s = {s_eff:.5})"
    )?;
    writeln!(out)?;
    let mut headers = vec!["e^ε".to_string()];
    headers.extend(DELTA_CURVES.iter().map(|d| format!("δ={d}")));
    let mut t = Table::new(headers);
    for &e_eps in &E_EPS_SWEEP {
        let mut row = vec![format!("{e_eps}")];
        for &delta in &DELTA_CURVES {
            let params = PrivacyParams::from_e_epsilon(e_eps, delta);
            match fump_cell(ctx, params, s_eff, target)? {
                Some((sol, used_o)) => {
                    let d = support_distance_sum_f(&ctx.pre, &sol.lp_counts, s_eff, used_o as f64);
                    row.push(f4(d));
                }
                None => row.push("-".into()),
            }
        }
        t.row(row);
    }
    writeln!(out, "{t}")?;
    Ok(())
}

/// Figure 3(c): average support distance vs minimum support (log-scale
/// x in the paper) for several output sizes at the reference cell.
pub fn run_c(ctx: &Ctx, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let params = reference_params();
    let (lambda, outputs) = reference_outputs(ctx)?;
    writeln!(
        out,
        "Figure 3(c): average support distance vs minimum support (e^ε = 2, δ = 0.5, λ = {lambda})"
    )?;
    writeln!(out)?;
    // shared with Tables 5/6: same cells, same shard layout
    prefetch_reference_grid(ctx, &outputs)?;
    let mut headers = vec!["s".to_string()];
    headers.extend(outputs.iter().map(|o| format!("|O|={o}")));
    let mut t = Table::new(headers);
    for &paper_s in &SUPPORT_GRID {
        let s = scaled_support(&ctx.pre, paper_s);
        let mut row = vec![format!("1/{:.0} -> {s:.5}", 1.0 / paper_s)];
        for &o in &outputs {
            match fump_cell(ctx, params, s, o)? {
                Some((sol, used_o)) => {
                    row.push(f4(support_distance_avg_f(&ctx.pre, &sol.lp_counts, s, used_o as f64)))
                }
                None => row.push("-".into()),
            }
        }
        t.row(row);
    }
    writeln!(out, "{t}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    /// Recall at Tiny scale is quantized in steps of `1/|F|` for a
    /// handful of frequent pairs, and the LP may land on an alternate
    /// optimal vertex between adjacent ε cells — so "rises with ε" is
    /// asserted up to one such quantum (|F| ≥ 20 would make this 0.05),
    /// not strictly.
    const RECALL_QUANTUM_SLACK: f64 = 0.05;

    /// The paper reports Precision = 1 in all F-UMP experiments; at
    /// Tiny scale precision is quantized in steps of
    /// `1/output_frequent`, so the floor is the weaker of "one released
    /// frequent pair suffices" and this absolute bar.
    const PRECISION_FLOOR: f64 = 0.3;

    #[test]
    fn recall_rises_with_epsilon_at_fixed_output_size() {
        // the clean monotonicity claim needs a FIXED |O| feasible in
        // every compared cell, so size it to the tightest budget
        let ctx = Ctx::new(Scale::Tiny);
        let s_eff = scaled_support(&ctx.pre, FIG3_SUPPORT);
        let lambda_tight = ctx.lambda(PrivacyParams::from_e_epsilon(1.1, 0.8)).unwrap();
        if lambda_tight == 0 {
            return; // no room at this scale; covered at larger scales
        }
        let target = (lambda_tight * 4 / 5).max(1);
        let mut prev = -1.0;
        for &e_eps in &[1.1, 1.7, 2.3] {
            let params = PrivacyParams::from_e_epsilon(e_eps, 0.8);
            if let Some((sol, _)) = fump_cell(&ctx, params, s_eff, target).unwrap() {
                let r = precision_recall_f(&ctx.pre, &sol.lp_counts, s_eff).recall;
                assert!(
                    r >= prev - RECALL_QUANTUM_SLACK,
                    "recall roughly rises with ε: {r} after {prev}"
                );
                prev = r;
            }
        }
        assert!(prev > 0.0, "recall is positive at the loosest cell");
    }

    #[test]
    fn precision_high_at_comfortable_output_sizes() {
        // "in all our F-UMP experiments, Precision is always equal to 1"
        // — exactly 1 requires the paper's regime where the budget does
        // not force mass onto infrequent pairs; test at |O| = λ/2 where
        // that holds, rather than at the near-λ sweep of the rendering
        let ctx = Ctx::new(Scale::Tiny);
        let s_eff = scaled_support(&ctx.pre, FIG3_SUPPORT);
        for &(e, d) in &[(2.0, 0.5), (2.3, 0.8)] {
            let params = PrivacyParams::from_e_epsilon(e, d);
            let lambda = ctx.lambda(params).unwrap();
            if lambda < 4 {
                continue;
            }
            if let Some((sol, _)) = fump_cell(&ctx, params, s_eff, lambda / 2).unwrap() {
                let pr = precision_recall_f(&ctx.pre, &sol.lp_counts, s_eff);
                let bar = (1.0 / pr.output_frequent.max(1) as f64).min(PRECISION_FLOOR);
                assert!(
                    pr.precision >= bar,
                    "precision stays high (got {} >= {bar} at ({e}, {d}))",
                    pr.precision
                );
            }
        }
    }

    #[test]
    fn all_three_render() {
        let ctx = Ctx::new(Scale::Tiny);
        for f in [run_a, run_b, run_c] {
            let mut buf = Vec::new();
            f(&ctx, &mut buf).unwrap();
            assert!(String::from_utf8(buf).unwrap().contains("Figure 3"));
        }
    }
}
