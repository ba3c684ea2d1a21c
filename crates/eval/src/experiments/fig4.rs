//! Figure 4: maximum retained query–url pair diversity (D-UMP, SPE).

use std::error::Error;
use std::io::Write;

use dpsan_core::ump::diversity::DumpSolver;
use dpsan_dp::params::PrivacyParams;

use crate::context::Ctx;
use crate::grids::{DELTA_CURVES, E_EPS_SWEEP};
use crate::table::{pct, Table};

/// Regenerate Figure 4: retained-diversity percentage vs `e^ε` for the
/// δ curves, using the SPE heuristic (Algorithm 2).
pub fn run(ctx: &Ctx, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    writeln!(
        out,
        "Figure 4: maximum retained query-url pair diversity (%) via SPE \
         (violated-rows reading of Algorithm 2; the literal global-max rule \
         over-removes — see EXPERIMENTS.md), n_pairs = {}",
        ctx.pre.n_pairs()
    )?;
    writeln!(out)?;
    let mut headers = vec!["e^ε".to_string()];
    headers.extend(DELTA_CURVES.iter().map(|d| format!("δ={d}")));
    let mut t = Table::new(headers);
    for &e_eps in &E_EPS_SWEEP {
        let mut row = vec![format!("{e_eps}")];
        for &delta in &DELTA_CURVES {
            let params = PrivacyParams::from_e_epsilon(e_eps, delta);
            let sol = ctx.dump(params, DumpSolver::SpeViolated)?;
            row.push(pct(sol.retained as f64 / ctx.pre.n_pairs() as f64));
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

    /// At the Tiny seed the loose cell retains 7+ of ~150 pairs; the
    /// bar sits below that but well above the ~1-pair floor a broken
    /// SPE would produce. Data-dependent by necessity — the exact share
    /// moves with the generator preset, the trend does not.
    const MIN_RETAINED_SHARE_LOOSE: f64 = 0.04;

    #[test]
    fn diversity_rises_with_budget_and_is_substantial() {
        let ctx = Ctx::new(Scale::Tiny);
        let retained = |e: f64, d: f64| {
            let params = PrivacyParams::from_e_epsilon(e, d);
            ctx.dump(params, DumpSolver::Spe).unwrap().retained
        };
        let lo = retained(1.01, 0.01);
        let hi = retained(2.3, 0.8);
        assert!(hi >= lo, "diversity grows with the budget");
        assert!(
            hi as f64 / ctx.pre.n_pairs() as f64 > MIN_RETAINED_SHARE_LOOSE,
            "a loose budget retains a visible share ({hi} of {})",
            ctx.pre.n_pairs()
        );
    }

    #[test]
    fn renders() {
        let ctx = Ctx::new(Scale::Tiny);
        let mut buf = Vec::new();
        run(&ctx, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("Figure 4"));
    }
}
