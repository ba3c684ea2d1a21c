//! Figure 5: computational performance of the BIP solvers at
//! `e^ε = 1.7, δ = 1e-3` (log-scale runtime in the paper).

use std::error::Error;
use std::io::Write;
use std::time::Instant;

use crate::context::Ctx;
use crate::experiments::table7::solver_suite;
use crate::grids::fig5_params;
use crate::table::Table;

/// Regenerate Figure 5: wall-clock runtime per solver on the same
/// D-UMP instance.
pub fn run(ctx: &Ctx, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let params = fig5_params();
    let constraints = ctx.constraints(params)?;
    writeln!(
        out,
        "Figure 5: D-UMP solver runtimes (e^ε = 1.7, δ = 1e-3, {} vars × {} rows)",
        constraints.n_pairs(),
        constraints.n_rows()
    )?;
    writeln!(out)?;
    let mut t = Table::new(vec!["solver", "runtime", "retained"]);
    for (name, solver) in solver_suite(ctx.scale) {
        let t0 = Instant::now();
        let sol = ctx.dump(params, solver)?;
        let dt = t0.elapsed();
        t.row(vec![name.to_string(), format!("{dt:.2?}"), sol.retained.to_string()]);
    }
    writeln!(out, "{t}")?;
    writeln!(out, "(the paper reports SPE fastest by orders of magnitude on a log scale)")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;
    use dpsan_core::ump::diversity::DumpSolver;
    use std::time::Instant;

    #[test]
    fn spe_is_fastest_solver() {
        let ctx = Ctx::new(Scale::Tiny);
        let params = fig5_params();
        let time_of = |solver: DumpSolver| {
            let t0 = Instant::now();
            let _ = ctx.dump(params, solver).unwrap();
            t0.elapsed()
        };
        // warm up (builds the cached constraints) then measure
        let _ = time_of(DumpSolver::Spe);
        let spe = time_of(DumpSolver::Spe);
        let lp_round = time_of(DumpSolver::LpRound);
        let bb = time_of(DumpSolver::BranchBound { max_nodes: 5_000 });
        assert!(spe <= lp_round, "SPE {spe:?} should beat LP rounding {lp_round:?}");
        assert!(spe <= bb, "SPE {spe:?} should beat branch & bound {bb:?}");
    }

    #[test]
    fn renders() {
        let ctx = Ctx::new(Scale::Tiny);
        let mut buf = Vec::new();
        run(&ctx, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("Figure 5"));
    }
}
