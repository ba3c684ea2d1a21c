//! Table 7: retained diversity utility of different BIP solvers.
//!
//! The paper compares SPE against Matlab `bintprog` and the NEOS
//! solvers `qsopt_ex`, `scip`, `feaspump`; here the comparator suite is
//! the in-repo solver set listed by [`solver_suite`].

use std::error::Error;
use std::io::Write;

use dpsan_core::ump::diversity::DumpSolver;
use dpsan_dp::params::PrivacyParams;

use crate::context::{Ctx, Scale};
use crate::table::{pct, Table};

/// The solver suite with display names.
pub fn solver_suite(scale: Scale) -> Vec<(&'static str, DumpSolver)> {
    // keep exact search bounded at the bigger scales (each node is a
    // fresh LP solve; the incumbent is still reported at the limit)
    let nodes = match scale {
        Scale::Tiny => 20_000,
        Scale::Small => 60,
        _ => 25,
    };
    vec![
        ("SPE (Heuristic)", DumpSolver::Spe),
        ("SPE (violated-only)", DumpSolver::SpeViolated),
        ("LP-round", DumpSolver::LpRound),
        ("Pump", DumpSolver::Pump { restarts: 12, seed: 0x5eed }),
        ("Branch&Bound", DumpSolver::BranchBound { max_nodes: nodes }),
    ]
}

fn retained_pct(
    ctx: &Ctx,
    params: PrivacyParams,
    solver: &DumpSolver,
) -> Result<f64, Box<dyn Error>> {
    let sol = ctx.dump(params, solver.clone())?;
    Ok(sol.retained as f64 / ctx.pre.n_pairs() as f64)
}

/// Regenerate Table 7(a) (δ sweep at `e^ε = 2`) and 7(b)
/// (`e^ε` sweep at δ = 0.1).
pub fn run(ctx: &Ctx, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let suite = solver_suite(ctx.scale);

    writeln!(out, "Table 7(a): retained diversity of BIP solvers (e^ε = 2)")?;
    writeln!(out)?;
    let deltas = [1e-3, 1e-2, 1e-1, 0.2, 0.5, 0.8];
    let mut headers = vec!["solver".to_string()];
    headers.extend(deltas.iter().map(|d| format!("δ={d}")));
    let mut t = Table::new(headers);
    for (name, solver) in &suite {
        let mut row = vec![name.to_string()];
        for &d in &deltas {
            row.push(pct(retained_pct(ctx, PrivacyParams::from_e_epsilon(2.0, d), solver)?));
        }
        t.row(row);
    }
    writeln!(out, "{t}")?;

    writeln!(out, "Table 7(b): retained diversity of BIP solvers (δ = 0.1)")?;
    writeln!(out)?;
    let e_epss = [1.01, 1.1, 1.4, 1.7, 2.0, 2.3];
    let mut headers = vec!["solver".to_string()];
    headers.extend(e_epss.iter().map(|e| format!("e^ε={e}")));
    let mut t = Table::new(headers);
    for (name, solver) in &suite {
        let mut row = vec![name.to_string()];
        for &e in &e_epss {
            row.push(pct(retained_pct(ctx, PrivacyParams::from_e_epsilon(e, 0.1), solver)?));
        }
        t.row(row);
    }
    writeln!(out, "{t}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_solvers_feasible_and_ordered() {
        let ctx = Ctx::new(Scale::Tiny);
        let params = PrivacyParams::from_e_epsilon(2.0, 0.5);
        let mut results = vec![];
        for (name, solver) in solver_suite(Scale::Tiny) {
            let r = retained_pct(&ctx, params, &solver).unwrap();
            assert!((0.0..=1.0).contains(&r), "{name}: {r}");
            results.push((name, r));
        }
        // provable orderings: the violated-only SPE never retains less
        // than the paper-literal global SPE, and exact branch & bound
        // (feasible at tiny scale) dominates every heuristic
        let spe = results[0].1;
        let spe_v = results[1].1;
        let bb = results[4].1;
        assert!(spe_v >= spe, "violated-only SPE {spe_v} >= global SPE {spe}");
        for &(name, r) in &results[..4] {
            // retained percentages are integer counts over one shared
            // denominator, and f64 division by a common divisor is
            // order-preserving — the dominance comparison is exact, no
            // float tolerance needed
            assert!(bb >= r, "B&B {bb} should dominate {name} {r}");
        }
    }
}
