//! Table 4: maximum output size λ on the `(e^ε, δ)` grid.

use std::error::Error;
use std::io::Write;

use dpsan_dp::params::PrivacyParams;

use crate::context::Ctx;
use crate::grids::{DELTA_GRID, E_EPS_GRID};
use crate::table::Table;

/// Regenerate Table 4. Cells with identical budgets share one cached LP
/// solve, which also surfaces the paper's plateau structure directly;
/// the distinct budgets are prefetched as parallel shards.
pub fn run(ctx: &Ctx, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let grid: Vec<PrivacyParams> = E_EPS_GRID
        .iter()
        .flat_map(|&e| DELTA_GRID.iter().map(move |&d| PrivacyParams::from_e_epsilon(e, d)))
        .collect();
    ctx.prefetch_oump(&grid)?;

    let size = ctx.pre.size();
    writeln!(out, "Table 4: maximum output size λ on e^ε and δ (|D| = {size})")?;
    writeln!(out)?;
    writeln!(out, "cells: ⌊λ⌋ (LP optimum) — the integer release floors the LP solution")?;
    writeln!(out)?;
    let mut headers = vec!["e^ε \\ δ".to_string()];
    headers.extend(DELTA_GRID.iter().map(|d| format!("{d}")));
    let mut t = Table::new(headers);
    for &e_eps in &E_EPS_GRID {
        let mut row = vec![format!("{e_eps}")];
        for &delta in &DELTA_GRID {
            let sol = ctx.oump(PrivacyParams::from_e_epsilon(e_eps, delta))?;
            row.push(format!("{} ({:.1})", sol.lambda, sol.lp_value));
        }
        t.row(row);
    }
    writeln!(out, "{t}")?;
    let lo = ctx.lambda(PrivacyParams::from_e_epsilon(E_EPS_GRID[0], DELTA_GRID[0]))?;
    let hi = ctx.lambda(PrivacyParams::from_e_epsilon(
        E_EPS_GRID[E_EPS_GRID.len() - 1],
        DELTA_GRID[DELTA_GRID.len() - 1],
    ))?;
    writeln!(
        out,
        "λ ranges {:.2}%-{:.2}% of |D|; plateaus appear once min{{ε, ln 1/(1-δ)}} stops moving",
        100.0 * lo as f64 / size as f64,
        100.0 * hi as f64 / size as f64
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn grid_is_monotone_and_plateaued() {
        let ctx = Ctx::new(Scale::Tiny);
        // λ grows along both axes
        let mut grid = vec![];
        for &e in &E_EPS_GRID {
            let mut row = vec![];
            for &d in &DELTA_GRID {
                row.push(ctx.lambda(PrivacyParams::from_e_epsilon(e, d)).unwrap());
            }
            grid.push(row);
        }
        for row in &grid {
            for c in 1..row.len() {
                assert!(row[c] >= row[c - 1], "monotone in δ");
            }
        }
        for c in 0..DELTA_GRID.len() {
            for r in 1..grid.len() {
                assert!(grid[r][c] >= grid[r - 1][c], "monotone in ε");
            }
        }
        // the ε = ln 1.001 row saturates from the δ = 1e-3 column on
        for c in 2..DELTA_GRID.len() {
            assert_eq!(grid[0][c], grid[0][1], "row plateau once ε binds");
        }
        // the δ = 1e-4 column is constant (δ always binds there)
        for r in 1..grid.len() {
            assert_eq!(grid[r][0], grid[0][0], "column plateau once δ binds");
        }
    }

    #[test]
    fn renders() {
        let ctx = Ctx::new(Scale::Tiny);
        let mut buf = Vec::new();
        run(&ctx, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("Table 4"));
        assert!(s.lines().count() > 9);
    }
}
