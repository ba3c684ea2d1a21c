//! Tables 5 and 6: F-UMP recall and support-distance sums on the
//! `(|O|, s)` grid at the reference cell `e^ε = 2, δ = 0.5`.

use std::error::Error;
use std::io::Write;

use dpsan_core::metrics::{precision_recall_f, support_distance_sum_f};

use crate::context::Ctx;
use crate::experiments::render_reference_grid;

/// Table 5: Recall on output size and minimum support.
pub fn run_table5(ctx: &Ctx, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    render_reference_grid(ctx, out, "Table 5: Recall on |O| and s", "s \\ |O|", "", |sol, s, _| {
        precision_recall_f(&ctx.pre, &sol.lp_counts, s).recall
    })
}

/// Table 6: sum of frequent-pair support distances on the same grid.
pub fn run_table6(ctx: &Ctx, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    render_reference_grid(
        ctx,
        out,
        "Table 6: sum of frequent query-url pair support distances on |O| and s",
        "s \\ |O|",
        "",
        |sol, s, used_o| support_distance_sum_f(&ctx.pre, &sol.lp_counts, s, used_o as f64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;
    use crate::experiments::{fump_cell, reference_outputs};
    use crate::grids::{reference_params, scaled_support, SUPPORT_GRID};

    /// The distance sums being compared are short sums of `f64` ratios;
    /// the only admissible "decrease" is accumulated rounding noise,
    /// orders of magnitude below any real trend reversal.
    const SUMMATION_NOISE_TOL: f64 = 1e-9;

    #[test]
    fn distance_sum_grows_with_output_size_at_fixed_support() {
        // Table 6's trend: fixing s, the sum grows as |O| grows
        let ctx = Ctx::new(Scale::Tiny);
        let (_, outs) = reference_outputs(&ctx).unwrap();
        let s = scaled_support(&ctx.pre, SUPPORT_GRID[0]);
        let mut values = vec![];
        for &o in &outs {
            if let Some((sol, used_o)) = fump_cell(&ctx, reference_params(), s, o).unwrap() {
                values.push(support_distance_sum_f(&ctx.pre, &sol.lp_counts, s, used_o as f64));
            }
        }
        assert!(values.len() >= 3, "need several feasible cells");
        assert!(
            values[values.len() - 1] >= values[0] - SUMMATION_NOISE_TOL,
            "distance sum grows with |O|: {values:?}"
        );
    }

    #[test]
    fn both_tables_render_full_grids() {
        let ctx = Ctx::new(Scale::Tiny);
        let mut buf = Vec::new();
        run_table5(&ctx, &mut buf).unwrap();
        run_table6(&ctx, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("Table 5"));
        assert!(s.contains("Table 6"));
        // 5 support rows per table
        assert!(s.matches("0.00").count() >= 2);
    }
}
