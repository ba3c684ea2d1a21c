//! One module per table/figure of Section 6, plus the cross-mechanism
//! comparison suite ([`compare`]).

pub mod compare;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod table3;
pub mod table4;
pub mod table56;
pub mod table7;

use std::error::Error;
use std::io::Write;
use std::sync::Arc;

use dpsan_core::ump::frequent::FumpSolution;
use dpsan_core::CoreError;
use dpsan_dp::params::PrivacyParams;

use crate::context::{Ctx, FumpCell};
use crate::grids::{reference_params, scaled_support, OUTPUT_FRACTIONS, SUPPORT_GRID};
use crate::table::{f4, Table};

/// The per-cell output-size clamp of the experiment harness: the
/// requested output size is limited to the privacy-feasible `0.9 λ` of
/// the cell (the paper picks `|O| < λ_min` up front; at small scales
/// the low-budget cells cannot host a fixed global `|O|`).
pub fn clamped_output(lambda: u64, target_output: u64) -> u64 {
    target_output.min((lambda as f64 * 0.9).floor() as u64).max(1)
}

/// The F-UMP cell at `params` under the harness conventions (see
/// [`clamped_output`]): `None` when the cell's λ rounds to zero.
fn harness_cell(
    ctx: &Ctx,
    params: PrivacyParams,
    min_support: f64,
    target_output: u64,
) -> Result<Option<FumpCell>, CoreError> {
    let lambda = ctx.lambda(params)?;
    Ok((lambda > 0).then(|| FumpCell {
        params,
        min_support,
        output_size: clamped_output(lambda, target_output),
    }))
}

/// An F-UMP cell solve with the harness conventions (see
/// [`clamped_output`]). Returns `None` when the cell's λ rounds to
/// zero. Solves are cached on the context, so re-rendering the same
/// grid (Figure 3(a) and 3(b) share every cell) is free.
pub fn fump_cell(
    ctx: &Ctx,
    params: PrivacyParams,
    min_support: f64,
    target_output: u64,
) -> Result<Option<(Arc<FumpSolution>, u64)>, CoreError> {
    let Some(cell) = harness_cell(ctx, params, min_support, target_output)? else {
        return Ok(None);
    };
    Ok(Some((ctx.fump(cell)?, cell.output_size)))
}

/// Prefetch the F-UMP cells `(params, support, target |O|)` under the
/// harness conventions of [`fump_cell`].
pub fn prefetch_fump_cells(
    ctx: &Ctx,
    cells: impl IntoIterator<Item = (PrivacyParams, f64, u64)>,
) -> Result<(), CoreError> {
    let mut todo = Vec::new();
    for (params, min_support, target) in cells {
        todo.extend(harness_cell(ctx, params, min_support, target)?);
    }
    ctx.prefetch_fump(&todo)
}

/// λ and the [`OUTPUT_FRACTIONS`]-derived output sizes at the
/// reference cell — the column axis of the `(|O|, s)` grid that
/// Tables 5/6 and Figure 3(c) share ([`render_reference_grid`]).
pub fn reference_outputs(ctx: &Ctx) -> Result<(u64, Vec<u64>), CoreError> {
    let lambda = ctx.lambda(reference_params())?;
    let outs =
        OUTPUT_FRACTIONS.iter().map(|f| ((lambda as f64 * f).round() as u64).max(1)).collect();
    Ok((lambda, outs))
}

/// Render one metric over the shared `(s, |O|)` reference grid, as
/// Tables 5/6 and Figure 3(c) print it: the title line with the
/// reference cell and its λ, then one row per [`SUPPORT_GRID`] support
/// (labelled with its rescaled value) and one column per
/// [`reference_outputs`] size, headed `corner` and `{column}{|O|}`.
/// A cell is `metric(solution, s, |O| used)`, or `-` when λ is zero.
pub fn render_reference_grid(
    ctx: &Ctx,
    out: &mut dyn Write,
    title: &str,
    corner: &str,
    column: &str,
    metric: impl Fn(&FumpSolution, f64, u64) -> f64,
) -> Result<(), Box<dyn Error>> {
    let params = reference_params();
    let (lambda, outs) = reference_outputs(ctx)?;
    let supports = SUPPORT_GRID.map(|paper_s| (paper_s, scaled_support(&ctx.pre, paper_s)));
    prefetch_fump_cells(
        ctx,
        supports.iter().flat_map(|&(_, s)| outs.iter().map(move |&o| (params, s, o))),
    )?;
    writeln!(out, "{title} (e^ε = 2, δ = 0.5, λ = {lambda})")?;
    writeln!(out)?;
    let mut headers = vec![corner.to_string()];
    headers.extend(outs.iter().map(|o| format!("{column}{o}")));
    let mut t = Table::new(headers);
    for (paper_s, s) in supports {
        let mut row = vec![format!("1/{:.0} -> {s:.5}", 1.0 / paper_s)];
        for &o in &outs {
            match fump_cell(ctx, params, s, o)? {
                Some((sol, used_o)) => row.push(f4(metric(&sol, s, used_o))),
                None => row.push("-".into()),
            }
        }
        t.row(row);
    }
    writeln!(out, "{t}")?;
    Ok(())
}
