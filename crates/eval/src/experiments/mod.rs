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

use std::sync::Arc;

use dpsan_core::ump::frequent::FumpSolution;
use dpsan_core::CoreError;
use dpsan_dp::params::PrivacyParams;

use crate::context::{Ctx, FumpCell};
use crate::grids::{reference_params, scaled_support, OUTPUT_FRACTIONS, SUPPORT_GRID};

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
/// Tables 5/6 and Figure 3(c) share.
pub fn reference_outputs(ctx: &Ctx) -> Result<(u64, Vec<u64>), CoreError> {
    let lambda = ctx.lambda(reference_params())?;
    let outs =
        OUTPUT_FRACTIONS.iter().map(|f| ((lambda as f64 * f).round() as u64).max(1)).collect();
    Ok((lambda, outs))
}

/// Prefetch the shared `(|O|, s)` reference grid that Tables 5/6 and
/// Figure 3(c) all render.
pub fn prefetch_reference_grid(ctx: &Ctx, outs: &[u64]) -> Result<(), CoreError> {
    let params = reference_params();
    prefetch_fump_cells(
        ctx,
        SUPPORT_GRID.iter().flat_map(|&paper_s| {
            let s = scaled_support(&ctx.pre, paper_s);
            outs.iter().map(move |&o| (params, s, o))
        }),
    )
}
