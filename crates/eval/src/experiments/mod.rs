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
    let lambda = ctx.lambda(params)?;
    if lambda == 0 {
        return Ok(None);
    }
    let output_size = clamped_output(lambda, target_output);
    let sol = ctx.fump(FumpCell { params, min_support, output_size })?;
    Ok(Some((sol, output_size)))
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

/// Prefetch the shared `(|O|, s)` reference grid: one shard per support
/// row, |O| ascending. Tables 5/6 and Figure 3(c) all go through this
/// single definition, so the shared cache cells are filled the same way
/// whichever experiment runs first.
pub fn prefetch_reference_grid(ctx: &Ctx, outs: &[u64]) -> Result<(), CoreError> {
    let params = reference_params();
    let rows: Vec<(f64, Vec<(PrivacyParams, u64)>)> = SUPPORT_GRID
        .iter()
        .map(|&paper_s| {
            let s = scaled_support(&ctx.pre, paper_s);
            (s, outs.iter().map(|&o| (params, o)).collect())
        })
        .collect();
    prefetch_fump_rows(ctx, &rows)
}

/// Prefetch an F-UMP grid: one shard per row of `rows`, where a row is
/// `(support, cells)` and each cell is `(params, target |O|)` — e.g. a
/// δ-curve with ascending ε, or a support row with ascending `|O|`.
pub fn prefetch_fump_rows(
    ctx: &Ctx,
    rows: &[(f64, Vec<(PrivacyParams, u64)>)],
) -> Result<(), CoreError> {
    let mut shards = Vec::with_capacity(rows.len());
    for (min_support, row) in rows {
        let mut shard = Vec::with_capacity(row.len());
        for &(params, target) in row {
            let lambda = ctx.lambda(params)?;
            if lambda == 0 {
                continue;
            }
            shard.push(FumpCell {
                params,
                min_support: *min_support,
                output_size: clamped_output(lambda, target),
            });
        }
        if !shard.is_empty() {
            shards.push(shard);
        }
    }
    ctx.prefetch_fump(shards)
}
