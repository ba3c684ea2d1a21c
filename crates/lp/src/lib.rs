//! # dpsan-lp
//!
//! Optimization substrate for the `dpsan` workspace.
//!
//! The paper's utility-maximizing problems are an LP (O-UMP), an LP
//! after a standard absolute-value split (F-UMP), and a binary integer
//! program (D-UMP). The original evaluation leaned on Matlab
//! `linprog`/`bintprog` and the NEOS solvers; the Rust ecosystem has no
//! mature equivalent, so this crate implements the needed solvers from
//! scratch:
//!
//! * [`problem`] — an LP/MIP model builder with range rows and variable
//!   bounds,
//! * [`sparse`]/[`dense`] — compressed sparse column matrices and the
//!   dense kernels used by tests,
//! * [`standard`] — conversion to the computational standard form
//!   `min c'x, Ax = b, l ≤ x ≤ u` with one slack per row,
//! * [`scaling`] — geometric-mean equilibration,
//! * [`factor`] — sparse LU (Gilbert–Peierls with Markowitz-style
//!   threshold pivoting, flat FTRAN/BTRAN sweeps) and product-form eta
//!   updates of the simplex basis,
//! * [`simplex`] — a two-phase, bounded-variable revised simplex: one
//!   primal loop whose dense route (small instances) and sparse route
//!   (partial pricing, incremental duals; large ones) differ in policy,
//!   not in kernels,
//! * [`obs`] — telemetry handles for the sparse kernels,
//! * [`dense_simplex`] — an independent dense tableau simplex used to
//!   cross-check the revised implementation in tests,
//! * [`mip`] — branch & bound plus packing-aware rounding and a
//!   feasibility-pump-style heuristic for binary programs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod dense_simplex;
pub mod error;
pub mod factor;
pub mod mip;
pub mod obs;
pub mod problem;
pub mod scaling;
pub mod simplex;
pub mod sparse;
pub mod standard;

pub use error::LpError;
pub use problem::{Problem, RowBounds, Sense, VarBounds};
pub use simplex::{solve, SimplexOptions, Solution, SolveStatus};
