//! Integer-programming layer: branch & bound and packing heuristics.
//!
//! The D-UMP of the paper is a *packing* binary program (`max Σ y`,
//! non-negative constraint matrix, `≤` rows): rounding any fractional
//! point down is always feasible, which both the heuristics and the
//! branch-and-bound incumbent logic exploit.

pub mod bb;
pub mod pump;
pub mod rounding;

pub use bb::{solve_mip, BbOptions, MipSolution, MipStatus};
pub use pump::{pump_packing, PumpOptions};
pub use rounding::{greedy_raise, is_packing, lp_round_packing, round_down};
