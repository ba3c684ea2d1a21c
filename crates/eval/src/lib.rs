//! # dpsan-eval
//!
//! Experiment harness regenerating every table and figure of the
//! paper's Section 6 on synthetic AOL-like data:
//!
//! | id | what |
//! |----|------|
//! | `table3` | dataset characteristics |
//! | `table4` | maximum output size λ on the `(e^ε, δ)` grid |
//! | `fig3a`/`fig3b` | F-UMP recall / support-distance sums vs `e^ε` |
//! | `fig3c` | average support distance vs minimum support |
//! | `table5`/`table6` | recall / distance sums on the `(|O|, s)` grid |
//! | `fig4` | D-UMP retained diversity vs `(e^ε, δ)` (SPE) |
//! | `table7` | D-UMP solver comparison |
//! | `fig5` | D-UMP solver runtimes |
//! | `fig6` | `DiffRatio` triplet histograms |
//!
//! Run via the `repro` binary: `repro all --scale small`.
//!
//! Output sizes and support grids are parameterized *relative to the
//! computed λ* rather than copied verbatim from the paper, because the
//! paper's absolute λ values are not derivable from its own constraint
//! system (summing the per-user rows proves `λ ≤ (#user logs) · B`;
//! see `EXPERIMENTS.md`). All qualitative shapes are preserved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod context;
pub mod experiments;
pub mod golden;
pub mod grids;
pub mod runner;
pub mod stats_text;
pub mod table;

pub use context::{Ctx, FumpCell, Scale};
pub use runner::{run_experiment, run_experiments, RunOptions, EXPERIMENTS};
pub use table::Table;
