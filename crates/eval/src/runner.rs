//! Experiment dispatch and the parallel evaluation pipeline.
//!
//! Experiments execute *serially* in the requested order, each
//! rendering into its own buffer. Inside an experiment the grid
//! prefetches of [`Ctx`] run each distinct cell as one cold task on up
//! to `--jobs` workers; a cell's answer depends only on the cell, so
//! `--jobs` changes only wall time, never output or solve counts.

use std::error::Error;
use std::io::Write;

use dpsan_core::SessionStats;

use crate::context::Ctx;
use crate::experiments;

/// Signature of an experiment regeneration function.
pub type ExperimentFn = fn(&Ctx, &mut dyn Write) -> Result<(), Box<dyn Error>>;

/// The experiment registry: id → regeneration function.
pub const EXPERIMENTS: &[(&str, ExperimentFn)] = &[
    ("table3", experiments::table3::run),
    ("table4", experiments::table4::run),
    ("fig3a", experiments::fig3::run_a),
    ("fig3b", experiments::fig3::run_b),
    ("fig3c", experiments::fig3::run_c),
    ("table5", experiments::table56::run_table5),
    ("table6", experiments::table56::run_table6),
    ("fig4", experiments::fig4::run),
    ("table7", experiments::table7::run),
    ("fig5", experiments::fig5::run),
    ("fig6", experiments::fig6::run),
    // not a Section 6 artifact: the cross-mechanism comparison suite.
    // Registered last so adding it kept the golden fixture diff
    // append-only.
    ("compare", experiments::compare::run),
];

/// Run one experiment by id; `Err` for unknown ids.
pub fn run_experiment(name: &str, ctx: &Ctx, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let Some((_, f)) = EXPERIMENTS.iter().find(|(id, _)| *id == name) else {
        return Err(format!(
            "unknown experiment {name:?}; known: {}",
            EXPERIMENTS.iter().map(|(id, _)| *id).collect::<Vec<_>>().join(", ")
        )
        .into());
    };
    f(ctx, out)
}

/// Knobs of [`run_experiments`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Echo a `running …` line to stderr per experiment (what the
    /// `repro` binary shows).
    pub progress: bool,
    /// After each experiment, print the solver-counter delta (read
    /// from the telemetry registry, rendered by
    /// [`crate::stats_text`]) to **stderr** — kept off stdout so the
    /// golden-gated output never sees it.
    pub solver_stats: bool,
}

/// Run several experiments and write their outputs (each followed by a
/// blank line) to `out` in the requested order.
///
/// Each experiment renders into a private buffer that is flushed to
/// `out` only when the experiment succeeds, so a mid-experiment failure
/// never leaves a half-written table.
pub fn run_experiments(
    names: &[String],
    ctx: &Ctx,
    out: &mut dyn Write,
    opts: &RunOptions,
) -> Result<(), Box<dyn Error>> {
    if opts.solver_stats {
        ctx.take_solve_stats(); // start each run from a clean slate
    }
    // Per-experiment stats are registry snapshot deltas: experiments
    // run serially in this process, so the delta across one experiment
    // is exactly its solver work — the same numbers `--metrics-json`
    // exports, rendered by the shared `stats_text` line. Cached cells
    // solve zero LPs, so later experiments sharing a grid legitimately
    // report `solves=0`.
    let run_start = dpsan_obs::global().snapshot();
    let mut before = run_start.clone();
    for name in names {
        if opts.progress {
            eprintln!("running {name} ...");
        }
        let mut buf = Vec::new();
        run_experiment(name, ctx, &mut buf).map_err(|e| format!("{name} failed: {e}"))?;
        out.write_all(&buf)?;
        writeln!(out)?;
        if opts.solver_stats {
            let after = dpsan_obs::global().snapshot();
            let stats = SessionStats::from_snapshot(&after.delta(&before));
            eprintln!("{}", crate::stats_text::solver_stats_line(name, &stats));
            before = after;
        }
    }
    if opts.solver_stats && names.len() > 1 {
        let whole = dpsan_obs::global().snapshot().delta(&run_start);
        let stats = SessionStats::from_snapshot(&whole);
        eprintln!("{}", crate::stats_text::solver_stats_line("total", &stats));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn registry_covers_every_section6_artifact() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        for required in [
            "table3", "table4", "fig3a", "fig3b", "fig3c", "table5", "table6", "fig4", "table7",
            "fig5", "fig6", "compare",
        ] {
            assert!(ids.contains(&required), "{required} missing");
        }
    }

    #[test]
    fn unknown_experiment_errors() {
        let ctx = Ctx::new(Scale::Tiny);
        let mut buf = Vec::new();
        assert!(run_experiment("table99", &ctx, &mut buf).is_err());
    }

    #[test]
    fn table3_runs_by_name() {
        let ctx = Ctx::new(Scale::Tiny);
        let mut buf = Vec::new();
        run_experiment("table3", &ctx, &mut buf).unwrap();
        assert!(!buf.is_empty());
    }

    #[test]
    fn batch_runner_matches_individual_runs() {
        let ctx = Ctx::new(Scale::Tiny);
        let names = vec!["table3".to_string(), "table4".to_string()];
        let mut batch = Vec::new();
        run_experiments(&names, &ctx, &mut batch, &RunOptions::default()).unwrap();

        let mut individual = Vec::new();
        for n in &names {
            run_experiment(n, &ctx, &mut individual).unwrap();
            writeln!(&mut individual).unwrap();
        }
        assert_eq!(batch, individual);
    }

    #[test]
    fn batch_runner_fails_atomically_on_unknown_name() {
        let ctx = Ctx::new(Scale::Tiny);
        let names = vec!["table3".to_string(), "nope".to_string()];
        let mut out = Vec::new();
        let err = run_experiments(&names, &ctx, &mut out, &RunOptions::default()).unwrap_err();
        assert!(err.to_string().contains("nope"));
        // table3 flushed, the failing experiment wrote nothing
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("Table 3"));
    }
}
