//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                      # every experiment at the default scale
//! repro table4 fig3a --scale tiny
//! repro fig5 --scale medium
//! repro all --scale small --jobs 4
//! ```
//!
//! `--jobs N` sets how many worker threads the grid prefetches may use
//! (default: the machine's available parallelism). Output is
//! byte-identical for every `N`; jobs only trades wall-clock for CPU.
//!
//! `--stats` prints, after each experiment, the aggregate LP-solver
//! counters (solves, simplex iterations, refactorizations, capped
//! solves) to **stderr**, so the golden-gated
//! stdout stays untouched. `--metrics-json <path>` dumps the full
//! telemetry registry (the same counters plus histograms with exact
//! p50/p99) as JSON at exit — also observational only.

use std::process::ExitCode;

use dpsan_eval::{run_experiments_opts, Ctx, RunOptions, Scale, EXPERIMENTS};

fn usage() -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    format!(
        "usage: repro <experiment>... [--scale tiny|small|medium|paper] [--jobs N] [--stats] \
         [--metrics-json <path>]\n\
         experiments: all, {}",
        ids.join(", ")
    )
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Small;
    let mut jobs = default_jobs();
    let mut stats = false;
    let mut metrics_json: Option<String> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let Some(v) = it.next() else {
                    eprintln!("--scale needs a value\n{}", usage());
                    return ExitCode::FAILURE;
                };
                let Some(s) = Scale::parse(v) else {
                    eprintln!("unknown scale {v:?}\n{}", usage());
                    return ExitCode::FAILURE;
                };
                scale = s;
            }
            "--jobs" => {
                let Some(v) = it.next() else {
                    eprintln!("--jobs needs a value\n{}", usage());
                    return ExitCode::FAILURE;
                };
                let Ok(n) = v.parse::<usize>() else {
                    eprintln!("--jobs needs a positive integer, got {v:?}\n{}", usage());
                    return ExitCode::FAILURE;
                };
                if n == 0 {
                    eprintln!("--jobs must be at least 1\n{}", usage());
                    return ExitCode::FAILURE;
                }
                jobs = n;
            }
            "--stats" => stats = true,
            "--metrics-json" => {
                let Some(v) = it.next() else {
                    eprintln!("--metrics-json needs a value\n{}", usage());
                    return ExitCode::FAILURE;
                };
                metrics_json = Some(v.clone());
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    if wanted.iter().any(|w| w == "all") {
        wanted = EXPERIMENTS.iter().map(|(id, _)| id.to_string()).collect();
    }

    eprintln!("generating {scale:?}-scale dataset ({jobs} jobs) ...");
    let ctx = Ctx::new(scale).with_jobs(jobs);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let opts = RunOptions { progress: true, solver_stats: stats };
    if let Err(e) = run_experiments_opts(&wanted, &ctx, &mut out, &opts) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    // Telemetry export at exit (observational only: the golden-gated
    // stdout above never sees it).
    if let Some(path) = &metrics_json {
        let snap = dpsan_obs::global().snapshot();
        if let Err(e) = dpsan_obs::export::write_json(std::path::Path::new(path), &snap) {
            eprintln!("repro: writing --metrics-json {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
