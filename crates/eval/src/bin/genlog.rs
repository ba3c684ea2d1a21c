//! `genlog` — spool a synthetic AOL-like log to a TSV file.
//!
//! ```text
//! genlog --scale tiny --out /tmp/log.tsv
//! genlog --scale small --seed 7 --out small.tsv
//! ```
//!
//! The streaming companion of the `sanitize` CLI: it writes through
//! `dpsan_datagen::write_log_file` (one user's aggregation in memory
//! at a time), and reading the file back reproduces the in-memory
//! `generate` build exactly — so CI can exercise the whole
//! file-in/file-out pipeline without fixtures.

use std::process::ExitCode;

use dpsan_datagen::{presets, write_log_file};
use dpsan_eval::Scale;

const USAGE: &str = "usage: genlog --out <path> [--scale tiny|small|medium|paper] [--seed N] \
[--users N]
  --users N   override the preset's user count; the query vocabulary is
              scaled by the same factor so the log keeps the preset's
              sharing shape (used by the 10^5-user scale-smoke gate)";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Tiny;
    let mut seed: Option<u64> = None;
    let mut users: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--scale" => {
                let Some(v) = it.next() else {
                    eprintln!("--scale needs a value\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                let Some(s) = Scale::parse(v) else {
                    eprintln!("unknown scale {v:?}\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                scale = s;
            }
            "--seed" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--seed needs an integer\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                seed = Some(v);
            }
            "--users" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()).filter(|&v: &usize| v >= 1)
                else {
                    eprintln!("--users needs a positive integer\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                users = Some(v);
            }
            "--out" => {
                let Some(v) = it.next() else {
                    eprintln!("--out needs a path\n{USAGE}");
                    return ExitCode::FAILURE;
                };
                out = Some(v.clone());
            }
            other => {
                eprintln!("unknown argument {other:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(out) = out else {
        eprintln!("missing --out\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut cfg = scale.config();
    if let Some(users) = users {
        cfg = presets::with_users(cfg, users);
    }
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    if let Err(e) = write_log_file(&cfg, &out) {
        eprintln!("genlog: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {scale:?}-scale log to {out}");
    ExitCode::SUCCESS
}
