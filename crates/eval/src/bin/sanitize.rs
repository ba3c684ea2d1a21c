//! `sanitize` — the production entrypoint: read a search-log file, run
//! a differentially private sanitization mechanism, write the output.
//!
//! ```text
//! sanitize access.tsv --out sanitized.tsv
//! sanitize access.tsv --mechanism fump --min-support 0.02 --e-epsilon 1.7
//! sanitize access.tsv --mechanism zealous --zealous-cap 8
//! ```
//!
//! Unlike `repro` (which regenerates the paper's tables on synthetic
//! data), `sanitize` is a file-in/file-out tool. `--mechanism` selects
//! any [`Sanitizer`] impl — the paper's three UMP objectives, the
//! ZEALOUS noisy-threshold baseline, or local randomized response; all
//! emit the same 4-column TSV schema as the input (the paper's headline
//! property).
//!
//! Ingestion is the `dpsan-stream` sharded engine: chunked intake that
//! interns every string once into one session vocabulary, user-hash
//! shards (user-complete, so the privacy accounting of every mechanism
//! is untouched), and a sort-only merge that drops every pair only one
//! user holds (the paper's Condition 1) before it builds the log. That
//! log is the one a one-shot `read_tsv` build followed by `preprocess`
//! produces, so output is **byte-identical for every
//! `--shards`/`--jobs` value** (CI diffs them). It holds every kept
//! pair's exact total, so fump and zealous mine their frequent pairs
//! exactly from it.

use std::io::Write;
use std::process::ExitCode;

use dpsan_core::mechanism::{
    LdpOptions, LdpSanitizer, Sanitizer, UmpSanitizer, UtilityObjective, ZealousOptions,
    ZealousSanitizer,
};
use dpsan_core::ump::diversity::DumpSolver;
use dpsan_core::ump::output_size::OumpOptions;
use dpsan_core::{PrivacyConstraints, SolveSession};
use dpsan_dp::params::PrivacyParams;
use dpsan_lp::simplex::SimplexOptions;
use dpsan_searchlog::{frequent_pairs, LogError, SearchLog};
use dpsan_stream::{IngestSession, StreamConfig};

const USAGE: &str = "usage: sanitize <input.tsv> [options]
  --out <path>             write the sanitized log here (default: stdout)
  --mechanism <m>          oump | fump | dump | zealous | ldp-rr (default: oump)
  --e-epsilon <v>          privacy parameter e^eps, > 1      (default: 2.0)
  --delta <v>              privacy parameter delta, in (0,1) (default: 0.5)
  --min-support <v>        fump support threshold, in (0,1]  (default: 0.05)
  --output-size <n|auto>   fump output size |O|      (default: auto = lambda/2,
                           at least 1; 0 when lambda = 0; lambda is the
                           packing-route O-UMP answer oump itself releases)
  --zealous-cap <n>        zealous per-user contribution cap (default: 8)
  --zealous-coarse <n>     zealous coarse cutoff tau'        (default: 2)
  --ldp-cap <n>            ldp-rr per-user pair cap          (default: 4)
  --lp-budget <n>          oump only; accepted and validated (n >= 1) but has
                           no effect: oump always answers on the packing
                           route, which needs no simplex iterations. The
                           answer is feasible (hence private), carries a
                           certified bound (--stats: gap) and is reported
                           as capped=1.
  --seed <n>               sampling / noise seed     (default: fixed)
  --shards <n>             user-hash shards          (default: 16)
  --chunk-rows <n>         raw rows per chunk        (default: 8192);
                           two chunks are in memory at once
  --jobs <n>               shard-drain workers       (default: available cores)
  --stats                  ingestion + run + solver report to stderr
  --metrics-file <path>    write a Prometheus-text telemetry snapshot here at
                           exit (atomic temp+rename); observational only —
                           output stays byte-identical with it on or off

follow mode (always-on service; requires --out-dir):
  --follow                 tail <input.tsv> for appended chunks and re-release
  --out-dir <dir>          directory for release-NNNN.tsv outputs
  --trigger-rows <n>       re-release after n new rows    (default: 4096)
  --poll-ms <n>            poll interval for appends      (default: 200)
  --idle-exit-ms <n>       flush + exit after n ms without new data
  --max-releases <n>       stop after n successful releases
  --lifetime-epsilon <v>   enforced lifetime epsilon across all releases
  --lifetime-delta <v>     enforced lifetime delta (with --lifetime-epsilon)
  --store-dir <dir>        durable crash-safe store: WAL-log every consumed
                           chunk, checkpoint shards, chain release manifests;
                           a restart recovers the exact session and ledger
  --checkpoint-rows <n>    checkpoint after n rows since the last checkpoint
                           (default: 65536; 0 = only on clean exit)
  --metrics-interval-ms <n>  while following, also re-export the --metrics-file
                           snapshot every n ms (default: final flush only)

  Every release covers the full stream ingested so far and is
  byte-identical to a one-shot run over the same prefix with the same
  seed. Releases compose: with a lifetime budget set, a release that
  would exceed it is refused and the service stops cleanly, state
  intact. fump needs an explicit --output-size here (auto would peek at
  the growing data).";

/// The default RNG seed — the repository-wide determinism convention.
const DEFAULT_SEED: u64 = 0xd95a_11ce;

struct Args {
    input: String,
    out: Option<String>,
    mechanism: String,
    e_epsilon: f64,
    delta: f64,
    min_support: f64,
    output_size: Option<u64>,
    zealous_cap: u64,
    zealous_coarse: u64,
    ldp_cap: u64,
    lp_budget: Option<usize>,
    seed: u64,
    /// `--shards`, `--chunk-rows` and `--jobs`; sketching stays off.
    stream: StreamConfig,
    stats: bool,
    follow: bool,
    out_dir: Option<String>,
    trigger_rows: u64,
    poll_ms: u64,
    idle_exit_ms: Option<u64>,
    max_releases: Option<u64>,
    lifetime_epsilon: Option<f64>,
    lifetime_delta: Option<f64>,
    store_dir: Option<String>,
    checkpoint_rows: u64,
    metrics_file: Option<String>,
    metrics_interval_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: String::new(),
        out: None,
        mechanism: "oump".into(),
        e_epsilon: 2.0,
        delta: 0.5,
        min_support: 0.05,
        output_size: None,
        zealous_cap: 8,
        zealous_coarse: 2,
        ldp_cap: 4,
        lp_budget: None,
        seed: DEFAULT_SEED,
        // the library defaults are the ones USAGE lists, except that
        // the drain gets one worker per core
        stream: StreamConfig {
            jobs: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            ..StreamConfig::default()
        },
        stats: false,
        follow: false,
        out_dir: None,
        trigger_rows: 4096,
        poll_ms: 200,
        idle_exit_ms: None,
        max_releases: None,
        lifetime_epsilon: None,
        lifetime_delta: None,
        store_dir: None,
        checkpoint_rows: 65536,
        metrics_file: None,
        metrics_interval_ms: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| -> Result<String, String> {
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--out" => args.out = Some(value("--out", &mut it)?),
            "--mechanism" => args.mechanism = value("--mechanism", &mut it)?,
            "--e-epsilon" => {
                args.e_epsilon = parse_num(&value("--e-epsilon", &mut it)?, "--e-epsilon")?
            }
            "--delta" => args.delta = parse_num(&value("--delta", &mut it)?, "--delta")?,
            "--min-support" => {
                args.min_support = parse_num(&value("--min-support", &mut it)?, "--min-support")?
            }
            "--output-size" => {
                let v = value("--output-size", &mut it)?;
                args.output_size = if v == "auto" {
                    None
                } else {
                    Some(v.parse().map_err(|e| format!("bad --output-size {v:?}: {e}"))?)
                };
            }
            "--zealous-cap" => {
                args.zealous_cap =
                    parse_count64(&value("--zealous-cap", &mut it)?, "--zealous-cap")?
            }
            "--zealous-coarse" => {
                args.zealous_coarse =
                    parse_count64(&value("--zealous-coarse", &mut it)?, "--zealous-coarse")?
            }
            "--ldp-cap" => {
                args.ldp_cap = parse_count64(&value("--ldp-cap", &mut it)?, "--ldp-cap")?
            }
            "--lp-budget" => {
                args.lp_budget = Some(parse_count(&value("--lp-budget", &mut it)?, "--lp-budget")?)
            }
            "--seed" => {
                args.seed =
                    value("--seed", &mut it)?.parse().map_err(|e| format!("bad --seed: {e}"))?
            }
            "--shards" => {
                args.stream.shards = parse_count(&value("--shards", &mut it)?, "--shards")?
            }
            "--chunk-rows" => {
                args.stream.chunk_rows =
                    parse_count(&value("--chunk-rows", &mut it)?, "--chunk-rows")?
            }
            "--jobs" => args.stream.jobs = parse_count(&value("--jobs", &mut it)?, "--jobs")?,
            "--stats" => args.stats = true,
            "--follow" => args.follow = true,
            "--out-dir" => args.out_dir = Some(value("--out-dir", &mut it)?),
            "--trigger-rows" => {
                args.trigger_rows =
                    parse_count64(&value("--trigger-rows", &mut it)?, "--trigger-rows")?
            }
            "--poll-ms" => {
                args.poll_ms = value("--poll-ms", &mut it)?
                    .parse()
                    .map_err(|e| format!("bad --poll-ms: {e}"))?
            }
            "--idle-exit-ms" => {
                args.idle_exit_ms = Some(
                    value("--idle-exit-ms", &mut it)?
                        .parse()
                        .map_err(|e| format!("bad --idle-exit-ms: {e}"))?,
                )
            }
            "--max-releases" => {
                args.max_releases =
                    Some(parse_count64(&value("--max-releases", &mut it)?, "--max-releases")?)
            }
            "--lifetime-epsilon" => {
                args.lifetime_epsilon =
                    Some(parse_num(&value("--lifetime-epsilon", &mut it)?, "--lifetime-epsilon")?)
            }
            "--lifetime-delta" => {
                args.lifetime_delta =
                    Some(parse_num(&value("--lifetime-delta", &mut it)?, "--lifetime-delta")?)
            }
            "--store-dir" => args.store_dir = Some(value("--store-dir", &mut it)?),
            "--metrics-file" => args.metrics_file = Some(value("--metrics-file", &mut it)?),
            "--metrics-interval-ms" => {
                args.metrics_interval_ms = Some(
                    value("--metrics-interval-ms", &mut it)?
                        .parse()
                        .map_err(|e| format!("bad --metrics-interval-ms: {e}"))?,
                )
            }
            "--checkpoint-rows" => {
                // 0 is legal here (checkpoint only on clean exit)
                args.checkpoint_rows = value("--checkpoint-rows", &mut it)?
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-rows: {e}"))?
            }
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            other => {
                if !args.input.is_empty() {
                    return Err(format!("unexpected extra input {other:?}"));
                }
                args.input = other.to_string();
            }
        }
    }
    if args.input.is_empty() {
        return Err("missing input file".into());
    }
    if !matches!(args.mechanism.as_str(), "oump" | "fump" | "dump" | "zealous" | "ldp-rr") {
        return Err(format!("unknown mechanism {:?}", args.mechanism));
    }
    if args.lp_budget.is_some() && args.mechanism != "oump" {
        return Err("--lp-budget only applies to --mechanism oump".into());
    }
    // numeric domains, mirrored from the library asserts so a typo
    // gets the usage path, not a panic + backtrace
    if !(args.e_epsilon.is_finite() && args.e_epsilon > 1.0) {
        return Err(format!("--e-epsilon must be > 1, got {}", args.e_epsilon));
    }
    if !(args.delta.is_finite() && args.delta > 0.0 && args.delta < 1.0) {
        return Err(format!("--delta must be in (0, 1), got {}", args.delta));
    }
    if !(args.min_support.is_finite() && args.min_support > 0.0 && args.min_support <= 1.0) {
        return Err(format!("--min-support must be in (0, 1], got {}", args.min_support));
    }
    if args.output_size == Some(0) {
        return Err("--output-size must be at least 1 (or auto)".into());
    }
    if args.follow {
        if args.out_dir.is_none() {
            return Err("--follow needs --out-dir".into());
        }
        if args.mechanism == "fump" && args.output_size.is_none() {
            return Err(
                "--follow with fump needs an explicit --output-size (auto would peek at the \
                 growing data)"
                    .into(),
            );
        }
        match (args.lifetime_epsilon, args.lifetime_delta) {
            (None, None) | (Some(_), Some(_)) => {}
            _ => return Err("--lifetime-epsilon and --lifetime-delta go together".into()),
        }
        if let Some(e) = args.lifetime_epsilon {
            if !(e.is_finite() && e >= 0.0) {
                return Err(format!("--lifetime-epsilon must be finite and >= 0, got {e}"));
            }
        }
        if let Some(d) = args.lifetime_delta {
            if !(d.is_finite() && (0.0..1.0).contains(&d)) {
                return Err(format!("--lifetime-delta must be in [0, 1), got {d}"));
            }
        }
    } else if args.out_dir.is_some() {
        return Err("--out-dir only makes sense with --follow".into());
    } else if args.store_dir.is_some() {
        return Err("--store-dir only makes sense with --follow".into());
    }
    if args.metrics_interval_ms.is_some() {
        if !args.follow {
            return Err("--metrics-interval-ms only makes sense with --follow".into());
        }
        if args.metrics_file.is_none() {
            return Err("--metrics-interval-ms needs --metrics-file".into());
        }
    }
    Ok(args)
}

fn parse_num(v: &str, flag: &str) -> Result<f64, String> {
    v.parse().map_err(|e| format!("bad {flag} {v:?}: {e}"))
}

fn parse_count(v: &str, flag: &str) -> Result<usize, String> {
    let n: usize = v.parse().map_err(|e| format!("bad {flag} {v:?}: {e}"))?;
    if n == 0 {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

fn parse_count64(v: &str, flag: &str) -> Result<u64, String> {
    parse_count(v, flag).map(|n| n as u64)
}

/// Build the selected mechanism: the same one for a one-shot run and
/// for every release of a follow session. `output_size` is the resolved
/// fump `|O|` (`Some` whenever the mechanism is fump).
fn build_mechanism(args: &Args, output_size: Option<u64>) -> Box<dyn Sanitizer> {
    match args.mechanism.as_str() {
        "oump" => Box::new(UmpSanitizer::new(UtilityObjective::OutputSize)),
        "dump" => {
            Box::new(UmpSanitizer::new(UtilityObjective::Diversity { solver: DumpSolver::Spe }))
        }
        "fump" => Box::new(UmpSanitizer::new(UtilityObjective::FrequentPairs {
            min_support: args.min_support,
            output_size: output_size.expect("fump output size resolved before building"),
        })),
        "zealous" => Box::new(ZealousSanitizer::with_options(ZealousOptions {
            contribution_cap: args.zealous_cap,
            coarse_threshold: args.zealous_coarse,
            candidates: None,
        })),
        "ldp-rr" => {
            Box::new(LdpSanitizer::with_options(LdpOptions { max_pairs_per_user: args.ldp_cap }))
        }
        _ => unreachable!("validated in parse_args"),
    }
}

/// `--output-size auto`: half the privacy-feasible maximum λ and at
/// least 1, or 0 — the empty release — when λ = 0. λ is the packing
/// route's feasible λ (≤ λ*), the one an oump release would use. The
/// solve goes through a session, so the exported solver series count
/// it.
fn auto_output_size(
    pre: &SearchLog,
    params: PrivacyParams,
) -> Result<u64, Box<dyn std::error::Error>> {
    let constraints = PrivacyConstraints::build(pre, params)?;
    let opts = OumpOptions { anytime: true, ..OumpOptions::default() };
    let lambda =
        SolveSession::new(SimplexOptions::default()).solve_oump(&constraints, &opts)?.lambda;
    Ok(if lambda == 0 { 0 } else { (lambda / 2).max(1) })
}

/// The always-on service: tail the input for appended chunks,
/// re-release on the event-count trigger, debit one lifetime ledger.
fn run_follow(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let params = PrivacyParams::from_e_epsilon(args.e_epsilon, args.delta);
    let opts = dpsan_serve::ServeOptions {
        stream: args.stream.clone(),
        params,
        seed: args.seed,
        trigger_rows: args.trigger_rows,
        poll: std::time::Duration::from_millis(args.poll_ms),
        idle_exit: args.idle_exit_ms.map(std::time::Duration::from_millis),
        max_releases: args.max_releases,
        lifetime: args.lifetime_epsilon.zip(args.lifetime_delta),
        out_dir: args.out_dir.as_deref().expect("validated in parse_args").into(),
        store: args.store_dir.as_deref().map(|dir| dpsan_serve::StoreConfig {
            dir: dir.into(),
            checkpoint_rows: args.checkpoint_rows,
        }),
        metrics_file: args.metrics_file.as_deref().map(Into::into),
        metrics_interval: args.metrics_interval_ms.map(std::time::Duration::from_millis),
    };
    let mechanism = build_mechanism(args, args.output_size);
    let report = dpsan_serve::serve(mechanism, std::path::Path::new(&args.input), &opts)?;

    if args.stats {
        if let Some(rec) = &report.recovery {
            // the summary line renders from the registry's recovery
            // gauges — the same series a --metrics-file export carries
            eprintln!("{}", dpsan_eval::stats_text::recovery_line(&dpsan_obs::global().snapshot()));
            for (generation, why) in &rec.rejected {
                eprintln!("recovery: rejected checkpoint {generation}: {why}");
            }
            for seq in &rec.unpublished {
                eprintln!(
                    "recovery: manifest {seq} has no published artifact (budget spent, \
                     output never escaped)"
                );
            }
        }
        eprintln!(
            "serve: releases={} rows={} mechanism={}",
            report.release_count, report.rows, args.mechanism,
        );
        for (rec, path) in report.releases.iter().zip(&report.paths) {
            eprintln!(
                "{}",
                dpsan_eval::stats_text::release_line(
                    rec.index,
                    rec.rows,
                    rec.latency,
                    &rec.solver,
                    rec.epsilon_total,
                    rec.delta_total,
                    path,
                )
            );
        }
        eprintln!("ledger: {}", report.ledger);
    }
    if let Some(msg) = report.budget_refusal {
        // a refusal is the ledger doing its job: report + clean exit
        eprintln!("sanitize: lifetime budget exhausted, stopping: {msg}");
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let params = PrivacyParams::from_e_epsilon(args.e_epsilon, args.delta);

    // 1. ingestion through the sharded engine, whose drain preprocesses
    let file = std::fs::File::open(&args.input).map_err(LogError::from)?;
    let mut session = IngestSession::new(args.stream.clone());
    session.ingest(std::io::BufReader::new(file))?;
    let ingested = session.finish_preprocessed();
    if args.stats {
        let r = &ingested.report;
        eprintln!(
            "ingest: rows={} shards={} peak_chunk_rows={} max_shard_triplets={}",
            r.rows, args.stream.shards, r.peak_chunk_rows, r.max_shard_triplets,
        );
    }

    // 2. the drain has preprocessed: single-holder pairs never reached
    //    a CSR. fump's auto output size refers to the preprocessed log,
    //    and preprocessing is idempotent + id-stable, so the mechanism's
    //    internal pass is a clone of `pre`
    let (pre, report) = (ingested.log, ingested.preprocess);
    if args.stats {
        eprintln!(
            "preprocess: removed_pairs={} removed_clicks={} kept_pairs={} kept_size={}",
            report.removed_pairs,
            report.removed_count,
            pre.n_pairs(),
            pre.size()
        );
    }

    let output_size = match (args.mechanism.as_str(), args.output_size) {
        ("fump", None) => Some(auto_output_size(&pre, params)?),
        (_, given) => given,
    };
    if args.stats && args.mechanism == "fump" {
        eprintln!(
            "fump: frequent_pairs={} output_size={}",
            frequent_pairs(&pre, args.min_support).len(),
            output_size.expect("resolved above"),
        );
    }
    let mechanism = build_mechanism(args, output_size);
    let release = mechanism.sanitize(&pre, params, args.seed)?;
    if args.stats {
        let info = mechanism.info();
        eprintln!(
            "sanitize: mechanism={} ({}) output_size={} output_pairs={} epsilon={:.6} delta={}",
            info.id,
            info.privacy,
            release.output.size(),
            release.output.n_pairs(),
            params.epsilon(),
            params.delta()
        );
        // always printed — all-zero for non-LP mechanisms, so scripted
        // consumers see one stable line per run instead of a missing one
        eprintln!("{}", dpsan_eval::stats_text::solver_line(&release.solver));
        if let Some(ub) = release.upper_bound {
            let lambda = release.counts.iter().sum();
            eprintln!("{}", dpsan_eval::stats_text::bound_line(lambda, ub));
        }
    }

    // 3. release: same schema as the input
    match &args.out {
        Some(path) => {
            let file = std::fs::File::create(path)?;
            let mut w = std::io::BufWriter::new(file);
            dpsan_searchlog::io::write_tsv(&release.output, &mut w)?;
            w.flush()?;
        }
        None => {
            let stdout = std::io::stdout();
            let mut w = stdout.lock();
            dpsan_searchlog::io::write_tsv(&release.output, &mut w)?;
            w.flush()?;
        }
    }

    // 4. telemetry export, after the release is on disk: purely
    //    observational, the output above is byte-identical with or
    //    without it (CI diffs this)
    if let Some(path) = &args.metrics_file {
        dpsan_obs::export::write_prometheus(
            std::path::Path::new(path),
            &dpsan_obs::global().snapshot(),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if args.follow { run_follow(&args) } else { run(&args) };
    if let Err(e) = outcome {
        eprintln!("sanitize: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
