//! `pbdriver` — the traced half of the end-to-end benchmark.
//!
//! Each run subcommand calls the same public library functions, in the
//! same order and with the same settings, as the shipped binary it
//! mirrors, and records a span around every call. Spans and counts stay
//! in memory and are written as JSON when the run ends:
//!
//! ```text
//! pbdriver oump    --input in.tsv --out rel.tsv --seed N --lp-budget N --jobs N --spans s.json
//! pbdriver zealous --input in.tsv --out rel.tsv --seed N --jobs N --spans s.json
//! pbdriver follow  --input in.tsv --out-dir D --store-dir D --seed N --jobs N --trigger-rows N \
//!                  --poll-ms N --idle-exit-ms N --checkpoint-rows N --spans s.json
//! pbdriver repro   --scale small --jobs N --out tables.txt --spans s.json table4 fig3a
//! pbdriver check   --input in.tsv --release rel.tsv
//! ```
//!
//! `oump`/`zealous` mirror one-shot `sanitize --mechanism …`, `follow`
//! mirrors the body of the `serve()` loop behind `sanitize --follow
//! --store-dir …`, and `repro` mirrors the `repro` binary. `check` is
//! the benchmark's independent check of an O-UMP release: it re-reads
//! the released TSV, requires four columns over the input vocabulary,
//! and runs the Theorem-1 check (`verify_counts`) on the per-pair
//! released counts against constraints built from the input.

use std::collections::BTreeMap;
use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpsan_core::mechanism::{
    Sanitizer, TriggerPolicy, UmpSanitizer, UtilityObjective, ZealousOptions, ZealousSanitizer,
};
use dpsan_core::sampling::sample_output;
use dpsan_core::ump::output_size::OumpOptions;
use dpsan_core::ump::verify_counts;
use dpsan_core::{PrivacyConstraints, SessionStats, SolveSession};
use dpsan_dp::multinomial::MultinomialStrategy;
use dpsan_dp::params::PrivacyParams;
use dpsan_eval::{run_experiment, Ctx, Scale};
use dpsan_lp::simplex::SimplexOptions;
use dpsan_searchlog::io::{read_tsv, write_tsv};
use dpsan_searchlog::{preprocess, QueryId, UrlId};
use dpsan_serve::{FollowReader, ServeSession};
use dpsan_store::{rebuild_ledger, DiskIo, DurableStore, StoreConfig};
use dpsan_stream::{sketch_frequent_pairs, IngestSession, StreamConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Res<T> = Result<T, Box<dyn Error>>;

/// `sanitize`'s defaults, which every benchmark run keeps.
const E_EPSILON: f64 = 2.0;
const DELTA: f64 = 0.5;
const SHARDS: usize = 16;
const CHUNK_ROWS: usize = 8192;
const ZEALOUS_SKETCH: usize = 4096;
const ZEALOUS_CAP: u64 = 8;
const ZEALOUS_COARSE: u64 = 2;

/// One recorded span: seconds since the run started, and the index of
/// the span that was open when it began.
struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span and count recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, f64>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn begin(&mut self, name: &str) {
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name: name.to_string(), start, end: start, parent });
        self.open.push(self.spans.len() - 1);
    }

    fn end(&mut self) {
        let idx = self.open.pop().expect("end() without begin()");
        self.spans[idx].end = self.now();
    }

    fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    fn add(&mut self, name: &str, v: f64) {
        *self.counts.entry(name.to_string()).or_insert(0.0) += v;
    }

    fn set(&mut self, name: &str, v: f64) {
        self.counts.insert(name.to_string(), v);
    }

    fn add_solver(&mut self, s: &SessionStats) {
        self.add("lp.solves", s.solves as f64);
        self.add("lp.iterations", s.iterations as f64);
        self.add("lp.refactorizations", s.refactorizations as f64);
        self.add("core.warm_kept", s.warm_starts as f64);
        self.add("core.warm_vetoed", s.degenerate_fallbacks as f64);
    }

    fn write(&self, path: &Path) -> Res<()> {
        let mut s = String::from("{\"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "{{\"name\": \"{}\", \"start\": {:.9}, \"end\": {:.9}, \"parent\": {parent}}}",
                sp.name, sp.start, sp.end
            ));
        }
        s.push_str("], \"counts\": {");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{k}\": {v}"));
        }
        s.push_str("}}\n");
        std::fs::write(path, s)?;
        Ok(())
    }
}

/// `--flag value` pairs plus positional arguments.
struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Res<Args> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.insert(name.to_string(), v.clone());
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { flags, positional })
    }

    fn str(&self, name: &str) -> Res<&str> {
        self.flags.get(name).map(String::as_str).ok_or_else(|| format!("missing --{name}").into())
    }

    fn path(&self, name: &str) -> Res<PathBuf> {
        Ok(PathBuf::from(self.str(name)?))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Res<T>
    where
        T::Err: std::fmt::Display,
    {
        let v = self.str(name)?;
        v.parse().map_err(|e| format!("bad --{name} {v:?}: {e}").into())
    }
}

fn params() -> PrivacyParams {
    PrivacyParams::from_e_epsilon(E_EPSILON, DELTA)
}

/// One-shot `sanitize --mechanism oump|zealous`: `run()` in the binary.
fn one_shot(args: &Args, zealous: bool) -> Res<()> {
    let input = args.path("input")?;
    let out = args.path("out")?;
    let seed: u64 = args.num("seed")?;
    let jobs: usize = args.num("jobs")?;
    let mut t = Tracer::new();
    t.begin("run");

    let cfg = StreamConfig {
        shards: SHARDS,
        chunk_rows: CHUNK_ROWS,
        sketch_capacity: if zealous { ZEALOUS_SKETCH } else { 0 },
        jobs,
    };
    let mut ingest = IngestSession::new(cfg);
    let rows = t.span("stream.intake", || -> Res<u64> {
        Ok(ingest.ingest(BufReader::new(File::open(&input)?))?)
    })?;
    t.add("stream.rows", rows as f64);
    let merged = t.span("stream.merge", || ingest.finish());
    let (pre, _) = t.span("searchlog.preprocess", || preprocess(&merged.log));
    t.set("searchlog.kept_pairs", pre.n_pairs() as f64);

    let output = if zealous {
        // build_mechanism(): coarse-phase candidates mined from the
        // sketch at support tau'/|D|, then the mechanism itself
        let candidates = match &merged.sketch {
            Some(sk) if pre.size() > 0 => {
                let support =
                    (ZEALOUS_COARSE as f64 / pre.size() as f64).clamp(f64::MIN_POSITIVE, 1.0);
                Some(t.span("stream.sketch_mine", || sketch_frequent_pairs(&pre, sk, support)))
            }
            _ => None,
        };
        let mechanism = ZealousSanitizer::with_options(ZealousOptions {
            contribution_cap: ZEALOUS_CAP,
            coarse_threshold: ZEALOUS_COARSE,
            candidates,
        });
        t.span("core.mechanism", || mechanism.sanitize(&pre, params(), seed))?.output
    } else {
        // UmpSanitizer::sanitize_into() with an LP iteration budget:
        // preprocessing again (idempotent), constraints, anytime solve
        // through a fresh session, Theorem-1 check, sampling
        let lp_budget: usize = args.num("lp-budget")?;
        let (pre2, _) = t.span("searchlog.preprocess", || preprocess(&pre));
        let constraints =
            t.span("core.constraints", || PrivacyConstraints::build(&pre2, params()))?;
        let lp = SimplexOptions { max_iter: lp_budget, ..SimplexOptions::default() };
        let mut session = SolveSession::new(lp.clone());
        let opts = OumpOptions { lp, anytime: true, ..OumpOptions::default() };
        let sol = t.span("lp.solve", || session.solve_oump(&constraints, &opts))?;
        t.add_solver(&session.stats());
        t.span("core.verify", || verify_counts(&constraints, &sol.counts))?;
        let mut rng = StdRng::seed_from_u64(seed);
        t.span("core.sample", || {
            sample_output(&mut rng, &pre2, &sol.counts, MultinomialStrategy::Auto)
        })
    };

    t.span("searchlog.write", || -> Res<()> {
        let mut w = BufWriter::new(File::create(&out)?);
        write_tsv(&output, &mut w)?;
        w.flush()?;
        Ok(())
    })?;
    t.end();
    t.write(&args.path("spans")?)
}

/// `sanitize --follow --store-dir … --mechanism oump`: the `serve()`
/// loop of `dpsan-serve`, call for call.
fn follow(args: &Args) -> Res<()> {
    let input = args.path("input")?;
    let out_dir = args.path("out-dir")?;
    let store_dir = args.path("store-dir")?;
    let seed: u64 = args.num("seed")?;
    let jobs: usize = args.num("jobs")?;
    let trigger_rows: u64 = args.num("trigger-rows")?;
    let poll = Duration::from_millis(args.num("poll-ms")?);
    let idle_exit = Duration::from_millis(args.num("idle-exit-ms")?);
    let checkpoint_rows: u64 = args.num("checkpoint-rows")?;
    let mut t = Tracer::new();
    t.begin("run");

    std::fs::create_dir_all(&out_dir)?;
    let stream = StreamConfig { shards: SHARDS, chunk_rows: CHUNK_ROWS, sketch_capacity: 0, jobs };
    let (mut store, recovered, ingest) = t.span("store.open", || -> Res<_> {
        let (store, recovered) = DurableStore::open(
            Arc::new(DiskIo),
            StoreConfig { dir: store_dir.clone(), checkpoint_rows },
        )?;
        let ingest = recovered.resume_session(stream.clone())?;
        Ok((store, recovered, ingest))
    })?;
    let ledger = rebuild_ledger(&recovered.manifests, None);
    let released_rows = recovered.manifests.last().map_or(0, |m| m.rows);
    let mechanism: Box<dyn Sanitizer> = Box::new(UmpSanitizer::new(UtilityObjective::OutputSize));
    let mut session = ServeSession::restore(
        mechanism,
        ingest,
        params(),
        seed,
        TriggerPolicy::every_rows(trigger_rows),
        ledger,
        recovered.manifests.len() as u64,
        released_rows,
    );
    let mut reader = FollowReader::open_at(&input, recovered.input_offset)?;
    let mut last_data = Instant::now();

    loop {
        let polled = t.span("serve.poll", || reader.poll())?;
        if let Ok(meta) = std::fs::metadata(&input) {
            dpsan_serve::obs::follow_lag_bytes()
                .set(meta.len().saturating_sub(reader.consumed()) as f64);
        }
        if let Some(chunk) = polled {
            let consumed = reader.consumed();
            t.span("store.log_chunk", || store.log_chunk(consumed, &chunk))?;
            let added = t.span("serve.feed", || session.feed(chunk.as_slice()))?;
            if store.note_rows(added) {
                t.span("store.checkpoint", || store.checkpoint(&session.ingest_state(), consumed))?;
            }
            last_data = Instant::now();
        }
        if session.due() {
            publish(&mut t, &mut session, &mut store, &out_dir)?;
            continue;
        }
        if last_data.elapsed() >= idle_exit {
            if session.pending_rows() > 0 && session.rows() > 0 {
                publish(&mut t, &mut session, &mut store, &out_dir)?;
            }
            break;
        }
        dpsan_serve::obs::heartbeats_total().inc();
        dpsan_obs::trace::event(
            dpsan_obs::trace::Level::Debug,
            "serve",
            "heartbeat",
            &[("pending_rows", session.pending_rows().to_string())],
        );
        t.span("serve.idle", || std::thread::sleep(poll));
    }
    if session.rows() > 0 {
        let consumed = reader.consumed();
        t.span("store.checkpoint", || store.checkpoint(&session.ingest_state(), consumed))?;
    }
    for rec in session.records() {
        t.add_solver(&rec.solver);
    }
    t.set("serve.releases", session.releases() as f64);
    t.end();
    t.write(&args.path("spans")?)
}

/// `write_release()` of `dpsan-serve`: release, render, manifest first,
/// then publish by rename.
fn publish(
    t: &mut Tracer,
    session: &mut ServeSession,
    store: &mut DurableStore,
    out_dir: &Path,
) -> Res<()> {
    let entries_before = session.ledger().entries().len();
    let release = t.span("serve.release", || session.release_now())?;
    t.set("searchlog.kept_pairs", release.reference.n_pairs() as f64);
    let mut bytes = Vec::new();
    t.span("searchlog.write", || write_tsv(&release.output, &mut bytes))?;
    let spent = session.ledger().entries()[entries_before..].to_vec();
    let rows = session.rows();
    t.span("store.record_release", || store.record_release(&spent, rows, &bytes))?;
    let index = session.releases();
    t.span("serve.publish", || -> Res<()> {
        let path = out_dir.join(format!("release-{index:04}.tsv"));
        let tmp = out_dir.join(format!(".release-{index:04}.tsv.tmp"));
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        Ok(())
    })?;
    // the rows each release covers, in the daemon's `--stats` shape
    eprintln!("release[{index}]: rows={rows}");
    Ok(())
}

/// The `repro` binary: one context, then each experiment in order, each
/// rendered table followed by a blank line.
fn repro(args: &Args) -> Res<()> {
    let scale = Scale::parse(args.str("scale")?).ok_or("unknown --scale")?;
    let jobs: usize = args.num("jobs")?;
    let mut t = Tracer::new();
    t.begin("run");
    let ctx = t.span("eval.ctx", || Ctx::new(scale).with_jobs(jobs));
    let mut out = Vec::new();
    for name in &args.positional {
        let mut buf = Vec::new();
        t.span(&format!("eval.{name}"), || run_experiment(name, &ctx, &mut buf))?;
        out.extend_from_slice(&buf);
        out.push(b'\n');
        t.add_solver(&ctx.take_solve_stats());
    }
    std::fs::write(args.path("out")?, &out)?;
    t.end();
    t.write(&args.path("spans")?)
}

/// Independent check of an O-UMP release against its input.
fn check(args: &Args) -> Res<()> {
    let raw = read_tsv(BufReader::new(File::open(args.path("input")?)?))?;
    let (pre, _) = preprocess(&raw);
    let constraints = PrivacyConstraints::build(&pre, params())?;
    let text = std::fs::read_to_string(args.path("release")?)?;
    let mut counts = vec![0u64; pre.n_pairs()];
    let (mut rows, mut total) = (0u64, 0u64);
    for (i, line) in text.lines().enumerate() {
        let bad = |why: &str| format!("release line {}: {why}", i + 1);
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 4 {
            return Err(bad(&format!("{} columns, want 4", f.len())).into());
        }
        raw.users().get(f[0]).ok_or_else(|| bad("user not in the input"))?;
        let q = pre.queries().get(f[1]).ok_or_else(|| bad("query not in the input"))?;
        let u = pre.urls().get(f[2]).ok_or_else(|| bad("url not in the input"))?;
        let p = pre
            .pair_id(QueryId(q), UrlId(u))
            .ok_or_else(|| bad("pair not in the preprocessed input"))?;
        let c: u64 = f[3].parse().map_err(|_| bad("count is not a whole number"))?;
        if c == 0 {
            return Err(bad("zero count").into());
        }
        counts[p.index()] += c;
        rows += 1;
        total += c;
    }
    verify_counts(&constraints, &counts)?;
    let pairs = counts.iter().filter(|&&c| c > 0).count();
    println!("{{\"released_size\": {total}, \"release_rows\": {rows}, \"pairs\": {pairs}}}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: pbdriver oump|zealous|follow|repro|check [--flag value]...");
        return ExitCode::FAILURE;
    };
    let outcome = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "oump" => one_shot(&args, false),
        "zealous" => one_shot(&args, true),
        "follow" => follow(&args),
        "repro" => repro(&args),
        "check" => check(&args),
        other => Err(format!("unknown subcommand {other:?}").into()),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pbdriver {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
