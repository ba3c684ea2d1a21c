//! The tracked perf set: the solve hot path end to end.
//!
//! This bench is the one CI's `bench-smoke` job runs with
//! `DPSAN_BENCH_JSON=BENCH_pipeline.json`; every entry here is gated
//! against the committed baseline by `bench_gate` (>2× median
//! regression fails the build). Keep it quick — the grid sweeps use the
//! tiny dataset — and keep entry names stable: they are the JSON keys
//! the gate matches on.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use dpsan_core::constraints::PrivacyConstraints;
use dpsan_core::mechanism::{
    LdpSanitizer, Sanitizer, TriggerPolicy, UmpSanitizer, UtilityObjective, ZealousSanitizer,
};
use dpsan_core::session::SolveSession;
use dpsan_core::ump::frequent::FumpOptions;
use dpsan_core::ump::output_size::OumpOptions;
use dpsan_datagen::{generate, presets, write_log_tsv};
use dpsan_dp::params::PrivacyParams;
use dpsan_eval::{run_experiment, Ctx, Scale};
use dpsan_lp::factor::BasisFactor;
use dpsan_lp::problem::{Problem, Sense, VarBounds};
use dpsan_lp::simplex::SimplexOptions;
use dpsan_lp::sparse::CscMatrix;
use dpsan_searchlog::{preprocess, QueryId, SearchLog, UrlId};
use dpsan_serve::ServeSession;
use dpsan_store::wal::{append_record, WalRecord};
use dpsan_store::{DiskIo, DurableStore, StoreConfig};
use dpsan_stream::{ingest_tsv, IngestSession, PairSketch, StreamConfig};

/// The budget sweep used by the `oump_cold_sweep` bench: twelve
/// `(e^ε, δ)` cells with distinct, ascending collapsed budgets — about
/// the 13 distinct budgets of Table 4's 7×7 grid.
const SWEEP: [(f64, f64); 12] = [
    (1.1, 1e-2),
    (1.2, 0.05),
    (1.4, 0.1),
    (1.5, 0.15),
    (1.7, 0.2),
    (1.8, 0.25),
    (1.9, 0.3),
    (2.0, 0.35),
    (2.1, 0.4),
    (2.2, 0.45),
    (2.0, 0.5),
    (2.3, 0.8),
];

fn tiny_log() -> SearchLog {
    let (pre, _) = preprocess(&generate(&presets::aol_tiny()));
    pre
}

/// One full replay of the serve trace: ingest the whole trace, take
/// the cold first release, then append three rounds of recurring
/// traffic (lines resampled from the same trace, spread evenly so no
/// user's counts move violently) and re-release after each. Returns
/// the re-release latencies — the first release is excluded, and every
/// re-release is asserted to cost exactly one O-UMP solve on the
/// packing route (no simplex pivots), so the p50/p99 below track the
/// steady-state serving cost, not start-up.
fn serve_replay_latencies(trace: &str) -> Vec<Duration> {
    let lines: Vec<&str> = trace.lines().collect();
    let stream = StreamConfig { shards: 4, chunk_rows: 256, sketch_capacity: 0, jobs: 1 };
    let mut session = ServeSession::new(
        Box::new(UmpSanitizer::new(UtilityObjective::OutputSize)),
        stream,
        PrivacyParams::from_e_epsilon(2.0, 0.5),
        0xd95a_11ce,
        TriggerPolicy::manual(),
        None,
    );
    session.feed(trace.as_bytes()).expect("feed trace");
    session.release_now().expect("cold release");
    for round in 0..3usize {
        let chunk: String =
            lines.iter().skip(round).step_by(13).map(|l| format!("{l}\n")).collect();
        session.feed(chunk.as_bytes()).expect("feed append");
        session.release_now().expect("re-release");
    }
    let records = session.records();
    for r in &records[1..] {
        assert_eq!(
            (r.solver.solves, r.solver.iterations),
            (1, 0),
            "re-release {} is not one packing-route solve: {:?}",
            r.index,
            r.solver
        );
    }
    records[1..].iter().map(|r| r.latency).collect()
}

fn sweep_constraints(pre: &SearchLog) -> Vec<PrivacyConstraints> {
    SWEEP
        .iter()
        .map(|&(e, d)| PrivacyConstraints::build(pre, PrivacyParams::from_e_epsilon(e, d)).unwrap())
        .collect()
}

fn bench(c: &mut Criterion) {
    let pre = tiny_log();
    let constraints = sweep_constraints(&pre);
    let opts = OumpOptions::default();
    // every solve is cold, so one session per entry times the same work
    // as a fresh session per solve
    let session = || SolveSession::new(SimplexOptions::default());

    let mut g = c.benchmark_group("pipeline");

    g.bench_function("oump_cold_solve", |b| {
        let mut s = session();
        b.iter(|| s.solve_oump(&constraints[3], &opts).unwrap())
    });

    g.bench_function("oump_cold_sweep", |b| {
        let mut s = session();
        b.iter(|| {
            constraints.iter().map(|cons| s.solve_oump(cons, &opts).unwrap().lambda).sum::<u64>()
        })
    });

    g.bench_function("fump_cell", |b| {
        let params = PrivacyParams::from_e_epsilon(2.0, 0.5);
        let cons = PrivacyConstraints::build(&pre, params).unwrap();
        let mut s = session();
        let lambda = s.solve_oump(&cons, &opts).unwrap().lambda.max(2);
        let fopts = FumpOptions::new(0.02, lambda / 2);
        b.iter(|| s.solve_fump(&pre, &cons, &fopts).unwrap())
    });

    g.bench_function("zealous_release", |b| {
        // the full non-LP mechanism path: contribution capping, one
        // Laplace draw per surviving candidate, threshold filter,
        // pseudonymized rebuild
        let params = PrivacyParams::from_e_epsilon(2.0, 0.5);
        let mech = ZealousSanitizer::new();
        b.iter(|| mech.sanitize(&pre, params, 7).unwrap().output.size())
    });

    g.bench_function("ldp_rr_release", |b| {
        // the local-model path: one randomized-response draw per
        // (user, pair) bit — the O(users × pairs) report matrix
        let params = PrivacyParams::from_e_epsilon(2.0, 0.5);
        let mech = LdpSanitizer::new();
        b.iter(|| mech.sanitize(&pre, params, 7).unwrap().output.size())
    });

    g.bench_function("ingest_stream", |b| {
        // the sharded bounded-memory intake on a spooled tiny log:
        // chunked parse → user-hash shards → drain → deterministic
        // merge (one drain worker; the log fits in one chunk, so intake
        // stages it on the calling thread and starts no reader thread)
        let mut tsv = Vec::new();
        write_log_tsv(&presets::aol_tiny(), &mut tsv).expect("spool tiny log");
        let cfg = StreamConfig { shards: 8, jobs: 1, ..Default::default() };
        b.iter(|| {
            let r = ingest_tsv(std::io::Cursor::new(&tsv[..]), &cfg).unwrap();
            r.log.size()
        })
    });

    g.bench_function("ingest_20k", |b| {
        // intake at a realistic scale: the small preset scaled to 20k
        // users exactly the way `genlog --scale small --users 20000`
        // scales it (≈0.95M rows, generated once, untimed), ingested
        // the way `sanitize` ingests it for every mechanism — 16
        // shards, 8192-row chunks, no sketch: parse, url interning and
        // routing on the intake's reader thread, the rest of intake on
        // the calling thread, then the preprocessing drain (drop the
        // single-holder pairs, merge) on one worker
        let cfg = presets::with_users(dpsan_eval::Scale::Small.config(), 20_000);
        let mut tsv = Vec::new();
        write_log_tsv(&cfg, &mut tsv).expect("spool 20k-user log");
        let stream = StreamConfig { shards: 16, chunk_rows: 8 * 1024, sketch_capacity: 0, jobs: 1 };
        b.iter(|| {
            let mut session = IngestSession::new(stream.clone());
            session.ingest(std::io::Cursor::new(&tsv[..])).unwrap();
            session.finish_preprocessed().log.size()
        })
    });

    g.bench_function("sketch_merge", |b| {
        // merging 8 shard sketches at a capacity that forces real
        // evictions and subtraction rounds (the drain's merge step)
        let shard_sketches: Vec<PairSketch> = (0..8)
            .map(|s| {
                let mut sk = PairSketch::new(256);
                for i in 0..2_000u64 {
                    let q = (i * 7 + s * 13) % 600; // zipf-free but overlapping keys
                    sk.offer(QueryId(q as u32), UrlId((q % 40) as u32), 1 + i % 3);
                }
                sk
            })
            .collect();
        b.iter(|| {
            let mut merged = shard_sketches[0].clone();
            for sk in &shard_sketches[1..] {
                merged.merge(sk);
            }
            merged.len()
        })
    });

    g.bench_function("wal_append", |b| {
        // the durable-ingest hot path: one CRC-framed WAL record
        // (~1 KiB chunk) appended + fsynced through the production
        // DiskIo — the per-chunk latency every followed byte pays
        // before it may be ingested
        let dir = std::env::temp_dir().join(format!("dpsan-bench-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("bench wal dir");
        let path = dir.join("wal-00000000.log");
        let chunk: Vec<u8> = (0..16)
            .flat_map(|i| {
                format!("user{i:02}\tquery{}\tsite{}.net\t2\n", i % 5, i % 3).into_bytes()
            })
            .collect();
        let mut offset = 0u64;
        b.iter(|| {
            offset += chunk.len() as u64;
            append_record(
                &DiskIo,
                &path,
                &WalRecord { offset_after: offset, chunk: chunk.clone() },
            )
            .expect("wal append");
            offset
        });
        std::fs::remove_dir_all(&dir).expect("bench wal cleanup");
    });

    g.bench_function("store_resume", |b| {
        // crash-recovery latency: open a store holding one checkpoint
        // plus a WAL span and rebuild the exact ingest session
        // (checksum-verify the shard snapshots, scan + replay the WAL)
        // — the restart cost a durable daemon pays before serving
        let dir = std::env::temp_dir().join(format!("dpsan-bench-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stream = StreamConfig { shards: 4, chunk_rows: 64, sketch_capacity: 0, jobs: 1 };
        {
            let (mut store, recovered) = DurableStore::open(
                std::sync::Arc::new(DiskIo),
                StoreConfig { dir: dir.clone(), checkpoint_rows: 0 },
            )
            .expect("bench store open");
            let mut session = recovered.resume_session(stream.clone()).expect("fresh session");
            let mut tsv = Vec::new();
            write_log_tsv(&presets::aol_tiny(), &mut tsv).expect("spool tiny log");
            let text = String::from_utf8(tsv).expect("utf8");
            let lines: Vec<&str> = text.lines().collect();
            let mut offset = 0u64;
            for (i, chunk_lines) in lines.chunks(lines.len().div_ceil(8)).enumerate() {
                let chunk = chunk_lines.join("\n") + "\n";
                offset += chunk.len() as u64;
                store.log_chunk(offset, chunk.as_bytes()).expect("log chunk");
                session.ingest(std::io::Cursor::new(chunk.as_bytes())).expect("ingest");
                if i == 3 {
                    store.checkpoint(&session.export_state(), offset).expect("checkpoint");
                }
            }
        }
        b.iter(|| {
            let (_, recovered) = DurableStore::open(
                std::sync::Arc::new(DiskIo),
                StoreConfig { dir: dir.clone(), checkpoint_rows: 0 },
            )
            .expect("bench store reopen");
            let session: IngestSession = recovered.resume_session(stream.clone()).expect("resume");
            session.rows()
        });
        std::fs::remove_dir_all(&dir).expect("bench resume cleanup");
    });

    g.bench_function("metrics_hot_path", |b| {
        // the telemetry cost a single solve pays: one labeled-counter
        // increment plus one histogram record (the exact pair
        // SolveSession and the WAL/release paths emit). Gated so the
        // "observational only" contract stays cheap enough to be true —
        // if this entry regresses, every instrumented hot loop does.
        let solves =
            dpsan_obs::global().counter_with("dpsan_bench_solves_total", "path", "cold_primal");
        let lat = dpsan_obs::global()
            .histogram("dpsan_bench_solve_seconds", dpsan_obs::default_latency_bounds());
        let mut v = 1.0e-6f64;
        b.iter(|| {
            solves.inc();
            v = v.mul_add(1.0000001, 1.0e-9); // vary the sample a little
            lat.record(v);
            v
        })
    });

    g.bench_function("table4_tiny_end_to_end", |b| {
        // the full experiment (prefetch + render) on a prebuilt context;
        // fresh context per iteration so the caches start cold
        b.iter(|| {
            let ctx = Ctx::new(Scale::Tiny).with_jobs(1);
            let mut buf = Vec::new();
            run_experiment("table4", &ctx, &mut buf).unwrap();
            buf.len()
        })
    });

    // ---- the 10^5-user entries ----
    // Shared setup, built once and untimed: the tiny preset scaled to
    // 100k users exactly the way `genlog --scale tiny --users 100000`
    // scales it (vocabulary grows with the population so pair sharing
    // keeps its shape), preprocessed and compiled to the real O-UMP
    // constraint system. Everything below 512 rows takes the dense
    // route; `sparse_factor_100k` and `sparse_pivots_100k` are the only
    // tracked coverage of the sparse kernels at the scale they exist
    // for, and `oump_packing_100k` is what a production O-UMP pays there.
    let (big_cons, big_problem, big_matrix, big_basis) = {
        let cfg = presets::with_users(dpsan_eval::Scale::Tiny.config(), 100_000);
        let (pre, _) = preprocess(&generate(&cfg));
        let cons =
            PrivacyConstraints::build(&pre, PrivacyParams::from_e_epsilon(2.0, 0.5)).unwrap();
        // the standard-form matrix of the O-UMP LP: structural pair
        // columns plus one slack per user row
        let mut p = Problem::new(Sense::Maximize);
        let cols: Vec<usize> = (0..cons.n_pairs())
            .map(|pi| {
                p.add_col(1.0, VarBounds { lower: 0.0, upper: cons.pair_totals()[pi] as f64 })
                    .expect("valid column")
            })
            .collect();
        cons.add_to_problem(&mut p, &cols);
        let (m, n) = (p.n_rows(), p.n_cols());
        let mut trips = p.triplets().to_vec();
        for i in 0..m {
            trips.push((i, n + i, 1.0));
        }
        let a = CscMatrix::from_triplets(m, n + m, &trips);
        // a mixed structural/slack basis: each column claims its lowest
        // unclaimed row (CSC columns are row-sorted), leftover rows
        // keep their slack — nonsingular by construction and far
        // denser than the all-slack identity, so the factorization
        // entry measures real Markowitz work on the real matrix
        let mut owner = vec![usize::MAX; m];
        for j in 0..n {
            let (rows, vals) = a.col(j);
            if let (Some(&r), Some(&v)) = (rows.first(), vals.first()) {
                if owner[r] == usize::MAX && v.abs() > 1e-9 {
                    owner[r] = j;
                }
            }
        }
        let basis: Vec<usize> = owner
            .iter()
            .enumerate()
            .map(|(i, &j)| if j == usize::MAX { n + i } else { j })
            .collect();
        (cons, p, a, basis)
    };

    g.bench_function("sparse_factor_100k", |b| {
        // sparse LU (Markowitz) of a ~10^5-row basis of the real
        // 10^5-user constraint matrix; the dense kernel cannot appear
        // here at all — the explicit basis matrix alone is ~80 GB
        b.iter(|| BasisFactor::factor(&big_matrix, &big_basis).expect("nonsingular").lu_nnz())
    });

    g.bench_function("oump_packing_100k", |b| {
        // the production (anytime) O-UMP at scale: the packing solver
        // (transpose, 50 dual steps, greedy)
        let opts = OumpOptions { anytime: true, ..Default::default() };
        let mut session = session();
        b.iter(|| {
            let s = session.solve_oump(&big_cons, &opts).unwrap();
            (s.lambda, s.capped)
        })
    });

    g.bench_function("sparse_pivots_100k", |b| {
        // sparse pivot throughput at scale: a cold sparse-route simplex
        // on the same O-UMP LP, capped at 1000 iterations. The exact
        // O-UMP (`repro`), F-UMP and the D-UMP relaxations still pivot
        // on these kernels at ≥512 rows.
        let lp = SimplexOptions { max_iter: 1_000, ..SimplexOptions::default() };
        b.iter(|| {
            let s = dpsan_lp::simplex::solve(&big_problem, &lp).unwrap();
            (s.iterations, s.status)
        })
    });

    // serve re-release latency, reported as percentiles over a
    // replayed trace rather than an iter median: replays repeat until
    // the bench budget is spent, every re-release latency across all
    // replays pools into one sample set, and the p50/p99 of that set
    // are the tracked entries (the service's own --stats quotes the
    // same per-release latencies).
    {
        // the same recurring-traffic trace shape the serve equivalence
        // suite uses: one population, no new users or pairs after the
        // first window, so appends move counts only
        let cfg = dpsan_datagen::AolLikeConfig {
            n_users: 60,
            n_queries: 60,
            mean_events_per_user: 12.0,
            ..Default::default()
        };
        let mut tsv = Vec::new();
        write_log_tsv(&cfg, &mut tsv).expect("spool serve trace");
        let trace = String::from_utf8(tsv).expect("utf8 trace");
        let budget = Duration::from_millis(
            std::env::var("BENCH_BUDGET_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(200),
        );
        let started = std::time::Instant::now();
        let mut samples: Vec<Duration> = serve_replay_latencies(&trace);
        while started.elapsed() < budget && samples.len() < 10_000 {
            samples.extend(serve_replay_latencies(&trace));
        }
        samples.sort_unstable();
        let p50 = samples[samples.len() / 2];
        let p99 = samples[(samples.len() - 1).min(samples.len() * 99 / 100)];
        g.report_ns("serve_rerelease_p50", p50.as_nanos() as f64);
        g.report_ns("serve_rerelease_p99", p99.as_nanos() as f64);
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
