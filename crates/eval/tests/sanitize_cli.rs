//! Black-box CLI tests for the `sanitize` binary: malformed-input
//! fixtures must produce a line-numbered parse error and a nonzero
//! exit.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpsan-cli-{}-{name}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_sanitize(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sanitize")).args(args).output().expect("spawn sanitize")
}

#[test]
fn malformed_count_reports_line_number_and_fails() {
    let dir = scratch("badcount");
    let input = dir.join("bad.tsv");
    let out = dir.join("out.tsv");
    fs::write(&input, "u1\tq\tl\t1\nu2\tq\tl\tnotanumber\n").unwrap();

    let o = run_sanitize(&[input.to_str().unwrap(), "--out", out.to_str().unwrap()]);
    assert!(!o.status.success(), "malformed count must exit nonzero");
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(stderr.contains("line 2"), "stderr should name the offending line, got: {stderr}");
    assert!(stderr.contains("notanumber"), "stderr should quote the bad field, got: {stderr}");
    assert!(!out.exists(), "no output written on parse error");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn short_record_and_zero_count_fail_with_line_numbers() {
    let dir = scratch("shortrec");
    let out = dir.join("out.tsv");

    let short = dir.join("short.tsv");
    fs::write(&short, "u1\tq\tl\t1\nu2\tq-only\n").unwrap();
    let o = run_sanitize(&[short.to_str().unwrap(), "--out", out.to_str().unwrap()]);
    assert!(!o.status.success());
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(stderr.contains("line 2"), "got: {stderr}");

    let zero = dir.join("zero.tsv");
    fs::write(&zero, "u1\tq\tl\t0\n").unwrap();
    let o = run_sanitize(&[zero.to_str().unwrap(), "--out", out.to_str().unwrap()]);
    assert!(!o.status.success());
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(stderr.contains("line 1"), "got: {stderr}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn well_formed_input_sanitizes_cleanly() {
    let dir = scratch("good");
    let input = dir.join("good.tsv");
    let out = dir.join("out.tsv");
    let mut body = String::new();
    for u in 0..8 {
        body.push_str(&format!("u{u}\trust lang\trust-lang.org\t3\n"));
        body.push_str(&format!("u{u}\tweather\tweather.com\t2\n"));
    }
    fs::write(&input, body).unwrap();

    let o = run_sanitize(&[
        input.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--e-epsilon",
        "2.0",
        "--delta",
        "0.5",
    ]);
    assert!(o.status.success(), "stderr: {}", String::from_utf8_lossy(&o.stderr));
    let released = fs::read_to_string(&out).unwrap();
    for line in released.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        assert_eq!(fields.len(), 4, "output keeps the input schema: {line}");
        assert!(fields[3].parse::<u64>().unwrap() >= 1);
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn follow_mode_flag_validation() {
    // --follow without --out-dir is a usage error, not a hang.
    let o = run_sanitize(&["/nonexistent.tsv", "--follow"]);
    assert!(!o.status.success());
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(stderr.contains("--out-dir"), "got: {stderr}");

    // --out-dir without --follow is rejected too.
    let o = run_sanitize(&["/nonexistent.tsv", "--out-dir", "/tmp/x", "--out", "/tmp/y"]);
    assert!(!o.status.success());
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(stderr.contains("--follow"), "got: {stderr}");
}

/// Production O-UMP answers on the packing route at every size: no
/// simplex pivots, reported as capped, with a certified bound. The
/// `--lp-budget` flag is still accepted and changes nothing.
#[test]
fn oump_answers_on_the_packing_route_whatever_the_lp_budget() {
    let dir = scratch("packing");
    let input = dir.join("tiny.tsv");
    let o = Command::new(env!("CARGO_BIN_EXE_genlog"))
        .args(["--scale", "tiny", "--out", input.to_str().unwrap()])
        .output()
        .expect("spawn genlog");
    assert!(o.status.success(), "stderr: {}", String::from_utf8_lossy(&o.stderr));
    let release = |name: &str, budget: &[&str]| {
        let out = dir.join(name);
        let mut args = vec![input.to_str().unwrap(), "--mechanism", "oump", "--stats", "--out"];
        args.push(out.to_str().unwrap());
        args.extend_from_slice(budget);
        let o = run_sanitize(&args);
        assert!(o.status.success(), "stderr: {}", String::from_utf8_lossy(&o.stderr));
        (fs::read(&out).expect("release written"), String::from_utf8_lossy(&o.stderr).into_owned())
    };
    let (plain, stderr) = release("plain.tsv", &[]);
    let solver = stderr.lines().find(|l| l.starts_with("solver: ")).expect("solver line");
    assert_eq!(solver, "solver: solves=1 iterations=0 refactorizations=0 capped=1");
    assert!(stderr.lines().any(|l| l.starts_with("bound: ")), "got: {stderr}");
    assert!(!plain.is_empty(), "the tiny release must not be empty");
    for budget in ["1", "3"] {
        let (bytes, _) = release(&format!("b{budget}.tsv"), &["--lp-budget", budget]);
        assert!(bytes == plain, "--lp-budget {budget} changed the release");
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_print_the_certified_bound_for_oump_releases_only() {
    let dir = scratch("bound");
    let input = dir.join("tiny.tsv");
    let o = Command::new(env!("CARGO_BIN_EXE_genlog"))
        .args(["--scale", "tiny", "--out", input.to_str().unwrap()])
        .output()
        .expect("spawn genlog");
    assert!(o.status.success(), "stderr: {}", String::from_utf8_lossy(&o.stderr));
    let out = dir.join("out.tsv");
    let stats = |mechanism: &str| {
        let o = run_sanitize(&[
            input.to_str().unwrap(),
            "--mechanism",
            mechanism,
            "--stats",
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(o.status.success(), "stderr: {}", String::from_utf8_lossy(&o.stderr));
        String::from_utf8_lossy(&o.stderr).into_owned()
    };
    let oump = stats("oump");
    let line = oump.lines().find(|l| l.starts_with("bound: ")).expect("bound line");
    let field = |key: &str| -> f64 {
        let kv = line.split(' ').find(|kv| kv.starts_with(key)).expect(key);
        kv[key.len()..].parse().expect("numeric field")
    };
    let (lambda, ub, gap) = (field("lambda="), field("upper_bound="), field("gap="));
    assert!(lambda > 0.0 && lambda <= ub, "got: {line}");
    assert!((0.0..1.0).contains(&gap), "got: {line}");
    assert!(oump.contains(&format!(" output_size={lambda} ")), "λ is the released size: {oump}");
    assert!(!stats("zealous").contains("bound: "), "no O-UMP bound for zealous");
    fs::remove_dir_all(&dir).ok();
}

/// `fump --output-size auto` solves two LPs — the O-UMP that sizes the
/// release and the F-UMP itself — and the exported solver series must
/// count both.
#[test]
fn metrics_count_the_auto_output_size_solve() {
    let dir = scratch("fumpsolves");
    let input = dir.join("tiny.tsv");
    let o = Command::new(env!("CARGO_BIN_EXE_genlog"))
        .args(["--scale", "tiny", "--out", input.to_str().unwrap()])
        .output()
        .expect("spawn genlog");
    assert!(o.status.success(), "stderr: {}", String::from_utf8_lossy(&o.stderr));
    let out = dir.join("out.tsv");
    let prom = dir.join("m.prom");
    let o = run_sanitize(&[
        input.to_str().unwrap(),
        "--mechanism",
        "fump",
        "--min-support",
        "0.01",
        "--out",
        out.to_str().unwrap(),
        "--metrics-file",
        prom.to_str().unwrap(),
    ]);
    assert!(o.status.success(), "stderr: {}", String::from_utf8_lossy(&o.stderr));
    let text = fs::read_to_string(&prom).expect("metrics file written");
    let solves: u64 = text
        .lines()
        .filter(|l| l.starts_with("dpsan_solves_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().expect("integer sample"))
        .sum();
    assert_eq!(solves, 2, "one auto-|O| O-UMP solve plus the F-UMP solve:\n{text}");
    fs::remove_dir_all(&dir).ok();
}

/// A log whose every pair is unique (or which is empty) preprocesses to
/// nothing, so λ = 0: every mechanism releases an empty log, fump's
/// `--output-size auto` included. An explicit size above λ stays an
/// error.
#[test]
fn every_mechanism_releases_nothing_when_lambda_is_zero() {
    let dir = scratch("lambda0");
    let unique = dir.join("unique.tsv");
    fs::write(&unique, "u1\tq1\tl1\t3\nu2\tq2\tl2\t4\n").unwrap();
    let empty = dir.join("empty.tsv");
    fs::write(&empty, "").unwrap();
    for input in [&unique, &empty] {
        for mech in ["oump", "fump", "dump", "zealous", "ldp-rr"] {
            let out = dir.join(format!("{mech}.tsv"));
            let o = run_sanitize(&[
                input.to_str().unwrap(),
                "--mechanism",
                mech,
                "--out",
                out.to_str().unwrap(),
            ]);
            assert!(
                o.status.success(),
                "{mech} on {input:?}: {}",
                String::from_utf8_lossy(&o.stderr)
            );
            assert_eq!(fs::read(&out).unwrap(), b"", "{mech} on {input:?} releases nothing");
        }
    }
    let o = run_sanitize(&[unique.to_str().unwrap(), "--mechanism", "fump", "--output-size", "1"]);
    assert!(!o.status.success());
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(stderr.contains("exceeds the privacy-feasible maximum"), "got: {stderr}");
    fs::remove_dir_all(&dir).ok();
}

/// Write the tiny preset log into `dir` and return its path.
fn tiny_log(dir: &std::path::Path) -> PathBuf {
    let input = dir.join("tiny.tsv");
    let o = Command::new(env!("CARGO_BIN_EXE_genlog"))
        .args(["--scale", "tiny", "--out", input.to_str().unwrap()])
        .output()
        .expect("spawn genlog");
    assert!(o.status.success(), "stderr: {}", String::from_utf8_lossy(&o.stderr));
    input
}

/// The value of an unlabelled series in a Prometheus-text export.
fn sample(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{series} missing:\n{text}"))
        .parse()
        .expect("numeric sample")
}

/// One follow-mode release debits the ledger once: the exported spend
/// counter equals the release counter, whatever the mechanism, and the
/// `serve:` stat line counts every input row.
#[test]
fn follow_release_counts_each_budget_spend_once() {
    let dir = scratch("spends");
    let input = tiny_log(&dir);
    let rows = fs::read_to_string(&input).unwrap().lines().count();
    for mech in ["oump", "zealous"] {
        let out_dir = dir.join(format!("out-{mech}"));
        let prom = dir.join(format!("{mech}.prom"));
        let o = run_sanitize(&[
            input.to_str().unwrap(),
            "--mechanism",
            mech,
            "--follow",
            "--out-dir",
            out_dir.to_str().unwrap(),
            "--idle-exit-ms",
            "300",
            "--metrics-file",
            prom.to_str().unwrap(),
            "--stats",
        ]);
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert!(o.status.success(), "{mech}: {stderr}");
        let serve_line = format!("serve: releases=1 rows={rows} mechanism={mech}");
        assert!(stderr.lines().any(|l| l == serve_line), "{mech}: want {serve_line:?}:\n{stderr}");
        let text = fs::read_to_string(&prom).expect("metrics file written");
        assert_eq!(sample(&text, "dpsan_releases_total"), 1.0, "{mech}:\n{text}");
        assert_eq!(sample(&text, "dpsan_budget_spends_total"), 1.0, "{mech}:\n{text}");
    }
    fs::remove_dir_all(&dir).ok();
}

/// After a `--store-dir` restart the `serve:` stat line counts the whole
/// stream on both keys: the restored release and rows as well as this
/// process's.
#[test]
fn serve_line_counts_the_whole_stream_after_a_restart() {
    let dir = scratch("restart");
    let full = fs::read_to_string(tiny_log(&dir)).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    let input = dir.join("growing.tsv");
    let store = dir.join("store");
    let follow = |text: String| {
        fs::write(&input, text).unwrap();
        let o = run_sanitize(&[
            input.to_str().unwrap(),
            "--follow",
            "--out-dir",
            dir.join("out").to_str().unwrap(),
            "--store-dir",
            store.to_str().unwrap(),
            "--idle-exit-ms",
            "200",
            "--stats",
        ]);
        let stderr = String::from_utf8_lossy(&o.stderr).into_owned();
        assert!(o.status.success(), "{stderr}");
        stderr
    };
    let fresh = follow(lines[..600].iter().map(|l| format!("{l}\n")).collect());
    let want = "serve: releases=1 rows=600 mechanism=oump";
    assert!(fresh.lines().any(|l| l == want), "fresh run: want {want:?}:\n{fresh}");
    let restarted = follow(full.clone());
    let want = format!("serve: releases=2 rows={} mechanism=oump", lines.len());
    assert!(restarted.lines().any(|l| l == want), "restart: want {want:?}:\n{restarted}");
    assert!(
        restarted.lines().any(|l| l.starts_with("release[2]: ")),
        "restart: its one release is the stream's second:\n{restarted}"
    );
    fs::remove_dir_all(&dir).ok();
}

/// A lifetime budget smaller than one release's ε refuses the first
/// release: a clean exit that publishes nothing and records no manifest.
#[test]
fn lifetime_budget_refuses_the_first_release_cleanly() {
    let dir = scratch("lifetime");
    let input = tiny_log(&dir);
    for mech in ["oump", "zealous"] {
        let out_dir = dir.join(format!("out-{mech}"));
        let store = dir.join(format!("store-{mech}"));
        let prom = dir.join(format!("{mech}.prom"));
        let o = run_sanitize(&[
            input.to_str().unwrap(),
            "--mechanism",
            mech,
            "--follow",
            "--out-dir",
            out_dir.to_str().unwrap(),
            "--store-dir",
            store.to_str().unwrap(),
            "--idle-exit-ms",
            "200",
            "--lifetime-epsilon",
            "0.5",
            "--lifetime-delta",
            "0.9",
            "--metrics-file",
            prom.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert!(o.status.success(), "{mech}: a refusal is a clean stop: {stderr}");
        assert!(stderr.contains("lifetime budget exhausted"), "{mech}: {stderr}");
        let released: Vec<_> = fs::read_dir(&out_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("release-"))
            .collect();
        assert!(released.is_empty(), "{mech}: nothing is published: {released:?}");
        let manifests = fs::read_dir(store.join("releases")).map_or(0, |d| d.count());
        assert_eq!(manifests, 0, "{mech}: no manifest is recorded");
        let text = fs::read_to_string(&prom).expect("metrics file written");
        assert_eq!(sample(&text, "dpsan_budget_refusals_total"), 1.0, "{mech}:\n{text}");
    }
    fs::remove_dir_all(&dir).ok();
}
