#!/usr/bin/env python3
"""End-to-end benchmark of the dpsan sanitization binaries.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oump_20k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

It builds `sanitize`, `genlog`, `repro` (crate dpsan-eval) and the
benchmark's own driver (perfbench/driver) in release mode, generates the
workload's input from `--seed` outside the timed region, and then:

* `--trace 0` runs the shipped binaries for `--seconds` seconds, checks
  every release, and prints each end-to-end metric with its unit;
* `--trace 1` runs the workload once through the binary and once through
  the driver, which makes the same library calls with a span around each,
  requires identical release bytes, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every output check passed. Workloads, metrics and their definitions
are described in perfbench/README.md.
"""

import argparse
import bisect
import ctypes
import ctypes.util
import hashlib
import json
import math
import os
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("oump_20k", "zealous_20k", "follow_200", "repro_small")

JOBS = 2
USERS_20K = 20000
LP_BUDGET = 2000
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

FOLLOW_USERS = 200
CHUNK_ROWS = 200
# Open-loop append period. Closed loop (append, wait for the release that
# covers it, append again) the daemon sustains 7.7-16.5 chunks/s across
# seeds 1-3 on a 2-core x86-64 host (`--probe-rate`). One chunk per 250 ms
# is about half the slowest of those rates, so a busy host does not turn
# the lag into queue growth.
CHUNK_PERIOD_S = 0.250
CHUNKS_PER_SESSION = 21
MIN_FOLLOW_SESSIONS = 5  # 5 inputs x 21 chunks: >= 100 lag samples for the p90
GENERATOR_LATE_BOUND_S = 0.050
MAX_INVALID_SESSIONS = 3
POLL_MS = 10
IDLE_EXIT_MS = 500
CHECKPOINT_ROWS = 4096

REPRO_EXPERIMENTS = ("table4", "fig3a")
REPRO_HEADINGS = {"table4": "Table 4:", "fig3a": "Figure 3(a):"}
REPRO_SETUP_REPEATS = 5

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "released_size": "tuples",
    "setup_s": "s",
    "release_lag_p50_ms": "ms",
    "release_lag_p90_ms": "ms",
}

PER_LAYER = {
    "stream.intake_s": "s",
    "stream.rows_per_s": "rows/s",
    "stream.merge_s": "s",
    "stream.sketch_mine_s": "s",
    "searchlog.preprocess_s": "s",
    "searchlog.kept_pairs": "count",
    "searchlog.write_s": "s",
    "core.constraints_s": "s",
    "lp.solve_s": "s",
    "lp.iterations": "count",
    "lp.refactorizations": "count",
    "lp.ms_per_iter": "ms",
    "core.verify_s": "s",
    "core.sample_s": "s",
    "core.mechanism_s": "s",
    "core.warm_kept": "count",
    "core.warm_vetoed": "count",
    "serve.feed_p50_ms": "ms",
    "serve.release_p50_ms": "ms",
    "serve.release_p90_ms": "ms",
    "store.log_chunk_p50_ms": "ms",
    "store.checkpoint_s": "s",
    "store.record_release_p50_ms": "ms",
    "store.open_s": "s",
    "eval.ctx_s": "s",
    "eval.table4_s": "s",
    "eval.fig3a_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark itself cannot run (not a failure of the program)."""


# ---------------------------------------------------------------- arithmetic


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a share
    `q` (0 < q <= 1) of all samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_percentile(n):
    """The highest whole percentile with at least ten of `n` samples
    beyond it, or None when `n` is too small to have a tail."""
    if n < 11:
        return None
    return int(math.floor(100.0 * (1.0 - 10.0 / n) + 1e-9))


def p90_or_median(values):
    """The 90th percentile when the tail rule resolves it (>= 100
    samples), otherwise the median. Returns (value, label)."""
    tail = tail_percentile(len(values))
    if tail is not None and tail >= 90:
        return percentile(values, 0.90), "p90"
    return statistics.median(values), "median (tail unresolved)"


def attribute_chunks(chunk_end_rows, releases):
    """For each chunk (the cumulative row count once it is ingested),
    the publish time of the first release covering it, or None.

    `releases` is a list of (rows_covered, publish_time) in release
    order; rows never decrease from one release to the next."""
    rows = [r for r, _ in releases]
    out = []
    for end in chunk_end_rows:
        i = bisect.bisect_left(rows, end)
        out.append(releases[i][1] if i < len(releases) else None)
    return out


def count_failed(operations):
    """(attempted, failed, failed_frac) over a list of booleans, one per
    operation, True when the operation succeeded."""
    attempted = len(operations)
    failed = sum(1 for ok in operations if not ok)
    return attempted, failed, (failed / attempted if attempted else 0.0)


def span_self_times(spans):
    """Self time of every span: its duration minus the part its child
    spans cover. Children of one span never overlap."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]


def table4_lambda_sum(text):
    """Sum of the integer release sizes (the floor of each LP optimum)
    over every cell of a rendered Table 4."""
    m = re.search(r"^Table 4:.*?\n-+\n(.*?)\n\n", text, re.S | re.M)
    if not m:
        raise ValueError("no Table 4 in the output")
    return sum(int(a) for a, _ in re.findall(r"(\d+) \(([\d.]+)\)", m.group(1)))


# ----------------------------------------------------------------- processes


class Child:
    """A child process timed from spawn to exit. CPU time comes from the
    rusage `wait4` returns; peak RSS is the child's VmHWM, sampled from
    /proc/<pid>/status while it runs."""

    def __init__(self, argv, log_prefix):
        self._out = open(log_prefix + ".out", "wb")
        self._err = open(log_prefix + ".err", "wb")
        self.stderr_path = log_prefix + ".err"
        self._done = threading.Event()
        self.hwm_kb = 0
        self.returncode = None
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=self._out, stderr=self._err, cwd=ROOT
        )
        self._status_path = "/proc/%d/status" % self.proc.pid
        self._waiter = threading.Thread(target=self._wait)
        self._sampler = threading.Thread(target=self._sample)
        self._waiter.start()
        self._sampler.start()

    def _wait(self):
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.t1 = time.perf_counter()
        self.usage = usage
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self._done.set()

    def _sample(self):
        while True:
            try:
                with open(self._status_path) as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            self.hwm_kb = max(self.hwm_kb, int(line.split()[1]))
            except (OSError, ValueError):
                pass
            if self._done.wait(0.02):
                return

    def running(self):
        return not self._done.is_set()

    def finish(self, timeout=CHILD_TIMEOUT_S):
        """Wait for exit (killing the child after `timeout`) and return
        {ok, wall_s, cpu_s, peak_rss_mb}."""
        self._waiter.join(timeout)
        if self._waiter.is_alive():
            self.proc.kill()
            self._waiter.join()
        self._sampler.join()
        self._out.close()
        self._err.close()
        rss_kb = self.hwm_kb or self.usage.ru_maxrss
        return {
            "ok": self.returncode == 0,
            "wall_s": self.t1 - self.t0,
            "cpu_s": self.usage.ru_utime + self.usage.ru_stime,
            "peak_rss_mb": rss_kb / 1024.0,
        }

    def kill(self):
        if self.running():
            self.proc.kill()
        self.finish()


def run_child(argv, log_prefix):
    return Child(argv, log_prefix).finish()


class DirWatch:
    """Records when each file is renamed into a directory (inotify
    IN_MOVED_TO), timed on the perf_counter clock."""

    IN_MOVED_TO = 0x80

    def __init__(self, path):
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6", use_errno=True)
        self.fd = libc.inotify_init1(os.O_CLOEXEC)
        if self.fd < 0 or libc.inotify_add_watch(self.fd, path.encode(), self.IN_MOVED_TO) < 0:
            raise BenchError("inotify unavailable: errno %d" % ctypes.get_errno())
        self.seen = {}
        self._cond = threading.Condition()
        self._stop_r, self._stop_w = os.pipe()
        self._thread = threading.Thread(target=self._run)
        self._thread.start()

    def _run(self):
        while True:
            ready, _, _ = select.select([self.fd, self._stop_r], [], [])
            if self._stop_r in ready:
                return
            buf = os.read(self.fd, 65536)
            now = time.perf_counter()
            off = 0
            with self._cond:
                while off + 16 <= len(buf):
                    _, _, _, n = (int.from_bytes(buf[off + i:off + i + 4], sys.byteorder)
                                  for i in (0, 4, 8, 12))
                    name = buf[off + 16:off + 16 + n].split(b"\0", 1)[0].decode()
                    self.seen.setdefault(name, now)
                    off += 16 + n
                self._cond.notify_all()

    def wait_for(self, name, alive, timeout):
        """Wait until `name` appears; False if `alive()` turns false or
        the timeout passes first."""
        deadline = time.perf_counter() + timeout
        with self._cond:
            while name not in self.seen:
                left = deadline - time.perf_counter()
                if left <= 0 or not alive():
                    return False
                self._cond.wait(min(left, 0.05))
        return True

    def close(self):
        os.write(self._stop_w, b"x")
        self._thread.join()
        for fd in (self.fd, self._stop_r, self._stop_w):
            os.close(fd)


# ------------------------------------------------------------------- setup


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Release-build the shipped binaries and the driver; returns the
    binary directory."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "eval"))):
        raise BenchError("run from the root of a dpsan checkout (no Cargo.toml / crates/eval here)")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    log = os.path.join(WORK, "build.log")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "dpsan-eval", "--bins"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "driver", "Cargo.toml")],
    ):
        with open(log, "ab") as f:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=f, stderr=f,
                               stdin=subprocess.DEVNULL)
        if r.returncode != 0:
            with open(log, "rb") as f:
                sys.stderr.write(f.read()[-4000:].decode(errors="replace"))
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(target_dir(), "release")


def fresh_dir(*parts):
    d = os.path.join(WORK, *parts)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def released_size(path):
    """Sum of the count column of a released TSV."""
    total = 0
    with open(path, "rb") as f:
        for line in f:
            total += int(line.rsplit(b"\t", 1)[1])
    return total


def file_rows(path):
    with open(path, "rb") as f:
        return sum(1 for _ in f)


def genlog(bins, users, seed, out, log_prefix):
    r = run_child([os.path.join(bins, "genlog"), "--scale", "small", "--users", str(users),
                   "--seed", str(seed), "--out", out], log_prefix)
    if not r["ok"]:
        raise BenchError("genlog failed (see %s.err)" % log_prefix)
    return r["wall_s"]


def make_input(bins, d, users, seed, repeats, notes):
    """Generate the seeded input `repeats` times (the set-up whose time
    is `setup_s` on one-shot workloads); every copy must be identical."""
    path = os.path.join(d, "input.tsv")
    times, digests = [], set()
    for i in range(repeats):
        times.append(genlog(bins, users, seed, path, os.path.join(d, "genlog%d" % i)))
        digests.add(sha256(path))
    if len(digests) != 1:
        raise BenchError("genlog is not deterministic for seed %d" % seed)
    notes.append("input rows=%d bytes=%d (genlog --scale small --users %d --seed %d)"
                 % (file_rows(path), os.path.getsize(path), users, seed))
    return path, times


# ------------------------------------------------------------ one-shot runs


def sanitize_argv(bins, mech, inp, out, seed):
    argv = [os.path.join(bins, "sanitize"), inp, "--mechanism", mech, "--jobs", str(JOBS),
            "--seed", str(seed), "--out", out]
    if mech == "oump":
        argv += ["--lp-budget", str(LP_BUDGET)]
    return argv


def check_oump(bins, inp, release, d):
    """The independent Theorem-1 check; returns released_size or None."""
    prefix = os.path.join(d, "check")
    r = run_child([os.path.join(bins, "pbdriver"), "check", "--input", inp,
                   "--release", release], prefix)
    if not r["ok"]:
        return None
    with open(prefix + ".out") as f:
        return json.loads(f.read())["released_size"]


def one_shot(bins, mech, seed, seconds, notes):
    d = fresh_dir(mech)
    inp, setup = make_input(bins, d, USERS_20K, seed, SETUP_REPEATS, notes)
    runs, digests = [], []
    first = os.path.join(d, "release0.tsv")
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        out = first if not runs else os.path.join(d, "release.tsv")
        r = run_child(sanitize_argv(bins, mech, inp, out, seed),
                      os.path.join(d, "exec%d" % len(runs)))
        digests.append(sha256(out) if r["ok"] else None)
        runs.append(r)
    # every execution of one seed must release identical bytes
    ok = [r["ok"] and dg == digests[0] for r, dg in zip(runs, digests)]
    size = None
    if runs[0]["ok"]:
        size = check_oump(bins, inp, first, d) if mech == "oump" else released_size(first)
    if size is None:
        ok = [False] * len(runs)
        notes.append("output check FAILED")
    walls = [r["wall_s"] for r in runs]
    lag, label = p90_or_median([w * 1000 for w in walls])
    notes.append("executions=%d  release lag = wall (one release per execution); p90 is the %s"
                 % (len(runs), label))
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "released_size": size or 0,
        "setup_s": statistics.median(setup),
        "release_lag_p50_ms": statistics.median(walls) * 1000,
        "release_lag_p90_ms": lag,
    }
    return metrics, ok


# -------------------------------------------------------------- follow runs


def follow_input(bins, d, seed):
    """One session's input: a genlog base log, plus CHUNKS_PER_SESSION
    chunks of CHUNK_ROWS lines resampled from it (so the user population
    stays fixed). Returns (base bytes, base rows, chunks)."""
    base = os.path.join(d, "base-%d.tsv" % seed)
    genlog(bins, FOLLOW_USERS, seed, base, os.path.join(d, "genlog-%d" % seed))
    with open(base, "rb") as f:
        base_bytes = f.read()
    lines = base_bytes.splitlines(keepends=True)
    rng = random.Random(seed)
    chunks = [b"".join(rng.choice(lines) for _ in range(CHUNK_ROWS))
              for _ in range(CHUNKS_PER_SESSION)]
    return base_bytes, len(lines), chunks


def session_seed(seed, k):
    """The input seed of session `k` of a run: every session of a run
    follows a different log, so one run's medians span several inputs."""
    return seed * 1000 + k


def daemon_argv(bins, inp, out_dir, store_dir, seed):
    return [os.path.join(bins, "sanitize"), inp, "--follow", "--out-dir", out_dir,
            "--store-dir", store_dir, "--mechanism", "oump", "--jobs", str(JOBS),
            "--seed", str(seed), "--poll-ms", str(POLL_MS), "--trigger-rows", str(CHUNK_ROWS),
            "--idle-exit-ms", str(IDLE_EXIT_MS), "--checkpoint-rows", str(CHECKPOINT_ROWS),
            "--stats"]


def driver_follow_argv(bins, inp, out_dir, store_dir, seed, spans):
    return [os.path.join(bins, "pbdriver"), "follow", "--input", inp, "--out-dir", out_dir,
            "--store-dir", store_dir, "--jobs", str(JOBS), "--seed", str(seed),
            "--poll-ms", str(POLL_MS), "--trigger-rows", str(CHUNK_ROWS),
            "--idle-exit-ms", str(IDLE_EXIT_MS), "--checkpoint-rows", str(CHECKPOINT_ROWS),
            "--spans", spans]


def follow_session(d, source, argv_for, closed_loop=False):
    """One daemon lifetime over `source` (from follow_input): spawn over
    the base log, wait for the first release (set-up), append the chunks
    open-loop on a fixed schedule, let the daemon go idle and exit."""
    base_bytes, base_rows, chunks = source
    inp = os.path.join(d, "input.tsv")
    out_dir = os.path.join(d, "out")
    store_dir = os.path.join(d, "store")
    with open(inp, "wb") as f:
        f.write(base_bytes)
    os.makedirs(out_dir)
    watch = DirWatch(out_dir)
    child = Child(argv_for(inp, out_dir, store_dir), os.path.join(d, "daemon"))
    s = {"setup_s": None, "late": [], "scheduled": [], "ok": False, "input": inp,
         "lags": [None] * len(chunks)}
    try:
        if not watch.wait_for("release-0001.tsv", child.running, 60.0):
            return s
        s["setup_s"] = watch.seen["release-0001.tsv"] - child.t0
        fd = os.open(inp, os.O_WRONLY | os.O_APPEND)
        try:
            t0 = time.perf_counter()
            for i, chunk in enumerate(chunks):
                if closed_loop:
                    target = time.perf_counter()
                else:
                    target = t0 + i * CHUNK_PERIOD_S
                    delay = target - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                s["late"].append(time.perf_counter() - target)
                s["scheduled"].append(target)
                view = memoryview(chunk)
                while view:
                    view = view[os.write(fd, view):]
                if closed_loop:
                    watch.wait_for("release-%04d.tsv" % (i + 2), child.running, 30.0)
        finally:
            os.close(fd)
        s["result"] = child.finish()
    finally:
        if child.running():
            child.kill()
        watch.close()
    # rows covered by each release, from the `release[N]: rows=R` lines
    with open(child.stderr_path) as f:
        covered = {int(n): int(r) for n, r in re.findall(r"release\[(\d+)\]: rows=(\d+)", f.read())}
    releases = [(covered[n], watch.seen["release-%04d.tsv" % n]) for n in sorted(covered)
                if "release-%04d.tsv" % n in watch.seen]
    ends = [base_rows + (i + 1) * CHUNK_ROWS for i in range(len(chunks))]
    published = attribute_chunks(ends, releases)
    s["lags"] = [None if p is None else p - t for p, t in zip(published, s["scheduled"])]
    if covered:
        s["final"] = os.path.join(out_dir, "release-%04d.tsv" % max(covered))
        s["ok"] = s["result"]["ok"]
    return s


def run_sessions(d, source_for, argv_for, seconds, minimum, notes):
    """Sessions until `seconds` passed and at least `minimum` are valid;
    session k follows `source_for(k)`. A session whose generator ran
    late past the bound is discarded as invalid (a benchmark problem,
    not a system failure) and run again."""
    sessions, invalid = [], 0
    start = time.perf_counter()
    while len(sessions) < minimum or time.perf_counter() - start < seconds:
        sd = fresh_dir(os.path.relpath(d, WORK), "session%d" % (len(sessions) + invalid))
        s = follow_session(sd, source_for(len(sessions)), argv_for)
        if s["late"] and max(s["late"]) > GENERATOR_LATE_BOUND_S:
            invalid += 1
            notes.append("session discarded: generator ran %.1f ms late (bound %.0f ms)"
                         % (max(s["late"]) * 1000, GENERATOR_LATE_BOUND_S * 1000))
            if invalid > MAX_INVALID_SESSIONS:
                raise BenchError("the append generator keeps falling behind its schedule")
            continue
        sessions.append(s)
    return sessions


def check_follow_final(bins, s, seed):
    """The final release must equal a one-shot sanitize over the final
    input file with the same seed."""
    if not s["ok"]:
        return False
    out = os.path.join(os.path.dirname(s["input"]), "oneshot.tsv")
    r = run_child([os.path.join(bins, "sanitize"), s["input"], "--mechanism", "oump",
                   "--jobs", str(JOBS), "--seed", str(seed), "--out", out],
                  os.path.splitext(out)[0])
    return r["ok"] and sha256(out) == sha256(s["final"])


def follow(bins, seed, seconds, notes):
    d = fresh_dir("follow_200")
    sources = {}

    def source_for(k):
        if k not in sources:
            sources[k] = follow_input(bins, d, session_seed(seed, k))
        return sources[k]

    argv_for = lambda i, o, st: daemon_argv(bins, i, o, st, seed)  # noqa: E731
    sessions = run_sessions(d, source_for, argv_for, seconds, MIN_FOLLOW_SESSIONS, notes)
    notes.append("inputs: genlog --users %d --seed %s, base rows %s, bytes %s; %d chunks x %d "
                 "rows per session, one every %.0f ms (open loop)"
                 % (FOLLOW_USERS, "/".join(str(session_seed(seed, k)) for k in sorted(sources)),
                    "/".join(str(sources[k][1]) for k in sorted(sources)),
                    "/".join(str(len(sources[k][0])) for k in sorted(sources)),
                    CHUNKS_PER_SESSION, CHUNK_ROWS, CHUNK_PERIOD_S * 1000))
    ok, lags = [], []
    for k, s in enumerate(sessions):
        good = check_follow_final(bins, s, seed)
        if not good:
            notes.append("session %d: output check FAILED" % k)
        ok += [good and lag is not None for lag in s["lags"]]
        lags += [lag * 1000 for lag in s["lags"] if lag is not None]
    good = [s for s in sessions if s["ok"]]
    if not good or not lags:
        raise BenchError("no follow session completed")
    late = [x * 1000 for s in sessions for x in s["late"]]
    p90, label = p90_or_median(lags)
    notes.append("sessions=%d lag samples=%d (p90 is the %s; tail rule gives p%s); generator "
                 "late p50=%.2f ms max=%.2f ms"
                 % (len(sessions), len(lags), label, tail_percentile(len(lags)),
                    statistics.median(late), max(late)))
    metrics = {
        "wall_s": statistics.median(s["result"]["wall_s"] for s in good),
        "cpu_s": statistics.median(s["result"]["cpu_s"] for s in good),
        "peak_rss_mb": statistics.median(s["result"]["peak_rss_mb"] for s in good),
        "released_size": statistics.median(released_size(s["final"]) for s in good),
        "setup_s": statistics.median(s["setup_s"] for s in good),
        "release_lag_p50_ms": statistics.median(lags),
        "release_lag_p90_ms": p90,
    }
    return metrics, ok


def probe_follow_rate(bins, seed):
    """Closed loop: append one chunk, wait for the release covering it,
    repeat. Prints the sustained chunk rate the open-loop rate is set
    against."""
    d = fresh_dir("follow_200")
    s = follow_session(fresh_dir("follow_200", "probe"), follow_input(bins, d, seed),
                       lambda i, o, st: daemon_argv(bins, i, o, st, seed), closed_loop=True)
    cycle = [b - a for a, b in zip(s["scheduled"], s["scheduled"][1:])]
    print("closed-loop cycle per chunk: median %.1f ms, p90 %.1f ms -> sustained %.1f chunks/s"
          % (statistics.median(cycle) * 1000, percentile(cycle, 0.9) * 1000,
             1 / statistics.median(cycle)))


# --------------------------------------------------------------- repro runs


def repro_argv(bins, experiments):
    return [os.path.join(bins, "repro"), *experiments, "--scale", "small", "--jobs", str(JOBS)]


def repro_output_ok(text):
    return all(REPRO_HEADINGS[e] in text for e in REPRO_EXPERIMENTS)


def repro_small(bins, seconds, notes):
    d = fresh_dir("repro_small")
    # set-up: `repro table3` pays the context build (generate + preprocess
    # the small preset) and renders only the dataset statistics
    setup, rows = [], None
    for i in range(REPRO_SETUP_REPEATS):
        r = run_child(repro_argv(bins, ["table3"]), os.path.join(d, "setup%d" % i))
        if not r["ok"]:
            raise BenchError("repro table3 failed")
        setup.append(r["wall_s"])
        with open(os.path.join(d, "setup%d.out" % i)) as f:
            m = re.search(r"# of total tuples \(size\)\s+(\d+)", f.read())
        rows = int(m.group(1)) if m else None
    notes.append("input: the fixed small preset (repro has no seed flag), rows=%s, in memory"
                 % rows)
    runs, texts = [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        prefix = os.path.join(d, "exec%d" % len(runs))
        runs.append(run_child(repro_argv(bins, REPRO_EXPERIMENTS), prefix))
        with open(prefix + ".out") as f:
            texts.append(f.read())
    ok = [r["ok"] and t == texts[0] and repro_output_ok(t) for r, t in zip(runs, texts)]
    try:
        size = table4_lambda_sum(texts[0])
    except ValueError:
        size, ok = 0, [False] * len(runs)
    walls = [r["wall_s"] for r in runs]
    lag, label = p90_or_median([w * 1000 for w in walls])
    notes.append("executions=%d  release lag = wall; p90 is the %s; released_size = sum of "
                 "floor(lambda) over Table 4" % (len(runs), label))
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "released_size": size,
        "setup_s": statistics.median(setup),
        "release_lag_p50_ms": statistics.median(walls) * 1000,
        "release_lag_p90_ms": lag,
    }
    return metrics, ok


# -------------------------------------------------------------- traced runs


def layer_metrics(traces, wall_ref, wall_traced):
    """Per-layer metrics from the driver's spans and counts. `traces` is
    a list of {spans, counts} (one per traced execution)."""
    durations, counts, self_total = {}, {}, 0.0
    for tr in traces:
        spans = tr["spans"]
        for s, self_t in zip(spans, span_self_times(spans)):
            durations.setdefault(s["name"], []).append(s["end"] - s["start"])
            if s["parent"] is not None:
                self_total += self_t
        for k, v in tr["counts"].items():
            counts[k] = counts.get(k, 0) + v
    n = len(traces)
    total = lambda name: sum(durations.get(name, [])) / n  # noqa: E731
    p50_ms = lambda name: statistics.median(durations[name]) * 1000 if name in durations else 0.0  # noqa: E731,E501
    per = lambda name: counts.get(name, 0) / n  # noqa: E731
    m = {
        "stream.intake_s": total("stream.intake"),
        "stream.merge_s": total("stream.merge"),
        "stream.sketch_mine_s": total("stream.sketch_mine"),
        "searchlog.preprocess_s": total("searchlog.preprocess"),
        "searchlog.kept_pairs": per("searchlog.kept_pairs"),
        "searchlog.write_s": total("searchlog.write"),
        "core.constraints_s": total("core.constraints"),
        "lp.solve_s": total("lp.solve"),
        "lp.iterations": per("lp.iterations"),
        "lp.refactorizations": per("lp.refactorizations"),
        "core.verify_s": total("core.verify"),
        "core.sample_s": total("core.sample"),
        "core.mechanism_s": total("core.mechanism"),
        "core.warm_kept": per("core.warm_kept"),
        "core.warm_vetoed": per("core.warm_vetoed"),
        "serve.feed_p50_ms": p50_ms("serve.feed"),
        "serve.release_p50_ms": p50_ms("serve.release"),
        "serve.release_p90_ms": (p90_or_median(durations["serve.release"])[0] * 1000
                                 if "serve.release" in durations else 0.0),
        "store.log_chunk_p50_ms": p50_ms("store.log_chunk"),
        "store.checkpoint_s": total("store.checkpoint"),
        "store.record_release_p50_ms": p50_ms("store.record_release"),
        "store.open_s": total("store.open"),
        "eval.ctx_s": total("eval.ctx"),
        "eval.table4_s": total("eval.table4"),
        "eval.fig3a_s": total("eval.fig3a"),
        "trace.coverage": self_total / n / wall_ref,
        "trace.overhead_frac": wall_traced / wall_ref - 1.0,
    }
    intake = m["stream.intake_s"]
    m["stream.rows_per_s"] = per("stream.rows") / intake if intake > 0 else 0.0
    iters = m["lp.iterations"]
    m["lp.ms_per_iter"] = m["lp.solve_s"] * 1000 / iters if m["lp.solve_s"] > 0 and iters else 0.0
    return m


def load_spans(path):
    with open(path) as f:
        return json.load(f)


def traced_pairs(d, seconds, run_pair, what, notes):
    """Alternate an untraced and a traced execution, starting another
    pair only while it is expected to end within `seconds` (at least
    one). `run_pair(k)` returns (binary result, driver result, whether
    the outputs are equal, spans path)."""
    pairs = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        pairs.append(run_pair(len(pairs)))
        if not pairs[-1][1]["ok"]:
            raise BenchError("driver failed (see %s)" % os.path.join(d, "driver*.err"))
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            break
    same = all(p[2] for p in pairs)
    notes.append("pairs=%d; traced %s %s the binary's" % (len(pairs), what,
                                                          "equal" if same else "DIFFER from"))
    ok = [x for ref, _, eq, _ in pairs for x in (ref["ok"], eq)]
    wall_ref = statistics.median(p[0]["wall_s"] for p in pairs)
    wall_traced = statistics.median(p[1]["wall_s"] for p in pairs)
    return layer_metrics([load_spans(p[3]) for p in pairs], wall_ref, wall_traced), ok


def traced_one_shot(bins, mech, seed, seconds, notes):
    d = fresh_dir(mech)
    inp, _ = make_input(bins, d, USERS_20K, seed, 1, notes)

    def run_pair(k):
        ref_out, drv_out = os.path.join(d, "binary.tsv"), os.path.join(d, "driver.tsv")
        ref = run_child(sanitize_argv(bins, mech, inp, ref_out, seed),
                        os.path.join(d, "binary%d" % k))
        spans = os.path.join(d, "spans%d.json" % k)
        argv = [os.path.join(bins, "pbdriver"), mech, "--input", inp, "--out", drv_out,
                "--seed", str(seed), "--jobs", str(JOBS), "--spans", spans]
        if mech == "oump":
            argv += ["--lp-budget", str(LP_BUDGET)]
        drv = run_child(argv, os.path.join(d, "driver%d" % k))
        same = ref["ok"] and drv["ok"] and sha256(ref_out) == sha256(drv_out)
        return ref, drv, same, spans

    return traced_pairs(d, seconds, run_pair, "release bytes", notes)


def traced_follow(bins, seed, seconds, notes):
    """One daemon session, then driver sessions over the same input."""
    d = fresh_dir("follow_200")
    source = follow_input(bins, d, session_seed(seed, 0))
    ref = run_sessions(d, lambda k: source, lambda i, o, st: daemon_argv(bins, i, o, st, seed),
                       0, 1, notes)[0]
    spans_of = lambda o: os.path.join(os.path.dirname(o), "spans.json")  # noqa: E731
    traced = run_sessions(
        os.path.join(d, "traced"), lambda k: source,
        lambda i, o, st: driver_follow_argv(bins, i, o, st, seed, spans_of(o)),
        seconds, MIN_FOLLOW_SESSIONS, notes)
    ok = [ref["ok"]] + [ref["ok"] and s["ok"] and sha256(s["final"]) == sha256(ref["final"])
                        for s in traced]
    notes.append("traced sessions=%d; final release bytes %s the daemon's"
                 % (len(traced), "equal" if all(ok) else "DIFFER from"))
    good = [s for s in traced if s["ok"]]
    if not ref["ok"] or not good:
        raise BenchError("follow sessions failed (see %s)" % d)
    traces = [load_spans(os.path.join(os.path.dirname(s["input"]), "spans.json")) for s in good]
    wall_traced = statistics.median(s["result"]["wall_s"] for s in good)
    return layer_metrics(traces, ref["result"]["wall_s"], wall_traced), ok


def traced_repro(bins, seconds, notes):
    d = fresh_dir("repro_small")

    def run_pair(k):
        ref = run_child(repro_argv(bins, REPRO_EXPERIMENTS), os.path.join(d, "binary%d" % k))
        spans, out = os.path.join(d, "spans%d.json" % k), os.path.join(d, "driver.txt")
        drv = run_child([os.path.join(bins, "pbdriver"), "repro", "--scale", "small", "--jobs",
                         str(JOBS), "--out", out, "--spans", spans, *REPRO_EXPERIMENTS],
                        os.path.join(d, "driver%d" % k))
        with open(os.path.join(d, "binary%d.out" % k), "rb") as f:
            ref_bytes = f.read()
        with open(out, "rb") as f:
            same = ref["ok"] and drv["ok"] and f.read() == ref_bytes
        return ref, drv, same, spans

    return traced_pairs(d, seconds, run_pair, "tables", notes)


# -------------------------------------------------------------------- main


def run_workload(bins, name, seed, seconds, trace):
    notes = []
    if trace:
        if name in ("oump_20k", "zealous_20k"):
            metrics, ok = traced_one_shot(bins, name.split("_")[0], seed, seconds, notes)
        elif name == "follow_200":
            metrics, ok = traced_follow(bins, seed, seconds, notes)
        else:
            metrics, ok = traced_repro(bins, seconds, notes)
        units = PER_LAYER
    else:
        if name in ("oump_20k", "zealous_20k"):
            metrics, ok = one_shot(bins, name.split("_")[0], seed, seconds, notes)
        elif name == "follow_200":
            metrics, ok = follow(bins, seed, seconds, notes)
        else:
            metrics, ok = repro_small(bins, seconds, notes)
        units = END_TO_END
    attempted, failed, frac = count_failed(ok)
    print("== %s  seed=%d  trace=%d" % (name, seed, trace))
    for n in notes:
        print("   " + n)
    for k, unit in units.items():
        print("   %-28s %14.6f %s" % (k, metrics[k], unit))
    print("   %-28s %14.6f ratio  (%d of %d operations failed)"
          % ("failed_frac", frac, failed, attempted))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--probe-rate", action="store_true",
                   help="measure the follow daemon's sustained closed-loop chunk rate and exit")
    a = p.parse_args(argv)
    try:
        os.makedirs(WORK, exist_ok=True)
        bins = build()
        if a.probe_rate:
            probe_follow_rate(bins, a.seed)
            return 0
        names = WORKLOADS if a.workload == "all" else (a.workload,)
        results = [run_workload(bins, n, a.seed, a.seconds, a.trace) for n in names]
    except BenchError as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 2
    for n, r in zip(names, results):
        if len(names) > 1:
            print("%s %s" % (n, json.dumps(r)))
    print(json.dumps(results[-1]) if len(results) == 1 else json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
