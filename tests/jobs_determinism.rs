//! `--jobs N` must never change results: each distinct grid cell is one
//! cold solve task, so the worker count changes only wall time — not
//! the rendered output and not the solver counters. This is the
//! contract that keeps the golden fixture and the paper tables
//! reproducible on any machine.

use dpsan_eval::{run_experiments, Ctx, RunOptions, Scale};

#[test]
fn repro_output_is_byte_identical_across_jobs() {
    // table4 exercises the O-UMP prefetch, fig3a the F-UMP prefetch —
    // the two parallel paths of the pipeline; compare runs every
    // mechanism serially over a prefetched grid
    let names: Vec<String> = ["table4", "fig3a", "compare"].iter().map(|s| s.to_string()).collect();
    let render = |jobs: usize| {
        let ctx = Ctx::new(Scale::Tiny).with_jobs(jobs);
        let mut buf = Vec::new();
        run_experiments(&names, &ctx, &mut buf, &RunOptions::default())
            .expect("tiny experiments run");
        (buf, ctx.solve_stats())
    };
    let (serial, serial_stats) = render(1);
    let (parallel, parallel_stats) = render(4);
    assert!(
        serial == parallel,
        "--jobs 1 and --jobs 4 diverged:\n{}\nvs\n{}",
        String::from_utf8_lossy(&serial),
        String::from_utf8_lossy(&parallel)
    );
    assert_eq!(serial_stats, parallel_stats, "--jobs 1 and --jobs 4 solved different work");
}
