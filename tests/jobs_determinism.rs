//! `--jobs N` must never change results: the parallel prefetch shards
//! are data-defined (fixed chunks of the sorted grid, one solve
//! session per shard), so the worker count only affects wall-clock. This
//! is the contract that keeps the golden fixture and the paper tables
//! reproducible on any machine.

use dpsan_eval::{run_experiments, Ctx, Scale};

#[test]
fn repro_output_is_byte_identical_across_jobs() {
    // table4 exercises the O-UMP budget shards, fig3a the F-UMP δ-curve
    // chains — the two parallel paths of the pipeline; compare runs
    // every mechanism serially over a prefetched grid
    let names: Vec<String> = ["table4", "fig3a", "compare"].iter().map(|s| s.to_string()).collect();
    let render = |jobs: usize| {
        let ctx = Ctx::new(Scale::Tiny).with_jobs(jobs);
        let mut buf = Vec::new();
        run_experiments(&names, &ctx, &mut buf, false).expect("tiny experiments run");
        buf
    };
    let serial = render(1);
    let parallel = render(4);
    assert!(
        serial == parallel,
        "--jobs 1 and --jobs 4 diverged:\n{}\nvs\n{}",
        String::from_utf8_lossy(&serial),
        String::from_utf8_lossy(&parallel)
    );
}
