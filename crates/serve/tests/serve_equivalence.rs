//! The service's headline guarantees, end to end:
//!
//! 1. every windowed re-release is byte-identical to a one-shot
//!    sanitize over the same window, across shard counts and drain
//!    parallelism;
//! 2. every re-release after appends costs exactly one LP solve and
//!    still matches the one-shot bytes;
//! 3. the cross-release ledger composes and refuses exactly as
//!    configured, leaving ingest state intact on refusal.

use dpsan_core::mechanism::{
    Sanitizer, TriggerPolicy, UmpSanitizer, UtilityObjective, ZealousSanitizer,
};
use dpsan_datagen::{write_log_tsv, AolLikeConfig};
use dpsan_dp::params::PrivacyParams;
use dpsan_searchlog::io::read_tsv;
use dpsan_serve::ServeSession;
use dpsan_stream::StreamConfig;

const SEED: u64 = 0xd95a_11ce;

fn params() -> PrivacyParams {
    PrivacyParams::from_e_epsilon(2.0, 0.5)
}

/// A deterministic trace, split into `n` appended chunks of whole
/// lines.
fn trace_chunks(n_users: usize, n: usize) -> Vec<String> {
    let cfg =
        AolLikeConfig { n_users, n_queries: 60, mean_events_per_user: 12.0, ..Default::default() };
    let mut tsv = Vec::new();
    write_log_tsv(&cfg, &mut tsv).unwrap();
    let text = String::from_utf8(tsv).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let per = lines.len().div_ceil(n);
    lines.chunks(per).map(|c| c.join("\n") + "\n").collect()
}

fn tsv_bytes(log: &dpsan_searchlog::SearchLog) -> Vec<u8> {
    let mut buf = Vec::new();
    dpsan_searchlog::io::write_tsv(log, &mut buf).unwrap();
    buf
}

/// One-shot reference: read the concatenated prefix in memory,
/// sanitize with a fresh mechanism — the exact CLI one-shot path.
fn one_shot(prefix: &str, mechanism: &dyn Sanitizer) -> Vec<u8> {
    let log = read_tsv(std::io::Cursor::new(prefix)).unwrap();
    let release = mechanism.sanitize(&log, params(), SEED).unwrap();
    tsv_bytes(&release.output)
}

#[test]
fn windowed_rereleases_match_one_shot_for_any_sharding() {
    let chunks = trace_chunks(40, 3);
    for shards in [1usize, 4] {
        for jobs in [1usize, 3] {
            let stream = StreamConfig { shards, chunk_rows: 64, sketch_capacity: 0, jobs };
            let mut session = ServeSession::new(
                Box::new(UmpSanitizer::new(UtilityObjective::OutputSize)),
                stream,
                params(),
                SEED,
                TriggerPolicy::manual(),
                None,
            );
            let mut prefix = String::new();
            for chunk in &chunks {
                session.feed(chunk.as_bytes()).unwrap();
                prefix.push_str(chunk);
                let rerelease = tsv_bytes(&session.release_now().unwrap().output);
                let reference = one_shot(&prefix, &UmpSanitizer::new(UtilityObjective::OutputSize));
                assert_eq!(rerelease, reference, "window mismatch at shards={shards} jobs={jobs}");
            }
        }
    }
}

#[test]
fn zealous_rereleases_match_one_shot() {
    let chunks = trace_chunks(40, 3);
    let mut session = ServeSession::new(
        Box::new(ZealousSanitizer::new()),
        StreamConfig { shards: 4, sketch_capacity: 0, ..Default::default() },
        params(),
        SEED,
        TriggerPolicy::manual(),
        None,
    );
    let mut prefix = String::new();
    for chunk in &chunks {
        session.feed(chunk.as_bytes()).unwrap();
        prefix.push_str(chunk);
        let rerelease = tsv_bytes(&session.release_now().unwrap().output);
        assert_eq!(rerelease, one_shot(&prefix, &ZealousSanitizer::new()));
    }
}

#[test]
fn rereleases_solve_once_and_match_one_shot() {
    // Recurring traffic: after the population and its pairs are seen,
    // appended events revisit existing (user, query, url) triplets —
    // counts move but the LP shape (users × pairs after
    // preprocessing) is fixed. The persistent session solves each
    // re-release once, from scratch, so the release stays
    // byte-identical to a one-shot sanitize of the same input.
    let chunks = trace_chunks(60, 1);
    let full = &chunks[0];
    let mut session = ServeSession::new(
        Box::new(UmpSanitizer::new(UtilityObjective::OutputSize)),
        StreamConfig { shards: 2, sketch_capacity: 0, ..Default::default() },
        params(),
        SEED,
        TriggerPolicy::manual(),
        None,
    );
    session.feed(full.as_bytes()).unwrap();
    let first = session.release_now().unwrap();
    assert_eq!(first.solver.solves, 1, "first release solves once");

    // three append → re-release rounds of recurring traffic, spread
    // evenly over the population (every 13th event repeats) so no
    // single user's counts move violently between releases
    let lines: Vec<&str> = full.lines().collect();
    let mut input = full.clone();
    for round in 0..3 {
        let append: String =
            lines.iter().skip(round).step_by(13).map(|l| format!("{l}\n")).collect();
        session.feed(append.as_bytes()).unwrap();
        input.push_str(&append);
        let re = session.release_now().unwrap();
        assert_eq!(re.solver.solves, 1, "round {round}: {:?}", re.solver);
        let reference = one_shot(&input, &UmpSanitizer::new(UtilityObjective::OutputSize));
        assert_eq!(tsv_bytes(&re.output), reference, "round {round}: re-release drifted");
    }
    let recs = session.records();
    assert_eq!(recs.len(), 4);
    assert!(recs[3].epsilon_total > recs[0].epsilon_total, "ledger composes");
}

#[test]
fn lifetime_budget_refusal_preserves_ingest_state() {
    let chunks = trace_chunks(30, 3);
    let p = PrivacyParams::from_e_epsilon(2.0, 0.2);
    // lifetime admits exactly two releases (in ε and in δ)
    let mut session = ServeSession::new(
        Box::new(ZealousSanitizer::new()),
        StreamConfig { shards: 2, sketch_capacity: 0, ..Default::default() },
        p,
        SEED,
        TriggerPolicy::every_rows(1),
        Some((2.0 * p.epsilon(), 2.0 * p.delta())),
    );
    session.feed(chunks[0].as_bytes()).unwrap();
    session.release_now().unwrap();
    session.feed(chunks[1].as_bytes()).unwrap();
    session.release_now().unwrap();
    session.feed(chunks[2].as_bytes()).unwrap();

    let rows_before = session.rows();
    let pending_before = session.pending_rows();
    let entries_before = session.ledger().entries().len();
    let err = session.release_now().unwrap_err();
    assert!(err.is_budget_refusal(), "got {err}");
    assert_eq!(session.rows(), rows_before, "ingest state untouched");
    assert_eq!(session.pending_rows(), pending_before, "trigger state untouched");
    assert_eq!(session.ledger().entries().len(), entries_before, "ledger untouched");
    assert_eq!(session.releases(), 2);
    assert_eq!(session.records().len(), 2, "no record for the refused release");
}

#[test]
fn ingest_errors_surface_global_line_numbers() {
    let mut session = ServeSession::new(
        Box::new(ZealousSanitizer::new()),
        StreamConfig::default(),
        params(),
        SEED,
        TriggerPolicy::manual(),
        None,
    );
    session.feed(&b"u1\tq\tl\t1\nu2\tq\tl\t2\n"[..]).unwrap();
    let err = session.feed(&b"u3\tq\tl\tbogus\n"[..]).unwrap_err();
    assert!(err.to_string().contains("line 3"), "global line number, got: {err}");
}
