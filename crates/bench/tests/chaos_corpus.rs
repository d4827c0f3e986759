//! Tier-1 corpus regression: every committed chaos case replays green,
//! and the recording machinery itself round-trips a violation.

use msplayer_bench::chaos::{run_case, run_case_with_oracle, ChaosCase};
use msplayer_bench::corpus;
use msplayer_bench::workload::WorkloadRegistry;
use msplayer_core::chaos::Violation;

/// Every `(seed, plan, workload)` case committed under
/// `tests/chaos_corpus/` must replay with zero invariant violations —
/// the corpus is the repo's accumulated chaos regression suite, so a
/// red case here means a previously-fixed failure mode is back.
#[test]
fn committed_corpus_replays_green() {
    let dir = corpus::dir();
    let corpus = corpus::load(&dir).expect("corpus readable");
    assert!(
        !corpus.is_empty(),
        "the committed corpus must not be empty (looked in {})",
        dir.display()
    );
    let registry = WorkloadRegistry::builtin(1);
    for (path, case) in &corpus {
        let outcome = run_case(case, &registry);
        assert!(
            outcome.ok(),
            "{} regressed: {:?}\nfingerprint: {}\nreproduce with:\n  cargo run -p msplayer-bench --bin msplayer -- chaos --case {}",
            path.display(),
            outcome.violations,
            outcome
                .fingerprint
                .map_or("none (the session did not complete)".into(), |fp| fp.to_string()),
            path.display()
        );
        // The stored filename must match the case's deterministic name,
        // so re-recording an identical case overwrites rather than
        // duplicating.
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some(corpus::file_name(case).as_str()),
            "corpus file renamed out from under its case"
        );
    }
}

/// A violating case must survive the full loop: detect → record as JSON
/// → load → replay with the same verdict. A deliberately impossible
/// oracle manufactures the violation; the standard oracle then clears
/// the very same case, proving the violation lives in the oracle, not
/// in the recording.
#[test]
fn synthetic_violation_round_trips_through_recording_and_replay() {
    let registry = WorkloadRegistry::builtin(1);
    let case = ChaosCase {
        workload: "testbed/MSPlayer".into(),
        scheduler: "Harmonic".into(),
        chunk_kb: 256,
        seed: 4242,
        plan: "clock-skew".into(),
        recorded_violations: Vec::new(),
    };
    let impossible = |m: &msplayer_core::metrics::SessionMetrics| {
        vec![Violation {
            invariant: "synthetic-chunk-quota",
            detail: format!(
                "session fetched {} chunks, demanded 1000000",
                m.chunks.len()
            ),
        }]
    };

    // Detect.
    let found = run_case_with_oracle(&case, &registry, impossible);
    assert!(!found.ok(), "the impossible oracle must flag the session");

    // Record into a scratch corpus.
    let dir = std::env::temp_dir().join(format!("chaos_corpus_rt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut recorded = case.clone();
    recorded.recorded_violations = found.violations.clone();
    let path = corpus::record(&recorded, &dir).expect("record case");

    // Load + replay.
    let loaded = corpus::load(&dir).expect("scratch corpus readable");
    assert_eq!(loaded.len(), 1);
    assert_eq!(loaded[0].0, path);
    assert_eq!(loaded[0].1, recorded);
    let replay = run_case_with_oracle(&loaded[0].1, &registry, impossible);
    assert_eq!(
        replay.violations, found.violations,
        "replay must reproduce the recorded verdict exactly"
    );
    // Same case, standard oracle: green — the fault was synthetic.
    assert!(run_case(&loaded[0].1, &registry).ok());

    let _ = std::fs::remove_dir_all(&dir);
}
