//! Telemetry non-perturbation pin.
//!
//! The observability layer's core contract: enabling metrics, spans, and
//! the trace sink must not change a single simulated bit. This replays
//! every row of the frozen sampling corpus
//! (`tests/sampling_corpus/fingerprints.json`) with telemetry and the
//! trace buffer fully enabled and asserts the digests are identical to
//! the committed values — the same values `sampling_corpus.rs` pins with
//! telemetry disabled. Any RNG draw, event reorder, or float perturbation
//! introduced by instrumentation fails the exact same assertion that
//! guards the streams themselves.

use msim_core::rng::DeviateMode;
use msim_core::telemetry;
use msplayer_bench::sampling::{corpus_points, load_corpus};
use msplayer_bench::workload::WorkloadRegistry;
use msplayer_core::config::SchedulerKind;

/// Replays all committed fingerprints with counters, spans, AND the
/// trace sink live, then checks the run actually exercised the registry
/// (a silently disabled build would make the bit-identity claim vacuous).
#[test]
fn corpus_replays_bit_identically_with_telemetry_enabled() {
    telemetry::set_enabled(true);
    telemetry::set_trace_enabled(true);
    let reg = WorkloadRegistry::builtin(msplayer_bench::sampling::SEEDS_PER_WORKLOAD);
    let corpus = load_corpus().expect("committed corpus loads");
    assert_eq!(
        corpus.len(),
        corpus_points(&reg).len(),
        "corpus rows != registry grid points"
    );
    for fp in &corpus {
        let scheduler = SchedulerKind::parse(&fp.scheduler).expect("known scheduler");
        let got = msplayer_bench::sampling::digest_point(
            &reg,
            &fp.workload,
            scheduler,
            fp.chunk_kb,
            fp.seed,
            DeviateMode::Block,
        );
        assert_eq!(
            got, fp.digest,
            "telemetry perturbed the simulation: {}/{} chunk={} seed={:#x} \
             digests {:#018x}, corpus pins {:#018x}",
            fp.workload, fp.scheduler, fp.chunk_kb, fp.seed, got, fp.digest
        );
    }
    // Prove the instrumentation was live, not runtime-off. Exact counts are
    // not asserted — the registry is process-global and other tests in this
    // binary may run concurrently — but a full corpus replay must have
    // recorded at least one session per row and produced trace events.
    let counters = telemetry::counter_values();
    let sessions = counters.get("msp_sessions_total").copied().unwrap_or(0);
    assert!(
        sessions >= corpus.len() as u64,
        "expected >= {} sessions counted, saw {sessions}",
        corpus.len()
    );
    assert!(
        telemetry::trace_len() > 0 || telemetry::trace_dropped() > 0,
        "trace sink was enabled but recorded nothing"
    );
    // Drain the buffer so this test leaves no multi-megabyte residue for
    // siblings.
    let events = telemetry::take_trace();
    assert!(events.iter().any(|e| e.kind == "session.start"));
    telemetry::set_trace_enabled(false);
}

/// The exposition endpoint renders the post-replay registry into text
/// that round-trips through the minimal line parser: every non-comment
/// line yields a sample whose key matches `metric_key` reconstruction.
#[test]
fn post_replay_exposition_roundtrips_through_line_parser() {
    telemetry::set_enabled(true);
    // Make sure at least something is registered even if this test runs
    // first in the binary.
    telemetry::count("msp_sessions_total", 0);
    telemetry::count_with("msp_transfer_requests_total", &[("engine", "block")], 0);
    let text = telemetry::render_prometheus();
    let mut samples = 0usize;
    for line in text.lines() {
        let parsed = telemetry::parse_exposition_line(line)
            .unwrap_or_else(|e| panic!("rendered line {line:?} must parse: {e}"));
        if let Some(sample) = parsed {
            samples += 1;
            assert!(!sample.name.is_empty());
            assert!(sample.value.is_finite() || sample.value.is_nan());
        }
    }
    assert!(samples > 0, "exposition rendered no samples");
}
