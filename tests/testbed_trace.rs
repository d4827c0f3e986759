//! A loopback session traces like a simulated one: the player writes the
//! per-chunk records and counters, so the socket driver needs no code of
//! its own for them. The trace sink and the registry are process-global,
//! so this file holds exactly one test.

use msplayer::core::config::PlayerConfig;
use msplayer::core::sim::StopCondition;
use msplayer::simcore::telemetry::{self, TraceEvent, TraceVal};
use msplayer::simcore::units::ByteSize;
use msplayer::testbed::Testbed;
use std::time::Duration;

/// 1 Mbit/s stream → loopback sessions finish in a couple of wall seconds.
const BPS: f64 = 125_000.0;

/// The `path` field of a trace record.
fn path_of(ev: &TraceEvent) -> Option<u64> {
    ev.fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
        ("path", TraceVal::U64(p)) => Some(*p),
        _ => None,
    })
}

#[test]
fn loopback_failover_session_writes_the_per_chunk_trace() {
    let tb = Testbed::start(30.0, BPS, 2).expect("testbed");
    tb.set_primary_failed(1, true);
    telemetry::reset();
    telemetry::set_enabled(true);
    telemetry::set_trace_enabled(true);
    let player = PlayerConfig::msplayer()
        .with_initial_chunk(ByteSize::kb(64))
        .with_prebuffer_secs(3.0);
    let m = tb
        .run(
            player,
            StopCondition::PrebufferDone,
            Duration::from_secs(25),
        )
        .expect("session");
    telemetry::set_trace_enabled(false);
    telemetry::set_enabled(false);
    assert!(m.paths[1].failovers >= 1, "failover happened on path 1");

    let trace = telemetry::take_trace();
    let has = |kind: &str, path: u64| {
        trace
            .iter()
            .any(|ev| ev.kind == kind && path_of(ev) == Some(path))
    };
    let kinds: Vec<&str> = trace.iter().map(|ev| ev.kind.as_str()).collect();
    assert!(has("chunk.done", 0), "no chunk.done on path 0: {kinds:?}");
    assert!(has("chunk.done", 1), "no chunk.done on path 1: {kinds:?}");
    for kind in ["chunk.error", "path.failover", "path.recover"] {
        assert!(has(kind, 1), "no {kind} on path 1: {kinds:?}");
    }
    assert!(
        telemetry::counter("msp_failovers_total").get() >= 1,
        "msp_failovers_total did not count the failover"
    );
}
