//! Pins the NDJSON trace of four fixed sessions.
//!
//! Between them the sessions write every per-chunk record kind:
//! `chunk.done`, `chunk.error` with `link_down` both 0 (5xx and chaos
//! errors) and 1 (mobility outages), `path.failover`, `path.recover` and
//! `abr.decision`, interleaved with the `session.start` / `session.end`
//! brackets. `tests/trace_golden/four_sessions.ndjson` is the trace as
//! `msplayer run --trace` writes it. The trace sequence is process-global,
//! so this file holds exactly one test that runs by default.
//!
//! Re-record after changing what a trace record says on purpose:
//!
//! ```sh
//! cargo test -p msplayer-bench --test trace_golden -- --ignored
//! ```

use msim_core::telemetry;
use msplayer_bench::workload::WorkloadRegistry;
use msplayer_core::chaos::ChaosPlan;
use msplayer_core::sim::SessionHost;
use std::path::{Path, PathBuf};

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/trace_golden/four_sessions.ndjson")
}

/// The four sessions, each at its workload's first seed, scheduler and
/// chunk size. `abr/closed-loop` runs under the `overload` chaos preset,
/// so 5xx failovers and ABR decisions interleave.
fn traced_sessions() {
    let reg = WorkloadRegistry::builtin(1);
    for (name, chaos) in [
        ("storm/server-failure", None),
        ("storm/mobility", None),
        ("abr/mobility-handoff", None),
        ("abr/closed-loop", Some("overload")),
    ] {
        let mut w = (**reg.by_name(name).expect("builtin workload")).clone();
        if let Some(preset) = chaos {
            w = w.with_chaos(ChaosPlan::preset(preset).expect("builtin preset"));
        }
        let spec = w.session_spec(w.schedulers[0], w.chunk_kb[0], w.seed(0));
        SessionHost::new(w.service.clone())
            .run(&spec)
            .expect("builtin workloads validate");
    }
}

/// The NDJSON trace of [`traced_sessions`], one record a line.
fn ndjson_of_traced_sessions() -> String {
    telemetry::reset();
    telemetry::set_trace_enabled(true);
    traced_sessions();
    telemetry::set_trace_enabled(false);
    assert_eq!(telemetry::trace_dropped(), 0, "trace sink overflowed");
    telemetry::take_trace()
        .iter()
        .map(|ev| format!("{}\n", telemetry::trace_event_json(ev)))
        .collect()
}

#[test]
fn four_session_trace_matches_the_recording() {
    let golden = std::fs::read_to_string(golden_path()).expect("committed golden readable");
    let got = ndjson_of_traced_sessions();
    for (n, (want, have)) in golden.lines().zip(got.lines()).enumerate() {
        assert_eq!(want, have, "trace line {} differs", n + 1);
    }
    assert_eq!(
        golden.lines().count(),
        got.lines().count(),
        "trace gained or lost records"
    );
    // The sessions reach every per-chunk record kind.
    for needle in [
        "\"kind\":\"chunk.done\"",
        "\"kind\":\"chunk.error\",\"path\":0,\"reason\":\"ServerError\",\"link_down\":0",
        "\"kind\":\"chunk.error\",\"path\":0,\"reason\":\"Timeout\",\"link_down\":1",
        "\"kind\":\"path.failover\"",
        "\"kind\":\"path.recover\"",
        "\"kind\":\"abr.decision\"",
    ] {
        assert!(got.contains(needle), "no record matches {needle}");
    }
}

#[test]
#[ignore = "re-records tests/trace_golden/four_sessions.ndjson"]
fn record_golden() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden has a directory")).expect("mkdir");
    std::fs::write(&path, ndjson_of_traced_sessions()).expect("golden writable");
}
