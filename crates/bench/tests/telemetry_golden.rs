//! Pins what the telemetry registry holds after a fixed batch.
//!
//! Hot call sites resolve their series once (`telemetry::LazyCounter` /
//! `LazyHistogram`) instead of looking them up by name on every call.
//! That must be invisible from outside: the same series are registered,
//! with the same keys, and every counter and histogram bucket reads the
//! same after the same work. `tests/telemetry_golden/fixed_batch.prom` is
//! `render_prometheus()` after [`fixed_batch`] as recorded with by-name
//! lookups at every site, minus the `msp_phase_nanos_total` lines (wall
//! time). The registry is process-global, so this file holds exactly one
//! test that runs by default.
//!
//! Re-record after adding or renaming a series on purpose:
//!
//! ```sh
//! cargo test -p msplayer-bench --test telemetry_golden -- --ignored
//! ```

use msim_core::telemetry;
use msplayer_bench::workload::WorkloadRegistry;
use msplayer_core::fleet::{FleetHost, FleetSpec, SelectionPolicy};
use msplayer_core::sim::SessionHost;
use std::path::{Path, PathBuf};

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/telemetry_golden/fixed_batch.prom")
}

/// Two seeds of every builtin workload (first scheduler and chunk size:
/// prebuffer runs, storms with failovers and 5xx verdicts, shadow and
/// closed-loop ABR) and a small overloaded fluid fleet.
fn fixed_batch() {
    let reg = WorkloadRegistry::builtin(2);
    for w in reg.specs() {
        let (scheduler, chunk_kb) = (w.schedulers[0], w.chunk_kb[0]);
        let seeds = [w.seed(0), w.seed(1)];
        SessionHost::new(w.service.clone())
            .run_batch(&seeds, &w.session_spec(scheduler, chunk_kb, seeds[0]))
            .expect("builtin workloads validate");
    }
    let fleet = FleetSpec::fluid(0xF1EE_2014, 600).with_policy(SelectionPolicy::QoeFirst);
    FleetHost::new(fleet).expect("fleet spec validates").run();
}

/// The registry's exposition after [`fixed_batch`], without wall time.
fn rendered_after_fixed_batch() -> String {
    telemetry::reset();
    telemetry::set_enabled(true);
    fixed_batch();
    telemetry::set_enabled(false);
    telemetry::render_prometheus()
        .lines()
        .filter(|line| !line.starts_with("msp_phase_nanos_total"))
        .map(|line| format!("{line}\n"))
        .collect()
}

#[test]
fn registry_after_a_fixed_batch_matches_the_by_name_recording() {
    let golden = std::fs::read_to_string(golden_path()).expect("committed golden readable");
    let got = rendered_after_fixed_batch();
    for (n, (want, have)) in golden.lines().zip(got.lines()).enumerate() {
        assert_eq!(want, have, "exposition line {} differs", n + 1);
    }
    assert_eq!(
        golden.lines().count(),
        got.lines().count(),
        "exposition gained or lost series"
    );
    // The batch reached the sites that were rewired, on every label.
    for series in [
        "msp_transfer_requests_total",
        "msp_admission_checks_total{verdict=\"ok\"}",
        "msp_chunk_errors_total",
        "msp_failovers_total",
        "msp_abr_decisions_total",
        "msp_fleet_arrivals_total",
        "msp_fleet_departures_total",
        "msp_chunk_fetch_us_count",
    ] {
        let line = got
            .lines()
            .find(|l| l.strip_prefix(series).is_some_and(|r| r.starts_with(' ')))
            .unwrap_or_else(|| panic!("{series} not rendered"));
        assert!(!line.ends_with(" 0"), "fixed batch never hit {series}");
    }
}

#[test]
#[ignore = "re-records tests/telemetry_golden/fixed_batch.prom"]
fn record_golden() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("golden has a directory")).expect("mkdir");
    std::fs::write(&path, rendered_after_fixed_batch()).expect("golden writable");
}
