//! Batch-API equivalence and N-path determinism.
//!
//! The contract the whole sweep engine rides on: running sessions over a
//! warmed [`SessionHost`] — one at a time, in a batch, or interleaved — is
//! bit-identical to running each session on a fresh host of its own. Host
//! reuse amortizes bootstrap, never behaviour.

use msplayer_bench::sweep::{expand_workload, run_parallel, run_serial};
use msplayer_bench::workload::{PlayerKind, WorkloadRegistry, WorkloadSpec};
use msplayer_core::chaos::ChaosPlan;
use msplayer_core::metrics::SessionMetrics;
use msplayer_core::sim::{SessionHost, StopCondition};
use proptest::prelude::*;
use std::sync::Arc;

/// Every built-in workload (both environments, all player shapes, the
/// storms, the 3/4-path grids, the ABR and mobility workloads, and the
/// same-network dual-WiFi scenario), plus a chaos-layered one and a
/// closed-loop ABR session that downloads the whole video.
fn builtin_plus_chaos_and_abr_download() -> Vec<Arc<WorkloadSpec>> {
    let registry = WorkloadRegistry::builtin(1);
    assert_eq!(registry.specs().len(), 15);
    let mut specs = registry.specs().to_vec();
    let plain = WorkloadSpec::clone(registry.by_name("testbed/MSPlayer").expect("builtin"));
    let plan = ChaosPlan::preset("kitchen-sink").expect("preset parses");
    specs.push(Arc::new(plain.with_chaos(plan)));
    let mut abr = WorkloadSpec::abr_closed_loop_grid(1);
    abr.name = "abr/closed-loop-download".into();
    abr.stop = StopCondition::DownloadComplete;
    abr.chunk_kb = vec![64];
    specs.push(Arc::new(abr));
    specs
}

/// The exact-size contract of `SessionMetrics`: a finished session holds
/// no spare trace capacity, however it was run.
fn assert_traces_are_exact_size(m: &SessionMetrics, what: &str) {
    assert_eq!(m.chunks.capacity(), m.chunks.len(), "{what}: chunks");
    assert_eq!(m.paths.capacity(), m.paths.len(), "{what}: paths");
    if let Some(abr) = &m.abr {
        let decisions = abr.decisions.capacity();
        assert_eq!(decisions, abr.decisions.len(), "{what}: abr.decisions");
        let switches = abr.switches.capacity();
        assert_eq!(switches, abr.switches.len(), "{what}: abr.switches");
    }
}

/// `run_batch` over N seeds is bit-identical to N sessions each run on a
/// fresh host, and both hand back exact-size traces.
#[test]
fn batch_equals_fresh_host_per_session_for_every_builtin_workload() {
    for w in builtin_plus_chaos_and_abr_download() {
        let spec = w.session_spec(w.schedulers[0], w.chunk_kb[0], 0);
        let seeds: Vec<u64> = (0..3).map(|r| w.seed(r)).collect();
        let batch = SessionHost::new(w.service.clone())
            .run_batch(&seeds, &spec)
            .expect("builtin specs validate");
        assert_eq!(batch.len(), seeds.len());
        for (i, &seed) in seeds.iter().enumerate() {
            let single = SessionHost::new(w.service.clone())
                .run(&spec.clone().with_seed(seed))
                .expect("builtin specs validate");
            assert_eq!(batch[i], single, "{}: seed {seed:#x} diverged", w.name);
            assert!(!single.chunks.is_empty(), "{}: nothing recorded", w.name);
            assert_traces_are_exact_size(&batch[i], &format!("{} batch[{i}]", w.name));
            assert_traces_are_exact_size(&single, &format!("{} run({seed:#x})", w.name));
        }
    }
}

/// Interleaving different session shapes on one host leaves each session
/// unchanged: host state never leaks across runs.
#[test]
fn interleaved_sessions_do_not_leak_host_state() {
    let storm = WorkloadSpec::server_failure_storm(1);
    let registry = WorkloadRegistry::builtin(1);
    let mut plain = WorkloadSpec::clone(registry.by_name("testbed/MSPlayer").expect("builtin"));
    plain.prebuffer_secs = 10.0;
    assert_eq!(storm.service.service.servers_per_network, 2);
    let storm_spec = storm.session_spec(storm.schedulers[0], 256, storm.seed(0));
    let plain_spec = plain.session_spec(plain.schedulers[0], 256, plain.seed(0));

    let mut fresh = SessionHost::new(plain.service.clone());
    let plain_alone = fresh.run(&plain_spec).expect("valid");
    let mut fresh = SessionHost::new(storm.service.clone());
    let storm_alone = fresh.run(&storm_spec).expect("valid");

    // Same service profile → one shared host, alternating shapes.
    let mut shared = SessionHost::new(plain.service.clone());
    let storm_first = shared.run(&storm_spec).expect("valid");
    let plain_after_storm = shared.run(&plain_spec).expect("valid");
    let storm_again = shared.run(&storm_spec).expect("valid");

    assert_eq!(storm_first, storm_alone, "storm diverged on shared host");
    assert_eq!(
        plain_after_storm, plain_alone,
        "failure plan leaked into the next session"
    );
    assert_eq!(storm_again, storm_alone, "host drifted after reuse");
}

/// A 3-path scenario runs end-to-end through `SessionHost` and the
/// parallel sweep with bit-identical serial/parallel output.
#[test]
fn three_path_workload_runs_through_the_sweep_engine() {
    let w = Arc::new(WorkloadSpec::three_path_testbed(2));
    assert_eq!(w.paths.len(), 3);
    assert_eq!(w.player, PlayerKind::MsPlayer);
    let cells = expand_workload(&w);
    // 2 schedulers × 1 chunk × 2 seeds.
    assert_eq!(cells.len(), 4);
    let serial = run_serial(&cells);
    for r in &serial {
        assert!(
            r.expect_metrics().prebuffer_done_at.is_some(),
            "{:?}",
            r.cell
        );
        assert_eq!(r.expect_metrics().num_paths(), 3);
        assert!(
            (0..3).all(|p| r.expect_metrics().chunk_count(p) > 0),
            "all three paths carried traffic: {:?}",
            r.cell
        );
    }
    for threads in [2, 3, 8] {
        let parallel = run_parallel(&cells, threads);
        assert_eq!(
            serial, parallel,
            "3-path sweep diverged at {threads} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    /// 3-path determinism property: whatever the seed count and thread
    /// count, the parallel sweep over the 3-path workload is bit-identical
    /// to the serial one.
    #[test]
    fn three_path_sweep_is_schedule_independent(
        runs in 1u64..3,
        threads in 2usize..6,
    ) {
        let w = Arc::new(WorkloadSpec::three_path_testbed(runs));
        let cells = expand_workload(&w);
        prop_assert!(!cells.is_empty());
        let serial = run_serial(&cells);
        let parallel = run_parallel(&cells, threads);
        prop_assert_eq!(&serial, &parallel);
    }
}
