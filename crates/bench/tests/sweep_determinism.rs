//! Determinism at scale: the parallel sweep engine must be an exact
//! drop-in for the serial runner, and the simulator itself must replay
//! bit-identically from a seed.

use msplayer_bench::sweep::{expand_workload, run_parallel, run_serial, Cell};
use msplayer_bench::workload::{WorkloadRegistry, WorkloadSpec};
use msplayer_core::config::SchedulerKind;
use msplayer_core::sim::{SessionHost, SessionSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// The cells of the named builtins after `shrink` cut their grids down to
/// test size.
fn cells_of(names: &[&str], shrink: impl Fn(&mut WorkloadSpec)) -> Vec<Cell> {
    let reg = WorkloadRegistry::builtin(1);
    names
        .iter()
        .flat_map(|name| {
            let mut w = WorkloadSpec::clone(reg.by_name(name).expect("builtin"));
            shrink(&mut w);
            expand_workload(&Arc::new(w))
        })
        .collect()
}

/// Every paper cell kind — both environments, all three players, all
/// paper schedulers — produces bit-identical per-cell metrics whether run
/// serially or across the thread pool.
#[test]
fn parallel_sweep_matches_serial_for_every_cell_kind() {
    let reg = WorkloadRegistry::builtin(1);
    let cells = cells_of(&reg.names()[..6], |w| {
        w.prebuffer_secs = 10.0;
        w.runs = 2;
    });
    // (2 env) × (MsPlayer × 3 sched + 2 single-path × 1) × 1 chunk × 2 seeds
    assert_eq!(cells.len(), 2 * (3 + 2) * 2);
    let serial = run_serial(&cells);
    for threads in [2, 3, 8] {
        let parallel = run_parallel(&cells, threads);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s, p, "cell diverged with {threads} threads: {:?}", s.cell);
        }
    }
}

/// A session on a fresh host with equal seeds is bit-identical across 3
/// runs — including chunk-level f64 goodputs and the event count.
#[test]
fn fresh_host_session_is_bit_identical_across_three_runs() {
    let reg = WorkloadRegistry::builtin(1);
    let player = reg.by_name("testbed/MSPlayer").expect("builtin");
    let player = player
        .player_config(SchedulerKind::Harmonic, 256)
        .with_prebuffer_secs(10.0);
    for name in ["testbed/MSPlayer", "youtube/MSPlayer", "testbed/WiFi"] {
        let w = reg.by_name(name).expect("builtin");
        let spec = SessionSpec::new(0xD5EED, w.paths.clone(), player.clone());
        let make = || {
            SessionHost::new(w.service.clone())
                .run(&spec)
                .expect("valid spec")
        };
        let a = make();
        let b = make();
        let c = make();
        assert_eq!(a, b, "{name} run 2 diverged");
        assert_eq!(b, c, "{name} run 3 diverged");
        assert!(a.events > 0, "event count recorded");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Random sweep shapes (dims, seeds, thread counts) keep the
    /// parallel == serial invariant.
    #[test]
    fn random_sweeps_are_schedule_independent(
        runs in 1u64..3,
        chunk_kb in prop::sample::select(vec![64u64, 256]),
        threads in 2usize..6,
        sched in prop::sample::select(vec![
            SchedulerKind::Harmonic,
            SchedulerKind::Ratio,
        ]),
    ) {
        let cells = cells_of(&["testbed/MSPlayer", "testbed/LTE"], |w| {
            if w.paths.len() > 1 {
                w.schedulers = vec![sched];
            }
            w.chunk_kb = vec![chunk_kb];
            w.prebuffer_secs = 8.0;
            w.runs = runs;
        });
        prop_assert!(!cells.is_empty());
        let serial = run_serial(&cells);
        let parallel = run_parallel(&cells, threads);
        prop_assert_eq!(&serial, &parallel);
    }
}

/// The engine handles degenerate inputs: empty cell lists and more threads
/// than cells.
#[test]
fn degenerate_sweeps() {
    let empty: Vec<Cell> = Vec::new();
    assert!(run_parallel(&empty, 8).is_empty());
    let cells = cells_of(&["testbed/MSPlayer"], |w| {
        w.schedulers = vec![SchedulerKind::Harmonic];
        w.prebuffer_secs = 8.0;
    });
    assert_eq!(cells.len(), 1);
    assert_eq!(run_parallel(&cells, 64), run_serial(&cells));
}
