//! Fleet-level integration pins (tier 1):
//!
//! * fluid-mode populations are bit-identical for any worker count —
//!   workers only shard the index-keyed attribute precomputation, so
//!   parallelism can never change a result;
//! * an exact-mode fleet of one is bit-identical to the same session
//!   run standalone through `SessionHost::run` — the fleet's load
//!   injection is exactly inert when there is no other load to inject;
//! * every fluid run here also satisfies the fleet invariant oracle.

use msplayer::core::chaos::check_fleet_invariants;
use msplayer::core::config::PlayerConfig;
use msplayer::core::fleet::{FleetHost, FleetMetrics, FleetServerSpec, FleetSpec, SelectionPolicy};
use msplayer::core::sim::{PathSetup, ServiceSpec, SessionHost, SessionSpec};
use msplayer::simcore::time::SimDuration;
use msplayer::simcore::units::BitRate;
use msplayer_bench::fleet::{frontier_specs, headline_spec};

#[test]
fn fluid_fleet_is_bit_identical_across_worker_counts() {
    let spec = FleetSpec::fluid(0xF1EE_2014, 600).with_policy(SelectionPolicy::QoeFirst);
    let run = |workers: usize| {
        let mut spec = spec.clone();
        spec.workers = workers;
        FleetHost::new(spec).expect("spec validates").run()
    };
    let serial = run(0);
    for workers in [1, 2, 3, 8] {
        assert_eq!(
            serial,
            run(workers),
            "fluid fleet must be bit-identical with {workers} workers"
        );
    }
    // The population actually did something worth pinning.
    assert_eq!(serial.sessions, 600);
    assert!(serial.completed > 0);
    assert!(serial.events > 0);
    assert_eq!(check_fleet_invariants(&spec, &serial), vec![]);
}

#[test]
fn exact_fleet_of_one_matches_a_standalone_session() {
    let base = SessionSpec::new(2014, PathSetup::testbed_pair(), PlayerConfig::msplayer());
    let fleet_spec = FleetSpec::exact(ServiceSpec::testbed(), base.clone(), 1);
    let seed = fleet_spec.session_seed(0);
    let fleet = FleetHost::new(fleet_spec).expect("spec validates").run();
    assert_eq!(fleet.sessions, 1);
    assert_eq!(fleet.completed, 1);
    assert_eq!(fleet.exact_sessions.len(), 1);

    let standalone = SessionHost::new(ServiceSpec::testbed())
        .run(&base.with_seed(seed))
        .expect("base spec validates");

    assert_eq!(
        fleet.exact_sessions[0], standalone,
        "an exact fleet of one must reproduce SessionHost::run bit for bit"
    );
}

/// Every field of [`FleetMetrics`] a fluid run fills (floats by bit
/// pattern; the per-replica usage and the rebuffer-vs-load bins folded
/// with FNV-1a).
#[derive(Debug, PartialEq)]
struct FleetPin {
    events: u64,
    ended_at_us: u64,
    completed: u64,
    rejected: u64,
    stalled_sessions: u64,
    peak_concurrent: u64,
    startup_mean_bits: u64,
    startup_p50_bits: u64,
    startup_p95_bits: u64,
    total_served_bytes: u64,
    total_stall_bits: u64,
    total_cost_bits: u64,
    mean_qoe_bits: u64,
    servers_fnv: u64,
    bins_fnv: u64,
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

fn pin(m: &FleetMetrics) -> FleetPin {
    FleetPin {
        events: m.events,
        ended_at_us: m.ended_at.as_micros(),
        completed: m.completed,
        rejected: m.rejected,
        stalled_sessions: m.stalled_sessions,
        peak_concurrent: m.peak_concurrent,
        startup_mean_bits: m.startup_mean_secs.to_bits(),
        startup_p50_bits: m.startup_p50_secs.to_bits(),
        startup_p95_bits: m.startup_p95_secs.to_bits(),
        total_served_bytes: m.total_served_bytes,
        total_stall_bits: m.total_stall_secs.to_bits(),
        total_cost_bits: m.total_cost.to_bits(),
        mean_qoe_bits: m.mean_qoe.to_bits(),
        servers_fnv: fnv1a(m.servers.iter().flat_map(|s| {
            [s.served_bytes, s.peak_sessions]
                .into_iter()
                .chain(s.utilization.iter().map(|u| u.to_bits()))
        })),
        bins_fnv: fnv1a(
            m.rebuffer_vs_load
                .iter()
                .flat_map(|b| [b.sessions, b.stalled, b.rejected]),
        ),
    }
}

/// The event queue's layout and sizing may change speed only. Recorded at
/// the commit before the intrusive ring (`rejected`, the mean start-up,
/// cost, QoE and the two folds: before the arrivals were pushed in arrival
/// order); a queue change that moves any of these has changed pop order.
#[test]
fn fluid_fleet_metrics_are_pinned_across_queue_changes() {
    let overload = frontier_specs(2_000)
        .into_iter()
        .find(|case| case.label == "cheapest-feasible@x0.6")
        .expect("the frontier grid has the overloaded cell")
        .spec;
    let cells = [
        (
            "headline",
            headline_spec(4_000),
            FleetPin {
                events: 132_662,
                ended_at_us: 453_291_434,
                completed: 4_000,
                rejected: 0,
                stalled_sessions: 0,
                peak_concurrent: 4_000,
                startup_mean_bits: 4624810611756491273,
                startup_p50_bits: 4620955417252434406,
                startup_p95_bits: 4629899521076395938,
                total_served_bytes: 375_521_755_885,
                total_stall_bits: 0,
                total_cost_bits: 4628265596115683886,
                mean_qoe_bits: 13840864299216790018,
                servers_fnv: 5171065126837491384,
                bins_fnv: 1509327914284955984,
            },
        ),
        (
            "cheapest-feasible@x0.6",
            overload,
            FleetPin {
                events: 102_737,
                ended_at_us: 590_129_996,
                completed: 2_000,
                rejected: 0,
                stalled_sessions: 2_000,
                peak_concurrent: 2_000,
                startup_mean_bits: 4627485469286442631,
                startup_p50_bits: 4625627636153453281,
                startup_p95_bits: 4634116319235333994,
                total_served_bytes: 188_163_647_459,
                total_stall_bits: 4685159189461623832,
                total_cost_bits: 4623700887931138491,
                mean_qoe_bits: 13863973845076710488,
                servers_fnv: 10755838669381589491,
                bins_fnv: 17588871894978846585,
            },
        ),
    ];
    for (name, spec, want) in cells {
        let m = FleetHost::new(spec.clone()).expect("spec validates").run();
        assert_eq!(check_fleet_invariants(&spec, &m), vec![], "{name}");
        assert_eq!(pin(&m), want, "{name}");
    }
}

/// `arrival_window: 0` puts every arrival at one instant: 20 000 events
/// with equal timestamps, which the queue must drain in push order
/// without re-scanning the crowd per pop.
#[test]
fn flash_crowd_of_20k_sessions_runs_to_completion() {
    let mut spec = FleetSpec::fluid(0xF1A5_4C20, 20_000);
    spec.arrival_window = SimDuration::ZERO;
    spec.servers = vec![FleetServerSpec::new(BitRate::mbps(15_000.0)); 4];
    let m = FleetHost::new(spec.clone()).expect("spec validates").run();
    assert_eq!(check_fleet_invariants(&spec, &m), vec![]);
    assert_eq!(m.sessions, 20_000);
    assert_eq!(m.rejected, 0);
    assert_eq!(m.completed, 20_000);
    assert_eq!(m.peak_concurrent, 20_000, "everyone arrived at once");
    // Every arrival shares one instant, so the queue's FIFO tie-break is
    // the whole arrival order: the push order of the arrivals may change
    // speed only.
    assert_eq!(
        pin(&m),
        FleetPin {
            events: 780_660,
            ended_at_us: 333_448_369,
            completed: 20_000,
            rejected: 0,
            stalled_sessions: 0,
            peak_concurrent: 20_000,
            startup_mean_bits: 4629887516613545930,
            startup_p50_bits: 4629901002479198366,
            startup_p95_bits: 4629904212279095286,
            total_served_bytes: 1_882_819_234_631,
            total_stall_bits: 0,
            total_cost_bits: 0,
            mean_qoe_bits: 13847535678634073440,
            servers_fnv: 9959156971150233658,
            bins_fnv: 18106261682590055458,
        }
    );
}
