//! The tick register against the queued tick it replaced.
//!
//! A simulated session keeps the player's one pending tick as a value in
//! its `Session`, ordered against the event queue by the sequence number
//! its push would have taken (`Session::next_event`). The reference below
//! is the loop the simulator ran before: every tick goes through the
//! `EventQueue`, and a superseded one is cancelled there. Both run the
//! same sessions and must agree on every session and on the session-level
//! event counts (`msp_event_{pushes,pops,cancels}_total`).
//!
//! The reference mirrors the register after each `step`: the player asks
//! for its tick after every other action of an event (the last thing
//! `Player::handle_into` does), so a tick pushed after the step takes the
//! place in push order it took when the loop pushed it in line. What is
//! compared is therefore where a tick fires and what is counted; the
//! coalescing rule itself (a new instant overwrites, the same instant is a
//! no-op) is `step`'s in both, and `sim::tests` pins it.
//!
//! Every session must run to its end in both drivers: a panic anywhere,
//! such as the playout buffer's "playable prefix shrank" assertion, fails
//! the test.
//!
//! One test in this binary: it reads the process-wide telemetry counters.

use msim_core::event::{EventId, EventQueue};
use msim_core::telemetry;
use msim_core::time::SimTime;
use msplayer_bench::cluster::merge::digest_metrics;
use msplayer_bench::workload::{WorkloadRegistry, WorkloadSpec};
use msplayer_core::metrics::SessionMetrics;
use msplayer_core::player::PlayerEvent;
use msplayer_core::sim::{SessionHost, SessionSpec};

/// The workloads of the benchmark's tick-heavy cluster sweep.
const CLUSTER_TICKS: [&str; 4] = [
    "abr/closed-loop",
    "abr/mobility-handoff",
    "abr/ladder",
    "mobility/mixed-trace",
];

const EVENT_COUNTERS: [&str; 3] = [
    "msp_event_pushes_total",
    "msp_event_pops_total",
    "msp_event_cancels_total",
];

/// One session through the reference loop: its metrics and the queue's
/// push / pop / cancel counts, every tick among them; adds its ticks to
/// `ticks`.
fn with_queued_ticks(
    host: &mut SessionHost,
    spec: &SessionSpec,
    ticks: &mut u64,
) -> (SessionMetrics, [u64; 3]) {
    let mut queue = EventQueue::new();
    let mut session = host
        .start(spec.seed, spec, &mut queue)
        .expect("registered workloads validate");
    let horizon = session.horizon();
    let mut queued: Option<(SimTime, EventId)> = None;
    let end = loop {
        let Some((now, event)) = queue.pop() else {
            break queue.now();
        };
        if now > horizon {
            break horizon;
        }
        if matches!(event, PlayerEvent::Tick) {
            queued = None;
            *ticks += 1;
        }
        let stop = host.step(&mut session, &mut queue, now, event);
        let wanted = session.pending_tick();
        if wanted != queued.map(|(at, _)| at) {
            if let Some((_, id)) = queued.take() {
                assert!(queue.cancel(id), "the superseded tick was pending");
            }
            queued = wanted.map(|at| (at, queue.push(at, PlayerEvent::Tick)));
        }
        if stop {
            break now;
        }
    };
    let ops = queue.op_counts();
    (
        host.finish(session, end),
        [ops.pushes, ops.pops, ops.cancels],
    )
}

/// One session through `SessionHost::run` (the register), and what it
/// added to the event counters.
fn with_register(host: &mut SessionHost, spec: &SessionSpec) -> (SessionMetrics, [u64; 3]) {
    let counts = || EVENT_COUNTERS.map(|name| telemetry::counter(name).get());
    let before = counts();
    let m = host.run(spec).expect("registered workloads validate");
    let after = counts();
    (m, [0, 1, 2].map(|i| after[i] - before[i]))
}

/// Tallies of a comparison.
#[derive(Default)]
struct Compared {
    sessions: u64,
    ticks: u64,
}

/// Runs `seeds` runs of every grid point of `w` through both drivers.
fn compare(w: &WorkloadSpec, seeds: u64, tally: &mut Compared) {
    let (mut register, mut reference) = (
        SessionHost::new(w.service.clone()),
        SessionHost::new(w.service.clone()),
    );
    for &scheduler in &w.schedulers {
        for &chunk_kb in &w.chunk_kb {
            for run in 0..seeds {
                let spec = w.session_spec(scheduler, chunk_kb, w.seed(run));
                let at = format!(
                    "{} {scheduler:?} {chunk_kb} KB seed {:#x}",
                    w.name, spec.seed
                );
                let (got, got_ops) = with_register(&mut register, &spec);
                let (want, want_ops) = with_queued_ticks(&mut reference, &spec, &mut tally.ticks);
                assert_eq!(
                    digest_metrics(&got),
                    digest_metrics(&want),
                    "session digest differs on {at}"
                );
                assert_eq!(got, want, "session metrics differ on {at}");
                assert_eq!(got_ops, want_ops, "push/pop/cancel totals differ on {at}");
                tally.sessions += 1;
            }
        }
    }
}

#[test]
fn register_ticks_match_queued_ticks_session_for_session() {
    telemetry::set_enabled(true);
    let cluster = WorkloadRegistry::builtin(64);
    let mut tally = Compared::default();
    for name in CLUSTER_TICKS {
        compare(
            cluster.by_name(name).expect("registered workload"),
            64,
            &mut tally,
        );
    }
    let Compared { sessions, ticks } = tally;
    assert_eq!(sessions, 7 * 64, "the benchmark's seven cell kinds");
    assert!(
        ticks > 100 * sessions,
        "only {ticks} ticks in {sessions} sessions"
    );
    for w in WorkloadRegistry::builtin(4).specs() {
        compare(w, 4, &mut tally);
    }
}
