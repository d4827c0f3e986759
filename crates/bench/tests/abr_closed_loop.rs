//! Closed-loop ABR differential guardrails.
//!
//! The contract the whole subsystem rides on: the closed-loop machinery is
//! *inert* until a switch actually fires. On a one-rung ladder no policy
//! can ever switch, so a closed-loop session must be **bit-identical** to
//! the fixed-itag player — every chunk record, f64 goodput, refill, and
//! stall (the fields that encode the links' RNG stream positions) must
//! match exactly. And on a stable link where the policy holds its rung,
//! shadow mode and closed-loop mode must take the same decisions.

use msim_net::profile::PathProfile;
use msim_youtube::dns::Network;
use msplayer_bench::workload::{WorkloadRegistry, WorkloadSpec};
use msplayer_core::abr::AbrPolicyKind;
use msplayer_core::config::{AbrLadderConfig, PlayerConfig, SchedulerKind};
use msplayer_core::metrics::SessionMetrics;
use msplayer_core::sim::{
    PathSetup, ServiceSpec, SessionHost, SessionSpec, StopCondition, STREAM_ITAG,
};

/// Strips the fields closed-loop sessions grow by design — the ABR traces
/// and the event count (decision ticks are extra simulator events) — so
/// what remains is exactly the simulated streaming behaviour.
fn behavioural(m: &SessionMetrics) -> SessionMetrics {
    let mut m = m.clone();
    m.abr = None;
    m.events = 0;
    m
}

const POLICIES: [AbrPolicyKind; 2] = [AbrPolicyKind::DampedRate, AbrPolicyKind::Hybrid];

/// Closed-loop ABR on a one-rung ladder is bit-identical to the
/// fixed-itag player, for every builtin workload shape, every policy, and
/// several randomized seeds. Chunk goodputs and completion times are pure
/// functions of the links' RNG streams, so equality here pins the RNG
/// stream positions too.
#[test]
fn one_rung_closed_loop_is_bit_identical_to_the_fixed_player() {
    let registry = WorkloadRegistry::builtin(1);
    let mut covered = 0;
    for w in registry.specs() {
        if w.abr.is_some() {
            // ABR workloads diverge from the fixed player by design.
            continue;
        }
        let mut host = SessionHost::new(w.service.clone());
        for run in 0..2u64 {
            let seed = w.seed(run);
            let spec = w.session_spec(w.schedulers[0], w.chunk_kb[0], seed);
            let fixed = host.run(&spec).expect("builtin specs validate");
            for policy in POLICIES {
                let mut abr_spec = spec.clone();
                abr_spec.player.abr_ladder = Some(
                    AbrLadderConfig::closed_loop()
                        .with_policy(policy)
                        .with_ladder(vec![STREAM_ITAG]),
                );
                let closed = host.run(&abr_spec).expect("one-rung ladder validates");
                let qoe = closed.abr.as_ref().and_then(|a| a.qoe);
                let qoe = qoe.expect("closed-loop sessions carry QoE");
                assert_eq!(qoe.switches, 0, "{}: one rung cannot switch", w.name);
                assert_eq!(
                    qoe.time_weighted_bitrate_bps,
                    msim_youtube::by_itag(STREAM_ITAG).unwrap().bitrate.as_bps(),
                    "{}: one-rung TWA is the fixed bitrate",
                    w.name
                );
                assert_eq!(
                    behavioural(&closed),
                    behavioural(&fixed),
                    "{} seed {seed:#x} {policy:?}: closed loop diverged from the fixed player",
                    w.name
                );
            }
        }
        covered += 1;
    }
    assert!(covered >= 11, "covered only {covered} workloads");
}

/// On a stable link whose budget exactly sustains the starting rung, no
/// switch fires — and shadow mode must take the same decisions as closed
/// loop (same rungs, same reasons, same inputs).
#[test]
fn shadow_equals_closed_loop_when_no_switch_fires() {
    // One stable 3.5 Mb/s path: budget 0.8 × 3.5 = 2.8 Mb/s affords
    // itag 22 (2.5 Mb/s) but not 37 (4.3 Mb/s) — the damped policy holds.
    // The ladder floor is the starting rung: the policy's very first
    // decision fires before any path has a warmed-up sample (estimate 0 →
    // floor), so a lower rung in the ladder would legitimately switch.
    let ladder = vec![22, 37];
    let run = |abr: AbrLadderConfig| {
        let cfg = PlayerConfig::msplayer()
            .with_prebuffer_secs(10.0)
            .with_abr_ladder(abr);
        let path = PathSetup::new(PathProfile::stable(3.5, 30), Network::Wifi);
        let spec = SessionSpec::new(11, vec![path], cfg).with_stop(StopCondition::AfterRefills(2));
        SessionHost::new(ServiceSpec::testbed())
            .run(&spec)
            .expect("valid spec")
    };
    let closed = run(AbrLadderConfig::closed_loop().with_ladder(ladder.clone()));
    let shadow = run(AbrLadderConfig::default().with_ladder(ladder));

    let (closed_abr, shadow_abr) = (closed.abr.as_deref(), shadow.abr.as_deref());
    let (closed_abr, shadow_abr) = (
        closed_abr.expect("a ladder ran"),
        shadow_abr.expect("shadow"),
    );
    let qoe = closed_abr.qoe.expect("closed loop carries QoE");
    assert_eq!(qoe.switches, 0, "stable link must not switch: {qoe:?}");
    assert!(
        !closed_abr.decisions.is_empty(),
        "decisions were taken on the stable link"
    );
    // Decision-for-decision equality (shadow never sets `switched`; with
    // no switch fired the closed-loop flags are all false too).
    assert_eq!(closed_abr.decisions, shadow_abr.decisions);
    assert_eq!(closed_abr.switches, shadow_abr.switches);
    // And the streams themselves are identical.
    assert_eq!(behavioural(&closed), behavioural(&shadow));
}

/// The acceptance scenario: a sweep over the closed-loop grid and the
/// mobility-handoff workload contains sessions whose streamed itag changes
/// mid-session, with the time-weighted bitrate strictly between the ladder
/// endpoints.
#[test]
fn closed_loop_sweep_switches_between_ladder_endpoints() {
    let mut cells = Vec::new();
    for w in [
        WorkloadSpec::abr_closed_loop_grid(2),
        WorkloadSpec::abr_mobility_handoff(2),
    ] {
        cells.extend(msplayer_bench::sweep::expand_workload(&w.into()));
    }
    let results = msplayer_bench::sweep::run_serial(&cells);
    let bottom = msim_youtube::by_itag(17).unwrap().bitrate.as_bps();
    let top = msim_youtube::by_itag(37).unwrap().bitrate.as_bps();
    let mut switched = 0;
    for r in &results {
        let qoe = r
            .expect_metrics()
            .abr
            .as_ref()
            .and_then(|a| a.qoe)
            .expect("closed-loop cells carry QoE");
        // Switched or not, a session only ever streams ladder rungs.
        assert!(
            (bottom..=top).contains(&qoe.time_weighted_bitrate_bps),
            "{:?}: twa {} outside [{bottom}, {top}]",
            r.cell,
            qoe.time_weighted_bitrate_bps
        );
        if qoe.switches > 0 {
            switched += 1;
            assert!(
                qoe.time_weighted_bitrate_bps > bottom && qoe.time_weighted_bitrate_bps < top,
                "{:?}: twa {} outside ({bottom}, {top})",
                r.cell,
                qoe.time_weighted_bitrate_bps
            );
            assert!(
                r.expect_metrics()
                    .abr
                    .as_ref()
                    .expect("a ladder ran")
                    .decisions
                    .iter()
                    .any(|d| d.switched),
                "switch count without a switched decision"
            );
        }
    }
    assert!(switched > 0, "no session of the sweep ever switched");
}

/// The playout buffer asserts on every report that the playable prefix
/// never shrinks. This session (`abr/closed-loop`, Ratio, 1024 KB, run 17)
/// once tripped it: each switch rescaled the buffer into the new rung's
/// bytes and the player rounded the prefix a second time through that
/// rung's rate, so an event that added no contiguous bytes could read a
/// smaller prefix. The buffer now counts the starting rung's bytes for the
/// whole session, so a refill credits its chunks' video seconds × the
/// starting rate, and no more video than those chunks carry.
#[test]
fn the_playable_prefix_never_shrinks_across_closed_loop_switches() {
    let w = WorkloadSpec::abr_closed_loop_grid(18);
    let spec = w.session_spec(SchedulerKind::Ratio, 1024, w.seed(17));
    let m = SessionHost::new(w.service.clone())
        .run(&spec)
        .expect("registered workloads validate");
    let abr = m.abr.as_deref().expect("a ladder ran");
    let qoe = abr.qoe.expect("closed-loop sessions carry QoE");
    assert!(qoe.switches >= 2, "only {} switches", qoe.switches);
    assert_eq!(m.refills.len(), 2, "the session stops after two refills");
    // Both refills run after the last switch, so every byte they receive
    // holds 1 / rate(last rung) seconds of video. One completed
    // out-of-order chunk (`ooo_cap`) may fold in from before the cycle.
    let rate = |itag| msim_youtube::by_itag(itag).unwrap().bytes_per_sec();
    let last = abr.switches.last().expect("switched");
    let largest = m.chunks.iter().map(|c| c.bytes).max().unwrap_or(0);
    for r in &m.refills {
        assert!(last.at < r.started_at, "a switch at {} in {r:?}", last.at);
        let received: u64 = m
            .chunks
            .iter()
            .filter(|c| c.completed_at > r.started_at && c.completed_at <= r.completed_at)
            .map(|c| c.bytes)
            .sum();
        let credited = r.bytes as f64 / rate(STREAM_ITAG);
        let carried = (received + largest) as f64 / rate(last.itag);
        assert!(
            credited <= carried,
            "{r:?} credits {credited} s of video, its chunks carry at most {carried} s"
        );
    }
}
