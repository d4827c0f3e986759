//! End-to-end integration tests across all crates: complete streaming
//! sessions through the simulated links, TCP model, YouTube control plane
//! and the player.

use msplayer::core::config::{PlayerConfig, SchedulerKind};
use msplayer::core::metrics::{SessionMetrics, TrafficPhase};
use msplayer::core::sim::{PathSetup, ServiceSpec, SessionHost, SessionSpec, StopCondition};
use msplayer::simcore::units::ByteSize;

fn quick() -> PlayerConfig {
    PlayerConfig::msplayer().with_prebuffer_secs(15.0)
}

fn testbed(seed: u64, player: PlayerConfig) -> SessionSpec {
    SessionSpec::new(seed, PathSetup::testbed_pair(), player)
}

fn youtube(seed: u64, player: PlayerConfig) -> SessionSpec {
    SessionSpec::new(seed, PathSetup::youtube_pair(), player)
}

/// One session on a fresh host.
fn run_on(service: ServiceSpec, spec: &SessionSpec) -> SessionMetrics {
    SessionHost::new(service).run(spec).expect("valid spec")
}

#[test]
fn full_session_all_schedulers_both_environments() {
    for kind in [
        SchedulerKind::Harmonic,
        SchedulerKind::Ewma,
        SchedulerKind::Ratio,
        SchedulerKind::HarmonicWindowed,
    ] {
        let player = quick().with_scheduler(kind);
        for (service, spec) in [
            (ServiceSpec::testbed(), testbed(5, player.clone())),
            (ServiceSpec::youtube(), youtube(5, player.clone())),
        ] {
            let m = run_on(service, &spec);
            let t = m
                .prebuffer_time()
                .unwrap_or_else(|| panic!("{kind:?} failed to pre-buffer"));
            assert!(
                (0.5..60.0).contains(&t.as_secs_f64()),
                "{kind:?}: implausible pre-buffer time {t}"
            );
        }
    }
}

#[test]
fn deterministic_replay_full_stack() {
    let run = || {
        let spec = youtube(1234, quick()).with_stop(StopCondition::AfterRefills(2));
        run_on(ServiceSpec::youtube(), &spec)
    };
    let a = run();
    let b = run();
    assert_eq!(a.prebuffer_done_at, b.prebuffer_done_at);
    assert_eq!(a.chunks.len(), b.chunks.len());
    assert_eq!(a.refills.len(), b.refills.len());
    for (x, y) in a.chunks.iter().zip(b.chunks.iter()) {
        assert_eq!(x.bytes, y.bytes);
        assert_eq!(x.completed_at, y.completed_at);
        assert_eq!(x.path, y.path);
    }
}

#[test]
fn chunk_ranges_cover_prefix_without_overlap() {
    let spec = testbed(9, quick()).with_stop(StopCondition::AfterRefills(1));
    let m = run_on(ServiceSpec::testbed(), &spec);
    // Sort all completed chunks by their metric record; re-derive coverage
    // from the byte counts: total fetched equals the contiguous target plus
    // at most MAX_CHUNK of overshoot per path.
    let total: u64 = m.chunks.iter().map(|c| c.bytes).sum();
    let target = (15.0 + 20.0) * 312_500.0; // prebuffer + one refill
    assert!(
        total as f64 >= target * 0.99,
        "fetched {total} < target {target}"
    );
    assert!(
        (total as f64) < target + 3.0 * 4.0 * 1024.0 * 1024.0,
        "overshoot too large: {total}"
    );
}

#[test]
fn traffic_fractions_are_probabilities_and_sum_to_one() {
    let spec = testbed(21, quick()).with_stop(StopCondition::AfterRefills(2));
    let m = run_on(ServiceSpec::testbed(), &spec);
    for phase in [TrafficPhase::PreBuffering, TrafficPhase::ReBuffering] {
        let f0 = m.traffic_fraction(0, phase).expect("traffic exists");
        let f1 = m.traffic_fraction(1, phase).expect("traffic exists");
        assert!((0.0..=1.0).contains(&f0));
        assert!((f0 + f1 - 1.0).abs() < 1e-9, "fractions sum to 1");
    }
}

#[test]
fn no_stalls_on_healthy_links() {
    let spec = testbed(33, quick()).with_stop(StopCondition::AfterRefills(3));
    let m = run_on(ServiceSpec::testbed(), &spec);
    assert_eq!(
        m.stalls.len(),
        0,
        "healthy links must not stall: {:?}",
        m.stalls
    );
    assert_eq!(
        m.paths.iter().map(|p| p.failovers).collect::<Vec<_>>(),
        [0, 0],
        "{:?}",
        m.paths
    );
}

#[test]
fn single_path_commercial_profiles_work_at_both_chunk_sizes() {
    for chunk in [64u64, 256] {
        let player =
            PlayerConfig::commercial_single_path(ByteSize::kb(chunk)).with_prebuffer_secs(15.0);
        let mut spec = testbed(3, player);
        spec.paths.truncate(1); // WiFi only
        let m = run_on(ServiceSpec::testbed(), &spec);
        assert!(m.prebuffer_time().is_some(), "{chunk} KB profile streams");
        assert_eq!(m.chunk_count(1), 0);
    }
}

#[test]
fn longer_prebuffer_takes_longer() {
    let t = |pb: f64| {
        let player = PlayerConfig::msplayer().with_prebuffer_secs(pb);
        run_on(ServiceSpec::testbed(), &testbed(11, player))
            .prebuffer_time()
            .unwrap()
            .as_secs_f64()
    };
    let t20 = t(20.0);
    let t40 = t(40.0);
    let t60 = t(60.0);
    assert!(
        t20 < t40 && t40 < t60,
        "monotone in pre-buffer: {t20} {t40} {t60}"
    );
}

#[test]
fn copyrighted_videos_pay_a_bootstrap_penalty() {
    let free = ServiceSpec::testbed();
    assert!(!free.copyrighted);
    let protected = ServiceSpec {
        copyrighted: true,
        ..ServiceSpec::testbed()
    };
    let spec = testbed(17, quick());
    let t_free = run_on(free, &spec).prebuffer_time().unwrap();
    let t_protected = run_on(protected, &spec).prebuffer_time().unwrap();
    assert!(
        t_protected > t_free,
        "decoder-page fetch costs time: {t_protected} vs {t_free}"
    );
}

#[test]
fn head_start_config_controls_first_bytes() {
    let with = run_on(ServiceSpec::testbed(), &testbed(25, quick()));
    let mut cfg = quick();
    cfg.head_start = false;
    let without = run_on(ServiceSpec::testbed(), &testbed(25, cfg));
    // Without head start both paths begin together.
    let gap_with = with.observed_head_start().unwrap().as_secs_f64();
    let gap_without = without.observed_head_start().unwrap().as_secs_f64();
    assert!(
        gap_with > gap_without,
        "head start widens the first-byte gap: {gap_with} vs {gap_without}"
    );
}
