//! Figure-shape smoke tests: small-N versions of every figure/table
//! experiment asserting the *qualitative* claims of the paper hold for the
//! default seeds. The full-N versions are drawn by `msplayer scorecard`
//! (`crates/bench/src/bin/msplayer/scorecard.rs`).

use msplayer::core::config::{PlayerConfig, SchedulerKind};
use msplayer::core::metrics::{SessionMetrics, TrafficPhase};
use msplayer::core::sim::{PathSetup, ServiceSpec, SessionHost, SessionSpec, StopCondition};
use msplayer::http::tls;
use msplayer::simcore::stats::median;
use msplayer::simcore::time::SimDuration;
use msplayer::simcore::units::ByteSize;

const RUNS: u64 = 8;

/// One figure row: `player` on `paths` over `RUNS` seeds, on one warmed
/// host of `service`.
fn run_row(
    service: ServiceSpec,
    paths: Vec<PathSetup>,
    player: PlayerConfig,
    stop: StopCondition,
) -> Vec<SessionMetrics> {
    let seeds: Vec<u64> = (0..RUNS)
        .map(|r| 0x5eed ^ (r.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    let spec = SessionSpec::new(0, paths, player).with_stop(stop);
    SessionHost::new(service)
        .run_batch(&seeds, &spec)
        .expect("valid spec")
}

/// The WiFi-only (`0`) or LTE-only (`1`) half of a path pair.
fn only(pair: Vec<PathSetup>, index: usize) -> Vec<PathSetup> {
    vec![pair[index].clone()]
}

fn prebuffer_median(service: ServiceSpec, paths: Vec<PathSetup>, player: PlayerConfig) -> f64 {
    let times: Vec<f64> = run_row(service, paths, player, StopCondition::PrebufferDone)
        .iter()
        .map(|m| m.prebuffer_time().expect("completes").as_secs_f64())
        .collect();
    median(&times)
}

fn msplayer_cfg(kind: SchedulerKind, chunk_kb: u64, pb: f64) -> PlayerConfig {
    PlayerConfig::msplayer()
        .with_scheduler(kind)
        .with_initial_chunk(ByteSize::kb(chunk_kb))
        .with_prebuffer_secs(pb)
}

fn commercial(chunk_kb: u64, pb: f64) -> PlayerConfig {
    PlayerConfig::commercial_single_path(ByteSize::kb(chunk_kb)).with_prebuffer_secs(pb)
}

// --- Fig. 1 ----------------------------------------------------------------

#[test]
fn fig1_formulas_hold() {
    let r1 = SimDuration::from_millis(25);
    let r2 = SimDuration::from_millis(65);
    assert_eq!(tls::pi(r1), tls::psi(r1) + tls::eta(r1));
    // With Δ1 + Δ2 = 7 ms: η = 4R + 7 ms, ψ = 6R + 7 ms.
    assert_eq!(tls::eta(r1), SimDuration::from_millis(107));
    assert_eq!(tls::psi(r1), SimDuration::from_millis(157));
    // Head start = 10(θ−1)R1, independent of Δs.
    assert_eq!(
        tls::head_start(r1, r2),
        SimDuration::from_micros(10 * (r2.as_micros() - r1.as_micros()))
    );
}

// --- Fig. 2 ----------------------------------------------------------------

#[test]
fn fig2_msplayer_beats_both_single_paths() {
    let ms = prebuffer_median(
        ServiceSpec::testbed(),
        PathSetup::testbed_pair(),
        msplayer_cfg(SchedulerKind::Ratio, 1024, 40.0),
    );
    let wifi = prebuffer_median(
        ServiceSpec::testbed(),
        only(PathSetup::testbed_pair(), 0),
        commercial(1024, 40.0),
    );
    let lte = prebuffer_median(
        ServiceSpec::testbed(),
        only(PathSetup::testbed_pair(), 1),
        commercial(1024, 40.0),
    );
    assert!(wifi < lte, "WiFi is the best single path: {wifi} vs {lte}");
    let reduction = 1.0 - ms / wifi;
    assert!(
        reduction > 0.15,
        "MSPlayer cuts start-up delay materially: ms={ms:.2} wifi={wifi:.2} ({:.0} %)",
        reduction * 100.0
    );
}

// --- Fig. 3 ----------------------------------------------------------------

#[test]
fn fig3_larger_initial_chunks_download_faster() {
    let t16 = prebuffer_median(
        ServiceSpec::testbed(),
        PathSetup::testbed_pair(),
        msplayer_cfg(SchedulerKind::Harmonic, 16, 40.0),
    );
    let t1m = prebuffer_median(
        ServiceSpec::testbed(),
        PathSetup::testbed_pair(),
        msplayer_cfg(SchedulerKind::Harmonic, 1024, 40.0),
    );
    assert!(t1m < t16, "1 MB beats 16 KB: {t1m} vs {t16}");
}

#[test]
fn fig3_ratio_baseline_is_much_worse_at_small_chunks() {
    let harmonic = prebuffer_median(
        ServiceSpec::testbed(),
        PathSetup::testbed_pair(),
        msplayer_cfg(SchedulerKind::Harmonic, 16, 40.0),
    );
    let ratio = prebuffer_median(
        ServiceSpec::testbed(),
        PathSetup::testbed_pair(),
        msplayer_cfg(SchedulerKind::Ratio, 16, 40.0),
    );
    assert!(
        ratio > harmonic * 1.3,
        "Ratio cannot grow the slow path's chunks: ratio={ratio:.2} harmonic={harmonic:.2}"
    );
}

#[test]
fn fig3_harmonic_default_chunk_choice_is_justified() {
    // §5.2: Harmonic(256 KB) ≈ Harmonic(1 MB), so 256 KB is preferred for
    // smaller bursts.
    let t256 = prebuffer_median(
        ServiceSpec::testbed(),
        PathSetup::testbed_pair(),
        msplayer_cfg(SchedulerKind::Harmonic, 256, 40.0),
    );
    let t1m = prebuffer_median(
        ServiceSpec::testbed(),
        PathSetup::testbed_pair(),
        msplayer_cfg(SchedulerKind::Harmonic, 1024, 40.0),
    );
    assert!(
        (t256 - t1m).abs() / t1m < 0.25,
        "256 KB within 25 % of 1 MB: {t256:.2} vs {t1m:.2}"
    );
}

// --- Fig. 4 ----------------------------------------------------------------

#[test]
fn fig4_youtube_msplayer_beats_best_single_path_at_all_prebuffers() {
    for pb in [20.0, 40.0, 60.0] {
        let ms = prebuffer_median(
            ServiceSpec::youtube(),
            PathSetup::youtube_pair(),
            msplayer_cfg(SchedulerKind::Harmonic, 256, pb),
        );
        let wifi = prebuffer_median(
            ServiceSpec::youtube(),
            only(PathSetup::youtube_pair(), 0),
            commercial(256, pb),
        );
        assert!(
            ms < wifi,
            "pb={pb}: MSPlayer {ms:.2} must beat WiFi {wifi:.2}"
        );
    }
}

// --- Fig. 5 ----------------------------------------------------------------

fn refill_median(paths: Vec<PathSetup>, cfg: PlayerConfig) -> f64 {
    let samples: Vec<f64> = run_row(
        ServiceSpec::youtube(),
        paths,
        cfg,
        StopCondition::AfterRefills(2),
    )
    .iter()
    .flat_map(|m| m.refills.iter().map(|r| r.duration().as_secs_f64()))
    .collect();
    median(&samples)
}

#[test]
fn fig5_bigger_chunks_refill_faster_and_msplayer_is_fastest() {
    let wifi64 = refill_median(
        only(PathSetup::youtube_pair(), 0),
        commercial(64, 40.0).with_rebuffer_secs(20.0),
    );
    let wifi256 = refill_median(
        only(PathSetup::youtube_pair(), 0),
        commercial(256, 40.0).with_rebuffer_secs(20.0),
    );
    let ms = refill_median(
        PathSetup::youtube_pair(),
        msplayer_cfg(SchedulerKind::Harmonic, 256, 40.0).with_rebuffer_secs(20.0),
    );
    assert!(
        wifi256 < wifi64,
        "256 KB < 64 KB: {wifi256:.2} vs {wifi64:.2}"
    );
    assert!(ms < wifi256, "MSPlayer fastest: {ms:.2} vs {wifi256:.2}");
}

// --- Table 1 ---------------------------------------------------------------

#[test]
fn table1_wifi_carries_majority_of_prebuffer_traffic() {
    let player = msplayer_cfg(SchedulerKind::Harmonic, 256, 40.0);
    let fractions: Vec<f64> = run_row(
        ServiceSpec::youtube(),
        PathSetup::youtube_pair(),
        player,
        StopCondition::AfterRefills(1),
    )
    .iter()
    .filter_map(|m| m.traffic_fraction(0, TrafficPhase::PreBuffering))
    .map(|f| f * 100.0)
    .collect();
    let avg = fractions.iter().sum::<f64>() / fractions.len() as f64;
    assert!(
        (50.0..80.0).contains(&avg),
        "WiFi pre-buffer share ≈ 60 % band, got {avg:.1} % ({fractions:?})"
    );
}
