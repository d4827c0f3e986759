//! Real-socket integration: the sans-I/O player over loopback TCP with
//! shaped links, mirroring the §5 physical testbed.

use msplayer::core::config::PlayerConfig;
use msplayer::core::sim::StopCondition;
use msplayer::simcore::units::ByteSize;
use msplayer::testbed::Testbed;
use std::time::Duration;

/// 1 Mbit/s stream → loopback sessions finish in a couple of wall seconds.
const BPS: f64 = 125_000.0;

fn quick_player() -> PlayerConfig {
    PlayerConfig::msplayer()
        .with_initial_chunk(ByteSize::kb(64))
        .with_prebuffer_secs(3.0)
}

#[test]
fn loopback_prebuffer_with_real_bytes() {
    let tb = Testbed::start(30.0, BPS, 1).expect("testbed");
    let m = tb
        .run(
            quick_player(),
            StopCondition::PrebufferDone,
            Duration::from_secs(25),
        )
        .expect("session");
    assert!(m.prebuffer_time().is_some());
    let total: u64 = m.chunks.iter().map(|c| c.bytes).sum();
    assert!(
        total >= (3.0 * BPS) as u64,
        "at least the pre-buffer amount moved: {total}"
    );
    assert!(
        m.chunk_count(0) > 0 && m.chunk_count(1) > 0,
        "both paths used"
    );
}

#[test]
fn loopback_refill_cycle() {
    let tb = Testbed::start(60.0, BPS, 1).expect("testbed");
    let player = quick_player().with_rebuffer_secs(2.0);
    // Low watermark default is 10 s > prebuffer 3 s, so the buffer turns ON
    // immediately after pre-buffering; one refill completes quickly.
    let m = tb
        .run(
            player,
            StopCondition::AfterRefills(1),
            Duration::from_secs(30),
        )
        .expect("session");
    assert!(
        !m.refills.is_empty(),
        "refill cycle completed: {:?}",
        m.refills.len()
    );
    assert!(m.refills[0].bytes >= (2.0 * BPS) as u64);
}

#[test]
fn loopback_failover_and_recovery() {
    let tb = Testbed::start(30.0, BPS, 2).expect("testbed");
    tb.set_primary_failed(1, true);
    let m = tb
        .run(
            quick_player(),
            StopCondition::PrebufferDone,
            Duration::from_secs(25),
        )
        .expect("session");
    assert!(
        m.prebuffer_time().is_some(),
        "stream survives the dead primary"
    );
    assert!(m.paths[1].failovers >= 1, "failover happened on path 1");
}

#[test]
fn loopback_wifi_like_path_carries_more() {
    // Path 0 is shaped faster (wifi-like); over a longer session it should
    // carry at least as many bytes as the lte-like path.
    let tb = Testbed::start(60.0, BPS, 1).expect("testbed");
    let m = tb
        .run(
            quick_player().with_prebuffer_secs(6.0),
            StopCondition::PrebufferDone,
            Duration::from_secs(30),
        )
        .expect("session");
    let b0: u64 = m
        .chunks
        .iter()
        .filter(|c| c.path == 0)
        .map(|c| c.bytes)
        .sum();
    let b1: u64 = m
        .chunks
        .iter()
        .filter(|c| c.path == 1)
        .map(|c| c.bytes)
        .sum();
    assert!(
        b0 * 10 >= b1 * 8,
        "fast path not starved: wifi-like {b0} vs lte-like {b1}"
    );
}
