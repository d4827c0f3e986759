//! Robustness scenarios (§2 "Robust Data Transport" / "Content Source
//! Diversity"): a WiFi outage mid-stream and a video-server failure, both of
//! which MSPlayer rides out without stalling playback.
//!
//! ```sh
//! cargo run --release --example mobility_failover
//! ```

use msplayer::core::config::PlayerConfig;
use msplayer::core::sim::{
    PathSetup, ServerFailure, ServiceSpec, SessionHost, SessionSpec, StopCondition,
};
use msplayer::net::OutageSchedule;
use msplayer::simcore::time::SimTime;

fn main() {
    let player = PlayerConfig::msplayer();
    // All three scenarios stream from the same emulated testbed service.
    let mut host = SessionHost::new(ServiceSpec::testbed());
    let wifi_outage =
        OutageSchedule::from_windows(vec![(SimTime::from_secs(8), SimTime::from_secs(23))]);

    // --- Scenario A: the WiFi link dies for 15 s during playback ---------
    println!("== A) WiFi outage from t=8 s to t=23 s ==");
    let mut spec = SessionSpec::new(77, PathSetup::testbed_pair(), player.clone())
        .with_stop(StopCondition::AfterRefills(3));
    spec.paths[0].outages = Some(wifi_outage.clone());
    let m = host.run(&spec).expect("valid spec");
    println!(
        "   pre-buffer: {}   refills completed: {}   stalls: {} ({} total)",
        m.prebuffer_time().expect("completed"),
        m.refills.len(),
        m.stalls.len(),
        m.total_stall_time(),
    );
    println!(
        "   LTE carried {} chunks while WiFi was dark; WiFi resumed with {} chunks total\n",
        m.chunk_count(1),
        m.chunk_count(0),
    );

    // --- Scenario B: WiFi's primary video server fails at t=2 s ----------
    println!("== B) WiFi-side video server fails at t=2 s (source diversity) ==");
    let mut spec = SessionSpec::new(78, PathSetup::testbed_pair(), player)
        .with_stop(StopCondition::AfterRefills(2));
    spec.server_failures = vec![ServerFailure {
        path: 0,
        from: SimTime::from_secs(2),
        until: SimTime::from_secs(300),
    }];
    let m = host.run(&spec).expect("valid spec");
    println!(
        "   pre-buffer: {}   failovers on WiFi path: {}   refills: {}",
        m.prebuffer_time().expect("completed"),
        m.paths[0].failovers,
        m.refills.len(),
    );
    println!(
        "   MSPlayer switched to the backup replica in the same network and kept streaming.\n"
    );

    // --- Baseline: a single-path player facing the same WiFi outage ------
    println!("== C) The same outage with a single-path WiFi player ==");
    let mut wifi_only = PathSetup::testbed_pair();
    wifi_only.truncate(1);
    wifi_only[0].outages = Some(wifi_outage);
    let commercial =
        PlayerConfig::commercial_single_path(msplayer::simcore::units::ByteSize::kb(256));
    let spec =
        SessionSpec::new(77, wifi_only, commercial).with_stop(StopCondition::AfterRefills(3));
    let m = host.run(&spec).expect("valid spec");
    println!(
        "   refills completed: {}   stalls: {} ({} of frozen playback)",
        m.refills.len(),
        m.stalls.len(),
        m.total_stall_time(),
    );
    println!("   Without a second path, the viewer watches a spinner until WiFi returns.");
}
