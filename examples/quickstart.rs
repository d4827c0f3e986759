//! Quickstart: stream one video with MSPlayer on the emulated §5 testbed
//! and print the session's QoE summary.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use msplayer::core::config::PlayerConfig;
use msplayer::core::metrics::TrafficPhase;
use msplayer::core::sim::{PathSetup, ServiceSpec, SessionHost, SessionSpec, StopCondition};

fn main() {
    // The paper's default player: Harmonic scheduler, 256 KB initial
    // chunks, 40 s pre-buffer, 10 s low watermark, 20 s refills.
    let config = PlayerConfig::msplayer();

    // WiFi + LTE against two video sources per network; run through the
    // pre-buffering phase and two steady-state refill cycles.
    let spec = SessionSpec::new(/* seed */ 2014, PathSetup::testbed_pair(), config)
        .with_stop(StopCondition::AfterRefills(2));

    // The host builds the emulated service once; `run_batch` would reuse
    // it across seeds.
    let mut host = SessionHost::new(ServiceSpec::testbed());
    let metrics = host.run(&spec).expect("valid spec");

    println!("== MSPlayer quickstart (emulated testbed, seed 2014) ==\n");
    println!(
        "start-up delay (40 s pre-buffer): {}",
        metrics.prebuffer_time().expect("pre-buffer completed")
    );
    if let Some(head_start) = metrics.observed_head_start() {
        println!("WiFi head start over LTE:         {head_start}");
    }
    for (i, refill) in metrics.refills.iter().enumerate() {
        println!(
            "refill cycle {}: {:.2} s for {:.1} MB",
            i + 1,
            refill.duration().as_secs_f64(),
            refill.bytes as f64 / 1e6
        );
    }
    for phase in [TrafficPhase::PreBuffering, TrafficPhase::ReBuffering] {
        if let Some(f) = metrics.traffic_fraction(0, phase) {
            println!("WiFi traffic share, {phase:?}: {:.1} %", f * 100.0);
        }
    }
    println!(
        "chunks fetched: {} over WiFi, {} over LTE",
        metrics.chunk_count(0),
        metrics.chunk_count(1)
    );
    println!("stall time: {}", metrics.total_stall_time());
}
