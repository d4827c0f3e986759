//! Run MSPlayer over **real TCP sockets**: shaped loopback servers play the
//! role of §5's Apache boxes, and the very same sans-I/O player state
//! machine that drives the simulator moves real bytes.
//!
//! ```sh
//! cargo run --release --example localhost_testbed
//! ```

use msplayer::core::config::PlayerConfig;
use msplayer::core::sim::StopCondition;
use msplayer::simcore::units::ByteSize;
use msplayer::testbed::Testbed;
use std::time::Duration;

fn main() -> std::io::Result<()> {
    // A 2 Mbit/s stream so the demo finishes in a few wall-clock seconds.
    let bytes_per_sec = 250_000.0;
    let testbed = Testbed::start(
        /* video_secs */ 60.0,
        bytes_per_sec,
        /* replicas */ 2,
    )?;
    println!("loopback testbed up:");
    for (path, servers) in testbed.servers.iter().enumerate() {
        let addrs: Vec<String> = servers.iter().map(|s| s.addr.to_string()).collect();
        println!("  path {path}: video servers {addrs:?}");
    }

    let player = PlayerConfig::msplayer()
        .with_initial_chunk(ByteSize::kb(128))
        .with_prebuffer_secs(8.0);

    println!("\n-- streaming an 8 s pre-buffer over two shaped paths --");
    let m = testbed.run(
        player.clone(),
        StopCondition::PrebufferDone,
        Duration::from_secs(30),
    )?;
    println!(
        "pre-buffer reached in {} wall-clock; {} + {} chunks over the two paths",
        m.prebuffer_time().expect("reached"),
        m.chunk_count(0),
        m.chunk_count(1),
    );
    let total: u64 = m.chunks.iter().map(|c| c.bytes).sum();
    println!("real bytes moved: {:.2} MB", total as f64 / 1e6);

    println!("\n-- same, but path 0's primary server is dead (failover) --");
    testbed.set_primary_failed(0, true);
    let m = testbed.run(
        player,
        StopCondition::PrebufferDone,
        Duration::from_secs(30),
    )?;
    println!(
        "pre-buffer reached in {} despite the failure; failovers: {:?}",
        m.prebuffer_time().expect("reached"),
        m.paths.iter().map(|p| p.failovers).collect::<Vec<_>>(),
    );
    Ok(())
}
