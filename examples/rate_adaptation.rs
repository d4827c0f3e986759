//! The §7 future-work extension in action: DASH-style bitrate adaptation
//! driven by MSPlayer's aggregate (two-path) harmonic bandwidth estimates.
//!
//! A session is simulated on the YouTube profile; the chunk-level goodput
//! samples from both paths feed per-path harmonic estimators, and the
//! adapter re-decides the itag at every refill boundary.
//!
//! ```sh
//! cargo run --release --example rate_adaptation
//! ```

use msplayer::core::abr::{AbrPolicy, AbrPolicyKind, SwitchReason};
use msplayer::core::config::PlayerConfig;
use msplayer::core::estimator::Estimator;
use msplayer::core::sim::{PathSetup, ServiceSpec, SessionHost, SessionSpec, StopCondition};
use msplayer::simcore::units::BitRate;
use msplayer::youtube::ITAGS;

fn main() {
    // Stream a long session to collect realistic per-chunk samples.
    let spec = SessionSpec::new(31, PathSetup::youtube_pair(), PlayerConfig::msplayer())
        .with_stop(StopCondition::AfterRefills(6));
    let metrics = SessionHost::new(ServiceSpec::youtube())
        .run(&spec)
        .expect("valid spec");

    let mut estimators = [Estimator::harmonic(), Estimator::harmonic()];
    let mut adapter = AbrPolicy::new(AbrPolicyKind::DampedRate, ITAGS.to_vec());

    println!(
        "itag ladder: {:?}\n",
        ITAGS.iter().map(|f| f.quality_label).collect::<Vec<_>>()
    );
    println!("time     aggregate est.   buffer   decision");
    println!("-------  ---------------  -------  -----------------------------");

    // Re-decide after every 8 completed chunks (≈ once per refill window).
    let mut since_last = 0;
    let mut fetched_bytes = 0.0;
    for chunk in metrics.chunks.iter() {
        estimators[chunk.path].update(chunk.goodput_bps());
        fetched_bytes += chunk.bytes as f64;
        since_last += 1;
        if since_last < 8 {
            continue;
        }
        since_last = 0;
        let aggregate = BitRate::bps(
            estimators[0].estimate_bps().unwrap_or(0.0)
                + estimators[1].estimate_bps().unwrap_or(0.0),
        );
        // Proxy for the buffer level at this instant: seconds of video
        // fetched minus seconds elapsed.
        let fetched_secs = fetched_bytes / 312_500.0;
        let elapsed = chunk.completed_at.as_secs_f64();
        let buffer = (fetched_secs - elapsed).max(0.0);
        let (rung, reason) = adapter.decide(Some(aggregate.as_bps()), buffer);
        let format = &adapter.ladder()[rung];
        let marker = match reason {
            SwitchReason::RateUp => "▲",
            SwitchReason::RateDown | SwitchReason::BufferPanic => "▼",
            _ => " ",
        };
        println!(
            "{:>6.2}s  {:>13}  {:>6.1}s  {} {:>5} ({:?})",
            elapsed,
            format!("{aggregate}"),
            buffer,
            marker,
            format.quality_label,
            reason,
        );
    }
    let current = &adapter.ladder()[adapter.current_index()];
    println!(
        "\nfinal quality: {} at {} — chosen from two-path aggregate bandwidth\n\
         (the paper streams fixed 720p; this module is its §7 'rate adaption' future work)",
        current.quality_label, current.bitrate,
    );
}
