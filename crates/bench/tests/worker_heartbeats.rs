//! The worker's heartbeat contract with telemetry on, in a process of its
//! own: the telemetry registry is process-global, so only here is "the
//! worker's registry" exactly what this one worker counted.
//!
//! Pins the flush-before-`done` rule end to end: whatever the wall-time
//! pacing did, the counter deltas of all heartbeats sum to the worker's
//! registry totals at the moment `done` is written — the coordinator's
//! merged `/metrics` is exact, not one lease behind. (The pacing itself —
//! slow cells heartbeat, fast shards do not — is scripted with an injected
//! clock in `cluster::worker`'s unit tests.)

use msim_core::telemetry;
use msplayer_bench::cluster::{run_worker, Frame, SweepManifest, DIGEST_EPOCH};
use std::collections::BTreeMap;
use std::io::Write;

/// Collects the worker's output and snapshots the registry at the moment
/// the `done` frame is written.
#[derive(Default)]
struct Tap {
    wire: Vec<u8>,
    registry_at_done: Option<BTreeMap<String, u64>>,
}

impl Write for Tap {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if String::from_utf8_lossy(buf).contains("\"type\":\"done\"") {
            self.registry_at_done = Some(telemetry::counter_values());
        }
        self.wire.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn heartbeat_deltas_sum_to_the_registry_when_done_is_written() {
    // One long shard — a few paces of wall time on a debug build, so the
    // deltas are usually split between paced heartbeats and the flush; the
    // rule must hold however the clock falls.
    let manifest = SweepManifest {
        runs: 40,
        shard_cells: 100_000,
        ..SweepManifest::smoke()
    };
    let cells = manifest.expand().expect("smoke manifest expands").len() as u64;
    let script = [
        Frame::Hello {
            worker: 3,
            manifest,
            digest_epoch: DIGEST_EPOCH,
        }
        .to_line(),
        Frame::Lease {
            shard: 0,
            attempt: 1,
        }
        .to_line(),
        Frame::Shutdown.to_line(),
    ]
    .join("\n")
        + "\n";

    telemetry::set_enabled(true);
    telemetry::register_core_counters();
    let at_start = telemetry::counter_values();
    let mut tap = Tap::default();
    assert_eq!(run_worker(script.as_bytes(), &mut tap, None), 0);
    telemetry::set_enabled(false);

    let text = String::from_utf8(tap.wire).expect("frames are UTF-8");
    let frames: Vec<Frame> = text
        .lines()
        .map(|l| Frame::from_line(l).expect("worker frames parse"))
        .collect();
    assert!(matches!(
        frames.first(),
        Some(Frame::Ready { worker: 3, .. })
    ));
    match frames.last() {
        Some(Frame::Done { shard: 0, rows, .. }) => assert_eq!(rows.len() as u64, cells),
        other => panic!("last frame must be the done: {other:?}"),
    }
    // With counters moving, the frame before `done` is the flush.
    assert!(
        matches!(
            frames[frames.len() - 2],
            Frame::Heartbeat { cells_done, .. } if cells_done == cells
        ),
        "no flush heartbeat ahead of done: {:?}",
        frames[frames.len() - 2]
    );

    let mut sent: BTreeMap<String, u64> = BTreeMap::new();
    let mut last_cells_done = 0;
    let mut heartbeats = 0;
    for frame in &frames {
        if let Frame::Heartbeat {
            cells_done,
            counters,
            ..
        } = frame
        {
            heartbeats += 1;
            assert!(
                *cells_done > last_cells_done && *cells_done <= cells,
                "cells_done {cells_done} after {last_cells_done} (shard has {cells})"
            );
            last_cells_done = *cells_done;
            for (key, delta) in counters {
                *sent.entry(key.clone()).or_default() += delta;
            }
        }
    }
    assert!(heartbeats <= cells, "more heartbeats than cells");

    let at_done = tap.registry_at_done.expect("a done frame was written");
    let counted: BTreeMap<String, u64> = at_done
        .iter()
        .map(|(k, v)| (k.clone(), v - at_start.get(k).copied().unwrap_or(0)))
        .filter(|(_, delta)| *delta > 0)
        .collect();
    assert_eq!(
        sent, counted,
        "heartbeat deltas must add up to what the worker's registry counted"
    );
    assert_eq!(sent.get("msp_sessions_total"), Some(&cells));
}
