//! The sweep worker: a synchronous lease-execute-report loop.
//!
//! A worker reads frames from its coordinator (stdin in spawned mode, a
//! TCP stream in multi-host mode), expands the manifest it is handed in
//! the hello frame, and then serves leases: run every cell of the shard
//! over a warmed [`HostCache`], heartbeat at a wall-time pace, report the
//! digest rows. Workers are stateless between leases — all scheduling
//! brains live in the coordinator.
//!
//! # Heartbeat pacing
//!
//! A heartbeat is a JSON line, a flush, a telemetry snapshot under the
//! registry lock and a coordinator wake-up — more than a ~100 µs cell
//! costs. So the worker checks the clock after each cell and heartbeats
//! only when the pace (50 ms) has passed since the lease began or the
//! last heartbeat: a cell slower than the pace is still followed by its
//! heartbeat, a fast shard sends few or none. Telemetry counter deltas
//! ride on heartbeats, so whatever is unsent when the shard ends is
//! flushed in one more heartbeat ahead of `done` — the coordinator's
//! merged counters equal the worker's registry at that point.
//!
//! # Self-chaos
//!
//! A worker can carry a chaos directive ([`WorkerChaos`]) that makes it
//! misbehave in one controlled way on one specific lease: crash mid-shard,
//! stall past the lease timeout, emit a corrupt result frame, or deliver
//! its result twice. This is how the conformance table in
//! `tests/cluster.rs` (and CI's kill smoke) checks that each fault is
//! handled the same with *real* process failures; the coordinator's
//! schedule explorer covers the same faults, and many more orderings of
//! them, in simulated time.

use super::merge::{shard_rows, CellRow, DIGEST_EPOCH};
use super::protocol::Frame;
use crate::sweep::{Cell, HostCache};
use msim_core::telemetry;
use msim_testbed::shutdown_requested;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::time::{Duration, Instant};

/// Least wall time between two heartbeats of a lease (and between the
/// lease's start and its first).
const HEARTBEAT_PACE: Duration = Duration::from_millis(50);

/// The shortest lease timeout that leaves room for paced heartbeats: four
/// paces, so a healthy worker gets several chances to extend its lease
/// before the coordinator gives up on it.
pub const MIN_LEASE_TIMEOUT: Duration = HEARTBEAT_PACE.saturating_mul(4);

/// Exit code of a chaos-directed mid-shard crash.
pub const CRASH_EXIT: i32 = 101;

/// One way a worker can misbehave.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Misbehavior {
    /// `crash-after-cells=K`: exit([`CRASH_EXIT`]) after completing K
    /// cells of the lease (K may be 0: crash before any work).
    CrashAfterCells(u64),
    /// `stall-ms=N`: go silent (no heartbeats) for N ms before reporting
    /// the completed shard — drives the coordinator's lease timeout and
    /// the duplicate-completion path.
    StallMs(u64),
    /// `corrupt-done`: emit a non-UTF-8 garbage line instead of the done
    /// frame, then keep serving (the coordinator should drop us).
    CorruptDone,
    /// `duplicate-done`: deliver the done frame twice.
    DuplicateDone,
}

/// A worker's chaos directive: misbehave in one way on one lease.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerChaos {
    /// Which lease (0-based ordinal of leases received) misbehaves.
    pub lease: u64,
    /// What goes wrong.
    pub kind: Misbehavior,
}

impl WorkerChaos {
    /// Parses the CLI form `<lease>:<kind>[=<arg>]`, e.g.
    /// `0:crash-after-cells=2`, `1:stall-ms=500`, `0:corrupt-done`.
    pub fn parse(s: &str) -> Result<WorkerChaos, String> {
        let (lease, rest) = s
            .split_once(':')
            .ok_or_else(|| format!("chaos directive {s:?}: want <lease>:<kind>[=<arg>]"))?;
        let lease: u64 = lease
            .parse()
            .map_err(|_| format!("chaos directive {s:?}: bad lease ordinal"))?;
        let (kind, arg) = match rest.split_once('=') {
            Some((k, a)) => (k, Some(a)),
            None => (rest, None),
        };
        let num = || -> Result<u64, String> {
            arg.ok_or_else(|| format!("chaos directive {s:?}: {kind} needs =<n>"))?
                .parse()
                .map_err(|_| format!("chaos directive {s:?}: bad number"))
        };
        let kind = match kind {
            "crash-after-cells" => Misbehavior::CrashAfterCells(num()?),
            "stall-ms" => Misbehavior::StallMs(num()?),
            "corrupt-done" => Misbehavior::CorruptDone,
            "duplicate-done" => Misbehavior::DuplicateDone,
            other => return Err(format!("chaos directive {s:?}: unknown kind {other:?}")),
        };
        Ok(WorkerChaos { lease, kind })
    }

    /// Renders back to the CLI form [`WorkerChaos::parse`] accepts.
    pub fn to_directive(&self) -> String {
        match &self.kind {
            Misbehavior::CrashAfterCells(k) => format!("{}:crash-after-cells={k}", self.lease),
            Misbehavior::StallMs(ms) => format!("{}:stall-ms={ms}", self.lease),
            Misbehavior::CorruptDone => format!("{}:corrupt-done", self.lease),
            Misbehavior::DuplicateDone => format!("{}:duplicate-done", self.lease),
        }
    }
}

/// Runs the worker loop over any read/write transport pair. Returns the
/// process exit code (0 = clean shutdown; chaos directives may
/// `process::exit` before this returns).
pub fn run_worker<R, W>(input: R, output: W, chaos: Option<WorkerChaos>) -> i32
where
    R: Read,
    W: Write,
{
    run_worker_clocked(input, output, chaos, Instant::now)
}

/// [`run_worker`] reading wall time from `clock` — what paces heartbeats
/// and times shards. Tests pass a scripted clock instead of sleeping.
fn run_worker_clocked<R, W>(
    input: R,
    output: W,
    chaos: Option<WorkerChaos>,
    clock: impl FnMut() -> Instant,
) -> i32
where
    R: Read,
    W: Write,
{
    let mut reader = BufReader::new(input);
    let mut worker = Worker {
        output,
        clock,
        me: 0,
        cells: Vec::new(),
        shards: Vec::new(),
        hosts: HostCache::new(),
        counters_prev: telemetry::counter_values(),
    };
    let mut leases_seen: u64 = 0;

    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return 0, // coordinator gone — don't linger
            Ok(_) => {}
            Err(_) => return 0,
        }
        let line = line.trim_end_matches(['\n', '\r']);
        if line.is_empty() {
            continue;
        }
        let frame = match Frame::from_line(line) {
            Ok(f) => f,
            Err(_) => continue, // a sick coordinator is its own problem
        };
        match frame {
            Frame::Hello {
                worker: me,
                manifest,
                digest_epoch,
            } => {
                worker.me = me;
                let expanded = if digest_epoch == DIGEST_EPOCH {
                    manifest.expand()
                } else {
                    Err(format!(
                        "coordinator digest_epoch {digest_epoch} != worker's {DIGEST_EPOCH}: \
                         their session digests are unrelated — run one build on both sides"
                    ))
                };
                match expanded {
                    Ok(cells) => {
                        worker.shards = manifest.shards(cells.len());
                        worker.cells = cells;
                        let ready = Frame::Ready {
                            worker: me,
                            digest_epoch: DIGEST_EPOCH,
                        };
                        if send(&mut worker.output, &ready).is_err() {
                            return 0;
                        }
                    }
                    Err(message) => {
                        let fail = Frame::Fail {
                            worker: me,
                            shard: u64::MAX,
                            message,
                        };
                        let _ = send(&mut worker.output, &fail);
                        return 1;
                    }
                }
            }
            Frame::Lease { shard, attempt } => {
                let active = chaos.as_ref().filter(|c| c.lease == leases_seen);
                leases_seen += 1;
                if let Err(code) = worker.serve_lease(shard, attempt, active) {
                    return code;
                }
            }
            Frame::Shutdown => return 0,
            // Worker-direction frames arriving here mean a confused
            // coordinator; ignore them.
            Frame::Ready { .. }
            | Frame::Heartbeat { .. }
            | Frame::Done { .. }
            | Frame::Fail { .. } => {}
        }
    }
}

fn send(output: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    output.write_all(frame.to_line().as_bytes())?;
    output.write_all(b"\n")?;
    output.flush()
}

/// What a worker keeps between frames.
struct Worker<W, C> {
    output: W,
    clock: C,
    me: u64,
    cells: Vec<Cell>,
    shards: Vec<std::ops::Range<usize>>,
    hosts: HostCache,
    /// Telemetry counters as of the last heartbeat, so each heartbeat
    /// carries only the increments since the previous one.
    counters_prev: BTreeMap<String, u64>,
}

impl<W: Write, C: FnMut() -> Instant> Worker<W, C> {
    /// Runs one leased shard, applying the active chaos directive if any.
    /// `Err(code)` means the process must exit with that code.
    fn serve_lease(
        &mut self,
        shard: u64,
        attempt: u64,
        chaos: Option<&WorkerChaos>,
    ) -> Result<(), i32> {
        let (me, output) = (self.me, &mut self.output);
        let fail = |message| Frame::Fail {
            worker: me,
            shard,
            message,
        };
        let Some(range) = self.shards.get(shard as usize).cloned() else {
            let shards = self.shards.len();
            let _ = send(
                output,
                &fail(format!("lease for unknown shard {shard} ({shards} shards)")),
            );
            return Ok(());
        };

        let heartbeat = |output: &mut W, cells_done: usize, counters| {
            let _ = send(
                output,
                &Frame::Heartbeat {
                    worker: me,
                    shard,
                    cells_done: cells_done as u64,
                    counters,
                },
            );
        };
        let t0 = (self.clock)();
        let mut last_beat = t0;
        let mut rows: Vec<CellRow> = Vec::with_capacity(range.len());
        let mut run = shard_rows(&self.cells, range.clone(), &mut self.hosts);
        for done_before in 0..range.len() {
            if shutdown_requested() {
                // Graceful SIGINT/SIGTERM: tell the coordinator the shard is
                // abandoned (it will requeue) and exit with the interrupted
                // status.
                let _ = send(output, &fail("worker interrupted (SIGINT/SIGTERM)".into()));
                return Err(msim_testbed::signal::SIGINT_EXIT);
            }
            if let Some(WorkerChaos {
                kind: Misbehavior::CrashAfterCells(k),
                ..
            }) = chaos
            {
                if done_before as u64 == *k {
                    std::process::exit(CRASH_EXIT);
                }
            }
            rows.push(run.next().expect("one row per cell of the range"));
            let now = (self.clock)();
            if now.saturating_duration_since(last_beat) >= HEARTBEAT_PACE {
                last_beat = now;
                let counters = telemetry::counter_deltas(&mut self.counters_prev);
                heartbeat(output, rows.len(), counters);
            }
        }
        // Crash points past the end of the shard still fire (covers
        // crash-after-cells=len, "crash after finishing but before
        // reporting" — the classic lost-completion case).
        if let Some(WorkerChaos {
            kind: Misbehavior::CrashAfterCells(k),
            ..
        }) = chaos
        {
            if *k >= range.len() as u64 {
                std::process::exit(CRASH_EXIT);
            }
        }

        let wall_us = (self.clock)().saturating_duration_since(t0).as_micros() as u64;
        // Counter increments since the last paced heartbeat would otherwise
        // be stranded until some later lease's heartbeat — or lost with the
        // worker: flush them ahead of the completion.
        let counters = telemetry::counter_deltas(&mut self.counters_prev);
        if !counters.is_empty() {
            heartbeat(output, rows.len(), counters);
        }
        let done = Frame::Done {
            worker: me,
            shard,
            attempt,
            wall_us,
            rows,
        };
        match chaos.map(|c| &c.kind) {
            Some(Misbehavior::StallMs(ms)) => {
                // Silent stall: no heartbeats while sleeping, then report
                // late — by then the coordinator has usually re-leased the
                // shard, making this a duplicate completion.
                std::thread::sleep(std::time::Duration::from_millis(*ms));
                send(output, &done).map_err(|_| 0)?;
            }
            Some(Misbehavior::CorruptDone) => {
                // A non-UTF-8 line where the done frame should be.
                let _ = output.write_all(b"\xff\xfe\x00 corrupt frame \xff\n");
                let _ = output.flush();
            }
            Some(Misbehavior::DuplicateDone) => {
                send(output, &done).map_err(|_| 0)?;
                send(output, &done).map_err(|_| 0)?;
            }
            Some(Misbehavior::CrashAfterCells(_)) | None => {
                send(output, &done).map_err(|_| 0)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::manifest::SweepManifest;
    use super::*;

    #[test]
    fn chaos_directive_roundtrip() {
        for text in [
            "0:crash-after-cells=2",
            "3:stall-ms=500",
            "1:corrupt-done",
            "2:duplicate-done",
        ] {
            let parsed = WorkerChaos::parse(text).unwrap();
            assert_eq!(parsed.to_directive(), text);
        }
        for bad in [
            "",
            "crash-after-cells=2",
            "0:warp",
            "x:stall-ms=1",
            "0:stall-ms",
        ] {
            assert!(WorkerChaos::parse(bad).is_err(), "{bad:?}");
        }
    }

    /// What one scripted worker run wrote.
    struct Served {
        /// Expected rows of the leased shard (a direct serial run).
        expected: Vec<CellRow>,
        /// Rows of the `Done` frame.
        rows: Vec<CellRow>,
        /// `(cells_done, counters)` of every heartbeat, in order.
        heartbeats: Vec<(u64, Vec<(String, u64)>)>,
    }

    /// Drives a clean worker end-to-end over in-memory pipes — hello →
    /// ready, lease of shard 1 → heartbeats + done, shutdown → exit 0 —
    /// with wall time read from `clock`.
    fn serve_shard_one(clock: impl FnMut() -> Instant) -> Served {
        let manifest = SweepManifest {
            shard_cells: 3,
            ..SweepManifest::smoke()
        };
        let cells = manifest.expand().unwrap();
        let shards = manifest.shards(cells.len());
        assert!(shards.len() > 1);

        let script = [
            Frame::Hello {
                worker: 7,
                manifest: manifest.clone(),
                digest_epoch: DIGEST_EPOCH,
            }
            .to_line(),
            Frame::Lease {
                shard: 1,
                attempt: 1,
            }
            .to_line(),
            Frame::Shutdown.to_line(),
        ]
        .join("\n")
            + "\n";

        let mut wire = Vec::new();
        let code = run_worker_clocked(script.as_bytes(), &mut wire, None, clock);
        assert_eq!(code, 0);

        let text = String::from_utf8(wire).unwrap();
        let frames: Vec<Frame> = text.lines().map(|l| Frame::from_line(l).unwrap()).collect();
        assert_eq!(
            frames[0],
            Frame::Ready {
                worker: 7,
                digest_epoch: DIGEST_EPOCH
            }
        );
        let Some(Frame::Done { shard: 1, rows, .. }) = frames.last().cloned() else {
            panic!("the last frame must be shard 1's done: {frames:?}");
        };
        // Ground truth: the same shard, run directly.
        let expected = shard_rows(&cells, shards[1].clone(), &mut HostCache::new()).collect();
        let heartbeats = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Heartbeat {
                    worker: 7,
                    shard: 1,
                    cells_done,
                    counters,
                } => Some((*cells_done, counters.clone())),
                _ => None,
            })
            .collect();
        Served {
            expected,
            rows,
            heartbeats,
        }
    }

    // The registry is process-global and sibling tests run sessions with
    // telemetry on, so a lease here may or may not end with the flush
    // heartbeat (`cells_done` = shard length). The assertions below are
    // about the *paced* ones; `tests/worker_heartbeats.rs` pins the exact
    // frame sequence in a process of its own.

    /// A shard that finishes inside one pace sends no mid-shard heartbeat,
    /// and its rows are the serial run's.
    #[test]
    fn fast_shard_sends_no_paced_heartbeat_and_rows_match_serial() {
        let frozen = Instant::now();
        let served = serve_shard_one(move || frozen);
        assert_eq!(
            served.rows, served.expected,
            "worker rows must match serial"
        );
        let len = served.expected.len() as u64;
        assert!(
            served.heartbeats.iter().all(|(done, _)| *done == len),
            "only the pre-done flush may heartbeat: {:?}",
            served.heartbeats
        );
    }

    /// Every cell slower than the pace is followed by its heartbeat, and
    /// the counter increments of the whole lease — here a counter the
    /// scripted clock itself bumps, which no other test touches — have
    /// all been sent by the time `done` is (the flush-before-done rule).
    #[test]
    fn slow_cells_each_heartbeat_and_counter_deltas_are_flushed_before_done() {
        let key = "msp_test_worker_clock_reads_total";
        let reads = telemetry::counter(key);
        let before = reads.get();
        let mut now = Instant::now();
        let served = serve_shard_one(move || {
            reads.add_raw(1);
            now += HEARTBEAT_PACE + Duration::from_millis(10);
            now
        });
        assert_eq!(
            served.rows, served.expected,
            "worker rows must match serial"
        );
        let len = served.expected.len() as u64;
        let mut cells_done: Vec<u64> = served.heartbeats.iter().map(|(done, _)| *done).collect();
        assert!(cells_done.len() as u64 <= len + 1, "{cells_done:?}");
        cells_done.dedup();
        assert_eq!(
            cells_done,
            (1..=len).collect::<Vec<_>>(),
            "one heartbeat after each slow cell, in order"
        );
        let sent: u64 = served
            .heartbeats
            .iter()
            .flat_map(|(_, counters)| counters)
            .filter(|(k, _)| k == key)
            .map(|(_, d)| d)
            .sum();
        assert_eq!(
            sent,
            reads.get() - before,
            "deltas unsent when done was written"
        );
        // Lease start, one read per cell, one for the shard's wall time.
        assert_eq!(sent, len + 2);
    }

    /// A hello of another digest epoch is answered with a setup `fail`
    /// (and exit 1), never `ready`: this worker's rows would mean nothing
    /// to that coordinator.
    #[test]
    fn hello_of_another_digest_epoch_is_refused() {
        let hello = Frame::Hello {
            worker: 4,
            manifest: SweepManifest::smoke(),
            digest_epoch: DIGEST_EPOCH - 1,
        }
        .to_line()
            + "\n";
        let mut wire = Vec::new();
        assert_eq!(run_worker(hello.as_bytes(), &mut wire, None), 1);
        let text = String::from_utf8(wire).unwrap();
        let frames: Vec<Frame> = text.lines().map(|l| Frame::from_line(l).unwrap()).collect();
        match frames.as_slice() {
            [Frame::Fail {
                worker: 4,
                shard: u64::MAX,
                message,
            }] => assert!(message.contains("digest_epoch"), "{message}"),
            other => panic!("want exactly one setup fail, got {other:?}"),
        }
    }
}
