//! The sweep worker: a frames-in/frames-out machine and its one driver.
//!
//! [`Worker`] is the whole worker state, in the coordinator's shape: the
//! cells and shards of the manifest a hello hands it, the warmed
//! [`HostCache`], the telemetry counter baseline and the open lease.
//! [`Worker::on_frame`] takes one coordinator frame and [`Worker::step`]
//! runs the next cell of the lease; both take the instant and return the
//! frames to send. It does no I/O, reads no clock and never sleeps or
//! exits, so the coordinator's schedule explorer runs real workers in
//! simulated time. [`run_worker`] is its driver (stdin in spawned mode, a
//! TCP stream in multi-host mode), and the only place that reads lines,
//! writes frames, reads the clock, checks for SIGINT/SIGTERM or applies a
//! [`WorkerChaos`] directive. All scheduling brains live in the coordinator.
//!
//! # Heartbeat pacing
//!
//! A heartbeat is a JSON line, a flush, a telemetry snapshot under the
//! registry lock and a coordinator wake-up — more than a ~100 µs cell
//! costs. So a worker heartbeats only when the pace (50 ms) has passed
//! since the lease began or the last heartbeat, checked as each cell ends:
//! a cell slower than the pace is still followed by its heartbeat, a fast
//! shard sends few or none. Telemetry counter deltas ride on heartbeats,
//! so whatever is unsent when the shard ends is flushed in one more
//! heartbeat ahead of `done` — the coordinator's merged counters equal the
//! worker's registry at that point.
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
//! them, as wire faults on the frames of real [`Worker`] machines.

use super::merge::{cell_row, CellRow, DIGEST_EPOCH};
use super::protocol::Frame;
use crate::sweep::{Cell, HostCache};
use msim_core::telemetry;
use msim_testbed::shutdown_requested;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::ops::Range;
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

/// Runs the worker over any read/write transport pair: the one driver of
/// a [`Worker`]. Returns the process exit code (0 = clean shutdown or the
/// coordinator gone; chaos directives may `process::exit` before this
/// returns).
pub fn run_worker<R, W>(input: R, mut output: W, chaos: Option<WorkerChaos>) -> i32
where
    R: Read,
    W: Write,
{
    let mut worker = Worker::default();
    let mut leases_seen: u64 = 0;
    for line in BufReader::new(input).lines() {
        // A read error or the end of input: the coordinator is gone, so
        // don't linger.
        let Ok(line) = line else { return 0 };
        // A sick coordinator is its own problem.
        let Ok(frame) = Frame::from_line(line.trim_end_matches(['\n', '\r'])) else {
            continue;
        };
        let leased = matches!(frame, Frame::Lease { .. });
        leases_seen += u64::from(leased);
        let active = chaos
            .as_ref()
            .filter(|c| leased && c.lease + 1 == leases_seen);
        let (frames, exit) = worker.on_frame(frame, Instant::now());
        let sent = frames.iter().try_for_each(|f| send(&mut output, f));
        if let Some(code) = exit.or(sent.err().map(|_| 0)) {
            return code;
        }
        if let Err(code) = serve(&mut worker, &mut output, active.map(|c| &c.kind)) {
            return code;
        }
    }
    0
}

/// Steps `worker` through its open lease, if any, reading the clock once
/// per cell and applying `chaos` to what the lease produces. `Err(code)`
/// means the process must exit with that code.
fn serve(
    worker: &mut Worker,
    output: &mut impl Write,
    chaos: Option<&Misbehavior>,
) -> Result<(), i32> {
    while let Some((done, len)) = worker.progress() {
        if shutdown_requested() {
            // Graceful SIGINT/SIGTERM: tell the coordinator the shard is
            // abandoned (it will requeue) and exit with the interrupted
            // status.
            if let Some(fail) = worker.abandon("worker interrupted (SIGINT/SIGTERM)") {
                let _ = send(output, &fail);
            }
            return Err(msim_testbed::signal::SIGINT_EXIT);
        }
        // A crash point at or past the end of the shard fires once every
        // cell has run: "crash after finishing but before reporting", the
        // classic lost completion.
        if let Some(Misbehavior::CrashAfterCells(k)) = chaos {
            if done as u64 >= (*k).min(len as u64) {
                std::process::exit(CRASH_EXIT);
            }
        }
        for frame in worker.step(Instant::now()) {
            let sent = match (&frame, chaos) {
                (Frame::Done { .. }, Some(Misbehavior::StallMs(ms))) => {
                    // Silent stall: no heartbeats while sleeping, then
                    // report late — by then the coordinator has usually
                    // re-leased the shard, making this a duplicate.
                    std::thread::sleep(Duration::from_millis(*ms));
                    send(output, &frame)
                }
                // A non-UTF-8 line where the done frame should be.
                (Frame::Done { .. }, Some(Misbehavior::CorruptDone)) => output
                    .write_all(b"\xff\xfe\x00 corrupt frame \xff\n")
                    .and_then(|_| output.flush()),
                (Frame::Done { .. }, Some(Misbehavior::DuplicateDone)) => {
                    send(output, &frame).and_then(|_| send(output, &frame))
                }
                _ => send(output, &frame),
            };
            sent.map_err(|_| 0)?;
        }
    }
    Ok(())
}

fn send(output: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    output.write_all(frame.to_line().as_bytes())?;
    output.write_all(b"\n")?;
    output.flush()
}

/// Everything a worker keeps between frames (see the module docs). No
/// method reads a clock: each takes `now`.
pub struct Worker {
    me: u64,
    cells: Vec<Cell>,
    shards: Vec<Range<usize>>,
    hosts: HostCache,
    /// Telemetry counters as of the last heartbeat, so each heartbeat
    /// carries only the increments since the previous one.
    counters_prev: BTreeMap<String, u64>,
    lease: Option<Lease>,
    /// Runs one cell: [`cell_row`], outside this module's and the
    /// coordinator's tests.
    run_cell: fn(&[Cell], usize, &mut HostCache) -> CellRow,
}

/// The shard a worker is running.
struct Lease {
    shard: u64,
    attempt: u64,
    /// Cells not run yet.
    cells: Range<usize>,
    rows: Vec<CellRow>,
    started: Instant,
    last_beat: Instant,
}

/// A worker that has not been greeted, whose counter baseline is the
/// registry now.
impl Default for Worker {
    fn default() -> Worker {
        Worker {
            me: 0,
            cells: Vec::new(),
            shards: Vec::new(),
            hosts: HostCache::new(),
            counters_prev: telemetry::counter_values(),
            lease: None,
            run_cell: cell_row,
        }
    }
}

impl Worker {
    /// A worker whose cells are `run_cell` instead of sessions, so a test
    /// can drive thousands of leases without running one.
    #[cfg(test)]
    pub(crate) fn scripted(run_cell: fn(&[Cell], usize, &mut HostCache) -> CellRow) -> Worker {
        Worker {
            run_cell,
            ..Worker::default()
        }
    }

    /// Takes one coordinator frame at `now`: the frames to send back, and
    /// the exit code when the worker is done (after `shutdown`, or a hello
    /// it refuses). A lease opens here and runs in [`step`](Self::step)s.
    pub fn on_frame(&mut self, frame: Frame, now: Instant) -> (Vec<Frame>, Option<i32>) {
        match frame {
            Frame::Hello {
                worker,
                manifest,
                digest_epoch,
            } => {
                self.me = worker;
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
                        self.shards = manifest.shards(cells.len());
                        self.cells = cells;
                        let ready = Frame::Ready {
                            worker,
                            digest_epoch: DIGEST_EPOCH,
                        };
                        (vec![ready], None)
                    }
                    Err(message) => (vec![self.fail(None, message)], Some(1)),
                }
            }
            Frame::Lease { shard, attempt } => match self.shards.get(shard as usize) {
                Some(range) => {
                    self.lease = Some(Lease {
                        shard,
                        attempt,
                        cells: range.clone(),
                        rows: Vec::with_capacity(range.len()),
                        started: now,
                        last_beat: now,
                    });
                    (Vec::new(), None)
                }
                None => {
                    let shards = self.shards.len();
                    let message = format!("lease for unknown shard {shard} ({shards} shards)");
                    (vec![self.fail(Some(shard), message)], None)
                }
            },
            Frame::Shutdown => (Vec::new(), Some(0)),
            // Worker-direction frames arriving here mean a confused
            // coordinator; ignore them.
            Frame::Ready { .. }
            | Frame::Heartbeat { .. }
            | Frame::Done { .. }
            | Frame::Fail { .. } => (Vec::new(), None),
        }
    }

    /// `(cells run, cells in the shard)` of the open lease, if any.
    pub fn progress(&self) -> Option<(usize, usize)> {
        let lease = self.lease.as_ref()?;
        Some((lease.rows.len(), lease.rows.len() + lease.cells.len()))
    }

    /// One step of the open lease at `now`, the instant the previous cell
    /// ended: a heartbeat if the pace has passed since the last one, then
    /// the next cell. Once every cell has run, the step returns the flush
    /// heartbeat, if any counter moved since the last, and `done`, which
    /// closes the lease. Nothing to do without a lease.
    pub fn step(&mut self, now: Instant) -> Vec<Frame> {
        let Some(lease) = &mut self.lease else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let since = now.saturating_duration_since(lease.last_beat);
        let paced = !lease.rows.is_empty() && since >= HEARTBEAT_PACE;
        // Counter increments unsent when the shard ends would be stranded
        // until some later lease's heartbeat — or lost with the worker.
        if paced || lease.cells.is_empty() {
            let counters = telemetry::counter_deltas(&mut self.counters_prev);
            if paced || !counters.is_empty() {
                lease.last_beat = now;
                out.push(Frame::Heartbeat {
                    worker: self.me,
                    shard: lease.shard,
                    cells_done: lease.rows.len() as u64,
                    counters,
                });
            }
        }
        if let Some(index) = lease.cells.next() {
            let row = (self.run_cell)(&self.cells, index, &mut self.hosts);
            lease.rows.push(row);
            return out;
        }
        let lease = self.lease.take().expect("matched above");
        out.push(Frame::Done {
            worker: self.me,
            shard: lease.shard,
            attempt: lease.attempt,
            wall_us: now.saturating_duration_since(lease.started).as_micros() as u64,
            rows: lease.rows,
        });
        out
    }

    /// Closes the open lease unfinished: the `fail` that tells the
    /// coordinator to requeue it.
    pub fn abandon(&mut self, message: &str) -> Option<Frame> {
        let lease = self.lease.take()?;
        Some(self.fail(Some(lease.shard), message.into()))
    }

    fn fail(&self, shard: Option<u64>, message: String) -> Frame {
        Frame::Fail {
            worker: self.me,
            shard,
            message,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::coordinator::serial_rows;
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

    /// Smoke cells in shards of three.
    fn manifest() -> SweepManifest {
        SweepManifest {
            shard_cells: 3,
            ..SweepManifest::smoke()
        }
    }

    /// `worker`, greeted as worker 7 and leased shard 1 (cells 3..6) at `t0`.
    fn leased(mut worker: Worker, t0: Instant) -> Worker {
        let hello = Frame::Hello {
            worker: 7,
            manifest: manifest(),
            digest_epoch: DIGEST_EPOCH,
        };
        let ready = Frame::Ready {
            worker: 7,
            digest_epoch: DIGEST_EPOCH,
        };
        assert_eq!(worker.on_frame(hello, t0), (vec![ready], None));
        let lease = Frame::Lease {
            shard: 1,
            attempt: 2,
        };
        assert_eq!(worker.on_frame(lease, t0), (vec![], None));
        assert_eq!(worker.progress(), Some((0, 3)));
        worker
    }

    /// Shard 1's `done`.
    fn done(wall_us: u64, rows: &[CellRow]) -> Frame {
        let (worker, shard, attempt, rows) = (7, 1, 2, rows.to_vec());
        Frame::Done {
            worker,
            shard,
            attempt,
            wall_us,
            rows,
        }
    }

    /// A shard that finishes inside one pace sends no mid-shard heartbeat,
    /// and its rows are the serial run's. Sibling tests may move the
    /// process-global counters, so a flush heartbeat may precede `done`.
    #[test]
    fn fast_shard_sends_no_paced_heartbeat_and_rows_match_serial() {
        let t0 = Instant::now();
        let mut worker = leased(Worker::default(), t0);
        let frames: Vec<Frame> = (0..4).flat_map(|_| worker.step(t0)).collect();
        assert_eq!(worker.progress(), None);
        let serial = serial_rows(&manifest()).unwrap().1;
        match &frames[..] {
            [Frame::Heartbeat { cells_done: 3, .. }, last] | [last] => {
                assert_eq!(last, &done(0, &serial[3..6]))
            }
            other => panic!("only the pre-done flush may heartbeat: {other:?}"),
        }
    }

    /// Every cell slower than the pace is followed by its heartbeat, and a
    /// counter increment after the last one is flushed in one more right
    /// before `done`, which is timed from the lease to the last cell's end.
    #[test]
    fn slow_cells_each_heartbeat_and_counter_deltas_are_flushed_before_done() {
        let key = "msp_test_worker_flush_total";
        let row = |_: &[Cell], index: usize, _: &mut HostCache| CellRow {
            index: index as u64,
            digest: !(index as u64),
        };
        let t0 = Instant::now();
        let mut worker = leased(Worker::scripted(row), t0);
        // Three cells of 60 ms; the last step is 1 ms after the third began.
        let slow = HEARTBEAT_PACE + Duration::from_millis(10);
        let mut frames: Vec<Frame> = (0..3).flat_map(|k| worker.step(t0 + slow * k)).collect();
        telemetry::counter(key).add_raw(1);
        let end = t0 + slow * 2 + Duration::from_millis(1);
        frames.extend(worker.step(end));
        assert_eq!(worker.progress(), None);

        let beats: Vec<(u64, u64)> = (frames.iter())
            .filter_map(|f| match f {
                Frame::Heartbeat {
                    worker: 7,
                    shard: 1,
                    cells_done,
                    counters,
                } => {
                    let ours = counters.iter().find(|(k, _)| k == key);
                    Some((*cells_done, ours.map_or(0, |(_, d)| *d)))
                }
                _ => None,
            })
            .collect();
        assert_eq!(beats[..2], [(1, 0), (2, 0)], "one a slow cell: {frames:?}");
        assert!(beats[2].0 == 3 && beats[2].1 >= 1, "the flush: {frames:?}");
        let rows: Vec<CellRow> = (3..6).map(|i| row(&[], i, &mut HostCache::new())).collect();
        let wall_us = (end - t0).as_micros() as u64;
        assert_eq!(frames[3..], [done(wall_us, &rows)]);
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
        };
        match Worker::default().on_frame(hello, Instant::now()) {
            (frames, Some(1)) => match &frames[..] {
                [Frame::Fail {
                    worker: 4,
                    shard: None,
                    message,
                }] => assert!(message.contains("digest_epoch"), "{message}"),
                other => panic!("want exactly one setup fail, got {other:?}"),
            },
            other => panic!("want exit 1, got {other:?}"),
        }
    }
}
