//! The socket driver: runs the sans-I/O [`Player`] over real loopback TCP.
//!
//! One worker thread per path performs blocking HTTP range requests on a
//! persistent connection (exactly like the python MSPlayer's per-path
//! threads, §3.2: "the processes of fetching video chunks over each path are
//! executed by independent threads, which are under the management of the
//! chunk scheduler"). The main thread owns the player state machine and a
//! wall-clock mapped onto [`SimTime`].

use msim_core::time::SimTime;
use msim_http::{decode_response, encode_request_into, ByteRange, Decoded, Request, StatusCode};
use msplayer_core::config::PlayerConfig;
use msplayer_core::metrics::SessionMetrics;
use msplayer_core::player::{ChunkFailReason, Player, PlayerAction, PlayerEvent};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// When the testbed session ends.
#[derive(Clone, Copy, Debug)]
pub enum TestbedStop {
    /// Stop when the pre-buffer target is reached.
    PrebufferDone,
    /// Stop after `n` refill cycles.
    AfterRefills(usize),
}

/// A testbed session description.
pub struct TestbedSession {
    /// Per-path replica lists (first entry is the primary video server).
    pub path_servers: Vec<Vec<SocketAddr>>,
    /// Total "video file" length in bytes (must match the servers' file).
    pub video_len: u64,
    /// Stream bytes per second (video bitrate / 8).
    pub bytes_per_sec: f64,
    /// Player configuration.
    pub player: PlayerConfig,
    /// Stop condition.
    pub stop: TestbedStop,
    /// Hard wall-clock cap on the session.
    pub wall_timeout: Duration,
}

enum WorkerEvent {
    Ready {
        path: usize,
    },
    Done {
        path: usize,
        index: u64,
        bytes: u64,
        requested_at: SimTime,
        first_byte_at: SimTime,
        completed_at: SimTime,
    },
    Failed {
        path: usize,
        reason: ChunkFailReason,
        at: SimTime,
    },
    Restored {
        path: usize,
        at: SimTime,
    },
}

enum WorkerCmd {
    Fetch { index: u64, range: ByteRange },
    Failover,
    Shutdown,
}

struct Clock {
    t0: Instant,
}

impl Clock {
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.t0.elapsed().as_micros() as u64)
    }
}

/// Runs a session; returns the player's metrics.
///
/// Errors are returned for setup problems (connect failures); runtime
/// transfer errors are fed to the player as chunk failures instead.
pub fn run_testbed_session(session: &TestbedSession) -> std::io::Result<SessionMetrics> {
    assert!(
        !session.path_servers.is_empty() && session.path_servers.len() <= 2,
        "one or two paths"
    );
    let clock = Clock { t0: Instant::now() };
    let (ev_tx, ev_rx): (Sender<WorkerEvent>, Receiver<WorkerEvent>) = channel();
    let mut cmd_txs: Vec<Sender<WorkerCmd>> = Vec::new();
    let mut workers = Vec::new();

    for (path, servers) in session.path_servers.iter().enumerate() {
        let (cmd_tx, cmd_rx) = channel::<WorkerCmd>();
        cmd_txs.push(cmd_tx);
        let servers = servers.clone();
        let ev_tx = ev_tx.clone();
        let t0 = clock.t0;
        workers.push(std::thread::spawn(move || {
            path_worker(path, servers, cmd_rx, ev_tx, t0);
        }));
    }

    let mut player = Player::new(
        session.player.clone(),
        session.video_len,
        session.bytes_per_sec,
        SimTime::ZERO,
    );
    let mut next_tick: Option<SimTime> = None;
    let mut last_now = SimTime::ZERO;
    let deadline = Instant::now() + session.wall_timeout;

    'main: loop {
        if Instant::now() > deadline {
            break;
        }
        // Wait for the next worker event or the pending tick.
        let timeout = match next_tick {
            Some(at) => {
                let now = clock.now();
                if at <= now {
                    Duration::ZERO
                } else {
                    Duration::from_micros((at - now).as_micros())
                }
            }
            None => Duration::from_millis(50),
        };
        let (now, event) = match ev_rx.recv_timeout(timeout) {
            Ok(ev) => {
                let (at, pe) = match ev {
                    WorkerEvent::Ready { path } => (clock.now(), PlayerEvent::PathReady { path }),
                    WorkerEvent::Done {
                        path,
                        index,
                        bytes,
                        requested_at,
                        first_byte_at,
                        completed_at,
                    } => (
                        completed_at,
                        PlayerEvent::ChunkComplete {
                            path,
                            index,
                            bytes,
                            requested_at,
                            first_byte_at,
                        },
                    ),
                    WorkerEvent::Failed { path, reason, at } => {
                        (at, PlayerEvent::ChunkFailed { path, reason })
                    }
                    WorkerEvent::Restored { path, at } => (at, PlayerEvent::PathRestored { path }),
                };
                (at, pe)
            }
            Err(RecvTimeoutError::Timeout) => {
                next_tick = None;
                (clock.now(), PlayerEvent::Tick)
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // Keep the player's clock monotone even if worker timestamps race.
        let now = now.max(last_now);
        last_now = now;

        for action in player.handle(now, event) {
            match action {
                PlayerAction::Fetch { assignment } => {
                    let _ = cmd_txs[assignment.path].send(WorkerCmd::Fetch {
                        index: assignment.index,
                        range: assignment.range,
                    });
                }
                PlayerAction::Failover { path } => {
                    let _ = cmd_txs[path].send(WorkerCmd::Failover);
                }
                PlayerAction::ScheduleTick { at } => {
                    // Coalescing contract: the latest request supersedes
                    // any undelivered earlier one (the player re-derives
                    // its desired wakeup after every event).
                    next_tick = Some(at);
                }
            }
        }

        let stop = match session.stop {
            TestbedStop::PrebufferDone => player.prebuffer_done(),
            TestbedStop::AfterRefills(n) => player.refill_count() >= n,
        };
        if stop {
            break 'main;
        }
    }

    for tx in &cmd_txs {
        let _ = tx.send(WorkerCmd::Shutdown);
    }
    for w in workers {
        let _ = w.join();
    }
    // Real-socket transfers have no simulated TCP engine, so the
    // `SessionMetrics::transfer_*` telemetry (epochs / fast rounds of
    // the simulator's epoch transfer engine) stays at its zero default
    // here — the testbed measures wall-clock transfers,
    // not model rounds.
    Ok(player.into_metrics(clock.now().max(last_now)))
}

fn path_worker(
    path: usize,
    servers: Vec<SocketAddr>,
    cmd_rx: Receiver<WorkerCmd>,
    ev_tx: Sender<WorkerEvent>,
    t0: Instant,
) {
    let now = |t0: Instant| SimTime::from_micros(t0.elapsed().as_micros() as u64);
    // Reused across every chunk this worker fetches: request wire bytes and
    // the response accumulation buffer keep their capacity for the whole
    // session instead of re-allocating per chunk.
    let mut bufs = FetchBufs::default();
    let mut current = 0usize;
    let mut conn = match TcpStream::connect(servers[current]) {
        Ok(c) => {
            let _ = c.set_nodelay(true);
            let _ = ev_tx.send(WorkerEvent::Ready { path });
            Some(c)
        }
        Err(_) => None,
    };

    while let Ok(cmd) = cmd_rx.recv() {
        match cmd {
            WorkerCmd::Shutdown => break,
            WorkerCmd::Failover => {
                current = (current + 1) % servers.len();
                conn = TcpStream::connect(servers[current]).ok();
                if let Some(c) = &conn {
                    let _ = c.set_nodelay(true);
                    let _ = ev_tx.send(WorkerEvent::Restored { path, at: now(t0) });
                }
            }
            WorkerCmd::Fetch { index, range } => {
                let requested_at = now(t0);
                let result = conn
                    .as_mut()
                    .ok_or(ChunkFailReason::Timeout)
                    .and_then(|c| fetch_range(c, range, t0, &mut bufs));
                match result {
                    Ok((bytes, first_byte_at)) => {
                        let _ = ev_tx.send(WorkerEvent::Done {
                            path,
                            index,
                            bytes,
                            requested_at,
                            first_byte_at,
                            completed_at: now(t0),
                        });
                    }
                    Err(reason) => {
                        // Reconnect to the same server for transport errors
                        // so a later retry can succeed.
                        conn = TcpStream::connect(servers[current]).ok();
                        let _ = ev_tx.send(WorkerEvent::Failed {
                            path,
                            reason,
                            at: now(t0),
                        });
                    }
                }
            }
        }
    }
}

/// Per-worker scratch buffers reused across chunk fetches.
#[derive(Default)]
struct FetchBufs {
    /// Encoded request bytes.
    wire: Vec<u8>,
    /// Accumulated response bytes.
    resp: Vec<u8>,
}

/// Issues one range request on the persistent connection. Returns
/// `(bytes, first_byte_at)`.
fn fetch_range(
    conn: &mut TcpStream,
    range: ByteRange,
    t0: Instant,
    bufs: &mut FetchBufs,
) -> Result<(u64, SimTime), ChunkFailReason> {
    let req = Request::get("/videoplayback?id=stream")
        .header("Host", "testbed")
        .with_range(range);
    encode_request_into(&req, &mut bufs.wire);
    conn.write_all(&bufs.wire)
        .map_err(|_| ChunkFailReason::Timeout)?;
    bufs.resp.clear();
    bufs.resp.reserve(range.len() as usize + 512);
    let buf = &mut bufs.resp;
    let mut scratch = [0u8; 64 * 1024];
    let mut first_byte_at: Option<SimTime> = None;
    loop {
        match decode_response(buf) {
            Ok(Decoded::Complete { message, .. }) => {
                return match message.status {
                    StatusCode::PARTIAL_CONTENT | StatusCode::OK => Ok((
                        message.body.len() as u64,
                        first_byte_at.unwrap_or_else(|| {
                            SimTime::from_micros(t0.elapsed().as_micros() as u64)
                        }),
                    )),
                    StatusCode::FORBIDDEN => Err(ChunkFailReason::Forbidden),
                    _ => Err(ChunkFailReason::ServerError),
                };
            }
            Ok(Decoded::NeedMore) => {
                let n = conn
                    .read(&mut scratch)
                    .map_err(|_| ChunkFailReason::Timeout)?;
                if n == 0 {
                    return Err(ChunkFailReason::Timeout);
                }
                if first_byte_at.is_none() {
                    first_byte_at = Some(SimTime::from_micros(t0.elapsed().as_micros() as u64));
                }
                buf.extend_from_slice(&scratch[..n]);
            }
            Err(_) => return Err(ChunkFailReason::ServerError),
        }
    }
}
