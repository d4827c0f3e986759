//! The socket driver: runs the sans-I/O [`Player`] over real loopback TCP.
//!
//! One worker thread per path performs blocking HTTP range requests on a
//! persistent connection (exactly like the python MSPlayer's per-path
//! threads, §3.2: "the processes of fetching video chunks over each path are
//! executed by independent threads, which are under the management of the
//! chunk scheduler"). The main thread owns the player state machine and a
//! wall-clock mapped onto [`SimTime`]; the workers speak the player's own
//! vocabulary, taking [`PlayerAction`]s and sending back timestamped
//! [`PlayerEvent`]s.

use msim_core::time::SimTime;
use msim_http::{decode_response, encode_request_into, ByteRange, Decoded, Request, StatusCode};
use msplayer_core::chunk::ChunkAssignment;
use msplayer_core::config::PlayerConfig;
use msplayer_core::metrics::SessionMetrics;
use msplayer_core::player::{ChunkFailReason, Player, PlayerAction, PlayerEvent};
use msplayer_core::sim::StopCondition;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

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
    /// Stop condition, on the session clock.
    pub stop: StopCondition,
    /// Hard wall-clock cap on the session.
    pub wall_timeout: Duration,
}

/// The session clock: wall time since `t0`, to the microsecond.
fn since(t0: Instant) -> SimTime {
    SimTime::from_micros(t0.elapsed().as_micros() as u64)
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
    let t0 = Instant::now();
    let (ev_tx, ev_rx) = channel::<(SimTime, PlayerEvent)>();
    let mut cmd_txs: Vec<Sender<PlayerAction>> = Vec::new();
    let mut workers = Vec::new();

    for (path, servers) in session.path_servers.iter().enumerate() {
        let (cmd_tx, cmd_rx) = channel();
        cmd_txs.push(cmd_tx);
        let servers = servers.clone();
        let ev_tx = ev_tx.clone();
        workers.push(std::thread::spawn(move || {
            path_worker(path, &servers, cmd_rx, ev_tx, t0);
        }));
    }
    // The workers hold the only senders: the channel closes if they all die.
    drop(ev_tx);

    let mut player = Player::new(
        session.player.clone(),
        session.path_servers.len(),
        session.video_len,
        session.bytes_per_sec,
        SimTime::ZERO,
    );
    let mut next_tick: Option<SimTime> = None;
    let mut last_now = SimTime::ZERO;
    let deadline = Instant::now() + session.wall_timeout;

    while Instant::now() <= deadline {
        // Wait for the next worker event or the pending tick.
        let timeout = match next_tick {
            Some(at) => Duration::from_micros(at.saturating_since(since(t0)).as_micros()),
            None => Duration::from_millis(50),
        };
        let (now, event) = match ev_rx.recv_timeout(timeout) {
            Ok(ev) => ev,
            Err(RecvTimeoutError::Timeout) => {
                next_tick = None;
                (since(t0), PlayerEvent::Tick)
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // Keep the player's clock monotone even if worker timestamps race.
        let now = now.max(last_now);
        last_now = now;

        for action in player.handle(now, event) {
            match action {
                PlayerAction::Fetch {
                    assignment: ChunkAssignment { path, .. },
                }
                | PlayerAction::Failover { path } => {
                    let _ = cmd_txs[path].send(action);
                }
                PlayerAction::ScheduleTick { at } => {
                    // Coalescing contract: the latest request supersedes
                    // any undelivered earlier one (the player re-derives
                    // its desired wakeup after every event).
                    next_tick = Some(at);
                }
            }
        }

        if session.stop.reached(&player, now) {
            break;
        }
    }

    // Closing the command channels ends the workers.
    drop(cmd_txs);
    for w in workers {
        let _ = w.join();
    }
    // The metrics hold what the player saw on the wall clock: real sockets
    // have no simulated TCP engine to report on.
    Ok(player.into_metrics(since(t0).max(last_now)))
}

/// Connects to `addr` with `TCP_NODELAY` set.
fn connect(addr: SocketAddr) -> Option<TcpStream> {
    let conn = TcpStream::connect(addr).ok()?;
    let _ = conn.set_nodelay(true);
    Some(conn)
}

/// One path's thread: carries out the player's `Fetch` and `Failover`
/// actions on its connection and reports each outcome stamped with the
/// session clock. It exits when its command channel closes.
fn path_worker(
    path: usize,
    servers: &[SocketAddr],
    cmds: Receiver<PlayerAction>,
    events: Sender<(SimTime, PlayerEvent)>,
    t0: Instant,
) {
    // Reused across every chunk this worker fetches: request wire bytes and
    // the response accumulation buffer keep their capacity for the whole
    // session instead of re-allocating per chunk.
    let mut bufs = FetchBufs::default();
    let mut current = 0usize;
    let mut conn = connect(servers[current]);
    if conn.is_some() {
        let _ = events.send((since(t0), PlayerEvent::PathReady { path }));
    }

    for cmd in cmds {
        let event = match cmd {
            PlayerAction::Failover { .. } => {
                current = (current + 1) % servers.len();
                conn = connect(servers[current]);
                if conn.is_none() {
                    continue;
                }
                PlayerEvent::PathRestored { path }
            }
            PlayerAction::Fetch { assignment } => {
                let requested_at = since(t0);
                let result = conn
                    .as_mut()
                    .ok_or(ChunkFailReason::Timeout)
                    .and_then(|c| fetch_range(c, assignment.range, t0, &mut bufs));
                match result {
                    Ok((bytes, first_byte_at)) => PlayerEvent::ChunkComplete {
                        path,
                        index: assignment.index,
                        bytes,
                        requested_at,
                        first_byte_at,
                    },
                    Err(reason) => {
                        // Reconnect to the same server for transport errors
                        // so a later retry can succeed.
                        conn = connect(servers[current]);
                        PlayerEvent::ChunkFailed { path, reason }
                    }
                }
            }
            PlayerAction::ScheduleTick { .. } => unreachable!("ticks stay with the driver"),
        };
        let _ = events.send((since(t0), event));
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
                        first_byte_at.unwrap_or_else(|| since(t0)),
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
                    first_byte_at = Some(since(t0));
                }
                buf.extend_from_slice(&scratch[..n]);
            }
            Err(_) => return Err(ChunkFailReason::ServerError),
        }
    }
}
