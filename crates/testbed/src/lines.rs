//! Line-framed transport plumbing for control-plane protocols.
//!
//! The distributed sweep service (`msplayer_bench::cluster`) speaks a
//! line-delimited JSON protocol between its coordinator and workers. The
//! byte-moving side of that protocol lives here, next to the rest of the
//! real-socket plumbing: a reader thread that turns any `Read` stream
//! (a child's stdout, a TCP socket) into framed events on a channel, a
//! flushing line writer for the opposite direction, and a listener for
//! the multi-host TCP mode (the crate's one accept loop, which the HTTP
//! servers in [`crate::server`] and [`crate::obs`] share).
//!
//! Frames are single lines: one `\n`-terminated UTF-8 payload per
//! message, no embedded newlines. A line that fails UTF-8 decoding is
//! delivered as [`LineEvent::Garbage`] rather than dropped — a corrupt
//! frame from a sick peer is a scheduling signal, not something to hide.

use crate::socket::Listener;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::Sender;
use std::thread::JoinHandle;

/// One event from a framed peer, tagged with the peer id the reader
/// thread was started with.
#[derive(Debug)]
pub enum LineEvent {
    /// A complete line (without its trailing newline).
    Line(u64, String),
    /// A line arrived that does not decode as UTF-8 — a corrupt frame.
    Garbage(u64, usize),
    /// The peer's stream ended (EOF or read error).
    Closed(u64),
}

/// Spawns a reader thread that frames `stream` into lines and forwards
/// them to `tx` tagged with `peer`. The thread exits (after sending
/// [`LineEvent::Closed`]) on EOF, on a read error, or when the receiving
/// side of `tx` is dropped.
pub fn spawn_line_reader<R>(peer: u64, stream: R, tx: Sender<LineEvent>) -> JoinHandle<()>
where
    R: Read + Send + 'static,
{
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stream);
        let mut buf: Vec<u8> = Vec::new();
        loop {
            buf.clear();
            match reader.read_until(b'\n', &mut buf) {
                Ok(0) => break,
                Ok(_) => {
                    while buf.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                        buf.pop();
                    }
                    let event = match String::from_utf8(std::mem::take(&mut buf)) {
                        Ok(line) => LineEvent::Line(peer, line),
                        Err(e) => LineEvent::Garbage(peer, e.as_bytes().len()),
                    };
                    if tx.send(event).is_err() {
                        return; // receiver gone — nobody cares anymore
                    }
                }
                Err(_) => break,
            }
        }
        let _ = tx.send(LineEvent::Closed(peer));
    })
}

/// A write half that frames messages as flushed lines.
///
/// Every send appends `\n` and flushes, so a message is either fully on
/// the wire or not sent at all from this process's point of view —
/// torn frames can only come from the transport (or a crashing peer),
/// which is exactly what the reader side's garbage handling is for.
pub struct LineWriter {
    sink: Box<dyn Write + Send>,
}

impl LineWriter {
    /// Wraps any writable sink (child stdin, socket write half, …).
    pub fn new(sink: impl Write + Send + 'static) -> LineWriter {
        LineWriter {
            sink: Box::new(sink),
        }
    }

    /// Writes one message as a framed line. `msg` must not contain
    /// newlines (single-line JSON by construction in the cluster
    /// protocol).
    pub fn send_line(&mut self, msg: &str) -> std::io::Result<()> {
        debug_assert!(!msg.contains('\n'), "line frames cannot contain newlines");
        self.sink.write_all(msg.as_bytes())?;
        self.sink.write_all(b"\n")?;
        self.sink.flush()
    }
}

/// A listening socket accepting framed peers in the background — the
/// multi-host entry point of the cluster protocol. Dropping it stops the
/// accept loop and joins its thread.
pub struct LineServer {
    /// Bound address (useful with a `:0` request).
    pub addr: SocketAddr,
    _listener: Listener,
}

impl LineServer {
    /// Binds `addr` and starts accepting; each accepted stream is sent to
    /// `conns` untouched (the caller splits it into reader/writer halves).
    pub fn start(addr: &str, conns: Sender<TcpStream>) -> std::io::Result<LineServer> {
        let listener = Listener::start(addr, move |stream, _| {
            let _ = conns.send(stream);
            Ok(())
        })?;
        Ok(LineServer {
            addr: listener.addr,
            _listener: listener,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn reader_frames_lines_and_reports_close() {
        let (tx, rx) = mpsc::channel();
        let data: &[u8] = b"alpha\nbeta\r\n{\"k\":1}\n";
        let h = spawn_line_reader(7, data, tx);
        match rx.recv().unwrap() {
            LineEvent::Line(7, s) => assert_eq!(s, "alpha"),
            other => panic!("{other:?}"),
        }
        match rx.recv().unwrap() {
            LineEvent::Line(7, s) => assert_eq!(s, "beta"),
            other => panic!("{other:?}"),
        }
        match rx.recv().unwrap() {
            LineEvent::Line(7, s) => assert_eq!(s, "{\"k\":1}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(rx.recv().unwrap(), LineEvent::Closed(7)));
        h.join().unwrap();
    }

    #[test]
    fn non_utf8_bytes_surface_as_garbage() {
        let (tx, rx) = mpsc::channel();
        let data: Vec<u8> = vec![b'o', b'k', b'\n', 0xFF, 0xFE, b'\n'];
        let h = spawn_line_reader(1, std::io::Cursor::new(data), tx);
        assert!(matches!(rx.recv().unwrap(), LineEvent::Line(1, _)));
        assert!(matches!(rx.recv().unwrap(), LineEvent::Garbage(1, 2)));
        assert!(matches!(rx.recv().unwrap(), LineEvent::Closed(1)));
        h.join().unwrap();
    }

    #[test]
    fn tcp_roundtrip_through_line_server() {
        let (conn_tx, conn_rx) = mpsc::channel();
        let server = LineServer::start("127.0.0.1:0", conn_tx).unwrap();
        let client = TcpStream::connect(server.addr).unwrap();
        let mut client_writer = LineWriter::new(client.try_clone().unwrap());
        client_writer.send_line("{\"type\":\"ready\"}").unwrap();

        let accepted = conn_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap();
        let (tx, rx) = mpsc::channel();
        let _h = spawn_line_reader(3, accepted.try_clone().unwrap(), tx);
        match rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap() {
            LineEvent::Line(3, s) => assert_eq!(s, "{\"type\":\"ready\"}"),
            other => panic!("{other:?}"),
        }

        // And the other direction: server → client.
        let mut server_writer = LineWriter::new(accepted);
        server_writer.send_line("{\"type\":\"lease\"}").unwrap();
        let (ctx, crx) = mpsc::channel();
        let _h2 = spawn_line_reader(4, client, ctx);
        match crx.recv_timeout(std::time::Duration::from_secs(5)).unwrap() {
            LineEvent::Line(4, s) => assert_eq!(s, "{\"type\":\"lease\"}"),
            other => panic!("{other:?}"),
        }
    }
}
