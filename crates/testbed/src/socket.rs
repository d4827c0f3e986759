//! The socket layer every testbed server stands on: one listener and one
//! keep-alive HTTP connection loop.
//!
//! A [`Listener`] owns the bound socket, the nonblocking accept poll, the
//! stop flag and one thread per accepted connection; dropping it stops
//! and joins them all. [`serve_http`] is the connection loop of the three
//! HTTP servers, each of which supplies only a [`Service`].

use msim_http::{decode_request, encode_response, Decoded, Request, Response, StatusCode};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection's read blocks before it looks at the stop flag
/// again.
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// A bound socket whose background thread accepts connections until the
/// listener is dropped. Drop returns once every connection has finished.
pub(crate) struct Listener {
    /// Bound address (useful with a `:0` request).
    pub(crate) addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` and runs `serve(stream, stop)` on every accepted stream
    /// (`TCP_NODELAY` set) in a thread of its own; `stop` is raised when
    /// the listener drops.
    pub(crate) fn start<F>(addr: &str, serve: F) -> std::io::Result<Listener>
    where
        F: Fn(TcpStream, &AtomicBool) -> std::io::Result<()> + Send + Sync + 'static,
    {
        let socket = TcpListener::bind(addr)?;
        let addr = socket.local_addr()?;
        socket.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let serve = Arc::new(serve);
        let accept = std::thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                match socket.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nodelay(true);
                        let (serve, flag) = (serve.clone(), flag.clone());
                        conns.retain(|c| !c.is_finished());
                        conns.push(std::thread::spawn(move || {
                            let _ = serve(stream, &flag);
                        }));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(Listener {
            addr,
            stop,
            accept: Some(accept),
        })
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// One HTTP server's part of [`serve_http`]: its answers, and how they go
/// on the wire.
pub(crate) trait Service: Send + Sync + 'static {
    /// Whether the connection closes after its first answer.
    const ONE_SHOT: bool = false;

    /// Answers one parsed request.
    fn answer(&self, req: &Request) -> Response;

    /// The answer to bytes that do not parse as a request; the connection
    /// closes after it.
    fn malformed(&self) -> Response {
        Response::json_error(StatusCode::BAD_REQUEST, "malformed request", "")
    }

    /// Writes one answer.
    fn write(&self, stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
        stream.write_all(&encode_response(resp))
    }
}

/// Serves requests on `stream` one at a time until the peer closes it,
/// `stop` is raised (seen at the latest one [`READ_TIMEOUT`] later, however
/// often the peer sends), a request does not parse, or a one-shot service
/// has answered.
pub(crate) fn serve_http<S: Service>(
    mut stream: TcpStream,
    service: &S,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut scratch = [0u8; 4096];
    while !stop.load(Ordering::Relaxed) {
        match decode_request(&buf) {
            Ok(Decoded::Complete { message, consumed }) => {
                buf.drain(..consumed);
                service.write(&mut stream, &service.answer(&message))?;
                if S::ONE_SHOT {
                    break;
                }
            }
            Ok(Decoded::NeedMore) => match stream.read(&mut scratch) {
                Ok(0) => break,
                Ok(n) => buf.extend_from_slice(&scratch[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(e),
            },
            Err(_) => return service.write(&mut stream, &service.malformed()),
        }
    }
    Ok(())
}
