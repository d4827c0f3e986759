//! Live observability endpoint for the long-running binaries.
//!
//! [`ObsServer`] is a tiny threaded HTTP server (on the same listener and
//! keep-alive connection loop as [`crate::server`]'s) exposing the
//! in-process [`msim_core::telemetry`] registry while a sweep or fleet
//! bench is running:
//!
//! | endpoint   | body                                                   |
//! |------------|--------------------------------------------------------|
//! | `/metrics` | Prometheus text exposition of every registered metric  |
//! | `/jobs`    | JSON job/shard state from the caller-supplied provider |
//! | `/healthz` | `{"status":"ok"}`                                      |
//!
//! Anything else gets the standard `404` JSON error. The server never
//! touches simulation state: it only *reads* atomic counters, so scraping
//! it mid-run cannot perturb a deterministic workload. A connection stays
//! open until the scraper closes it or the server is dropped; dropping it
//! returns within one read timeout even while a scraper keeps polling.

use crate::socket::{serve_http, Listener, Service};
use msim_http::{Request, Response, StatusCode};
use std::net::SocketAddr;
use std::sync::Arc;

/// Callback producing the `/jobs` JSON body at scrape time.
pub type JobsProvider = Arc<dyn Fn() -> String + Send + Sync>;

/// Content-Type for the Prometheus text exposition format.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A background thread serving `/metrics`, `/jobs` and `/healthz` until
/// dropped.
pub struct ObsServer {
    /// The bound address (useful when started on port 0).
    pub addr: SocketAddr,
    _listener: Listener,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, or port 0 for an ephemeral
    /// port) and serves scrapes until the returned handle is dropped.
    /// `jobs` renders the `/jobs` body; pass [`ObsServer::no_jobs`] for
    /// binaries without shard state.
    pub fn start(addr: &str, jobs: JobsProvider) -> std::io::Result<ObsServer> {
        let scrapes = Scrapes(jobs);
        let listener = Listener::start(addr, move |s, stop| serve_http(s, &scrapes, stop))?;
        Ok(ObsServer {
            addr: listener.addr,
            _listener: listener,
        })
    }

    /// A [`JobsProvider`] for binaries with no job state: `/jobs` answers
    /// an empty list.
    pub fn no_jobs() -> JobsProvider {
        Arc::new(|| "{\"jobs\":[]}".to_string())
    }
}

struct Scrapes(JobsProvider);

impl Service for Scrapes {
    fn answer(&self, req: &Request) -> Response {
        match req.path() {
            "/metrics" => {
                let body = msim_core::telemetry::render_prometheus();
                Response::new(StatusCode::OK, body).header("Content-Type", PROMETHEUS_CONTENT_TYPE)
            }
            "/jobs" => Response::json((self.0)()),
            "/healthz" => Response::json(b"{\"status\":\"ok\"}".to_vec()),
            _ => Response::not_found_json(&req.target),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msim_http::encode_request;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn read_response(stream: &mut TcpStream) -> Response {
        let mut buf = Vec::new();
        let mut scratch = [0u8; 4096];
        loop {
            if let Ok(msim_http::Decoded::Complete { message, .. }) =
                msim_http::decode_response(&buf)
            {
                return message;
            }
            let n = stream.read(&mut scratch).unwrap();
            assert!(n > 0, "server closed before full response");
            buf.extend_from_slice(&scratch[..n]);
        }
    }

    fn get(stream: &mut TcpStream, path: &str) -> Response {
        let req = Request::get(path).header("Host", "obs");
        stream.write_all(&encode_request(&req)).unwrap();
        read_response(stream)
    }

    #[test]
    fn serves_all_endpoints_on_one_connection() {
        msim_core::telemetry::set_enabled(true);
        msim_core::telemetry::count("msp_obs_test_total", 3);
        let server = ObsServer::start("127.0.0.1:0", ObsServer::no_jobs()).unwrap();
        let mut stream = TcpStream::connect(server.addr).unwrap();

        let resp = get(&mut stream, "/healthz");
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(&resp.body[..], b"{\"status\":\"ok\"}");

        let resp = get(&mut stream, "/metrics");
        assert_eq!(resp.status, StatusCode::OK);
        let text = String::from_utf8(resp.body.to_vec()).unwrap();
        assert!(text.contains("msp_obs_test_total"));
        assert_eq!(
            resp.headers.get("Content-Type"),
            Some(PROMETHEUS_CONTENT_TYPE)
        );

        let resp = get(&mut stream, "/jobs");
        assert_eq!(resp.status, StatusCode::OK);
        assert!(msim_json::from_str(std::str::from_utf8(&resp.body).unwrap()).is_ok());

        let resp = get(&mut stream, "/nope");
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
        let v = msim_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            v.get("error").and_then(msim_json::Value::as_str),
            Some("unknown endpoint")
        );
    }

    #[test]
    fn drop_returns_while_a_client_keeps_polling_one_connection() {
        // Regression: the obs connection loop never read the stop flag, so
        // a scraper polling one keep-alive connection more often than its
        // 2 s idle timeout kept `drop` (and a `--metrics` binary) waiting.
        let server = ObsServer::start("127.0.0.1:0", ObsServer::no_jobs()).unwrap();
        let mut stream = TcpStream::connect(server.addr).unwrap();
        let polling = Arc::new(AtomicBool::new(true));
        let keep_polling = polling.clone();
        let (answered_tx, answered) = std::sync::mpsc::channel();
        let client = std::thread::spawn(move || {
            let req = encode_request(&Request::get("/healthz").header("Host", "obs"));
            let mut scratch = [0u8; 4096];
            while keep_polling.load(Ordering::Relaxed) {
                if stream.write_all(&req).is_err() || !matches!(stream.read(&mut scratch), Ok(1..))
                {
                    return;
                }
                let _ = answered_tx.send(());
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        });
        answered.recv().unwrap();
        let (dropped_tx, dropped) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(server);
            let _ = dropped_tx.send(());
        });
        let dropped = dropped.recv_timeout(std::time::Duration::from_secs(3));
        polling.store(false, Ordering::Relaxed);
        assert!(dropped.is_ok(), "drop(ObsServer) still waiting after 3 s");
        dropper.join().unwrap();
        client.join().unwrap();
    }
}
