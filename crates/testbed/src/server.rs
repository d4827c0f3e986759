//! Threaded HTTP servers for the loopback testbed: a video file server
//! (range requests over keep-alive connections, like §5's Apache) and a web
//! proxy daemon returning the JSON video information.
//!
//! Both servers route on the request path and answer unknown endpoints
//! with a proper `404` + JSON error body (and malformed requests with
//! `400`) instead of dropping the connection, so misdirected clients get
//! a diagnosable reply on a still-usable connection. Each is a service on
//! the crate's one listener and connection loop.

use crate::shaper::{write_paced, LinkShape};
use crate::socket::{serve_http, Listener, Service};
use msim_core::time::SimDuration;
use msim_http::{encode_response, Request, Response, StatusCode};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Shared controls for a running server (failure injection, counters).
#[derive(Default)]
pub struct ServerControls {
    /// When set, every request is answered with 500 (failure injection).
    pub fail: AtomicBool,
    /// Served range-request count.
    pub requests: AtomicU64,
    /// Total body bytes served.
    pub bytes: AtomicU64,
}

/// A running video file server on loopback.
pub struct VideoFileServer {
    /// Bound address.
    pub addr: SocketAddr,
    /// Runtime controls.
    pub controls: Arc<ServerControls>,
    _listener: Listener,
}

impl VideoFileServer {
    /// Starts a server holding a synthetic `file` of bytes, shaping every
    /// response according to `shape`. The "file" is the pre-downloaded
    /// video of §5.
    pub fn start(file: Arc<Vec<u8>>, shape: LinkShape) -> std::io::Result<VideoFileServer> {
        let controls = Arc::new(ServerControls::default());
        let video = Video {
            file,
            shape,
            controls: controls.clone(),
        };
        let listener = Listener::start("127.0.0.1:0", move |s, stop| serve_http(s, &video, stop))?;
        Ok(VideoFileServer {
            addr: listener.addr,
            controls,
            _listener: listener,
        })
    }
}

struct Video {
    file: Arc<Vec<u8>>,
    shape: LinkShape,
    controls: Arc<ServerControls>,
}

impl Service for Video {
    fn answer(&self, req: &Request) -> Response {
        let resp = build_video_response(req, &self.file, &self.controls);
        // Count before writing: once the client has read the full
        // response, the counters are guaranteed up to date.
        self.controls.requests.fetch_add(1, Ordering::Relaxed);
        self.controls
            .bytes
            .fetch_add(resp.body.len() as u64, Ordering::Relaxed);
        // Emulate the link RTT: request propagation + first byte.
        std::thread::sleep(to_std(self.shape.rtt));
        resp
    }

    fn malformed(&self) -> Response {
        Response::new(StatusCode::BAD_REQUEST, Vec::new())
    }

    fn write(&self, stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
        // Head goes immediately; body is paced at the link rate.
        let wire = encode_response(resp);
        stream.write_all(&wire[..wire.len() - resp.body.len()])?;
        write_paced(stream, &resp.body, self.shape)
    }
}

fn build_video_response(req: &Request, file: &[u8], controls: &ServerControls) -> Response {
    if controls.fail.load(Ordering::Relaxed) {
        return Response::new(StatusCode::INTERNAL_SERVER_ERROR, Vec::new());
    }
    // Only the videoplayback endpoint exists here; anything else is a
    // client bug and earns a 404 JSON error on the live connection.
    if req.path() != "/videoplayback" {
        return Response::not_found_json(&req.target);
    }
    match req.range() {
        Some(Ok(range)) => match range.clamp_to(file.len() as u64) {
            Ok(r) => {
                let body = file[r.start as usize..=(r.end as usize)].to_vec();
                Response::partial_content(body, r, file.len() as u64)
            }
            Err(_) => Response::new(StatusCode::RANGE_NOT_SATISFIABLE, Vec::new()),
        },
        Some(Err(_)) => Response::new(StatusCode::BAD_REQUEST, Vec::new()),
        None => {
            // Whole-file GET (not used by the player, but be a good server).
            Response::new(StatusCode::OK, file.to_vec())
        }
    }
}

/// A running web-proxy daemon serving one JSON document at `/watch`, one
/// request per connection.
pub struct ProxyDaemon {
    /// Bound address.
    pub addr: SocketAddr,
    _listener: Listener,
}

impl ProxyDaemon {
    /// Starts the daemon. `json` is the video-information object for this
    /// network's view (pre-built by the harness); `processing` emulates the
    /// OAuth/JSON generation delay.
    pub fn start(json: String, processing: SimDuration) -> std::io::Result<ProxyDaemon> {
        let proxy = Proxy { json, processing };
        let listener = Listener::start("127.0.0.1:0", move |s, stop| serve_http(s, &proxy, stop))?;
        Ok(ProxyDaemon {
            addr: listener.addr,
            _listener: listener,
        })
    }
}

struct Proxy {
    json: String,
    processing: SimDuration,
}

impl Service for Proxy {
    const ONE_SHOT: bool = true;

    fn answer(&self, req: &Request) -> Response {
        if req.path() != "/watch" {
            return Response::not_found_json(&req.target);
        }
        std::thread::sleep(to_std(self.processing));
        Response::json(self.json.clone())
    }
}

fn to_std(d: SimDuration) -> std::time::Duration {
    std::time::Duration::from_micros(d.as_micros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use msim_http::{decode_response, encode_request, ByteRange, Decoded};
    use std::io::Read;

    fn fetch_range(addr: SocketAddr, start: u64, len: u64) -> Response {
        let mut stream = TcpStream::connect(addr).unwrap();
        let req = Request::get("/videoplayback?id=test")
            .header("Host", "testbed")
            .with_range(ByteRange::from_offset_len(start, len));
        stream.write_all(&encode_request(&req)).unwrap();
        read_response(&mut stream)
    }

    fn read_response(stream: &mut TcpStream) -> Response {
        let mut buf = Vec::new();
        let mut scratch = [0u8; 8192];
        loop {
            match decode_response(&buf).unwrap() {
                Decoded::Complete { message, .. } => return message,
                Decoded::NeedMore => {
                    let n = stream.read(&mut scratch).unwrap();
                    assert!(n > 0, "server closed early");
                    buf.extend_from_slice(&scratch[..n]);
                }
            }
        }
    }

    fn test_file(n: usize) -> Arc<Vec<u8>> {
        Arc::new((0..n).map(|i| (i % 251) as u8).collect())
    }

    fn fast_shape() -> LinkShape {
        LinkShape {
            rate: msim_core::units::BitRate::mbps(400.0),
            rtt: SimDuration::from_millis(1),
        }
    }

    #[test]
    fn serves_correct_range_bytes() {
        let file = test_file(100_000);
        let server = VideoFileServer::start(file.clone(), fast_shape()).unwrap();
        let resp = fetch_range(server.addr, 1000, 5000);
        assert_eq!(resp.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(&resp.body[..], &file[1000..6000]);
        let (range, total) = resp.content_range().unwrap().unwrap();
        assert_eq!(range, ByteRange::from_offset_len(1000, 5000));
        assert_eq!(total, 100_000);
    }

    #[test]
    fn keepalive_serves_sequential_requests() {
        let file = test_file(50_000);
        let server = VideoFileServer::start(file.clone(), fast_shape()).unwrap();
        let mut stream = TcpStream::connect(server.addr).unwrap();
        for i in 0..5u64 {
            let req = Request::get("/videoplayback")
                .header("Host", "testbed")
                .with_range(ByteRange::from_offset_len(i * 1000, 1000));
            stream.write_all(&encode_request(&req)).unwrap();
            let resp = read_response(&mut stream);
            assert_eq!(resp.status, StatusCode::PARTIAL_CONTENT);
            assert_eq!(
                &resp.body[..],
                &file[(i * 1000) as usize..(i * 1000 + 1000) as usize]
            );
        }
        assert_eq!(server.controls.requests.load(Ordering::Relaxed), 5);
        assert_eq!(server.controls.bytes.load(Ordering::Relaxed), 5000);
    }

    #[test]
    fn range_past_eof_is_clamped_or_416() {
        let file = test_file(10_000);
        let server = VideoFileServer::start(file.clone(), fast_shape()).unwrap();
        let resp = fetch_range(server.addr, 9_000, 5_000);
        assert_eq!(resp.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(resp.body.len(), 1000, "clamped at EOF");
        let resp = fetch_range(server.addr, 20_000, 100);
        assert_eq!(resp.status, StatusCode::RANGE_NOT_SATISFIABLE);
    }

    #[test]
    fn failure_injection_returns_500() {
        let file = test_file(10_000);
        let server = VideoFileServer::start(file, fast_shape()).unwrap();
        server.controls.fail.store(true, Ordering::Relaxed);
        let resp = fetch_range(server.addr, 0, 100);
        assert_eq!(resp.status, StatusCode::INTERNAL_SERVER_ERROR);
        server.controls.fail.store(false, Ordering::Relaxed);
        let resp = fetch_range(server.addr, 0, 100);
        assert_eq!(resp.status, StatusCode::PARTIAL_CONTENT);
    }

    #[test]
    fn proxy_serves_json() {
        let daemon = ProxyDaemon::start(
            r#"{"video_id":"qjT4T2gU9sM"}"#.into(),
            SimDuration::from_millis(5),
        )
        .unwrap();
        let mut stream = TcpStream::connect(daemon.addr).unwrap();
        let req = Request::get("/watch?v=qjT4T2gU9sM").header("Host", "www.youtube.com");
        stream.write_all(&encode_request(&req)).unwrap();
        let resp = read_response(&mut stream);
        assert_eq!(resp.status, StatusCode::OK);
        let v = msim_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            v.get("video_id").and_then(msim_json::Value::as_str),
            Some("qjT4T2gU9sM")
        );
    }

    #[test]
    fn unknown_endpoint_is_404_json_not_a_drop() {
        // Regression: unknown endpoints used to be served (video server)
        // or silently ignored; they must answer 404 with a JSON error
        // body and keep the connection usable.
        let file = test_file(10_000);
        let server = VideoFileServer::start(file.clone(), fast_shape()).unwrap();
        let mut stream = TcpStream::connect(server.addr).unwrap();
        let req = Request::get("/metrics").header("Host", "testbed");
        stream.write_all(&encode_request(&req)).unwrap();
        let resp = read_response(&mut stream);
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
        let v = msim_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            v.get("error").and_then(msim_json::Value::as_str),
            Some("unknown endpoint")
        );
        assert_eq!(
            v.get("target").and_then(msim_json::Value::as_str),
            Some("/metrics")
        );
        // The same connection still serves a real request afterwards.
        let req = Request::get("/videoplayback")
            .header("Host", "testbed")
            .with_range(ByteRange::from_offset_len(0, 100));
        stream.write_all(&encode_request(&req)).unwrap();
        let resp = read_response(&mut stream);
        assert_eq!(resp.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(&resp.body[..], &file[..100]);
    }

    #[test]
    fn proxy_unknown_endpoint_is_404_json() {
        let daemon =
            ProxyDaemon::start(r#"{"video_id":"x"}"#.into(), SimDuration::from_millis(1)).unwrap();
        let mut stream = TcpStream::connect(daemon.addr).unwrap();
        let req = Request::get("/totally/else").header("Host", "www.youtube.com");
        stream.write_all(&encode_request(&req)).unwrap();
        let resp = read_response(&mut stream);
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
        let v = msim_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            v.get("target").and_then(msim_json::Value::as_str),
            Some("/totally/else")
        );
    }

    #[test]
    fn proxy_malformed_request_gets_400_not_a_drop() {
        let daemon =
            ProxyDaemon::start(r#"{"video_id":"x"}"#.into(), SimDuration::from_millis(1)).unwrap();
        let mut stream = TcpStream::connect(daemon.addr).unwrap();
        stream
            .write_all(b"BREW /coffee HTCPCP/1.0\r\n\r\n")
            .unwrap();
        let resp = read_response(&mut stream);
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        let v = msim_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(
            v.get("error").and_then(msim_json::Value::as_str),
            Some("malformed request")
        );
    }

    #[test]
    fn rtt_shaping_delays_response() {
        let file = test_file(1000);
        let shape = LinkShape {
            rate: msim_core::units::BitRate::mbps(400.0),
            rtt: SimDuration::from_millis(60),
        };
        let server = VideoFileServer::start(file, shape).unwrap();
        let start = std::time::Instant::now();
        let _ = fetch_range(server.addr, 0, 100);
        let took = start.elapsed();
        assert!(
            took >= std::time::Duration::from_millis(55),
            "took {took:?}"
        );
    }
}
