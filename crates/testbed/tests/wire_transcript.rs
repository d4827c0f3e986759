//! The three HTTP servers' answers, byte for byte.
//!
//! One fixed script of requests goes to the video file server, the proxy
//! daemon and the observability server, each request on a connection of
//! its own that the client half-closes after writing. Everything a server
//! writes until it closes is compared with `wire_transcript.txt`
//! (`escape_ascii` rendering, one block per request). `/metrics` is not in
//! the script: its body depends on the process-wide registry.

use msim_core::time::SimDuration;
use msim_core::units::BitRate;
use msim_testbed::{LinkShape, ObsServer, ProxyDaemon, VideoFileServer};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const SCRIPT: [&str; 9] = [
    "GET /videoplayback?id=t HTTP/1.1\r\nHost: testbed\r\nRange: bytes=100-163\r\n\r\n",
    "GET /videoplayback?id=t HTTP/1.1\r\nHost: testbed\r\n\r\n",
    "GET /videoplayback?id=t HTTP/1.1\r\nHost: testbed\r\nRange: bytes=5000-5099\r\n\r\n",
    "GET /videoplayback?id=t HTTP/1.1\r\nHost: testbed\r\nRange: bytes=abc\r\n\r\n",
    "GET /nope?x=\"1\" HTTP/1.1\r\nHost: testbed\r\n\r\n",
    "BREW /coffee HTCPCP/1.0\r\n\r\n",
    "GET /watch?v=qjT4T2gU9sM HTTP/1.1\r\nHost: www.youtube.com\r\n\r\n",
    "GET /healthz HTTP/1.1\r\nHost: obs\r\n\r\n",
    "GET /jobs HTTP/1.1\r\nHost: obs\r\n\r\n",
];

/// Writes `request` on a fresh connection, half-closes it, and returns
/// every byte the server sends before closing.
fn exchange(addr: SocketAddr, request: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut answer = Vec::new();
    stream.read_to_end(&mut answer).unwrap();
    answer
}

fn transcript(server: &str, addr: SocketAddr, out: &mut String) {
    for request in SCRIPT {
        let answer = exchange(addr, request);
        out.push_str(&format!("== {server} <- {}\n", request.escape_debug()));
        out.push_str(&format!("{}\n", answer.escape_ascii()));
    }
}

#[test]
fn video_proxy_and_obs_answer_the_script_byte_for_byte() {
    let file = Arc::new((0..256u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let shape = LinkShape {
        rate: BitRate::mbps(400.0),
        rtt: SimDuration::from_millis(1),
    };
    let video = VideoFileServer::start(file, shape).unwrap();
    let proxy = ProxyDaemon::start(
        r#"{"video_id":"qjT4T2gU9sM","servers":[]}"#.into(),
        SimDuration::from_millis(1),
    )
    .unwrap();
    let obs = ObsServer::start("127.0.0.1:0", ObsServer::no_jobs()).unwrap();

    let mut got = String::new();
    transcript("video", video.addr, &mut got);
    transcript("proxy", proxy.addr, &mut got);
    transcript("obs", obs.addr, &mut got);
    let want = include_str!("wire_transcript.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "transcript line {} differs", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
}
