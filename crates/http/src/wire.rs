//! HTTP/1.1 wire codec: serialisation and an incremental parser.
//!
//! Used by the real-socket testbed (`msim-testbed`), where actual bytes move
//! over loopback TCP. The parser is incremental: feed it bytes as they
//! arrive; it reports `NeedMore` until a full head (and body, per
//! `Content-Length`) is available. Only the framing the system needs is
//! implemented: `Content-Length` bodies (YouTube range responses always know
//! their length) — no chunked transfer encoding.

use crate::message::{Headers, Method, Request, Response, StatusCode};
use std::fmt;

/// Maximum accepted head (request/status line + headers) size.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted body size (a guard; chunk sizes are ≤ a few MB).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// Wire-level decode errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Head exceeded [`MAX_HEAD_BYTES`] without terminating.
    HeadTooLarge,
    /// Body length exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge(u64),
    /// Malformed start line or header.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::HeadTooLarge => write!(f, "message head exceeds {MAX_HEAD_BYTES} bytes"),
            WireError::BodyTooLarge(n) => write!(f, "declared body of {n} bytes is too large"),
            WireError::Malformed(s) => write!(f, "malformed HTTP message: {s}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Serialises a request into wire bytes.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 + req.body.len());
    encode_request_into(req, &mut out);
    out
}

/// Serialises a request into `out` (cleared first). Callers with a hot
/// request loop hold one buffer and reuse its capacity across requests
/// instead of allocating per message.
pub fn encode_request_into(req: &Request, out: &mut Vec<u8>) {
    use std::io::Write as _;
    out.clear();
    out.extend_from_slice(req.method.as_str().as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    let mut has_len = false;
    for (name, value) in req.headers.iter() {
        if name.eq_ignore_ascii_case("content-length") {
            has_len = true;
        }
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if !req.body.is_empty() && !has_len {
        write!(out, "Content-Length: {}\r\n", req.body.len()).expect("Vec write");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&req.body);
}

/// Serialises a response into wire bytes.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 + resp.body.len());
    encode_response_into(resp, &mut out);
    out
}

/// Serialises a response into `out` (cleared first); the reusable-buffer
/// counterpart of [`encode_response`].
pub fn encode_response_into(resp: &Response, out: &mut Vec<u8>) {
    use std::io::Write as _;
    out.clear();
    write!(
        out,
        "HTTP/1.1 {} {}\r\n",
        resp.status.0,
        resp.status.reason()
    )
    .expect("Vec write");
    let mut has_len = false;
    for (name, value) in resp.headers.iter() {
        if name.eq_ignore_ascii_case("content-length") {
            has_len = true;
        }
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if !has_len {
        write!(out, "Content-Length: {}\r\n", resp.body.len()).expect("Vec write");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&resp.body);
}

/// Outcome of a decode attempt over a byte buffer.
#[derive(Debug, PartialEq)]
pub enum Decoded<T> {
    /// A complete message was parsed; `consumed` bytes should be drained
    /// from the front of the buffer.
    Complete {
        /// The decoded message.
        message: T,
        /// How many bytes to drain from the buffer front.
        consumed: usize,
    },
    /// More bytes are needed.
    NeedMore,
}

/// Attempts to decode one request from the front of `buf`.
pub fn decode_request(buf: &[u8]) -> Result<Decoded<Request>, WireError> {
    let Some(head_end) = find_head_end(buf)? else {
        return Ok(Decoded::NeedMore);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| WireError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let start = lines.next().unwrap_or_default();
    let mut parts = start.split(' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or_else(|| WireError::Malformed(format!("bad method in {start:?}")))?;
    let target = parts
        .next()
        .ok_or_else(|| WireError::Malformed("missing target".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| WireError::Malformed("missing version".into()))?;
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(WireError::Malformed(format!(
            "unsupported version {version:?}"
        )));
    }
    let headers = parse_headers(lines)?;
    let body_len = headers.content_length().unwrap_or(0);
    finish_with_body(buf, head_end, headers, body_len, |headers, body| Request {
        method,
        target,
        headers,
        body,
    })
}

/// Attempts to decode one response from the front of `buf`.
pub fn decode_response(buf: &[u8]) -> Result<Decoded<Response>, WireError> {
    let Some(head_end) = find_head_end(buf)? else {
        return Ok(Decoded::NeedMore);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| WireError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let start = lines.next().unwrap_or_default();
    let mut parts = start.splitn(3, ' ');
    let version = parts
        .next()
        .ok_or_else(|| WireError::Malformed("missing version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(WireError::Malformed(format!("bad version {version:?}")));
    }
    let code: u16 = parts
        .next()
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| WireError::Malformed(format!("bad status in {start:?}")))?;
    let headers = parse_headers(lines)?;
    let body_len = headers.content_length().unwrap_or(0);
    finish_with_body(buf, head_end, headers, body_len, |headers, body| Response {
        status: StatusCode(code),
        headers,
        body,
    })
}

/// Finds the index just past `\r\n\r\n`, or `None` if incomplete.
fn find_head_end(buf: &[u8]) -> Result<Option<usize>, WireError> {
    if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
        return Ok(Some(pos + 4));
    }
    if buf.len() > MAX_HEAD_BYTES {
        return Err(WireError::HeadTooLarge);
    }
    Ok(None)
}

fn parse_headers<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Headers, WireError> {
    let mut headers = Headers::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| WireError::Malformed(format!("bad header line {line:?}")))?;
        headers.insert(name.trim(), value.trim().to_string());
    }
    Ok(headers)
}

fn finish_with_body<T>(
    buf: &[u8],
    head_end: usize,
    headers: Headers,
    body_len: u64,
    build: impl FnOnce(Headers, Vec<u8>) -> T,
) -> Result<Decoded<T>, WireError> {
    if body_len > MAX_BODY_BYTES as u64 {
        return Err(WireError::BodyTooLarge(body_len));
    }
    let body_len = body_len as usize;
    if buf.len() < head_end + body_len {
        return Ok(Decoded::NeedMore);
    }
    let body = buf[head_end..head_end + body_len].to_vec();
    Ok(Decoded::Complete {
        message: build(headers, body),
        consumed: head_end + body_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::ByteRange;

    #[test]
    fn request_roundtrip() {
        let req = Request::get("/videoplayback?id=abc&itag=22")
            .header("Host", "r3.example.net")
            .with_range(ByteRange::from_offset_len(0, 262_144));
        let wire = encode_request(&req);
        match decode_request(&wire).unwrap() {
            Decoded::Complete { message, consumed } => {
                assert_eq!(consumed, wire.len());
                assert_eq!(message, req);
            }
            Decoded::NeedMore => panic!("complete message reported incomplete"),
        }
    }

    #[test]
    fn response_roundtrip_with_body() {
        let body: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let resp = Response::partial_content(body, ByteRange::from_offset_len(0, 1000), 5000);
        let wire = encode_response(&resp);
        match decode_response(&wire).unwrap() {
            Decoded::Complete { message, consumed } => {
                assert_eq!(consumed, wire.len());
                assert_eq!(message.status, StatusCode::PARTIAL_CONTENT);
                assert_eq!(message.body.len(), 1000);
                assert_eq!(message.body, resp.body);
            }
            Decoded::NeedMore => panic!("incomplete"),
        }
    }

    #[test]
    fn incremental_parse_waits_for_body() {
        let resp = Response::new(StatusCode::OK, vec![7u8; 100]);
        let wire = encode_response(&resp);
        // Feed all prefixes: every strict prefix must be NeedMore.
        for cut in 0..wire.len() {
            match decode_response(&wire[..cut]) {
                Ok(Decoded::NeedMore) => {}
                other => panic!("prefix of {cut} bytes gave {other:?}"),
            }
        }
        assert!(matches!(
            decode_response(&wire).unwrap(),
            Decoded::Complete { .. }
        ));
    }

    #[test]
    fn pipelined_messages_consume_exactly_one() {
        let r1 = Response::new(StatusCode::OK, b"first".to_vec());
        let r2 = Response::new(StatusCode::OK, b"second!".to_vec());
        let mut wire = encode_response(&r1);
        wire.extend_from_slice(&encode_response(&r2));
        let Decoded::Complete { message, consumed } = decode_response(&wire).unwrap() else {
            panic!("incomplete");
        };
        assert_eq!(&message.body[..], b"first");
        let Decoded::Complete { message: m2, .. } = decode_response(&wire[consumed..]).unwrap()
        else {
            panic!("second incomplete");
        };
        assert_eq!(&m2.body[..], b"second!");
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(matches!(
            decode_request(b"BREW / HTTP/1.1\r\n\r\n"),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode_request(b"GET /\r\n\r\n"),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode_response(b"SIP/2.0 200 OK\r\n\r\n"),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode_request(b"GET / HTTP/1.1\r\nbadline\r\n\r\n"),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_head_rejected() {
        let mut buf = b"GET / HTTP/1.1\r\n".to_vec();
        buf.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert_eq!(decode_request(&buf), Err(WireError::HeadTooLarge));
    }

    #[test]
    fn oversized_body_rejected() {
        let wire = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES as u64 + 1
        );
        assert!(matches!(
            decode_response(wire.as_bytes()),
            Err(WireError::BodyTooLarge(_))
        ));
    }

    #[test]
    fn content_length_not_duplicated_by_encoder() {
        let resp = Response::new(StatusCode::OK, b"xyz".to_vec());
        let wire = encode_response(&resp);
        let text = String::from_utf8_lossy(&wire);
        assert_eq!(text.matches("Content-Length").count(), 1);
    }
}
