//! HTTP/1.1 request and response types with case-insensitive headers.
//!
//! These are shared by the simulator (which moves messages as values) and
//! the real-socket testbed (which serialises them with [`crate::wire`]).

use std::fmt;

/// The request methods the system uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// `GET` — video info and range requests.
    Get,
    /// `HEAD` — size probes.
    Head,
    /// `POST` — OAuth-style token exchange.
    Post,
}

impl Method {
    /// Canonical token.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Post => "POST",
        }
    }

    /// Parses a token.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "HEAD" => Some(Method::Head),
            "POST" => Some(Method::Post),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// HTTP status codes used by the emulated YouTube service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK
    pub const OK: StatusCode = StatusCode(200);
    /// 206 Partial Content (every range response)
    pub const PARTIAL_CONTENT: StatusCode = StatusCode(206);
    /// 302 Found (server redirection during failover)
    pub const FOUND: StatusCode = StatusCode(302);
    /// 400 Bad Request
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 403 Forbidden (expired / invalid access token)
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// 404 Not Found
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 416 Range Not Satisfiable
    pub const RANGE_NOT_SATISFIABLE: StatusCode = StatusCode(416);
    /// 500 Internal Server Error (failed server)
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);
    /// 503 Service Unavailable (overloaded server)
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// The standard reason phrase.
    pub fn reason(&self) -> &'static str {
        match self.0 {
            200 => "OK",
            206 => "Partial Content",
            302 => "Found",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            416 => "Range Not Satisfiable",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// An ordered multimap of headers with case-insensitive lookup.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// Creates an empty header set.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Appends a header (duplicates allowed, order preserved).
    pub fn insert(&mut self, name: &str, value: impl Into<String>) {
        self.entries.push((name.to_string(), value.into()));
    }

    /// First value for `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// All `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no headers are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parses `Content-Length`, if present and well-formed.
    pub fn content_length(&self) -> Option<u64> {
        self.get("content-length")
            .and_then(|v| v.trim().parse().ok())
    }
}

/// An HTTP/1.1 request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target (origin-form, e.g. `/videoplayback?...`).
    pub target: String,
    /// Header fields.
    pub headers: Headers,
    /// Body (empty for GET/HEAD).
    pub body: Vec<u8>,
}

impl Request {
    /// Builds a GET request for `target`.
    pub fn get(target: impl Into<String>) -> Request {
        Request {
            method: Method::Get,
            target: target.into(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// Adds a header (builder style).
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Request {
        self.headers.insert(name, value);
        self
    }

    /// Adds a `Range` header from a [`crate::range::ByteRange`].
    pub fn with_range(self, range: crate::range::ByteRange) -> Request {
        self.header("Range", range.to_header_value())
    }

    /// The parsed `Range` header, if present.
    pub fn range(&self) -> Option<Result<crate::range::ByteRange, crate::range::RangeError>> {
        self.headers
            .get("range")
            .map(crate::range::ByteRange::parse_header_value)
    }

    /// The `Host` header.
    pub fn host(&self) -> Option<&str> {
        self.headers.get("host")
    }

    /// The path part of the target (before `?`).
    pub fn path(&self) -> &str {
        self.target
            .split_once('?')
            .map_or(self.target.as_str(), |(p, _)| p)
    }
}

/// An HTTP/1.1 response.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Header fields.
    pub headers: Headers,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// Builds a response with a body and a correct `Content-Length`.
    pub fn new(status: StatusCode, body: impl Into<Vec<u8>>) -> Response {
        let body = body.into();
        let mut headers = Headers::new();
        headers.insert("Content-Length", body.len().to_string());
        Response {
            status,
            headers,
            body,
        }
    }

    /// 200 response with a JSON body and content type.
    pub fn json(body: impl Into<Vec<u8>>) -> Response {
        Response::new(StatusCode::OK, body)
            .header("Content-Type", "application/json; charset=utf-8")
    }

    /// 206 response carrying `body` for `range` of a `total`-byte resource.
    pub fn partial_content(
        body: impl Into<Vec<u8>>,
        range: crate::range::ByteRange,
        total: u64,
    ) -> Response {
        Response::new(StatusCode::PARTIAL_CONTENT, body)
            .header("Content-Range", range.to_content_range(total))
            .header("Accept-Ranges", "bytes")
    }

    /// A response with `status` and a JSON error body of the shape
    /// `{"error": "...", "target": "..."}` — the uniform reply the
    /// testbed-side servers use for unknown endpoints and malformed
    /// requests (instead of silently dropping the connection).
    pub fn json_error(status: StatusCode, error: &str, target: &str) -> Response {
        let body = format!(
            "{{\"error\":\"{}\",\"target\":\"{}\"}}",
            json_escape(error),
            json_escape(target)
        );
        Response::new(status, body.into_bytes())
            .header("Content-Type", "application/json; charset=utf-8")
    }

    /// 404 with a JSON error body naming the unknown `target`.
    pub fn not_found_json(target: &str) -> Response {
        Response::json_error(StatusCode::NOT_FOUND, "unknown endpoint", target)
    }

    /// Adds a header (builder style).
    pub fn header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.insert(name, value);
        self
    }

    /// The parsed `Content-Range` header.
    pub fn content_range(
        &self,
    ) -> Option<Result<(crate::range::ByteRange, u64), crate::range::RangeError>> {
        self.headers
            .get("content-range")
            .map(crate::range::ByteRange::parse_content_range)
    }
}

/// Minimal JSON string escaping for the error bodies built above.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::ByteRange;

    #[test]
    fn header_lookup_is_case_insensitive() {
        let mut h = Headers::new();
        h.insert("Content-Length", "42");
        assert_eq!(h.get("content-length"), Some("42"));
        assert_eq!(h.get("CONTENT-LENGTH"), Some("42"));
        assert_eq!(h.content_length(), Some(42));
    }

    #[test]
    fn duplicate_headers_first_wins_on_get() {
        let mut h = Headers::new();
        h.insert("X-A", "1");
        h.insert("x-a", "2");
        assert_eq!(h.get("X-A"), Some("1"));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn request_builders() {
        let req = Request::get("/watch?v=qjT4T2gU9sM&fmt=22")
            .header("Host", "www.youtube.com")
            .with_range(ByteRange::from_offset_len(0, 65_536));
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.host(), Some("www.youtube.com"));
        assert_eq!(req.path(), "/watch");
        let r = req.range().unwrap().unwrap();
        assert_eq!(r.len(), 65_536);
    }

    #[test]
    fn response_builders() {
        let body = vec![0u8; 1024];
        let resp = Response::partial_content(body, ByteRange::from_offset_len(0, 1024), 4096);
        assert_eq!(resp.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(resp.headers.content_length(), Some(1024));
        let (range, total) = resp.content_range().unwrap().unwrap();
        assert_eq!(range.len(), 1024);
        assert_eq!(total, 4096);
    }

    #[test]
    fn status_displays_code_and_reason() {
        assert_eq!(
            StatusCode::PARTIAL_CONTENT.to_string(),
            "206 Partial Content"
        );
    }

    #[test]
    fn json_error_bodies_are_wellformed() {
        let resp = Response::not_found_json("/nope?q=\"x\"\n");
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
        assert_eq!(
            resp.headers.get("content-type"),
            Some("application/json; charset=utf-8")
        );
        let body = std::str::from_utf8(&resp.body).unwrap();
        assert_eq!(
            body,
            "{\"error\":\"unknown endpoint\",\"target\":\"/nope?q=\\\"x\\\"\\n\"}"
        );
        assert_eq!(resp.headers.content_length(), Some(body.len() as u64));
    }

    #[test]
    fn method_parse_roundtrip() {
        for m in [Method::Get, Method::Head, Method::Post] {
            assert_eq!(Method::parse(m.as_str()), Some(m));
        }
        assert_eq!(Method::parse("BREW"), None);
    }
}
