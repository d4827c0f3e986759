//! Web proxy servers and the JSON video-information objects they return.
//!
//! Paper §3.1/§4: the player's watch request goes to a web proxy server,
//! which authenticates the user (OAuth 2.0), resolves the client's public
//! IP, selects suitable video servers, mints an access token, and returns
//! everything "in JavaScript Object Notation (JSON) format". MSPlayer does
//! this *once per interface*, getting per-network server lists.

use crate::server::VideoServer;
use crate::token::AccessToken;
use crate::video::Video;
use msim_core::time::SimDuration;
use msim_http::tls;
use msim_json::Value;
use std::fmt;

/// OAuth verification delay a proxy adds before the JSON is produced.
pub const OAUTH_DELAY: SimDuration = SimDuration::from_millis(6);

/// Total control-plane latency of a web proxy ("www.youtube.com" front
/// end) from SYN to complete JSON on a path with round-trip time `rtt`:
/// ψ(R) plus [`OAUTH_DELAY`].
pub fn json_ready_after(rtt: SimDuration) -> SimDuration {
    tls::psi(rtt) + OAUTH_DELAY
}

/// Builds the JSON video-information object the proxy returns.
///
/// `servers` must already be the selection for the client's network,
/// preference-ordered. `enciphered_sig` is present for copyrighted videos.
pub fn build_video_info(
    video: &Video,
    formats: &[crate::format::VideoFormat],
    servers: &[&VideoServer],
    token: &AccessToken,
    user_ip: &str,
    enciphered_sig: Option<&str>,
) -> Value {
    let fmt_values: Vec<Value> = formats
        .iter()
        .map(|f| {
            Value::object()
                .with("itag", f.itag as u64)
                .with("quality", f.quality_label)
                .with("container", f.container.to_string())
                .with("bitrate_bps", f.bitrate.as_bps().round())
                .with("size_bytes", f.size_for(video.duration).as_u64())
        })
        .collect();
    let server_values: Vec<Value> = servers
        .iter()
        .map(|s| {
            Value::object()
                .with("domain", s.domain.as_str())
                .with("addr", s.addr.to_string())
        })
        .collect();
    let mut root = Value::object()
        .with("video_id", video.id.as_str())
        .with("title", video.title.as_str())
        .with("author", video.author.as_str())
        .with("duration_secs", video.duration.as_secs_f64())
        .with("user_ip", user_ip)
        .with("copyrighted", video.copyrighted)
        .with("token", token.to_wire())
        .with("formats", Value::Array(fmt_values))
        .with("servers", Value::Array(server_values));
    if let Some(sig) = enciphered_sig {
        root = root.with("sig", sig);
    }
    root
}

/// A format entry decoded from the JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct InfoFormat {
    /// itag number.
    pub itag: u32,
    /// Quality label (e.g. "720p").
    pub quality: String,
    /// Total file size for this format.
    pub size_bytes: u64,
    /// Encoding bitrate in bits/s.
    pub bitrate_bps: f64,
}

/// The decoded video information (what the player's JSON decode step
/// produces, §4: "MSPlayer then decodes the JSON objects received on each
/// interface and synthesizes a new URL").
#[derive(Clone, Debug, PartialEq)]
pub struct VideoInfo {
    /// Video identifier string.
    pub video_id: String,
    /// Title.
    pub title: String,
    /// Uploader.
    pub author: String,
    /// Duration in seconds.
    pub duration_secs: f64,
    /// The client's public IP as seen by the proxy.
    pub user_ip: String,
    /// Whether a signature decipher step is required.
    pub copyrighted: bool,
    /// Access token wire form.
    pub token: String,
    /// Available formats.
    pub formats: Vec<InfoFormat>,
    /// Video server domains in this network, preference-ordered.
    pub server_domains: Vec<String>,
    /// Enciphered signature (copyrighted videos only).
    pub enciphered_sig: Option<String>,
}

impl VideoInfo {
    /// The format entry for `itag`, if offered.
    pub fn format(&self, itag: u32) -> Option<&InfoFormat> {
        self.formats.iter().find(|f| f.itag == itag)
    }

    /// Synthesizes the video URL for `itag` against the preferred server
    /// (paper §4: URL carries the required info, server address and token).
    pub fn synthesize_url(&self, itag: u32, signature: Option<&str>) -> Option<String> {
        let domain = self.server_domains.first()?;
        let mut url = format!(
            "https://{}/videoplayback?id={}&itag={}&token={}",
            domain, self.video_id, itag, self.token
        );
        if let Some(sig) = signature {
            url.push_str("&signature=");
            url.push_str(sig);
        }
        Some(url)
    }
}

/// Errors decoding a video-information JSON object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InfoError(pub String);

impl fmt::Display for InfoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad video info JSON: {}", self.0)
    }
}

impl std::error::Error for InfoError {}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, InfoError> {
    v.get(key)
        .ok_or_else(|| InfoError(format!("missing {key}")))
}

/// Decodes a video-information object (inverse of [`build_video_info`]).
pub fn parse_video_info(v: &Value) -> Result<VideoInfo, InfoError> {
    let str_field = |key: &str| -> Result<String, InfoError> {
        field(v, key)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| InfoError(format!("{key} not a string")))
    };
    let formats_raw = field(v, "formats")?
        .as_array()
        .ok_or_else(|| InfoError("formats not an array".into()))?;
    let mut formats = Vec::with_capacity(formats_raw.len());
    for f in formats_raw {
        formats.push(InfoFormat {
            itag: f
                .get("itag")
                .and_then(Value::as_u64)
                .ok_or_else(|| InfoError("format.itag".into()))? as u32,
            quality: f
                .get("quality")
                .and_then(Value::as_str)
                .ok_or_else(|| InfoError("format.quality".into()))?
                .to_string(),
            size_bytes: f
                .get("size_bytes")
                .and_then(Value::as_u64)
                .ok_or_else(|| InfoError("format.size_bytes".into()))?,
            bitrate_bps: f
                .get("bitrate_bps")
                .and_then(Value::as_f64)
                .ok_or_else(|| InfoError("format.bitrate_bps".into()))?,
        });
    }
    let servers_raw = field(v, "servers")?
        .as_array()
        .ok_or_else(|| InfoError("servers not an array".into()))?;
    let server_domains = servers_raw
        .iter()
        .map(|s| {
            s.get("domain")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| InfoError("server.domain".into()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if server_domains.is_empty() {
        return Err(InfoError("empty server list".into()));
    }
    Ok(VideoInfo {
        video_id: str_field("video_id")?,
        title: str_field("title")?,
        author: str_field("author")?,
        duration_secs: field(v, "duration_secs")?
            .as_f64()
            .ok_or_else(|| InfoError("duration_secs".into()))?,
        user_ip: str_field("user_ip")?,
        copyrighted: field(v, "copyrighted")?
            .as_bool()
            .ok_or_else(|| InfoError("copyrighted".into()))?,
        token: str_field("token")?,
        formats,
        server_domains,
        enciphered_sig: v.get("sig").and_then(Value::as_str).map(str::to_string),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns::Network;
    use crate::format::ITAGS;
    use crate::server::{ServerId, VideoServer};
    use crate::token::Operations;
    use crate::video::VideoId;
    use msim_core::time::SimTime;
    use std::net::Ipv4Addr;

    fn fixture() -> (Value, AccessToken) {
        let id = VideoId::new("qjT4T2gU9sM").unwrap();
        let video = Video::new(id, "Test", "chan", SimDuration::from_secs(300), true);
        let s1 = VideoServer::new(
            ServerId(1),
            "r1.wifi.youtube-video.example",
            Ipv4Addr::new(128, 119, 40, 1),
            Network::Wifi,
        );
        let s2 = VideoServer::new(
            ServerId(2),
            "r2.wifi.youtube-video.example",
            Ipv4Addr::new(128, 119, 40, 2),
            Network::Wifi,
        );
        let token = AccessToken::issue(9, id, "203.0.113.7", Operations::STREAM, SimTime::ZERO);
        let json = build_video_info(
            &video,
            ITAGS,
            &[&s1, &s2],
            &token,
            "203.0.113.7",
            Some("ENCIPHERED"),
        );
        (json, token)
    }

    #[test]
    fn json_roundtrips_through_text() {
        let (json, _) = fixture();
        let text = msim_json::to_string(&json);
        let parsed = msim_json::from_str(&text).unwrap();
        assert_eq!(parsed, json);
    }

    #[test]
    fn parse_extracts_everything() {
        let (json, token) = fixture();
        let info = parse_video_info(&json).unwrap();
        assert_eq!(info.video_id, "qjT4T2gU9sM");
        assert_eq!(info.server_domains.len(), 2);
        assert_eq!(info.formats.len(), ITAGS.len());
        assert!(info.copyrighted);
        assert_eq!(info.enciphered_sig.as_deref(), Some("ENCIPHERED"));
        assert_eq!(info.token, token.to_wire());
        let f22 = info.format(22).unwrap();
        assert_eq!(f22.quality, "720p");
        // 300 s at 2.5 Mbit/s.
        assert_eq!(f22.size_bytes, 93_750_000);
    }

    #[test]
    fn synthesized_url_contains_token_and_sig() {
        let (json, token) = fixture();
        let info = parse_video_info(&json).unwrap();
        let url = info.synthesize_url(22, Some("SIGDEC")).unwrap();
        assert!(url.starts_with("https://r1.wifi.youtube-video.example/videoplayback?"));
        assert!(url.contains("itag=22"));
        assert!(url.contains(&format!("token={}", token.to_wire())));
        assert!(url.ends_with("&signature=SIGDEC"));
    }

    #[test]
    fn parse_rejects_missing_fields() {
        let (json, _) = fixture();
        let Value::Object(mut map) = json else {
            panic!()
        };
        map.remove("token");
        let err = parse_video_info(&Value::Object(map)).unwrap_err();
        assert!(err.0.contains("token"), "{err}");
    }

    #[test]
    fn parse_rejects_empty_server_list() {
        let (json, _) = fixture();
        let Value::Object(mut map) = json else {
            panic!()
        };
        map.insert("servers", Value::Array(vec![]));
        assert!(parse_video_info(&Value::Object(map)).is_err());
    }

    #[test]
    fn proxy_latency_composition() {
        assert_eq!(OAUTH_DELAY, SimDuration::from_millis(6));
        let rtt = SimDuration::from_millis(30);
        let total = json_ready_after(rtt);
        assert_eq!(total, tls::psi(rtt) + OAUTH_DELAY);
        // ψ(30 ms) = 6R + Δ₁ + Δ₂ = 187 ms, plus 6 ms of OAuth.
        assert_eq!(total, SimDuration::from_millis(193));
    }
}
