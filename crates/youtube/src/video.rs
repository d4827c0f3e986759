//! Video identities and metadata.
//!
//! "Each YouTube video is identified by an 11-literal video ID after
//! `watch?v=` in the URL" (paper §3.1). IDs use the base64url alphabet.

use msim_core::time::SimDuration;
use std::fmt;

/// The 11-character video identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct VideoId([u8; 11]);

/// Errors constructing or parsing video IDs / watch URLs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VideoIdError {
    /// The ID is not exactly 11 characters.
    BadLength(usize),
    /// The ID contains a character outside `[A-Za-z0-9_-]`.
    BadCharacter(char),
    /// The URL does not look like a YouTube watch URL.
    NotAWatchUrl(String),
}

impl fmt::Display for VideoIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VideoIdError::BadLength(n) => write!(f, "video id must be 11 chars, got {n}"),
            VideoIdError::BadCharacter(c) => write!(f, "invalid video id character {c:?}"),
            VideoIdError::NotAWatchUrl(u) => write!(f, "not a watch URL: {u:?}"),
        }
    }
}

impl std::error::Error for VideoIdError {}

fn is_id_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'-' || c == b'_'
}

impl VideoId {
    /// Validates and wraps an 11-character ID.
    pub fn new(s: &str) -> Result<VideoId, VideoIdError> {
        let bytes = s.as_bytes();
        if bytes.len() != 11 {
            return Err(VideoIdError::BadLength(bytes.len()));
        }
        if let Some(&bad) = bytes.iter().find(|&&c| !is_id_char(c)) {
            return Err(VideoIdError::BadCharacter(bad as char));
        }
        let mut id = [0u8; 11];
        id.copy_from_slice(bytes);
        Ok(VideoId(id))
    }

    /// Extracts the ID from a watch URL of the form
    /// `http(s)://www.youtube.com/watch?v=<id>[&...]`.
    pub fn from_watch_url(url: &str) -> Result<VideoId, VideoIdError> {
        let rest = url
            .strip_prefix("https://")
            .or_else(|| url.strip_prefix("http://"))
            .ok_or_else(|| VideoIdError::NotAWatchUrl(url.to_string()))?;
        let rest = rest
            .strip_prefix("www.youtube.com/watch?")
            .or_else(|| rest.strip_prefix("youtube.com/watch?"))
            .ok_or_else(|| VideoIdError::NotAWatchUrl(url.to_string()))?;
        let v = rest
            .split('&')
            .find_map(|pair| pair.strip_prefix("v="))
            .ok_or_else(|| VideoIdError::NotAWatchUrl(url.to_string()))?;
        VideoId::new(v)
    }

    /// The ID as a string slice.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("validated ascii")
    }

    /// Generates a deterministic pseudo-random ID from an RNG stream.
    pub fn generate(rng: &mut msim_core::rng::Prng) -> VideoId {
        const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";
        let mut id = [0u8; 11];
        for slot in &mut id {
            *slot = ALPHABET[rng.below(64) as usize];
        }
        VideoId(id)
    }
}

impl fmt::Debug for VideoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VideoId({})", self.as_str())
    }
}

impl fmt::Display for VideoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Metadata for one catalogued video.
#[derive(Clone, Debug)]
pub struct Video {
    /// The 11-char identifier.
    pub id: VideoId,
    /// Display title.
    pub title: String,
    /// Uploader name.
    pub author: String,
    /// Playback duration.
    pub duration: SimDuration,
    /// Whether the video's signature is enciphered (paper footnote 1:
    /// copyrighted videos need an extra decoder fetch).
    pub copyrighted: bool,
}

impl Video {
    /// Builds a video record.
    pub fn new(
        id: VideoId,
        title: impl Into<String>,
        author: impl Into<String>,
        duration: SimDuration,
        copyrighted: bool,
    ) -> Video {
        Video {
            id,
            title: title.into(),
            author: author.into(),
            duration,
            copyrighted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msim_core::rng::Prng;

    #[test]
    fn accepts_the_papers_example_id() {
        // The paper's §3.1 example URL.
        let id = VideoId::new("qjT4T2gU9sM").unwrap();
        assert_eq!(id.as_str(), "qjT4T2gU9sM");
    }

    #[test]
    fn rejects_bad_lengths_and_chars() {
        assert_eq!(VideoId::new("short"), Err(VideoIdError::BadLength(5)));
        assert_eq!(
            VideoId::new("qjT4T2gU9sMx"),
            Err(VideoIdError::BadLength(12))
        );
        assert_eq!(
            VideoId::new("qjT4T2gU9s!"),
            Err(VideoIdError::BadCharacter('!'))
        );
    }

    #[test]
    fn parses_watch_urls() {
        for url in [
            "http://www.youtube.com/watch?v=qjT4T2gU9sM",
            "https://www.youtube.com/watch?v=qjT4T2gU9sM",
            "https://www.youtube.com/watch?v=qjT4T2gU9sM&t=42",
            "https://www.youtube.com/watch?list=PL123&v=qjT4T2gU9sM",
        ] {
            assert_eq!(
                VideoId::from_watch_url(url).unwrap().as_str(),
                "qjT4T2gU9sM",
                "url {url}"
            );
        }
    }

    #[test]
    fn rejects_non_watch_urls() {
        for url in [
            "ftp://www.youtube.com/watch?v=qjT4T2gU9sM",
            "http://vimeo.com/watch?v=qjT4T2gU9sM",
            "http://www.youtube.com/embed/qjT4T2gU9sM",
            "http://www.youtube.com/watch?t=5",
        ] {
            assert!(VideoId::from_watch_url(url).is_err(), "url {url}");
        }
    }

    #[test]
    fn generated_ids_are_valid_and_deterministic() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..100 {
            let ida = VideoId::generate(&mut a);
            let idb = VideoId::generate(&mut b);
            assert_eq!(ida, idb);
            assert!(VideoId::new(ida.as_str()).is_ok());
        }
    }
}
