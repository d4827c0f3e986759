//! # msim-youtube — the emulated YouTube service
//!
//! Rebuilds, message-for-message, the control plane the paper's player
//! interacts with (§3.1, §4) and the §5 testbed topology:
//!
//! * [`video`] / `format` / [`catalog`] — 11-char video IDs, the
//!   circa-2014 itag table (the paper's HD 720p = itag 22), and the video
//!   catalog;
//! * [`dns`] — per-network DNS views: resolving a name over WiFi returns the
//!   WiFi-side replicas, over LTE the cellular-side ones (source diversity);
//! * [`token`] — one-hour access tokens bound to video, client IP and
//!   operations;
//! * [`sig`] — the signature cipher for copyrighted videos plus the decoder
//!   "page" the player must fetch (paper footnote 1);
//! * [`proxy`] — web proxy servers and the JSON video-information objects;
//! * [`server`] — video servers with failure injection, overload and
//!   Trickle-style pacing;
//! * [`service`] — the assembled façade used by player drivers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod dns;
pub mod format;
pub mod proxy;
pub mod server;
pub mod service;
pub mod sig;
pub mod token;
pub mod video;

pub use catalog::Catalog;
pub use dns::{DnsAnswer, DnsError, DnsResolver, DnsZone, Network};
pub use format::{by_itag, hd_720p, Container, VideoFormat, ITAGS};
pub use proxy::{build_video_info, parse_video_info, InfoError, VideoInfo};
pub use server::{FailurePlan, PacePolicy, ServerId, VideoServer};
pub use service::{ServiceConfig, YoutubeService, PROXY_DOMAIN};
pub use sig::{CipherError, CipherOp, DecoderScript, SignatureCipher};
pub use token::{AccessToken, Operations, TokenError, TOKEN_TTL};
pub use video::{Video, VideoId, VideoIdError};
