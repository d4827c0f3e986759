//! # msplayer — reproduction of *MSPlayer: Multi-Source and multi-Path
//! LeverAged YoutubER* (CoNEXT 2014)
//!
//! This meta-crate re-exports every workspace crate under one roof so the
//! repository-level examples and integration tests exercise the complete
//! public API with a single dependency:
//!
//! * [`core`] ([`msplayer_core`]) — the paper's contribution: bandwidth
//!   estimators, chunk schedulers, playout buffer, the sans-I/O player, and
//!   the deterministic session driver;
//! * [`net`] ([`msim_net`]) — stochastic links, round-based TCP with CUBIC,
//!   path profiles, mobility, middleboxes;
//! * [`youtube`] ([`msim_youtube`]) — the emulated YouTube control plane
//!   (DNS views, proxies, tokens, signature cipher, video servers);
//! * [`http`] ([`msim_http`]) — HTTP/1.1 messages, ranges, wire codec, and
//!   the Fig. 1 TLS timing model;
//! * [`json`] ([`msim_json`]) — minimal JSON;
//! * [`simcore`] ([`msim_core`]) — event queue, RNG, stochastic processes,
//!   statistics, reporting;
//! * [`testbed`] ([`msim_testbed`]) — the real-socket loopback testbed.
//!
//! ## Quickstart
//!
//! ```
//! use msplayer::core::config::PlayerConfig;
//! use msplayer::core::sim::{PathSetup, ServiceSpec, SessionHost, SessionSpec};
//!
//! let cfg = PlayerConfig::msplayer().with_prebuffer_secs(10.0);
//! let spec = SessionSpec::new(7, PathSetup::testbed_pair(), cfg);
//! let mut host = SessionHost::new(ServiceSpec::testbed());
//! let metrics = host.run(&spec).expect("valid spec");
//! assert!(metrics.prebuffer_time().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use msim_core as simcore;
pub use msim_http as http;
pub use msim_json as json;
pub use msim_net as net;
pub use msim_testbed as testbed;
pub use msim_youtube as youtube;
pub use msplayer_core as core;
