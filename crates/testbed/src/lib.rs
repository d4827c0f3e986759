//! # msim-testbed — the real-socket loopback testbed
//!
//! The §5 evaluation ran MSPlayer against actual Apache servers over real
//! WiFi/LTE links. This crate rebuilds that testbed on loopback TCP:
//!
//! * [`shaper`] — token-bucket pacing + RTT delay emulating link shapes;
//! * [`server`] — a threaded HTTP/1.1 range server ("Apache") with
//!   keep-alive, failure injection and byte-exact range semantics, plus a
//!   web-proxy daemon serving the JSON video information;
//! * [`driver`] — the socket driver running the *same* sans-I/O
//!   [`msplayer_core::player::Player`] the simulator uses, with one blocking
//!   worker thread per path (mirroring the original player's threads) that
//!   takes the player's actions and answers with its events;
//! * [`harness`] — one-call setup: shaped servers + proxies + session;
//! * [`obs`] — a live `/metrics` + `/jobs` + `/healthz` HTTP endpoint
//!   exposing the in-process [`msim_core::telemetry`] registry;
//! * [`lines`] — the distributed sweep service's line-framed transport:
//!   reader threads, flushed line writers and [`LineServer`], which hands
//!   accepted TCP peers to the coordinator;
//! * [`signal`] — the SIGINT/SIGTERM shutdown flag the long-running
//!   binaries poll to flush artifacts before exiting.
//!
//! Every server ([`VideoFileServer`], [`ProxyDaemon`], [`ObsServer`],
//! [`LineServer`]) stands on one private listener (bind, nonblocking accept
//! poll, stop flag, a thread per connection, join on drop), and the three
//! HTTP servers share one keep-alive connection loop, each supplying only
//! its answers.
//!
//! The point of this crate is the sans-I/O proof: every scheduler decision
//! exercised by the deterministic simulator also runs against real sockets
//! moving real bytes.

// `deny` rather than `forbid`: the [`signal`] module carries the
// workspace's single FFI call (signal-handler registration has no std
// API) under a scoped `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod harness;
pub mod lines;
pub mod obs;
pub mod server;
pub mod shaper;
pub mod signal;
mod socket;

pub use driver::{run_testbed_session, TestbedSession};
pub use harness::Testbed;
pub use lines::{spawn_line_reader, LineEvent, LineServer, LineWriter};
pub use obs::{JobsProvider, ObsServer};
pub use server::{ProxyDaemon, VideoFileServer};
pub use shaper::{LinkShape, TokenBucket};
pub use signal::{install_shutdown_handler, request_shutdown, shutdown_requested};
