//! # msim-net — simulated access networks for the MSPlayer reproduction
//!
//! The paper's client reaches two *different* networks at once: a home WiFi
//! attachment and a commercial LTE attachment (§5), each carrying legacy TCP
//! to servers in that network. This crate provides those substrates:
//!
//! * [`link`] — a stochastic access link (time-varying available bandwidth,
//!   jittered RTT, random loss, outages);
//! * [`tcp`] — a deterministic round-based TCP connection model with IW10
//!   slow start, CUBIC congestion avoidance ([`cubic`]), slow-start restart
//!   after idle, persistent-connection window reuse, and optional
//!   server-side pacing (Trickle-style, the paper's \[12\]), executed by
//!   one per-RTT round loop;
//! * [`profile`] — calibrated WiFi/LTE path recipes for the §5 emulated
//!   testbed and the §6 production-YouTube environment;
//! * [`mobility`] — outage schedules for the mobility/robustness scenarios;
//! * [`middlebox`] — the MPTCP option-stripping motivation model (§2).
//!
//! Everything is deterministic given a seed and independent across paths, so
//! scheduler comparisons are noise-controlled: all schedulers face the exact
//! same bandwidth sample paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cubic;
pub mod link;
pub mod middlebox;
pub mod mobility;
pub mod profile;
pub mod tcp;

pub use cubic::Cubic;
pub use link::Link;
pub use mobility::OutageSchedule;
pub use profile::PathProfile;
pub use tcp::{TcpConfig, TcpConnection, TransferOutcome, TransferResult, TransferStats};
