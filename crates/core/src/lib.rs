//! # msplayer-core — the paper's contribution
//!
//! A from-scratch implementation of **MSPlayer** (Chen, Towsley, Khalili —
//! CoNEXT 2014): client-side video streaming that aggregates two network
//! paths (WiFi + LTE) fetching from two CDN sources with plain HTTP range
//! requests over legacy TCP.
//!
//! * [`abr`] — closed-loop adaptive bitrate: pluggable policies that
//!   switch the streamed itag mid-session (shadow mode as the baseline);
//! * [`estimator`] — the bandwidth estimator: EWMA (Eq. 1) or incremental
//!   harmonic mean (Eq. 2);
//! * [`scheduler`] — the chunk scheduler: the Ratio baseline or Alg. 1 DCSA;
//! * [`chunk`] — the chunk ledger with the ≤1 out-of-order chunk rule;
//! * [`buffer`] — pre-buffering / ON-OFF re-buffering playout state machine
//!   (40 s / 10 s / 20 s defaults, §4);
//! * [`player`] — the sans-I/O player state machine shared by the simulator
//!   and the real-socket testbed;
//! * [`sim`] — the deterministic session driver behind every figure:
//!   [`sim::SessionHost`] runs one or a batch of N-path
//!   [`sim::SessionSpec`]s over one warmed service;
//! * [`metrics`] — startup delay, refills, stalls, per-path traffic splits
//!   (Table 1);
//! * [`chaos`] — composable seed-deterministic fault injectors
//!   ([`chaos::ChaosPlan`]) and the session invariant oracle
//!   ([`chaos::check_invariants`]).
//!
//! ## Quick start
//!
//! ```
//! use msplayer_core::config::PlayerConfig;
//! use msplayer_core::sim::{PathSetup, ServiceSpec, SessionHost, SessionSpec};
//!
//! let cfg = PlayerConfig::msplayer().with_prebuffer_secs(10.0);
//! let spec = SessionSpec::new(42, PathSetup::testbed_pair(), cfg);
//! let mut host = SessionHost::new(ServiceSpec::testbed());
//! let metrics = host.run(&spec).expect("valid spec");
//! println!("pre-buffer download time: {}", metrics.prebuffer_time().unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abr;
pub mod buffer;
pub mod chaos;
pub mod chunk;
pub mod config;
pub mod estimator;
pub mod fleet;
pub mod metrics;
pub mod player;
pub mod scheduler;
pub mod sim;
pub mod trace;

pub use abr::{AbrMode, AbrPolicy, AbrPolicyKind, RungMap, SwitchReason};
pub use buffer::{BufferPhase, PlayoutBuffer, RefillRecord};
pub use chaos::{
    check_fleet_invariants, check_invariants, ChaosInjector, ChaosPlan, ChaosState, Violation,
};
pub use chunk::{ChunkAssignment, ChunkLedger, PathId};
pub use config::{GammaRounding, PlayerConfig, SchedulerKind};
pub use estimator::{Estimator, HARMONIC_WINDOW};
pub use fleet::{
    pareto_frontier, AccessClass, FleetHost, FleetLoad, FleetLoadEntry, FleetMetrics, FleetMode,
    FleetServerSpec, FleetSpec, LoadBin, SelectionPolicy, ServerUsage,
};
pub use metrics::{AbrDecision, AbrQoe, AbrSwitch, ChunkRecord, SessionMetrics, TrafficPhase};
pub use player::{ChunkFailReason, Player, PlayerAction, PlayerEvent};
pub use scheduler::Scheduler;
pub use sim::{
    PathSetup, ServerFailure, ServiceSpec, Session, SessionHost, SessionSpec, SessionSpecError,
    StopCondition,
};
