//! # msim-core — deterministic discrete-event simulation substrate
//!
//! Foundation crate for the MSPlayer (CoNEXT 2014) reproduction. It provides
//! the pieces every other crate builds on:
//!
//! * [`time`] — integer-microsecond simulated clock ([`SimTime`],
//!   [`SimDuration`]);
//! * [`event`] — a deterministic FIFO-tie-broken event queue;
//! * [`rng`] — a splittable PCG PRNG so every stochastic component owns an
//!   independent, reproducible stream;
//! * [`process`] — the three parts of a link's rate (Ornstein–Uhlenbeck
//!   level, Pareto bursts, Markov congestion);
//! * [`stats`] — medians, boxplot summaries, `mean ± std`, harmonic mean;
//! * [`units`] — byte sizes (`64 KB`, `1 MB`, …) and bit rates;
//! * [`report`] — aligned tables, ASCII boxplots/bar charts, CSV export for
//!   regenerating the paper's figures;
//! * [`telemetry`] — a deterministic, zero-dependency observability layer
//!   (metrics registry, phase spans, NDJSON trace exporter, Prometheus
//!   text exposition) that is compiled to nothing when the default
//!   `telemetry` feature is off and provably non-perturbing when on.
//!
//! Everything in this workspace is deterministic given a single `u64` seed;
//! no wall-clock time or OS randomness is consulted anywhere in the
//! simulation path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod process;
pub mod report;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod units;
pub mod vmath;

pub use event::{EventId, EventQueue};
pub use rng::Prng;
pub use time::{SimDuration, SimTime};
pub use units::{BitRate, ByteSize, KB, MB};
