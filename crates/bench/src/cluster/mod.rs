//! The fault-tolerant distributed sweep service.
//!
//! The paper's evaluation grid (Figs. 3–5, Table 1) is embarrassingly
//! parallel at the cell level, and the in-process sweep engine
//! ([`crate::sweep`]) already proves parallel == serial bit-for-bit on
//! one machine. This module scales that guarantee across *processes and
//! hosts that fail*: a coordinator shards a [`SweepManifest`] across
//! worker processes with leases, heartbeats, capped-backoff retries,
//! speculative re-execution, and an append-only checkpoint — and the
//! merged artifact is still **bit-identical** to a serial in-process
//! sweep, no matter the worker count, kill schedule, or resume boundary.
//!
//! Layers (each its own submodule):
//!
//! * [`manifest`] — the sweep specification and its deterministic
//!   expansion/sharding;
//! * [`protocol`] — line-delimited JSON frames between coordinator and
//!   workers (stdio for spawned children, TCP for multi-host);
//! * [`merge`] — per-cell digests, the sweep fingerprint, and the
//!   crash-identical merge;
//! * [`checkpoint`] — the append-only journal that makes coordinator
//!   crashes resumable;
//! * [`worker`] — the lease-execute-report machine and its driver,
//!   including the self-chaos directives;
//! * [`coordinator`] — lease scheduling, fault handling, provenance;
//!   its tests explore thousands of seeded fault schedules against real
//!   worker machines over a simulated wire (partitions and coordinator
//!   restarts from a torn journal included), in simulated time.
//!
//! The `msplayer` binary wraps all of this behind its `coordinator`,
//! `worker` and `serial` subcommands.

pub mod checkpoint;
pub mod coordinator;
pub mod manifest;
pub mod merge;
pub mod protocol;
pub mod worker;

pub use checkpoint::{Checkpoint, CheckpointRecord};
pub use coordinator::{
    run_cluster, serial_artifact, ClusterConfig, ClusterOutcome, ClusterStats, Transport,
};
pub use manifest::SweepManifest;
pub use merge::{digest_metrics, merge_rows, sweep_fingerprint, CellRow, DIGEST_EPOCH};
pub use protocol::Frame;
pub use worker::{run_worker, Misbehavior, Worker, WorkerChaos, MIN_LEASE_TIMEOUT};
