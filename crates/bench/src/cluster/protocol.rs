//! The coordinator/worker wire protocol: line-delimited JSON frames.
//!
//! One frame per line, no embedded newlines (guaranteed by the canonical
//! `msim_json` rendering). Both ends are machines that take and return
//! [`Frame`]s; the bytes move in their drivers, over
//! [`msim_testbed::lines`] — a child's stdio in spawned mode, TCP in
//! multi-host mode, or the coordinator tests' simulated wire.
//!
//! Robustness posture: [`Frame::from_line`] returns `Err` on anything
//! malformed, and the coordinator treats a malformed frame from a worker
//! the same as a crash — requeue its lease, replace the worker. A
//! protocol error is evidence of a sick peer, not something to limp
//! through.
//!
//! # Handshake
//!
//! `hello` and `ready` both carry the sender's
//! [`DIGEST_EPOCH`](super::merge::DIGEST_EPOCH): rows digested under
//! different definitions of the session digest must never be merged, and
//! nothing else on the wire would reveal a mixed-version worker. A worker
//! answers a hello of another epoch with `fail` and exits; the
//! coordinator condemns a worker whose `ready` names another epoch. A
//! frame without the field comes from a build that predates the
//! handshake, i.e. epoch 1 (the `Debug`-rendering digest) — such workers
//! ignore unknown hello fields, which is why the check that catches them
//! is the one on `ready`.
//!
//! # Heartbeats
//!
//! A worker heartbeats *by wall time*, not per cell, and flushes unsent
//! telemetry counter deltas in one more heartbeat right before `done`
//! ([`worker`](super::worker) has the pacing). A lease timeout must be
//! several paces long: `msplayer coordinator` refuses less than
//! [`MIN_LEASE_TIMEOUT`](super::worker::MIN_LEASE_TIMEOUT).

use super::manifest::SweepManifest;
use super::merge::CellRow;
use msim_json::Value;

/// One protocol frame, either direction.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Coordinator → worker: identity, plus the manifest the worker must
    /// expand (the first frame a worker receives).
    Hello {
        /// The id assigned to this worker.
        worker: u64,
        /// The sweep manifest (workers expand it themselves; leases then
        /// carry only shard indices).
        manifest: SweepManifest,
        /// The coordinator's digest epoch (see the module docs).
        digest_epoch: u32,
    },
    /// Coordinator → worker: run one shard.
    Lease {
        /// Shard index into [`SweepManifest::shards`].
        shard: u64,
        /// 1-based attempt number (for provenance and duplicate
        /// resolution).
        attempt: u64,
    },
    /// Coordinator → worker: drain and exit 0.
    Shutdown,

    /// Worker → coordinator: manifest expanded, ready for leases.
    Ready {
        /// Echo of the assigned worker id.
        worker: u64,
        /// The worker's digest epoch (see the module docs).
        digest_epoch: u32,
    },
    /// Worker → coordinator: still alive mid-shard (paced by wall time,
    /// see the module docs).
    Heartbeat {
        /// Worker id.
        worker: u64,
        /// The shard being worked.
        shard: u64,
        /// Cells completed so far in this shard.
        cells_done: u64,
        /// Telemetry counter *deltas* since the worker's previous
        /// heartbeat, as `(metric key, increment)` pairs. Empty when the
        /// worker has telemetry off; omitted from the wire line then, so
        /// old coordinators parse new workers and vice versa.
        counters: Vec<(String, u64)>,
    },
    /// Worker → coordinator: shard complete.
    Done {
        /// Worker id.
        worker: u64,
        /// The completed shard.
        shard: u64,
        /// Echo of the lease's attempt number.
        attempt: u64,
        /// Wall-clock microseconds the shard took (provenance only).
        wall_us: u64,
        /// One row per cell of the shard, in shard order.
        rows: Vec<CellRow>,
    },
    /// Worker → coordinator: shard failed in a way the worker survived
    /// (e.g. manifest expansion error). The coordinator requeues.
    Fail {
        /// Worker id.
        worker: u64,
        /// The failed shard; `None` when the worker failed before holding
        /// one (setup: manifest expansion, another digest epoch). On the
        /// wire a setup failure has no `shard` member.
        shard: Option<u64>,
        /// Human-readable reason.
        message: String,
    },
}

impl Frame {
    /// Serializes to one wire line (single-line JSON, no newline).
    pub fn to_line(&self) -> String {
        let v = match self {
            Frame::Hello {
                worker,
                manifest,
                digest_epoch,
            } => Value::object()
                .with("type", "hello")
                .with("worker", *worker)
                .with("manifest", manifest.to_json())
                .with("digest_epoch", u64::from(*digest_epoch)),
            Frame::Lease { shard, attempt } => Value::object()
                .with("type", "lease")
                .with("shard", *shard)
                .with("attempt", *attempt),
            Frame::Shutdown => Value::object().with("type", "shutdown"),
            Frame::Ready {
                worker,
                digest_epoch,
            } => Value::object()
                .with("type", "ready")
                .with("worker", *worker)
                .with("digest_epoch", u64::from(*digest_epoch)),
            Frame::Heartbeat {
                worker,
                shard,
                cells_done,
                counters,
            } => {
                let mut obj = Value::object()
                    .with("type", "heartbeat")
                    .with("worker", *worker)
                    .with("shard", *shard)
                    .with("cells_done", *cells_done);
                if !counters.is_empty() {
                    obj = obj.with(
                        "counters",
                        Value::Array(
                            counters
                                .iter()
                                .map(|(k, d)| Value::object().with("k", k.as_str()).with("d", *d))
                                .collect(),
                        ),
                    );
                }
                obj
            }
            Frame::Done {
                worker,
                shard,
                attempt,
                wall_us,
                rows,
            } => Value::object()
                .with("type", "done")
                .with("worker", *worker)
                .with("shard", *shard)
                .with("attempt", *attempt)
                .with("wall_us", *wall_us)
                .with(
                    "rows",
                    Value::Array(rows.iter().map(CellRow::to_json).collect()),
                ),
            Frame::Fail {
                worker,
                shard,
                message,
            } => {
                let fail = Value::object()
                    .with("type", "fail")
                    .with("worker", *worker)
                    .with("message", message.as_str());
                match shard {
                    Some(shard) => fail.with("shard", *shard),
                    None => fail,
                }
            }
        };
        msim_json::to_string(&v)
    }

    /// Parses one wire line.
    pub fn from_line(line: &str) -> Result<Frame, String> {
        let v = msim_json::from_str(line).map_err(|e| format!("unparseable frame: {e}"))?;
        let ty = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or("frame has no type")?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("{ty} frame: missing integer {k:?}"))
        };
        // Absent = a peer from before the handshake carried it: epoch 1.
        let digest_epoch = || match v.get("digest_epoch") {
            None => Ok(1),
            Some(e) => e
                .as_u64()
                .and_then(|e| u32::try_from(e).ok())
                .ok_or_else(|| format!("{ty} frame: digest_epoch is not a u32")),
        };
        match ty {
            "hello" => Ok(Frame::Hello {
                worker: num("worker")?,
                manifest: SweepManifest::from_json(
                    v.get("manifest").ok_or("hello frame: missing manifest")?,
                )?,
                digest_epoch: digest_epoch()?,
            }),
            "lease" => Ok(Frame::Lease {
                shard: num("shard")?,
                attempt: num("attempt")?,
            }),
            "shutdown" => Ok(Frame::Shutdown),
            "ready" => Ok(Frame::Ready {
                worker: num("worker")?,
                digest_epoch: digest_epoch()?,
            }),
            "heartbeat" => {
                let counters = match v.get("counters") {
                    Some(Value::Array(items)) => items
                        .iter()
                        .map(|item| {
                            let k = item
                                .get("k")
                                .and_then(Value::as_str)
                                .ok_or("heartbeat counter: missing k")?;
                            let d = item
                                .get("d")
                                .and_then(Value::as_u64)
                                .ok_or("heartbeat counter: missing d")?;
                            Ok::<_, String>((k.to_string(), d))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    // Absent field: an older worker, or telemetry off.
                    _ => Vec::new(),
                };
                Ok(Frame::Heartbeat {
                    worker: num("worker")?,
                    shard: num("shard")?,
                    cells_done: num("cells_done")?,
                    counters,
                })
            }
            "done" => {
                let rows = match v.get("rows") {
                    Some(Value::Array(items)) => items
                        .iter()
                        .map(CellRow::from_json)
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err("done frame: missing rows array".into()),
                };
                Ok(Frame::Done {
                    worker: num("worker")?,
                    shard: num("shard")?,
                    attempt: num("attempt")?,
                    wall_us: num("wall_us")?,
                    rows,
                })
            }
            "fail" => Ok(Frame::Fail {
                worker: num("worker")?,
                shard: v.get("shard").map(|_| num("shard")).transpose()?,
                message: v
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            other => Err(format!("unknown frame type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::merge::DIGEST_EPOCH;
    use super::*;

    fn roundtrip(f: Frame) {
        let line = f.to_line();
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(Frame::from_line(&line).unwrap(), f);
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(Frame::Hello {
            worker: 3,
            manifest: SweepManifest::smoke(),
            digest_epoch: DIGEST_EPOCH,
        });
        roundtrip(Frame::Lease {
            shard: 9,
            attempt: 2,
        });
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::Ready {
            worker: 3,
            digest_epoch: DIGEST_EPOCH,
        });
        // Another epoch survives the wire as itself — the refusal is the
        // peer's job, not the parser's.
        roundtrip(Frame::Ready {
            worker: 3,
            digest_epoch: DIGEST_EPOCH + 1,
        });
        roundtrip(Frame::Heartbeat {
            worker: 1,
            shard: 4,
            cells_done: 2,
            counters: Vec::new(),
        });
        roundtrip(Frame::Heartbeat {
            worker: 1,
            shard: 4,
            cells_done: 2,
            counters: vec![
                ("msp_sessions_total".into(), 12),
                ("msp_admission_checks_total{verdict=\"ok\"}".into(), 7),
            ],
        });
        roundtrip(Frame::Done {
            worker: 1,
            shard: 4,
            attempt: 1,
            wall_us: 123_456,
            rows: vec![
                CellRow {
                    index: 16,
                    digest: u64::MAX,
                },
                CellRow {
                    index: 17,
                    digest: 1,
                },
            ],
        });
        roundtrip(Frame::Fail {
            worker: 2,
            shard: Some(0),
            message: "lease abandoned".into(),
        });
        roundtrip(Frame::Fail {
            worker: 2,
            shard: None,
            message: "manifest: unknown workload".into(),
        });
    }

    /// Both handshake directions, as a build from before the handshake
    /// frames them: no `digest_epoch` field, which reads as epoch 1 — never
    /// as the current one.
    #[test]
    fn handshake_frames_without_an_epoch_read_as_epoch_one() {
        let ready = Frame::from_line("{\"type\":\"ready\",\"worker\":3}").unwrap();
        assert_eq!(
            ready,
            Frame::Ready {
                worker: 3,
                digest_epoch: 1
            }
        );
        let hello = Value::object()
            .with("type", "hello")
            .with("worker", 3u64)
            .with("manifest", SweepManifest::smoke().to_json());
        assert_eq!(
            Frame::from_line(&msim_json::to_string(&hello)).unwrap(),
            Frame::Hello {
                worker: 3,
                manifest: SweepManifest::smoke(),
                digest_epoch: 1
            }
        );
        assert_ne!(DIGEST_EPOCH, 1, "epoch 1 is the Debug-rendering digest");
        // And a current frame says so on the wire.
        let line = Frame::Ready {
            worker: 3,
            digest_epoch: DIGEST_EPOCH,
        }
        .to_line();
        assert!(
            line.contains(&format!("\"digest_epoch\":{DIGEST_EPOCH}")),
            "{line}"
        );
        assert!(
            Frame::from_line("{\"type\":\"ready\",\"worker\":3,\"digest_epoch\":\"2\"}").is_err()
        );
    }

    #[test]
    fn heartbeat_without_counters_parses_as_empty() {
        // Wire line from a pre-telemetry worker.
        let f =
            Frame::from_line("{\"type\":\"heartbeat\",\"worker\":1,\"shard\":4,\"cells_done\":2}")
                .unwrap();
        assert_eq!(
            f,
            Frame::Heartbeat {
                worker: 1,
                shard: 4,
                cells_done: 2,
                counters: Vec::new(),
            }
        );
    }

    #[test]
    fn malformed_frames_error_instead_of_panicking() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"type\":\"warp\"}",
            "{\"type\":\"lease\"}",
            "{\"type\":\"done\",\"worker\":1,\"shard\":0,\"attempt\":1,\"wall_us\":1}",
            "{\"type\":\"done\",\"worker\":1,\"shard\":0,\"attempt\":1,\"wall_us\":1,\"rows\":[[0]]}",
            "{\"type\":\"hello\",\"worker\":0}",
        ] {
            assert!(Frame::from_line(bad).is_err(), "{bad:?}");
        }
    }
}
