//! The sweep manifest: what to run, sharded how.
//!
//! A manifest names builtin workloads (see
//! [`WorkloadRegistry::builtin`]), a per-configuration run count, and a
//! shard size. Expansion is deterministic in every process that holds the
//! same manifest — coordinator, workers, and the serial reference all
//! enumerate the identical cell list, which is what lets leases carry
//! just a shard index instead of hauling cell definitions over the wire.

use super::merge::{fnv1a, hex_u64, parse_hex_u64, DIGEST_EPOCH};
use crate::sweep::{expand_workload, Cell};
use crate::workload::WorkloadRegistry;
use msim_json::Value;
use std::ops::Range;

/// A distributed sweep specification (JSON-serializable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepManifest {
    /// Artifact name: the merged output is `BENCH_<name>.json`.
    pub name: String,
    /// Builtin workload names to sweep, in order. Empty = every builtin
    /// workload.
    pub workloads: Vec<String>,
    /// Seeded repetitions per (scheduler, chunk) configuration.
    pub runs: u64,
    /// Maximum cells per shard (the unit of lease/retry/checkpoint).
    pub shard_cells: u64,
}

impl SweepManifest {
    /// The small default manifest used by smoke runs: two 2-path
    /// testbed-style workloads plus a storm, 2 runs, small shards so a
    /// multi-worker smoke actually exercises leasing.
    pub fn smoke() -> SweepManifest {
        SweepManifest {
            name: "cluster_smoke".into(),
            workloads: vec![
                "testbed/MSPlayer".into(),
                "testbed3/MSPlayer".into(),
                "storm/mobility".into(),
            ],
            runs: 2,
            shard_cells: 4,
        }
    }

    /// Serializes to the manifest JSON object. `runs`/`shard_cells` are
    /// plain numbers (well under 2^53).
    pub fn to_json(&self) -> Value {
        let workloads: Vec<Value> = self
            .workloads
            .iter()
            .map(|w| Value::String(w.clone()))
            .collect();
        Value::object()
            .with("name", self.name.as_str())
            .with("runs", self.runs)
            .with("shard_cells", self.shard_cells)
            .with("workloads", Value::Array(workloads))
    }

    /// Parses a manifest JSON object.
    pub fn from_json(v: &Value) -> Result<SweepManifest, String> {
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("manifest: missing name")?
            .to_string();
        let runs = v
            .get("runs")
            .and_then(Value::as_u64)
            .ok_or("manifest: missing runs")?;
        let shard_cells = v
            .get("shard_cells")
            .and_then(Value::as_u64)
            .filter(|&n| n > 0)
            .ok_or("manifest: shard_cells must be a positive integer")?;
        let workloads = match v.get("workloads") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|i| {
                    i.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "manifest: non-string workload entry".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("manifest: workloads is not an array".into()),
            None => Vec::new(),
        };
        Ok(SweepManifest {
            name,
            workloads,
            runs,
            shard_cells,
        })
    }

    /// The manifest fingerprint: FNV-1a over the canonical JSON rendering
    /// (object keys are BTreeMap-sorted, so the rendering is canonical by
    /// construction) followed by [`DIGEST_EPOCH`]. Checkpoint journals and
    /// merged artifacts carry it, so rows digested under another epoch
    /// are refused as belonging to a different manifest instead of being
    /// merged with this build's.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(
            msim_json::to_string(&self.to_json())
                .into_bytes()
                .into_iter()
                .chain(DIGEST_EPOCH.to_le_bytes()),
        )
    }

    /// [`SweepManifest::fingerprint`] as wire hex.
    pub fn fingerprint_hex(&self) -> String {
        hex_u64(self.fingerprint())
    }

    /// Checks a wire fingerprint against this manifest.
    pub fn matches_fingerprint(&self, hex: &str) -> bool {
        parse_hex_u64(hex).is_ok_and(|fp| fp == self.fingerprint())
    }

    /// Deterministically expands the manifest to its cell list. Errors on
    /// unknown workload names (listing what the registry has).
    pub fn expand(&self) -> Result<Vec<Cell>, String> {
        let registry = WorkloadRegistry::builtin(self.runs);
        let names: Vec<String> = if self.workloads.is_empty() {
            registry.names().iter().map(|s| s.to_string()).collect()
        } else {
            self.workloads.clone()
        };
        let mut cells = Vec::new();
        for name in &names {
            let spec = registry.by_name(name).ok_or_else(|| {
                format!(
                    "manifest: unknown workload {:?} (registry has: {})",
                    name,
                    registry.names().join(", ")
                )
            })?;
            cells.extend(expand_workload(spec));
        }
        Ok(cells)
    }

    /// The shard index ranges over a cell list of length `n_cells`:
    /// contiguous chunks of at most `shard_cells` cells.
    pub fn shards(&self, n_cells: usize) -> Vec<Range<usize>> {
        let size = self.shard_cells.max(1) as usize;
        (0..n_cells.div_ceil(size))
            .map(|s| (s * size)..((s + 1) * size).min(n_cells))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_preserves_fingerprint() {
        let m = SweepManifest::smoke();
        let text = msim_json::to_string_pretty(&m.to_json());
        let back = SweepManifest::from_json(&msim_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.fingerprint(), m.fingerprint());
        assert!(m.matches_fingerprint(&m.fingerprint_hex()));

        let mut other = m.clone();
        other.runs += 1;
        assert_ne!(other.fingerprint(), m.fingerprint());
        assert!(!m.matches_fingerprint(&other.fingerprint_hex()));

        // The epoch-1 fingerprint (the JSON alone): what a journal written
        // before the structural digest carries in its header.
        let epoch1 = fnv1a(msim_json::to_string(&m.to_json()).into_bytes());
        assert!(!m.matches_fingerprint(&hex_u64(epoch1)));
    }

    #[test]
    fn expansion_is_deterministic_and_validates_names() {
        let m = SweepManifest::smoke();
        let a = m.expand().unwrap();
        let b = m.expand().unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());

        let mut bad = m.clone();
        bad.workloads.push("no/such-workload".into());
        let err = bad.expand().unwrap_err();
        assert!(err.contains("no/such-workload"), "{err}");
        assert!(err.contains("testbed/MSPlayer"), "{err}");
    }

    #[test]
    fn shards_tile_the_cell_list_exactly() {
        let m = SweepManifest {
            shard_cells: 4,
            ..SweepManifest::smoke()
        };
        let shards = m.shards(10);
        assert_eq!(shards, vec![0..4, 4..8, 8..10]);
        assert_eq!(m.shards(0).len(), 0);
        assert_eq!(m.shards(4), vec![0..4]);
    }
}
