//! Crash-identical merging of shard results.
//!
//! The whole point of the distributed sweep is that it is *forensically
//! boring*: the final artifact a coordinator writes after any number of
//! worker crashes, speculative re-executions, and checkpoint resumes is
//! **bit-identical** to what a serial in-process sweep writes. That works
//! because the deterministic artifact is derived from exactly two inputs:
//!
//! 1. the manifest (which expands to the same cell list everywhere), and
//! 2. one deterministic `u64` digest per cell ([`digest_metrics`]).
//!
//! # The session digest
//!
//! [`digest_metrics`] is [`SessionMetrics::digest`]: a structural hash
//! that folds every field of the record, in declaration order, as 64-bit
//! words into an FNV-style state — `SimTime`/`SimDuration` as
//! microseconds, `f64` as `to_bits`, enums as discriminants, integers and
//! `bool`s widened, a length word before every `Vec` and a tag word before
//! every `Option`. The encoding is prefix-free, so two sessions share a
//! digest only when they are bit-identical (or the 64-bit fold collides).
//! *Bit* identity is stricter than `PartialEq`: `0.0` and `-0.0` digest
//! differently, and so do NaNs with different payloads. Nothing is
//! formatted or allocated, so a digest costs a few microseconds — far
//! less than the session it reports — and its value does not depend on
//! the toolchain's float printing.
//!
//! [`DIGEST_EPOCH`] versions that definition. It must be bumped on any
//! change to the field order, a field's encoding, or the fold (adding a
//! `SessionMetrics` field forces the question: the digest destructures
//! every struct exhaustively and stops compiling). Digests of different
//! epochs must never meet, so the epoch is mixed into
//! [`SweepManifest::fingerprint`](super::SweepManifest::fingerprint)
//! (stale checkpoint journals are refused), carried in the hello/ready
//! handshake (mixed-version workers are refused), and written into merged
//! artifacts and the sampling corpus next to `stream_epoch`.
//!
//! Everything nondeterministic — wall times, worker ids, attempt counts —
//! lives in a *separate* provenance artifact that makes no identity
//! claims. Digests and seeds travel as fixed-width hex strings because the
//! JSON layer stores numbers as `f64` (exact only to 2^53).

use crate::sweep::{Cell, HostCache};
use msim_json::{Map, Value};
use msplayer_core::metrics::SessionMetrics;

pub use msplayer_core::metrics::DIGEST_EPOCH;

/// FNV-1a over a byte stream.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Renders a `u64` as the fixed-width lowercase hex used on the wire and
/// in artifacts (JSON numbers are `f64`-backed and lossy above 2^53).
pub fn hex_u64(v: u64) -> String {
    format!("{v:016x}")
}

/// Parses a [`hex_u64`] string back (any-width hex accepted).
pub fn parse_hex_u64(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s, 16).map_err(|e| format!("bad hex u64 {s:?}: {e}"))
}

/// The deterministic digest of one completed session: the structural
/// [`SessionMetrics::digest`] of epoch [`DIGEST_EPOCH`] (see the module
/// docs for what is hashed and when the epoch must move).
pub fn digest_metrics(m: &SessionMetrics) -> u64 {
    m.digest()
}

/// One cell's result row as it travels between workers, the checkpoint
/// journal, and the merge: the cell index plus its metrics digest. The
/// (kind, chunk, seed) identity is *not* carried — the merge re-derives
/// it from the manifest expansion, so a corrupt journal can garble at
/// most a digest, never a row's identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellRow {
    /// Index into the manifest's expanded cell list.
    pub index: u64,
    /// [`digest_metrics`] of the cell's session.
    pub digest: u64,
}

impl CellRow {
    /// Wire form: `[index, "digest-hex"]`.
    pub fn to_json(&self) -> Value {
        Value::Array(vec![
            Value::Number(self.index as f64),
            Value::String(hex_u64(self.digest)),
        ])
    }

    /// Parses the wire form.
    pub fn from_json(v: &Value) -> Result<CellRow, String> {
        let arr = v.as_array().ok_or("cell row is not an array")?;
        if arr.len() != 2 {
            return Err(format!("cell row has {} elements, want 2", arr.len()));
        }
        let index = arr[0].as_u64().ok_or("cell row index is not an integer")?;
        let digest = parse_hex_u64(arr[1].as_str().ok_or("cell row digest is not a string")?)?;
        Ok(CellRow { index, digest })
    }
}

/// The row of cell `index` of `cells`: its session, run on its workload's
/// warmed host. Cluster cells never run with a cell budget, so completion
/// is guaranteed (modulo the lease watchdog on the coordinator side, which
/// handles genuinely hung workers).
pub(super) fn cell_row(cells: &[Cell], index: usize, hosts: &mut HostCache) -> CellRow {
    let cell = &cells[index];
    let result = cell.run_on(hosts.host_for(&cell.workload));
    CellRow {
        index: index as u64,
        digest: digest_metrics(result.expect_metrics()),
    }
}

/// Whether `rows` is exactly one row per cell of `range`, in shard order:
/// what a completion must be before anything keeps it.
pub(super) fn covers(range: &std::ops::Range<usize>, rows: &[CellRow]) -> bool {
    rows.len() == range.len()
        && rows
            .iter()
            .zip(range.clone())
            .all(|(r, i)| r.index == i as u64)
}

/// The sweep fingerprint: FNV-1a over the (index, digest) stream in cell
/// order. One `u64` that pins the entire sweep's output.
pub fn sweep_fingerprint(rows: &[CellRow]) -> u64 {
    fnv1a(
        rows.iter()
            .flat_map(|r| {
                r.index
                    .to_le_bytes()
                    .into_iter()
                    .chain(r.digest.to_le_bytes())
            })
            .collect::<Vec<u8>>(),
    )
}

/// Builds the deterministic merged artifact from the manifest's expanded
/// cells and a complete row set (any order; duplicates already resolved).
///
/// Errors on coverage gaps or double rows — the coordinator must hand in
/// exactly one row per cell.
pub fn merge_rows(
    name: &str,
    manifest_fingerprint: u64,
    cells: &[Cell],
    rows: &[CellRow],
) -> Result<Value, String> {
    let mut by_index: Vec<Option<u64>> = vec![None; cells.len()];
    for row in rows {
        let slot = by_index.get_mut(row.index as usize).ok_or_else(|| {
            format!(
                "row index {} out of range ({} cells)",
                row.index,
                cells.len()
            )
        })?;
        if slot.is_some() {
            return Err(format!("duplicate row for cell {}", row.index));
        }
        *slot = Some(row.digest);
    }
    let ordered: Vec<CellRow> = by_index
        .iter()
        .enumerate()
        .map(|(i, d)| {
            d.map(|digest| CellRow {
                index: i as u64,
                digest,
            })
            .ok_or_else(|| format!("no row for cell {i}"))
        })
        .collect::<Result<_, String>>()?;

    let cell_values: Vec<Value> = ordered
        .iter()
        .map(|row| {
            let cell = &cells[row.index as usize];
            // Five members in one exact-size allocation, their names
            // borrowed literals (a sweep holds thousands of these rows at
            // once).
            Value::Object(Map::from_iter([
                ("chunk_kb", cell.chunk_kb.into()),
                ("digest", hex_u64(row.digest).into()),
                ("index", row.index.into()),
                ("kind", cell.kind().into()),
                ("seed", hex_u64(cell.seed).into()),
            ]))
        })
        .collect();
    Ok(Value::object()
        .with("cells", Value::Array(cell_values))
        .with("digest_epoch", DIGEST_EPOCH as u64)
        .with(
            "manifest_fingerprint",
            hex_u64(manifest_fingerprint).as_str(),
        )
        .with("name", name)
        .with("schema", "cluster-sweep")
        .with("sessions", cells.len() as u64)
        .with("stream_epoch", msim_core::rng::STREAM_EPOCH as u64)
        .with(
            "sweep_fingerprint",
            hex_u64(sweep_fingerprint(&ordered)).as_str(),
        ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip_preserves_full_u64_range() {
        for v in [
            0u64,
            1,
            u64::MAX,
            0x4d53_506c_6179_6572,
            1 << 53,
            (1 << 53) + 1,
        ] {
            assert_eq!(parse_hex_u64(&hex_u64(v)).unwrap(), v);
        }
        assert!(parse_hex_u64("not-hex").is_err());
    }

    #[test]
    fn cell_row_json_roundtrip() {
        let row = CellRow {
            index: 42,
            digest: u64::MAX - 7,
        };
        // Through an actual serialize/parse cycle — the digest is above
        // 2^53, which is exactly why it travels as a hex string.
        let text = msim_json::to_string(&row.to_json());
        let back = CellRow::from_json(&msim_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let a = [
            CellRow {
                index: 0,
                digest: 1,
            },
            CellRow {
                index: 1,
                digest: 2,
            },
        ];
        let mut b = a;
        b.swap(0, 1);
        assert_ne!(sweep_fingerprint(&a), sweep_fingerprint(&b));
        let mut c = a;
        c[1].digest = 3;
        assert_ne!(sweep_fingerprint(&a), sweep_fingerprint(&c));
        assert_eq!(sweep_fingerprint(&a), sweep_fingerprint(&a.clone()));
    }

    #[test]
    fn merge_rejects_gaps_and_duplicates() {
        let cells = crate::workload::WorkloadRegistry::builtin(1).cells()[..2].to_vec();
        let full = [
            CellRow {
                index: 0,
                digest: 10,
            },
            CellRow {
                index: 1,
                digest: 11,
            },
        ];
        assert!(merge_rows("t", 1, &cells, &full).is_ok());
        assert!(merge_rows("t", 1, &cells, &full[..1]).is_err(), "gap");
        let dup = [full[0], full[0], full[1]];
        assert!(merge_rows("t", 1, &cells, &dup).is_err(), "duplicate");
        let oob = [
            full[0],
            CellRow {
                index: 9,
                digest: 1,
            },
        ];
        assert!(merge_rows("t", 1, &cells, &oob).is_err(), "out of range");
    }

    #[test]
    fn merge_is_input_order_invariant() {
        let cells = crate::workload::WorkloadRegistry::builtin(1).cells()[..3].to_vec();
        let rows: Vec<CellRow> = (0..3)
            .map(|i| CellRow {
                index: i,
                digest: 100 + i,
            })
            .collect();
        let mut shuffled = rows.clone();
        shuffled.reverse();
        let a = msim_json::to_string(&merge_rows("t", 7, &cells, &rows).unwrap());
        let b = msim_json::to_string(&merge_rows("t", 7, &cells, &shuffled).unwrap());
        assert_eq!(a, b);
    }
}
