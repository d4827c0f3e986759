//! The coordinator's append-only checkpoint journal.
//!
//! One JSON line per completed shard, preceded by a header line binding
//! the journal to a manifest fingerprint. The coordinator appends (and
//! flushes) a line the moment a shard's rows are accepted, so a
//! coordinator crash loses at most the in-flight shards — a restart with
//! the same manifest resumes from the journal and re-runs only what never
//! completed.
//!
//! Recovery posture: a truncated tail line (the classic torn final write
//! of a crash: a last line without its `\n`) is *expected* and silently
//! dropped; a header that doesn't match the manifest is a hard error
//! (resuming someone else's sweep corrupts both) — and since the manifest
//! fingerprint covers `DIGEST_EPOCH`, so is a journal whose rows were
//! digested under another epoch; any malformed line after a valid header
//! ends the replay at that point, treating the rest as lost. What the
//! replay dropped after a valid header is cut from the file before
//! anything is appended, so a new record never lands on torn bytes.

use super::manifest::SweepManifest;
use super::merge::{CellRow, DIGEST_EPOCH};
use msim_json::Value;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One journaled shard completion.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointRecord {
    /// The completed shard.
    pub shard: u64,
    /// Worker that produced the accepted rows (0 = coordinator inline).
    pub worker: u64,
    /// Attempt number of the accepted completion.
    pub attempt: u64,
    /// Shard wall time as its worker measured it, µs (provenance only;
    /// 0 for a coordinator-inline run, which reads no clock).
    pub wall_us: u64,
    /// One row per cell of the shard.
    pub rows: Vec<CellRow>,
}

impl CheckpointRecord {
    fn to_json(&self) -> Value {
        Value::object()
            .with("attempt", self.attempt)
            .with(
                "rows",
                Value::Array(self.rows.iter().map(CellRow::to_json).collect()),
            )
            .with("shard", self.shard)
            .with("wall_us", self.wall_us)
            .with("worker", self.worker)
    }

    fn from_json(v: &Value) -> Result<CheckpointRecord, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("checkpoint record: missing integer {k:?}"))
        };
        let rows = match v.get("rows") {
            Some(Value::Array(items)) => items
                .iter()
                .map(CellRow::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("checkpoint record: missing rows array".into()),
        };
        Ok(CheckpointRecord {
            shard: num("shard")?,
            worker: num("worker")?,
            attempt: num("attempt")?,
            wall_us: num("wall_us")?,
            rows,
        })
    }
}

/// An open checkpoint journal, ready to append.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    file: std::fs::File,
}

impl Checkpoint {
    /// Opens (creating if needed) the journal at `path` for `manifest`,
    /// first replaying any shards already recorded.
    ///
    /// Returns the journal handle and the replayed records (empty for a
    /// fresh file). A journal written for a *different* manifest is
    /// refused.
    pub fn open(
        path: &Path,
        manifest: &SweepManifest,
    ) -> Result<(Checkpoint, Vec<CheckpointRecord>), String> {
        let existing = match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let mut records = Vec::new();
        // Once the header is this manifest's: the bytes of the whole lines
        // replayed. The file is cut to them, so the next record starts a
        // line of its own instead of landing on what the replay dropped.
        let mut keep = None;
        if let Some(text) = &existing {
            // Every piece but the last ends in `\n`; a last one without it
            // was torn mid-write.
            let mut lines = text.split_inclusive('\n');
            match lines.next() {
                None | Some("\n") => {}
                Some(header_line) => {
                    let header = msim_json::from_str(header_line)
                        .map_err(|e| format!("{}: bad header: {e}", path.display()))?;
                    let fp = header
                        .get("manifest_fingerprint")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("{}: header has no fingerprint", path.display()))?;
                    if !manifest.matches_fingerprint(fp) {
                        return Err(format!(
                            "{}: checkpoint belongs to a different manifest or \
                             digest epoch (journal {fp}, manifest {} at digest_epoch \
                             {DIGEST_EPOCH}) — delete it to start over",
                            path.display(),
                            manifest.fingerprint_hex()
                        ));
                    }
                    // A header torn from its `\n` is written again.
                    let mut kept = if header_line.ends_with('\n') {
                        header_line.len()
                    } else {
                        0
                    };
                    for line in lines {
                        // A torn tail (crash mid-write) or any malformed
                        // line ends the replay; everything before it is
                        // durable.
                        if !line.ends_with('\n') {
                            break;
                        }
                        if line != "\n" {
                            let Ok(v) = msim_json::from_str(line) else {
                                break;
                            };
                            let Ok(record) = CheckpointRecord::from_json(&v) else {
                                break;
                            };
                            records.push(record);
                        }
                        kept += line.len();
                    }
                    keep = Some(kept);
                }
            }
        }
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
        }
        let io_err = |e: std::io::Error| format!("{}: {e}", path.display());
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_err)?;
        if let Some(kept) = keep {
            file.set_len(kept as u64).map_err(io_err)?;
        }
        if keep.unwrap_or(0) == 0 {
            let header = Value::object()
                .with("manifest_fingerprint", manifest.fingerprint_hex().as_str())
                .with("name", manifest.name.as_str())
                .with("version", 1u64);
            writeln!(file, "{}", msim_json::to_string(&header))
                .and_then(|_| file.flush())
                .map_err(io_err)?;
        }
        Ok((
            Checkpoint {
                path: path.to_path_buf(),
                file,
            },
            records,
        ))
    }

    /// Appends one completed shard and flushes — after this returns, the
    /// shard survives a coordinator crash.
    pub fn append(&mut self, record: &CheckpointRecord) -> Result<(), String> {
        writeln!(self.file, "{}", msim_json::to_string(&record.to_json()))
            .and_then(|_| self.file.flush())
            .map_err(|e| format!("{}: {e}", self.path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("msp-ckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.ndjson")
    }

    fn record(shard: u64) -> CheckpointRecord {
        CheckpointRecord {
            shard,
            worker: 1,
            attempt: 1,
            wall_us: 1000 + shard,
            rows: vec![CellRow {
                index: shard * 2,
                digest: u64::MAX - shard,
            }],
        }
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let path = tmp("replay");
        let manifest = SweepManifest::smoke();
        let (mut ckpt, replayed) = Checkpoint::open(&path, &manifest).unwrap();
        assert!(replayed.is_empty());
        ckpt.append(&record(0)).unwrap();
        ckpt.append(&record(1)).unwrap();
        drop(ckpt);

        let (_ckpt, replayed) = Checkpoint::open(&path, &manifest).unwrap();
        assert_eq!(replayed, vec![record(0), record(1)]);
    }

    #[test]
    fn torn_tail_line_is_dropped_not_fatal() {
        let path = tmp("torn");
        let manifest = SweepManifest::smoke();
        let (mut ckpt, _) = Checkpoint::open(&path, &manifest).unwrap();
        ckpt.append(&record(0)).unwrap();
        drop(ckpt);
        // Simulate a crash mid-append: half a JSON line, no newline.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"shard\":1,\"worker\":1,\"att");
        std::fs::write(&path, text).unwrap();

        let (mut ckpt, replayed) = Checkpoint::open(&path, &manifest).unwrap();
        assert_eq!(replayed, vec![record(0)], "torn tail dropped");
        // What the resumed run appends must survive the next resume: the
        // torn bytes are gone, not glued to the first new record.
        ckpt.append(&record(1)).unwrap();
        ckpt.append(&record(2)).unwrap();
        drop(ckpt);
        let (_ckpt, replayed) = Checkpoint::open(&path, &manifest).unwrap();
        assert_eq!(replayed, vec![record(0), record(1), record(2)]);
    }

    #[test]
    fn wrong_manifest_is_refused() {
        let path = tmp("wrongfp");
        let manifest = SweepManifest::smoke();
        let (mut ckpt, _) = Checkpoint::open(&path, &manifest).unwrap();
        ckpt.append(&record(0)).unwrap();
        drop(ckpt);

        let mut other = manifest.clone();
        other.runs += 1;
        let err = Checkpoint::open(&path, &other).unwrap_err();
        assert!(err.contains("different manifest"), "{err}");
    }

    /// A journal written before the structural digest: same manifest, but
    /// its header fingerprint does not cover `DIGEST_EPOCH`, so its
    /// `Debug`-era rows are refused rather than merged with new ones.
    #[test]
    fn journal_from_the_debug_digest_epoch_is_refused() {
        let path = tmp("epoch1");
        let manifest = SweepManifest::smoke();
        let epoch1 =
            super::super::merge::fnv1a(msim_json::to_string(&manifest.to_json()).into_bytes());
        let header = Value::object()
            .with(
                "manifest_fingerprint",
                super::super::merge::hex_u64(epoch1).as_str(),
            )
            .with("name", manifest.name.as_str())
            .with("version", 1u64);
        let journal = format!(
            "{}\n{}\n",
            msim_json::to_string(&header),
            msim_json::to_string(&record(0).to_json())
        );
        std::fs::write(&path, journal).unwrap();
        let err = Checkpoint::open(&path, &manifest).unwrap_err();
        assert!(err.contains("digest epoch"), "{err}");
    }
}
