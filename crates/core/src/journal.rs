//! Crash-resumable run journal.
//!
//! A supervised rewrite appends one checksummed record per completed
//! degradation-ladder round to a per-run journal file, so a run killed
//! at any point (SIGKILL included) can be resumed: `icfgp rewrite
//! --resume` replays the journaled demotions into the starting
//! configuration and re-runs the ladder, which — because every stage
//! is deterministic and the persistent store kept the per-function
//! results flushed each round — redoes only the unfinished work and
//! produces byte-identical output to an uninterrupted run.
//!
//! # Format
//!
//! The journal reuses the [`store`] segment framing: a
//! 20-byte header (`magic ‖ version ‖ key-epoch`, journal magic
//! `ICFGPJN\x01`) followed by checksummed append-only frames
//! (`tag ‖ key ‖ len ‖ checksum ‖ payload`). A torn tail — the frame
//! being written when the process died — fails its checksum or length
//! check and is dropped at load, exactly like a torn store segment.
//!
//! | tag | record | key | payload (JSON) |
//! |-----|--------|-----|----------------|
//! | 1 | header | binary fingerprint | [`JournalHeader`] |
//! | 2 | round  | round number | [`RoundRecord`] |
//! | 3 | complete | total rounds | `{"rounds": n}` |
//!
//! # Resume invariants
//!
//! * The header pins the binary and configuration fingerprints; a
//!   resume against a different binary or config is rejected.
//! * Rounds are replayed in order; a round record is written only
//!   *after* the round's store flush, so every journaled demotion is
//!   backed by persisted per-function results.
//! * Replaying demotions is idempotent: demotions are keyed by
//!   function entry and the ladder lowers monotonically.

use crate::config::FuncMode;
use crate::store::{self, checksum64, KEY_EPOCH};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal file magic (parallel to the store's `ICFGPST\x01`).
const JMAGIC: &[u8; 8] = b"ICFGPJN\x01";
/// Journal format version.
const JOURNAL_VERSION: u32 = 1;

const TAG_HEADER: u8 = 1;
const TAG_ROUND: u8 = 2;
const TAG_COMPLETE: u8 = 3;

/// The journal's first record: what run this journal belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Fingerprint of the input binary ([`crate::binary_fingerprint`]).
    pub binary_fp: u64,
    /// Fingerprint of the rewrite configuration
    /// ([`config_fingerprint`]).
    pub config_fp: u64,
}

/// One journaled ladder demotion: the ladder lowered `entry` from
/// `from` to `to` because of `reason`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalDemotion {
    /// Function entry address.
    pub entry: u64,
    /// Rung before the demotion.
    pub from: FuncMode,
    /// Rung after the demotion.
    pub to: FuncMode,
    /// Human-readable attribution (mirrors the ladder step log).
    pub reason: String,
}

/// One completed ladder round: written only after the round's results
/// were flushed to the persistent store.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct RoundRecord {
    /// 1-based ladder round number.
    pub round: u32,
    /// Demotions this round applied (empty for the final clean round).
    pub demotions: Vec<JournalDemotion>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct CompleteRecord {
    rounds: u32,
}

/// Everything recoverable from a journal file, torn tail dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalReplay {
    /// The run identity record.
    pub header: JournalHeader,
    /// Completed rounds, in order.
    pub rounds: Vec<RoundRecord>,
    /// The run finished (a complete record is present).
    pub complete: bool,
    /// Damage was dropped while loading (torn tail or corrupt frame) —
    /// expected after a kill, never after a clean finish.
    pub damaged: bool,
}

impl JournalReplay {
    /// The demotions of every completed round, flattened in order —
    /// replay these into `RewriteConfig::func_modes` before resuming.
    #[must_use]
    pub fn demotions(&self) -> Vec<JournalDemotion> {
        self.rounds.iter().flat_map(|r| r.demotions.iter().cloned()).collect()
    }
}

/// An append-only, checksummed, per-run journal. Records are synced to
/// disk before `append_*` returns, so anything acknowledged survives
/// SIGKILL.
#[derive(Debug)]
pub struct RunJournal {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

fn frame(tag: u8, key: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 32);
    store::encode_frame(&mut out, tag, key, payload);
    out
}

impl RunJournal {
    /// Create (truncating any previous file) a journal for the run
    /// identified by `(binary_fp, config_fp)` and persist the header.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn create(path: &Path, binary_fp: u64, config_fp: u64) -> std::io::Result<RunJournal> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::File::create(path)?;
        let mut body = Vec::with_capacity(64);
        body.extend_from_slice(JMAGIC);
        body.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        body.extend_from_slice(&KEY_EPOCH.to_le_bytes());
        let header = JournalHeader { binary_fp, config_fp };
        let payload = serde_json::to_vec(&header)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        body.extend_from_slice(&frame(TAG_HEADER, binary_fp, &payload));
        file.write_all(&body)?;
        file.sync_all()?;
        Ok(RunJournal { path: path.to_path_buf(), file: Mutex::new(file) })
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn append(&self, tag: u8, key: u64, payload: &[u8]) -> std::io::Result<()> {
        let bytes = frame(tag, key, payload);
        let mut file = self.file.lock().expect("journal poisoned");
        file.write_all(&bytes)?;
        file.sync_all()
    }

    /// Append one completed round. Call only after the round's store
    /// flush, so the journal never acknowledges unpersisted work.
    ///
    /// # Errors
    ///
    /// Any I/O error appending or syncing.
    pub fn append_round(&self, record: &RoundRecord) -> std::io::Result<()> {
        let payload = serde_json::to_vec(record)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.append(TAG_ROUND, u64::from(record.round), &payload)
    }

    /// Append the completion record: the run finished after `rounds`
    /// rounds.
    ///
    /// # Errors
    ///
    /// Any I/O error appending or syncing.
    pub fn append_complete(&self, rounds: u32) -> std::io::Result<()> {
        let payload = serde_json::to_vec(&CompleteRecord { rounds })
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.append(TAG_COMPLETE, u64::from(rounds), &payload)
    }

    /// Load a journal, dropping any torn tail. The replay is usable
    /// whenever the header frame survived.
    ///
    /// # Errors
    ///
    /// A message when the file is unreadable, the header (file or
    /// frame) is missing or malformed, or the version/epoch does not
    /// match this build.
    pub fn load(path: &Path) -> Result<JournalReplay, String> {
        let data =
            std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        if data.len() < 20 {
            return Err(format!("{}: shorter than the journal header", path.display()));
        }
        if &data[..8] != JMAGIC {
            return Err(format!("{}: bad journal magic", path.display()));
        }
        let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != JOURNAL_VERSION {
            return Err(format!(
                "{}: journal version {version} (expected {JOURNAL_VERSION})",
                path.display()
            ));
        }
        let epoch = u64::from_le_bytes(data[12..20].try_into().expect("8 bytes"));
        if epoch != KEY_EPOCH {
            return Err(format!(
                "{}: key epoch {epoch} (expected {KEY_EPOCH})",
                path.display()
            ));
        }
        let body = &data[20..];
        let scan = store::scan_frames(body, |t| {
            matches!(t, TAG_HEADER | TAG_ROUND | TAG_COMPLETE)
        });
        let mut header = None;
        let mut rounds: Vec<RoundRecord> = Vec::new();
        let mut complete = false;
        let mut damaged = scan.truncated || scan.corrupt > 0;
        for (tag, _key, range) in scan.frames {
            let payload = &body[range];
            match tag {
                TAG_HEADER => match serde_json::from_slice::<JournalHeader>(payload) {
                    Ok(h) if header.is_none() => header = Some(h),
                    Ok(_) => damaged = true,
                    Err(_) => damaged = true,
                },
                TAG_ROUND => match serde_json::from_slice::<RoundRecord>(payload) {
                    // Rounds must arrive in order; anything else is a
                    // damaged (or foreign) journal.
                    Ok(r) if r.round as usize == rounds.len() + 1 => rounds.push(r),
                    _ => damaged = true,
                },
                TAG_COMPLETE => match serde_json::from_slice::<CompleteRecord>(payload) {
                    Ok(c) if c.rounds as usize == rounds.len() => complete = true,
                    _ => damaged = true,
                },
                _ => unreachable!("tag validated by scan_frames"),
            }
        }
        let Some(header) = header else {
            return Err(format!("{}: journal header record missing", path.display()));
        };
        Ok(JournalReplay { header, rounds, complete, damaged })
    }
}

/// Fingerprint a [`RewriteConfig`](crate::RewriteConfig) for the
/// journal header, covering every field that influences the output
/// bytes. Resuming under a different configuration would silently
/// diverge from the interrupted run, so `--resume` refuses when this
/// does not match the journaled value.
#[must_use]
pub fn config_fingerprint(cfg: &crate::RewriteConfig) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    cfg.mode.hash(&mut h);
    cfg.analysis.fingerprint().hash(&mut h);
    cfg.unwind.hash(&mut h);
    cfg.placement.hash(&mut h);
    cfg.poison_text.hash(&mut h);
    cfg.clone_tables.hash(&mut h);
    cfg.instr_gap.hash(&mut h);
    cfg.layout.hash(&mut h);
    cfg.indirect_site_padding.hash(&mut h);
    cfg.collect_artifacts.hash(&mut h);
    cfg.func_modes.hash(&mut h);
    // FaultPlan carries f64 probabilities; hash its canonical JSON.
    let plan = cfg
        .fault_plan
        .as_ref()
        .map(|p| serde_json::to_string(p).unwrap_or_default())
        .unwrap_or_default();
    plan.hash(&mut h);
    cfg.degradation.floor.hash(&mut h);
    cfg.degradation.max_below_floor.to_bits().hash(&mut h);
    cfg.audit_gate.hash(&mut h);
    // Mix through the record checksum so the journal fingerprint is
    // not the raw DefaultHasher state.
    checksum64(&[&h.finish().to_le_bytes()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RewriteConfig, RewriteMode};

    fn tmp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("icfgp-journal-{tag}-{}", std::process::id()));
        p
    }

    fn demo(entry: u64) -> JournalDemotion {
        JournalDemotion {
            entry,
            from: FuncMode::Full(RewriteMode::FuncPtr),
            to: FuncMode::Full(RewriteMode::Jt),
            reason: "verify: pinned divergence (test)".into(),
        }
    }

    #[test]
    fn roundtrip_and_complete() {
        let path = tmp_path("roundtrip");
        let j = RunJournal::create(&path, 0xAB, 0xCD).unwrap();
        j.append_round(&RoundRecord { round: 1, demotions: vec![demo(0x1000)] }).unwrap();
        j.append_round(&RoundRecord { round: 2, demotions: vec![] }).unwrap();
        j.append_complete(2).unwrap();
        let replay = RunJournal::load(&path).unwrap();
        assert_eq!(replay.header, JournalHeader { binary_fp: 0xAB, config_fp: 0xCD });
        assert_eq!(replay.rounds.len(), 2);
        assert_eq!(replay.rounds[0].demotions, vec![demo(0x1000)]);
        assert!(replay.complete);
        assert!(!replay.damaged);
        assert_eq!(replay.demotions().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let path = tmp_path("torn");
        {
            let j = RunJournal::create(&path, 1, 2).unwrap();
            j.append_round(&RoundRecord { round: 1, demotions: vec![demo(0x40)] }).unwrap();
            j.append_round(&RoundRecord { round: 2, demotions: vec![demo(0x80)] }).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Cut mid-way through the last frame, as a SIGKILL would.
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        let replay = RunJournal::load(&path).unwrap();
        assert_eq!(replay.rounds.len(), 1, "torn round dropped");
        assert!(replay.damaged);
        assert!(!replay.complete);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn header_mismatch_and_missing_are_errors() {
        let path = tmp_path("bad");
        std::fs::write(&path, b"not a journal").unwrap();
        assert!(RunJournal::load(&path).is_err());
        // Valid file header but no header frame.
        let mut body = Vec::new();
        body.extend_from_slice(JMAGIC);
        body.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        body.extend_from_slice(&KEY_EPOCH.to_le_bytes());
        std::fs::write(&path, &body).unwrap();
        assert!(RunJournal::load(&path).unwrap_err().contains("header record missing"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn config_fingerprint_tracks_every_knob() {
        let base = RewriteConfig::new(RewriteMode::FuncPtr);
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&base.clone()), "deterministic");
        let mut other = base.clone();
        other.mode = RewriteMode::Dir;
        assert_ne!(fp, config_fingerprint(&other));
        let mut other = base.clone();
        other.analysis.func_timeout_ms = Some(5);
        assert_ne!(fp, config_fingerprint(&other));
        let mut other = base.clone();
        other.func_modes.insert(0x99, FuncMode::Skip);
        assert_ne!(fp, config_fingerprint(&other));
    }
}
