//! Crash-safe persistent backing store for
//! [`RewriteCache`](crate::cache::RewriteCache).
//!
//! The in-process cache memoises per-function analysis, liveness,
//! relocation fragments and emitted code under content-addressed
//! 64-bit keys. This module persists those entries to disk so a later
//! `icfgp` invocation starts warm — with the hard invariant that a
//! corrupt, torn, stale or concurrently-written store can **never
//! change output bytes**, only cost a recompute.
//!
//! # On-disk format
//!
//! A store directory holds:
//!
//! * `seg-NNNNNN.seg` — append-only **segment files**, immutable once
//!   visible. Each flush serialises the pending records into a fresh
//!   segment, written to a temp file and atomically `rename`d into
//!   place, so readers only ever observe whole segments (a crash
//!   mid-flush leaves a `tmp-*` file that is ignored and reaped).
//! * `INDEX` — an advisory JSON index (segment names, record counts,
//!   whole-segment checksums). The index is *never trusted for
//!   correctness*: loads always scan the segment files themselves;
//!   the index only accelerates `icfgp cache stats` and lets `verify`
//!   tell "segment modified" apart from "index stale".
//! * `LOCK` — advisory writer lock (see below).
//!
//! Segment layout: a 20-byte header (`magic, format version, key
//! epoch`) followed by records. Each record is framed as
//! `tag u8 · key u64 · len u32 · checksum u64 · payload[len]` with the
//! checksum (FNV-1a/64 + avalanche finaliser) taken over
//! `tag ‖ key ‖ payload`. Payloads are the cached value in the
//! vendored serde's positional binary codec (`serde::to_bytes`), which
//! decodes straight into the typed record. Format version 1 held
//! serde-JSON payloads; its segments now fail the version check and
//! are quarantined like any other version skew.
//!
//! A load keeps each segment file as one shared buffer and indexes
//! its records by byte range, so a lookup hands out a
//! reference-counted [`RecordBytes`] view: nothing is copied, and
//! the store's lock is held only for the index probe.
//!
//! # Failure semantics (all graceful)
//!
//! | failure | handling |
//! |---|---|
//! | bad magic / unknown format version / wrong key epoch | whole segment quarantined |
//! | per-record checksum mismatch (bit flip) | record quarantined, scan continues |
//! | truncated segment / short read (torn write) | valid prefix kept, tail quarantined |
//! | payload fails to decode | record quarantined at lookup time |
//! | lock timeout (concurrent writer) | store opens **read-only**; flushes are deferred |
//! | any I/O error | logged, store degrades to miss-everything |
//!
//! Every one of these produces a structured [`StoreEvent`] and bumps a
//! [`StoreStats`] counter; none of them can surface as a cache hit, so
//! a warm run over an arbitrarily damaged store produces output bytes
//! identical to a cold run.
//!
//! # Lock protocol
//!
//! Writers hold `LOCK`, created with `O_CREAT|O_EXCL` and containing
//! the owner's PID. Acquisition polls up to a timeout
//! (`ICFGP_STORE_LOCK_MS`, default 2000); stale locks (owner PID dead
//! on Linux, or mtime older than 10 minutes elsewhere) are broken.
//! Readers need no lock: segments are immutable after rename, so a
//! reader racing a writer sees either the old or the new segment set,
//! both self-validating.

use crate::trace::{SpanKind, StoreOp, Trace, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Segment file magic.
const MAGIC: &[u8; 8] = b"ICFGPST\x01";
/// On-disk format version; a mismatch quarantines the segment.
/// Version 2: payloads in the binary record codec (version 1 was JSON).
pub const FORMAT_VERSION: u32 = 2;
/// Cache-key derivation epoch. Keys come from the standard library's
/// `DefaultHasher`, which is stable within one Rust release; bump this
/// when the key derivation in `cache.rs` changes — or when a persisted
/// payload type changes shape (epoch 3: `JumpTableDesc` gained bound
/// evidence, `FpDef` gained pointer evidence; epoch 4:
/// `AnalysisFailure` gained the watchdog `Budget` variant and
/// `AnalysisConfig` gained budget knobs; epoch 5: fragment/emit
/// stages re-keyed on the weak cross-binary identity and the emit
/// payload became the position-independent `RelocEmit` — per-binary
/// `Fragment`/`Emit` records from epoch 4 must not alias the new
/// keys; epoch 6: fragment keys that read the relocated set fold in
/// one hash of the set, not the set itself) — so stale stores are
/// quarantined instead of silently never hitting or mass-failing
/// decode.
pub const KEY_EPOCH: u64 = 6;
/// Segment header length: magic + version + epoch.
const HEADER_LEN: usize = 8 + 4 + 8;
/// Per-record frame length before the payload: tag + key + len + checksum.
const FRAME_LEN: usize = 1 + 8 + 4 + 8;
/// Upper bound on a single record payload (corrupt length fields must
/// not cause huge allocations).
const MAX_PAYLOAD: u32 = 256 << 20;
/// Cap on retained events (the overflow is counted, not kept).
const MAX_EVENTS: usize = 512;

/// The cached pipeline stage a record belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Per-function CFG analyses (with their dependency read-sets).
    Func,
    /// Per-function liveness results.
    Liveness,
    /// Per-function relocation fragments.
    Fragment,
    /// Per-function emitted code.
    Emit,
    /// Whole-binary audit reports (predictive mode gating).
    Audit,
}

impl Stage {
    /// Every stage, in tag order.
    pub const ALL: [Stage; 5] =
        [Stage::Func, Stage::Liveness, Stage::Fragment, Stage::Emit, Stage::Audit];

    pub(crate) fn tag(self) -> u8 {
        match self {
            Stage::Func => 1,
            Stage::Liveness => 2,
            Stage::Fragment => 3,
            Stage::Emit => 4,
            Stage::Audit => 5,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<Stage> {
        match tag {
            1 => Some(Stage::Func),
            2 => Some(Stage::Liveness),
            3 => Some(Stage::Fragment),
            4 => Some(Stage::Emit),
            5 => Some(Stage::Audit),
            _ => None,
        }
    }

    /// Short display name (`cache stats`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Func => "func",
            Stage::Liveness => "liveness",
            Stage::Fragment => "fragment",
            Stage::Emit => "emit",
            Stage::Audit => "audit",
        }
    }
}

/// 64-bit record checksum: FNV-1a with a splitmix-style avalanche
/// finaliser. Independent of the standard library hasher, so the
/// on-disk format does not move with Rust releases.
#[must_use]
pub fn checksum64(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // Avalanche so single-bit flips flip ~half the checksum bits.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// What happened inside the store, for logs and `icfgp cache stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum StoreEventKind {
    /// Store directory opened (or created).
    Opened,
    /// A segment (or its tail) failed validation and was quarantined.
    Quarantined,
    /// A record failed its checksum and was skipped.
    ChecksumMismatch,
    /// A segment ended mid-record (torn write); the tail was dropped.
    TruncatedSegment,
    /// A segment carried an unknown format version or key epoch.
    VersionMismatch,
    /// A persisted payload failed to deserialise at lookup time.
    DecodeFailure,
    /// The writer lock could not be acquired in time; read-only mode.
    LockTimeout,
    /// A stale writer lock (dead owner) was broken.
    StaleLockBroken,
    /// Pending records were flushed to a new segment.
    Flushed,
    /// An I/O error degraded the operation to a no-op.
    IoError,
    /// A fault-injection hook fired (chaos campaigns).
    FaultInjected,
}

/// One structured store event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreEvent {
    /// Event class.
    pub kind: StoreEventKind,
    /// Human-readable context (file name, key, error text).
    pub detail: String,
}

impl std::fmt::Display for StoreEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.kind, self.detail)
    }
}

/// Persistent-store counters — a projection of the unified trace
/// stream (see [`Registry`](crate::trace::Registry)), all
/// monotonically increasing over the store's lifetime;
/// [`RewriteStats`](crate::RewriteStats) carries the per-rewrite
/// delta. Conservation between the fields
/// (`hits + misses + lookup_quarantines == lookups`) is asserted in
/// exactly one place, [`Registry::check`](crate::trace::Registry::check).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Store lookups started (every `get` entry path, including
    /// lookups served while the store is disabled).
    #[serde(default)]
    pub lookups: u64,
    /// Lookups served from the persisted store.
    pub hits: u64,
    /// Persisted lookups that found nothing. A lookup whose payload was
    /// present but unusable counts under `lookup_quarantines` instead,
    /// never here — hits, misses and lookup-time quarantines are
    /// disjoint.
    pub misses: u64,
    /// Lookups whose payload was present but unusable (decode failure,
    /// re-validation mismatch): the earlier hit re-classified. Always a
    /// subset of `quarantined_records`.
    #[serde(default)]
    pub lookup_quarantines: u64,
    /// Records loaded from disk (across all loads/reloads).
    pub records_loaded: u64,
    /// Segments loaded cleanly.
    pub segments_loaded: u64,
    /// Records rejected by checksum, framing or decode failure.
    pub quarantined_records: u64,
    /// Whole segments rejected (bad header, version or epoch).
    pub quarantined_segments: u64,
    /// Records written out by flushes.
    pub flushed_records: u64,
    /// Flushes that produced a segment.
    pub flushes: u64,
    /// I/O errors absorbed.
    pub io_errors: u64,
    /// Writer-lock acquisition timeouts.
    pub lock_timeouts: u64,
    /// Transient-failure retries run by the backoff policy (contended
    /// flushes re-attempted, short reads re-read).
    #[serde(default)]
    pub retries: u64,
}

impl StoreStats {
    /// Per-rewrite delta against an earlier snapshot.
    #[must_use]
    pub fn delta_since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            lookups: self.lookups - earlier.lookups,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            lookup_quarantines: self.lookup_quarantines - earlier.lookup_quarantines,
            records_loaded: self.records_loaded - earlier.records_loaded,
            segments_loaded: self.segments_loaded - earlier.segments_loaded,
            quarantined_records: self.quarantined_records - earlier.quarantined_records,
            quarantined_segments: self.quarantined_segments - earlier.quarantined_segments,
            flushed_records: self.flushed_records - earlier.flushed_records,
            flushes: self.flushes - earlier.flushes,
            io_errors: self.io_errors - earlier.io_errors,
            lock_timeouts: self.lock_timeouts - earlier.lock_timeouts,
            retries: self.retries - earlier.retries,
        }
    }

    /// Total persisted lookups.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of persisted lookups served from disk (0.0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// Deterministic I/O fault injection, armed by the chaos layer
/// ([`FaultPlan`](crate::FaultPlan) store knobs). Faults only ever
/// *damage* persistence — they must never change rewrite output bytes,
/// which is exactly the invariant the campaigns assert.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StoreFaults {
    /// PRNG seed for the fault draws.
    pub seed: u64,
    /// Probability a flush writes a torn (truncated mid-record) segment.
    pub torn_write: f64,
    /// Probability a flushed segment gets one bit flipped.
    pub bit_flip: f64,
    /// Probability a segment load is cut short (simulated short read).
    pub short_read: f64,
    /// Probability a flush simulates writer-lock contention and defers.
    pub lock_contention: f64,
}

impl StoreFaults {
    /// Whether any fault class is armed.
    #[must_use]
    pub fn any(&self) -> bool {
        self.torn_write > 0.0
            || self.bit_flip > 0.0
            || self.short_read > 0.0
            || self.lock_contention > 0.0
    }
}

/// A deliberately simple seeded PRNG for the fault hooks (splitmix64);
/// the store must not depend on `rand`'s sampling details.
struct FaultRng(u64);

impl FaultRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && (self.next() % 10_000) < (p * 10_000.0) as u64
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next() % n
        }
    }
}

/// Total attempts, the first included, at a transiently failing store
/// operation (a short read, lock contention) before the one-shot
/// fallback: accept the torn view, or defer the flush.
const RETRY_ATTEMPTS: u32 = 3;
/// Backoff before the first retry, in milliseconds; doubles per retry.
const RETRY_BASE_MS: u64 = 2;
/// Upper bound on any one backoff, in milliseconds.
const RETRY_MAX_MS: u64 = 50;

/// The backoff slept before retry `attempt` (1-based): exponential from
/// [`RETRY_BASE_MS`], capped at [`RETRY_MAX_MS`], with ±50% jitter from
/// a fixed splitmix64 stream, so the schedule is deterministic.
fn retry_delay_ms(attempt: u32) -> u64 {
    let capped = (RETRY_BASE_MS.saturating_mul(1 << attempt.min(16)) / 2).min(RETRY_MAX_MS);
    if capped == 0 {
        return 0;
    }
    let draw = FaultRng(u64::from(attempt) << 32).next() % capped;
    (capped / 2 + draw).min(RETRY_MAX_MS)
}

/// One verified record payload: a shared, read-only view into the
/// buffer it arrived in (a loaded segment or the encoder's own
/// output). Cloning bumps a reference count; the bytes are never
/// copied. The store hands these out as opaque bytes — only the cache
/// decodes them.
#[derive(Clone)]
pub struct RecordBytes {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl RecordBytes {
    /// The bytes at `range` of a shared buffer.
    fn slice(buf: &Arc<Vec<u8>>, range: Range<usize>) -> RecordBytes {
        RecordBytes { buf: Arc::clone(buf), start: range.start, end: range.end }
    }
}

impl From<Vec<u8>> for RecordBytes {
    fn from(bytes: Vec<u8>) -> RecordBytes {
        let end = bytes.len();
        RecordBytes { buf: Arc::new(bytes), start: 0, end }
    }
}

impl std::ops::Deref for RecordBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl PartialEq for RecordBytes {
    fn eq(&self, other: &RecordBytes) -> bool {
        **self == **other
    }
}

impl Eq for RecordBytes {}

impl PartialEq<Vec<u8>> for RecordBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl std::fmt::Debug for RecordBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RecordBytes({} byte(s))", self.len())
    }
}

/// Advisory index sidecar (`INDEX`): accelerates stats and lets
/// `verify` distinguish stale indexes from modified segments. Never
/// trusted for record data.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StoreIndex {
    /// On-disk format version at write time.
    pub version: u32,
    /// Key-derivation epoch at write time.
    pub key_epoch: u64,
    /// Per-segment summaries.
    pub segments: Vec<SegmentSummary>,
}

/// One segment's advisory summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentSummary {
    /// Segment file name.
    pub name: String,
    /// Records the segment held when written.
    pub records: u64,
    /// Segment length in bytes when written.
    pub bytes: u64,
    /// Checksum of the whole segment file when written.
    pub checksum: u64,
}

struct Pending {
    stage: Stage,
    key: u64,
    payload: RecordBytes,
}

#[derive(Default)]
struct Inner {
    /// Loaded records: (stage, key) → payload view into its segment
    /// buffer (checksum-verified at load; decoded lazily at lookup).
    records: HashMap<(Stage, u64), RecordBytes>,
    /// Records computed this process, awaiting flush.
    pending: Vec<Pending>,
    /// Keys already persisted or pending (avoid duplicate appends).
    known: HashMap<(Stage, u64), ()>,
    events: Vec<StoreEvent>,
    events_dropped: u64,
    faults: Option<(StoreFaults, FaultRng)>,
}

/// Outcome of one flush attempt: finished (possibly with nothing to
/// do), or failed transiently and worth a retry.
enum FlushOnce {
    Done(usize),
    Transient,
}

/// The crash-safe persistent rewrite-cache store. Open one per cache
/// directory and attach it with
/// [`RewriteCache::with_store`](crate::RewriteCache::with_store).
/// All counting goes through the unified [`Trace`] spine; `stats()` is
/// the registry's store projection.
pub struct CacheStore {
    dir: PathBuf,
    inner: Mutex<Inner>,
    trace: Arc<Trace>,
    /// Writer role: the advisory lock was acquired at open.
    writer: bool,
    /// Hard-disabled after an unrecoverable I/O error at open.
    disabled: bool,
}

impl std::fmt::Debug for CacheStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheStore")
            .field("dir", &self.dir)
            .field("writer", &self.writer)
            .field("disabled", &self.disabled)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Parse an environment variable holding a millisecond count, following
/// the `ICFGP_THREADS` contract: unset, empty, or whitespace-only means
/// "no override" (`Ok(None)`); anything else must parse as a
/// non-negative integer or the value is a usage error naming the
/// variable. The CLI validates with this up front and exits 64 on
/// `Err`; library callers fall back to their default.
///
/// # Errors
///
/// A usage message naming `var` when `raw` is non-empty but not a
/// non-negative integer.
pub fn env_millis(var: &str, raw: Option<&str>) -> Result<Option<u64>, String> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    trimmed
        .parse::<u64>()
        .map(Some)
        .map_err(|_| format!("{var} must be a non-negative integer (milliseconds), got {raw:?}"))
}

/// The writer-lock acquisition timeout: `ICFGP_STORE_LOCK_MS`
/// (milliseconds), default 2000. Invalid values fall back to the
/// default here; the CLI rejects them up front with usage exit 64 via
/// [`env_millis`].
#[must_use]
pub fn lock_timeout() -> Duration {
    let raw = std::env::var("ICFGP_STORE_LOCK_MS").ok();
    let ms = env_millis("ICFGP_STORE_LOCK_MS", raw.as_deref()).ok().flatten().unwrap_or(2000);
    Duration::from_millis(ms)
}

impl CacheStore {
    /// Open (creating if necessary) the store at `dir` and load every
    /// valid record. Never fails hard: unusable directories produce a
    /// disabled store that misses everything, with the reason in
    /// [`CacheStore::events`].
    #[must_use]
    pub fn open(dir: &Path) -> CacheStore {
        CacheStore::open_with_timeout(dir, lock_timeout())
    }

    /// [`CacheStore::open`] with an explicit lock timeout (tests).
    #[must_use]
    pub fn open_with_timeout(dir: &Path, lock_wait: Duration) -> CacheStore {
        CacheStore::open_traced(dir, lock_wait, Trace::new())
    }

    /// Open the store onto an existing trace spine (a `--trace` run's
    /// recording spine, or a chaos campaign's shared collector).
    #[must_use]
    pub fn open_traced(dir: &Path, lock_wait: Duration, trace: Arc<Trace>) -> CacheStore {
        let mut store = CacheStore {
            dir: dir.to_path_buf(),
            inner: Mutex::new(Inner::default()),
            trace,
            writer: false,
            disabled: false,
        };
        let trace = Arc::clone(&store.trace);
        let _span = trace.span(SpanKind::StoreOpen);
        if let Err(e) = std::fs::create_dir_all(dir) {
            store.disabled = true;
            store.event(StoreEventKind::IoError, format!("create {}: {e}", dir.display()));
            store.emit(StoreOp::IoError);
            return store;
        }
        store.writer = store.acquire_lock(lock_wait);
        if store.writer {
            store.reap_temp_files();
            let swept = sweep_stale_quarantine(dir);
            if swept > 0 {
                store.event(
                    StoreEventKind::Quarantined,
                    format!("swept {swept} stale-epoch quarantined file(s)"),
                );
            }
        }
        let loaded_before = store.trace.registry().store_stats().records_loaded;
        store.load_all();
        let loaded = store.trace.registry().store_stats().records_loaded - loaded_before;
        store.event(
            StoreEventKind::Opened,
            format!(
                "{} ({}, {loaded} record(s))",
                dir.display(),
                if store.writer { "writer" } else { "read-only" },
            ),
        );
        store
    }

    /// The trace spine this store emits through.
    #[must_use]
    pub fn trace(&self) -> Arc<Trace> {
        Arc::clone(&self.trace)
    }

    /// Emit one store operation onto the trace.
    fn emit(&self, op: StoreOp) {
        self.trace.emit(TraceEvent::Store { op });
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether this process holds the writer lock (flushes persist).
    #[must_use]
    pub fn is_writer(&self) -> bool {
        self.writer
    }

    /// Counter snapshot — the registry's store projection.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.trace.registry().store_stats()
    }

    /// Structured events so far (bounded; overflow is dropped oldest).
    #[must_use]
    pub fn events(&self) -> Vec<StoreEvent> {
        self.inner.lock().expect("store poisoned").events.clone()
    }

    /// Per-stage count of loaded (usable) records.
    #[must_use]
    pub fn entry_counts(&self) -> Vec<(Stage, usize)> {
        let inner = self.inner.lock().expect("store poisoned");
        Stage::ALL
            .iter()
            .map(|s| (*s, inner.records.keys().filter(|(st, _)| st == s).count()))
            .collect()
    }

    /// Arm deterministic I/O fault injection (chaos campaigns).
    pub fn arm_faults(&self, faults: StoreFaults) {
        let mut inner = self.inner.lock().expect("store poisoned");
        if faults.any() {
            let rng = FaultRng(faults.seed ^ 0x0051_570F_A017_u64);
            inner.faults = Some((faults, rng));
        } else {
            inner.faults = None;
        }
    }

    fn event(&self, kind: StoreEventKind, detail: String) {
        let mut inner = self.inner.lock().expect("store poisoned");
        if inner.events.len() >= MAX_EVENTS {
            inner.events.remove(0);
            inner.events_dropped += 1;
        }
        inner.events.push(StoreEvent { kind, detail });
    }

    // ----- lock protocol -------------------------------------------------

    fn lock_path(&self) -> PathBuf {
        self.dir.join("LOCK")
    }

    fn acquire_lock(&self, wait: Duration) -> bool {
        let path = self.lock_path();
        let deadline = Instant::now() + wait;
        loop {
            match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    let _ = writeln!(f, "{}", std::process::id());
                    let _ = f.sync_all();
                    return true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if lock_file_is_stale(&path) {
                        let _ = std::fs::remove_file(&path);
                        self.event(
                            StoreEventKind::StaleLockBroken,
                            format!("{}", path.display()),
                        );
                        continue;
                    }
                    if Instant::now() >= deadline {
                        self.emit(StoreOp::LockTimeout);
                        self.event(
                            StoreEventKind::LockTimeout,
                            format!("{} held by another process; read-only", path.display()),
                        );
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    self.emit(StoreOp::IoError);
                    self.event(StoreEventKind::IoError, format!("lock: {e}"));
                    return false;
                }
            }
        }
    }

    fn release_lock(&self) {
        if self.writer {
            let _ = std::fs::remove_file(self.lock_path());
        }
    }

    fn reap_temp_files(&self) {
        // Leftovers from a writer that crashed before rename.
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                if name.to_string_lossy().starts_with("tmp-") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }

    // ----- load ----------------------------------------------------------

    fn segment_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = match std::fs::read_dir(dir) {
            Ok(entries) => entries
                .flatten()
                .filter_map(|e| {
                    let n = e.file_name().to_string_lossy().into_owned();
                    (n.starts_with("seg-") && n.ends_with(".seg")).then_some(n)
                })
                .collect(),
            Err(_) => Vec::new(),
        };
        names.sort();
        names
    }

    fn load_all(&self) {
        if self.disabled {
            return;
        }
        for name in Self::segment_names(&self.dir) {
            self.load_segment(&name);
        }
    }

    /// Re-scan the directory, replacing the loaded record set. Used
    /// after external writes (another process flushed) and by the
    /// chaos campaigns to exercise load-path robustness.
    pub fn reload(&self) {
        {
            let mut inner = self.inner.lock().expect("store poisoned");
            inner.records.clear();
            let pending_keys: Vec<(Stage, u64)> =
                inner.pending.iter().map(|p| (p.stage, p.key)).collect();
            inner.known.clear();
            for k in pending_keys {
                inner.known.insert(k, ());
            }
        }
        self.load_all();
    }

    fn load_segment(&self, name: &str) {
        let path = self.dir.join(name);
        // Short reads are transient: re-read up to the retry budget
        // before accepting a torn view of the segment.
        let mut attempt = 0;
        let data = loop {
            let mut data = match std::fs::read(&path) {
                Ok(d) => d,
                Err(e) => {
                    self.emit(StoreOp::IoError);
                    self.event(StoreEventKind::IoError, format!("read {name}: {e}"));
                    return;
                }
            };
            // Injected short read: drop a suffix before parsing.
            let short = {
                let mut inner = self.inner.lock().expect("store poisoned");
                match &mut inner.faults {
                    Some((f, rng)) if !data.is_empty() => {
                        if rng.chance(f.short_read) {
                            Some(rng.below(data.len() as u64) as usize)
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            };
            let Some(keep) = short else { break data };
            if attempt + 1 >= RETRY_ATTEMPTS {
                data.truncate(keep);
                self.event(
                    StoreEventKind::FaultInjected,
                    format!("short read of {name}: kept {keep} byte(s)"),
                );
                break data;
            }
            attempt += 1;
            self.emit(StoreOp::Retry);
            self.event(
                StoreEventKind::FaultInjected,
                format!("short read of {name}: re-reading (attempt {})", attempt + 1),
            );
            let delay = retry_delay_ms(attempt);
            if delay > 0 {
                std::thread::sleep(Duration::from_millis(delay));
            }
        };
        match scan_segment(&data) {
            SegmentScan::BadHeader(reason) => {
                self.emit(StoreOp::SegmentQuarantined);
                let kind = if reason.contains("version") || reason.contains("epoch") {
                    StoreEventKind::VersionMismatch
                } else {
                    StoreEventKind::Quarantined
                };
                self.event(kind, format!("{name}: {reason}"));
                self.quarantine_segment(name);
            }
            SegmentScan::Records { records, corrupt_records, truncated } => {
                let data = Arc::new(data);
                let mut inner = self.inner.lock().expect("store poisoned");
                let n = records.len() as u64;
                for (stage, key, range) in records {
                    inner.known.insert((stage, key), ());
                    inner.records.insert((stage, key), RecordBytes::slice(&data, range));
                }
                drop(inner);
                self.emit(StoreOp::Loaded { records: n });
                if corrupt_records > 0 {
                    self.emit(StoreOp::RecordsQuarantined { n: corrupt_records });
                    self.event(
                        StoreEventKind::ChecksumMismatch,
                        format!("{name}: {corrupt_records} corrupt record(s) quarantined"),
                    );
                }
                if truncated {
                    self.emit(StoreOp::RecordsQuarantined { n: 1 });
                    self.event(
                        StoreEventKind::TruncatedSegment,
                        format!("{name}: torn tail dropped"),
                    );
                }
            }
        }
    }

    fn quarantine_segment(&self, name: &str) {
        if !self.writer {
            return; // readers only skip; the writer relocates.
        }
        let from = self.dir.join(name);
        let to = self.dir.join(format!("{name}.quarantined"));
        if std::fs::rename(&from, &to).is_ok() {
            self.event(StoreEventKind::Quarantined, format!("{name} -> {name}.quarantined"));
        }
    }

    // ----- lookup / insert ----------------------------------------------

    /// Fetch a verified payload. `None` counts as a persisted miss.
    /// The store lock covers only the index probe and a reference-count
    /// bump; the payload itself is shared, not copied.
    pub(crate) fn get(&self, stage: Stage, key: u64) -> Option<RecordBytes> {
        self.emit(StoreOp::Lookup { stage });
        if self.disabled {
            // A disabled store still answered the lookup (with a
            // miss); not counting it here broke the
            // hits+misses+quarantines == lookups conservation law the
            // registry now asserts.
            self.emit(StoreOp::Miss { stage });
            return None;
        }
        let found = self.inner.lock().expect("store poisoned").records.get(&(stage, key)).cloned();
        self.emit(if found.is_some() { StoreOp::Hit { stage } } else { StoreOp::Miss { stage } });
        found
    }

    /// Record a lookup whose payload was present but unusable
    /// (deserialisation failure, dependency-validation mismatch from a
    /// *corrupt* source). Converts the earlier hit into a quarantine —
    /// and only a quarantine: folding it into `misses` as well would
    /// double-count the lookup in every stats rollup.
    pub(crate) fn quarantine_record(&self, stage: Stage, key: u64, why: &str) {
        let mut inner = self.inner.lock().expect("store poisoned");
        inner.records.remove(&(stage, key));
        drop(inner);
        self.emit(StoreOp::LookupQuarantine { stage });
        self.event(
            StoreEventKind::DecodeFailure,
            format!("{}:{key:#018x}: {why}", stage.name()),
        );
    }

    /// Buffer a freshly-computed record for the next flush.
    pub(crate) fn put(&self, stage: Stage, key: u64, payload: Vec<u8>) {
        if self.disabled {
            return;
        }
        let mut inner = self.inner.lock().expect("store poisoned");
        if inner.known.contains_key(&(stage, key)) {
            return;
        }
        inner.known.insert((stage, key), ());
        inner.pending.push(Pending { stage, key, payload: payload.into() });
    }

    /// Pending (unflushed) record count.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.inner.lock().expect("store poisoned").pending.len()
    }

    // ----- flush ---------------------------------------------------------

    /// Write every pending record into a fresh segment (temp file +
    /// atomic rename) and update the advisory index. Returns the
    /// number of records persisted; 0 when there is nothing pending,
    /// the store is read-only, or a failure deferred the flush
    /// (records stay pending — never lost, never torn). Transient
    /// failures — lock contention, I/O errors — are retried with
    /// jittered backoff, `RETRY_ATTEMPTS` attempts in all, before
    /// deferring.
    pub fn flush(&self) -> usize {
        if self.disabled || !self.writer {
            return 0;
        }
        if self.pending_len() == 0 {
            return 0;
        }
        let span = self.trace.span(SpanKind::StoreFlush);
        let mut flushed = 0;
        for attempt in 0..RETRY_ATTEMPTS {
            match self.flush_once() {
                FlushOnce::Done(n) => {
                    flushed = n;
                    break;
                }
                FlushOnce::Transient => {
                    if attempt + 1 == RETRY_ATTEMPTS {
                        break; // budget exhausted: defer to a later flush
                    }
                    self.emit(StoreOp::Retry);
                    let delay = retry_delay_ms(attempt + 1);
                    if delay > 0 {
                        std::thread::sleep(Duration::from_millis(delay));
                    }
                }
            }
        }
        span.close();
        flushed
    }

    fn flush_once(&self) -> FlushOnce {
        let (pending, torn_at, flip) = {
            let mut inner = self.inner.lock().expect("store poisoned");
            if inner.pending.is_empty() {
                return FlushOnce::Done(0);
            }
            // Injected lock contention: behave exactly like a writer
            // that lost the lock — defer, keep pending.
            let mut defer = false;
            let mut torn_at = None;
            let mut flip = None;
            if let Some((f, rng)) = &mut inner.faults {
                if rng.chance(f.lock_contention) {
                    defer = true;
                } else {
                    if rng.chance(f.torn_write) {
                        torn_at = Some(rng.next());
                    }
                    if rng.chance(f.bit_flip) {
                        flip = Some(rng.next());
                    }
                }
            }
            if defer {
                drop(inner);
                self.emit(StoreOp::LockTimeout);
                self.event(
                    StoreEventKind::FaultInjected,
                    "injected lock contention: flush deferred".to_string(),
                );
                return FlushOnce::Transient;
            }
            (std::mem::take(&mut inner.pending), torn_at, flip)
        };

        let mut body = Vec::with_capacity(1 << 16);
        body.extend_from_slice(MAGIC);
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&KEY_EPOCH.to_le_bytes());
        for p in &pending {
            encode_record(&mut body, p.stage, p.key, &p.payload);
        }
        let records = pending.len();

        // Fault: tear the segment inside the record area.
        if let Some(r) = torn_at {
            let cut = HEADER_LEN + (r as usize % (body.len() - HEADER_LEN).max(1));
            body.truncate(cut);
            self.event(
                StoreEventKind::FaultInjected,
                format!("torn write: segment cut to {cut} byte(s)"),
            );
        }
        // Fault: flip one bit anywhere in the segment.
        if let Some(r) = flip {
            if !body.is_empty() {
                let bit = r as usize % (body.len() * 8);
                body[bit / 8] ^= 1 << (bit % 8);
                self.event(
                    StoreEventKind::FaultInjected,
                    format!("bit flip at bit {bit}"),
                );
            }
        }

        let next = Self::segment_names(&self.dir)
            .iter()
            .filter_map(|n| n[4..10].parse::<u64>().ok())
            .max()
            .map_or(0, |n| n + 1);
        let name = format!("seg-{next:06}.seg");
        match self.write_atomically(&name, &body) {
            Ok(()) => {
                // The flushed records are now on disk; keep them
                // queryable in memory.
                let mut inner = self.inner.lock().expect("store poisoned");
                for p in pending {
                    inner.records.insert((p.stage, p.key), p.payload);
                }
                drop(inner);
                self.emit(StoreOp::Flushed { records: records as u64 });
                self.event(
                    StoreEventKind::Flushed,
                    format!("{records} record(s) -> {name}"),
                );
                self.write_index();
                FlushOnce::Done(records)
            }
            Err(e) => {
                // Put the records back; a retry or later flush re-takes them.
                let mut inner = self.inner.lock().expect("store poisoned");
                inner.pending.extend(pending);
                drop(inner);
                self.emit(StoreOp::IoError);
                self.event(StoreEventKind::IoError, format!("flush {name}: {e}"));
                FlushOnce::Transient
            }
        }
    }

    fn write_atomically(&self, name: &str, body: &[u8]) -> std::io::Result<()> {
        write_atomic(&self.dir, name, body)
    }

    fn write_index(&self) {
        if let Err(e) = write_index_file(&self.dir) {
            self.emit(StoreOp::IoError);
            self.event(StoreEventKind::IoError, format!("index: {e}"));
        }
    }

    /// Read the advisory index, if present and parseable.
    #[must_use]
    pub fn read_index(dir: &Path) -> Option<StoreIndex> {
        let data = std::fs::read(dir.join("INDEX")).ok()?;
        serde_json::from_slice(&data).ok()
    }
}

impl Drop for CacheStore {
    fn drop(&mut self) {
        // Flush-on-exit: best effort, never panics.
        if self.writer && !self.disabled {
            self.flush();
        }
        self.release_lock();
    }
}

/// Whether a `LOCK` file belongs to a dead owner. On Linux the owner
/// PID is recorded in the file; elsewhere (or when unreadable) fall
/// back to age.
fn lock_file_is_stale(path: &Path) -> bool {
    if let Ok(content) = std::fs::read_to_string(path) {
        if let Ok(pid) = content.trim().parse::<u32>() {
            // A live owner (including another store in this very
            // process) is never stale.
            if cfg!(target_os = "linux") {
                return !Path::new(&format!("/proc/{pid}")).exists();
            }
        }
    }
    match std::fs::metadata(path).and_then(|m| m.modified()) {
        Ok(mtime) => match mtime.elapsed() {
            Ok(age) => age > Duration::from_secs(600),
            Err(_) => false,
        },
        Err(_) => false,
    }
}

/// Write `body` to `dir/name` via a temp file and atomic rename.
fn write_atomic(dir: &Path, name: &str, body: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!("tmp-{}-{name}", std::process::id()));
    let path = dir.join(name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)
}

/// Rebuild the advisory `INDEX` from the segment files on disk.
fn write_index_file(dir: &Path) -> std::io::Result<()> {
    let mut index = StoreIndex {
        version: FORMAT_VERSION,
        key_epoch: KEY_EPOCH,
        segments: Vec::new(),
    };
    for name in CacheStore::segment_names(dir) {
        let Ok(data) = std::fs::read(dir.join(&name)) else { continue };
        let records = match scan_segment(&data) {
            SegmentScan::Records { records, .. } => records.len() as u64,
            SegmentScan::BadHeader(_) => 0,
        };
        index.segments.push(SegmentSummary {
            name,
            records,
            bytes: data.len() as u64,
            checksum: checksum64(&[&data]),
        });
    }
    let json = serde_json::to_vec(&index)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{e:?}")))?;
    write_atomic(dir, "INDEX", &json)
}

/// Append one checksummed record frame (`tag ‖ key ‖ len ‖ checksum ‖
/// payload`, all little-endian).
fn encode_record(out: &mut Vec<u8>, stage: Stage, key: u64, payload: &[u8]) {
    let tag = stage.tag();
    out.push(tag);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let sum = checksum64(&[&[tag], &key.to_le_bytes(), payload]);
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(payload);
}

enum SegmentScan {
    BadHeader(String),
    Records {
        /// `(stage, key, payload range)`; ranges index the whole
        /// segment image, header included.
        records: Vec<(Stage, u64, Range<usize>)>,
        corrupt_records: u64,
        truncated: bool,
    },
}

/// Parse one segment image: header check, then record-by-record
/// checksum validation. Framing damage (implausible length, unknown
/// tag) ends the scan with the tail dropped; a checksum mismatch with
/// intact framing skips just that record.
fn scan_segment(data: &[u8]) -> SegmentScan {
    if data.len() < HEADER_LEN {
        return SegmentScan::BadHeader("shorter than the header".into());
    }
    if &data[..8] != MAGIC {
        return SegmentScan::BadHeader("bad magic".into());
    }
    let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return SegmentScan::BadHeader(format!(
            "format version {version} (expected {FORMAT_VERSION})"
        ));
    }
    let epoch = u64::from_le_bytes(data[12..20].try_into().expect("8 bytes"));
    if epoch != KEY_EPOCH {
        return SegmentScan::BadHeader(format!("key epoch {epoch} (expected {KEY_EPOCH})"));
    }
    let mut records = Vec::new();
    let mut corrupt_records = 0u64;
    let mut truncated = false;
    let mut at = HEADER_LEN;
    while at < data.len() {
        if data.len() - at < FRAME_LEN {
            truncated = true;
            break;
        }
        let tag = data[at];
        let key = u64::from_le_bytes(data[at + 1..at + 9].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(data[at + 9..at + 13].try_into().expect("4 bytes"));
        let sum = u64::from_le_bytes(data[at + 13..at + 21].try_into().expect("8 bytes"));
        let Some(stage) = Stage::from_tag(tag) else {
            truncated = true;
            break;
        };
        if len > MAX_PAYLOAD || data.len() - at - FRAME_LEN < len as usize {
            truncated = true;
            break;
        }
        let range = at + FRAME_LEN..at + FRAME_LEN + len as usize;
        if checksum64(&[&[tag], &key.to_le_bytes(), &data[range.clone()]]) == sum {
            records.push((stage, key, range));
        } else {
            corrupt_records += 1;
        }
        at += FRAME_LEN + len as usize;
    }
    SegmentScan::Records { records, corrupt_records, truncated }
}

// ----- offline maintenance (icfgp cache …) -------------------------------

/// Result of [`verify_dir`]: a full checksum sweep of a store
/// directory, without taking the lock or touching any file.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StoreVerifyReport {
    /// Segments scanned.
    pub segments: u64,
    /// Valid records across all segments.
    pub valid_records: u64,
    /// Records rejected by checksum.
    pub corrupt_records: u64,
    /// Segments with a bad header/version/epoch.
    pub bad_segments: u64,
    /// Segments with a torn tail.
    pub truncated_segments: u64,
    /// Previously-quarantined segment files present.
    pub quarantined_files: u64,
    /// Total bytes held by quarantined files (bounded by sweeps at
    /// writer open, `cache compact` and `cache clear`).
    #[serde(default)]
    pub quarantined_bytes: u64,
    /// The advisory index matches the segment files.
    pub index_consistent: bool,
    /// Total store size in bytes (segments + index).
    pub total_bytes: u64,
    /// Per-segment human-readable problems.
    pub problems: Vec<String>,
}

impl StoreVerifyReport {
    /// A store with zero detected damage.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.corrupt_records == 0
            && self.bad_segments == 0
            && self.truncated_segments == 0
            && self.quarantined_files == 0
    }
}

/// Integrity-check every record checksum in `dir` (read-only; safe to
/// run concurrently with a writer).
#[must_use]
pub fn verify_dir(dir: &Path) -> StoreVerifyReport {
    let mut report = StoreVerifyReport { index_consistent: true, ..StoreVerifyReport::default() };
    let index = CacheStore::read_index(dir);
    let names = CacheStore::segment_names(dir);
    for name in &names {
        let path = dir.join(name);
        let Ok(data) = std::fs::read(&path) else {
            report.problems.push(format!("{name}: unreadable"));
            report.bad_segments += 1;
            continue;
        };
        report.segments += 1;
        report.total_bytes += data.len() as u64;
        match scan_segment(&data) {
            SegmentScan::BadHeader(why) => {
                report.bad_segments += 1;
                report.problems.push(format!("{name}: {why}"));
            }
            SegmentScan::Records { records, corrupt_records, truncated } => {
                report.valid_records += records.len() as u64;
                report.corrupt_records += corrupt_records;
                if corrupt_records > 0 {
                    report.problems.push(format!("{name}: {corrupt_records} corrupt record(s)"));
                }
                if truncated {
                    report.truncated_segments += 1;
                    report.problems.push(format!("{name}: torn tail"));
                }
            }
        }
        if let Some(index) = &index {
            match index.segments.iter().find(|s| &s.name == name) {
                Some(s) if s.checksum == checksum64(&[&data]) => {}
                _ => report.index_consistent = false,
            }
        }
    }
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let n = entry.file_name().to_string_lossy().into_owned();
            if n.ends_with(".quarantined") {
                report.quarantined_files += 1;
                if let Ok(m) = entry.metadata() {
                    report.quarantined_bytes += m.len();
                }
            }
            if n == "INDEX" {
                if let Ok(m) = entry.metadata() {
                    report.total_bytes += m.len();
                }
            }
        }
    }
    if index.is_none() && !names.is_empty() {
        report.index_consistent = false;
    }
    report
}

/// Count the `*.quarantined` files in `dir` and their total bytes
/// (read-only; `icfgp cache stats` reports this so quarantine growth
/// is observable).
#[must_use]
pub fn quarantine_usage(dir: &Path) -> (u64, u64) {
    let mut files = 0u64;
    let mut bytes = 0u64;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let n = entry.file_name().to_string_lossy().into_owned();
            if n.ends_with(".quarantined") {
                files += 1;
                if let Ok(m) = entry.metadata() {
                    bytes += m.len();
                }
            }
        }
    }
    (files, bytes)
}

/// Delete `*.quarantined` files whose embedded header belongs to an
/// older format version or key epoch, or is unreadable. Such files
/// exist only for post-mortem inspection, and once the epoch has moved
/// on there is nothing left to learn from them — without a sweep they
/// accumulate forever. Current-epoch quarantined files (recent damage)
/// are kept for inspection until `cache compact`/`clear` removes every
/// quarantined file. Runs at writer open. Returns the number removed.
pub fn sweep_stale_quarantine(dir: &Path) -> u64 {
    let mut removed = 0u64;
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    for entry in entries.flatten() {
        let n = entry.file_name().to_string_lossy().into_owned();
        if !n.ends_with(".quarantined") {
            continue;
        }
        let stale = match std::fs::read(entry.path()) {
            Ok(data) => {
                data.len() < HEADER_LEN
                    || &data[..8] != MAGIC
                    || u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"))
                        != FORMAT_VERSION
                    || u64::from_le_bytes(data[12..20].try_into().expect("8 bytes")) != KEY_EPOCH
            }
            Err(_) => true,
        };
        if stale && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Delete every store file in `dir` (segments, index, quarantined
/// files, stale temp files). Returns the number of files removed.
///
/// # Errors
///
/// The first I/O error encountered while listing the directory
/// (missing directories count as already clear).
pub fn clear_dir(dir: &Path) -> Result<usize, std::io::Error> {
    let mut removed = 0usize;
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    for entry in entries.flatten() {
        let n = entry.file_name().to_string_lossy().into_owned();
        let is_store_file = (n.starts_with("seg-") && n.ends_with(".seg"))
            || n.ends_with(".quarantined")
            || n.starts_with("tmp-")
            || n == "INDEX"
            || n == "LOCK";
        if is_store_file && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    Ok(removed)
}

/// Result of [`compact_dir`]: every live record rewritten into one
/// fresh segment, with superseded duplicates, corrupt records, bad
/// segments and quarantined files dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompactReport {
    /// Segment files present before compaction.
    pub segments_before: u64,
    /// Live records carried into the fresh segment.
    pub records_kept: u64,
    /// Records dropped because a later segment held the same key
    /// (last-writer-wins, the same rule a load applies).
    pub superseded_dropped: u64,
    /// Records dropped by checksum failure.
    pub corrupt_dropped: u64,
    /// Whole segments dropped (bad header, version or epoch).
    pub bad_segments_dropped: u64,
    /// `*.quarantined` files deleted.
    pub quarantined_files_removed: u64,
    /// Total segment bytes before compaction.
    pub bytes_before: u64,
    /// Bytes of the single fresh segment (0 when nothing was live).
    pub bytes_after: u64,
}

/// Compact the store at `dir`: merge every live record
/// (last-writer-wins across segments) into one fresh segment, publish
/// it atomically, then delete the old segments, quarantined files and
/// stale temp files, and rebuild the advisory index.
///
/// Takes the writer lock for the duration — compaction must not race a
/// flushing writer. Crash-safe at every step: the fresh segment is
/// published (rename) *above* the old ones before anything is deleted,
/// so a crash in between leaves duplicates that the normal
/// last-writer-wins load resolves to the same records.
///
/// # Errors
///
/// A message when the lock is held by a live writer or I/O fails.
pub fn compact_dir(dir: &Path) -> Result<CompactReport, String> {
    let lock_path = dir.join("LOCK");
    let deadline = Instant::now() + lock_timeout();
    loop {
        match std::fs::OpenOptions::new().write(true).create_new(true).open(&lock_path) {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", std::process::id());
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                if lock_file_is_stale(&lock_path) {
                    let _ = std::fs::remove_file(&lock_path);
                    continue;
                }
                if Instant::now() >= deadline {
                    return Err(format!(
                        "{}: store locked by another process",
                        dir.display()
                    ));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // No store directory at all: nothing to compact.
                return Ok(CompactReport::default());
            }
            Err(e) => return Err(format!("{}: lock: {e}", dir.display())),
        }
    }
    let result = compact_locked(dir);
    let _ = std::fs::remove_file(&lock_path);
    result
}

fn compact_locked(dir: &Path) -> Result<CompactReport, String> {
    let names = CacheStore::segment_names(dir);
    let mut report =
        CompactReport { segments_before: names.len() as u64, ..CompactReport::default() };
    // Merge all valid records; later segments supersede earlier ones.
    let mut live: HashMap<(Stage, u64), Vec<u8>> = HashMap::new();
    for name in &names {
        let data = std::fs::read(dir.join(name)).map_err(|e| format!("read {name}: {e}"))?;
        report.bytes_before += data.len() as u64;
        match scan_segment(&data) {
            SegmentScan::BadHeader(_) => report.bad_segments_dropped += 1,
            SegmentScan::Records { records, corrupt_records, .. } => {
                report.corrupt_dropped += corrupt_records;
                for (stage, key, range) in records {
                    if live.insert((stage, key), data[range].to_vec()).is_some() {
                        report.superseded_dropped += 1;
                    }
                }
            }
        }
    }
    report.records_kept = live.len() as u64;
    if !live.is_empty() {
        let next = names
            .iter()
            .filter_map(|n| n[4..10].parse::<u64>().ok())
            .max()
            .map_or(0, |n| n + 1);
        let new_name = format!("seg-{next:06}.seg");
        let mut body = Vec::with_capacity(1 << 16);
        body.extend_from_slice(MAGIC);
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&KEY_EPOCH.to_le_bytes());
        let mut entries: Vec<((Stage, u64), Vec<u8>)> = live.into_iter().collect();
        entries.sort_by_key(|e| (e.0 .0.tag(), e.0 .1));
        for ((stage, key), payload) in &entries {
            encode_record(&mut body, *stage, *key, payload);
        }
        report.bytes_after = body.len() as u64;
        write_atomic(dir, &new_name, &body).map_err(|e| format!("write {new_name}: {e}"))?;
    }
    for name in &names {
        let _ = std::fs::remove_file(dir.join(name));
    }
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let n = entry.file_name().to_string_lossy().into_owned();
            if n.ends_with(".quarantined") {
                if std::fs::remove_file(entry.path()).is_ok() {
                    report.quarantined_files_removed += 1;
                }
            } else if n.starts_with("tmp-") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    write_index_file(dir).map_err(|e| format!("index: {e}"))?;
    Ok(report)
}

/// Deterministic store corruption for tests and the CI corruption
/// matrix (`icfgp cache corrupt`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Flip one bit inside a record area.
    BitFlip,
    /// Truncate a segment mid-record (torn write).
    Truncate,
    /// Rewrite a segment header with a wrong format version.
    StaleVersion,
}

impl CorruptKind {
    /// Parse a CLI name.
    #[must_use]
    pub fn parse(s: &str) -> Option<CorruptKind> {
        match s {
            "bit-flip" => Some(CorruptKind::BitFlip),
            "truncate" => Some(CorruptKind::Truncate),
            "stale-version" => Some(CorruptKind::StaleVersion),
            _ => None,
        }
    }
}

/// Damage one segment in `dir` deterministically (seeded choice of
/// segment and position). Returns a description of what was done.
///
/// # Errors
///
/// A message when the directory holds no segments or I/O fails.
pub fn corrupt_dir(dir: &Path, kind: CorruptKind, seed: u64) -> Result<String, String> {
    let names = CacheStore::segment_names(dir);
    if names.is_empty() {
        return Err(format!("{}: no segments to corrupt", dir.display()));
    }
    let mut rng = FaultRng(seed ^ 0xC0_44_09_71);
    let name = &names[rng.below(names.len() as u64) as usize];
    let path = dir.join(name);
    let mut data = std::fs::read(&path).map_err(|e| format!("read {name}: {e}"))?;
    let what = match kind {
        CorruptKind::BitFlip => {
            if data.len() <= HEADER_LEN {
                return Err(format!("{name}: no record bytes to flip"));
            }
            let span = (data.len() - HEADER_LEN) * 8;
            let bit = HEADER_LEN * 8 + rng.below(span as u64) as usize;
            data[bit / 8] ^= 1 << (bit % 8);
            format!("{name}: flipped bit {bit}")
        }
        CorruptKind::Truncate => {
            let keep = HEADER_LEN + rng.below((data.len() - HEADER_LEN).max(1) as u64) as usize;
            data.truncate(keep);
            format!("{name}: truncated to {keep} byte(s)")
        }
        CorruptKind::StaleVersion => {
            let bogus = FORMAT_VERSION + 1 + (rng.below(7) as u32);
            data[8..12].copy_from_slice(&bogus.to_le_bytes());
            format!("{name}: header version rewritten to {bogus}")
        }
    };
    std::fs::write(&path, &data).map_err(|e| format!("write {name}: {e}"))?;
    Ok(what)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("icfgp-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn retry_backoff_schedule_is_pinned() {
        // Exponential from 2 ms, capped at 50 ms, ±50% fixed jitter.
        let schedule: Vec<u64> = (1..=7).map(retry_delay_ms).collect();
        assert_eq!(schedule, [1, 4, 7, 23, 26, 50, 50]);
        assert_eq!(RETRY_ATTEMPTS, 3);
    }

    #[test]
    fn roundtrip_flush_and_reload() {
        let dir = tmp_dir("roundtrip");
        {
            let store = CacheStore::open(&dir);
            assert!(store.is_writer());
            store.put(Stage::Func, 1, b"alpha".to_vec());
            store.put(Stage::Emit, 2, b"beta".to_vec());
            assert_eq!(store.flush(), 2);
        }
        let store = CacheStore::open(&dir);
        assert_eq!(store.get(Stage::Func, 1).as_deref(), Some(&b"alpha"[..]));
        assert_eq!(store.get(Stage::Emit, 2).as_deref(), Some(&b"beta"[..]));
        assert_eq!(store.get(Stage::Func, 3), None);
        let s = store.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.records_loaded, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_puts_are_coalesced() {
        let dir = tmp_dir("dedup");
        let store = CacheStore::open(&dir);
        store.put(Stage::Func, 9, b"x".to_vec());
        store.put(Stage::Func, 9, b"x".to_vec());
        assert_eq!(store.pending_len(), 1);
        assert_eq!(store.flush(), 1);
        store.put(Stage::Func, 9, b"x".to_vec());
        assert_eq!(store.pending_len(), 0, "already persisted keys are not re-queued");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_quarantines_only_that_record() {
        let dir = tmp_dir("bitflip");
        {
            let store = CacheStore::open(&dir);
            for k in 0..8u64 {
                store.put(Stage::Fragment, k, format!("payload-{k}").into_bytes());
            }
            store.flush();
        }
        corrupt_dir(&dir, CorruptKind::BitFlip, 42).unwrap();
        let store = CacheStore::open(&dir);
        let loaded = store.stats().records_loaded;
        let quarantined = store.stats().quarantined_records;
        // Depending on where the bit lands, either one record dies
        // (payload/frame checksum) or framing breaks and the tail is
        // dropped — but never does a corrupt payload load.
        assert!(loaded < 8, "a corrupt record must not load (loaded {loaded})");
        assert!(quarantined >= 1);
        for k in 0..8u64 {
            if let Some(p) = store.get(Stage::Fragment, k) {
                assert_eq!(p, format!("payload-{k}").into_bytes());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_keeps_valid_prefix() {
        let dir = tmp_dir("trunc");
        {
            let store = CacheStore::open(&dir);
            for k in 0..6u64 {
                store.put(Stage::Liveness, k, vec![k as u8; 64]);
            }
            store.flush();
        }
        // Cut one byte off the end: the last record is torn.
        let name = CacheStore::segment_names(&dir).pop().unwrap();
        let path = dir.join(&name);
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 1]).unwrap();
        let store = CacheStore::open(&dir);
        assert_eq!(store.stats().records_loaded, 5);
        assert!(store.get(Stage::Liveness, 5).is_none());
        assert_eq!(store.get(Stage::Liveness, 0).unwrap(), vec![0u8; 64]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_version_quarantines_whole_segment() {
        let dir = tmp_dir("version");
        {
            let store = CacheStore::open(&dir);
            store.put(Stage::Func, 7, b"seven".to_vec());
            store.flush();
        }
        corrupt_dir(&dir, CorruptKind::StaleVersion, 1).unwrap();
        let store = CacheStore::open(&dir);
        assert_eq!(store.stats().records_loaded, 0);
        assert_eq!(store.stats().quarantined_segments, 1);
        assert!(store.get(Stage::Func, 7).is_none());
        // The writer relocated the bad segment out of the scan set.
        assert!(CacheStore::segment_names(&dir).is_empty());
        let report = verify_dir(&dir);
        assert_eq!(report.quarantined_files, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_opener_is_read_only_until_lock_released() {
        let dir = tmp_dir("lock");
        let writer = CacheStore::open(&dir);
        assert!(writer.is_writer());
        let reader = CacheStore::open_with_timeout(&dir, Duration::from_millis(50));
        assert!(!reader.is_writer());
        assert_eq!(reader.stats().lock_timeouts, 1);
        reader.put(Stage::Func, 1, b"never-written".to_vec());
        assert_eq!(reader.flush(), 0, "read-only store must not write");
        drop(writer);
        let again = CacheStore::open_with_timeout(&dir, Duration::from_millis(50));
        assert!(again.is_writer(), "lock released on drop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashed_writer_lock_is_broken_as_stale() {
        let dir = tmp_dir("stale");
        std::fs::create_dir_all(&dir).unwrap();
        // A lock owned by a PID that cannot exist.
        std::fs::write(dir.join("LOCK"), "4294967294\n").unwrap();
        let store = CacheStore::open_with_timeout(&dir, Duration::from_millis(200));
        if cfg!(target_os = "linux") {
            assert!(store.is_writer(), "dead-owner lock must be broken");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_and_clear() {
        let dir = tmp_dir("verify");
        {
            let store = CacheStore::open(&dir);
            store.put(Stage::Func, 1, b"one".to_vec());
            store.put(Stage::Emit, 2, b"two".to_vec());
            store.flush();
        }
        let clean = verify_dir(&dir);
        assert!(clean.is_clean(), "{clean:?}");
        assert_eq!(clean.valid_records, 2);
        assert!(clean.index_consistent);
        corrupt_dir(&dir, CorruptKind::BitFlip, 3).unwrap();
        let dirty = verify_dir(&dir);
        assert!(!dirty.is_clean());
        assert!(clear_dir(&dir).unwrap() >= 1);
        assert_eq!(CacheStore::segment_names(&dir).len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A hand-built segment image (bypasses the put-dedup so tests can
    /// create cross-segment duplicates the way concurrent writers do).
    fn raw_segment(records: &[(Stage, u64, &[u8])]) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(MAGIC);
        body.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        body.extend_from_slice(&KEY_EPOCH.to_le_bytes());
        for (stage, key, payload) in records {
            encode_record(&mut body, *stage, *key, payload);
        }
        body
    }

    #[test]
    fn compact_merges_last_writer_wins_and_drops_quarantined() {
        let dir = tmp_dir("compact");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("seg-000000.seg"),
            raw_segment(&[(Stage::Func, 1, b"old"), (Stage::Func, 2, b"keep2")]),
        )
        .unwrap();
        std::fs::write(
            dir.join("seg-000001.seg"),
            raw_segment(&[(Stage::Func, 1, b"new"), (Stage::Audit, 9, b"report")]),
        )
        .unwrap();
        std::fs::write(dir.join("seg-000007.seg.quarantined"), b"junk").unwrap();
        let report = compact_dir(&dir).unwrap();
        assert_eq!(report.segments_before, 2);
        assert_eq!(report.records_kept, 3);
        assert_eq!(report.superseded_dropped, 1);
        assert_eq!(report.quarantined_files_removed, 1);
        assert!(report.bytes_after < report.bytes_before);
        // Exactly one fresh segment, numbered above the old ones.
        assert_eq!(CacheStore::segment_names(&dir), vec!["seg-000002.seg".to_string()]);
        let check = verify_dir(&dir);
        assert!(check.is_clean(), "{check:?}");
        assert!(check.index_consistent);
        // Last writer won.
        let store = CacheStore::open(&dir);
        assert_eq!(store.get(Stage::Func, 1).as_deref(), Some(&b"new"[..]));
        assert_eq!(store.get(Stage::Func, 2).as_deref(), Some(&b"keep2"[..]));
        assert_eq!(store.get(Stage::Audit, 9).as_deref(), Some(&b"report"[..]));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_drops_corrupt_records() {
        let dir = tmp_dir("compact-corrupt");
        {
            let store = CacheStore::open(&dir);
            for k in 0..6u64 {
                store.put(Stage::Fragment, k, format!("payload-{k}").into_bytes());
            }
            store.flush();
        }
        corrupt_dir(&dir, CorruptKind::BitFlip, 42).unwrap();
        let report = compact_dir(&dir).unwrap();
        assert!(
            report.records_kept < 6,
            "corrupt/torn records must not survive compaction: {report:?}"
        );
        assert!(verify_dir(&dir).is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_refuses_while_locked() {
        let dir = tmp_dir("compact-locked");
        let writer = CacheStore::open(&dir);
        assert!(writer.is_writer());
        std::env::set_var("ICFGP_STORE_LOCK_MS", "50");
        let err = compact_dir(&dir);
        std::env::remove_var("ICFGP_STORE_LOCK_MS");
        assert!(err.is_err(), "compaction must not race a live writer");
        drop(writer);
        assert!(compact_dir(&dir).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantined_lookup_is_not_also_a_miss() {
        let dir = tmp_dir("quarantine-count");
        let store = CacheStore::open(&dir);
        store.put(Stage::Func, 5, b"payload".to_vec());
        store.flush();
        assert_eq!(store.get(Stage::Func, 5).as_deref(), Some(&b"payload"[..]));
        // Simulate the cache layer hitting an undecodable payload.
        store.quarantine_record(Stage::Func, 5, "decode failure (test)");
        let s = store.stats();
        assert_eq!(s.hits, 0, "the hit was retracted");
        assert_eq!(s.misses, 0, "a quarantine is not a miss");
        assert_eq!(s.quarantined_records, 1);
        assert_eq!(s.total(), 0);
        // The record is gone from the loaded set: the next lookup is a
        // genuine miss.
        assert!(store.get(Stage::Func, 5).is_none());
        assert_eq!(store.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_are_absorbed() {
        let dir = tmp_dir("faults");
        let store = CacheStore::open(&dir);
        store.arm_faults(StoreFaults {
            seed: 11,
            torn_write: 1.0,
            bit_flip: 0.0,
            short_read: 0.0,
            lock_contention: 0.0,
        });
        for k in 0..8u64 {
            store.put(Stage::Func, k, vec![0xAB; 32]);
        }
        store.flush();
        store.arm_faults(StoreFaults::default());
        store.reload();
        // A torn flush loses a suffix of the records but never
        // produces a wrong payload.
        for k in 0..8u64 {
            if let Some(p) = store.get(Stage::Func, k) {
                assert_eq!(p, vec![0xAB; 32]);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_directory_degrades_to_disabled() {
        // A path under a regular file cannot be created.
        let file = std::env::temp_dir().join(format!("icfgp-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"x").unwrap();
        let store = CacheStore::open(&file.join("sub"));
        assert!(store.get(Stage::Func, 1).is_none());
        store.put(Stage::Func, 1, b"dropped".to_vec());
        assert_eq!(store.flush(), 0);
        assert!(store.stats().io_errors >= 1);
        let _ = std::fs::remove_file(&file);
    }
}
