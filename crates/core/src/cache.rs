//! The incremental rewrite cache (the "analyse once, rewrite cheaply"
//! engine).
//!
//! Every expensive per-function artefact of the pipeline is memoised
//! in a [`RewriteCache`] under a **content-addressed key**:
//!
//! * per-function CFGs — keyed by `(binary fingerprint, function
//!   range, function bytes, fault-sliced analysis config, boundary
//!   prefix)`, so a fault injected into one function never invalidates
//!   its neighbours and a degradation-ladder round re-analyses
//!   nothing;
//! * relocation *fragments* (address-independent per-function entry
//!   lists, sized) — keyed by the CFG identity plus the rewrite-config
//!   bits relocation reads and the function's ladder rung;
//! * emitted per-function code — keyed by the fragment identity plus
//!   its layout inputs (base address, resolved branch targets, clone
//!   addresses);
//! * liveness results, the boundary pre-pass, and whole
//!   [`BinaryAnalysis`] results.
//!
//! There is no explicit invalidation: demoting a function on the
//! ladder changes its keys (a miss) while every untouched function
//! keeps hitting. [`analyze_incremental`] is the parallel analysis
//! driver; it reproduces the sequential [`icfgp_cfg::analyze`] result
//! exactly (see its docs for the replay argument).
//!
//! All fingerprints use the zero-keyed [`DefaultHasher`], which is
//! deterministic within and across processes for a given Rust
//! release; keys are 64-bit, so a cross-content collision is
//! astronomically unlikely but not impossible — acceptable for a
//! cache whose inputs are not adversarial.
//!
//! # Persistence and cross-binary sharing
//!
//! A cache may be backed by a crash-safe on-disk
//! [`CacheStore`] ([`RewriteCache::with_store`]): every stage lookup falls through to
//! the store on an in-memory miss, and computed entries are buffered
//! for the store's next flush. Store damage of any kind degrades to a
//! recompute, never to different bytes.
//!
//! Function-analysis entries are keyed on the *function's own
//! analysis inputs* (its address range and bytes, the environment
//! skeleton, the sliced config, the boundary prefix) rather than the
//! whole-binary fingerprint, so unchanged functions keep hitting
//! across edits to *other* functions — including across processes and
//! across different binaries sharing code. Whatever those inputs
//! cannot capture (jump-table data bytes live outside the function
//! range) is recorded as an explicit dependency read-set
//! (`FuncDep`) and re-validated against the binary at every lookup;
//! a failed validation is a miss.
//!
//! Fragment and emit entries share across binaries too: their keys
//! derive from the weak per-function analysis identity plus a content
//! fingerprint of the analysed CFG itself (so two binaries whose
//! out-of-range table data differs get different keys, with no
//! read-set to arbitrate), and the cached artefacts are
//! position-independent — fragments always were, and emissions are
//! canonical base-0 bytes plus a patch-point list the relocation
//! fix-up pass re-applies under the real layout (see the `relocate`
//! module). Each candidate still carries its
//! fingerprint and is re-validated per lookup, mirroring the analysis
//! path: a mismatch can only mean a logically corrupted record, which
//! is quarantined and recomputed. Liveness stays per-binary.
//!
//! Hits whose record was first computed for a *different* binary are
//! counted separately ([`StageStats::shared`]), so `--stats` and the
//! fleet bench can show how much cross-binary reuse happened.

use crate::pool;
use crate::relocate::{FuncFragment, RelocEmit};
use crate::rewriter::RewriteError;
use crate::store::{CacheStore, Stage, StoreStats};
use crate::trace::{SpanKind, Trace, TraceEvent};
use icfgp_cfg::{
    analyze_function_isolated, assemble_analysis, prepass_boundaries, AnalysisConfig,
    BinaryAnalysis, FuncCfg, FuncStatus, LivenessResult,
};
use icfgp_obj::Binary;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Hit/miss counters for one cached stage of the rewrite pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StageStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// The subset of `hits` whose cached record was first computed for
    /// a *different* binary (cross-binary weak-key reuse). Zero for
    /// stages that never share across binaries.
    pub shared: u64,
}

impl StageStats {
    /// Total lookups.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0.0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// Wall-clock nanoseconds spent in each rewrite stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StageTimings {
    /// Binary analysis (or its cache lookup).
    pub analysis_ns: u64,
    /// Relocation: fragments, layout, emission, clone fill.
    pub relocate_ns: u64,
    /// Trampoline placement over the shared scratch pool.
    pub placement_ns: u64,
    /// Output-binary assembly (sections, maps, report).
    pub assemble_ns: u64,
    /// End-to-end rewrite time.
    pub total_ns: u64,
}

/// Wall-clock nanoseconds the persistent store cost, outside the
/// compute it saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StoreTimings {
    /// Opening the attached store (the writer lock, then reading,
    /// checksumming and indexing its segments). The store opens once,
    /// before any rewrite, so this is the trace's total so far rather
    /// than a per-rewrite delta.
    pub open_ns: u64,
    /// Decoding store-hit payloads during this rewrite, per stage in
    /// [`Stage::ALL`] order. Summed over worker threads, and contained
    /// in the analysis and relocate stage times.
    pub decode_ns: [u64; 5],
}

/// Cache-hit and timing counters for one rewrite, attached to
/// [`RewriteOutcome`](crate::RewriteOutcome) and printed by
/// `icfgp rewrite --stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct RewriteStats {
    /// Worker threads the rewrite ran with.
    pub threads: usize,
    /// The whole [`BinaryAnalysis`] was served from the cache.
    pub analysis_memo_hit: bool,
    /// Parallel-analysis replay rounds (0 on a memo hit).
    pub analysis_rounds: u32,
    /// Per-function CFG analyses.
    pub func_analyses: StageStats,
    /// Per-function relocation fragments.
    pub fragments: StageStats,
    /// Per-function code emissions.
    pub emits: StageStats,
    /// Per-function liveness results.
    pub liveness: StageStats,
    /// Stage wall-clock timings.
    pub timings: StageTimings,
    /// The five slowest functions this rewrite touched, as
    /// `(entry, total_ns)` across analysis + fragment + emit, sorted
    /// slowest first and zero-padded — `rewrite --stats` prints these
    /// so watchdog budgets can be tuned against real offenders.
    pub slowest: [(u64, u64); 5],
    /// Persistent-store activity during this rewrite (all zero when no
    /// store is attached).
    pub store: StoreStats,
    /// Persistent-store open and decode time (all zero when no store is
    /// attached).
    pub store_time: StoreTimings,
}

/// Fold per-function `(entry, ns)` samples into the top-5 `slowest`
/// array (summing samples for the same entry first).
#[must_use]
pub fn slowest_of(samples: &[(u64, u64)]) -> [(u64, u64); 5] {
    let mut per_func: BTreeMap<u64, u64> = BTreeMap::new();
    for &(entry, ns) in samples {
        *per_func.entry(entry).or_insert(0) += ns;
    }
    let mut all: Vec<(u64, u64)> = per_func.into_iter().collect();
    // Slowest first; ties broken by entry address for determinism.
    all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut top = [(0u64, 0u64); 5];
    for (slot, &(entry, ns)) in top.iter_mut().zip(all.iter()) {
        *slot = (entry, ns);
    }
    top
}

/// Hash a `Hash` value with the deterministic zero-keyed hasher.
pub(crate) fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// splitmix64 — used for the order-independent (XOR-folded) boundary
/// set hash, where each element must be well mixed on its own.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A key guaranteed never to collide with any content-derived key:
/// used as a fallback when a key input is unavailable, forcing a
/// cache miss instead of a wrong hit.
pub(crate) fn unique_key() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // Fold a process-unique counter so even two caches never share it.
    mix(NEXT.fetch_add(1, Ordering::Relaxed)) ^ 0xDEAD_BEEF_0BAD_CAFE
}

/// A content fingerprint of a whole binary (all sections, symbols,
/// relocations and metadata), via its structural `Hash`. Every
/// per-item cache key folds this in, so a cache can be shared across
/// binaries without cross-talk. Cheap enough to recompute per rewrite
/// (it is the memo-lookup cost on a fully warm cache).
#[must_use]
pub fn binary_fingerprint(binary: &Binary) -> u64 {
    hash_of(binary)
}

/// A content fingerprint of one analysed CFG, **excluding the
/// function name**. Fragment construction never reads the name, so a
/// renamed-but-otherwise-identical function (the common case across
/// near-identical fleet binaries) fingerprints equal and shares its
/// fragment. Folded into the fragment key — a cached payload whose
/// recorded fingerprint disagrees with the key's can only be
/// corruption, and quarantines.
pub(crate) fn cfg_fingerprint(cfg: &FuncCfg) -> u64 {
    let mut h = DefaultHasher::new();
    0xCF97u64.hash(&mut h);
    cfg.entry.hash(&mut h);
    cfg.start.hash(&mut h);
    cfg.end.hash(&mut h);
    cfg.blocks.hash(&mut h);
    cfg.insts.hash(&mut h);
    cfg.jump_tables.hash(&mut h);
    cfg.indirect_tailcalls.hash(&mut h);
    cfg.tail_calls.hash(&mut h);
    cfg.call_sites.hash(&mut h);
    cfg.landing_pads.hash(&mut h);
    cfg.inline_data.hash(&mut h);
    cfg.has_indirect_calls.hash(&mut h);
    cfg.fp_landing_targets.hash(&mut h);
    cfg.status.hash(&mut h);
    h.finish()
}

/// The *environment* fingerprint a per-function analysis runs under:
/// everything `analyze_function_isolated` can observe about the binary
/// **outside** the function's own byte range, other than raw data
/// bytes (those are covered by [`FuncDep::Bytes`]). That is: the
/// architecture, PIE-ness, the TOC base, the Go line table, and the
/// section skeleton (ranges and flags — `section_at` classification
/// queries). Unwind entries are folded per function (analysis only
/// reads the entries inside the function's range), so one function's
/// unwind edit does not invalidate its neighbours. Two binaries with
/// equal environment fingerprints analyse a byte-identical function
/// at the same address identically, which is what lets analysis
/// entries be shared across binaries.
fn env_fingerprint(binary: &Binary) -> u64 {
    let mut h = DefaultHasher::new();
    0xE4F1u64.hash(&mut h);
    binary.arch.hash(&mut h);
    binary.meta.hash(&mut h);
    binary.toc_base.hash(&mut h);
    binary.pclntab.hash(&mut h);
    for s in binary.sections() {
        s.addr().hash(&mut h);
        s.end().hash(&mut h);
        s.flags().hash(&mut h);
    }
    h.finish()
}

/// One recorded out-of-range read of a cached function analysis — the
/// part of its input the content-addressed key cannot see. Persisted
/// alongside the CFG and re-validated against the binary at every
/// lookup; any mismatch turns the lookup into a miss.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum FuncDep {
    /// The analysis read `[addr, addr+len)` (jump-table data, including
    /// the one-entry extension probe) and saw bytes hashing to `hash`.
    Bytes {
        /// Read start address.
        addr: u64,
        /// Read length in bytes.
        len: u64,
        /// `hash_of` of `binary.read(addr, len).ok()` — unmapped reads
        /// only match unmapped reads.
        hash: u64,
    },
    /// The analysis outcome could depend on reads the key does not
    /// enumerate (failed analyses, unresolved jumps): only the exact
    /// same binary may reuse it.
    BinaryExact {
        /// Whole-binary fingerprint.
        fp: u64,
    },
}

/// The dependency read-set of one analysed function (see [`FuncDep`]).
fn func_deps(binary: &Binary, binary_fp: u64, cfg: &FuncCfg) -> Vec<FuncDep> {
    let mut deps = Vec::new();
    if cfg.status != FuncStatus::Ok {
        // The failure path may have read anything; pin to this binary.
        deps.push(FuncDep::BinaryExact { fp: binary_fp });
        return deps;
    }
    for jt in &cfg.jump_tables {
        if jt.in_text && jt.table_addr >= cfg.start && jt.table_addr < cfg.end {
            continue; // table data inside the function range: keyed already
        }
        // Cover the resolved entries plus the slicer's one-entry
        // extension probe past the end.
        let len = (jt.count + 1) * u64::from(jt.entry_width);
        let hash = hash_of(&binary.read(jt.table_addr, len as usize).ok());
        deps.push(FuncDep::Bytes { addr: jt.table_addr, len, hash });
    }
    deps
}

/// Whether a cached analysis' recorded reads still hold against
/// `binary`.
fn deps_hold(deps: &[FuncDep], binary: &Binary, binary_fp: u64) -> bool {
    deps.iter().all(|d| match d {
        FuncDep::Bytes { addr, len, hash } => {
            hash_of(&binary.read(*addr, *len as usize).ok()) == *hash
        }
        FuncDep::BinaryExact { fp } => *fp == binary_fp,
    })
}

/// The persisted form of one function-analysis entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct FuncPayload {
    cfg: FuncCfg,
    deps: Vec<FuncDep>,
    /// Fingerprint of the binary this entry was first computed for —
    /// only used to classify a hit as cross-binary (shared).
    origin_fp: u64,
}

impl FuncPayload {
    /// The binary encoding of a `FuncPayload` built from borrowed
    /// parts: the codec is positional, so a struct encodes as its
    /// fields in declaration order.
    fn encode_parts(cfg: &FuncCfg, deps: &[FuncDep], origin_fp: u64, out: &mut Vec<u8>) {
        cfg.encode(out);
        deps.encode(out);
        origin_fp.encode(out);
    }
}

/// An in-memory function-analysis entry: the CFG plus its read-set.
#[derive(Clone)]
struct FuncEntry {
    cfg: Arc<FuncCfg>,
    deps: Arc<Vec<FuncDep>>,
    origin_fp: u64,
}

/// How a lookup was served: from the cache or computed, and whether
/// the cached record originated from a different binary.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Lookup {
    pub(crate) hit: bool,
    pub(crate) shared: bool,
}

impl Lookup {
    fn hit(origin_fp: u64, binary_fp: u64) -> Lookup {
        Lookup { hit: true, shared: origin_fp != binary_fp }
    }

    const MISS: Lookup = Lookup { hit: false, shared: false };
}

/// The persisted form of one relocation fragment: the fragment plus
/// the CFG content fingerprint it was built from. The fingerprint is
/// folded into the fragment key, so a well-formed record always
/// matches — re-validation at lookup (mirroring the analysis path)
/// catches logically corrupted records, which are quarantined and
/// recomputed instead of mis-relocating.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FragPayload {
    frag: FuncFragment,
    cfg_fp: u64,
    origin_fp: u64,
}

impl FragPayload {
    /// See [`FuncPayload::encode_parts`].
    fn encode_parts(frag: &FuncFragment, cfg_fp: u64, origin_fp: u64, out: &mut Vec<u8>) {
        frag.encode(out);
        cfg_fp.encode(out);
        origin_fp.encode(out);
    }
}

/// An in-memory fragment entry (see [`FragPayload`]).
#[derive(Clone)]
struct FragEntry {
    frag: Arc<FuncFragment>,
    cfg_fp: u64,
    origin_fp: u64,
}

/// The persisted form of one canonical (position-independent)
/// emission. Validated against its fragment at every lookup.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EmitPayload {
    emit: RelocEmit,
    origin_fp: u64,
}

impl EmitPayload {
    /// See [`FuncPayload::encode_parts`].
    fn encode_parts(emit: &RelocEmit, origin_fp: u64, out: &mut Vec<u8>) {
        emit.encode(out);
        origin_fp.encode(out);
    }
}

/// Decode one persisted payload as its stage's record type and encode
/// it again. The codec is canonical, so for a well-formed record the
/// result equals `payload`; anything else is an `Err` (the same
/// verdict a lookup would quarantine on). For store tooling and the
/// codec's robustness tests.
///
/// # Errors
///
/// The decoder's description of the first malformed byte.
pub fn recode_record(stage: Stage, payload: &[u8]) -> Result<Vec<u8>, serde::DeError> {
    fn recode<T>(payload: &[u8]) -> Result<Vec<u8>, serde::DeError>
    where
        T: Serialize + serde::Deserialize,
    {
        serde::from_bytes::<T>(payload).map(|v| serde::to_bytes(&v))
    }
    match stage {
        Stage::Func => recode::<FuncPayload>(payload),
        Stage::Liveness => recode::<LivenessResult>(payload),
        Stage::Fragment => recode::<FragPayload>(payload),
        Stage::Emit => recode::<EmitPayload>(payload),
        Stage::Audit => recode::<icfgp_audit::AuditReport>(payload),
    }
}

/// An in-memory emission entry (see [`EmitPayload`]).
#[derive(Clone)]
struct EmitEntry {
    emit: Arc<RelocEmit>,
    origin_fp: u64,
}

/// An armed corrupt-patch-point fault (chaos): probability of
/// deterministically corrupting a fragment/emit record as it is read
/// back from the persistent store, *after* checksum validation — the
/// logical-corruption class the per-lookup re-validation must catch.
#[derive(Debug, Clone, Copy)]
struct PatchFault {
    seed: u64,
    probability: f64,
}

impl PatchFault {
    /// Deterministic per-key draw (same key always draws the same).
    fn fires(&self, key: u64) -> bool {
        self.probability > 0.0
            && mix(self.seed ^ key) % 10_000 < (self.probability * 10_000.0) as u64
    }
}

/// The boundary pre-pass result with its XOR-folded element hash.
struct Prepass {
    set: BTreeSet<u64>,
    hash: u64,
}

/// A memoised whole-binary analysis.
#[derive(Clone)]
struct AnalysisMemo {
    analysis: Arc<BinaryAnalysis>,
    func_keys: Arc<BTreeMap<u64, u64>>,
    weak_keys: Arc<BTreeMap<u64, u64>>,
    rounds: u32,
}

#[derive(Default)]
struct Maps {
    prepass: HashMap<u64, Arc<Prepass>>,
    analyses: HashMap<(u64, u64), AnalysisMemo>,
    funcs: HashMap<u64, FuncEntry>,
    liveness: HashMap<u64, Arc<LivenessResult>>,
    fragments: HashMap<u64, FragEntry>,
    emits: HashMap<u64, EmitEntry>,
    audits: HashMap<u64, Arc<icfgp_audit::AuditReport>>,
}

/// The content-addressed rewrite cache. Cheap to create, safe to
/// share across threads, rewrites, ladder rounds and fault seeds —
/// keys are self-describing, so reuse never changes results, only
/// how fast they arrive. Optionally backed by a persistent
/// [`CacheStore`] ([`RewriteCache::with_store`]).
///
/// Every lookup emits a [`TraceEvent::CacheLookup`] onto the cache's
/// trace spine; when the cache is backed by a store, the store's
/// trace is adopted so cache-level and store-level events share one
/// registry (and one [`RewriteStats`] projection).
pub struct RewriteCache {
    inner: Mutex<Maps>,
    store: Option<Arc<CacheStore>>,
    trace: Arc<Trace>,
    /// Chaos: corrupt fragment/emit records read back from the store
    /// (armed by [`crate::FaultPlan::arm_cached`]).
    patch_fault: Mutex<Option<PatchFault>>,
}

impl Default for RewriteCache {
    fn default() -> RewriteCache {
        RewriteCache {
            inner: Mutex::new(Maps::default()),
            store: None,
            trace: Trace::new(),
            patch_fault: Mutex::new(None),
        }
    }
}

impl std::fmt::Debug for RewriteCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.inner.lock().expect("cache poisoned");
        f.debug_struct("RewriteCache")
            .field("analyses", &m.analyses.len())
            .field("funcs", &m.funcs.len())
            .field("fragments", &m.fragments.len())
            .field("emits", &m.emits.len())
            .field("liveness", &m.liveness.len())
            .field("audits", &m.audits.len())
            .finish()
    }
}

impl RewriteCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> RewriteCache {
        RewriteCache::default()
    }

    /// An empty in-memory cache backed by a persistent store: lookups
    /// fall through to the store, computed entries are buffered for
    /// its next [`CacheStore::flush`]. The store's trace spine is
    /// adopted as the cache's, so both layers fold into one registry.
    #[must_use]
    pub fn with_store(store: Arc<CacheStore>) -> RewriteCache {
        RewriteCache {
            inner: Mutex::new(Maps::default()),
            trace: store.trace(),
            store: Some(store),
            patch_fault: Mutex::new(None),
        }
    }

    /// An empty store-less cache emitting onto an existing trace
    /// spine (e.g. a chaos campaign's shared collector).
    #[must_use]
    pub fn with_trace(trace: Arc<Trace>) -> RewriteCache {
        RewriteCache { trace, ..RewriteCache::default() }
    }

    /// The trace spine this cache (and its store, if any) emits
    /// through.
    #[must_use]
    pub fn trace(&self) -> Arc<Trace> {
        Arc::clone(&self.trace)
    }

    fn note(&self, stage: Stage, key: u64, lk: Lookup) {
        self.trace.emit(TraceEvent::CacheLookup {
            stage,
            key,
            hit: lk.hit,
            shared: lk.shared,
        });
    }

    /// Chaos: with probability `probability` (deterministic per key,
    /// seeded), corrupt each fragment/emit record as it is read back
    /// from the persistent store — after the store's checksum passes,
    /// so only the per-lookup re-validation stands between the
    /// corrupted patch list and a mis-fixed-up branch. A detected
    /// corruption quarantines the record and recomputes; output bytes
    /// never change.
    pub fn arm_patch_corruption(&self, seed: u64, probability: f64) {
        *self.patch_fault.lock().expect("fault poisoned") =
            Some(PatchFault { seed, probability });
    }

    fn patch_fault_fires(&self, key: u64) -> bool {
        self.patch_fault
            .lock()
            .expect("fault poisoned")
            .is_some_and(|f| f.fires(key))
    }

    /// The attached persistent store, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<CacheStore>> {
        self.store.as_ref()
    }

    /// Flush the attached store (no-op without one). Returns the
    /// number of records persisted.
    pub fn flush_store(&self) -> usize {
        self.store.as_ref().map_or(0, |s| s.flush())
    }

    /// Counter snapshot of the attached store (zeroes without one).
    #[must_use]
    pub fn store_stats(&self) -> StoreStats {
        self.store.as_ref().map_or_else(StoreStats::default, |s| s.stats())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Maps> {
        self.inner.lock().expect("cache poisoned")
    }

    /// Persisted-store lookup: the payload decodes straight into `T`
    /// (timed as a [`TraceEvent::StoreDecode`] leaf); a decode failure
    /// quarantines the record and counts as a miss, never an error.
    fn store_get<T: serde::Deserialize>(&self, stage: Stage, key: u64) -> Option<T> {
        let store = self.store.as_ref()?;
        let payload = store.get(stage, key)?;
        let started = Instant::now();
        let decoded = serde::from_bytes(&payload);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.trace.emit(TraceEvent::StoreDecode { stage, ns });
        match decoded {
            Ok(v) => Some(v),
            Err(e) => {
                store.quarantine_record(stage, key, &e.to_string());
                None
            }
        }
    }

    /// Buffer a computed entry for the store. `encode` writes the
    /// record's payload and runs only when a store is attached, so
    /// storeless runs never build one.
    fn store_put(&self, stage: Stage, key: u64, encode: impl FnOnce(&mut Vec<u8>)) {
        if let Some(store) = &self.store {
            let mut bytes = Vec::new();
            encode(&mut bytes);
            store.put(stage, key, bytes);
        }
    }

    fn prepass(&self, binary_fp: u64, binary: &Binary) -> Arc<Prepass> {
        if let Some(p) = self.lock().prepass.get(&binary_fp) {
            return p.clone();
        }
        let set = prepass_boundaries(binary);
        let hash = set.iter().fold(0u64, |h, &a| h ^ mix(a));
        let p = Arc::new(Prepass { set, hash });
        self.lock()
            .prepass
            .entry(binary_fp)
            .or_insert_with(|| p.clone())
            .clone()
    }

    /// Look up or compute a per-function CFG. The lookup outcome is
    /// emitted onto the trace spine (`Stage::Func`), not returned.
    ///
    /// Keys are *weak* — they omit whatever the analysis read outside
    /// the function's byte range — so every candidate (in-memory or
    /// persisted) carries its [`FuncDep`] read-set and is validated
    /// against `binary` before being returned; a stale candidate is
    /// evicted and recomputed.
    pub(crate) fn func(
        &self,
        key: u64,
        binary: &Binary,
        binary_fp: u64,
        compute: impl FnOnce() -> FuncCfg,
    ) -> Arc<FuncCfg> {
        {
            let mut m = self.lock();
            if let Some(e) = m.funcs.get(&key) {
                if deps_hold(&e.deps, binary, binary_fp) {
                    let got = e.cfg.clone();
                    let lk = Lookup::hit(e.origin_fp, binary_fp);
                    drop(m);
                    self.note(Stage::Func, key, lk);
                    return got;
                }
                m.funcs.remove(&key);
            }
        }
        if let Some(p) = self.store_get::<FuncPayload>(Stage::Func, key) {
            if deps_hold(&p.deps, binary, binary_fp) {
                let entry = FuncEntry {
                    cfg: Arc::new(p.cfg),
                    deps: Arc::new(p.deps),
                    origin_fp: p.origin_fp,
                };
                let got = self
                    .lock()
                    .funcs
                    .entry(key)
                    .or_insert_with(|| entry.clone())
                    .clone();
                self.note(Stage::Func, key, Lookup::hit(got.origin_fp, binary_fp));
                return got.cfg;
            }
            // A different binary legitimately reusing the weak key:
            // not corruption, just a miss (the recompute replaces it).
        }
        let cfg = compute();
        let deps = func_deps(binary, binary_fp, &cfg);
        self.store_put(Stage::Func, key, |out| {
            FuncPayload::encode_parts(&cfg, &deps, binary_fp, out);
        });
        let entry = FuncEntry { cfg: Arc::new(cfg), deps: Arc::new(deps), origin_fp: binary_fp };
        let mut m = self.lock();
        let got = m.funcs.entry(key).or_insert(entry).clone();
        drop(m);
        self.note(Stage::Func, key, Lookup::MISS);
        got.cfg
    }

    /// Look up or compute a per-function liveness result. The lookup
    /// outcome is emitted onto the trace spine (`Stage::Liveness`).
    pub(crate) fn liveness(
        &self,
        key: u64,
        compute: impl FnOnce() -> LivenessResult,
    ) -> Arc<LivenessResult> {
        if let Some(v) = self.lock().liveness.get(&key) {
            let got = v.clone();
            self.note(Stage::Liveness, key, Lookup { hit: true, shared: false });
            return got;
        }
        if let Some(v) = self.store_get::<LivenessResult>(Stage::Liveness, key) {
            let v = Arc::new(v);
            let got = self.lock().liveness.entry(key).or_insert_with(|| v.clone()).clone();
            self.note(Stage::Liveness, key, Lookup { hit: true, shared: false });
            return got;
        }
        let v = Arc::new(compute());
        self.store_put(Stage::Liveness, key, |out| v.encode(out));
        let got = self
            .lock()
            .liveness
            .entry(key)
            .or_insert_with(|| v.clone())
            .clone();
        self.note(Stage::Liveness, key, Lookup::MISS);
        got
    }

    /// Look up or build a per-function relocation fragment. Errors are
    /// not cached (they abort the rewrite anyway).
    ///
    /// The key is position-independent and shared across binaries;
    /// `cfg_fp` (the CFG content fingerprint folded into the key) is
    /// re-validated against every candidate. A well-formed record
    /// always matches, so a mismatch means logical corruption: the
    /// record is quarantined and the fragment recomputed — output
    /// bytes never change.
    pub(crate) fn fragment(
        &self,
        key: u64,
        cfg_fp: u64,
        binary_fp: u64,
        compute: impl FnOnce() -> Result<FuncFragment, RewriteError>,
    ) -> Result<Arc<FuncFragment>, RewriteError> {
        {
            let mut m = self.lock();
            if let Some(e) = m.fragments.get(&key) {
                if e.cfg_fp == cfg_fp {
                    let got = e.frag.clone();
                    let lk = Lookup::hit(e.origin_fp, binary_fp);
                    drop(m);
                    self.note(Stage::Fragment, key, lk);
                    return Ok(got);
                }
                m.fragments.remove(&key);
            }
        }
        if let Some(mut p) = self.store_get::<FragPayload>(Stage::Fragment, key) {
            if self.patch_fault_fires(key) {
                // Injected logical corruption: flip the validation
                // fingerprint so the record no longer matches its key.
                p.cfg_fp ^= 1;
            }
            if p.cfg_fp == cfg_fp {
                let entry = FragEntry {
                    frag: Arc::new(p.frag),
                    cfg_fp: p.cfg_fp,
                    origin_fp: p.origin_fp,
                };
                let got = self
                    .lock()
                    .fragments
                    .entry(key)
                    .or_insert_with(|| entry.clone())
                    .clone();
                self.note(Stage::Fragment, key, Lookup::hit(got.origin_fp, binary_fp));
                return Ok(got.frag);
            }
            if let Some(store) = &self.store {
                store.quarantine_record(
                    Stage::Fragment,
                    key,
                    "fragment failed CFG-fingerprint re-validation",
                );
            }
        }
        let v = Arc::new(compute()?);
        self.store_put(Stage::Fragment, key, |out| {
            FragPayload::encode_parts(&v, cfg_fp, binary_fp, out);
        });
        let entry = FragEntry { frag: v, cfg_fp, origin_fp: binary_fp };
        let got = self
            .lock()
            .fragments
            .entry(key)
            .or_insert_with(|| entry.clone())
            .clone()
            .frag;
        self.note(Stage::Fragment, key, Lookup::MISS);
        Ok(got)
    }

    /// Look up or emit one function's canonical (position-independent)
    /// relocated code. `validate` re-checks a candidate's patch-point
    /// list against the fragment it will be fixed up with — a failure
    /// means a logically corrupted record, which is quarantined and
    /// recomputed (never silently mis-fixed-up).
    pub(crate) fn emit(
        &self,
        key: u64,
        binary_fp: u64,
        validate: impl Fn(&RelocEmit) -> bool,
        compute: impl FnOnce() -> Result<RelocEmit, RewriteError>,
    ) -> Result<Arc<RelocEmit>, RewriteError> {
        {
            let mut m = self.lock();
            if let Some(e) = m.emits.get(&key) {
                if validate(&e.emit) {
                    let got = e.emit.clone();
                    let lk = Lookup::hit(e.origin_fp, binary_fp);
                    drop(m);
                    self.note(Stage::Emit, key, lk);
                    return Ok(got);
                }
                m.emits.remove(&key);
            }
        }
        if let Some(mut p) = self.store_get::<EmitPayload>(Stage::Emit, key) {
            if self.patch_fault_fires(key) {
                p.emit.corrupt_one_patch_point();
            }
            if validate(&p.emit) {
                let entry = EmitEntry { emit: Arc::new(p.emit), origin_fp: p.origin_fp };
                let got = self
                    .lock()
                    .emits
                    .entry(key)
                    .or_insert_with(|| entry.clone())
                    .clone();
                self.note(Stage::Emit, key, Lookup::hit(got.origin_fp, binary_fp));
                return Ok(got.emit);
            }
            if let Some(store) = &self.store {
                store.quarantine_record(
                    Stage::Emit,
                    key,
                    "emission failed patch-point re-validation",
                );
            }
        }
        let v = Arc::new(compute()?);
        debug_assert!(validate(&v), "freshly computed emission must validate");
        self.store_put(Stage::Emit, key, |out| EmitPayload::encode_parts(&v, binary_fp, out));
        let entry = EmitEntry { emit: v, origin_fp: binary_fp };
        let got = self
            .lock()
            .emits
            .entry(key)
            .or_insert_with(|| entry.clone())
            .clone()
            .emit;
        self.note(Stage::Emit, key, Lookup::MISS);
        Ok(got)
    }

    /// Look up or compute a whole-binary audit report (predictive
    /// gating). Memoised in memory and — like every other stage —
    /// persisted through the attached store, under [`Stage::Audit`].
    /// Returns `(report, hit)`.
    pub fn audit(
        &self,
        key: u64,
        compute: impl FnOnce() -> icfgp_audit::AuditReport,
    ) -> (Arc<icfgp_audit::AuditReport>, bool) {
        if let Some(v) = self.lock().audits.get(&key) {
            let got = v.clone();
            self.note(Stage::Audit, key, Lookup { hit: true, shared: false });
            return (got, true);
        }
        if let Some(v) = self.store_get::<icfgp_audit::AuditReport>(Stage::Audit, key) {
            let v = Arc::new(v);
            let got = self.lock().audits.entry(key).or_insert_with(|| v.clone()).clone();
            self.note(Stage::Audit, key, Lookup { hit: true, shared: false });
            return (got, true);
        }
        let v = Arc::new(compute());
        self.store_put(Stage::Audit, key, |out| v.encode(out));
        let got = self.lock().audits.entry(key).or_insert_with(|| v.clone()).clone();
        self.note(Stage::Audit, key, Lookup::MISS);
        (got, false)
    }

    fn analysis_memo(&self, binary_fp: u64, config_fp: u64) -> Option<AnalysisMemo> {
        let m = self.lock();
        m.analyses.get(&(binary_fp, config_fp)).cloned()
    }

    fn store_analysis(
        &self,
        binary_fp: u64,
        config_fp: u64,
        analysis: Arc<BinaryAnalysis>,
        func_keys: Arc<BTreeMap<u64, u64>>,
        weak_keys: Arc<BTreeMap<u64, u64>>,
        rounds: u32,
    ) {
        self.lock()
            .analyses
            .entry((binary_fp, config_fp))
            .or_insert(AnalysisMemo {
                analysis,
                func_keys,
                weak_keys,
                rounds,
            });
    }
}

/// The result of [`analyze_incremental`]: the analysis plus the cache
/// identities the relocation stages key off.
pub struct AnalysisRun {
    /// The whole-binary analysis (identical to
    /// [`icfgp_cfg::analyze`]'s result).
    pub analysis: Arc<BinaryAnalysis>,
    /// Per-function cache identity: function entry address → the key
    /// its CFG was cached under, with the whole-binary fingerprint
    /// folded in. Liveness keys derive from these (strictly
    /// per-binary).
    pub func_keys: Arc<BTreeMap<u64, u64>>,
    /// The *weak* per-function identities: like [`AnalysisRun::func_keys`]
    /// but without the whole-binary fingerprint, so they agree across
    /// binaries sharing a function's bytes, address and environment.
    /// Fragment and emit keys derive from these (plus a CFG content
    /// fingerprint that arbitrates what the weak identity cannot see).
    pub weak_keys: Arc<BTreeMap<u64, u64>>,
    /// The whole analysis was served from the memo.
    pub memo_hit: bool,
    /// Replay rounds run (0 on a memo hit).
    pub rounds: u32,
}

/// Analyse `binary` incrementally and in parallel, reproducing the
/// sequential [`icfgp_cfg::analyze`] result **exactly**.
///
/// The sequential driver analyses functions in symbol order, and
/// function *i* sees the boundary set "pre-pass ∪ jump tables of
/// functions 0..i-1". This driver replays that prefix by iteration:
/// each round it computes every function's prefix-boundary snapshot
/// from the results known so far, re-analyses (in parallel, through
/// the per-function cache) exactly the functions whose snapshot hash
/// changed, and stops when nothing changed. By induction, after round
/// *k* the first *k* functions hold their final (sequential) results,
/// so the loop converges to the unique sequential solution; in
/// practice it takes two analysis rounds plus one check round,
/// because table addresses discovered in round one rarely change.
#[must_use]
pub fn analyze_incremental(
    binary: &Binary,
    config: &AnalysisConfig,
    cache: &RewriteCache,
    threads: usize,
) -> AnalysisRun {
    let binary_fp = binary_fingerprint(binary);
    let config_fp = config.fingerprint();
    let trace = cache.trace();
    if let Some(memo) = cache.analysis_memo(binary_fp, config_fp) {
        // The memo serves both stages; their spans still open (empty)
        // so every cache path has the same span structure.
        trace.span(SpanKind::Prepass).close();
        trace.span(SpanKind::FpAnalysis).close();
        trace.emit(TraceEvent::AnalysisMemo { hit: true, rounds: memo.rounds });
        return AnalysisRun {
            analysis: memo.analysis,
            func_keys: memo.func_keys,
            weak_keys: memo.weak_keys,
            memo_hit: true,
            rounds: memo.rounds,
        };
    }
    let prepass_span = trace.span(SpanKind::Prepass);
    let pre = cache.prepass(binary_fp, binary);
    prepass_span.close();
    let env_fp = env_fingerprint(binary);
    let syms: Vec<&icfgp_obj::Symbol> = binary.functions().collect();
    let n = syms.len();

    // The boundary-independent part of each function's key: the
    // function's own analysis inputs, *not* the whole-binary
    // fingerprint — so entries survive edits to other functions and
    // can be shared across binaries (out-of-range data reads are
    // covered by the entry's [`FuncDep`] read-set instead).
    let statics: Vec<u64> = syms
        .iter()
        .map(|s| {
            let mut h = DefaultHasher::new();
            0xFC02u64.hash(&mut h);
            env_fp.hash(&mut h);
            s.addr.hash(&mut h);
            s.size.hash(&mut h);
            h.write(binary.read(s.addr, s.size as usize).unwrap_or(&[]));
            config.slice_for(s.addr, s.end()).fingerprint().hash(&mut h);
            for e in binary.unwind.entries() {
                if e.start >= s.addr && e.start < s.end() {
                    e.hash(&mut h);
                }
            }
            h.finish()
        })
        .collect();

    let mut results: Vec<Option<Arc<FuncCfg>>> = vec![None; n];
    let mut analyzed: Vec<Option<u64>> = vec![None; n];
    let mut rounds = 0u32;
    let final_set: BTreeSet<u64>;
    loop {
        // Prefix snapshots from the results known so far. Consecutive
        // functions between table discoveries share one Arc'd set.
        let mut set = pre.set.clone();
        let mut h = pre.hash;
        let mut shared: Option<Arc<BTreeSet<u64>>> = None;
        let mut snaps: Vec<Option<(Arc<BTreeSet<u64>>, u64)>> = vec![None; n];
        let mut work: Vec<usize> = Vec::new();
        for i in 0..n {
            if analyzed[i] != Some(h) {
                let arc = match &shared {
                    Some(a) => a.clone(),
                    None => {
                        let a = Arc::new(set.clone());
                        shared = Some(a.clone());
                        a
                    }
                };
                snaps[i] = Some((arc, h));
                work.push(i);
            }
            if let Some(cfg) = &results[i] {
                for jt in &cfg.jump_tables {
                    if set.insert(jt.table_addr) {
                        h ^= mix(jt.table_addr);
                        shared = None;
                    }
                }
            }
        }
        if work.is_empty() {
            final_set = set;
            break;
        }
        rounds += 1;
        let outs = pool::map(threads, &work, |_, &i| {
            let (snap, input_hash) = snaps[i].as_ref().expect("snapshot for work item");
            let mut k = DefaultHasher::new();
            statics[i].hash(&mut k);
            input_hash.hash(&mut k);
            let started = std::time::Instant::now();
            let out = cache.func(k.finish(), binary, binary_fp, || {
                analyze_function_isolated(binary, syms[i], config, snap)
            });
            (out, u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX))
        });
        for (&i, (cfg, ns)) in work.iter().zip(outs) {
            // Per-item timing is an orchestrator-side leaf event so the
            // stream stays deterministic across thread counts.
            trace.emit(TraceEvent::FuncSpan { entry: syms[i].addr, ns });
            analyzed[i] = Some(snaps[i].as_ref().expect("snapshot").1);
            results[i] = Some(cfg);
        }
        assert!(rounds <= n as u32 + 1, "prefix replay failed to converge");
    }

    let funcs: BTreeMap<u64, FuncCfg> = syms
        .iter()
        .zip(&results)
        .map(|(s, r)| (s.addr, (**r.as_ref().expect("analysed")).clone()))
        .collect();
    // The liveness identity folds the whole-binary fingerprint back
    // in (strictly per-binary); the weak identity leaves it out so
    // fragment/emit keys agree across binaries. Two binaries may
    // share a weak key while their CFGs differ (out-of-range table
    // data) — the fragment key folds a CFG content fingerprint on
    // top, so that divergence never aliases.
    let func_keys: BTreeMap<u64, u64> = syms
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut k = DefaultHasher::new();
            0xFC03u64.hash(&mut k);
            statics[i].hash(&mut k);
            analyzed[i].expect("analysed").hash(&mut k);
            binary_fp.hash(&mut k);
            (s.addr, k.finish())
        })
        .collect();
    let weak_keys: BTreeMap<u64, u64> = syms
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut k = DefaultHasher::new();
            0xFC04u64.hash(&mut k);
            statics[i].hash(&mut k);
            analyzed[i].expect("analysed").hash(&mut k);
            (s.addr, k.finish())
        })
        .collect();
    let fp_span = trace.span(SpanKind::FpAnalysis);
    let analysis = Arc::new(assemble_analysis(binary, config, funcs, final_set));
    fp_span.close();
    let func_keys = Arc::new(func_keys);
    let weak_keys = Arc::new(weak_keys);
    cache.store_analysis(
        binary_fp,
        config_fp,
        analysis.clone(),
        func_keys.clone(),
        weak_keys.clone(),
        rounds,
    );
    trace.emit(TraceEvent::AnalysisMemo { hit: false, rounds });
    AnalysisRun {
        analysis,
        func_keys,
        weak_keys,
        memo_hit: false,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfgp_cfg::analyze;
    use icfgp_isa::Arch;

    fn workload(name: &str, arch: Arch) -> Binary {
        match name {
            "small" => {
                icfgp_workloads::generate(&icfgp_workloads::GenParams::small("cache", arch, 5))
                    .binary
            }
            _ => icfgp_workloads::switch_demo(arch, false).binary,
        }
    }

    #[test]
    fn incremental_matches_sequential() {
        for arch in [Arch::X64, Arch::Aarch64, Arch::Ppc64le] {
            for name in ["small", "switch"] {
                let bin = workload(name, arch);
                let config = AnalysisConfig::default();
                let cache = RewriteCache::new();
                for threads in [1, 4] {
                    let run = analyze_incremental(&bin, &config, &cache, threads);
                    let seq = analyze(&bin, &config);
                    assert_eq!(*run.analysis, seq, "{name}/{arch}/{threads}");
                }
            }
        }
    }

    #[test]
    fn second_run_hits_the_memo() {
        let bin = workload("small", Arch::X64);
        let config = AnalysisConfig::default();
        let cache = RewriteCache::new();
        let cold = analyze_incremental(&bin, &config, &cache, 4);
        assert!(!cold.memo_hit);
        assert!(cache.trace().registry().stage_stats(Stage::Func).misses > 0);
        let warm = analyze_incremental(&bin, &config, &cache, 4);
        assert!(warm.memo_hit);
        assert_eq!(*cold.analysis, *warm.analysis);
    }

    #[test]
    fn faulted_function_does_not_invalidate_neighbours() {
        use icfgp_cfg::InjectedFault;
        let bin = workload("small", Arch::X64);
        let cache = RewriteCache::new();
        let clean = AnalysisConfig::default();
        let cold = analyze_incremental(&bin, &clean, &cache, 4);
        // A victim without jump tables leaves the boundary prefix of
        // every later function unchanged.
        let victim = cold
            .analysis
            .funcs
            .values()
            .find(|f| f.jump_tables.is_empty())
            .expect("has a table-free function")
            .entry;
        let mut faulty = clean.clone();
        faulty
            .inject
            .push(InjectedFault::FailFunction { entry: victim });
        let before = cache.trace().registry().stage_stats(Stage::Func);
        let run = analyze_incremental(&bin, &faulty, &cache, 4);
        // Different config fingerprint: no memo hit, but every function
        // except the victim is served from the per-function cache (the
        // victim can miss once per replay round).
        assert!(!run.memo_hit);
        let after = cache.trace().registry().stage_stats(Stage::Func);
        assert!(after.misses - before.misses <= u64::from(run.rounds));
        assert!(after.hits > before.hits);
    }

    #[test]
    fn fingerprints_are_content_addressed() {
        let a = workload("small", Arch::X64);
        let b = workload("small", Arch::X64);
        let c = workload("switch", Arch::X64);
        assert_eq!(binary_fingerprint(&a), binary_fingerprint(&b));
        assert_ne!(binary_fingerprint(&a), binary_fingerprint(&c));
        assert_ne!(unique_key(), unique_key());
    }
}
