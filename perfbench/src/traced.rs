//! The traced run: the CLI's pipeline replayed in-process by calling
//! each layer's public functions, timed by the benchmark's own
//! stopwatches. Spans are kept in memory and written out at the end.

use crate::inputs::Workload;
use crate::invoke::hash_bytes;
use icfgp_core::{
    CacheStore, Instrumentation, Points, RewriteCache, RewriteConfig, RewriteMode, Rewriter,
};
use icfgp_emu::{LoadOptions, Outcome};
use icfgp_obj::Binary;
use icfgp_verify::verify_rewrite;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// One timed interval. Spans of one replay share `request`.
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub request: u32,
}

/// The in-memory span store.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span as a child of the innermost open one.
    fn open(&mut self, name: &'static str) -> usize {
        let start_us = self.now_us();
        self.push(name, start_us, start_us)
    }

    fn push(&mut self, name: &'static str, start_us: f64, end_us: f64) -> usize {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            parent,
            name,
            start_us,
            end_us,
            request: self.request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one); its duration in ms.
    fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end_us = self.now_us();
        let s = &mut self.spans[id];
        s.end_us = end_us;
        (end_us - s.start_us) / 1e3
    }

    /// Time `f` as one span.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let v = f();
        self.close(id);
        v
    }

    /// Record a closed child of the innermost open span whose length
    /// was measured by the program itself.
    fn derived(&mut self, name: &'static str, start_us: f64, ms: f64) -> f64 {
        let id = self.push(name, start_us, start_us + ms * 1e3);
        self.open.pop();
        self.spans[id].end_us
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name over `request`: each span's
    /// duration minus the part its children cover.
    pub fn self_ms(&self, request: u32) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.request == request) {
            *out.entry(s.name).or_default() += (s.end_us - s.start_us) / 1e3;
        }
        for s in self.spans.iter().filter(|s| s.request == request) {
            if let Some(p) = s.parent {
                *out.entry(self.spans[p].name).or_default() -= (s.end_us - s.start_us) / 1e3;
            }
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.request, s.name, s.start_us, s.end_us
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        f.flush().map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What one replay produced.
pub struct Replay {
    /// Per-layer metrics of this replay, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Hash of each output, to compare with the CLI's.
    pub out_hashes: Vec<u64>,
    pub verify_errors: usize,
    pub total_funcs: usize,
    pub instrumented_funcs: usize,
    pub original_size: u64,
    pub rewritten_size: u64,
    /// Wall time of the whole replayed pipeline.
    pub pipeline_ms: f64,
    /// Wall time of the `rewrite_cached` calls.
    pub rewrite_ms: f64,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Replay one invocation of `workload` over `inputs`, writing
/// `outputs`, with the store (if any) at `store`. `threads` overrides
/// the default worker pool. The replay is request `rec`'s next id.
pub fn replay(
    workload: Workload,
    inputs: &[PathBuf],
    outputs: &[PathBuf],
    store: Option<&Path>,
    threads: Option<usize>,
    rec: &mut Recorder,
) -> Result<Replay, String> {
    rec.request += 1;
    // The options `icfgp rewrite|fleet FILE --mode func-ptr` uses; the
    // ladder always collects artifacts for the verifier.
    let mut config = RewriteConfig::new(RewriteMode::FuncPtr);
    config.collect_artifacts = true;
    let instr = Instrumentation::empty(Points::EveryBlock);
    let mut rewriter = Rewriter::new(config.clone());
    if let Some(n) = threads {
        rewriter = rewriter.with_threads(n);
    }

    let root = rec.open("pipeline");
    let open_cache = |rec: &mut Recorder| match store {
        Some(dir) => {
            let s = rec.timed("store.open", || CacheStore::open(dir));
            RewriteCache::with_store(Arc::new(s))
        }
        None => RewriteCache::new(),
    };
    // `rewrite` loads its input before opening the store, `fleet` after.
    let mut cache = (workload == Workload::FleetStore).then(|| open_cache(rec));

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut r = Replay {
        metrics: BTreeMap::new(),
        out_hashes: Vec::new(),
        verify_errors: 0,
        total_funcs: 0,
        instrumented_funcs: 0,
        original_size: 0,
        rewritten_size: 0,
        pipeline_ms: 0.0,
        rewrite_ms: 0.0,
    };
    let mut stage_ns = 0u64;
    let (mut cache_hits, mut cache_lookups) = (0u64, 0u64);
    for (input, output) in inputs.iter().zip(outputs) {
        let bytes = rec
            .timed("io.read", || std::fs::read(input))
            .map_err(|e| format!("reading {}: {e}", input.display()))?;
        let binary: Binary = rec
            .timed("obj.decode", || serde_json::from_slice(&bytes))
            .map_err(|e| format!("parsing {}: {e}", input.display()))?;
        *m.entry("obj.input_mb").or_default() += bytes.len() as f64 / MIB;
        let cache = cache.get_or_insert_with(|| open_cache(rec));

        // One ladder round: rewrite, then verify. A round with verifier
        // errors would be demoted and retried by the CLI; here it is
        // counted as a failure instead.
        let round = rec.open("round");
        let rw = rec.open("rewrite");
        let outcome = rewriter
            .rewrite_cached(&binary, &instr, cache)
            .map_err(|e| format!("rewrite: {e}"))?;
        let rewrite_start = rec.spans()[rw].start_us;
        // The four stage timings come from the program's own stats.
        let t = outcome.stats.timings;
        let mut at = rewrite_start;
        for (span, key, ns) in [
            ("analysis", "analysis.ms", t.analysis_ns),
            ("relocate", "relocate.ms", t.relocate_ns),
            ("placement", "placement.ms", t.placement_ns),
            ("assemble", "assemble.ms", t.assemble_ns),
        ] {
            at = rec.derived(span, at, ns as f64 / 1e6);
            *m.entry(key).or_default() += ns as f64 / 1e6;
        }
        r.rewrite_ms += rec.close(rw);
        stage_ns += t.total_ns;
        let verify = rec
            .timed("verify", || verify_rewrite(&binary, &outcome, &config))
            .map_err(|e| format!("verify: {e}"))?;
        rec.close(round);
        if verify.is_clean() {
            rec.timed("store.flush", || cache.flush_store());
        }
        let out_bytes = rec
            .timed("obj.encode", || serde_json::to_vec(&outcome.binary))
            .map_err(|e| format!("encoding: {e}"))?;
        rec.timed("io.write", || std::fs::write(output, &out_bytes))
            .map_err(|e| format!("writing {}: {e}", output.display()))?;
        *m.entry("obj.output_mb").or_default() += out_bytes.len() as f64 / MIB;
        r.out_hashes.push(hash_bytes(&out_bytes));

        let s = &outcome.stats;
        let rep = &outcome.report;
        for st in [&s.func_analyses, &s.fragments, &s.emits, &s.liveness] {
            cache_hits += st.hits;
            cache_lookups += st.total();
        }
        for (name, v) in [
            ("analysis.func_hits", s.func_analyses.hits),
            ("analysis.func_misses", s.func_analyses.misses),
            ("analysis.rounds", u64::from(s.analysis_rounds)),
            ("relocate.frag_hits", s.fragments.hits),
            ("relocate.frag_misses", s.fragments.misses),
            ("relocate.emit_hits", s.emits.hits),
            ("relocate.emit_misses", s.emits.misses),
            ("cache.live_hits", s.liveness.hits),
            ("cache.live_misses", s.liveness.misses),
            (
                "cache.shared_hits",
                s.func_analyses.shared + s.fragments.shared + s.emits.shared + s.liveness.shared,
            ),
            ("placement.tramp_short", rep.tramp_short as u64),
            ("placement.tramp_long", rep.tramp_long as u64),
            ("placement.tramp_multihop", rep.tramp_multi_hop as u64),
            ("placement.tramp_trap", rep.tramp_trap as u64),
            ("verify.errors", verify.errors().count() as u64),
            ("verify.warnings", verify.warnings().count() as u64),
            ("ladder.rounds", 1),
        ] {
            *m.entry(name).or_default() += v as f64;
        }
        r.verify_errors += verify.errors().count();
        r.total_funcs += rep.total_funcs;
        r.instrumented_funcs += rep.instrumented_funcs;
        r.original_size += rep.original_size;
        r.rewritten_size += rep.rewritten_size;
    }
    let cache = cache.ok_or("no inputs")?;
    // The CLI's final flush on exit.
    rec.timed("store.flush", || cache.flush_store());
    r.pipeline_ms = rec.close(root);

    m.insert("cache.hit_rate", ratio(cache_hits, cache_lookups));
    let st = cache.store_stats();
    for (name, v) in [
        ("store.lookups", st.lookups),
        ("store.hits", st.hits),
        ("store.misses", st.misses),
        (
            "store.quarantined",
            st.quarantined_records + st.quarantined_segments,
        ),
        ("store.records_loaded", st.records_loaded),
        ("store.flushed_records", st.flushed_records),
    ] {
        m.insert(name, v as f64);
    }
    m.insert("store.hit_rate", ratio(st.hits, st.lookups));
    let per_func_us = |ms: f64| ms * 1e3 / r.total_funcs.max(1) as f64;
    m.insert("analysis.us_per_func", per_func_us(m["analysis.ms"]));
    m.insert("relocate.us_per_func", per_func_us(m["relocate.ms"]));
    m.insert("rewrite.ms", r.rewrite_ms);
    m.insert(
        "rewrite.unattributed_ms",
        r.rewrite_ms - stage_ns as f64 / 1e6,
    );
    let selfs = rec.self_ms(rec.request);
    for (name, key) in [
        ("io.read", "io.read_ms"),
        ("io.write", "io.write_ms"),
        ("obj.decode", "obj.decode_ms"),
        ("obj.encode", "obj.encode_ms"),
        ("verify", "verify.ms"),
        ("store.open", "store.open_ms"),
        ("store.flush", "store.flush_ms"),
    ] {
        m.insert(key, selfs.get(name).copied().unwrap_or(0.0));
    }
    r.metrics = m;
    Ok(r)
}

/// Emulator results for one original/rewritten pair.
#[derive(Default)]
pub struct EmuPair {
    pub cycles_original: u64,
    pub cycles_rewritten: u64,
    pub traps: u64,
    pub icache_misses: u64,
    pub ra_translations: u64,
}

/// Run the original and the rewritten binary in the emulator, with the
/// runtime library preloaded. Fails unless both halt with the same
/// output.
pub fn emulate(original: &[u8], rewritten: &[u8]) -> Result<EmuPair, String> {
    let opts = LoadOptions {
        preload_runtime: true,
        ..LoadOptions::default()
    };
    let run = |bytes: &[u8], what: &str| {
        let b: Binary =
            serde_json::from_slice(bytes).map_err(|e| format!("parsing the {what}: {e}"))?;
        match icfgp_emu::run(&b, &opts) {
            Outcome::Halted(stats) => Ok(stats),
            Outcome::Crashed { reason, .. } => Err(format!("the {what} crashed: {reason:?}")),
            Outcome::OutOfFuel(_) => Err(format!("the {what} ran out of fuel")),
        }
    };
    let o = run(original, "original")?;
    let r = run(rewritten, "rewritten binary")?;
    if o.output != r.output {
        return Err("the rewritten binary's output differs from the original's".into());
    }
    Ok(EmuPair {
        cycles_original: o.cycles,
        cycles_rewritten: r.cycles,
        traps: r.traps,
        icache_misses: r.icache_misses,
        ra_translations: r.ra_translations,
    })
}
