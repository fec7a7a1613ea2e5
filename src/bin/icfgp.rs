//! The `icfgp` command-line driver: generate, analyse, rewrite and run
//! binaries of the synthetic object format (serialised with serde/JSON).
//!
//! ```console
//! $ icfgp gen --workload spec:602.gcc_s --arch x86-64 -o gcc.icfgp
//! $ icfgp analyze gcc.icfgp
//! $ icfgp rewrite gcc.icfgp --mode jt -o gcc.rw.icfgp
//! $ icfgp verify gcc.icfgp --mode jt
//! $ icfgp run gcc.rw.icfgp --preload-runtime
//! ```

use incremental_cfg_patching::audit::{render_text, to_sarif};
use incremental_cfg_patching::chaos::{
    is_workload, run_campaign, CampaignConfig, FaultDomain, WORKLOADS,
};
use incremental_cfg_patching::cfg::{analyze, AnalysisConfig, FuncStatus};
use incremental_cfg_patching::core::{
    apply_audit_gate, audit_mode_of, pool, store, trace, CacheStore, CorruptKind, FaultPlan,
    FuncMode, Instrumentation, JsonlSink, Points, RewriteCache, RewriteConfig, RewriteMode,
    SpanKind, Trace, UnwindStrategy,
};
use incremental_cfg_patching::emu::{run, LoadOptions, Outcome};
use incremental_cfg_patching::isa::Arch;
use incremental_cfg_patching::obj::Binary;
use incremental_cfg_patching::verify::rewrite_with_ladder_cached;
use incremental_cfg_patching::workloads::{
    docker_like, driverlib_like, firefox_like, generate, spec_params, switch_demo, GenParams,
    SPEC_NAMES,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "icfgp — incremental CFG patching driver

USAGE:
  icfgp gen --workload <spec:NAME|small|firefox[:N]|docker|driverlib|switch_demo>
            [--arch A] [--pie] [--seed N] [--perturb N] -o FILE
  icfgp analyze FILE
  icfgp audit FILE [--mode <dir|jt|func-ptr>] [--format <text|json|sarif>]
                   [--fault-seed N] [--intensity I] [--cache-dir DIR] [--trace FILE]
  icfgp rewrite FILE [rewrite options] [--stats] [--quiet] -o FILE
  icfgp verify FILE [rewrite options] [--json]
  icfgp fleet FILES... [rewrite options] [--quiet]
  icfgp run FILE [--preload-runtime] [--bias HEX] [--fuel N]
  icfgp chaos [--seeds N] [--workloads A,B] [--arch A] [--mode M]
              [--intensity I] [--floor F] [--budget FRAC] [--cache-dir DIR]
              [--kill-resume] [--trace FILE] [--quiet] [--json]
  icfgp cache <stats|verify|clear|compact> --cache-dir DIR [--trace FILE]
  icfgp cache corrupt --cache-dir DIR --kind <bit-flip|truncate|stale-version> [--seed N]
  icfgp trace summarize FILE
  icfgp trace diff A B
  icfgp bench-rewrite [--quick] [-o FILE]   (default FILE: BENCH_rewrite.json)
  icfgp list-workloads

rewrite options: --mode <dir|jt|func-ptr> [--unwind <ra|emulate|none>]
  [--no-poison] [--points <blocks|entries|none>] [--fault-seed N]
  [--intensity <none|quiet|standard|aggressive>]
  [--floor <dir|jt|func-ptr|trap-only|skip>] [--budget FRAC]
  [--audit-gate] [--func-timeout-ms N] [--cache-dir DIR] [--trace FILE]

An unknown command, flag or `cache` subcommand, and a malformed flag
value, is a usage error (exit 64).

`audit` runs the whole-binary static soundness audit (lint codes
ICFGP-A001..A010, severity proven < over-approx < under-approx-risk <
unknown) without rewriting; `--format sarif` emits SARIF 2.1.0. Exit
codes: 0 clean, 1 findings, 64 usage.

`rewrite` and `verify` run the degradation ladder: on per-function
verification failure the function steps down func-ptr → jt → dir →
trap-only → skip until the rewrite verifies with zero errors.
`--audit-gate` runs the audit first and starts each function at the
statically justified rung, cutting demotion rounds. `cache compact`
rewrites a store directory into a single fresh segment, dropping
superseded and quarantined records.
`rewrite --stats` prints per-round cache hit/miss counters, stage
timings and the five slowest functions; `ICFGP_THREADS=N` overrides
the worker-pool width (output bytes are identical for any N; invalid
values are rejected with exit code 64, as are non-integer
`ICFGP_STORE_LOCK_MS` / `ICFGP_FUNC_TIMEOUT_MS` values).

`--trace FILE` (or `ICFGP_TRACE`) records the structured event spine
— spans (run, rewrite, analysis rounds, store flushes), cache
lookups, demotions and retries — as newline-delimited
JSON. The stream is sealed into a
deterministic address-ordered form: bytes are identical for any
`ICFGP_THREADS`, and rewriting output is identical with tracing on or
off. `icfgp trace summarize FILE` folds a recorded stream back
through the metrics registry (top spans, per-stage cache histogram,
counter totals) and exits 1 if the store conservation laws
(`hits + misses + quarantines == lookups`) are violated; `icfgp
trace diff A B` prints per-counter deltas between two streams (warm
vs cold, for instance). `--quiet`/`-q` on `rewrite`, `fleet` and
`chaos` suppresses non-error stdout — exit codes stay the contract.

`--func-timeout-ms N` (or `ICFGP_FUNC_TIMEOUT_MS`) arms the
per-function watchdog: a function whose analysis overruns the budget
is skipped with a typed Budget failure and degrades through the
ladder instead of hanging the run. Every ladder round flushes the
`--cache-dir` store, so after a crash or kill, re-running the same
command with the same `--cache-dir` serves the finished rounds from
the store and produces byte-identical output. `chaos --kill-resume`
kills every case at each ladder round boundary, re-runs it over the
killed run's store and checks that oracle.

`fleet` rewrites a batch of near-identical binaries over one shared
warm cache store: fragment and emitted-code entries are keyed
position-independently (no layout base, no whole-binary fingerprint),
so work done on the first binary is reused by the rest. Each FILE is
written to FILE.rw; per-stage hit rates and the `shared` counter
(hits first computed for a *different* binary) are printed per binary
and in aggregate. `gen --perturb N` generates a near-identical
variant (a few filler functions renamed/reordered) for fleet
experiments.

`--cache-dir DIR` (or `ICFGP_CACHE_DIR`) attaches a crash-safe
persistent rewrite cache: entries are warmed from DIR on start and
flushed back on exit. Corrupt or unreadable records are quarantined
and recomputed — output bytes are identical to a cold run. `icfgp
cache verify` integrity-checks every record; `corrupt` deliberately
damages a store for testing.

EXIT CODES: 0 clean, 1 degraded within budget, 2 budget exceeded
(chaos: any case failed), 3 internal error, 64 usage.

Architectures: x86-64 (default; also x64), ppc64le, aarch64."
    );
    ExitCode::from(64)
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The persistent-store directory: `--cache-dir DIR` wins, then the
/// `ICFGP_CACHE_DIR` environment variable, else no store.
fn cache_dir(args: &[String]) -> Option<PathBuf> {
    arg_value(args, "--cache-dir")
        .or_else(|| std::env::var("ICFGP_CACHE_DIR").ok())
        .filter(|s| !s.trim().is_empty())
        .map(PathBuf::from)
}

/// The structured-trace output file: `--trace FILE` wins, then the
/// `ICFGP_TRACE` environment variable, else the spine stays
/// counting-only (no stream buffer).
fn trace_path(args: &[String]) -> Option<PathBuf> {
    arg_value(args, "--trace")
        .or_else(|| std::env::var("ICFGP_TRACE").ok())
        .filter(|s| !s.trim().is_empty())
        .map(PathBuf::from)
}

/// `--quiet`/`-q`: suppress non-error stdout. Exit codes are the
/// contract; errors and store events still go to stderr.
fn is_quiet(args: &[String]) -> bool {
    has_flag(args, "--quiet") || has_flag(args, "-q")
}

/// Arm stream recording on a command's trace spine when `--trace` /
/// `ICFGP_TRACE` asks for it; returns the output path.
fn arm_trace(args: &[String], cache: &RewriteCache) -> Option<PathBuf> {
    let path = trace_path(args)?;
    cache.trace().record();
    Some(path)
}

/// Seal the recorded stream and write it as JSONL to `path`.
fn write_trace(trace: &Trace, path: &std::path::Path) -> Result<(), String> {
    let f = std::fs::File::create(path)
        .map_err(|e| format!("trace {}: {e}", path.display()))?;
    let mut sink = JsonlSink::new(std::io::BufWriter::new(f));
    trace.drain(&mut sink).map_err(|e| format!("trace {}: {e}", path.display()))
}

/// Build the rewrite cache for a command: attached to the persistent
/// store when a cache dir is configured, plain in-memory otherwise.
fn open_cache(args: &[String]) -> RewriteCache {
    match cache_dir(args) {
        Some(dir) => {
            // Record from before the open, so a `--trace` stream shows
            // the store-open span and the segments it loaded.
            let spine = if trace_path(args).is_some() { Trace::recording() } else { Trace::new() };
            let store = Arc::new(CacheStore::open_traced(&dir, store::lock_timeout(), spine));
            for e in store.events() {
                eprintln!("cache-store: {e}");
            }
            RewriteCache::with_store(store)
        }
        None => RewriteCache::new(),
    }
}

/// Flush the attached store (if any) and report what was persisted
/// plus any integrity events the run produced. `quiet` suppresses the
/// stdout summary (JSON output modes); events still go to stderr.
fn finish_cache(cache: &RewriteCache, quiet: bool) {
    let Some(store) = cache.store() else { return };
    let seen: usize = store.events().len();
    let flushed = cache.flush_store();
    for e in store.events().iter().skip(seen) {
        eprintln!("cache-store: {e}");
    }
    if quiet {
        return;
    }
    let s = store.stats();
    println!(
        "  cache store: {} — {} hit / {} miss persisted, {} record(s) flushed, \
         {} quarantined",
        store.dir().display(),
        s.hits,
        s.misses,
        flushed,
        s.quarantined_records + s.quarantined_segments,
    );
}

/// Why a command failed: a usage error (exit 64) or an internal one
/// (exit 3). Plain `String` errors are internal.
enum Failure {
    Usage(String),
    Internal(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Internal(e)
    }
}

impl From<&str> for Failure {
    fn from(e: &str) -> Failure {
        Failure::Internal(e.to_string())
    }
}

/// The value of `flag`, if given, read by `parse`. A value `parse`
/// rejects is a usage error that lists the `accepted` values.
fn flag_value<T>(
    args: &[String],
    flag: &str,
    accepted: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, Failure> {
    let Some(v) = arg_value(args, flag) else { return Ok(None) };
    parse(&v)
        .map(Some)
        .ok_or_else(|| Failure::Usage(format!("bad {flag} value `{v}`; expected {accepted}")))
}

// One parser per value-taking flag, shared by every subcommand.

fn arch_flag(args: &[String]) -> Result<Option<Arch>, Failure> {
    flag_value(args, "--arch", "x86-64|x64|ppc64le|aarch64", |s| match s {
        "x86-64" | "x64" => Some(Arch::X64),
        "ppc64le" => Some(Arch::Ppc64le),
        "aarch64" => Some(Arch::Aarch64),
        _ => None,
    })
}

fn mode_flag(args: &[String]) -> Result<Option<RewriteMode>, Failure> {
    flag_value(args, "--mode", "dir|jt|func-ptr", |s| {
        [RewriteMode::Dir, RewriteMode::Jt, RewriteMode::FuncPtr]
            .into_iter()
            .find(|m| m.to_string() == s)
    })
}

fn floor_flag(args: &[String]) -> Result<Option<FuncMode>, Failure> {
    flag_value(args, "--floor", "dir|jt|func-ptr|trap-only|skip", |s| {
        [
            FuncMode::Full(RewriteMode::Dir),
            FuncMode::Full(RewriteMode::Jt),
            FuncMode::Full(RewriteMode::FuncPtr),
            FuncMode::TrapOnly,
            FuncMode::Skip,
        ]
        .into_iter()
        .find(|f| f.to_string() == s)
    })
}

fn intensity_flag(args: &[String]) -> Result<Option<String>, Failure> {
    flag_value(args, "--intensity", "none|quiet|standard|aggressive", |s| {
        FaultPlan::named(s, 0).map(|_| s.to_string())
    })
}

fn budget_flag(args: &[String]) -> Result<Option<f64>, Failure> {
    flag_value(args, "--budget", "a non-negative fraction such as 0.25", |s| {
        s.parse::<f64>().ok().filter(|b| b.is_finite() && *b >= 0.0)
    })
}

fn u64_flag(args: &[String], flag: &str) -> Result<Option<u64>, Failure> {
    flag_value(args, flag, "an unsigned integer", |s| s.parse().ok())
}

/// Largest `N` in `gen --workload firefox:N`.
const MAX_FIREFOX_SCALE: usize = 256;

fn workload_flag(args: &[String]) -> Result<Option<String>, Failure> {
    let accepted = format!(
        "{}|firefox:N (N in 1..={MAX_FIREFOX_SCALE})|spec:NAME (see `icfgp list-workloads`)",
        WORKLOADS.join("|")
    );
    flag_value(args, "--workload", &accepted, |s| {
        (is_workload(s) || firefox_scale(s).is_some()).then(|| s.to_string())
    })
}

/// The scale in a `firefox:N` workload name, when `N` is in range.
fn firefox_scale(name: &str) -> Option<usize> {
    let n: usize = name.strip_prefix("firefox:")?.parse().ok()?;
    (1..=MAX_FIREFOX_SCALE).contains(&n).then_some(n)
}

fn workloads_flag(args: &[String]) -> Result<Option<Vec<String>>, Failure> {
    let accepted = format!(
        "a comma-separated list of {}|spec:NAME (see `icfgp list-workloads`)",
        WORKLOADS.join("|")
    );
    flag_value(args, "--workloads", &accepted, |s| {
        let names: Vec<String> = s.split(',').map(str::to_string).collect();
        names.iter().all(|n| is_workload(n)).then_some(names)
    })
}

/// Read, parse and validate an input binary: every subcommand that
/// takes one rejects a malformed layout here (exit 3).
fn load_binary(path: &str) -> Result<Binary, String> {
    let data = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let binary: Binary =
        serde_json::from_slice(&data).map_err(|e| format!("parsing {path}: {e}"))?;
    binary.validate_layout().map_err(|e| format!("{path}: {e}"))?;
    Ok(binary)
}

fn save_binary(binary: &Binary, path: &str) -> Result<(), String> {
    let data = serde_json::to_vec(binary).map_err(|e| e.to_string())?;
    std::fs::write(path, data).map_err(|e| format!("writing {path}: {e}"))
}

fn cmd_gen(args: &[String]) -> Result<(), Failure> {
    let arch = arch_flag(args)?.unwrap_or(Arch::X64);
    let pie = has_flag(args, "--pie");
    let seed = u64_flag(args, "--seed")?.unwrap_or(1);
    let perturb = u64_flag(args, "--perturb")?.unwrap_or(0);
    let spec = workload_flag(args)?.unwrap_or_else(|| "small".to_string());
    let out = arg_value(args, "-o").ok_or("missing -o FILE")?;
    let workload = if let Some(scale) = firefox_scale(&spec) {
        firefox_like(arch, scale)
    } else if let Some(name) = spec.strip_prefix("spec:") {
        let name = SPEC_NAMES.iter().find(|n| **n == name).expect("validated by is_workload");
        let mut p = spec_params(name, arch, pie);
        p.perturb = perturb;
        generate(&p)
    } else {
        match spec.as_str() {
            "small" => {
                let mut p = GenParams::small("cli", arch, seed);
                p.pie = pie;
                p.perturb = perturb;
                // Perturbation moves filler functions; when the flag
                // is given (even `--perturb 0`, the pristine fleet
                // base), give the small workload some to move so the
                // variants differ only in fillers.
                if has_flag(args, "--perturb") && p.filler_funcs == 0 {
                    p.filler_funcs = 8;
                }
                generate(&p)
            }
            "firefox" => firefox_like(arch, 1),
            "docker" => docker_like(arch, seed, 100),
            "driverlib" => driverlib_like(arch, 400, 30).0,
            "switch_demo" | "switch-demo" => switch_demo(arch, pie),
            other => unreachable!("{other} validated by is_workload"),
        }
    };
    save_binary(&workload.binary, &out)?;
    println!(
        "{}: {} functions, {} bytes loaded, arch {arch}, pie {pie} -> {out}",
        workload.name,
        workload.binary.functions().count(),
        workload.binary.loaded_size()
    );
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), Failure> {
    let path = args.first().ok_or("missing FILE")?;
    let binary = load_binary(path)?;
    let a = analyze(&binary, &AnalysisConfig::default());
    let funcs = a.funcs.len();
    let ok = a.funcs.values().filter(|f| f.status == FuncStatus::Ok).count();
    let blocks: usize = a.funcs.values().map(|f| f.blocks.len()).sum();
    let tables: usize = a.funcs.values().map(|f| f.jump_tables.len()).sum();
    let tailcalls: usize = a.funcs.values().map(|f| f.indirect_tailcalls.len()).sum();
    println!("{path}: {} ({})", binary.arch, if binary.meta.pie { "PIE" } else { "no-PIE" });
    println!("  functions        : {funcs} ({ok} analysable, {:.2}% coverage)", a.coverage() * 100.0);
    println!("  basic blocks     : {blocks}");
    println!("  jump tables      : {tables}");
    println!("  indirect tailcalls (heuristic): {tailcalls}");
    println!("  function-pointer defs: {}", a.fp_defs.len());
    for f in a.funcs.values().filter(|f| f.status != FuncStatus::Ok) {
        println!("  FAILED {}: {:?}", if f.name.is_empty() { "<stripped>" } else { &f.name }, f.status);
    }
    Ok(())
}

/// Parse the rewrite options shared by `rewrite`, `verify`, `fleet`
/// and `audit`.
fn parse_rewrite_config(args: &[String]) -> Result<(RewriteConfig, Points), Failure> {
    let mut config = RewriteConfig::new(mode_flag(args)?.unwrap_or(RewriteMode::Jt));
    config.unwind = flag_value(args, "--unwind", "ra|emulate|none", |s| match s {
        "ra" => Some(UnwindStrategy::RaTranslation),
        "emulate" => Some(UnwindStrategy::CallEmulation),
        "none" => Some(UnwindStrategy::None),
        _ => None,
    })?
    .unwrap_or(UnwindStrategy::RaTranslation);
    if has_flag(args, "--no-poison") {
        config.poison_text = false;
    }
    let intensity = intensity_flag(args)?.unwrap_or_else(|| "standard".to_string());
    if let Some(seed) = u64_flag(args, "--fault-seed")? {
        config.fault_plan = FaultPlan::named(&intensity, seed);
    }
    if let Some(floor) = floor_flag(args)? {
        config.degradation.floor = floor;
    }
    if let Some(budget) = budget_flag(args)? {
        config.degradation.max_below_floor = budget;
    }
    if has_flag(args, "--audit-gate") {
        config.audit_gate = true;
    }
    // Watchdog: the flag wins, then ICFGP_FUNC_TIMEOUT_MS (validated
    // at startup), else the work-unit ledger alone bounds analysis.
    config.analysis.func_timeout_ms = u64_flag(args, "--func-timeout-ms")?.or_else(|| {
        let var = std::env::var("ICFGP_FUNC_TIMEOUT_MS").ok();
        store::env_millis("ICFGP_FUNC_TIMEOUT_MS", var.as_deref()).unwrap_or(None)
    });
    let points = flag_value(args, "--points", "blocks|entries|none", |s| match s {
        "blocks" => Some(Points::EveryBlock),
        "entries" => Some(Points::FunctionEntries),
        "none" => Some(Points::None),
        _ => None,
    })?
    .unwrap_or(Points::EveryBlock);
    Ok((config, points))
}

/// Run the degradation ladder and print the per-function dispositions.
/// Returns the ladder outcome plus the process exit code under the
/// 0/1/2 contract.
fn run_ladder(
    binary: &Binary,
    config: &RewriteConfig,
    points: Points,
    cache: &RewriteCache,
) -> Result<(incremental_cfg_patching::verify::LadderOutcome, u8), String> {
    let ladder =
        rewrite_with_ladder_cached(binary, config, &Instrumentation::empty(points), cache)
            .map_err(|e| e.to_string())?;
    let code = if ladder.budget_exceeded {
        2
    } else if ladder.fully_clean() {
        0
    } else {
        1
    };
    Ok((ladder, code))
}

fn print_dispositions(ladder: &incremental_cfg_patching::verify::LadderOutcome) {
    for d in ladder.degraded() {
        let why = d
            .steps
            .last()
            .map_or_else(
                || {
                    d.failure
                        .as_ref()
                        .map_or_else(|| "demoted".to_string(), |f| f.to_string())
                },
                |s| s.reason.clone(),
            );
        println!("  degraded {:#x}: {} -> {} ({why})", d.entry, d.requested, d.achieved);
    }
    println!(
        "  ladder     : {} round(s), {} function(s), {} degraded, {} below floor{}",
        ladder.rounds,
        ladder.dispositions.len(),
        ladder.degraded().count(),
        ladder.below_floor,
        if ladder.budget_exceeded { " — BUDGET EXCEEDED" } else { "" }
    );
}

/// Print the per-round incremental-engine counters (`rewrite --stats`).
/// The text itself is a registry projection rendered by
/// [`trace::render_stats_text`]; the `shared` counter distinguishes
/// weak-key hits first computed for a *different* binary.
fn print_stats(round_stats: &[incremental_cfg_patching::core::RewriteStats]) {
    print!("{}", trace::render_stats_text(round_stats));
}

/// Print the predictive-gate summary a gated ladder run carries.
fn print_gate(ladder: &incremental_cfg_patching::verify::LadderOutcome) {
    let Some(gate) = &ladder.gate else { return };
    println!(
        "  audit gate : {} — {} function(s) pre-gated{}",
        gate.counts,
        gate.gated.len(),
        if gate.cache_hit { " (report cached)" } else { "" }
    );
}

/// `icfgp audit FILE` — run the static soundness audit and report
/// findings without rewriting. Exit 0 clean, 1 findings, 64 usage.
fn cmd_audit(args: &[String]) -> Result<u8, Failure> {
    let path = args.first().filter(|a| !a.starts_with('-')).ok_or_else(|| {
        Failure::Usage(
            "missing FILE (icfgp audit FILE [--mode M] [--format text|json|sarif])".into(),
        )
    })?;
    let format = flag_value(args, "--format", "text|json|sarif", |s| {
        matches!(s, "text" | "json" | "sarif").then(|| s.to_string())
    })?
    .unwrap_or_else(|| "text".to_string());
    let (config, _) = parse_rewrite_config(args)?;
    let binary = load_binary(path)?;
    let mode = audit_mode_of(config.mode);
    let cache = open_cache(args);
    let tpath = arm_trace(args, &cache);
    let spine = cache.trace();
    let run_span = tpath.as_ref().map(|_| spine.span(SpanKind::Run));
    let mut cfg = config;
    if let Some(plan) = cfg.fault_plan.clone() {
        // Audit the same faulted analysis a rewrite would see.
        plan.arm_cached(&binary, &mut cfg, &cache);
    }
    // The gate path memoises the report through the cache (and its
    // persistent store); the installed func modes are discarded.
    let summary = apply_audit_gate(&binary, &mut cfg, &cache);
    let report = &summary.report;
    match format.as_str() {
        "json" => println!("{}", report.to_json().map_err(|e| e.to_string())?),
        "sarif" => println!("{}", to_sarif(report, mode, path)),
        _ => {
            print!("{}", render_text(report, mode));
            if summary.cache_hit {
                println!("  (report served from cache)");
            }
        }
    }
    finish_cache(&cache, format != "text");
    if let Some(s) = run_span {
        s.close();
    }
    if let Some(p) = &tpath {
        write_trace(&spine, p)?;
    }
    Ok(u8::from(!report.is_clean(mode)))
}

fn cmd_bench_rewrite(args: &[String]) -> Result<u8, Failure> {
    let quick = has_flag(args, "--quick");
    let out = arg_value(args, "-o").unwrap_or_else(|| "BENCH_rewrite.json".to_string());
    let report = incremental_cfg_patching::bench_rewrite::run_bench(quick)?;
    println!("{}", report.render());
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    Ok(if report.all_identical() { 0 } else { 2 })
}

fn cmd_rewrite(args: &[String]) -> Result<u8, Failure> {
    let path = args.first().ok_or("missing FILE")?;
    let out = arg_value(args, "-o").ok_or("missing -o FILE")?;
    let (config, points) = parse_rewrite_config(args)?;
    let mode = config.mode;
    let binary = load_binary(path)?;
    let quiet = is_quiet(args);
    let cache = open_cache(args);
    let tpath = arm_trace(args, &cache);
    let spine = cache.trace();
    let run_span = tpath.as_ref().map(|_| spine.span(SpanKind::Run));
    let (ladder, code) = run_ladder(&binary, &config, points, &cache)?;
    save_binary(&ladder.outcome.binary, &out)?;
    if !quiet {
        let r = &ladder.outcome.report;
        println!("rewrote {path} -> {out} ({mode} mode)");
        println!("  coverage   : {:.2}%", r.coverage * 100.0);
        println!(
            "  trampolines: {} ({} short, {} long, {} multi-hop, {} trap)",
            r.trampolines(),
            r.tramp_short,
            r.tramp_long,
            r.tramp_multi_hop,
            r.tramp_trap
        );
        println!("  cloned jump tables: {}", r.cloned_tables);
        println!("  ra-map entries    : {}", r.ra_map_entries);
        println!("  size       : {} -> {} (+{:.2}%)", r.original_size, r.rewritten_size,
            r.size_increase() * 100.0);
        println!(
            "  verify     : {} error(s), {} warning(s) over {} trampolines, {} patches, {} clones",
            ladder.verify.errors().count(),
            ladder.verify.warnings().count(),
            ladder.verify.trampolines_checked,
            ladder.verify.patches_checked,
            ladder.verify.clones_checked
        );
        print_dispositions(&ladder);
        print_gate(&ladder);
        if has_flag(args, "--stats") {
            print_stats(&ladder.round_stats);
        }
    }
    finish_cache(&cache, quiet);
    if let Some(s) = run_span {
        s.close();
    }
    if let Some(p) = &tpath {
        write_trace(&spine, p)?;
        if !quiet {
            println!("  trace      : {}", p.display());
        }
    }
    Ok(code)
}

/// `icfgp fleet FILES... [--cache-dir DIR]` — rewrite a batch of
/// binaries over one shared warm store. Every FILE is rewritten to
/// FILE.rw through the same cache (and persistent store when
/// configured), so position-independent fragment/emit entries
/// computed for the first binary serve the rest; per-stage hit rates
/// and cross-binary `shared` counts are reported per binary and in
/// aggregate. Exit code is the worst per-binary ladder code.
fn cmd_fleet(args: &[String]) -> Result<u8, Failure> {
    let files: Vec<String> =
        args.iter().take_while(|a| !a.starts_with('-')).cloned().collect();
    if files.is_empty() {
        return Err(Failure::Usage(
            "fleet needs at least one input FILE (icfgp fleet FILES... [--cache-dir DIR])".into(),
        ));
    }
    let (config, points) = parse_rewrite_config(args)?;
    let quiet = is_quiet(args);
    let cache = open_cache(args);
    let tpath = arm_trace(args, &cache);
    let spine = cache.trace();
    let run_span = tpath.as_ref().map(|_| spine.span(SpanKind::Run));
    const STAGES: [&str; 4] = ["funcs", "frags", "emits", "live"];
    // Per stage: [hits, misses, shared].
    let mut agg = [[0u64; 3]; 4];
    let mut code = 0u8;
    for (fi, path) in files.iter().enumerate() {
        let binary = load_binary(path)?;
        let (ladder, c) = run_ladder(&binary, &config, points.clone(), &cache)?;
        code = code.max(c);
        let out = format!("{path}.rw");
        save_binary(&ladder.outcome.binary, &out)?;
        let mut per = [[0u64; 3]; 4];
        for s in &ladder.round_stats {
            let stages = [&s.func_analyses, &s.fragments, &s.emits, &s.liveness];
            for (k, st) in stages.into_iter().enumerate() {
                per[k][0] += st.hits;
                per[k][1] += st.misses;
                per[k][2] += st.shared;
            }
        }
        for (a, p) in agg.iter_mut().zip(per.iter()) {
            for (av, pv) in a.iter_mut().zip(p.iter()) {
                *av += pv;
            }
        }
        if !quiet {
            let cells: Vec<String> = STAGES
                .iter()
                .zip(per.iter())
                .map(|(n, v)| fleet_cell(n, v))
                .collect();
            println!("[{}/{}] {path} -> {out}: {}", fi + 1, files.len(), cells.join(", "));
        }
    }
    if !quiet {
        let cells: Vec<String> =
            STAGES.iter().zip(agg.iter()).map(|(n, v)| fleet_cell(n, v)).collect();
        println!("fleet: {} binaries — {}", files.len(), cells.join(", "));
    }
    finish_cache(&cache, quiet);
    if let Some(s) = run_span {
        s.close();
    }
    if let Some(p) = &tpath {
        write_trace(&spine, p)?;
        if !quiet {
            println!("  trace      : {}", p.display());
        }
    }
    Ok(code)
}

/// One `stage hits/total (rate%, shared: N)` cell of the fleet report.
fn fleet_cell(name: &str, v: &[u64; 3]) -> String {
    let total = v[0] + v[1];
    let rate = if total == 0 { 0.0 } else { v[0] as f64 / total as f64 * 100.0 };
    format!("{name} {}/{total} hit ({rate:.0}%, shared: {})", v[0], v[2])
}

fn cmd_verify(args: &[String]) -> Result<u8, Failure> {
    let path = args.first().ok_or("missing FILE")?;
    let (config, points) = parse_rewrite_config(args)?;
    let binary = load_binary(path)?;
    let cache = open_cache(args);
    let tpath = arm_trace(args, &cache);
    let spine = cache.trace();
    let run_span = tpath.as_ref().map(|_| spine.span(SpanKind::Run));
    let (ladder, code) = run_ladder(&binary, &config, points, &cache)?;
    let report = &ladder.verify;
    if has_flag(args, "--json") {
        println!("{}", report.to_json().map_err(|e| e.to_string())?);
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        println!(
            "{path}: {} mode, {} function(s) checked ({} skipped), {} trampoline(s), \
             {} patch(es), {} clone(s)",
            config.mode,
            report.functions_checked,
            report.functions_skipped,
            report.trampolines_checked,
            report.patches_checked,
            report.clones_checked
        );
        print_dispositions(&ladder);
        print_gate(&ladder);
    }
    finish_cache(&cache, has_flag(args, "--json"));
    if let Some(s) = run_span {
        s.close();
    }
    if let Some(p) = &tpath {
        write_trace(&spine, p)?;
    }
    Ok(code)
}

/// `icfgp chaos` — sweep fault seeds over workloads. `--cache-dir`
/// adds the store fault domain; `--kill-resume` the kill domain, with
/// its scratch stores under `--cache-dir` (default: a temp directory).
fn cmd_chaos(args: &[String]) -> Result<u8, Failure> {
    let mut config = match (has_flag(args, "--kill-resume"), cache_dir(args)) {
        (true, dir) => CampaignConfig::kill(dir.unwrap_or_else(|| {
            std::env::temp_dir().join(format!("icfgp-kill-{}", std::process::id()))
        })),
        (false, Some(dir)) => {
            CampaignConfig { domain: FaultDomain::Store(dir), ..CampaignConfig::default() }
        }
        (false, None) => CampaignConfig::default(),
    };
    if let Some(n) = u64_flag(args, "--seeds")? {
        config.seeds = (1..=n).collect();
    }
    if let Some(w) = workloads_flag(args)? {
        config.workloads = w;
    }
    if let Some(arch) = arch_flag(args)? {
        config.arches = vec![arch];
    }
    if let Some(mode) = mode_flag(args)? {
        config.modes = vec![mode];
    }
    if let Some(i) = intensity_flag(args)? {
        config.intensity = i;
    }
    if let Some(floor) = floor_flag(args)? {
        config.policy.floor = floor;
    }
    if let Some(budget) = budget_flag(args)? {
        config.policy.max_below_floor = budget;
    }
    let quiet = is_quiet(args);
    let json = has_flag(args, "--json");
    let tpath = trace_path(args);
    let spine = tpath.as_ref().map(|_| Trace::recording());
    config.trace = spine.clone();
    let run_span = spine.as_deref().map(|t| t.span(SpanKind::Run));
    let report = run_campaign(&config, |case| {
        if !json && !quiet {
            println!("{}", case.line());
        }
    })?;
    if let Some(s) = run_span {
        s.close();
    }
    if !quiet {
        if json {
            println!("{}", serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?);
        } else {
            println!();
            println!("{}", report.render(&config.seeds));
        }
    }
    if let (Some(t), Some(p)) = (&spine, &tpath) {
        write_trace(t, p)?;
    }
    Ok(report.exit_code())
}

/// `icfgp cache <stats|verify|clear|corrupt>` — offline maintenance of
/// a persistent store directory.
fn cmd_cache(args: &[String]) -> Result<u8, Failure> {
    let sub = args.first().ok_or("missing cache subcommand (stats|verify|clear|compact|corrupt)")?;
    let rest = &args[1..];
    let dir = cache_dir(rest)
        .ok_or("missing --cache-dir DIR (or set ICFGP_CACHE_DIR)")?;
    match sub.as_str() {
        "stats" => {
            // Open read-only-ish (we do take the lock briefly) to count
            // usable records; the advisory index supplies segment info.
            let tpath = trace_path(rest);
            let spine = tpath.as_ref().map(|_| Trace::recording());
            let store = match &spine {
                Some(t) => CacheStore::open_traced(&dir, store::lock_timeout(), Arc::clone(t)),
                None => CacheStore::open(&dir),
            };
            let s = store.stats();
            println!("{}:", dir.display());
            println!(
                "  segments   : {} loaded, {} quarantined",
                s.segments_loaded, s.quarantined_segments
            );
            println!(
                "  records    : {} usable, {} quarantined",
                s.records_loaded, s.quarantined_records
            );
            let (qfiles, qbytes) = store::quarantine_usage(&dir);
            println!("  quarantine : {qfiles} file(s), {qbytes} byte(s) on disk");
            println!("  key-epoch  : {} (this build)", store::KEY_EPOCH);
            for (stage, n) in store.entry_counts() {
                println!("    {:<9}: {n}", stage.name());
            }
            match CacheStore::read_index(&dir) {
                Some(index) => {
                    let bytes: u64 = index.segments.iter().map(|s| s.bytes).sum();
                    println!(
                        "  index      : {} segment(s), {bytes} byte(s), \
                         format v{} epoch {}",
                        index.segments.len(),
                        index.version,
                        index.key_epoch
                    );
                }
                None => println!("  index      : absent"),
            }
            for e in store.events() {
                println!("  event      : {e}");
            }
            if let (Some(t), Some(p)) = (&spine, &tpath) {
                write_trace(t, p)?;
            }
            Ok(0)
        }
        "verify" => {
            let report = store::verify_dir(&dir);
            println!("{}:", dir.display());
            println!(
                "  {} segment(s), {} valid record(s), {} byte(s)",
                report.segments, report.valid_records, report.total_bytes
            );
            for p in &report.problems {
                println!("  problem: {p}");
            }
            if !report.index_consistent {
                println!("  problem: advisory index stale or missing");
            }
            if report.quarantined_files > 0 {
                println!("  {} quarantined file(s) present", report.quarantined_files);
            }
            if report.is_clean() {
                println!("  store is clean");
                Ok(0)
            } else {
                println!(
                    "  store is damaged: {} corrupt record(s), {} bad segment(s), \
                     {} truncated",
                    report.corrupt_records, report.bad_segments, report.truncated_segments
                );
                Ok(1)
            }
        }
        "clear" => {
            let removed = store::clear_dir(&dir).map_err(|e| format!("clearing: {e}"))?;
            println!("{}: removed {removed} file(s)", dir.display());
            Ok(0)
        }
        "compact" => {
            let r = store::compact_dir(&dir)?;
            println!("{}:", dir.display());
            println!(
                "  records    : {} kept, {} superseded dropped, {} corrupt dropped",
                r.records_kept, r.superseded_dropped, r.corrupt_dropped
            );
            println!(
                "  segments   : {} compacted ({} unreadable dropped), \
                 {} quarantined file(s) removed",
                r.segments_before, r.bad_segments_dropped, r.quarantined_files_removed
            );
            println!("  bytes      : {} -> {}", r.bytes_before, r.bytes_after);
            Ok(0)
        }
        "corrupt" => {
            let kind = flag_value(args, "--kind", "bit-flip|truncate|stale-version", |s| {
                CorruptKind::parse(s)
            })?
            .ok_or("missing --kind <bit-flip|truncate|stale-version>")?;
            let seed = u64_flag(args, "--seed")?.unwrap_or(1);
            let what = store::corrupt_dir(&dir, kind, seed)?;
            println!("{}: {what}", dir.display());
            Ok(0)
        }
        other => Err(format!("unknown cache subcommand {other}").into()),
    }
}

/// `icfgp trace <summarize|diff>` — offline analysis of a recorded
/// JSONL trace stream. `summarize` folds the stream back through the
/// metrics registry and prints top spans, the per-stage cache
/// histogram and counter totals; it exits 1 when the store
/// conservation laws are violated. `diff` prints per-counter deltas
/// between two streams.
fn cmd_trace(args: &[String]) -> Result<u8, Failure> {
    let sub = args.first().ok_or("missing trace subcommand (summarize|diff)")?;
    match sub.as_str() {
        "summarize" => {
            let path = args
                .get(1)
                .filter(|a| !a.starts_with('-'))
                .ok_or("missing FILE (icfgp trace summarize FILE)")?;
            let events = trace::read_jsonl(std::path::Path::new(path))?;
            let summary = trace::summarize_events(&events);
            print!("{}", summary.render());
            Ok(u8::from(!summary.violations().is_empty()))
        }
        "diff" => {
            let a = args
                .get(1)
                .filter(|a| !a.starts_with('-'))
                .ok_or("missing A (icfgp trace diff A B)")?;
            let b = args
                .get(2)
                .filter(|a| !a.starts_with('-'))
                .ok_or("missing B (icfgp trace diff A B)")?;
            let sa = trace::summarize_events(&trace::read_jsonl(std::path::Path::new(a))?);
            let sb = trace::summarize_events(&trace::read_jsonl(std::path::Path::new(b))?);
            print!("{}", trace::render_diff(&sa, &sb));
            Ok(0)
        }
        other => Err(format!("unknown trace subcommand {other} (summarize|diff)").into()),
    }
}

fn cmd_run(args: &[String]) -> Result<(), Failure> {
    let path = args.first().ok_or("missing FILE")?;
    let opts = LoadOptions {
        preload_runtime: has_flag(args, "--preload-runtime"),
        bias: flag_value(args, "--bias", "a hex address such as 0x10000", |s| {
            u64::from_str_radix(s.trim_start_matches("0x"), 16).ok()
        })?
        .unwrap_or(0),
        fuel: u64_flag(args, "--fuel")?.unwrap_or(500_000_000),
        ..LoadOptions::default()
    };
    let binary = load_binary(path)?;
    match run(&binary, &opts) {
        Outcome::Halted(stats) => {
            println!("halted normally");
            println!("  output      : {:?}", stats.output);
            println!("  instructions: {}", stats.instructions);
            println!("  cycles      : {}", stats.cycles);
            println!("  icache miss : {}", stats.icache_misses);
            println!("  traps       : {}", stats.traps);
            println!("  unwind steps: {} (ra translations {})", stats.unwind_steps, stats.ra_translations);
            Ok(())
        }
        Outcome::Crashed { reason, stats } => {
            Err(format!("crashed after {} instructions: {reason}", stats.instructions).into())
        }
        Outcome::OutOfFuel(stats) => {
            Err(format!("out of fuel after {} instructions", stats.instructions).into())
        }
    }
}

/// The flags each subcommand accepts, as the usage text lists them;
/// a trailing `=` marks a flag that takes a value. `cache` is keyed by
/// its subcommand. `None`: no such (sub)command.
fn accepted_flags(cmd: &str) -> Option<&'static [&'static [&'static str]]> {
    const REWRITE: &[&str] = &[
        "--mode=",
        "--unwind=",
        "--no-poison",
        "--points=",
        "--fault-seed=",
        "--intensity=",
        "--floor=",
        "--budget=",
        "--audit-gate",
        "--func-timeout-ms=",
        "--cache-dir=",
        "--trace=",
    ];
    const STORE: &[&str] = &["--cache-dir=", "--trace="];
    Some(match cmd {
        "gen" => &[&["--workload=", "--arch=", "--pie", "--seed=", "--perturb=", "-o="]],
        "analyze" | "list-workloads" | "trace" | "cache" => &[],
        "audit" => &[&["--mode=", "--format=", "--fault-seed=", "--intensity="], STORE],
        "rewrite" => {
            &[REWRITE, &["--stats", "--quiet", "-q", "-o="]]
        }
        "verify" => &[REWRITE, &["--json"]],
        "fleet" => &[REWRITE, &["--quiet", "-q"]],
        "run" => &[&["--preload-runtime", "--bias=", "--fuel="]],
        "chaos" => &[
            &["--seeds=", "--workloads=", "--arch=", "--mode=", "--intensity=", "--floor="],
            &["--budget=", "--kill-resume", "--quiet", "-q", "--json"],
            STORE,
        ],
        "cache stats" | "cache verify" | "cache clear" | "cache compact" => &[STORE],
        "cache corrupt" => &[&["--cache-dir=", "--kind=", "--seed="]],
        "bench-rewrite" => &[&["--quick", "-o="]],
        _ => return None,
    })
}

/// Check a command line against [`accepted_flags`] before any work
/// starts, so a misspelt flag is a usage error rather than silently
/// ignored. The value after a value-taking flag is skipped.
fn check_args(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else { return Ok(()) };
    let (name, rest) = match (cmd.as_str(), args.get(1)) {
        ("cache", Some(sub)) => (format!("{cmd} {sub}"), &args[2..]),
        _ => (cmd.clone(), &args[1..]),
    };
    let flags = accepted_flags(&name).ok_or_else(|| format!("unknown command `{name}`"))?;
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with('-') {
            continue;
        }
        let known = flags.iter().flat_map(|f| f.iter()).find(|f| f.trim_end_matches('=') == arg);
        match known {
            Some(f) if f.ends_with('=') => {
                rest.next();
            }
            Some(_) => {}
            None => return Err(format!("unknown flag {arg} for `icfgp {name}`")),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    // An explicit-but-invalid ICFGP_THREADS override is a usage error:
    // refuse to start rather than silently running with a thread count
    // the user did not ask for.
    if let Err(e) =
        pool::threads_from_env(std::env::var("ICFGP_THREADS").ok().as_deref())
    {
        eprintln!("error: {e}");
        return ExitCode::from(64);
    }
    // Same contract for the millisecond knobs: an explicit-but-invalid
    // override refuses to start instead of silently using a default.
    for var in ["ICFGP_STORE_LOCK_MS", "ICFGP_FUNC_TIMEOUT_MS"] {
        if let Err(e) = store::env_millis(var, std::env::var(var).ok().as_deref()) {
            eprintln!("error: {e}");
            return ExitCode::from(64);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = check_args(&args) {
        eprintln!("error: {e}");
        return usage();
    }
    let Some(cmd) = args.first() else { return usage() };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "gen" => cmd_gen(rest).map(|()| 0),
        "analyze" => cmd_analyze(rest).map(|()| 0),
        "audit" => cmd_audit(rest),
        "rewrite" => cmd_rewrite(rest),
        "fleet" => cmd_fleet(rest),
        "verify" => cmd_verify(rest),
        "run" => cmd_run(rest).map(|()| 0),
        "chaos" => cmd_chaos(rest),
        "cache" => cmd_cache(rest),
        "trace" => cmd_trace(rest),
        "bench-rewrite" => cmd_bench_rewrite(rest),
        "list-workloads" => {
            println!("{}", WORKLOADS.join("  "));
            for n in SPEC_NAMES {
                println!("spec:{n}");
            }
            Ok(0)
        }
        _ => return usage(),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(64)
        }
        Err(Failure::Internal(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}
