//! The `icfgp` rewrite benchmark.
//!
//! ```console
//! $ cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!       --workload cold_large --seed 1 --seconds 20 --trace 0
//! $ cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! Run from the root of a checkout. Each run builds `icfgp` there,
//! generates the workload's inputs from `--seed`, and invokes the CLI
//! as a subprocess in a closed loop with one client for `--seconds`.
//! End-to-end metrics come from those untraced invocations; a traced
//! in-process replay of the same pipeline gives the per-layer metrics
//! (`--trace 1`). The last stdout line is the JSON result.

mod inputs;
mod invoke;
mod traced;

use inputs::{Workload, DEFAULT_SEED};
use invoke::{dir_bytes, measure, prepare, Measured, Prepared};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use traced::{emulate, replay, EmuPair, Recorder, Replay};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Traced replays per `--trace 1` run; per-layer times are medians.
const TRACE_REPS: usize = 3;
/// The fewest measured invocations, however short `--seconds` is.
const MIN_INVOCATIONS: usize = 3;
const MIB: f64 = 1024.0 * 1024.0;

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("invocation_ms_best", "ms"),
    ("funcs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("rewritten_runtime_pct", "%"),
    ("size_increase_pct", "%"),
    ("coverage_pct", "%"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 56] = [
    ("invocation_ms_p50", "ms"),
    ("invocation_ms_tail", "ms"),
    ("io.read_ms", "ms"),
    ("io.write_ms", "ms"),
    ("obj.decode_ms", "ms"),
    ("obj.encode_ms", "ms"),
    ("obj.input_mb", "MiB"),
    ("obj.output_mb", "MiB"),
    ("analysis.ms", "ms"),
    ("analysis.us_per_func", "us/func"),
    ("analysis.func_hits", "count"),
    ("analysis.func_misses", "count"),
    ("analysis.rounds", "count"),
    ("relocate.ms", "ms"),
    ("relocate.us_per_func", "us/func"),
    ("relocate.frag_hits", "count"),
    ("relocate.frag_misses", "count"),
    ("relocate.emit_hits", "count"),
    ("relocate.emit_misses", "count"),
    ("placement.ms", "ms"),
    ("placement.tramp_short", "count"),
    ("placement.tramp_long", "count"),
    ("placement.tramp_multihop", "count"),
    ("placement.tramp_trap", "count"),
    ("assemble.ms", "ms"),
    ("rewrite.ms", "ms"),
    ("rewrite.unattributed_ms", "ms"),
    ("rewrite.serial_ms", "ms"),
    ("rewrite.par_x", "x"),
    ("cache.live_hits", "count"),
    ("cache.live_misses", "count"),
    ("cache.shared_hits", "count"),
    ("cache.hit_rate", "ratio"),
    ("store.open_ms", "ms"),
    ("store.lookups", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.quarantined", "count"),
    ("store.records_loaded", "count"),
    ("store.flush_ms", "ms"),
    ("store.flushed_records", "count"),
    ("store.hit_rate", "ratio"),
    ("store.disk_mb", "MiB"),
    ("verify.ms", "ms"),
    ("verify.errors", "count"),
    ("verify.warnings", "count"),
    ("ladder.rounds", "count"),
    ("emu.cycles_original", "cycles"),
    ("emu.cycles_rewritten", "cycles"),
    ("emu.traps", "count"),
    ("emu.icache_misses", "count"),
    ("emu.ra_translations", "count"),
    ("runtime_overhead_pct", "%"),
    ("cli.gap_ms", "ms"),
    ("pipeline.ms", "ms"),
    ("error_rate", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    SelfTest,
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    if argv == ["--selftest"] {
        return Ok(Mode::SelfTest);
    }
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The sample at the highest percentile that still has at least ten
/// samples above it, with that percentile; the maximum (as p100) when
/// there are ten samples or fewer.
fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n <= 10 {
        return (s.last().copied().unwrap_or(0.0), 100.0);
    }
    let rank = n - 10;
    (s[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Everything one workload run measured.
struct Run {
    prepared: Prepared,
    setup_s: Vec<f64>,
    measured: Measured,
    replays: Vec<Replay>,
    recorder: Recorder,
    serial_ms: Option<f64>,
    emu: EmuPair,
    store_disk_bytes: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Set up `SETUP_REPS` times (keeping the last), measure, then run
/// the traced replays and the emulator check.
fn run_workload(
    workload: Workload,
    icfgp: &Path,
    dir: &Path,
    seed: u64,
    scale: usize,
    budget: Duration,
    traced: bool,
) -> Result<Run, String> {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for k in 0..SETUP_REPS {
        let t = Instant::now();
        let p = prepare(workload, icfgp, &dir.join(format!("setup{k}")), seed, scale)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(old) = prepared.replace(p) {
            std::fs::remove_dir_all(&old.dir).map_err(|e| format!("{}: {e}", old.dir.display()))?;
        }
    }
    let prepared = prepared.expect("SETUP_REPS > 0");
    let measured = measure(&prepared, budget, MIN_INVOCATIONS)?;
    let store_disk_bytes = prepared.store.as_deref().map_or(0, dir_bytes);

    let mut run = Run {
        setup_s,
        measured,
        replays: Vec::new(),
        recorder: Recorder::new(),
        serial_ms: None,
        emu: EmuPair::default(),
        store_disk_bytes,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        prepared,
    };
    run.attempted = run.measured.wall_ms.len() as u64;
    run.failed = run.measured.failed;
    run.failures = std::mem::take(&mut run.measured.failures);

    // The traced replays. Each must verify cleanly and reproduce the
    // CLI's bytes.
    let p = &run.prepared;
    let replay_dir = p.dir.join("replay");
    std::fs::create_dir_all(&replay_dir).map_err(|e| format!("{}: {e}", replay_dir.display()))?;
    let outputs: Vec<PathBuf> = (0..p.inputs.len())
        .map(|i| replay_dir.join(format!("v{i}.rw")))
        .collect();
    // `fleet_store` replays start from an empty store of their own.
    let replay_store = || -> Result<Option<PathBuf>, String> {
        match (workload, &p.store) {
            (Workload::FleetStore, Some(_)) => {
                let s = replay_dir.join("store");
                if s.exists() {
                    std::fs::remove_dir_all(&s).map_err(|e| format!("{}: {e}", s.display()))?;
                }
                Ok(Some(s))
            }
            (_, store) => Ok(store.clone()),
        }
    };
    for _ in 0..if traced { TRACE_REPS } else { 1 } {
        let store = replay_store()?;
        let r = replay(
            workload,
            &p.inputs,
            &outputs,
            store.as_deref(),
            None,
            &mut run.recorder,
        )?;
        run.attempted += 1;
        let why = if r.verify_errors > 0 {
            Some(format!("traced run: {} verifier error(s)", r.verify_errors))
        } else if r.out_hashes != p.ref_hashes {
            Some("traced run: output differs from the CLI's".to_string())
        } else {
            None
        };
        if let Some(why) = why {
            run.failed += 1;
            run.failures.push(why);
        }
        run.replays.push(r);
    }
    if traced {
        let store = replay_store()?;
        let r = replay(
            workload,
            &p.inputs,
            &outputs,
            store.as_deref(),
            Some(1),
            &mut Recorder::new(),
        )?;
        run.serial_ms = Some(r.rewrite_ms);
    }

    // The emulator, an independent interpreter, on each distinct output.
    for (input, output) in p.input_bytes.iter().zip(&p.ref_outputs) {
        run.attempted += 1;
        match emulate(input, output) {
            Ok(e) => {
                run.emu.cycles_original += e.cycles_original;
                run.emu.cycles_rewritten += e.cycles_rewritten;
                run.emu.traps += e.traps;
                run.emu.icache_misses += e.icache_misses;
                run.emu.ra_translations += e.ra_translations;
            }
            Err(why) => {
                run.failed += 1;
                run.failures.push(format!("emulator: {why}"));
            }
        }
    }
    Ok(run)
}

/// Index of the traced replay with the median pipeline time (the
/// lower middle one for an even count).
fn median_replay(run: &Run) -> usize {
    let mut idx: Vec<usize> = (0..run.replays.len()).collect();
    idx.sort_by(|&a, &b| {
        run.replays[a]
            .pipeline_ms
            .total_cmp(&run.replays[b].pipeline_ms)
    });
    idx[(idx.len() - 1) / 2]
}

/// The reported metrics of a run: end-to-end and per-layer, by name.
fn metrics(run: &Run) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let walls = &run.measured.wall_ms;
    let p50 = median(walls);
    let last = run.replays.last().expect("at least one replay");
    // Other tenants of the host slow whole stretches of a run, which
    // moves the median between runs more than the best invocation.
    let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
    m.insert("invocation_ms_best", best);
    m.insert("invocation_ms_p50", p50);
    m.insert("invocation_ms_tail", tail(walls).0);
    m.insert("funcs_per_s", last.instrumented_funcs as f64 / (best / 1e3));
    m.insert("peak_rss_mb", run.measured.peak_rss_kib as f64 / 1024.0);
    m.insert("setup_s", median(&run.setup_s));
    // The rewritten binary's emulated run time as a share of the
    // original's, and the overhead that is its excess over 100%.
    let runtime = run.emu.cycles_rewritten as f64 / run.emu.cycles_original as f64 * 100.0;
    m.insert("rewritten_runtime_pct", runtime);
    m.insert("runtime_overhead_pct", runtime - 100.0);
    m.insert(
        "size_increase_pct",
        (last.rewritten_size as f64 / last.original_size as f64 - 1.0) * 100.0,
    );
    m.insert(
        "coverage_pct",
        last.instrumented_funcs as f64 / last.total_funcs as f64 * 100.0,
    );
    m.insert("error_rate", run.failed as f64 / run.attempted as f64);
    m.insert("store_disk_mb", run.store_disk_bytes as f64 / MIB);

    // Per-layer: the median over the traced replays.
    for name in last.metrics.keys() {
        let v: Vec<f64> = run.replays.iter().map(|r| r.metrics[name]).collect();
        m.insert(name, median(&v));
    }
    let pipeline = run.replays[median_replay(run)].pipeline_ms;
    m.insert("pipeline.ms", pipeline);
    m.insert("cli.gap_ms", p50 - pipeline);
    m.insert("store.disk_mb", run.store_disk_bytes as f64 / MIB);
    let serial = run.serial_ms.unwrap_or(0.0);
    m.insert("rewrite.serial_ms", serial);
    m.insert("rewrite.par_x", serial / m["rewrite.ms"]);
    m.insert("emu.cycles_original", run.emu.cycles_original as f64);
    m.insert("emu.cycles_rewritten", run.emu.cycles_rewritten as f64);
    m.insert("emu.traps", run.emu.traps as f64);
    m.insert("emu.icache_misses", run.emu.icache_misses as f64);
    m.insert("emu.ra_translations", run.emu.ra_translations as f64);
    m
}

/// The human-readable report: every end-to-end metric and, when
/// traced, the per-layer self-time table and every per-layer metric.
fn print_report(workload: Workload, seed: u64, run: &Run, m: &BTreeMap<&str, f64>, traced: bool) {
    let p = &run.prepared;
    let last = run.replays.last().expect("at least one replay");
    let walls = &run.measured.wall_ms;
    let (_, tail_pct) = tail(walls);
    let max = walls.iter().copied().fold(0.0, f64::max);
    println!(
        "workload {} seed {seed}: {} binar{} of {} functions, scale {}",
        workload.name(),
        p.inputs.len(),
        if p.inputs.len() == 1 { "y" } else { "ies" },
        last.total_funcs,
        workload.scale()
    );
    println!(
        "  end to end (untraced, closed loop, 1 client, {} invocations):",
        walls.len()
    );
    let n = walls.len();
    let rows: [(&str, &str, String); 12] = [
        ("invocation_ms_best", "ms", format!("min of n={n}")),
        ("invocation_ms_p50", "ms", format!("n={n}, max {max:.1}")),
        (
            "invocation_ms_tail",
            "ms",
            format!("p{tail_pct:.0} of n={n}"),
        ),
        (
            "funcs_per_s",
            "1/s",
            format!("{} functions / best", last.instrumented_funcs),
        ),
        ("peak_rss_mb", "MiB", format!("max of n={n}")),
        ("setup_s", "s", format!("median of n={}", run.setup_s.len())),
        (
            "error_rate",
            "ratio",
            format!("{}/{} failed", run.failed, run.attempted),
        ),
        ("runtime_overhead_pct", "%", "emulated cycles".into()),
        (
            "rewritten_runtime_pct",
            "%",
            "100 + runtime_overhead_pct".into(),
        ),
        ("size_increase_pct", "%", "loaded size".into()),
        ("coverage_pct", "%", "instrumented / all functions".into()),
        ("store_disk_mb", "MiB", "after the workload".into()),
    ];
    for (name, unit, note) in rows {
        println!("    {name:<24} {:>12.3} {unit:<5} ({note})", m[name]);
    }
    for f in run.failures.iter().take(10) {
        println!("  FAILED: {f}");
    }
    if !traced {
        return;
    }
    // Self time per layer in the median replay, so that the rows and
    // the CLI gap add up to the untraced median invocation.
    let funcs = last.total_funcs.max(1) as f64;
    let request = u32::try_from(median_replay(run) + 1).expect("few replays");
    let selfs = run.recorder.self_ms(request);
    let p50 = m["invocation_ms_p50"];
    println!(
        "  traced layers (self time in the median of {} traced replays):",
        run.replays.len()
    );
    println!(
        "    {:<26} {:>10} {:>10} {:>8}",
        "layer", "self ms", "us/func", "% of p50"
    );
    let order = [
        "io.read",
        "obj.decode",
        "store.open",
        "analysis",
        "relocate",
        "placement",
        "assemble",
        "rewrite",
        "verify",
        "round",
        "store.flush",
        "obj.encode",
        "io.write",
        "pipeline",
    ];
    let mut total = 0.0;
    for name in order {
        let Some(&ms) = selfs.get(name) else { continue };
        total += ms;
        println!(
            "    {name:<26} {ms:>10.3} {:>10.3} {:>8.2}",
            ms * 1e3 / funcs,
            ms / p50 * 100.0
        );
    }
    let gap = m["cli.gap_ms"];
    println!(
        "    {:<26} {gap:>10.3} {:>10.3} {:>8.2}",
        "cli.gap (no layer)",
        gap * 1e3 / funcs,
        gap / p50 * 100.0
    );
    println!(
        "    {:<26} {:>10.3} {:>10} {:>8.2}",
        "total",
        total + gap,
        "",
        (total + gap) / p50 * 100.0
    );
    println!("  per-layer metrics:");
    for (name, unit) in PER_LAYER {
        println!("    {name:<26} {:>14.4} {unit}", m[name]);
    }
}

/// The result line: `metrics` holds exactly the requested set.
fn result_json(
    run: &Run,
    m: &BTreeMap<&str, f64>,
    names: &[(&str, &str)],
) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, unit) in names {
        let v = m[name];
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        parts.join(", ")
    ))
}

/// The checkout root: the working directory, which must hold the
/// repository's sources.
fn checkout_root() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return Err(format!(
            "{} is not the root of a checkout of the repository (no Cargo.toml and crates/)",
            root.display()
        ));
    }
    Ok(root)
}

/// Build `icfgp` from the checkout's sources; its path.
fn build_icfgp(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "icfgp",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building icfgp failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    let bin = target.join("release").join("icfgp");
    if !bin.is_file() {
        return Err(format!("{} missing after the build", bin.display()));
    }
    Ok(bin)
}

/// A scratch directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(root: &Path, name: &str) -> Result<WorkDir, String> {
        let dir = root
            .join(".bench_work")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_benchmark(a: &Args) -> Result<String, String> {
    let root = checkout_root()?;
    let icfgp = build_icfgp(&root)?;
    let work = WorkDir::new(&root, a.workload.name())?;
    let run = run_workload(
        a.workload,
        &icfgp,
        &work.0,
        a.seed,
        a.workload.scale(),
        Duration::from_secs(a.seconds),
        a.trace,
    )?;
    let m = metrics(&run);
    print_report(a.workload, a.seed, &run, &m, a.trace);
    let out = root.join(".bench_out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let spans = out.join(format!(
        "{}-seed{}-trace{}.spans.jsonl",
        a.workload.name(),
        a.seed,
        u8::from(a.trace)
    ));
    run.recorder.write_jsonl(&spans)?;
    println!("  spans: {}", spans.display());
    result_json(&run, &m, if a.trace { &PER_LAYER } else { &END_TO_END })
}

/// Tiny-scale runs of all three workloads that check the harness: the
/// generator matches `firefox_like`, clean runs pass the oracle, and a
/// tampered reference hash or exit code is counted as failures.
fn self_test() -> Result<(), String> {
    let want = serde_json::to_vec(&icfgp_workloads::firefox_like(icfgp_isa::Arch::X64, 1).binary)
        .map_err(|e| e.to_string())?;
    if inputs::input_files(Workload::ColdLarge, DEFAULT_SEED, 1)[0] != want {
        return Err("the generator no longer reproduces firefox_like(X64, 1)".into());
    }
    println!("selftest: generator reproduces firefox_like(X64, 1) byte for byte");
    let root = checkout_root()?;
    let icfgp = build_icfgp(&root)?;
    let bench = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
        if !bench.contains(&format!("\"name\": \"{name}\"")) {
            return Err(format!("BENCHMARK.json does not list metric {name}"));
        }
    }
    for w in Workload::ALL {
        let work = WorkDir::new(&root, &format!("selftest-{}", w.name()))?;
        let mut run = run_workload(w, &icfgp, &work.0, 7, 1, Duration::ZERO, true)?;
        if run.failed != 0 {
            return Err(format!(
                "{}: clean run failed: {:?}",
                w.name(),
                run.failures
            ));
        }
        let m = metrics(&run);
        result_json(&run, &m, &END_TO_END)?;
        result_json(&run, &m, &PER_LAYER)?;
        let p = &mut run.prepared;
        p.ref_hashes[0] ^= 1;
        let tampered_hash = measure(p, Duration::ZERO, 2)?;
        p.ref_hashes[0] ^= 1;
        let exit = p.ref_exit;
        p.ref_exit = exit.map(|c| c + 1);
        let tampered_exit = measure(p, Duration::ZERO, 2)?;
        p.ref_exit = exit;
        let clean = measure(p, Duration::ZERO, 2)?;
        for (what, got, want) in [
            ("tampered hash", tampered_hash.failed, 2),
            ("tampered exit code", tampered_exit.failed, 2),
            ("untampered", clean.failed, 0),
        ] {
            if got != want {
                return Err(format!(
                    "{}: {what}: {got} failures counted, expected {want}",
                    w.name()
                ));
            }
        }
        println!(
            "selftest: {} ok — {} checks passed; a tampered hash and exit code each failed 2/2",
            w.name(),
            run.attempted
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&argv) {
        Ok(m) => m,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload cold_large|warm_disk|fleet_store \
                 --seed N --seconds S --trace 0|1\n       perfbench --selftest"
            );
            return ExitCode::from(64);
        }
    };
    let result = match mode {
        Mode::Run(a) => run_benchmark(&a).map(|json| println!("{json}")),
        Mode::SelfTest => self_test(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
