//! `icfgp bench-rewrite`: cold vs warm vs parallel rewrite timing over
//! named workloads.
//!
//! Three measurements per workload, all producing **byte-identical**
//! binaries (asserted, not assumed):
//!
//! 1. **cold serial** — fresh [`RewriteCache`], one worker thread: the
//!    sequential baseline;
//! 2. **cold parallel** — fresh cache, default worker pool: what
//!    parallelism alone buys;
//! 3. **warm** — re-rewrite through the now-populated cache: what the
//!    incremental engine buys when nothing changed;
//! 4. **persisted** — flush the cache to an on-disk store, reopen it
//!    in a fresh cache (a new process, in effect) and re-rewrite: what
//!    `--cache-dir` buys across invocations.
//!
//! A fifth measurement runs the degradation ladder under a seeded
//! fault plan with a shared cache and reports per-round times: round 1
//! pays the cold cost, later rounds re-do only the demoted functions.
//!
//! A **fleet** scenario exercises cross-binary sharing: N near-identical
//! variants of one workload (the `perturb` knob renames and reorders a
//! few filler functions) are rewritten over one shared store; the cold
//! column rewrites each variant over its own fresh store. The position-
//! independent fragment/emit keys let variants 2..N serve most
//! per-function work from the first variant's records.
//!
//! Results are printed as a table and written to `BENCH_rewrite.json`.

use icfgp_core::{
    CacheStore, Instrumentation, Points, RewriteCache, RewriteConfig, RewriteMode, Rewriter,
};
use icfgp_isa::Arch;
use icfgp_obj::Binary;
use icfgp_verify::rewrite_with_ladder_cached;
use serde::{Deserialize, Serialize};

/// One workload's measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadBench {
    /// Workload name (as accepted by [`crate::chaos::build_workload`]).
    pub workload: String,
    /// Architecture.
    pub arch: String,
    /// Point-selected functions rewritten.
    pub funcs: usize,
    /// Cold rewrite wall time, one worker thread (ms).
    pub cold_serial_ms: f64,
    /// Cold rewrite wall time, default worker pool (ms).
    pub cold_parallel_ms: f64,
    /// Warm re-rewrite wall time through the populated cache (ms).
    pub warm_ms: f64,
    /// `cold_serial_ms / cold_parallel_ms`.
    pub parallel_speedup: f64,
    /// `cold_parallel_ms / warm_ms`.
    pub warm_speedup: f64,
    /// Functions per second in the cold parallel rewrite.
    pub funcs_per_sec: f64,
    /// Fragment+emit cache hit rate of the warm rewrite (1.0 = every
    /// per-function stage served from cache).
    pub warm_hit_rate: f64,
    /// Warm-from-disk rewrite wall time: a fresh cache attached to the
    /// persisted store (ms). Includes store lookups, not the open/scan.
    pub persisted_ms: f64,
    /// Persisted-store hit rate of the warm-from-disk rewrite.
    pub persisted_hit_rate: f64,
    /// Records the persisted run quarantined (0 on a healthy store).
    pub persisted_quarantined: u64,
    /// All rewrites (serial, parallel, warm, persisted) produced
    /// byte-identical binaries.
    pub byte_identical: bool,
    /// Ladder rounds under the seeded fault plan.
    pub ladder_rounds: usize,
    /// Wall time of ladder round 1 (cold) in ms.
    pub ladder_cold_round_ms: f64,
    /// Mean wall time of ladder rounds ≥ 2 (warm) in ms; 0 when the
    /// ladder converged in one round.
    pub ladder_warm_round_ms: f64,
    /// `ladder_cold_round_ms / ladder_warm_round_ms` (0 when no warm
    /// rounds ran).
    pub ladder_round_speedup: f64,
}

/// One fleet measurement: N near-identical variants of a workload
/// rewritten over one shared store vs per-variant cold rewrites.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetBench {
    /// Base workload name.
    pub workload: String,
    /// Architecture.
    pub arch: String,
    /// Number of variants in the fleet.
    pub variants: usize,
    /// Sum of per-variant cold rewrite wall times, each over its own
    /// fresh store (ms).
    pub cold_total_ms: f64,
    /// Wall time of rewriting the whole fleet over one shared store (ms).
    pub fleet_total_ms: f64,
    /// `cold_total_ms / fleet_total_ms`.
    pub fleet_speedup: f64,
    /// Fragment+emit hit rate across variants 2..N.
    pub warm_hit_rate: f64,
    /// Cross-binary (weak-key) hits recorded on variants 2..N.
    pub shared_hits: u64,
    /// Every fleet output byte-identical to its variant's cold rewrite.
    pub byte_identical: bool,
    /// Each variant after the first missed strictly fewer fragments
    /// than the first (cold) variant.
    pub misses_strictly_fewer: bool,
}

/// The whole benchmark result (`BENCH_rewrite.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Worker threads used by the parallel runs.
    pub threads: usize,
    /// Quick mode (CI smoke) or full sweep.
    pub quick: bool,
    /// Per-workload measurements.
    pub workloads: Vec<WorkloadBench>,
    /// Fleet (cross-binary sharing) measurements.
    #[serde(default)]
    pub fleet: Vec<FleetBench>,
}

/// Milliseconds from a trace-span nanosecond total. Every timing
/// column is the rewrite span the engine records anyway — there is no
/// separate stopwatch path to drift from what `--trace` reports.
fn span_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Benchmark one workload. The fault seed drives the ladder
/// measurement; the plain rewrites run un-faulted.
fn bench_one(name: &str, arch: Arch, binary: &Binary, seed: u64) -> WorkloadBench {
    let instr = Instrumentation::empty(Points::EveryBlock);
    let config = RewriteConfig::new(RewriteMode::FuncPtr);

    // Cold, one thread.
    let serial = Rewriter::new(config.clone()).with_threads(1);
    let out_serial = serial.rewrite(binary, &instr).expect("serial rewrite");
    let cold_serial = out_serial.stats.timings.total_ns;

    // Cold, parallel, fresh cache (kept for the warm run).
    let parallel = Rewriter::new(config.clone());
    let cache = RewriteCache::new();
    let out_cold = parallel
        .rewrite_cached(binary, &instr, &cache)
        .expect("cold rewrite");
    let cold_parallel = out_cold.stats.timings.total_ns;

    // Warm: everything per-function should come from the cache.
    let out_warm = parallel
        .rewrite_cached(binary, &instr, &cache)
        .expect("warm rewrite");
    let warm = out_warm.stats.timings.total_ns;

    // Persisted: flush everything the cold run computed into a fresh
    // store directory, reopen it in a brand-new cache (simulating a
    // second process with `--cache-dir`), and rewrite again.
    let store_dir = std::env::temp_dir().join(format!(
        "icfgp-bench-store-{}-{}-{}",
        std::process::id(),
        name.replace([':', '.'], "_"),
        arch
    ));
    let _ = std::fs::remove_dir_all(&store_dir);
    {
        let persist = RewriteCache::with_store(std::sync::Arc::new(CacheStore::open(&store_dir)));
        let _ = parallel
            .rewrite_cached(binary, &instr, &persist)
            .expect("persist rewrite");
        persist.flush_store();
        // Dropping `persist` releases the writer lock.
    }
    let disk = RewriteCache::with_store(std::sync::Arc::new(CacheStore::open(&store_dir)));
    let out_disk = parallel
        .rewrite_cached(binary, &instr, &disk)
        .expect("persisted rewrite");
    let persisted = out_disk.stats.timings.total_ns;
    let persisted_hit_rate = out_disk.stats.store.hit_rate();
    let persisted_quarantined = out_disk.stats.store.quarantined_records
        + out_disk.stats.store.quarantined_segments;
    drop(disk);

    let _ = std::fs::remove_dir_all(&store_dir);

    let byte_identical = out_serial.binary == out_cold.binary
        && out_cold.binary == out_warm.binary
        && out_cold.binary == out_disk.binary;
    let warm_hits = out_warm.stats.fragments.hits + out_warm.stats.emits.hits;
    let warm_total = out_warm.stats.fragments.total() + out_warm.stats.emits.total();
    let warm_hit_rate = if warm_total == 0 {
        1.0
    } else {
        warm_hits as f64 / warm_total as f64
    };

    // Ladder under faults, shared cache across rounds.
    let mut faulted = config.clone();
    faulted.fault_plan = icfgp_core::FaultPlan::named("standard", seed);
    let ladder_cache = RewriteCache::new();
    let ladder = rewrite_with_ladder_cached(binary, &faulted, &instr, &ladder_cache);
    let (ladder_rounds, ladder_cold_round_ms, ladder_warm_round_ms) = match &ladder {
        Ok(l) => {
            let cold = l
                .round_stats
                .first()
                .map_or(0.0, |s| s.timings.total_ns as f64 / 1e6);
            let warm_rounds = &l.round_stats[1..];
            let warm = if warm_rounds.is_empty() {
                0.0
            } else {
                warm_rounds
                    .iter()
                    .map(|s| s.timings.total_ns as f64 / 1e6)
                    .sum::<f64>()
                    / warm_rounds.len() as f64
            };
            (l.rounds, cold, warm)
        }
        Err(_) => (0, 0.0, 0.0),
    };
    let ladder_round_speedup = if ladder_warm_round_ms > 0.0 {
        ladder_cold_round_ms / ladder_warm_round_ms
    } else {
        0.0
    };

    WorkloadBench {
        workload: name.to_string(),
        arch: arch.to_string(),
        funcs: out_cold.report.instrumented_funcs,
        cold_serial_ms: span_ms(cold_serial),
        cold_parallel_ms: span_ms(cold_parallel),
        warm_ms: span_ms(warm),
        persisted_ms: span_ms(persisted),
        persisted_hit_rate,
        persisted_quarantined,
        parallel_speedup: span_ms(cold_serial) / span_ms(cold_parallel).max(1e-9),
        warm_speedup: span_ms(cold_parallel) / span_ms(warm).max(1e-9),
        funcs_per_sec: out_cold.report.instrumented_funcs as f64
            / (cold_parallel as f64 / 1e9).max(1e-9),
        warm_hit_rate,
        byte_identical,
        ladder_rounds,
        ladder_cold_round_ms,
        ladder_warm_round_ms,
        ladder_round_speedup,
    }
}

/// One fleet variant: the small workload with filler functions, a few
/// of which `perturb` renames and reorders. Same-length renames and
/// same-width immediates keep every *other* function at identical
/// bytes and addresses across variants.
fn fleet_variant(arch: Arch, perturb: u64) -> Binary {
    let mut p = icfgp_workloads::GenParams::small("fleet", arch, 11);
    p.filler_funcs = 24;
    p.perturb = perturb;
    icfgp_workloads::generate(&p).binary
}

/// Benchmark cross-binary sharing over a fleet of near-identical
/// variants: N separate `--cache-dir` runs, each with its own fresh
/// store, against one run over a single shared store. Both columns
/// sum the per-variant rewrite spans (store open/flush excluded from
/// both), so the delta isolates what cross-binary sharing buys, not
/// what persistence costs.
fn bench_fleet(arch: Arch, variants: usize) -> FleetBench {
    let instr = Instrumentation::empty(Points::EveryBlock);
    let rw = Rewriter::new(RewriteConfig::new(RewriteMode::FuncPtr));
    let binaries: Vec<Binary> = (0..variants as u64).map(|v| fleet_variant(arch, v)).collect();
    let dir_of = |tag: &str, i: usize| {
        std::env::temp_dir().join(format!(
            "icfgp-bench-fleet-{tag}{i}-{}-{arch}",
            std::process::id()
        ))
    };

    // Cold reference: every variant through its own fresh store. The
    // column is the sum of the variants' rewrite spans — store
    // open/flush is outside the span in both columns, so the delta
    // still isolates what cross-binary sharing buys.
    let colds: Vec<_> = binaries
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let dir = dir_of("cold", i);
            let _ = std::fs::remove_dir_all(&dir);
            let cache = RewriteCache::with_store(std::sync::Arc::new(CacheStore::open(&dir)));
            let out = rw.rewrite_cached(b, &instr, &cache).expect("cold variant");
            cache.flush_store();
            out
        })
        .collect();
    let cold_total: u64 = colds.iter().map(|o| o.stats.timings.total_ns).sum();
    for i in 0..variants {
        let _ = std::fs::remove_dir_all(dir_of("cold", i));
    }

    // Fleet: all variants sequentially over one shared store.
    let store_dir = dir_of("shared", 0);
    let _ = std::fs::remove_dir_all(&store_dir);
    let shared = RewriteCache::with_store(std::sync::Arc::new(CacheStore::open(&store_dir)));
    let outs: Vec<_> = binaries
        .iter()
        .map(|b| rw.rewrite_cached(b, &instr, &shared).expect("fleet variant"))
        .collect();
    shared.flush_store();
    let fleet_total: u64 = outs.iter().map(|o| o.stats.timings.total_ns).sum();
    drop(shared);
    let _ = std::fs::remove_dir_all(&store_dir);

    let byte_identical = colds.iter().zip(&outs).all(|(c, o)| c.binary == o.binary);
    let first_misses = outs[0].stats.fragments.misses;
    let misses_strictly_fewer = outs[1..]
        .iter()
        .all(|o| o.stats.fragments.misses < first_misses);
    let (mut hits, mut total, mut shared_hits) = (0u64, 0u64, 0u64);
    for o in &outs[1..] {
        hits += o.stats.fragments.hits + o.stats.emits.hits;
        total += o.stats.fragments.total() + o.stats.emits.total();
        shared_hits += o.stats.fragments.shared + o.stats.emits.shared;
    }
    FleetBench {
        workload: "small+fillers".to_string(),
        arch: arch.to_string(),
        variants,
        cold_total_ms: span_ms(cold_total),
        fleet_total_ms: span_ms(fleet_total),
        fleet_speedup: span_ms(cold_total) / span_ms(fleet_total).max(1e-9),
        warm_hit_rate: if total == 0 { 1.0 } else { hits as f64 / total as f64 },
        shared_hits,
        byte_identical,
        misses_strictly_fewer,
    }
}

/// Run the benchmark over the standard workload list.
///
/// `quick` restricts the sweep to one small workload per arch for the
/// CI smoke job; the full run adds the larger generated binaries.
///
/// # Errors
///
/// A message naming an unknown workload (should not happen with the
/// built-in lists).
pub fn run_bench(quick: bool) -> Result<BenchReport, String> {
    let cases: Vec<(&str, Arch)> = if quick {
        vec![("switch_demo", Arch::X64), ("small", Arch::X64)]
    } else {
        vec![
            ("switch_demo", Arch::X64),
            ("small", Arch::X64),
            ("small", Arch::Aarch64),
            ("small", Arch::Ppc64le),
            ("spec:602.gcc_s", Arch::X64),
            ("spec:605.mcf_s", Arch::X64),
            ("firefox", Arch::X64),
            ("driverlib", Arch::X64),
        ]
    };
    let mut workloads = Vec::new();
    for (name, arch) in cases {
        let binary = crate::chaos::build_workload(name, arch)?;
        workloads.push(bench_one(name, arch, &binary, 3));
    }
    let fleet = if quick {
        vec![bench_fleet(Arch::X64, 3)]
    } else {
        vec![bench_fleet(Arch::X64, 3), bench_fleet(Arch::Aarch64, 3)]
    };
    Ok(BenchReport {
        threads: icfgp_core::Rewriter::new(RewriteConfig::new(RewriteMode::Dir)).threads(),
        quick,
        workloads,
        fleet,
    })
}

impl BenchReport {
    /// Render the human-readable table.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>6} {:>10} {:>10} {:>9} {:>9} {:>7} {:>7} {:>7} {:>9} {:>7} {:>9}",
            "workload/arch",
            "funcs",
            "cold1 ms",
            "coldN ms",
            "warm ms",
            "disk ms",
            "par x",
            "warm x",
            "disk %",
            "f/s",
            "rounds",
            "ladder x"
        );
        for w in &self.workloads {
            let _ =
                writeln!(
                out,
                "{:<22} {:>6} {:>10.2} {:>10.2} {:>9.2} {:>9.2} {:>7.2} {:>7.1} {:>7.0} {:>9.0} {:>7} {:>9.1}{}",
                format!("{}/{}", w.workload, w.arch),
                w.funcs,
                w.cold_serial_ms,
                w.cold_parallel_ms,
                w.warm_ms,
                w.persisted_ms,
                w.parallel_speedup,
                w.warm_speedup,
                w.persisted_hit_rate * 100.0,
                w.funcs_per_sec,
                w.ladder_rounds,
                w.ladder_round_speedup,
                if w.byte_identical { "" } else { "  !! OUTPUT DIVERGED" },
            );
        }
        for f in &self.fleet {
            let _ = writeln!(
                out,
                "fleet {:<16} {:>2} variants: cold {:>8.2} ms, shared-store {:>8.2} ms \
                 ({:.2}x), variants 2..N hit {:>3.0}% (shared: {}){}",
                format!("{}/{}", f.workload, f.arch),
                f.variants,
                f.cold_total_ms,
                f.fleet_total_ms,
                f.fleet_speedup,
                f.warm_hit_rate * 100.0,
                f.shared_hits,
                if f.byte_identical { "" } else { "  !! OUTPUT DIVERGED" },
            );
        }
        let _ = write!(
            out,
            "({} worker thread(s); all runs byte-identical unless flagged)",
            self.threads
        );
        out
    }

    /// Every workload produced byte-identical outputs across serial,
    /// parallel, warm and fleet runs.
    #[must_use]
    pub fn all_identical(&self) -> bool {
        self.workloads.iter().all(|w| w.byte_identical)
            && self.fleet.iter().all(|f| f.byte_identical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_runs_and_is_byte_identical() {
        let report = run_bench(true).unwrap();
        assert_eq!(report.workloads.len(), 2);
        assert!(report.all_identical(), "{}", report.render());
        for w in &report.workloads {
            assert!(w.funcs > 0);
            assert!(w.warm_hit_rate > 0.99, "warm run must hit the cache: {w:?}");
            assert!(
                w.persisted_hit_rate > 0.0,
                "warm-from-disk run must hit the persisted store: {w:?}"
            );
            assert_eq!(w.persisted_quarantined, 0, "healthy store must not quarantine: {w:?}");
        }
        let json = serde_json::to_string(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.workloads.len(), report.workloads.len());
        assert_eq!(back.fleet.len(), report.fleet.len());
    }

    #[test]
    fn fleet_bench_shares_across_variants() {
        let f = bench_fleet(Arch::X64, 3);
        assert!(f.byte_identical, "fleet outputs must match cold rewrites: {f:?}");
        assert!(f.misses_strictly_fewer, "later variants must miss less: {f:?}");
        assert!(
            f.warm_hit_rate >= 0.5,
            "variants 2..N must serve >= 50% of fragment+emit lookups from \
             the shared store: {f:?}"
        );
        assert!(f.shared_hits > 0, "cross-binary hits must be flagged shared: {f:?}");
    }
}
