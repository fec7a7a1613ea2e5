//! Crash-recovery equivalence: the persistent store is the only
//! recovery path. Killing a store-backed ladder run at *any* round
//! boundary and then re-running the same rewrite over the same store
//! must reproduce the uninterrupted run exactly —
//!
//! 1. **Kill point** — the stopped run reports exactly the rounds it
//!    ran, so the kill lands on the boundary under test;
//! 2. **Byte identity** — the re-run's binary serialises to the same
//!    bytes as the uninterrupted reference;
//! 3. **Disposition identity** — per-function `FuncDisposition`
//!    records (achieved modes, ladder steps, failures) are equal;
//! 4. **Accounting** — the re-run takes the same number of rounds;
//!
//! across workload seeds, rewrite modes, fault seeds and thread
//! counts. Kills are the ladder's deterministic stop hook, which lands
//! after a round's store flush — exactly the disk state SIGKILL leaves
//! behind.

use incremental_cfg_patching::core::{
    CacheStore, FaultPlan, Instrumentation, Points, RewriteCache, RewriteConfig, RewriteMode,
};
use incremental_cfg_patching::isa::Arch;
use incremental_cfg_patching::verify::{
    rewrite_with_ladder_cached, rewrite_with_ladder_stopping_after, LadderError,
};
use incremental_cfg_patching::workloads::{generate, GenParams};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn arb_mode() -> impl Strategy<Value = RewriteMode> {
    prop_oneof![Just(RewriteMode::Dir), Just(RewriteMode::Jt), Just(RewriteMode::FuncPtr)]
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "icfgp-resume-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn kill_at_any_boundary_resumes_byte_identical(
        mode in arb_mode(),
        wl_seed in 0u64..200,
        fault_seed in 0u64..500,
        threads in 1usize..5,
    ) {
        // This binary holds a single sequential proptest, so the
        // process-global override cannot race another test. Byte
        // identity must hold for any worker count.
        std::env::set_var("ICFGP_THREADS", threads.to_string());
        let w = generate(&GenParams::small("resume", Arch::X64, wl_seed));
        let mut config = RewriteConfig::new(mode);
        // Standard intensity forces multi-round ladders on most seeds;
        // single-round cases exercise the trivial no-kill-point path.
        config.fault_plan = FaultPlan::named("standard", fault_seed);
        config.degradation.max_below_floor = 1.0;
        let instr = Instrumentation::empty(Points::EveryBlock);
        let store_cache = |dir: &PathBuf| RewriteCache::with_store(Arc::new(CacheStore::open(dir)));

        // Uninterrupted reference, store-backed like the runs under test.
        let scratch = tmp_dir(&format!("{mode}-{wl_seed}-{fault_seed}-{threads}"));
        let reference =
            rewrite_with_ladder_cached(&w.binary, &config, &instr, &store_cache(&scratch.join("ref")))
                .map_err(|e| TestCaseError::fail(format!("reference ladder: {e}")))?;
        let ref_bytes = serde_json::to_vec(&reference.outcome.binary).unwrap();

        for k in 1..reference.rounds {
            let case_dir = scratch.join(format!("k{k}"));
            match rewrite_with_ladder_stopping_after(
                &w.binary,
                &config,
                &instr,
                &store_cache(&case_dir),
                k,
            ) {
                Err(LadderError::Interrupted { rounds }) => prop_assert_eq!(rounds, k),
                other => {
                    return Err(TestCaseError::fail(format!(
                        "kill point {k}: expected a stop, got {other:?}"
                    )))
                }
            }
            let rerun = rewrite_with_ladder_cached(&w.binary, &config, &instr, &store_cache(&case_dir))
                .map_err(|e| TestCaseError::fail(format!("kill point {k}: re-run: {e}")))?;
            prop_assert_eq!(
                serde_json::to_vec(&rerun.outcome.binary).unwrap(),
                ref_bytes.clone(),
                "kill point {}: re-run bytes diverge",
                k
            );
            prop_assert_eq!(
                &rerun.dispositions,
                &reference.dispositions,
                "kill point {}: re-run dispositions diverge",
                k
            );
            prop_assert_eq!(rerun.rounds, reference.rounds);
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
