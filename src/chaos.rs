//! Chaos campaigns: sweep fault seeds over workloads and prove the
//! degradation ladder always lands on a verified, behaviourally
//! equivalent binary.
//!
//! A campaign is the cartesian product of workloads × architectures ×
//! rewriting modes × fault seeds. Each case arms a seeded
//! [`FaultPlan`], runs the rewrite through
//! [`rewrite_with_ladder`](icfgp_verify::rewrite_with_ladder), and
//! judges the result against two oracles:
//!
//! 1. **static** — the final round's [`icfgp_verify`] report must have
//!    zero errors (the ladder guarantees this or errors out);
//! 2. **dynamic** — the rewritten binary must emulate equivalently to
//!    the original (same outcome class, same output stream).
//!
//! The per-case verdicts roll up into a [`CampaignReport`] whose
//! matrix rendering and worst-case exit code back the `icfgp chaos`
//! subcommand and the CI `chaos-smoke` job.

use icfgp_core::{
    apply_audit_gate, audit_mode_of, binary_fingerprint, config_fingerprint, CacheStore,
    DegradationPolicy, FaultPlan, FuncMode, Instrumentation, Points, RewriteCache,
    RewriteConfig, RewriteMode, RewriteStats, RunJournal, StoreStats, Trace,
};
use icfgp_emu::{run, LoadOptions, Outcome};
use icfgp_isa::Arch;
use icfgp_obj::Binary;
use icfgp_verify::{
    rewrite_with_ladder_cached, rewrite_with_ladder_supervised, LadderError, Supervisor,
};
use icfgp_workloads::{
    docker_like, driverlib_like, firefox_like, generate, spec_params, switch_demo, GenParams,
    SPEC_NAMES,
};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What a chaos campaign should sweep.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Workload names (`small`, `switch_demo`, `spec:NAME`).
    pub workloads: Vec<String>,
    /// Architectures to cover.
    pub arches: Vec<Arch>,
    /// Requested rewriting modes.
    pub modes: Vec<RewriteMode>,
    /// Fault seeds; each seed is one independent fault plan.
    pub seeds: Vec<u64>,
    /// Fault-plan intensity (`none`/`quiet`/`standard`/`aggressive`).
    pub intensity: String,
    /// Degradation policy applied to every case.
    pub policy: DegradationPolicy,
    /// Persistent-store directory shared by every case. When set, each
    /// case's fault plan also arms the store's I/O fault hooks (torn
    /// writes, bit flips, short reads, lock contention), so the
    /// campaign exercises the persistence layer under the same oracle:
    /// store damage may cost recomputes, never output bytes.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Shared trace spine every case's cache and store emit onto
    /// (`--trace`); `None` keeps per-case private collectors.
    pub trace: Option<Arc<Trace>>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            workloads: vec!["small".into(), "switch_demo".into()],
            arches: vec![Arch::X64, Arch::Ppc64le, Arch::Aarch64],
            modes: vec![RewriteMode::Dir, RewriteMode::Jt, RewriteMode::FuncPtr],
            seeds: (1..=8).collect(),
            intensity: "standard".into(),
            policy: DegradationPolicy::default(),
            cache_dir: None,
            trace: None,
        }
    }
}

/// Per-case verdict, from best to worst.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case", tag = "kind", content = "detail")]
pub enum CaseStatus {
    /// Every function achieved its requested mode; verify clean;
    /// emulation equivalent.
    Clean,
    /// Some functions degraded or were analysis-skipped, within the
    /// error budget; verify clean; emulation equivalent.
    Degraded,
    /// The ladder converged but more functions fell below the policy
    /// floor than the budget allows.
    BudgetExceeded,
    /// The ladder could not produce a verified rewrite at all.
    LadderFailed(String),
    /// The rewritten binary did not emulate equivalently.
    EmulationDiverged(String),
}

impl CaseStatus {
    /// Campaign exit-code contribution: 0 clean, 1 degraded (budget
    /// verdicts included — on a heavily faulted small workload an
    /// exceeded budget is the policy *working*, reported in the
    /// matrix), 2 for real robustness failures: no verified rewrite
    /// produced, or behavioural divergence.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            CaseStatus::Clean => 0,
            CaseStatus::Degraded | CaseStatus::BudgetExceeded => 1,
            CaseStatus::LadderFailed(_) | CaseStatus::EmulationDiverged(_) => 2,
        }
    }

    /// One-character matrix cell.
    #[must_use]
    pub fn cell(&self) -> char {
        match self {
            CaseStatus::Clean => '.',
            CaseStatus::Degraded => 'd',
            CaseStatus::BudgetExceeded => 'B',
            CaseStatus::LadderFailed(_) => 'L',
            CaseStatus::EmulationDiverged(_) => 'X',
        }
    }
}

/// The static-audit cross-check for one case: verdict counts under the
/// requested mode, plus the soundness comparison against the ladder.
///
/// The comparison is the campaign's third oracle: a function the
/// auditor grades `proven` must never need a verify-forced demotion —
/// [`CaseAudit::demoted_proven`] counts violations and is expected to
/// be zero in every case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaseAudit {
    /// Functions whose relevant evidence is fully proven.
    pub proven: u64,
    /// Worst relevant finding is over-approximation.
    pub over_approx: u64,
    /// Worst relevant finding is under-approximation risk.
    pub under_approx_risk: u64,
    /// Worst relevant finding is unknown.
    pub unknown: u64,
    /// Verify-forced ladder demotions that landed on an audited-proven
    /// function (an audit soundness violation; always expected 0).
    pub demoted_proven: u64,
}

/// One campaign case result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseResult {
    /// Workload name.
    pub workload: String,
    /// Architecture.
    pub arch: String,
    /// Requested mode.
    pub mode: String,
    /// Fault seed.
    pub seed: u64,
    /// Verdict.
    pub status: CaseStatus,
    /// Ladder rounds executed (0 when the ladder failed).
    pub rounds: usize,
    /// Point-selected functions in the case.
    pub funcs: usize,
    /// Functions that ended below their requested mode.
    pub degraded_funcs: usize,
    /// Functions below the policy floor.
    pub below_floor: usize,
    /// Static-audit verdicts and the verify-vs-audit cross-check.
    pub audit: CaseAudit,
}

/// Aggregated campaign results.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Every case, in sweep order.
    pub cases: Vec<CaseResult>,
    /// Persistent-store counters over the whole campaign (`None` when
    /// the campaign ran without a cache directory). Quarantines here
    /// are *expected* under store fault injection — the exit code only
    /// reflects rewrite/emulation verdicts.
    pub store: Option<StoreStats>,
}

impl CampaignReport {
    /// Worst exit code across all cases (the campaign verdict).
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        self.cases.iter().map(|c| c.status.exit_code()).max().unwrap_or(0)
    }

    /// Count of cases with the given exit contribution.
    #[must_use]
    pub fn count(&self, code: u8) -> usize {
        self.cases.iter().filter(|c| c.status.exit_code() == code).count()
    }

    /// Audit verdicts summed over every case. `demoted_proven` being
    /// non-zero means the static auditor certified a function the
    /// verifier then demoted — a soundness bug worth failing CI over.
    #[must_use]
    pub fn audit_totals(&self) -> CaseAudit {
        let mut t = CaseAudit::default();
        for c in &self.cases {
            t.proven += c.audit.proven;
            t.over_approx += c.audit.over_approx;
            t.under_approx_risk += c.audit.under_approx_risk;
            t.unknown += c.audit.unknown;
            t.demoted_proven += c.audit.demoted_proven;
        }
        t
    }

    /// Render the robustness matrix: one row per
    /// (workload, arch, mode), one cell per seed.
    #[must_use]
    pub fn render_matrix(&self, seeds: &[u64]) -> String {
        let mut out = String::new();
        let mut header = format!("{:<34}", "workload/arch/mode");
        for s in seeds {
            let _ = write!(header, "{s:>3}");
        }
        out.push_str(&header);
        out.push('\n');
        let mut rows: Vec<String> = Vec::new();
        for c in &self.cases {
            let row = format!("{}/{}/{}", c.workload, c.arch, c.mode);
            if !rows.contains(&row) {
                rows.push(row);
            }
        }
        for row in rows {
            let _ = write!(out, "{row:<34}");
            for s in seeds {
                let cell = self
                    .cases
                    .iter()
                    .find(|c| {
                        format!("{}/{}/{}", c.workload, c.arch, c.mode) == row && c.seed == *s
                    })
                    .map_or(' ', |c| c.status.cell());
                let _ = write!(out, "{cell:>3}");
            }
            out.push('\n');
        }
        let _ = write!(
            out,
            "{} case(s): {} clean, {} degraded, {} failed   \
             (. clean, d degraded, B budget exceeded, L ladder failed, X emulation diverged)",
            self.cases.len(),
            self.count(0),
            self.count(1),
            self.count(2),
        );
        let audit = self.audit_totals();
        let _ = write!(
            out,
            "\naudit: {} proven, {} over-approx, {} under-approx-risk, {} unknown \
             verdict(s) across cases; {} verify-forced demotion(s) on proven functions",
            audit.proven,
            audit.over_approx,
            audit.under_approx_risk,
            audit.unknown,
            audit.demoted_proven,
        );
        if let Some(s) = &self.store {
            let _ = write!(
                out,
                "\nstore: {} hit / {} miss persisted, {} flushed record(s), \
                 {} quarantined record(s), {} quarantined segment(s), \
                 {} lock timeout(s), {} I/O error(s)",
                s.hits,
                s.misses,
                s.flushed_records,
                s.quarantined_records,
                s.quarantined_segments,
                s.lock_timeouts,
                s.io_errors,
            );
        }
        out
    }
}

/// Build the named workload for `arch`. Supports the same names as
/// `icfgp gen` minus the ones that need extra parameters.
///
/// # Errors
///
/// A message naming the unknown workload.
pub fn build_workload(name: &str, arch: Arch) -> Result<Binary, String> {
    if let Some(spec) = name.strip_prefix("spec:") {
        let spec = SPEC_NAMES
            .iter()
            .find(|n| **n == spec)
            .ok_or_else(|| format!("unknown SPEC benchmark {spec}"))?;
        return Ok(generate(&spec_params(spec, arch, false)).binary);
    }
    match name {
        "small" => Ok(generate(&GenParams::small("chaos", arch, 3)).binary),
        "switch_demo" | "switch-demo" => Ok(switch_demo(arch, false).binary),
        "firefox" => Ok(firefox_like(arch, 1).binary),
        "docker" => Ok(docker_like(arch, 3, 100).binary),
        "driverlib" => Ok(driverlib_like(arch, 400, 30).0.binary),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Run one chaos case: arm the fault plan, ladder to a verified
/// rewrite, and emulate both binaries.
///
/// `cache` memoises per-function analysis and rewrite work. The
/// campaign driver shares one cache per (workload, arch): the clean
/// victim-picking analysis is computed once per binary, and fault
/// seeds re-do per-function work only for the functions their
/// injections actually touch.
#[must_use]
pub fn run_case(
    binary: &Binary,
    mode: RewriteMode,
    seed: u64,
    intensity: &str,
    policy: &DegradationPolicy,
    cache: &RewriteCache,
) -> (CaseStatus, usize, usize, usize, usize, CaseAudit) {
    let mut config = RewriteConfig::new(mode);
    config.fault_plan = FaultPlan::named(intensity, seed);
    config.degradation = *policy;
    // Static audit of the same faulted analysis the ladder will see.
    // The gate's func-mode installs land in a throwaway clone: chaos
    // keeps the ladder reactive so the cross-check below compares
    // independent oracles. The report is memoised through `cache`, and
    // its key excludes the mode — the three mode sweeps share one
    // audit per (binary, seed).
    let mut audit_cfg = config.clone();
    if let Some(plan) = audit_cfg.fault_plan.clone() {
        plan.arm_cached(binary, &mut audit_cfg, cache);
    }
    let gate = apply_audit_gate(binary, &mut audit_cfg, cache);
    let mut audit = CaseAudit {
        proven: gate.counts.proven,
        over_approx: gate.counts.over_approx,
        under_approx_risk: gate.counts.under_approx_risk,
        unknown: gate.counts.unknown,
        demoted_proven: 0,
    };
    let ladder = match rewrite_with_ladder_cached(
        binary,
        &config,
        &Instrumentation::empty(Points::EveryBlock),
        cache,
    ) {
        Ok(l) => l,
        // No supervisor is attached here, so `Interrupted` cannot
        // occur; any error means the ladder produced no rewrite.
        Err(e) => {
            return (CaseStatus::LadderFailed(e.to_string()), 0, 0, 0, 0, audit);
        }
    };
    // Third oracle: every verify-forced demotion must land on a
    // function the auditor did *not* grade proven.
    let proven = gate.report.proven_functions(audit_mode_of(mode));
    audit.demoted_proven = ladder
        .dispositions
        .iter()
        .filter(|d| !d.steps.is_empty() && proven.contains(&d.entry))
        .count() as u64;
    let funcs = ladder.dispositions.len();
    let degraded = ladder.degraded().count();
    let stats = (ladder.rounds, funcs, degraded, ladder.below_floor);
    if let Err(why) = emulates_equivalently(binary, &ladder.outcome.binary) {
        return (CaseStatus::EmulationDiverged(why), stats.0, stats.1, stats.2, stats.3, audit);
    }
    let status = if ladder.budget_exceeded {
        CaseStatus::BudgetExceeded
    } else if ladder.fully_clean()
        && ladder.dispositions.iter().all(|d| d.failure.is_none())
    {
        CaseStatus::Clean
    } else {
        CaseStatus::Degraded
    };
    (status, stats.0, stats.1, stats.2, stats.3, audit)
}

/// Dynamic oracle: same outcome class and same output stream.
///
/// # Errors
///
/// A human-readable description of the divergence.
pub fn emulates_equivalently(original: &Binary, rewritten: &Binary) -> Result<(), String> {
    let orig = run(original, &LoadOptions::default());
    let new = run(
        rewritten,
        &LoadOptions { preload_runtime: true, ..LoadOptions::default() },
    );
    match (&orig, &new) {
        (Outcome::Halted(a), Outcome::Halted(b)) => {
            if a.output == b.output {
                Ok(())
            } else {
                Err(format!("output diverged: {:?} vs {:?}", a.output, b.output))
            }
        }
        (Outcome::Crashed { reason: ra, .. }, Outcome::Crashed { reason: rb, .. }) => {
            // Both crash: same failure class is equivalent enough for
            // crashy workloads.
            let _ = (ra, rb);
            Ok(())
        }
        (Outcome::OutOfFuel(_), Outcome::OutOfFuel(_)) => Ok(()),
        (a, b) => Err(format!(
            "outcome class diverged: original {} vs rewritten {}",
            outcome_name(a),
            outcome_name(b)
        )),
    }
}

fn outcome_name(o: &Outcome) -> &'static str {
    match o {
        Outcome::Halted(_) => "halted",
        Outcome::Crashed { .. } => "crashed",
        Outcome::OutOfFuel(_) => "out-of-fuel",
    }
}

/// Run the full campaign. `progress` is called after each case (the
/// CLI prints a line; tests pass a no-op).
///
/// # Errors
///
/// A message naming an unknown workload; fault and rewrite problems
/// are per-case verdicts, not campaign errors.
pub fn run_campaign(
    config: &CampaignConfig,
    mut progress: impl FnMut(&CaseResult),
) -> Result<CampaignReport, String> {
    let mut report = CampaignReport::default();
    // One persistent store for the whole campaign (content-addressed
    // keys make sharing across workloads safe); each per-binary cache
    // attaches to it.
    let store = config.cache_dir.as_deref().map(|d| open_case_store(d, config.trace.as_ref()));
    for wl in &config.workloads {
        for arch in &config.arches {
            let binary = build_workload(wl, *arch)?;
            // One cache per binary: modes and seeds share analysis and
            // any per-function rewrite work their faults leave intact.
            let cache = match (&store, &config.trace) {
                (Some(s), _) => RewriteCache::with_store(s.clone()),
                (None, Some(t)) => RewriteCache::with_trace(Arc::clone(t)),
                (None, None) => RewriteCache::new(),
            };
            for mode in &config.modes {
                for seed in &config.seeds {
                    let (status, rounds, funcs, degraded_funcs, below_floor, audit) =
                        run_case(&binary, *mode, *seed, &config.intensity, &config.policy, &cache);
                    let case = CaseResult {
                        workload: wl.clone(),
                        arch: arch.to_string(),
                        mode: mode.to_string(),
                        seed: *seed,
                        status,
                        rounds,
                        funcs,
                        degraded_funcs,
                        below_floor,
                        audit,
                    };
                    progress(&case);
                    report.cases.push(case);
                }
            }
            // Persist what this binary's sweep computed before moving
            // on, so a crash mid-campaign still leaves a warm store.
            cache.flush_store();
        }
    }
    if let Some(store) = &store {
        // Disarm fault hooks left by the final case and flush clean.
        store.arm_faults(icfgp_core::StoreFaults::default());
        store.flush();
        report.store = Some(store.stats());
    }
    Ok(report)
}

/// What a kill-and-resume campaign should sweep.
///
/// Unlike [`CampaignConfig`] the scratch directory is mandatory: every
/// kill point gets its own persistent store + journal, because the
/// whole point is proving what survives on disk.
#[derive(Debug, Clone)]
pub struct KillCampaignConfig {
    /// Workload names (`small`, `switch_demo`, `spec:NAME`).
    pub workloads: Vec<String>,
    /// Architectures to cover.
    pub arches: Vec<Arch>,
    /// Requested rewriting modes.
    pub modes: Vec<RewriteMode>,
    /// Fault seeds; each seed is one independent fault plan.
    pub seeds: Vec<u64>,
    /// Fault-plan intensity (`none`/`quiet`/`standard`/`aggressive`).
    pub intensity: String,
    /// Degradation policy applied to every case.
    pub policy: DegradationPolicy,
    /// Scratch directory; each (case, kill point) uses a fresh
    /// subdirectory for its store and journal.
    pub dir: PathBuf,
    /// Shared trace spine every case's stores emit onto (`--trace`);
    /// `None` keeps per-case private collectors.
    pub trace: Option<Arc<Trace>>,
}

impl Default for KillCampaignConfig {
    fn default() -> KillCampaignConfig {
        KillCampaignConfig {
            workloads: vec!["small".into()],
            arches: vec![Arch::X64],
            // Under the standard plan, `small` ladders through 3 (jt)
            // and 4 (func-ptr) rounds on most seeds — real kill points,
            // not trivial one-round passes.
            modes: vec![RewriteMode::Jt, RewriteMode::FuncPtr],
            seeds: vec![2, 3],
            intensity: "standard".into(),
            policy: DegradationPolicy::default(),
            dir: std::env::temp_dir().join(format!("icfgp-kill-{}", std::process::id())),
            trace: None,
        }
    }
}

/// One kill-and-resume case: every journal boundary of one
/// (workload, arch, mode, seed) run, each killed and resumed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KillCaseResult {
    /// Workload name.
    pub workload: String,
    /// Architecture.
    pub arch: String,
    /// Requested mode.
    pub mode: String,
    /// Fault seed.
    pub seed: u64,
    /// Rounds the uninterrupted reference run executed.
    pub rounds: usize,
    /// Kill points exercised (`rounds - 1`; 0 when the reference
    /// converged in one round and the case passes trivially).
    pub kill_points: usize,
    /// Every kill point resumed to byte-identical output, identical
    /// dispositions, and strictly fewer stage misses than cold.
    pub passed: bool,
    /// The first failure, or a note for trivial passes.
    pub detail: String,
    /// Stage misses (analysis + fragment + emit + liveness) of the
    /// cold reference run.
    pub cold_misses: u64,
    /// Worst resumed-run stage-miss total across all kill points
    /// (must stay below `cold_misses` — resume redoes strictly less).
    pub max_resumed_misses: u64,
}

/// Aggregated kill-and-resume campaign results.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KillReport {
    /// Every case, in sweep order.
    pub cases: Vec<KillCaseResult>,
}

impl KillReport {
    /// Campaign verdict: 0 when every kill point resumed correctly,
    /// 2 when any byte-identity / disposition / warm-start oracle
    /// failed (a robustness failure, same class as a ladder failure).
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        if self.cases.iter().all(|c| c.passed) {
            0
        } else {
            2
        }
    }

    /// Render the per-case table and verdict line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.cases {
            let _ = writeln!(
                out,
                "{:<34} seed {:>3}  {} round(s), {} kill point(s): {}{}",
                format!("{}/{}/{}", c.workload, c.arch, c.mode),
                c.seed,
                c.rounds,
                c.kill_points,
                if c.passed { "ok" } else { "FAILED" },
                if c.detail.is_empty() {
                    format!(
                        " (misses {} cold / {} worst resumed)",
                        c.cold_misses, c.max_resumed_misses
                    )
                } else {
                    format!(" — {}", c.detail)
                },
            );
        }
        let failed = self.cases.iter().filter(|c| !c.passed).count();
        let _ = write!(
            out,
            "{} kill-and-resume case(s): {} passed, {} failed",
            self.cases.len(),
            self.cases.len() - failed,
            failed,
        );
        out
    }
}

/// Stage misses a run had to compute (everything not served from the
/// in-memory cache or the persistent store).
fn stage_misses(stats: &[RewriteStats]) -> u64 {
    stats
        .iter()
        .map(|s| {
            s.func_analyses.misses + s.fragments.misses + s.emits.misses + s.liveness.misses
        })
        .sum()
}

/// Run one kill-and-resume case.
///
/// First an uninterrupted supervised run establishes the reference
/// (output bytes, dispositions, cold stage-miss count, round count).
/// Then for every journal boundary `k` in `1..rounds`, a fresh store
/// directory hosts a run aborted after `k` rounds (the deterministic
/// stand-in for SIGKILL — the abort lands after the round's store
/// flush and journal append, exactly the state a kill leaves behind),
/// and a second process-equivalent (fresh store handle, journal
/// replay) resumes it. The oracles:
///
/// 1. resumed output bytes == reference output bytes;
/// 2. resumed [`icfgp_verify::FuncDisposition`]s == reference's;
/// 3. resumed total rounds == reference rounds, with exactly `k`
///    replayed;
/// 4. the resumed run's stage misses stay strictly below the cold
///    reference's — resume redoes strictly less work.
#[must_use]
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub fn run_kill_case(
    binary: &Binary,
    workload: &str,
    arch: Arch,
    mode: RewriteMode,
    seed: u64,
    intensity: &str,
    policy: &DegradationPolicy,
    dir: &Path,
    trace: Option<&Arc<Trace>>,
) -> KillCaseResult {
    let mut config = RewriteConfig::new(mode);
    config.fault_plan = FaultPlan::named(intensity, seed);
    config.degradation = *policy;
    let instr = Instrumentation::empty(Points::EveryBlock);
    let bfp = binary_fingerprint(binary);
    let cfp = config_fingerprint(&config);
    let label = format!("{workload}-{arch}-{mode}-{seed}");
    let mut result = KillCaseResult {
        workload: workload.into(),
        arch: arch.to_string(),
        mode: mode.to_string(),
        seed,
        rounds: 0,
        kill_points: 0,
        passed: false,
        detail: String::new(),
        cold_misses: 0,
        max_resumed_misses: 0,
    };

    // Reference: one uninterrupted, journaled, store-backed run.
    let ref_dir = dir.join(format!("{label}-ref"));
    let ref_journal = ref_dir.join("run.journal");
    let reference = {
        let store = open_case_store(&ref_dir, trace);
        let cache = RewriteCache::with_store(store);
        let journal = match RunJournal::create(&ref_journal, bfp, cfp) {
            Ok(j) => j,
            Err(e) => {
                result.detail = format!("reference journal: {e}");
                return result;
            }
        };
        let sup = Supervisor { journal: Some(&journal), ..Supervisor::default() };
        match rewrite_with_ladder_supervised(binary, &config, &instr, &cache, &sup) {
            Ok(l) => l,
            Err(e) => {
                result.detail = format!("reference ladder: {e}");
                return result;
            }
        }
    };
    result.rounds = reference.rounds;
    result.cold_misses = stage_misses(&reference.round_stats);
    let ref_bytes = serde_json::to_vec(&reference.outcome.binary).unwrap_or_default();
    // The reference journal must read back as a completed run.
    match RunJournal::load(&ref_journal) {
        Ok(r) if r.complete && r.rounds.len() == reference.rounds => {}
        Ok(r) => {
            result.detail = format!(
                "reference journal incomplete: {} round(s), complete={}",
                r.rounds.len(),
                r.complete
            );
            return result;
        }
        Err(e) => {
            result.detail = format!("reference journal load: {e}");
            return result;
        }
    }
    if let Err(why) = emulates_equivalently(binary, &reference.outcome.binary) {
        result.detail = format!("reference emulation: {why}");
        return result;
    }
    if reference.rounds <= 1 {
        result.passed = true;
        result.detail = "converged in one round; no kill points".into();
        return result;
    }
    result.kill_points = reference.rounds - 1;

    for k in 1..reference.rounds {
        let case_dir = dir.join(format!("{label}-k{k}"));
        let journal_path = case_dir.join("run.journal");
        // The run that dies: abort after k journaled-and-flushed
        // rounds, then drop every handle (the kill).
        {
            let store = open_case_store(&case_dir, trace);
            let cache = RewriteCache::with_store(store.clone());
            let journal = match RunJournal::create(&journal_path, bfp, cfp) {
                Ok(j) => j,
                Err(e) => {
                    result.detail = format!("kill point {k}: journal: {e}");
                    return result;
                }
            };
            let sup = Supervisor {
                journal: Some(&journal),
                abort_after_rounds: Some(k),
                ..Supervisor::default()
            };
            match rewrite_with_ladder_supervised(binary, &config, &instr, &cache, &sup) {
                Err(LadderError::Interrupted { rounds }) if rounds == k => {}
                Err(e) => {
                    result.detail = format!("kill point {k}: expected interrupt, got: {e}");
                    return result;
                }
                Ok(_) => {
                    result.detail =
                        format!("kill point {k}: run finished instead of aborting");
                    return result;
                }
            }
            // Clear any injected-fault backlog so the disk state is
            // exactly "everything the journal acknowledged": the
            // supervised ladder flushed each round, but injected lock
            // contention may have deferred records past the retry
            // budget.
            store.arm_faults(icfgp_core::StoreFaults::default());
            store.flush();
        }
        // The resume: a fresh process-equivalent loads the journal and
        // the warm store and picks up at round k+1.
        let replay = match RunJournal::load(&journal_path) {
            Ok(r) => r,
            Err(e) => {
                result.detail = format!("kill point {k}: journal load: {e}");
                return result;
            }
        };
        if replay.complete
            || replay.rounds.len() != k
            || replay.header.binary_fp != bfp
            || replay.header.config_fp != cfp
        {
            result.detail = format!(
                "kill point {k}: journal replay mismatch ({} round(s), complete={})",
                replay.rounds.len(),
                replay.complete
            );
            return result;
        }
        let resumed = {
            let store = open_case_store(&case_dir, trace);
            let cache = RewriteCache::with_store(store);
            let sup = Supervisor { resume: Some(&replay), ..Supervisor::default() };
            match rewrite_with_ladder_supervised(binary, &config, &instr, &cache, &sup) {
                Ok(l) => l,
                Err(e) => {
                    result.detail = format!("kill point {k}: resume ladder: {e}");
                    return result;
                }
            }
        };
        if serde_json::to_vec(&resumed.outcome.binary).unwrap_or_default() != ref_bytes {
            result.detail = format!("kill point {k}: resumed bytes diverge from reference");
            return result;
        }
        if resumed.dispositions != reference.dispositions {
            result.detail =
                format!("kill point {k}: resumed dispositions diverge from reference");
            return result;
        }
        if resumed.rounds != reference.rounds || resumed.resumed_rounds != k {
            result.detail = format!(
                "kill point {k}: resumed {} of {} round(s), expected {} of {}",
                resumed.resumed_rounds, resumed.rounds, k, reference.rounds
            );
            return result;
        }
        let resumed_misses = stage_misses(&resumed.round_stats);
        result.max_resumed_misses = result.max_resumed_misses.max(resumed_misses);
        if resumed_misses >= result.cold_misses {
            result.detail = format!(
                "kill point {k}: resume recomputed {resumed_misses} stage(s), \
                 no better than the cold run's {}",
                result.cold_misses
            );
            return result;
        }
    }
    result.passed = true;
    result
}

/// Run the full kill-and-resume campaign. `progress` is called after
/// each case.
///
/// # Errors
///
/// A message naming an unknown workload or an unusable scratch
/// directory; per-kill-point oracle failures are case verdicts.
pub fn run_kill_campaign(
    config: &KillCampaignConfig,
    mut progress: impl FnMut(&KillCaseResult),
) -> Result<KillReport, String> {
    std::fs::create_dir_all(&config.dir)
        .map_err(|e| format!("create {}: {e}", config.dir.display()))?;
    let mut report = KillReport::default();
    for wl in &config.workloads {
        for arch in &config.arches {
            let binary = build_workload(wl, *arch)?;
            for mode in &config.modes {
                for seed in &config.seeds {
                    let case = run_kill_case(
                        &binary,
                        wl,
                        *arch,
                        *mode,
                        *seed,
                        &config.intensity,
                        &config.policy,
                        &config.dir,
                        config.trace.as_ref(),
                    );
                    progress(&case);
                    report.cases.push(case);
                }
            }
        }
    }
    Ok(report)
}

/// Open a per-case persistent store, emitting onto the shared
/// campaign trace when one is configured.
fn open_case_store(dir: &Path, trace: Option<&Arc<Trace>>) -> Arc<CacheStore> {
    match trace {
        Some(t) => Arc::new(CacheStore::open_traced(
            dir,
            icfgp_core::store::lock_timeout(),
            Arc::clone(t),
        )),
        None => Arc::new(CacheStore::open(dir)),
    }
}

/// Parse a `--floor` CLI value.
///
/// # Errors
///
/// A message listing the accepted values.
pub fn parse_floor(s: &str) -> Result<FuncMode, String> {
    match s {
        "dir" => Ok(FuncMode::Full(RewriteMode::Dir)),
        "jt" => Ok(FuncMode::Full(RewriteMode::Jt)),
        "func-ptr" => Ok(FuncMode::Full(RewriteMode::FuncPtr)),
        "trap-only" => Ok(FuncMode::TrapOnly),
        "skip" => Ok(FuncMode::Skip),
        other => Err(format!(
            "unknown floor {other}; expected dir|jt|func-ptr|trap-only|skip"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_smoke_x64() {
        let config = CampaignConfig {
            workloads: vec!["switch_demo".into()],
            arches: vec![Arch::X64],
            modes: vec![RewriteMode::Jt],
            seeds: vec![1, 2],
            ..CampaignConfig::default()
        };
        let report = run_campaign(&config, |_| {}).unwrap();
        assert_eq!(report.cases.len(), 2);
        assert!(report.exit_code() <= 1, "{}", report.render_matrix(&config.seeds));
        let matrix = report.render_matrix(&config.seeds);
        assert!(matrix.contains("switch_demo/x86-64/jt"), "{matrix}");
        // The third oracle: the auditor graded every case, and no
        // verify-forced demotion landed on a proven function.
        let audit = report.audit_totals();
        assert!(audit.proven + audit.over_approx + audit.under_approx_risk + audit.unknown > 0);
        assert_eq!(audit.demoted_proven, 0, "{matrix}");
        assert!(matrix.contains("audit:"), "{matrix}");
    }

    #[test]
    fn kill_campaign_smoke_x64() {
        let dir = std::env::temp_dir()
            .join(format!("icfgp-kill-smoke-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = KillCampaignConfig {
            workloads: vec!["small".into()],
            arches: vec![Arch::X64],
            modes: vec![RewriteMode::Jt],
            seeds: vec![2],
            intensity: "standard".into(),
            dir: dir.clone(),
            ..KillCampaignConfig::default()
        };
        let report = run_kill_campaign(&config, |_| {}).unwrap();
        assert_eq!(report.cases.len(), 1);
        assert_eq!(report.exit_code(), 0, "{}", report.render());
        // Standard seed 2 demotes at least one function on `small`, so
        // the case exercises real kill points, not the trivial path.
        let case = &report.cases[0];
        assert!(case.rounds > 1, "{}", report.render());
        assert!(case.kill_points >= 1, "{}", report.render());
        assert!(case.max_resumed_misses < case.cold_misses, "{}", report.render());
        let json = serde_json::to_string(&report).unwrap();
        let back: KillReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_shared_fragment_quarantines_and_recomputes_identically() {
        use icfgp_core::Rewriter;
        // Populate a store with one binary, then rewrite a perturbed
        // fleet variant through it with patch-point corruption armed
        // on every store read-back. The per-lookup re-validation must
        // quarantine every corrupted record and recompute — the output
        // must stay byte-identical, never silently mis-fixed-up.
        let mut p = GenParams::small("corrupt", Arch::X64, 5);
        p.filler_funcs = 8;
        let b1 = generate(&p).binary;
        p.perturb = 1;
        let b2 = generate(&p).binary;
        let instr = Instrumentation::empty(Points::EveryBlock);
        let rw = Rewriter::new(RewriteConfig::new(RewriteMode::Jt));
        let cold2 = rw.rewrite_cached(&b2, &instr, &RewriteCache::new()).expect("cold");

        let dir = std::env::temp_dir()
            .join(format!("icfgp-corrupt-patch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
            let _ = rw.rewrite_cached(&b1, &instr, &cache).expect("populate");
            cache.flush_store();
        }
        let cache = RewriteCache::with_store(Arc::new(CacheStore::open(&dir)));
        let mut plan = FaultPlan::none(9);
        plan.corrupt_patch_point = 1.0;
        let mut cfg = rw.config().clone();
        plan.arm_cached(&b2, &mut cfg, &cache);
        let warm = rw.rewrite_cached(&b2, &instr, &cache).expect("warm under corruption");

        assert_eq!(
            cold2.binary, warm.binary,
            "corrupted shared records must recompute byte-identically"
        );
        let s = cache.store_stats();
        assert!(
            s.quarantined_records > 0,
            "every corrupted fragment/emit must be quarantined: {s:?}"
        );
        assert_eq!(
            warm.stats.fragments.hits + warm.stats.emits.hits,
            0,
            "nothing may be served from a corrupted record: {:?} {:?}",
            warm.stats.fragments,
            warm.stats.emits
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn case_status_exit_codes() {
        assert_eq!(CaseStatus::Clean.exit_code(), 0);
        assert_eq!(CaseStatus::Degraded.exit_code(), 1);
        assert_eq!(CaseStatus::BudgetExceeded.exit_code(), 1);
        assert_eq!(CaseStatus::LadderFailed("x".into()).exit_code(), 2);
        assert_eq!(CaseStatus::EmulationDiverged("x".into()).exit_code(), 2);
    }

    #[test]
    fn report_serialises() {
        let mut r = CampaignReport::default();
        r.cases.push(CaseResult {
            workload: "small".into(),
            arch: "x86-64".into(),
            mode: "jt".into(),
            seed: 1,
            status: CaseStatus::Degraded,
            rounds: 3,
            funcs: 10,
            degraded_funcs: 2,
            below_floor: 1,
            audit: CaseAudit {
                proven: 7,
                over_approx: 1,
                under_approx_risk: 2,
                unknown: 0,
                demoted_proven: 0,
            },
        });
        let json = serde_json::to_string(&r).unwrap();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
