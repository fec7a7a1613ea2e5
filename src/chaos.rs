//! Chaos campaigns: sweep fault seeds over workloads and prove the
//! degradation ladder always lands on a verified, behaviourally
//! equivalent binary.
//!
//! A campaign is the cartesian product of workloads × architectures ×
//! rewriting modes × fault seeds, run in one [`FaultDomain`]. Each case
//! arms a seeded [`FaultPlan`] and runs the rewrite through the
//! degradation ladder ([`rewrite_with_ladder_cached`]); the domain
//! decides what else can go wrong around it:
//!
//! * [`FaultDomain::Analysis`] — analysis faults alone;
//! * [`FaultDomain::Store`] — every case shares one persistent store,
//!   and the plan arms the store's I/O fault hooks too;
//! * [`FaultDomain::Kill`] — each case is also stopped at every ladder
//!   round boundary and re-run over the stopped run's store.
//!
//! Every case is judged by one oracle table, [`CaseStatus`]:
//!
//! 1. **static** — the final round's [`icfgp_verify`] report must have
//!    zero errors (the ladder guarantees this or errors out);
//! 2. **dynamic** — the rewritten binary must emulate equivalently to
//!    the original (same outcome class, same output stream);
//! 3. **audit** — no verify-forced demotion may land on a function the
//!    static auditor graded proven ([`CaseAudit::demoted_proven`]);
//! 4. **kill** (kill domain) — the re-run after each stop must match
//!    the uninterrupted reference: the same output bytes, the same
//!    [`FuncDisposition`](icfgp_verify::FuncDisposition)s, the same
//!    round count, and strictly fewer stage misses than the cold
//!    reference.
//!
//! The per-case verdicts roll up into a [`CampaignReport`] whose
//! matrix rendering and worst-case exit code back the `icfgp chaos`
//! subcommand and the CI `chaos-smoke` job.

use icfgp_core::{
    apply_audit_gate, audit_mode_of, CacheStore, DegradationPolicy, FaultPlan, Instrumentation,
    Points, RewriteCache, RewriteConfig, RewriteMode, RewriteStats, StoreFaults, StoreStats,
    Trace,
};
use icfgp_emu::{run, LoadOptions, Outcome};
use icfgp_isa::Arch;
use icfgp_obj::Binary;
use icfgp_verify::{
    rewrite_with_ladder_cached, rewrite_with_ladder_stopping_after, LadderError, LadderOutcome,
};
use icfgp_workloads::{
    docker_like, driverlib_like, firefox_like, generate, spec_params, switch_demo, GenParams,
    SPEC_NAMES,
};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What, besides the analysis, a campaign injects faults into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultDomain {
    /// Analysis faults only; every case runs storeless.
    Analysis,
    /// Analysis faults plus store I/O faults (torn writes, bit flips,
    /// short reads, lock contention) on one persistent store in this
    /// directory, shared by every case: store damage may cost
    /// recomputes, never output bytes.
    Store(PathBuf),
    /// Analysis faults plus a kill at every ladder round boundary. Each
    /// (case, kill point) gets a fresh store under this scratch
    /// directory, because the point is proving what survives on disk.
    Kill(PathBuf),
}

/// What a chaos campaign should sweep.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Workload names (`small`, `switch_demo`, `spec:NAME`, ...; see
    /// [`WORKLOADS`]).
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
    /// Where faults are injected besides the analysis.
    pub domain: FaultDomain,
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
            domain: FaultDomain::Analysis,
            trace: None,
        }
    }
}

impl CampaignConfig {
    /// The default kill-domain sweep, with scratch stores under `dir`.
    /// Under the standard plan, `small` ladders through 3 (jt) and 4
    /// (func-ptr) rounds on these seeds — real kill points, not
    /// trivial one-round passes.
    #[must_use]
    pub fn kill(dir: PathBuf) -> CampaignConfig {
        CampaignConfig {
            workloads: vec!["small".into()],
            arches: vec![Arch::X64],
            modes: vec![RewriteMode::Jt, RewriteMode::FuncPtr],
            seeds: vec![2, 3],
            domain: FaultDomain::Kill(dir),
            ..CampaignConfig::default()
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
    /// A re-run after a kill did not reproduce the uninterrupted run,
    /// or redid as much work as a cold run (kill domain).
    KillDiverged(String),
}

impl CaseStatus {
    /// Campaign exit-code contribution: 0 clean, 1 degraded (budget
    /// verdicts included — on a heavily faulted small workload an
    /// exceeded budget is the policy *working*, reported in the
    /// matrix), 2 for real robustness failures: no verified rewrite
    /// produced, behavioural divergence, or a kill that changed the
    /// outcome.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            CaseStatus::Clean => 0,
            CaseStatus::Degraded | CaseStatus::BudgetExceeded => 1,
            CaseStatus::LadderFailed(_)
            | CaseStatus::EmulationDiverged(_)
            | CaseStatus::KillDiverged(_) => 2,
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
            CaseStatus::KillDiverged(_) => 'K',
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
    /// Kill points exercised: `rounds - 1` in the kill domain once the
    /// reference run passed its oracles, else 0.
    pub kill_points: usize,
    /// Stage misses (analysis + fragment + emit + liveness) of the cold
    /// reference run; 0 outside the kill domain.
    pub cold_misses: u64,
    /// Worst stage-miss total of a re-run after a kill (must stay
    /// below `cold_misses`).
    pub max_rerun_misses: u64,
}

impl CaseResult {
    /// The one-line progress report for this case.
    #[must_use]
    pub fn line(&self) -> String {
        let note = match &self.status {
            CaseStatus::LadderFailed(w)
            | CaseStatus::EmulationDiverged(w)
            | CaseStatus::KillDiverged(w) => format!(" ({w})"),
            _ => String::new(),
        };
        let kill = if self.cold_misses > 0 {
            format!(
                ", {} kill point(s), misses {} cold / {} worst re-run",
                self.kill_points, self.cold_misses, self.max_rerun_misses
            )
        } else {
            String::new()
        };
        format!(
            "{}/{}/{} seed {}: {}{note} [{} round(s), {}/{} degraded{kill}]",
            self.workload,
            self.arch,
            self.mode,
            self.seed,
            self.status.cell(),
            self.rounds,
            self.degraded_funcs,
            self.funcs,
        )
    }
}

/// Aggregated campaign results.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Every case, in sweep order.
    pub cases: Vec<CaseResult>,
    /// Persistent-store counters over the whole campaign (store domain
    /// only). Quarantines here are *expected* under store fault
    /// injection — the exit code only reflects the case verdicts.
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

    /// Render the robustness matrix — one row per (workload, arch,
    /// mode), one cell per seed — and the summary lines.
    #[must_use]
    pub fn render(&self, seeds: &[u64]) -> String {
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
             (. clean, d degraded, B budget exceeded, L ladder failed, X emulation diverged, \
             K kill diverged)",
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
        if self.cases.iter().any(|c| c.cold_misses > 0) {
            let _ = write!(
                out,
                "\nkill: {} kill point(s) re-run over the killed run's store; \
                 worst re-run {} stage miss(es) against {} cold",
                self.cases.iter().map(|c| c.kill_points).sum::<usize>(),
                self.cases.iter().map(|c| c.max_rerun_misses).max().unwrap_or(0),
                self.cases.iter().map(|c| c.cold_misses).max().unwrap_or(0),
            );
        }
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

/// The workload names [`build_workload`] accepts, besides `spec:NAME`
/// for each of [`SPEC_NAMES`].
pub const WORKLOADS: &[&str] = &["small", "firefox", "docker", "driverlib", "switch_demo"];

/// Whether `name` is a workload [`build_workload`] (and `icfgp gen`)
/// can build.
#[must_use]
pub fn is_workload(name: &str) -> bool {
    match name.strip_prefix("spec:") {
        Some(spec) => SPEC_NAMES.contains(&spec),
        None => name == "switch-demo" || WORKLOADS.contains(&name),
    }
}

/// Build the named workload for `arch` with its default parameters.
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

/// Run one case: arm the fault plan, audit, ladder to a verified
/// rewrite, emulate both binaries, and in the kill domain stop and
/// re-run the ladder at every round boundary.
///
/// `cache` memoises per-function analysis and rewrite work. The
/// campaign driver shares one cache per (workload, arch): the clean
/// victim-picking analysis is computed once per binary, and fault
/// seeds re-do per-function work only for the functions their
/// injections actually touch. The kill domain runs its reference and
/// kill points on fresh stores instead, so their miss counts are cold.
fn run_case(
    binary: &Binary,
    workload: &str,
    arch: Arch,
    mode: RewriteMode,
    seed: u64,
    campaign: &CampaignConfig,
    cache: &RewriteCache,
) -> CaseResult {
    let mut config = RewriteConfig::new(mode);
    config.fault_plan = FaultPlan::named(&campaign.intensity, seed);
    config.degradation = campaign.policy;
    let instr = Instrumentation::empty(Points::EveryBlock);
    let mut case = CaseResult {
        workload: workload.into(),
        arch: arch.to_string(),
        mode: mode.to_string(),
        seed,
        status: CaseStatus::Clean,
        rounds: 0,
        funcs: 0,
        degraded_funcs: 0,
        below_floor: 0,
        audit: CaseAudit::default(),
        kill_points: 0,
        cold_misses: 0,
        max_rerun_misses: 0,
    };
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
    case.audit = CaseAudit {
        proven: gate.counts.proven,
        over_approx: gate.counts.over_approx,
        under_approx_risk: gate.counts.under_approx_risk,
        unknown: gate.counts.unknown,
        demoted_proven: 0,
    };
    let label = format!("{workload}-{arch}-{mode}-{seed}");
    let kill_dir = match &campaign.domain {
        FaultDomain::Kill(dir) => Some(dir),
        _ => None,
    };
    let reference = match kill_dir {
        Some(dir) => {
            let store = open_case_store(&dir.join(format!("{label}-ref")), campaign.trace.as_ref());
            rewrite_with_ladder_cached(binary, &config, &instr, &RewriteCache::with_store(store))
        }
        None => rewrite_with_ladder_cached(binary, &config, &instr, cache),
    };
    let ladder = match reference {
        Ok(l) => l,
        Err(e) => {
            case.status = CaseStatus::LadderFailed(e.to_string());
            return case;
        }
    };
    // Third oracle: every verify-forced demotion must land on a
    // function the auditor did *not* grade proven.
    let proven = gate.report.proven_functions(audit_mode_of(mode));
    case.audit.demoted_proven = ladder
        .dispositions
        .iter()
        .filter(|d| !d.steps.is_empty() && proven.contains(&d.entry))
        .count() as u64;
    case.rounds = ladder.rounds;
    case.funcs = ladder.dispositions.len();
    case.degraded_funcs = ladder.degraded().count();
    case.below_floor = ladder.below_floor;
    if let Err(why) = emulates_equivalently(binary, &ladder.outcome.binary) {
        case.status = CaseStatus::EmulationDiverged(why);
        return case;
    }
    case.status = if ladder.budget_exceeded {
        CaseStatus::BudgetExceeded
    } else if ladder.fully_clean() && ladder.dispositions.iter().all(|d| d.failure.is_none()) {
        CaseStatus::Clean
    } else {
        CaseStatus::Degraded
    };
    if let Some(dir) = kill_dir {
        case.cold_misses = stage_misses(&ladder.round_stats);
        let trace = campaign.trace.as_ref();
        match check_kill_points(binary, &config, &instr, &ladder, dir, &label, trace) {
            Ok(worst) => {
                case.kill_points = ladder.rounds - 1;
                case.max_rerun_misses = worst;
            }
            Err(why) => case.status = CaseStatus::KillDiverged(why),
        }
    }
    case
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

/// The kill domain's oracle for one case. For every round boundary `k`
/// in `1..rounds` of `reference`, stop a run on a fresh store after `k`
/// rounds (the deterministic stand-in for SIGKILL: the stop lands after
/// the round's store flush, exactly the state a kill leaves behind),
/// then re-run from scratch over that store with a fresh handle. The
/// re-run must reproduce the reference's output bytes, dispositions
/// and round count while computing strictly fewer stages than the cold
/// reference. Returns the worst re-run's stage misses.
fn check_kill_points(
    binary: &Binary,
    config: &RewriteConfig,
    instr: &Instrumentation,
    reference: &LadderOutcome,
    dir: &Path,
    label: &str,
    trace: Option<&Arc<Trace>>,
) -> Result<u64, String> {
    let ref_bytes = serde_json::to_vec(&reference.outcome.binary).unwrap_or_default();
    let cold_misses = stage_misses(&reference.round_stats);
    let mut worst = 0;
    for k in 1..reference.rounds {
        let store_dir = dir.join(format!("{label}-k{k}"));
        {
            let store = open_case_store(&store_dir, trace);
            let cache = RewriteCache::with_store(store.clone());
            match rewrite_with_ladder_stopping_after(binary, config, instr, &cache, k) {
                Err(LadderError::Interrupted { rounds }) if rounds == k => {}
                Err(e) => return Err(format!("kill point {k}: expected a stop, got: {e}")),
                Ok(_) => return Err(format!("kill point {k}: run finished instead of stopping")),
            }
            // Clear any injected-fault backlog so the disk state is
            // exactly what the stopped rounds flushed: injected lock
            // contention may have deferred records past the retry
            // budget.
            store.arm_faults(StoreFaults::default());
            store.flush();
        }
        let cache = RewriteCache::with_store(open_case_store(&store_dir, trace));
        let rerun = rewrite_with_ladder_cached(binary, config, instr, &cache)
            .map_err(|e| format!("kill point {k}: re-run ladder: {e}"))?;
        if serde_json::to_vec(&rerun.outcome.binary).unwrap_or_default() != ref_bytes {
            return Err(format!("kill point {k}: re-run bytes diverge from reference"));
        }
        if rerun.dispositions != reference.dispositions {
            return Err(format!("kill point {k}: re-run dispositions diverge from reference"));
        }
        if rerun.rounds != reference.rounds {
            return Err(format!(
                "kill point {k}: re-run took {} round(s), reference {}",
                rerun.rounds, reference.rounds
            ));
        }
        let misses = stage_misses(&rerun.round_stats);
        worst = worst.max(misses);
        if misses >= cold_misses {
            return Err(format!(
                "kill point {k}: re-run recomputed {misses} stage(s), \
                 no better than the cold run's {cold_misses}"
            ));
        }
    }
    Ok(worst)
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
/// CLI prints [`CaseResult::line`]; tests pass a no-op).
///
/// # Errors
///
/// A message naming an unknown workload or an unusable kill scratch
/// directory; fault and rewrite problems are per-case verdicts, not
/// campaign errors.
pub fn run_campaign(
    config: &CampaignConfig,
    mut progress: impl FnMut(&CaseResult),
) -> Result<CampaignReport, String> {
    let mut report = CampaignReport::default();
    // The store domain shares one persistent store across the whole
    // campaign (content-addressed keys make sharing across workloads
    // safe); each per-binary cache attaches to it.
    let store = match &config.domain {
        FaultDomain::Analysis => None,
        FaultDomain::Store(dir) => Some(open_case_store(dir, config.trace.as_ref())),
        FaultDomain::Kill(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            None
        }
    };
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
                    let case = run_case(&binary, wl, *arch, *mode, *seed, config, &cache);
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
        store.arm_faults(StoreFaults::default());
        store.flush();
        report.store = Some(store.stats());
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
        assert!(report.exit_code() <= 1, "{}", report.render(&config.seeds));
        let matrix = report.render(&config.seeds);
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
        let config = CampaignConfig {
            modes: vec![RewriteMode::Jt],
            seeds: vec![2],
            ..CampaignConfig::kill(dir.clone())
        };
        let report = run_campaign(&config, |_| {}).unwrap();
        let render = report.render(&config.seeds);
        assert_eq!(report.cases.len(), 1);
        // Every kill point re-ran to the reference: no oracle failed.
        // The case itself degrades under its faults, so it exits 1.
        assert_eq!(report.count(2), 0, "{render}");
        // Standard seed 2 demotes at least one function on `small`, so
        // the case exercises real kill points, not the trivial path.
        let case = &report.cases[0];
        assert!(case.rounds > 1, "{render}");
        assert!(case.kill_points >= 1, "{render}");
        assert!(case.max_rerun_misses < case.cold_misses, "{render}");
        assert_eq!(report.audit_totals().demoted_proven, 0, "{render}");
        assert!(render.contains("kill:"), "{render}");
        let json = serde_json::to_string(&report).unwrap();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
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
        assert_eq!(CaseStatus::KillDiverged("x".into()).exit_code(), 2);
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
            kill_points: 2,
            cold_misses: 40,
            max_rerun_misses: 6,
        });
        let json = serde_json::to_string(&r).unwrap();
        let back: CampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
