//! The graceful-degradation ladder: verify-driven per-function mode
//! lowering.
//!
//! A rewrite under a faulty analysis can be unsound — dropped
//! jump-table targets, corrupt liveness, latent analysis bugs. Instead
//! of shipping an unsound binary or aborting the whole rewrite, the
//! ladder runs a counterexample-guided loop:
//!
//! ```text
//!   full(func-ptr) ──► full(jt) ──► full(dir) ──► trap-only ──► skip
//! ```
//!
//! Each round rewrites, verifies with [`verify_rewrite`] (the strict
//! re-analysis is the oracle), attributes every error diagnostic to
//! the function it occurred in, and lowers each offending function one
//! rung. The loop converges because ranks strictly decrease and are
//! bounded below by skip; a round with errors but no attributable
//! victim is [`LadderError::NoConvergence`].
//!
//! Every function's journey is recorded as a [`FuncDisposition`]
//! (requested mode, achieved mode, the steps taken and why), and the
//! configured [`DegradationPolicy`](icfgp_core::DegradationPolicy)
//! turns the count of functions below the floor into a pass/fail
//! budget verdict.

use crate::{verify_rewrite, VerifyError, VerifyReport};
use icfgp_cfg::AnalysisFailure;
use icfgp_core::{
    apply_audit_gate, FuncMode, GateSummary, Instrumentation, RewriteCache, RewriteConfig,
    RewriteError, RewriteOutcome, RewriteStats, Rewriter, SkipReason, SpanKind, TraceEvent,
};
use icfgp_obj::Binary;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Upper bound on verify→lower→rewrite rounds. Each round lowers every
/// offending function at least one rung and there are five rungs, so
/// any converging ladder finishes well within this.
pub const MAX_ROUNDS: usize = 12;

/// One rung descent of one function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LadderStep {
    /// Mode before the step.
    pub from: FuncMode,
    /// Mode after the step.
    pub to: FuncMode,
    /// The verifier diagnostic that forced the step.
    pub reason: String,
}

/// What finally happened to one point-selected function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuncDisposition {
    /// Function entry address.
    pub entry: u64,
    /// The mode originally requested for it.
    pub requested: FuncMode,
    /// The mode it was actually rewritten under in the final round.
    pub achieved: FuncMode,
    /// Ladder steps taken, in order.
    pub steps: Vec<LadderStep>,
    /// The analysis failure, for functions skipped by analysis.
    pub failure: Option<AnalysisFailure>,
}

/// Result of a converged ladder run.
#[derive(Debug, Clone)]
pub struct LadderOutcome {
    /// The final (verified-clean) rewrite.
    pub outcome: RewriteOutcome,
    /// The final verification report (zero errors).
    pub verify: VerifyReport,
    /// Per-function dispositions, by entry address.
    pub dispositions: Vec<FuncDisposition>,
    /// Rewrite→verify rounds executed (1 = clean first try).
    pub rounds: usize,
    /// Functions whose achieved mode is below the policy floor.
    pub below_floor: usize,
    /// Whether `below_floor` exceeds the configured error budget.
    pub budget_exceeded: bool,
    /// Per-round cache counters and timings, in round order. With a
    /// shared [`RewriteCache`], rounds after the first re-analyse
    /// nothing and re-rewrite only the demoted functions.
    pub round_stats: Vec<RewriteStats>,
    /// The predictive-gate summary, when `config.audit_gate` was set:
    /// the audit verdicts and every starting rung the gate installed
    /// before round one.
    pub gate: Option<GateSummary>,
}

impl LadderOutcome {
    /// Whether every function achieved its requested mode.
    #[must_use]
    pub fn fully_clean(&self) -> bool {
        self.dispositions.iter().all(|d| d.achieved == d.requested)
    }

    /// Dispositions that degraded below their request.
    pub fn degraded(&self) -> impl Iterator<Item = &FuncDisposition> {
        self.dispositions.iter().filter(|d| d.achieved < d.requested)
    }
}

/// Why the ladder could not produce a verified rewrite at all.
#[derive(Debug, Clone, PartialEq)]
pub enum LadderError {
    /// The rewriter itself failed (unencodable construct etc.); there
    /// is no output binary to degrade.
    Rewrite(RewriteError),
    /// Verification could not run (missing artifacts).
    Verify(VerifyError),
    /// A round still had errors but none could be attributed to a
    /// lowerable function.
    NoConvergence {
        /// Rounds executed before giving up.
        rounds: usize,
        /// The error diagnostics that remained.
        remaining_errors: Vec<String>,
    },
    /// The run was stopped by [`rewrite_with_ladder_stopping_after`]
    /// after a round's store flush — the chaos kill domain's
    /// in-process stand-in for SIGKILL at a round boundary. Re-run
    /// over the same store to finish the run.
    Interrupted {
        /// Rounds executed and flushed before the stop.
        rounds: usize,
    },
}

impl fmt::Display for LadderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LadderError::Rewrite(e) => write!(f, "rewrite failed: {e}"),
            LadderError::Verify(e) => write!(f, "verification could not run: {e}"),
            LadderError::NoConvergence { rounds, remaining_errors } => write!(
                f,
                "ladder did not converge after {rounds} rounds; {} unattributable error(s)",
                remaining_errors.len()
            ),
            LadderError::Interrupted { rounds } => write!(
                f,
                "run interrupted after {rounds} flushed round(s); re-run to finish"
            ),
        }
    }
}

impl std::error::Error for LadderError {}

impl From<RewriteError> for LadderError {
    fn from(e: RewriteError) -> LadderError {
        LadderError::Rewrite(e)
    }
}

impl From<VerifyError> for LadderError {
    fn from(e: VerifyError) -> LadderError {
        LadderError::Verify(e)
    }
}

/// Rewrite `binary` under `config`, verify, and degrade per function
/// until the verifier reports zero errors.
///
/// When `config.fault_plan` is set it is armed against the binary
/// first (this is how chaos campaigns enter). Artifact collection is
/// forced on — the verifier is the ladder's oracle.
///
/// # Errors
///
/// [`LadderError`] when no verified rewrite can be produced at all;
/// *degradation* is not an error (inspect
/// [`LadderOutcome::budget_exceeded`] for the policy verdict).
pub fn rewrite_with_ladder(
    binary: &Binary,
    config: &RewriteConfig,
    instr: &Instrumentation,
) -> Result<LadderOutcome, LadderError> {
    rewrite_with_ladder_cached(binary, config, instr, &RewriteCache::new())
}

/// [`rewrite_with_ladder`] with an explicit [`RewriteCache`].
///
/// The cache is shared across every round: demoting a function changes
/// only that function's cache keys, so each subsequent round re-does
/// per-function work for the demoted functions alone and serves every
/// untouched function from the cache (analysis is shared wholesale —
/// ladder rungs never change the [`icfgp_cfg::AnalysisConfig`]). Pass
/// the same cache across seeds or related binaries to share further.
///
/// # Errors
///
/// As [`rewrite_with_ladder`].
pub fn rewrite_with_ladder_cached(
    binary: &Binary,
    config: &RewriteConfig,
    instr: &Instrumentation,
    cache: &RewriteCache,
) -> Result<LadderOutcome, LadderError> {
    run_ladder(binary, config, instr, cache, None)
}

/// [`rewrite_with_ladder_cached`] that stops with
/// [`LadderError::Interrupted`] once `rounds` rounds have run without
/// converging. Every round flushes the attached store before the stop,
/// so the stop leaves the disk state a kill at that round boundary
/// would, and a plain re-run over the same store finishes the run
/// from store hits. A ladder that converges within `rounds` returns
/// its outcome as usual.
///
/// # Errors
///
/// As [`rewrite_with_ladder`], plus [`LadderError::Interrupted`].
pub fn rewrite_with_ladder_stopping_after(
    binary: &Binary,
    config: &RewriteConfig,
    instr: &Instrumentation,
    cache: &RewriteCache,
    rounds: usize,
) -> Result<LadderOutcome, LadderError> {
    run_ladder(binary, config, instr, cache, Some(rounds))
}

fn run_ladder(
    binary: &Binary,
    config: &RewriteConfig,
    instr: &Instrumentation,
    cache: &RewriteCache,
    stop_after: Option<usize>,
) -> Result<LadderOutcome, LadderError> {
    let mut cfg = config.clone();
    cfg.collect_artifacts = true;
    if let Some(plan) = cfg.fault_plan.clone() {
        plan.arm_cached(binary, &mut cfg, cache);
    }
    // Predictive gating runs *after* the fault plan is armed, so the
    // audit grades the injected faults the verifier will catch and the
    // ladder starts each function at a statically justified rung.
    let gate = cfg
        .audit_gate
        .then(|| apply_audit_gate(binary, &mut cfg, cache));
    let mut steps: BTreeMap<u64, Vec<LadderStep>> = BTreeMap::new();
    let mut round_stats: Vec<RewriteStats> = Vec::new();

    let trace = cache.trace();
    for round in 1..=MAX_ROUNDS {
        let round_span = trace.span(SpanKind::Round { round: round as u32 });
        let outcome = Rewriter::new(cfg.clone()).rewrite_cached(binary, instr, cache)?;
        round_stats.push(outcome.stats);
        let verify_span = trace.span(SpanKind::Verify);
        let verify = verify_rewrite(binary, &outcome, &cfg)?;
        verify_span.close();
        if verify.is_clean() {
            // Persist everything this ladder computed (no-op without
            // an attached store) before handing the outcome back, so a
            // later process starts warm even if this one never exits
            // cleanly.
            cache.flush_store();
            round_span.close();
            return Ok(finish(config, &cfg, outcome, verify, steps, round, round_stats, gate));
        }

        // Attribute each error to the function it belongs to.
        let artifacts = outcome.artifacts.as_ref().expect("collect_artifacts forced on");
        let mut victims: BTreeMap<u64, String> = BTreeMap::new();
        let mut unattributed: Vec<String> = Vec::new();
        for d in verify.errors() {
            let owner = binary.function_at(d.addr).map(|s| s.addr).or_else(|| {
                // Relocated-side addresses: find the plan that placed
                // the patch, trampoline or trap entry.
                artifacts
                    .plans
                    .iter()
                    .find(|(_, p)| {
                        p.patches
                            .iter()
                            .any(|pa| d.addr >= pa.addr && d.addr < pa.addr + pa.bytes.len() as u64)
                            || p.trampolines.iter().any(|t| t.block == d.addr || t.target == d.addr)
                            || p.trap_entries.iter().any(|(a, t)| *a == d.addr || *t == d.addr)
                    })
                    .map(|(e, _)| *e)
                    .or_else(|| {
                        // Clone-side addresses map back through the
                        // dispatching jump.
                        artifacts
                            .clones
                            .iter()
                            .find(|c| {
                                let end =
                                    c.clone_addr + c.count * u64::from(c.clone_entry_width);
                                d.addr == c.jump_addr
                                    || d.addr == c.table_addr
                                    || (d.addr >= c.clone_addr && d.addr < end)
                            })
                            .and_then(|c| binary.function_at(c.jump_addr).map(|s| s.addr))
                    })
            });
            match owner {
                Some(entry) => {
                    victims.entry(entry).or_insert_with(|| d.to_string());
                }
                None => unattributed.push(d.to_string()),
            }
        }

        // Lower each victim one rung; a victim already at skip cannot
        // go lower.
        let mut lowered = false;
        for (entry, reason) in victims {
            let cur = cfg.func_mode(entry);
            let Some(next) = cur.lower() else {
                unattributed.push(format!("{entry:#x} already at {cur}, cannot lower: {reason}"));
                continue;
            };
            steps.entry(entry).or_default().push(LadderStep { from: cur, to: next, reason });
            trace.emit(TraceEvent::Demotion {
                entry,
                round: round as u32,
                from: cur.to_string(),
                to: next.to_string(),
            });
            cfg.func_modes.insert(entry, next);
            lowered = true;
        }
        if !lowered {
            return Err(LadderError::NoConvergence {
                rounds: round,
                remaining_errors: unattributed,
            });
        }
        // Persist the round's per-function results, so a run killed
        // after this round leaves a store that a re-run hits for all of
        // the round's work.
        cache.flush_store();
        round_span.close();
        if stop_after.is_some_and(|k| round >= k) {
            return Err(LadderError::Interrupted { rounds: round });
        }
    }
    Err(LadderError::NoConvergence {
        rounds: MAX_ROUNDS,
        remaining_errors: vec!["round limit reached with errors remaining".into()],
    })
}

/// Build the final outcome: dispositions from the last round's
/// artifacts and skip records, plus the policy verdict.
#[allow(clippy::too_many_arguments)]
fn finish(
    requested_cfg: &RewriteConfig,
    final_cfg: &RewriteConfig,
    outcome: RewriteOutcome,
    verify: VerifyReport,
    mut steps: BTreeMap<u64, Vec<LadderStep>>,
    rounds: usize,
    round_stats: Vec<RewriteStats>,
    gate: Option<GateSummary>,
) -> LadderOutcome {
    let artifacts = outcome.artifacts.as_ref().expect("collect_artifacts forced on");
    let failures: BTreeMap<u64, AnalysisFailure> = outcome
        .report
        .skipped
        .iter()
        .filter_map(|(e, r)| match r {
            SkipReason::AnalysisFailed(f) => Some((*e, f.clone())),
            _ => None,
        })
        .collect();
    let demoted_to_skip: BTreeSet<u64> = outcome
        .report
        .skipped
        .iter()
        .filter(|(_, r)| *r == SkipReason::Demoted)
        .map(|(e, _)| *e)
        .collect();
    let mut dispositions: Vec<FuncDisposition> = artifacts
        .func_modes
        .iter()
        .map(|(entry, achieved)| FuncDisposition {
            entry: *entry,
            requested: requested_cfg.func_mode(*entry),
            achieved: *achieved,
            steps: steps.remove(entry).unwrap_or_default(),
            failure: failures.get(entry).cloned(),
        })
        .collect();
    // Functions the ladder demoted to skip drop out of func_modes only
    // if never selected; make sure they are represented.
    for entry in demoted_to_skip {
        if !dispositions.iter().any(|d| d.entry == entry) {
            dispositions.push(FuncDisposition {
                entry,
                requested: requested_cfg.func_mode(entry),
                achieved: FuncMode::Skip,
                steps: steps.remove(&entry).unwrap_or_default(),
                failure: None,
            });
        }
    }
    dispositions.sort_by_key(|d| d.entry);
    let below_floor = dispositions
        .iter()
        .filter(|d| d.achieved < final_cfg.degradation.floor)
        .count();
    let budget_exceeded =
        final_cfg.degradation.exceeded(below_floor, dispositions.len());
    LadderOutcome {
        outcome,
        verify,
        dispositions,
        rounds,
        below_floor,
        budget_exceeded,
        round_stats,
        gate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icfgp_core::{FaultPlan, Points, RewriteMode};
    use icfgp_isa::Arch;

    fn small(arch: Arch, seed: u64) -> Binary {
        icfgp_workloads::generate(&icfgp_workloads::GenParams::small("ladder", arch, seed)).binary
    }

    #[test]
    fn clean_binary_converges_in_one_round() {
        let bin = small(Arch::X64, 7);
        let cfg = RewriteConfig::new(RewriteMode::FuncPtr);
        let out =
            rewrite_with_ladder(&bin, &cfg, &Instrumentation::empty(Points::EveryBlock)).unwrap();
        assert_eq!(out.rounds, 1);
        assert!(out.fully_clean(), "{:#?}", out.degraded().collect::<Vec<_>>());
        assert!(!out.budget_exceeded);
        assert!(out.verify.is_clean());
    }

    #[test]
    fn faulted_rewrite_degrades_but_verifies() {
        let bin = small(Arch::X64, 7);
        let mut cfg = RewriteConfig::new(RewriteMode::FuncPtr);
        cfg.fault_plan = Some(FaultPlan::aggressive(3));
        let out =
            rewrite_with_ladder(&bin, &cfg, &Instrumentation::empty(Points::EveryBlock)).unwrap();
        assert!(out.verify.is_clean(), "final round must verify with zero errors");
        // Aggressive faults guarantee at least one function degraded
        // or analysis-skipped.
        assert!(
            out.degraded().count() > 0 || out.dispositions.iter().any(|d| d.failure.is_some()),
            "{:#?}",
            out.dispositions
        );
        // Monotone: achieved never exceeds requested.
        for d in &out.dispositions {
            assert!(d.achieved <= d.requested, "{d:#?}");
            for s in &d.steps {
                assert!(s.to < s.from, "{s:?} must strictly descend");
            }
        }
    }

    #[test]
    fn dispositions_serialise() {
        let d = FuncDisposition {
            entry: 0x1000,
            requested: FuncMode::Full(RewriteMode::FuncPtr),
            achieved: FuncMode::TrapOnly,
            steps: vec![LadderStep {
                from: FuncMode::Full(RewriteMode::FuncPtr),
                to: FuncMode::Full(RewriteMode::Jt),
                reason: "clobber".into(),
            }],
            failure: None,
        };
        let json = serde_json::to_string(&d).unwrap();
        let back: FuncDisposition = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
