//! Patch-integrity checks: overlap, superblock budgets, and scratch
//! provenance of island bytes.

use crate::report::{Check, Severity, VerifyReport};
use icfgp_cfg::SpanIndex;
use icfgp_core::{RewriteArtifacts, TrampolineKind};
use std::collections::BTreeSet;

/// Check every byte patch in every placement plan.
///
/// * **overlap** — no two patches may write the same byte (two
///   trampolines sharing bytes means at least one is corrupted);
/// * **budget** — a patch installed at a CFL block must fit inside the
///   trampoline superblock the placement analysis granted it;
/// * **provenance** — a patch that is *not* at a trampoline block must
///   be a multi-hop island, and islands may only occupy bytes that
///   were explicitly donated to the scratch pool (padding, dead inline
///   tables, `.old.*` scratch sections, superblock leftovers).
pub fn check_patches(artifacts: &RewriteArtifacts, report: &mut VerifyReport) {
    // ----- overlap (global, across functions) ---------------------------
    let mut spans: Vec<(u64, u64)> = Vec::new();
    for (_, plan) in &artifacts.plans {
        for p in &plan.patches {
            spans.push((p.addr, p.addr + p.bytes.len() as u64));
            report.patches_checked += 1;
        }
    }
    spans.sort_unstable();
    for w in spans.windows(2) {
        if w[0].1 > w[1].0 {
            report.push(
                Severity::Error,
                Check::PatchOverlap,
                w[1].0,
                format!(
                    "patch [{:#x}, {:#x}) overlaps patch [{:#x}, {:#x})",
                    w[0].0, w[0].1, w[1].0, w[1].1
                ),
            );
        }
    }

    // ----- budget + provenance -----------------------------------------
    let donated = SpanIndex::new(artifacts.scratch_ranges.iter().copied());
    for (entry, plan) in &artifacts.plans {
        let mut islands: BTreeSet<u64> = BTreeSet::new();
        for t in &plan.trampolines {
            if let TrampolineKind::MultiHop { island } = t.kind {
                islands.insert(island);
            }
        }
        for p in &plan.patches {
            let end = p.addr + p.bytes.len() as u64;
            if let Some(t) = plan.trampolines.iter().find(|t| t.block == p.addr) {
                if end > t.budget_end {
                    report.push(
                        Severity::Error,
                        Check::PatchBudget,
                        p.addr,
                        format!(
                            "trampoline patch ends at {:#x}, past its superblock budget {:#x}",
                            end, t.budget_end
                        ),
                    );
                }
            } else if islands.contains(&p.addr) {
                if !donated.covers(p.addr, end) {
                    report.push(
                        Severity::Error,
                        Check::ScratchProvenance,
                        p.addr,
                        format!(
                            "island [{:#x}, {:#x}) occupies bytes never donated to the scratch pool",
                            p.addr, end
                        ),
                    );
                }
            } else {
                report.push(
                    Severity::Error,
                    Check::ScratchProvenance,
                    p.addr,
                    format!(
                        "patch at {:#x} (function {:#x}) matches no trampoline block or island",
                        p.addr, entry
                    ),
                );
            }
        }
    }
}
