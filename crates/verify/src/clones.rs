//! Jump-table clone checks: coverage (every strict target present —
//! the table-specific side of under-approximation), placement (clones
//! live inside `.jt_clone` and never alias the original table), and
//! content (each entry resolves to the relocated target).

use crate::report::{Check, Severity, VerifyReport};
use icfgp_cfg::{BinaryAnalysis, FuncStatus, JumpTableDesc};
use icfgp_core::{
    table_cloneable, CloneSummary, RewriteArtifacts, RewriteConfig, RewriteMode, RewriteOutcome,
};
use icfgp_obj::{names, Binary};
use std::collections::HashMap;

/// Check every cloned jump table against the strict re-analysis.
pub fn check_clones(
    original: &Binary,
    outcome: &RewriteOutcome,
    artifacts: &RewriteArtifacts,
    strict: &BinaryAnalysis,
    config: &RewriteConfig,
    report: &mut VerifyReport,
) {
    if !config.clone_tables {
        return;
    }
    let instrumented: Vec<u64> = artifacts.plans.iter().map(|(e, _)| *e).collect();
    let jt_clone = outcome.binary.section(names::JT_CLONE);
    // Each jump's first clone, for the per-table lookup below.
    let mut clone_of: HashMap<u64, &CloneSummary> = HashMap::new();
    for c in &artifacts.clones {
        report.clones_checked += 1;
        check_placement(original, outcome, artifacts, c, jt_clone, report);
        clone_of.entry(c.jump_addr).or_insert(c);
    }
    // Coverage + content, per strict table of each instrumented
    // function the strict pass can analyse. Functions the ladder
    // demoted below `jt` keep their original (uncloned) tables; their
    // targets are covered by the CFL-completeness check instead.
    for entry in &instrumented {
        if !matches!(config.rewrite_mode_for(*entry), Some(m) if m >= RewriteMode::Jt) {
            continue;
        }
        let Some(func) = strict.funcs.get(entry).filter(|f| f.status == FuncStatus::Ok) else {
            continue;
        };
        for desc in &func.jump_tables {
            if !table_cloneable(func, desc) {
                // Targets of uncloneable tables stay CFL blocks; the
                // CFL-completeness check covers them.
                continue;
            }
            let Some(&c) = clone_of.get(&desc.jump_addr) else {
                report.push(
                    Severity::Error,
                    Check::CflCompleteness,
                    desc.jump_addr,
                    format!("cloneable table at {:#x} was not cloned", desc.table_addr),
                );
                continue;
            };
            check_coverage(outcome, c, desc, report);
        }
    }
}

/// Clone range containment and original-table preservation.
fn check_placement(
    original: &Binary,
    outcome: &RewriteOutcome,
    artifacts: &RewriteArtifacts,
    c: &CloneSummary,
    jt_clone: Option<&icfgp_obj::Section>,
    report: &mut VerifyReport,
) {
    let clone_end = c.clone_addr + c.count * u64::from(c.clone_entry_width);
    let contained = jt_clone
        .is_some_and(|sec| c.clone_addr >= sec.addr() && clone_end <= sec.end());
    if !contained {
        report.push(
            Severity::Error,
            Check::MapWellFormed,
            c.clone_addr,
            format!(
                "clone of table {:#x} ([{:#x}, {clone_end:#x})) is not inside `.jt_clone`",
                c.table_addr, c.clone_addr
            ),
        );
    }
    let (lo, hi) = artifacts.clone_range;
    if !(c.clone_addr >= lo && clone_end <= hi) {
        report.push(
            Severity::Error,
            Check::MapWellFormed,
            c.clone_addr,
            format!("clone [{:#x}, {clone_end:#x}) escapes the clone region", c.clone_addr),
        );
    }
    let orig_len = c.count * u64::from(c.orig_entry_width);
    let orig_end = c.table_addr + orig_len;
    if c.clone_addr < orig_end && c.table_addr < clone_end {
        report.push(
            Severity::Error,
            Check::MapWellFormed,
            c.clone_addr,
            format!("clone aliases the original table at {:#x}", c.table_addr),
        );
    }
    // Cloning must never edit the original in place: other (unselected
    // or failed) functions may still dispatch through it. In-text
    // tables of rewritten functions are exempt — their bytes become
    // donated scratch space.
    if !c.in_text {
        let before = original.read(c.table_addr, orig_len as usize);
        let after = outcome.binary.read(c.table_addr, orig_len as usize);
        match (before, after) {
            (Ok(b), Ok(a)) if b != a => report.push(
                Severity::Error,
                Check::MapWellFormed,
                c.table_addr,
                format!("original table at {:#x} was modified in place", c.table_addr),
            ),
            _ => {}
        }
    }
}

/// Every strict target must be representable in the clone and its
/// entry must decode back to the target's relocated address.
fn check_coverage(
    outcome: &RewriteOutcome,
    c: &CloneSummary,
    desc: &JumpTableDesc,
    report: &mut VerifyReport,
) {
    let resolve = |target: u64| -> u64 {
        outcome
            .block_map
            .get(&target)
            .or_else(|| outcome.inst_map.get(&target))
            .copied()
            .unwrap_or(target)
    };
    let width = usize::from(c.clone_entry_width);
    for (idx, target) in &desc.targets {
        if *idx >= c.count {
            report.push(
                Severity::Error,
                Check::CflCompleteness,
                desc.jump_addr,
                format!(
                    "table at {:#x}: entry {idx} -> {target:#x} was dropped from the clone \
                     (clone has {} entries, strict analysis found {})",
                    desc.table_addr, c.count, desc.count
                ),
            );
            continue;
        }
        let expected = c.kind.entry_for(resolve(*target), c.clone_addr);
        let slot = c.clone_addr + idx * width as u64;
        match outcome.binary.read(slot, width) {
            Ok(bytes) if bytes == &expected.to_le_bytes()[..width] => {}
            Ok(_) => report.push(
                Severity::Error,
                Check::MapWellFormed,
                slot,
                format!(
                    "clone entry {idx} of table {:#x} does not resolve to the relocated \
                     target of {target:#x}",
                    desc.table_addr
                ),
            ),
            Err(e) => report.push(
                Severity::Error,
                Check::MapWellFormed,
                slot,
                format!("clone entry {idx} is unreadable: {e}"),
            ),
        }
    }
    if c.count > desc.count {
        report.push(
            Severity::Warning,
            Check::OverApproximation,
            desc.jump_addr,
            format!(
                "clone of table {:#x} carries {} surplus entries (over-approximated count)",
                c.table_addr,
                c.count - desc.count
            ),
        );
    }
}
