//! Trampoline placement analysis (§4).
//!
//! Input: a function's CFL blocks and the relocated addresses they
//! must transfer to. Output: per-block trampoline choices plus the
//! byte patches to apply to original code. The analysis implements:
//!
//! * **superblocks** — every non-CFL block is a scratch block (§4.2:
//!   if control entered it in original code, that block would itself
//!   be CFL), so a CFL block's trampoline budget extends over the
//!   contiguous run of following scratch blocks;
//! * **multi-hop trampolines** — when the budget only fits the short
//!   form and the short form cannot reach `.instr`, a short branch
//!   hops to a nearby scratch *island* holding the long form. Islands
//!   are allocated from leftover superblock space, inter-function
//!   padding, dead inline jump tables, and the renamed `.old.*`
//!   dynamic-linking sections (§7's three scratch sources);
//! * **trap trampolines** — the last resort (1 byte / 1 word), with a
//!   `.trap_map` entry for the runtime's signal handler.

use crate::cfl::CflReason;
use crate::config::PlacementConfig;
use crate::tramp;
use icfgp_cfg::{FuncCfg, LivenessResult};
use icfgp_isa::Arch;
use std::collections::BTreeMap;

/// The chosen trampoline form for one CFL block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrampolineKind {
    /// Single short branch.
    Short,
    /// Inline long sequence.
    Long {
        /// ppc64le save/restore variant (no dead register).
        saves_reg: bool,
    },
    /// Short branch to an island holding the long sequence.
    MultiHop {
        /// Island address.
        island: u64,
    },
    /// Trap instruction + `.trap_map` entry.
    Trap,
}

/// One placed trampoline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedTrampoline {
    /// CFL block start (where the trampoline bytes go).
    pub block: u64,
    /// End of the trampoline budget (superblock end).
    pub budget_end: u64,
    /// Why the block is CFL.
    pub reason: CflReason,
    /// Chosen form.
    pub kind: TrampolineKind,
    /// Relocated target.
    pub target: u64,
}

/// A byte patch against the original image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Patch {
    /// Where to write.
    pub addr: u64,
    /// Bytes to write.
    pub bytes: Vec<u8>,
}

/// The full placement result for one function.
#[derive(Debug, Clone, Default)]
pub struct PlacementPlan {
    /// Chosen trampolines.
    pub trampolines: Vec<PlacedTrampoline>,
    /// Byte patches (trampolines and islands).
    pub patches: Vec<Patch>,
    /// `.trap_map` entries (trap address → relocated target).
    pub trap_entries: Vec<(u64, u64)>,
}

/// Free scratch ranges shared across the whole binary.
///
/// Ranges are keyed by `(start, seq)`, where `seq` counts insertions:
/// ordered by address for the outward search in
/// [`ScratchPool::allocate_near`], with `seq` breaking distance ties
/// in favour of the range inserted earliest.
#[derive(Debug, Clone, Default)]
pub struct ScratchPool {
    /// `(start, seq)` → end.
    ranges: BTreeMap<(u64, u64), u64>,
    next_seq: u64,
    /// Every range ever donated, in donation order. Allocation
    /// fragments are not re-recorded, so this is the provenance log
    /// the verifier checks island allocations against.
    donations: Vec<(u64, u64)>,
}

impl ScratchPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> ScratchPool {
        ScratchPool::default()
    }

    fn insert(&mut self, start: u64, end: u64) {
        self.ranges.insert((start, self.next_seq), end);
        self.next_seq += 1;
    }

    /// Donate a free range.
    pub fn donate(&mut self, start: u64, end: u64) {
        if end > start {
            self.insert(start, end);
            self.donations.push((start, end));
        }
    }

    /// Every range ever donated (fragments returned by allocation are
    /// subsumed by their original donation and not listed again).
    #[must_use]
    pub fn donations(&self) -> &[(u64, u64)] {
        &self.donations
    }

    /// Total free bytes.
    #[allow(dead_code)] // used by tests and future placement policies
    #[must_use]
    pub fn free_bytes(&self) -> u64 {
        self.ranges.iter().map(|(&(s, _), &e)| e - s).sum()
    }

    /// Allocate `size` bytes (aligned to `align`) whose start is within
    /// `max_dist` of `near`. Returns the allocated address.
    ///
    /// The range whose aligned start is nearest wins; on a tie, the
    /// range inserted earliest. A range's aligned start lies in
    /// `[start, start + align)`, so the search walks outward from
    /// `near` in both directions and stops once a range's start alone
    /// puts it beyond the best distance found (or `max_dist`).
    pub fn allocate_near(&mut self, near: u64, size: u64, align: u64, max_dist: u64) -> Option<u64> {
        let mut best: Option<((u64, u64), u64, u64)> = None; // (key, addr, dist)
        let consider = |key: (u64, u64), e: u64, best: &mut Option<((u64, u64), u64, u64)>| {
            let s = key.0;
            let addr = s + (align - (s % align)) % align;
            if addr + size > e {
                return;
            }
            let dist = near.abs_diff(addr);
            if dist > max_dist {
                return;
            }
            if best.is_none_or(|(k, _, d)| (dist, key.1) < (d, k.1)) {
                *best = Some((key, addr, dist));
            }
        };
        // No candidate beyond `max_dist` is ever kept.
        let bound = |best: &Option<((u64, u64), u64, u64)>| best.map_or(max_dist, |b| b.2);
        // Upward: every aligned start is at least `s`.
        for (&key, &e) in self.ranges.range((near, 0)..) {
            if key.0 - near > bound(&best) {
                break;
            }
            consider(key, e, &mut best);
        }
        // Downward: every aligned start is below `s + align`.
        for (&key, &e) in self.ranges.range(..(near, 0)).rev() {
            if (near - key.0).saturating_sub(align - 1) > bound(&best) {
                break;
            }
            consider(key, e, &mut best);
        }
        let (key, addr, _) = best?;
        let e = self.ranges.remove(&key).expect("chosen range is free");
        let s = key.0;
        // Return the two leftover fragments (without re-logging them
        // as donations — they stay covered by the original one).
        if addr > s {
            self.insert(s, addr);
        }
        if e > addr + size {
            self.insert(addr + size, e);
        }
        Some(addr)
    }
}

/// Inputs for placing one function's trampolines.
pub(crate) struct PlaceCtx<'a> {
    pub arch: Arch,
    pub func: &'a FuncCfg,
    pub cfl: &'a BTreeMap<u64, CflReason>,
    /// Original block start → relocated address.
    pub block_map: &'a BTreeMap<u64, u64>,
    pub liveness: &'a LivenessResult,
    pub toc: Option<u64>,
    pub placement: &'a PlacementConfig,
}

/// Place all trampolines for one function.
pub(crate) fn place_function(ctx: &PlaceCtx<'_>, pool: &mut ScratchPool) -> PlacementPlan {
    let mut plan = PlacementPlan::default();
    let arch = ctx.arch;
    // Compute superblock budgets.
    let blocks: Vec<u64> = ctx.func.blocks.keys().copied().collect();
    let mut budgets: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, start) in blocks.iter().enumerate() {
        if !ctx.cfl.contains_key(start) {
            continue;
        }
        let block = &ctx.func.blocks[start];
        let mut end = block.end;
        if ctx.placement.superblocks {
            // Extend across contiguous non-CFL (scratch) blocks.
            for next in &blocks[i + 1..] {
                let nb = &ctx.func.blocks[next];
                if nb.start != end || ctx.cfl.contains_key(next) {
                    break;
                }
                end = nb.end;
            }
        }
        budgets.insert(*start, end);
    }

    // Phase 1: direct placements; defer blocks that need islands.
    let mut deferred: Vec<(u64, u64, u64)> = Vec::new(); // (block, budget_end, target)
    for (start, budget_end) in &budgets {
        let reason = ctx.cfl[start];
        let Some(&target) = ctx.block_map.get(start) else {
            // CFL block with no relocated copy (shouldn't happen for
            // instrumented functions); skip defensively.
            continue;
        };
        // Forced trap placement (trap-only degradation rung): traps
        // never clobber registers and fit any budget, so a function
        // with corrupt liveness or broken budgets still redirects
        // every block safely through the signal handler.
        if ctx.placement.force_trap {
            trap(&mut plan, arch, *start, *budget_end, reason, target);
            continue;
        }
        let budget = budget_end - start;
        let scratch = ctx.liveness.scratch_reg_at(*start);
        let short = tramp::short_branch(arch, *start, target);
        // Preference order: a reaching branch that fits inline, then
        // the long form inline, then multi-hop, then trap.
        if arch == Arch::X64 {
            if budget >= 5 {
                let bytes = tramp::near_branch_x64(*start, target).expect("within 2GB");
                push_tramp(&mut plan, *start, *budget_end, reason,
                    TrampolineKind::Long { saves_reg: false }, target, bytes);
                continue;
            }
            if let Some(bytes) = short {
                if budget >= bytes.len() as u64 {
                    push_tramp(&mut plan, *start, *budget_end, reason, TrampolineKind::Short,
                        target, bytes);
                    continue;
                }
            }
            if ctx.placement.multi_hop && budget >= 2 {
                deferred.push((*start, *budget_end, target));
                continue;
            }
            trap(&mut plan, arch, *start, *budget_end, reason, target);
            continue;
        }
        // RISC: budget is always >= 4.
        if let Some(bytes) = short {
            push_tramp(&mut plan, *start, *budget_end, reason, TrampolineKind::Short, target, bytes);
            continue;
        }
        let plain_len = tramp::long_branch_len(arch, false) as u64;
        let save_len = tramp::long_branch_len(arch, true) as u64;
        if budget >= plain_len {
            if let Some(bytes) = tramp::long_branch(arch, *start, target, ctx.toc, scratch) {
                push_tramp(&mut plan, *start, *budget_end, reason,
                    TrampolineKind::Long { saves_reg: false }, target, bytes);
                continue;
            }
            // No dead register: ppc64le save/restore variant; aarch64
            // has none and falls through.
            if arch == Arch::Ppc64le && budget >= save_len {
                if let Some(bytes) = tramp::long_branch(arch, *start, target, ctx.toc, None) {
                    push_tramp(&mut plan, *start, *budget_end, reason,
                        TrampolineKind::Long { saves_reg: true }, target, bytes);
                    continue;
                }
            }
        }
        if ctx.placement.multi_hop {
            deferred.push((*start, *budget_end, target));
            continue;
        }
        trap(&mut plan, arch, *start, *budget_end, reason, target);
    }

    // Donate leftover superblock bytes to the island pool (§2.2's
    // extra reusable code bytes; mainstream placement lacks this).
    if ctx.placement.reuse_block_leftovers {
        for t in &plan.trampolines {
            let used = tramp_len(arch, t);
            pool.donate(t.block + used, t.budget_end);
        }
    }

    // Phase 2: islands for the deferred blocks.
    for (start, budget_end, target) in deferred {
        let reason = ctx.cfl[&start];
        let scratch = ctx.liveness.scratch_reg_at(start);
        // Island holds the long form (for the context of this block).
        let (island_bytes_len, use_save) = match arch {
            Arch::X64 => (5u64, false),
            Arch::Aarch64 => {
                if scratch.is_some() {
                    (tramp::long_branch_len(arch, false) as u64, false)
                } else {
                    // aarch64 with no dead register: trap (§7).
                    trap(&mut plan, arch, start, budget_end, reason, target);
                    continue;
                }
            }
            Arch::Ppc64le => {
                if scratch.is_some() {
                    (tramp::long_branch_len(arch, false) as u64, false)
                } else {
                    (tramp::long_branch_len(arch, true) as u64, true)
                }
            }
        };
        // The short hop must reach the island.
        let reach = arch.short_branch_reach() as u64;
        let slack = island_bytes_len + 16;
        match pool.allocate_near(start, island_bytes_len, arch.inst_align(), reach - slack) {
            Some(island) => {
                let hop =
                    tramp::short_branch(arch, start, island).expect("allocated within reach");
                let long = if use_save {
                    tramp::long_branch(arch, island, target, ctx.toc, None)
                } else if arch == Arch::X64 {
                    Some(tramp::near_branch_x64(island, target).expect("within 2GB"))
                } else {
                    tramp::long_branch(arch, island, target, ctx.toc, scratch)
                };
                let Some(long) = long else {
                    trap(&mut plan, arch, start, budget_end, reason, target);
                    continue;
                };
                plan.patches.push(Patch { addr: island, bytes: long });
                push_tramp(&mut plan, start, budget_end, reason,
                    TrampolineKind::MultiHop { island }, target, hop);
            }
            None => trap(&mut plan, arch, start, budget_end, reason, target),
        }
    }
    plan
}

fn push_tramp(
    plan: &mut PlacementPlan,
    block: u64,
    budget_end: u64,
    reason: CflReason,
    kind: TrampolineKind,
    target: u64,
    bytes: Vec<u8>,
) {
    plan.patches.push(Patch { addr: block, bytes });
    plan.trampolines.push(PlacedTrampoline { block, budget_end, reason, kind, target });
}

fn trap(
    plan: &mut PlacementPlan,
    arch: Arch,
    block: u64,
    budget_end: u64,
    reason: CflReason,
    target: u64,
) {
    plan.patches.push(Patch { addr: block, bytes: tramp::trap_trampoline(arch) });
    plan.trap_entries.push((block, target));
    plan.trampolines.push(PlacedTrampoline {
        block,
        budget_end,
        reason,
        kind: TrampolineKind::Trap,
        target,
    });
}

fn tramp_len(arch: Arch, t: &PlacedTrampoline) -> u64 {
    match t.kind {
        TrampolineKind::Short => arch.short_branch_len() as u64,
        TrampolineKind::Long { saves_reg } => tramp::long_branch_len(arch, saves_reg) as u64,
        TrampolineKind::MultiHop { .. } => arch.short_branch_len() as u64,
        TrampolineKind::Trap => arch.trap_len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_allocation_prefers_nearby() {
        let mut pool = ScratchPool::new();
        pool.donate(0x1000, 0x1100);
        pool.donate(0x9000, 0x9100);
        let a = pool.allocate_near(0x9050, 16, 4, 0x10000).unwrap();
        assert!((0x9000..0x9100).contains(&a), "nearest range chosen: {a:#x}");
        // The used range is split; remaining capacity shrinks.
        assert_eq!(pool.free_bytes(), 0x200 - 16);
    }

    #[test]
    fn pool_respects_distance_and_alignment() {
        let mut pool = ScratchPool::new();
        pool.donate(0x1001, 0x1041);
        assert!(pool.allocate_near(0x9000, 16, 4, 0x100).is_none(), "too far");
        let a = pool.allocate_near(0x1000, 16, 4, 0x100).unwrap();
        assert_eq!(a % 4, 0);
        assert!(a >= 0x1004);
    }

    /// The pool as a flat vector scanned per allocation, in insertion
    /// order: the reference the indexed pool must agree with.
    #[derive(Default)]
    struct LinearPool {
        ranges: Vec<(u64, u64)>,
    }

    impl LinearPool {
        fn donate(&mut self, start: u64, end: u64) {
            if end > start {
                self.ranges.push((start, end));
            }
        }

        fn allocate_near(&mut self, near: u64, size: u64, align: u64, max_dist: u64) -> Option<u64> {
            let mut best: Option<(usize, u64, u64)> = None; // (idx, addr, dist)
            for (i, (s, e)) in self.ranges.iter().enumerate() {
                let addr = s + (align - (s % align)) % align;
                if addr + size > *e {
                    continue;
                }
                let dist = near.abs_diff(addr);
                if dist > max_dist {
                    continue;
                }
                if best.is_none_or(|(_, _, d)| dist < d) {
                    best = Some((i, addr, dist));
                }
            }
            let (i, addr, _) = best?;
            let (s, e) = self.ranges.remove(i);
            if addr > s {
                self.ranges.push((s, addr));
            }
            if e > addr + size {
                self.ranges.push((addr + size, e));
            }
            Some(addr)
        }
    }

    #[test]
    fn equal_distance_tie_goes_to_the_earliest_inserted_range() {
        let mut pool = ScratchPool::new();
        // 0x1100 and 0x0F00 are both 0x100 from 0x1000; the later
        // donation sits lower in the address order.
        pool.donate(0x1100, 0x1110);
        pool.donate(0x0F00, 0x0F10);
        assert_eq!(pool.allocate_near(0x1000, 8, 1, 0x1000), Some(0x1100));
        assert_eq!(pool.allocate_near(0x1000, 8, 1, 0x1000), Some(0x0F00));
        // The fragments left behind are newer than any donation.
        pool.donate(0x1008, 0x1010);
        assert_eq!(pool.allocate_near(0x1000, 8, 1, 0x1000), Some(0x1008));
    }

    proptest::proptest! {
        /// Random donate/allocate sequences on a small address grid
        /// (so equal-distance ties and overlapping donations are
        /// common): every allocation matches the linear scan.
        #[test]
        fn indexed_pool_matches_linear_scan(
            ops in proptest::collection::vec(
                (0u8..3, 0u64..64, 0u64..12, 0u64..6, 0u64..3, 0u64..48),
                1..80,
            ),
        ) {
            let mut pool = ScratchPool::new();
            let mut reference = LinearPool::default();
            for (op, a, b, size, align_log, max_dist) in ops {
                let (start, near) = (0x1000 + a * 4, 0x1000 + a * 4 + 2);
                if op == 0 {
                    pool.donate(start, start + b * 4);
                    reference.donate(start, start + b * 4);
                } else {
                    let align = 1 << align_log;
                    let max_dist = max_dist * 4;
                    proptest::prop_assert_eq!(
                        pool.allocate_near(near, size, align, max_dist),
                        reference.allocate_near(near, size, align, max_dist)
                    );
                }
                let free: u64 = reference.ranges.iter().map(|(s, e)| e - s).sum();
                proptest::prop_assert_eq!(pool.free_bytes(), free);
            }
        }
    }

    #[test]
    fn pool_exhaustion() {
        let mut pool = ScratchPool::new();
        pool.donate(0x1000, 0x1008);
        assert!(pool.allocate_near(0x1000, 16, 1, 0x100).is_none());
        assert!(pool.allocate_near(0x1000, 8, 1, 0x100).is_some());
        assert!(pool.allocate_near(0x1000, 1, 1, 0x100).is_none(), "now empty");
    }
}
