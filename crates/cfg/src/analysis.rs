//! The analysis driver: per-function CFG construction and the
//! binary-level analysis pass.

use crate::block::{Block, Edge, EdgeKind, FuncCfg};
use crate::funcptr::{self, FpDef};
use crate::jumptable::{analyze_jump, JtFail, SliceCtx};
use icfgp_isa::{decode, AluOp, Arch, Inst, Reg};
use icfgp_obj::{Binary, Symbol};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Analysis capability knobs.
///
/// [`AnalysisConfig::default`] is the paper's improved analysis;
/// [`AnalysisConfig::srbi`] models the weaker analysis of
/// Dyninst-10.2/SRBI, which drives the coverage gap in Table 3.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AnalysisConfig {
    /// Track values through stack spill/reload pairs during slicing.
    pub track_spills: bool,
    /// §5.1 Failure 1: classify unresolved indirect jumps as tail
    /// calls when the function layout has no gaps (or all-nop gaps).
    pub tailcall_gap_heuristic: bool,
    /// The classic heuristic: an indirect jump preceded by frame
    /// teardown is a tail call.
    pub tailcall_teardown_heuristic: bool,
    /// §5.1 Failure 2: extend an unbounded table to the nearest known
    /// data boundary instead of failing (over-approximates, never
    /// under-approximates).
    pub table_end_extension: bool,
    /// §5.2: forward-slice function-pointer values through arithmetic
    /// (`&goexit + 1`).
    pub funcptr_arith_tracking: bool,
    /// Backward-slice window in instructions.
    pub max_slice_insts: usize,
    /// Cap on (possibly extended) table sizes.
    pub max_table_entries: u64,
    /// Watchdog work-unit budget for one function's analysis: the
    /// fixpoint driver charges one unit per traversed instruction per
    /// round plus [`AnalysisConfig::max_slice_insts`] units per
    /// jump-table slice. Exceeding it aborts the function with
    /// [`AnalysisFailure::Budget`] — demote, never hang. The unit
    /// ledger is deterministic, so budget verdicts are cacheable and
    /// identical warm or cold.
    pub max_work_units: u64,
    /// Optional wall-clock deadline (milliseconds) for one function's
    /// analysis, checked cooperatively at fixpoint-round boundaries.
    /// Unlike the work-unit budget this is *not* deterministic across
    /// machines or runs; leave it `None` when byte-reproducibility of
    /// degradation decisions matters.
    pub func_timeout_ms: Option<u64>,
    /// Faults to inject for the Figure 2 failure-mode experiment.
    pub inject: Vec<InjectedFault>,
}

/// Default per-function analysis work-unit budget. Generous: real
/// workloads stay orders of magnitude below it; only a pathological
/// function (or an injected [`InjectedFault::StallFunction`]) trips it.
pub const DEFAULT_WORK_UNITS: u64 = 1 << 20;

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            track_spills: true,
            tailcall_gap_heuristic: true,
            tailcall_teardown_heuristic: true,
            table_end_extension: true,
            funcptr_arith_tracking: true,
            max_slice_insts: 48,
            max_table_entries: 1024,
            max_work_units: DEFAULT_WORK_UNITS,
            func_timeout_ms: None,
            inject: Vec::new(),
        }
    }
}

impl AnalysisConfig {
    /// The weaker analysis baseline rewriters ship with.
    #[must_use]
    pub fn srbi() -> AnalysisConfig {
        AnalysisConfig {
            track_spills: false,
            tailcall_gap_heuristic: false,
            tailcall_teardown_heuristic: true,
            table_end_extension: false,
            funcptr_arith_tracking: false,
            ..AnalysisConfig::default()
        }
    }

    /// The maximally conservative configuration used by translation
    /// validation (`icfgp-verify`): every indirect-target candidate is
    /// kept live, no tail-call heuristic may explain away an
    /// unresolved jump (the function is reported failed instead), and
    /// no faults are injected. Over-approximating capabilities
    /// (table-end extension, pointer-arithmetic tracking) stay on.
    #[must_use]
    pub fn strict() -> AnalysisConfig {
        AnalysisConfig::default().strictened()
    }

    /// This configuration with heuristics and fault injection removed
    /// — the strict counterpart a verifier recomputes results with,
    /// keeping the resolution limits (`max_slice_insts`,
    /// `max_table_entries`) identical so a clean rewrite and its
    /// re-analysis resolve exactly the same tables.
    #[must_use]
    pub fn strictened(&self) -> AnalysisConfig {
        AnalysisConfig {
            tailcall_gap_heuristic: false,
            tailcall_teardown_heuristic: false,
            inject: Vec::new(),
            ..self.clone()
        }
    }

    /// This configuration with the injected faults restricted to those
    /// that can affect the analysis of code in `[start, end)`. Every
    /// fault is anchored to an address ([`InjectedFault::anchor`]):
    /// function faults to the victim entry, table faults to the
    /// dispatching jump. Analysing a function under its slice produces
    /// the same [`FuncCfg`] as under the full configuration, which is
    /// what makes per-function analysis results content-addressable.
    #[must_use]
    pub fn slice_for(&self, start: u64, end: u64) -> AnalysisConfig {
        let mut sliced = self.clone();
        sliced.inject.retain(|f| {
            let a = f.anchor();
            a >= start && a < end
        });
        sliced
    }

    /// A stable fingerprint over every analysis-relevant knob
    /// (including the injected faults). Two configurations with equal
    /// fingerprints analyse identically.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Deliberate analysis faults, one per Figure 2 failure class.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InjectedFault {
    /// Make analysis of the function at `entry` report failure.
    FailFunction {
        /// Entry address of the victim function.
        entry: u64,
    },
    /// Drop the last `drop` entries of the table dispatched at
    /// `jump_addr` (under-approximation — the catastrophic class).
    UnderApproximateTable {
        /// Indirect jump address.
        jump_addr: u64,
        /// Number of entries to drop.
        drop: u64,
    },
    /// Add `extra` infeasible targets to the table dispatched at
    /// `jump_addr` (over-approximation — wasteful but safe).
    OverApproximateTable {
        /// Indirect jump address.
        jump_addr: u64,
        /// Number of fake targets to add.
        extra: u64,
    },
    /// Panic inside the analysis of the function at `entry` — models a
    /// latent analysis bug. [`analyze`] isolates it per function, so
    /// the rest of the binary still analyses.
    PanicFunction {
        /// Entry address of the victim function.
        entry: u64,
    },
    /// Make the rewriter's liveness oracle claim every register is
    /// dead in the function at `entry` (corrupt scratch-register
    /// selection; the verifier's strict liveness catches clobbers).
    CorruptLiveness {
        /// Entry address of the victim function.
        entry: u64,
    },
    /// Burn `units` deterministic work units before analysing the
    /// function at `entry` — models a pathological function whose
    /// analysis blows up. With `units` above
    /// [`AnalysisConfig::max_work_units`] the watchdog fires and the
    /// function degrades with [`AnalysisFailure::Budget`] instead of
    /// hanging the pipeline.
    StallFunction {
        /// Entry address of the victim function.
        entry: u64,
        /// Work units charged up front.
        units: u64,
    },
}

impl InjectedFault {
    /// The address this fault is anchored to: faults only perturb the
    /// analysis (or liveness) of the function containing it.
    #[must_use]
    pub fn anchor(&self) -> u64 {
        match self {
            InjectedFault::FailFunction { entry }
            | InjectedFault::PanicFunction { entry }
            | InjectedFault::CorruptLiveness { entry }
            | InjectedFault::StallFunction { entry, .. } => *entry,
            InjectedFault::UnderApproximateTable { jump_addr, .. }
            | InjectedFault::OverApproximateTable { jump_addr, .. } => *jump_addr,
        }
    }
}

/// Analysis verdict for one function.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FuncStatus {
    /// CFG is complete enough to rewrite.
    Ok,
    /// Analysis reported failure; the rewriter must skip this function
    /// (§4.3: lower coverage, no correctness impact on others).
    Failed(AnalysisFailure),
}

/// What went wrong during analysis. Serialises cleanly so rewrite
/// reports and verify JSON carry the typed reason instead of a
/// `Debug`-formatted string.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnalysisFailure {
    /// An intra-procedural indirect jump could not be resolved and the
    /// tail-call heuristics did not apply.
    JumpTableUnresolved {
        /// The unresolved jump.
        jump_addr: u64,
    },
    /// Instruction decoding failed inside the function body.
    DecodeError {
        /// Faulting address.
        addr: u64,
    },
    /// Failure injected by the harness.
    Injected,
    /// The per-function analysis panicked and was caught by the
    /// isolation boundary in [`analyze`].
    Panicked,
    /// The watchdog fired: analysis exceeded its work-unit budget or
    /// wall-clock deadline and was aborted (demoted, never hung).
    Budget {
        /// Units spent when the watchdog fired: work units, or
        /// milliseconds when `wall_clock` is set.
        spent: u64,
        /// The configured limit in the same unit as `spent`.
        limit: u64,
        /// `true` when the (nondeterministic) wall-clock deadline
        /// fired rather than the deterministic work-unit budget.
        wall_clock: bool,
    },
}

impl fmt::Display for AnalysisFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisFailure::JumpTableUnresolved { jump_addr } => {
                write!(f, "unresolved indirect jump at {jump_addr:#x}")
            }
            AnalysisFailure::DecodeError { addr } => {
                write!(f, "undecodable instruction at {addr:#x}")
            }
            AnalysisFailure::Injected => f.write_str("injected analysis failure"),
            AnalysisFailure::Panicked => f.write_str("analysis panicked (isolated)"),
            AnalysisFailure::Budget { spent, limit, wall_clock } => {
                if *wall_clock {
                    write!(f, "analysis deadline exceeded: {spent} ms over the {limit} ms limit")
                } else {
                    write!(
                        f,
                        "analysis budget exceeded: {spent} work units over the {limit}-unit budget"
                    )
                }
            }
        }
    }
}

/// Binary-level analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryAnalysis {
    /// Per-function CFGs, keyed by entry address.
    pub funcs: BTreeMap<u64, FuncCfg>,
    /// Function-pointer definitions (empty unless requested), sorted
    /// and deduplicated: every [`crate::FpDefSite::DataSlot`] by slot
    /// address, then every [`crate::FpDefSite::CodeImm`] by instruction
    /// address.
    /// [`BinaryAnalysis::code_fp_defs_in`] binary-searches this order.
    pub fp_defs: Vec<FpDef>,
    /// Known data-access boundaries used for table-end extension.
    pub boundaries: BTreeSet<u64>,
}

impl BinaryAnalysis {
    /// Fraction of functions whose analysis succeeded (the paper's
    /// *instrumentation coverage*).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.funcs.is_empty() {
            return 1.0;
        }
        let ok = self.funcs.values().filter(|f| f.status == FuncStatus::Ok).count();
        ok as f64 / self.funcs.len() as f64
    }

    /// The code-side definitions whose materialising instruction lies
    /// in `[start, end)`, in `fp_defs` order: a binary search over the
    /// sorted `fp_defs`, not a scan.
    #[must_use]
    pub fn code_fp_defs_in(&self, start: u64, end: u64) -> &[FpDef] {
        let lo = self.fp_defs.partition_point(|d| funcptr::fp_def_order(d) < (1, start));
        let hi = self.fp_defs.partition_point(|d| funcptr::fp_def_order(d) < (1, end));
        &self.fp_defs[lo..hi.max(lo)]
    }

    /// Whether `fp_defs` holds its documented order (checked by the
    /// passes that binary-search it, in debug builds).
    #[must_use]
    pub fn fp_defs_sorted(&self) -> bool {
        self.fp_defs.is_sorted_by_key(funcptr::fp_def_order)
    }

    /// The function CFG containing `addr`.
    #[must_use]
    pub fn func_at(&self, addr: u64) -> Option<&FuncCfg> {
        self.funcs
            .range(..=addr)
            .next_back()
            .map(|(_, f)| f)
            .filter(|f| addr < f.end)
    }
}

/// Analyse a whole binary: every function plus (optionally reusable)
/// function-pointer definitions.
///
/// This is the sequential reference driver; it composes the staged
/// entry points [`prepass_boundaries`], [`analyze_function_isolated`]
/// and [`assemble_analysis`] that the incremental/parallel engine in
/// `icfgp-core` reuses. Each function is analysed against the
/// boundaries known so far: the pass-1 set plus the jump tables
/// discovered in every *earlier* (lower-address) function. Any driver
/// reproducing that per-function prefix produces identical results.
#[must_use]
pub fn analyze(binary: &Binary, config: &AnalysisConfig) -> BinaryAnalysis {
    let mut boundaries = prepass_boundaries(binary);

    // Pass 2: full per-function analysis; discovered tables feed the
    // boundary set for later functions.
    let mut funcs = BTreeMap::new();
    for sym in binary.functions() {
        let cfg = analyze_function_isolated(binary, sym, config, &boundaries);
        for jt in &cfg.jump_tables {
            boundaries.insert(jt.table_addr);
        }
        funcs.insert(sym.addr, cfg);
    }

    assemble_analysis(binary, config, funcs, boundaries)
}

/// Pass 1 of [`analyze`]: traverse everything without jump-table
/// resolution to collect the data-access boundaries table-end
/// extension relies on. Depends only on the binary.
#[must_use]
pub fn prepass_boundaries(binary: &Binary) -> BTreeSet<u64> {
    let mut boundaries: BTreeSet<u64> = BTreeSet::new();
    for sym in binary.functions() {
        let insts = traverse(binary, sym.addr, (sym.addr, sym.end()), &[], None);
        for ev in collect_addr_consts(&insts, binary) {
            // Only data addresses are boundaries.
            if let Some(sec) = binary.section_at(ev.value) {
                if !sec.flags().exec || binary.arch == Arch::Ppc64le {
                    boundaries.insert(ev.value);
                }
            }
        }
        // PC-relative data accesses on x64.
        for (addr, (inst, _)) in &insts {
            let a = match inst {
                Inst::Load { addr, .. } | Inst::Store { addr, .. } | Inst::Lea { addr, .. } => addr,
                _ => continue,
            };
            if a.pc_rel {
                boundaries.insert(addr.wrapping_add_signed(a.disp));
            }
        }
    }
    // Section boundaries are known data edges too.
    for sec in binary.sections() {
        boundaries.insert(sec.addr());
        boundaries.insert(sec.end());
    }
    boundaries
}

/// Analyse one function behind the panic isolation boundary: a latent
/// analysis bug (modelled by [`InjectedFault::PanicFunction`]) turns
/// into a per-function [`AnalysisFailure::Panicked`] instead of
/// aborting the whole pass. Safe to call from worker threads — the
/// quiet hook keys off a thread-local.
#[must_use]
pub fn analyze_function_isolated(
    binary: &Binary,
    sym: &Symbol,
    config: &AnalysisConfig,
    boundaries: &BTreeSet<u64>,
) -> FuncCfg {
    install_quiet_panic_hook();
    IN_ANALYSIS.with(|c| c.set(true));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        analyze_function(binary, sym, config, boundaries)
    }));
    IN_ANALYSIS.with(|c| c.set(false));
    result.unwrap_or_else(|_| panicked_func_cfg(sym))
}

/// The final stage of [`analyze`]: binary-level function-pointer
/// analysis plus the block splits it induces, assembled into a
/// [`BinaryAnalysis`]. `funcs` must hold every function's CFG and
/// `boundaries` the fixpoint boundary set.
#[must_use]
pub fn assemble_analysis(
    binary: &Binary,
    config: &AnalysisConfig,
    mut funcs: BTreeMap<u64, FuncCfg>,
    boundaries: BTreeSet<u64>,
) -> BinaryAnalysis {
    let fp_defs = funcptr::analyze_function_pointers(binary, &funcs, config);

    // Function-pointer arithmetic (`&f + delta`) makes mid-function
    // addresses indirect-control-flow targets: split blocks there and
    // record them, so modes that keep pointers unrewritten can install
    // trampolines (§5.2 Listing 1).
    for def in &fp_defs {
        if def.delta == 0 {
            continue;
        }
        let target = def.target_fn.wrapping_add_signed(def.delta);
        // Non-empty function ranges do not overlap
        // (`Binary::validate_layout`), so only the last non-empty
        // function starting at or below `target` can hold it.
        let owner = funcs.range_mut(..=target).rev().map(|(_, f)| f).find(|f| f.start < f.end);
        if let Some(func) = owner.filter(|f| target >= f.start && target < f.end) {
            if func.split_block_at(target) && !func.fp_landing_targets.contains(&target) {
                func.fp_landing_targets.push(target);
            }
        }
    }
    let analysis = BinaryAnalysis { funcs, fp_defs, boundaries };
    debug_assert!(analysis.fp_defs_sorted());
    analysis
}

thread_local! {
    /// Set while a function is being analysed under the panic
    /// isolation boundary; the hook suppresses panic noise for those.
    static IN_ANALYSIS: Cell<bool> = const { Cell::new(false) };
}

/// Chain a panic hook that stays silent for panics caught by the
/// per-function isolation boundary and defers to the previous hook
/// otherwise. Installed once per process.
fn install_quiet_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_ANALYSIS.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// The stand-in CFG recorded when a function's analysis panicked: no
/// blocks, no instructions, status [`AnalysisFailure::Panicked`]. The
/// rewriter treats it like any other failed function (§4.3).
fn panicked_func_cfg(sym: &Symbol) -> FuncCfg {
    failed_func_cfg(sym, AnalysisFailure::Panicked)
}

/// A stub CFG carrying only a failure status — shared by the panic
/// isolation boundary and the analysis watchdog. No blocks and no
/// instructions: the function is skipped wholesale.
fn failed_func_cfg(sym: &Symbol, failure: AnalysisFailure) -> FuncCfg {
    FuncCfg {
        name: sym.name.clone(),
        entry: sym.addr,
        start: sym.addr,
        end: sym.end(),
        blocks: BTreeMap::new(),
        insts: BTreeMap::new(),
        jump_tables: Vec::new(),
        indirect_tailcalls: Vec::new(),
        tail_calls: Vec::new(),
        call_sites: Vec::new(),
        landing_pads: Vec::new(),
        inline_data: Vec::new(),
        has_indirect_calls: false,
        fp_landing_targets: Vec::new(),
        status: FuncStatus::Failed(failure),
    }
}

/// Traverse reachable code from `entry` (plus `extra_starts`),
/// decoding instructions. Stops at indirect jumps; does not follow
/// calls. `known_tables` makes resolved table targets reachable.
fn traverse(
    binary: &Binary,
    entry: u64,
    range: (u64, u64),
    extra_starts: &[u64],
    mut decode_failure: Option<&mut Option<u64>>,
) -> BTreeMap<u64, (Inst, u8)> {
    let (start, end) = range;
    let mut insts: BTreeMap<u64, (Inst, u8)> = BTreeMap::new();
    let mut worklist: Vec<u64> = vec![entry];
    worklist.extend_from_slice(extra_starts);
    let mut queued: HashSet<u64> = worklist.iter().copied().collect();
    while let Some(mut addr) = worklist.pop() {
        loop {
            if addr < start || addr >= end || insts.contains_key(&addr) {
                break;
            }
            let Ok(bytes) = binary.read(addr, (end - addr).min(16) as usize) else { break };
            let Ok((inst, len)) = decode(bytes, binary.arch) else {
                if let Some(fail) = decode_failure.as_deref_mut() {
                    fail.get_or_insert(addr);
                }
                break;
            };
            let len = len as u64;
            insts.insert(addr, (inst.clone(), len as u8));
            // Enqueue direct branch targets.
            if let Some(off) = inst.direct_offset() {
                if !inst.is_call() {
                    let target = addr.wrapping_add_signed(off);
                    if target >= start && target < end && queued.insert(target) {
                        worklist.push(target);
                    }
                }
            }
            if inst.falls_through() {
                addr += len;
            } else {
                break;
            }
        }
    }
    insts
}

/// One address-materialisation event: after `inst_addr`, register
/// `reg` holds the constant `value`. Two-instruction idioms
/// (`adrp`+`add`, `addis`+`addi`) record the first instruction in
/// `pair_first`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrConstEvent {
    /// Address of the completing instruction.
    pub inst_addr: u64,
    /// Register holding the constant afterwards.
    pub reg: Reg,
    /// The constant.
    pub value: u64,
    /// First instruction of a two-instruction idiom, if any.
    pub pair_first: Option<u64>,
}

/// Forward scan yielding address-materialisation events (shared by
/// boundary collection and function-pointer analysis).
pub(crate) fn collect_addr_consts(
    insts: &BTreeMap<u64, (Inst, u8)>,
    binary: &Binary,
) -> Vec<AddrConstEvent> {
    let toc = binary.toc_base;
    let mut events = Vec::new();
    // reg -> (partially built constant, first inst of the pair)
    let mut partial: BTreeMap<u8, (u64, u64)> = BTreeMap::new();
    for (addr, (inst, _)) in insts {
        match inst {
            Inst::Lea { dst, addr: a } if a.pc_rel => {
                let v = addr.wrapping_add_signed(a.disp);
                events.push(AddrConstEvent { inst_addr: *addr, reg: *dst, value: v, pair_first: None });
                partial.remove(&dst.0);
            }
            Inst::MovImm { dst, imm } => {
                let v = *imm as u64;
                if binary.section_at(v).is_some() {
                    events.push(AddrConstEvent { inst_addr: *addr, reg: *dst, value: v, pair_first: None });
                }
                partial.remove(&dst.0);
            }
            Inst::AdrPage { dst, page_delta } => {
                partial.insert(dst.0, ((addr & !0xFFF).wrapping_add_signed(page_delta << 12), *addr));
            }
            Inst::AddShl16 { dst, src, imm } => {
                if Some(*src) == binary.arch.toc() {
                    if let Some(t) = toc {
                        partial.insert(dst.0, (t.wrapping_add_signed(i64::from(*imm) << 16), *addr));
                    }
                } else {
                    partial.remove(&dst.0);
                }
            }
            Inst::AddImm16 { dst, src, imm } if partial.contains_key(&src.0) => {
                let (base, first) = partial[&src.0];
                events.push(AddrConstEvent {
                    inst_addr: *addr,
                    reg: *dst,
                    value: base.wrapping_add_signed(i64::from(*imm)),
                    pair_first: Some(first),
                });
                partial.remove(&dst.0);
            }
            Inst::AluImm { op: AluOp::Add, dst, src, imm } if partial.contains_key(&src.0) => {
                let (base, first) = partial[&src.0];
                events.push(AddrConstEvent {
                    inst_addr: *addr,
                    reg: *dst,
                    value: base.wrapping_add_signed(i64::from(*imm)),
                    pair_first: Some(first),
                });
                partial.remove(&dst.0);
            }
            _ => {
                if let Some(d) = inst.def_reg() {
                    partial.remove(&d.0);
                }
            }
        }
    }
    events
}

/// Analyse one function.
#[must_use]
pub fn analyze_function(
    binary: &Binary,
    sym: &Symbol,
    config: &AnalysisConfig,
    boundaries: &BTreeSet<u64>,
) -> FuncCfg {
    let range = (sym.addr, sym.end());
    let mut status = FuncStatus::Ok;

    // Injected whole-function failure.
    if config
        .inject
        .iter()
        .any(|f| matches!(f, InjectedFault::FailFunction { entry } if *entry == sym.addr))
    {
        status = FuncStatus::Failed(AnalysisFailure::Injected);
    }
    // Injected analysis bug: panic mid-analysis. `analyze` catches it
    // at the per-function isolation boundary.
    if config
        .inject
        .iter()
        .any(|f| matches!(f, InjectedFault::PanicFunction { entry } if *entry == sym.addr))
    {
        panic!("injected analysis panic at {:#x}", sym.addr);
    }

    // Landing pads are traversal roots: the language runtime jumps to
    // them.
    let landing_pads: Vec<u64> = binary
        .unwind
        .entries()
        .iter()
        .filter(|e| e.start >= range.0 && e.start < range.1)
        .flat_map(|e| e.call_sites.iter().map(|cs| cs.landing_pad))
        .collect();

    // Watchdog ledger: deterministic work units, plus an optional
    // cooperative wall-clock deadline. An injected stall charges its
    // units up front, so chaos can provoke the budget reproducibly.
    let mut work: u64 = 0;
    for f in &config.inject {
        if let InjectedFault::StallFunction { entry, units } = f {
            if *entry == sym.addr {
                work = work.saturating_add(*units);
            }
        }
    }
    let started = std::time::Instant::now();
    if work > config.max_work_units {
        return failed_func_cfg(
            sym,
            AnalysisFailure::Budget { spent: work, limit: config.max_work_units, wall_clock: false },
        );
    }

    // Iterate traversal + jump-table resolution to a fixpoint.
    let mut extra_starts: Vec<u64> = landing_pads.clone();
    let mut jump_tables = Vec::new();
    let mut failed_jumps: Vec<u64> = Vec::new();
    let mut analyzed_jumps: HashSet<u64> = HashSet::new();
    let mut decode_failure: Option<u64> = None;
    let mut insts;
    // Tables found here extend the caller's set for this function's
    // later slices only; copy it on the first new table, not up front.
    let mut local_boundaries = Cow::Borrowed(boundaries);
    loop {
        if let Some(ms) = config.func_timeout_ms {
            let elapsed = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
            if elapsed > ms {
                return failed_func_cfg(
                    sym,
                    AnalysisFailure::Budget { spent: elapsed, limit: ms, wall_clock: true },
                );
            }
        }
        insts = traverse(binary, sym.addr, range, &extra_starts, Some(&mut decode_failure));
        work = work.saturating_add(insts.len() as u64);
        if work > config.max_work_units {
            return failed_func_cfg(
                sym,
                AnalysisFailure::Budget {
                    spent: work,
                    limit: config.max_work_units,
                    wall_clock: false,
                },
            );
        }
        let pending: Vec<u64> = insts
            .iter()
            .filter(|(_, (i, _))| {
                matches!(i, Inst::JumpReg { .. } | Inst::JumpTar | Inst::JumpMem { .. })
            })
            .map(|(a, _)| *a)
            .filter(|a| !analyzed_jumps.contains(a))
            .collect();
        if pending.is_empty() {
            break;
        }
        let mut progressed = false;
        for jump_addr in pending {
            work = work.saturating_add(config.max_slice_insts as u64);
            if work > config.max_work_units {
                return failed_func_cfg(
                    sym,
                    AnalysisFailure::Budget {
                        spent: work,
                        limit: config.max_work_units,
                        wall_clock: false,
                    },
                );
            }
            analyzed_jumps.insert(jump_addr);
            let ctx = SliceCtx {
                insts: &insts,
                binary,
                toc: binary.toc_base,
                boundaries: &local_boundaries,
                config,
                func_range: range,
            };
            match analyze_jump(&ctx, jump_addr) {
                Ok(mut desc) => {
                    apply_injections(config, &mut desc, &insts, range);
                    if !local_boundaries.contains(&desc.table_addr) {
                        local_boundaries.to_mut().insert(desc.table_addr);
                    }
                    for (_, t) in &desc.targets {
                        extra_starts.push(*t);
                    }
                    jump_tables.push(desc);
                    progressed = true;
                }
                Err(JtFail::NoPattern | JtFail::NoBase | JtFail::NoBound | JtFail::BadTableRead) => {
                    failed_jumps.push(jump_addr);
                }
            }
        }
        if !progressed {
            break;
        }
    }

    // Inline (in-.text) table data ranges.
    let inline_data: Vec<(u64, u64)> = jump_tables
        .iter()
        .filter(|t| t.in_text)
        .map(|t| (t.table_addr, t.table_addr + t.count * u64::from(t.entry_width)))
        .collect();

    // Tail-call heuristics for unresolved indirect jumps.
    let mut indirect_tailcalls = Vec::new();
    let mut unresolved = Vec::new();
    let gaps_ok = gaps_are_benign(binary, &insts, &inline_data, range);
    for jump_addr in failed_jumps {
        let teardown = config.tailcall_teardown_heuristic
            && has_frame_teardown_before(&insts, jump_addr, binary.arch);
        let by_gap = config.tailcall_gap_heuristic && gaps_ok;
        if teardown || by_gap {
            indirect_tailcalls.push(jump_addr);
        } else {
            unresolved.push(jump_addr);
        }
    }
    if status == FuncStatus::Ok {
        if let Some(addr) = decode_failure {
            status = FuncStatus::Failed(AnalysisFailure::DecodeError { addr });
        } else if let Some(j) = unresolved.first() {
            status = FuncStatus::Failed(AnalysisFailure::JumpTableUnresolved { jump_addr: *j });
        }
    }

    // Build blocks.
    let mut leaders: BTreeSet<u64> = BTreeSet::new();
    leaders.insert(sym.addr);
    for lp in &landing_pads {
        leaders.insert(*lp);
    }
    for (addr, (inst, len)) in &insts {
        if let Some(off) = inst.direct_offset() {
            if !inst.is_call() {
                let t = addr.wrapping_add_signed(off);
                if t >= range.0 && t < range.1 {
                    leaders.insert(t);
                }
            }
        }
        if inst.is_control_flow() {
            leaders.insert(addr + u64::from(*len));
        }
    }
    for t in jump_tables.iter().flat_map(|t| t.targets.iter().map(|(_, t)| *t)) {
        leaders.insert(t);
    }

    let mut blocks: BTreeMap<u64, Block> = BTreeMap::new();
    let mut call_sites = Vec::new();
    let mut tail_calls = Vec::new();
    let mut has_indirect_calls = false;
    let mut cur: Option<Block> = None;
    let mut prev_end = 0u64;
    for (addr, (inst, len)) in &insts {
        let len = u64::from(*len);
        // Start a new block at leaders or after a gap.
        let starts_new = cur.is_none() || leaders.contains(addr) || *addr != prev_end;
        if starts_new {
            if let Some(mut b) = cur.take() {
                // Fell through into a leader.
                if b.terminator.is_none() && b.end == *addr {
                    b.succs.push(Edge { target: *addr, kind: EdgeKind::FallThrough });
                }
                blocks.insert(b.start, b);
            }
            cur = Some(Block { start: *addr, end: *addr, terminator: None, succs: Vec::new() });
        }
        let b = cur.as_mut().expect("block in progress");
        b.end = addr + len;
        prev_end = addr + len;
        if inst.is_control_flow() {
            b.terminator = Some(*addr);
            let next = addr + len;
            match inst {
                Inst::Jump { offset } => {
                    let t = addr.wrapping_add_signed(*offset);
                    if t >= range.0 && t < range.1 {
                        b.succs.push(Edge { target: t, kind: EdgeKind::Branch });
                    } else {
                        tail_calls.push((*addr, t));
                    }
                }
                Inst::JumpCond { offset, .. } => {
                    let t = addr.wrapping_add_signed(*offset);
                    if t >= range.0 && t < range.1 {
                        b.succs.push(Edge { target: t, kind: EdgeKind::CondTaken });
                    } else {
                        tail_calls.push((*addr, t));
                    }
                    b.succs.push(Edge { target: next, kind: EdgeKind::FallThrough });
                }
                Inst::Call { offset } => {
                    call_sites.push((*addr, next, Some(addr.wrapping_add_signed(*offset))));
                    b.succs.push(Edge { target: next, kind: EdgeKind::CallFallThrough });
                }
                Inst::CallReg { .. } | Inst::CallMem { .. } | Inst::CallTar => {
                    has_indirect_calls = true;
                    call_sites.push((*addr, next, None));
                    b.succs.push(Edge { target: next, kind: EdgeKind::CallFallThrough });
                }
                Inst::JumpReg { .. } | Inst::JumpTar | Inst::JumpMem { .. } => {
                    if let Some(t) = jump_tables.iter().find(|t| t.jump_addr == *addr) {
                        let mut seen = HashSet::new();
                        for (_, target) in &t.targets {
                            if seen.insert(*target) {
                                b.succs
                                    .push(Edge { target: *target, kind: EdgeKind::JumpTable });
                            }
                        }
                    }
                    // Unresolved: no intra edges (tail call or failure).
                }
                _ => {} // Ret / Halt / Trap: no successors
            }
            let done = std::mem::take(&mut cur).expect("current block");
            blocks.insert(done.start, done);
        }
    }
    if let Some(b) = cur.take() {
        blocks.insert(b.start, b);
    }

    FuncCfg {
        name: sym.name.clone(),
        entry: sym.addr,
        start: range.0,
        end: range.1,
        blocks,
        insts,
        jump_tables,
        indirect_tailcalls,
        tail_calls,
        call_sites,
        landing_pads,
        inline_data,
        has_indirect_calls,
        fp_landing_targets: Vec::new(),
        status,
    }
}

/// §5.1 Failure 1's layout heuristic: decode the function's gaps; a
/// gap that is all `nop` (alignment padding) or empty is benign.
fn gaps_are_benign(
    binary: &Binary,
    insts: &BTreeMap<u64, (Inst, u8)>,
    inline_data: &[(u64, u64)],
    range: (u64, u64),
) -> bool {
    let mut covered: Vec<(u64, u64)> = insts
        .iter()
        .map(|(a, (_, l))| (*a, a + u64::from(*l)))
        .chain(inline_data.iter().copied())
        .collect();
    covered.sort_unstable();
    let mut cursor = range.0;
    let mut gaps: Vec<(u64, u64)> = Vec::new();
    for (s, e) in covered {
        if s > cursor {
            gaps.push((cursor, s));
        }
        cursor = cursor.max(e);
    }
    if cursor < range.1 {
        gaps.push((cursor, range.1));
    }
    for (gs, ge) in gaps {
        let mut a = gs;
        while a < ge {
            let Ok(bytes) = binary.read(a, (ge - a).min(16) as usize) else { return false };
            match decode(bytes, binary.arch) {
                Ok((Inst::Nop, len)) => a += len as u64,
                _ => return false,
            }
        }
    }
    true
}

/// The classic tail-call heuristic: frame teardown (`add sp, sp, N`)
/// shortly before the indirect jump.
fn has_frame_teardown_before(
    insts: &BTreeMap<u64, (Inst, u8)>,
    jump_addr: u64,
    arch: Arch,
) -> bool {
    let sp = arch.sp();
    insts.range(..jump_addr).rev().take(8).any(|(_, (inst, _))| {
        matches!(inst,
            Inst::AluImm { op: AluOp::Add, dst, src, imm }
                if *dst == sp && *src == sp && *imm > 0)
    })
}

/// Apply table-level injected faults.
fn apply_injections(
    config: &AnalysisConfig,
    desc: &mut crate::jumptable::JumpTableDesc,
    insts: &BTreeMap<u64, (Inst, u8)>,
    range: (u64, u64),
) {
    for fault in &config.inject {
        match fault {
            InjectedFault::UnderApproximateTable { jump_addr, drop }
                if *jump_addr == desc.jump_addr =>
            {
                desc.count = desc.count.saturating_sub(*drop);
                desc.targets.retain(|(i, _)| *i < desc.count);
            }
            InjectedFault::OverApproximateTable { jump_addr, extra }
                if *jump_addr == desc.jump_addr =>
            {
                // Fabricate infeasible edges to instruction boundaries
                // that are not already targets.
                let existing: HashSet<u64> = desc.targets.iter().map(|(_, t)| *t).collect();
                let fakes: Vec<u64> = insts
                    .keys()
                    .filter(|a| **a > range.0 && !existing.contains(*a))
                    .take(*extra as usize)
                    .copied()
                    .collect();
                let base_idx = desc.count;
                for (k, t) in fakes.into_iter().enumerate() {
                    desc.targets.push((base_idx + k as u64, t));
                }
                desc.count += extra;
            }
            _ => {}
        }
    }
}
