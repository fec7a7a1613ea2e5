#![warn(missing_docs)]
//! Binary analysis: disassembly, CFG construction, and the indirect
//! control-flow analyses the rewriter builds on.
//!
//! The paper's central reliability argument (§4.3, Figure 2) is that a
//! rewriter must be engineered around *analysis failure modes*:
//!
//! * **analysis reporting failure** — this crate reports per-function
//!   [`AnalysisFailure`]s instead of guessing; the rewriter then skips
//!   the function (partial instrumentation, lower coverage);
//! * **over-approximation** — jump-table bound extension
//!   ([`AnalysisConfig::table_end_extension`]) deliberately
//!   over-approximates rather than under-approximates table sizes;
//!   over-approximated edges only waste trampolines;
//! * **under-approximation** — the one catastrophic failure class; the
//!   [`inject`](AnalysisConfig::inject) hooks let the evaluation
//!   harness create each failure class on purpose and measure its
//!   blast radius (the Figure 2 experiment).
//!
//! Analyses implemented:
//!
//! * control-flow traversal disassembly with block splitting
//!   ([`analyze_function`]);
//! * **jump-table analysis** by backward slicing from indirect jumps —
//!   table base materialisation (x64 `lea`/`mov`, ppc64le TOC pairs,
//!   aarch64 `adrp` pairs), entry width/kind recovery, bound inference
//!   from `cmp`/`ja` pairs, optional stack-spill tracking, and
//!   table-end extension to the nearest known data boundary;
//! * **indirect tail-call identification** via the paper's new
//!   function-layout gap heuristic (decode the gaps; all-nop or no
//!   gaps ⇒ the unresolved jump is a tail call) next to the classic
//!   frame-teardown heuristic used by older rewriters;
//! * **function-pointer analysis** (relocation-based plus code-based
//!   materialisation with forward slicing for `&f + delta` arithmetic,
//!   the Go `runtime.goexit+1` pattern of Listing 1);
//! * **register liveness** for scratch-register selection in long
//!   trampolines (§7).

mod analysis;
mod block;
mod funcptr;
mod jumptable;
mod liveness;
mod spans;

pub use analysis::{
    analyze, analyze_function, analyze_function_isolated, assemble_analysis, prepass_boundaries,
    AddrConstEvent, AnalysisConfig, AnalysisFailure, BinaryAnalysis, FuncStatus, InjectedFault,
};
pub use block::{Block, Edge, EdgeKind, FuncCfg};
pub use funcptr::{FpDef, FpDefSite, FpEvidence};
pub use jumptable::{BoundEvidence, JumpTableDesc, TableKind};
pub use liveness::{live_in_at_blocks, LivenessResult};
pub use spans::SpanIndex;
