//! The profiler's bytecode VM: compile a [`flowgraph::Program`] once
//! into a flat register-based instruction stream, then execute it with
//! a non-recursive dispatch loop.
//!
//! The AST walker in [`crate::interp`] re-resolves every name, ticks
//! the step counter through two memory round-trips per expression
//! node, and nests a Rust stack frame per MiniC expression. Profiling
//! dominates `load_suite` and the test suite, so this module performs
//! the classic flattening once per program:
//!
//! - locals become frame-slot indices; globals and string literals
//!   become absolute addresses baked into the code (the static data
//!   image is laid out at compile time, byte-for-byte as
//!   `Interp::load_statics` would);
//! - `switch` becomes a jump table (dense) or a sorted binary search;
//! - `&&`/`||`/`?:` become branches over a per-frame register window;
//! - only the chords of a per-function spanning tree carry an edge
//!   counter (see `place.rs`); block, tree-edge and branch counts are
//!   rebuilt from them after the run, and the `HashMap` of edge counts
//!   is only materialized then;
//! - consecutive step-counter ticks are batched and carried as a
//!   payload on the next control-flow or fallible op wherever no
//!   intervening op can fail or `exit()` (so batching can never
//!   change an observable outcome — see `compile.rs`); a taken CFG
//!   edge is at most one [`Op::EdgeJump`] dispatch that ticks, bumps
//!   the edge's counter if it has one, and jumps.
//!
//! The result of [`compile`] is [`CompiledProgram`]: fully owned,
//! `Send + Sync`, executable concurrently from many threads — one
//! compiled image profiles all of a suite program's inputs in
//! parallel. [`run`] keeps the old `profiler::run` signature (compile,
//! then execute); the AST walker survives as [`crate::run_ast`], the
//! differential-testing oracle, and [`verify`] checks the invariants
//! the dispatch loop's unchecked accesses rest on.

mod compile;
mod exec;
mod place;
mod verify;

pub use exec::{arith, cmp_vals, ExecScratch};
pub use place::{CounterPlan, Peel};
pub use verify::verify;

use crate::interp::{RunConfig, RunOutcome, RuntimeError, TyClass, Value};
use crate::profile::Profile;
use crate::reuse::{NoTap, ReuseCollector};
use flowgraph::{BlockId, Program};
use minic::ast::BinOp;
use minic::builtins::Builtin;
use minic::sema::FuncId;
use obs::hash::{Fnv128, FNV64_OFFSET};
use std::collections::HashMap;
use std::hash::Hash;

/// Sentinel for "no index" in `u32` fields (branch ids, entry points).
pub const NONE32: u32 = u32::MAX;

/// How a binary operator executes, resolved at compile time from the
/// operands' static types (the dynamic float/int split stays in the
/// op, exactly as in `Interp::arith`).
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub enum ArithMode {
    /// A comparison (`< <= > >= == !=`).
    Cmp(BinOp),
    /// `ptr + int` with the left operand the pointer.
    PtrAddL(u32),
    /// `int + ptr` with the right operand the pointer.
    PtrAddR(u32),
    /// `ptr - ptr`, scaled by the element size.
    PtrDiff(u32),
    /// `ptr - int`.
    PtrSubInt(u32),
    /// Plain numeric arithmetic (float or wrapping integer).
    Num(BinOp),
}

impl ArithMode {
    /// Whether executing this mode can raise a runtime error.
    pub fn fallible(self) -> bool {
        matches!(
            self,
            ArithMode::Num(BinOp::Div) | ArithMode::Num(BinOp::Rem)
        )
    }
}

/// One VM instruction. Register operands (`u16`) index the executing
/// frame's register window; `off` fields are word offsets into the
/// frame; `u32` indices point into the dense counter arrays or the
/// side tables of the [`CompiledProgram`]. A counter index of
/// [`NONE32`] means "not counted".
///
/// Every op that ends a tick-batching region carries its own `tick`
/// payload (executed before the op's work), so the hot path pays no
/// separate `Tick` dispatch: a loop iteration is just its eval ops
/// plus one branching op and one [`Op::EdgeJump`].
#[derive(Debug, Clone, Copy, Hash)]
#[allow(missing_docs)] // field names are self-describing; semantics live on the variants
pub enum Op {
    /// `steps += n`, `func_cost[cur] += n`, abort past the limit
    /// (standalone form, used before `Fail`).
    Tick(u32),
    /// `call_site_counts[idx] += 1`.
    BumpSite(u32),
    /// `func_counts[f] += 1` — replicates the counter bump of
    /// `enter()` at an inlined call site (emitted only by the
    /// optimizer; zero cost). The callee's entry-block count is
    /// rebuilt from it.
    BumpFunc(u32),
    /// Bump branch counter `branch` by `taken` — stands in for a
    /// branch the optimizer resolved at compile time (zero cost).
    BumpBranch { branch: u32, taken: bool },
    /// `dst = src` (register move; emitted only by the optimizer for
    /// inlined return values).
    Mov { dst: u16, src: u16 },
    /// `dst = v`.
    Const { dst: u16, v: Value },
    /// `dst = Ptr(address of frame slot off)`.
    LeaLocal { dst: u16, off: u32 },
    /// `dst = stack[fp + off]` (infallible: in-frame).
    LoadLocal { dst: u16, off: u32 },
    /// Fused pair: `dst = stack[fp + off_a]; dst+1 = stack[fp + off_b]`.
    LoadLocal2 { dst: u16, off_a: u32, off_b: u32 },
    /// Fused pair: `dst = stack[fp + off]; dst+1 = Int(imm)`.
    LoadLocalImm { dst: u16, off: u32, imm: i64 },
    /// `stack[fp + off] = conv(class, src)`; `dst` gets the converted value.
    StoreLocal {
        off: u32,
        src: u16,
        class: TyClass,
        dst: u16,
    },
    /// `dst = data[idx]` (infallible: inside the static image).
    LoadGlobal { dst: u16, idx: u32 },
    /// `data[idx] = conv(class, src)`; `dst` gets the converted value.
    StoreGlobal {
        idx: u32,
        src: u16,
        class: TyClass,
        dst: u16,
    },
    /// `dst = mem[src.to_ptr()]` (fallible).
    Load { dst: u16, addr: u16, tick: u32 },
    /// `mem[addr.to_ptr()] = conv(class, src)`; `dst` converted value.
    Store {
        addr: u16,
        src: u16,
        class: TyClass,
        dst: u16,
        tick: u32,
    },
    /// Word-wise copy; `dst` gets `Ptr(dst_addr)` (aggregate assignment).
    CopyWords {
        dst_addr: u16,
        src: u16,
        n: u32,
        dst: u16,
        tick: u32,
    },
    /// Copy a precompiled image into the frame (`char s[] = "..."`).
    InitWordsLocal { off: u32, img: u32 },
    /// Zero `len` frame words at `off`.
    ZeroLocal { off: u32, len: u32 },
    /// `dst = Ptr(src.to_ptr())`.
    ToPtr { dst: u16, src: u16 },
    /// `dst = Int(src.truthy())`.
    Bool { dst: u16, src: u16 },
    /// `dst = Int(!src.truthy())`.
    LogicNot { dst: u16, src: u16 },
    /// Arithmetic negation, preserving floatness.
    Neg { dst: u16, src: u16 },
    /// `dst = Int(!src.to_int())`.
    BitNot { dst: u16, src: u16 },
    /// `dst = convert_for_class(class, src)` (casts).
    Conv { dst: u16, src: u16, class: TyClass },
    /// `dst = Ptr(base.to_ptr() + idx.to_int() * elem)`.
    IndexAddr {
        dst: u16,
        base: u16,
        idx: u16,
        elem: u32,
    },
    /// `IndexAddr` over two fused local loads (pointer var + index).
    IndexAddrLL {
        dst: u16,
        off_a: u32,
        off_b: u32,
        elem: u32,
    },
    /// `IndexAddr` with a compile-time base (global array decay).
    IndexAddrPL {
        dst: u16,
        base: u64,
        idx_off: u32,
        elem: u32,
    },
    /// `IndexAddr` into a frame-local array (`LeaLocal` base).
    IndexAddrLeaL {
        dst: u16,
        lea_off: u32,
        idx_off: u32,
        elem: u32,
    },
    /// Fused `IndexAddr` + `Load` (fallible array read).
    LoadIdx {
        dst: u16,
        base: u16,
        idx: u16,
        elem: u32,
        tick: u32,
    },
    /// `LoadIdx` over two fused local loads.
    LoadIdxLL {
        dst: u16,
        off_a: u32,
        off_b: u32,
        elem: u32,
        tick: u32,
    },
    /// `LoadIdx` with a compile-time base (global array read).
    LoadIdxPL {
        dst: u16,
        base: u64,
        idx_off: u32,
        elem: u32,
        tick: u32,
    },
    /// `LoadIdx` into a frame-local array.
    LoadIdxLeaL {
        dst: u16,
        lea_off: u32,
        idx_off: u32,
        elem: u32,
        tick: u32,
    },
    /// `dst = Ptr(src.to_ptr() + off)`, failing on NULL base.
    MemberAddr {
        dst: u16,
        src: u16,
        off: u32,
        tick: u32,
    },
    /// `++`/`--` on a frame slot (infallible).
    IncDecLocal {
        dst: u16,
        off: u32,
        delta: i64,
        post: bool,
    },
    /// `++`/`--` on a static-image slot (infallible).
    IncDecGlobal {
        dst: u16,
        idx: u32,
        delta: i64,
        post: bool,
    },
    /// `++`/`--` through a pointer register (fallible).
    IncDec {
        dst: u16,
        addr: u16,
        delta: i64,
        post: bool,
        tick: u32,
    },
    /// `dst = a <mode> b` (`tick` nonzero only for fallible modes).
    Arith {
        dst: u16,
        a: u16,
        b: u16,
        mode: ArithMode,
        tick: u32,
    },
    /// `dst = stack[fp+off_a] <mode> stack[fp+off_b]` (fused loads).
    ArithLL {
        dst: u16,
        off_a: u32,
        off_b: u32,
        mode: ArithMode,
        tick: u32,
    },
    /// `dst = stack[fp+off] <mode> Int(imm)`.
    ArithLI {
        dst: u16,
        off: u32,
        imm: i32,
        mode: ArithMode,
        tick: u32,
    },
    /// `dst = dst <mode> stack[fp+off]` (rhs load fused).
    ArithRL {
        dst: u16,
        off: u32,
        mode: ArithMode,
        tick: u32,
    },
    /// `dst = dst <mode> Int(imm)` (rhs constant fused).
    ArithRI {
        dst: u16,
        imm: i32,
        mode: ArithMode,
        tick: u32,
    },
    /// `Arith` + `StoreLocal` fused: compute `a <mode> b`, convert
    /// for `class`, store to frame slot `off` *and* register `dst`
    /// (the assignment's value — kept live for nested assignments).
    StoreRR {
        off: u32,
        a: u16,
        b: u16,
        mode: ArithMode,
        class: TyClass,
        dst: u16,
    },
    /// `ArithLL` + `StoreLocal` fused.
    StoreLL {
        off: u32,
        off_a: u32,
        off_b: u32,
        mode: ArithMode,
        class: TyClass,
        dst: u16,
    },
    /// `ArithLI` + `StoreLocal` fused.
    StoreLI {
        off: u32,
        off_a: u32,
        imm: i32,
        mode: ArithMode,
        class: TyClass,
        dst: u16,
    },
    /// `ArithRL` + `StoreLocal` fused.
    StoreRL {
        off: u32,
        off_b: u32,
        mode: ArithMode,
        class: TyClass,
        dst: u16,
    },
    /// `ArithRI` + `StoreLocal` fused.
    StoreRI {
        off: u32,
        imm: i32,
        mode: ArithMode,
        class: TyClass,
        dst: u16,
    },
    /// Compound assignment on a frame slot.
    RmwLocal {
        off: u32,
        src: u16,
        mode: ArithMode,
        class: TyClass,
        dst: u16,
        tick: u32,
    },
    /// Compound assignment on a static-image slot.
    RmwGlobal {
        idx: u32,
        src: u16,
        mode: ArithMode,
        class: TyClass,
        dst: u16,
        tick: u32,
    },
    /// Compound assignment through a pointer register (fallible).
    Rmw {
        addr: u16,
        src: u16,
        mode: ArithMode,
        class: TyClass,
        dst: u16,
        tick: u32,
    },
    /// Unconditional jump.
    Jump { target: u32, tick: u32 },
    /// Jump when `src` is falsy.
    JumpIfFalse { src: u16, target: u32, tick: u32 },
    /// Jump when `src` is truthy.
    JumpIfTrue { src: u16, target: u32, tick: u32 },
    /// Two-way branch: bump branch counter `branch` (unless `NONE32`)
    /// by truthiness, fall through when true, jump when false. A CFG
    /// branch counts only when both arms reach the same block — its
    /// counts otherwise follow from its out-edges.
    CondBranch {
        src: u16,
        branch: u32,
        else_target: u32,
        tick: u32,
    },
    /// Fused compare-and-branch over two frame slots (the dominant
    /// loop-header shape: `LoadLocal2` + `Arith(Cmp)` + `CondBranch`).
    /// The comparison result register is dead (every later read is
    /// preceded by a write — see `compile.rs`), so none is written.
    CmpBranchLL {
        off_a: u32,
        off_b: u32,
        op: BinOp,
        branch: u32,
        else_target: u32,
        tick: u32,
    },
    /// Compare a frame slot against an immediate, then branch.
    CmpBranchLI {
        off: u32,
        imm: i32,
        op: BinOp,
        branch: u32,
        else_target: u32,
        tick: u32,
    },
    /// Compare two registers, then branch.
    CmpBranchRR {
        a: u16,
        b: u16,
        op: BinOp,
        branch: u32,
        else_target: u32,
        tick: u32,
    },
    /// Compare register `a` against a frame slot, then branch.
    CmpBranchRL {
        a: u16,
        off: u32,
        op: BinOp,
        branch: u32,
        else_target: u32,
        tick: u32,
    },
    /// Compare register `a` against an immediate, then branch.
    CmpBranchRI {
        a: u16,
        imm: i32,
        op: BinOp,
        branch: u32,
        else_target: u32,
        tick: u32,
    },
    /// Multi-way jump through `switch_tables[table]` on `src.to_int()`.
    SwitchJump { src: u16, table: u32, tick: u32 },
    /// The fused CFG transition: tick, bump edge counter `edge`
    /// (unless `NONE32` — a spanning-tree edge), then jump to the
    /// target block. One dispatch per taken CFG edge instead of
    /// Tick + BumpEdge + Jump.
    EdgeJump { edge: u32, target: u32, tick: u32 },
    /// Fail with `NotAFunction` unless `src` is a function value.
    CheckFn { src: u16, tick: u32 },
    /// Call a defined user function.
    CallDirect {
        func: u32,
        argbase: u16,
        nargs: u16,
        dst: u16,
        tick: u32,
    },
    /// Call through the function value in `callee`.
    CallIndirect {
        callee: u16,
        argbase: u16,
        nargs: u16,
        dst: u16,
        tick: u32,
    },
    /// Call a builtin shim.
    CallBuiltin {
        b: Builtin,
        argbase: u16,
        nargs: u16,
        dst: u16,
        tick: u32,
    },
    /// Return `src` to the caller (or halt if this is `main`).
    Ret { src: u16, tick: u32 },
    /// Abort the run with `fails[idx]`.
    Fail(u32),

    // ----- mined superinstructions -----
    // Fused forms of the op digrams measured hottest across the
    // benchmark suite under estimator block frequencies (the `opt`
    // crate's miner synthesizes them; the VM emitter never does).
    // Each charges one dispatch tick where its source pair charged
    // two, and replicates the pair's counter bumps exactly.
    /// `Const{dst, Int(imm)}` then `Jump{target}`.
    ConstJump {
        dst: u16,
        imm: i32,
        target: u32,
        tick: u32,
    },
    /// `Const{src, Int(imm)}` then `Ret{src}` — the register write is
    /// dead past the return and dropped.
    ConstRet { imm: i32, tick: u32 },
    /// `StoreLocal{off, src, class, dst: src}` then `EdgeJump`.
    StoreLEdge {
        off: u32,
        src: u16,
        class: TyClass,
        edge: u32,
        target: u32,
        tick: u32,
    },
    /// Pre-increment `IncDecLocal{dst, off, delta, post: false}` then
    /// `EdgeJump` (the classic loop latch).
    IncDecLEdge {
        off: u32,
        dst: u16,
        delta: i8,
        edge: u32,
        target: u32,
        tick: u32,
    },
    /// `LoadLocal{dst, off}` then `CondBranch{src: dst, ..}`.
    LoadLBranch {
        off: u32,
        dst: u16,
        branch: u32,
        else_target: u32,
        tick: u32,
    },
    /// `LoadGlobal{dst, idx}` then `ArithRI{dst, imm, mode}`.
    ArithGI {
        dst: u16,
        idx: u32,
        imm: i32,
        mode: ArithMode,
        tick: u32,
    },
    /// `Const{dst, Int(imm)}` then `CmpBranchRR{a, b: dst, ..}` — the
    /// constant write is preserved (later code may read it).
    CmpBranchRCI {
        a: u16,
        dst: u16,
        imm: i32,
        op: BinOp,
        branch: u32,
        else_target: u32,
        tick: u32,
    },
    /// `ArithRL{dst, off, mode}` then `JumpIfFalse{src: dst, target}`.
    ArithRLJumpF {
        dst: u16,
        off: u32,
        mode: ArithMode,
        target: u32,
        tick: u32,
    },
    /// `LoadLocal{dst, off}` then `LoadIdx{dst, base: dst, idx, elem}`
    /// with `idx != dst` — an array load through a local pointer.
    LoadIdxLR {
        dst: u16,
        off: u32,
        idx: u16,
        elem: u32,
        tick: u32,
    },
}

impl Op {
    /// Applies `f` to every jump-target field of the op. `SwitchJump`
    /// targets live in its side table.
    pub fn for_each_target(&mut self, mut f: impl FnMut(&mut u32)) {
        match self {
            Op::Jump { target, .. }
            | Op::JumpIfFalse { target, .. }
            | Op::JumpIfTrue { target, .. }
            | Op::EdgeJump { target, .. }
            | Op::ConstJump { target, .. }
            | Op::StoreLEdge { target, .. }
            | Op::IncDecLEdge { target, .. }
            | Op::ArithRLJumpF { target, .. } => f(target),
            Op::CondBranch { else_target, .. }
            | Op::CmpBranchLL { else_target, .. }
            | Op::CmpBranchLI { else_target, .. }
            | Op::CmpBranchRR { else_target, .. }
            | Op::CmpBranchRL { else_target, .. }
            | Op::CmpBranchRI { else_target, .. }
            | Op::LoadLBranch { else_target, .. }
            | Op::CmpBranchRCI { else_target, .. } => f(else_target),
            _ => {}
        }
    }

    /// Whether the op unconditionally transfers control: execution
    /// never falls through to the next op.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Op::Jump { .. }
                | Op::SwitchJump { .. }
                | Op::EdgeJump { .. }
                | Op::Ret { .. }
                | Op::Fail(_)
                | Op::ConstJump { .. }
                | Op::ConstRet { .. }
                | Op::StoreLEdge { .. }
                | Op::IncDecLEdge { .. }
        )
    }
}

/// A `switch` lowered at compile time. Case values are deduplicated
/// keeping the first occurrence, so both lookup shapes agree with the
/// interpreter's linear first-match scan.
#[derive(Debug, Clone, Hash)]
#[allow(missing_docs)] // field names are self-describing; semantics live on the variants
pub enum SwitchTable {
    /// Compact value range: `targets[v - min]`, `NONE32` = default.
    Dense {
        min: i64,
        targets: Vec<u32>,
        default: u32,
    },
    /// Sparse values: binary search over sorted keys.
    Sorted {
        keys: Vec<i64>,
        targets: Vec<u32>,
        default: u32,
    },
}

/// How one parameter is bound on function entry.
#[derive(Debug, Clone, Copy, Hash)]
#[allow(missing_docs)] // field names are self-describing; semantics live on the variants
pub enum ParamBind {
    /// Scalar: convert for the declared type and store into the frame.
    Scalar { off: u32, class: TyClass },
    /// Aggregate: copy `size` words from the argument pointer.
    Agg { off: u32, size: u32 },
}

/// Per-function compiled metadata.
#[derive(Debug, Clone, Hash)]
pub struct FuncMeta {
    /// Entry pc, or [`NONE32`] for bodiless prototypes.
    pub entry: u32,
    /// Frame size in words.
    pub frame_size: u32,
    /// Register-window size.
    pub max_regs: u32,
    /// Parameter bindings, in order.
    pub params: Vec<ParamBind>,
    /// Function name (for `Undefined` errors).
    pub name: String,
    /// The function's contiguous op range `[start, end)` in
    /// [`CompiledProgram::ops`] (`(0, 0)` for bodiless prototypes).
    /// All control flow is intra-function, so this range is closed
    /// under jumps — the optimizer lifts and relocates it wholesale.
    pub code: (u32, u32),
    /// Per-CFG-block start pc (indexed by `BlockId`, ascending), so
    /// the optimizer and `exit()` can map ops back to flowgraph
    /// blocks. Empty for optimized code, which uses [`Self::origins`].
    pub block_pc: Vec<u32>,
    /// The zero-tick edge stubs the compiler left out because their
    /// edge carries no counter, as `(pc, target block)` in stream
    /// order: each stood just before the op now at `pc`. The
    /// optimizer puts them back, so its cost model sees the fully
    /// instrumented op stream.
    pub elided: Vec<(u32, u32)>,
    /// Provenance of optimized code: `(start pc, origin index)` per
    /// relocated chunk, ascending by pc, indexing [`Self::origins`].
    pub origin_pc: Vec<(u32, u32)>,
    /// The blocks optimized code came from; see [`Origin`].
    pub origins: Vec<Origin>,
}

/// The flowgraph block a run of optimized code came from. Code the
/// optimizer inlined also names the block of the call site it was
/// spliced into, so an `exit()` inside it can book a departure for
/// every activation the unoptimized program would have had live.
#[derive(Debug, Clone, Copy, Hash, PartialEq, Eq)]
pub struct Origin {
    /// The function the block belongs to.
    pub func: u32,
    /// The block.
    pub block: u32,
    /// Index of the calling block's origin, or [`NONE32`].
    pub caller: u32,
}

impl FuncMeta {
    /// Appends the `(function, block)` of every activation live at
    /// `pc` in this function — one, or one per inlining level — from
    /// the innermost out. `f` is this function's id.
    pub fn blocks_at(&self, f: u32, pc: u32, out: &mut Vec<(u32, u32)>) {
        if self.origin_pc.is_empty() {
            let b = self.block_pc.partition_point(|&p| p <= pc);
            out.push((f, b.saturating_sub(1) as u32));
            return;
        }
        let i = self.origin_pc.partition_point(|&(p, _)| p <= pc);
        let mut o = self.origin_pc[i.saturating_sub(1)].1;
        while o != NONE32 {
            let origin = self.origins[o as usize];
            out.push((origin.func, origin.block));
            o = origin.caller;
        }
    }
}

/// A program lowered to bytecode: fully owned and `Send + Sync`, so
/// one compiled image can profile many inputs on concurrent threads.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The flat instruction stream, all functions concatenated.
    pub ops: Vec<Op>,
    /// Per-function metadata, indexed by `FuncId`.
    pub funcs: Vec<FuncMeta>,
    /// `main`'s id, if the program defines one.
    pub main: Option<FuncId>,
    /// Lowered `switch` lookup tables.
    pub switch_tables: Vec<SwitchTable>,
    /// Precompiled local initializer images (`InitStr` word arrays).
    pub images: Vec<Vec<Value>>,
    /// Interned runtime errors for `Op::Fail`.
    pub fails: Vec<RuntimeError>,
    /// The static data segment (globals + string literals), laid out
    /// exactly as the AST interpreter's `load_statics`.
    pub data_image: Vec<Value>,
    /// Block count per function.
    pub block_lens: Vec<u32>,
    /// Dense edge-counter keys, parallel to the runtime counter array
    /// (each function's edges are contiguous).
    pub edge_keys: Vec<(FuncId, BlockId, BlockId)>,
    /// Per-function counter placement (default for prototypes): how
    /// block, edge and branch counts are rebuilt after a run.
    pub counters: Vec<CounterPlan>,
    /// Number of registered branch sites.
    pub n_branches: usize,
    /// Number of registered call sites.
    pub n_sites: usize,
}

impl CompiledProgram {
    /// Executes the compiled program on one input.
    ///
    /// Observably identical to [`crate::run_ast`] on the same
    /// program: same exit code, output, step count, profile, and
    /// error — the proptest oracle in `tests/vm_oracle.rs` checks
    /// profile-for-profile equality on random programs.
    ///
    /// `scratch` holds the VM's reusable buffers: drivers that execute
    /// many programs or inputs back-to-back keep one [`ExecScratch`]
    /// per worker and skip the per-run stack / register / counter
    /// allocations; one-shot callers pass `&mut ExecScratch::default()`.
    ///
    /// With `trace`, every *data-segment* access (globals, string
    /// literals, `malloc` storage — never VM stack traffic) also feeds
    /// the exact reuse-distance collector; [`ReuseCollector::finish`]
    /// yields the trace. The tap is a monomorphized generic and both
    /// instantiations are compiled here, so the untraced dispatch loop
    /// stays probe-free; the traced one additionally uses *checked*
    /// register/frame/data indexing, so a trace of a buggy program
    /// fails deterministically instead of reading garbage. Tracing
    /// observes memory traffic and changes no frequency counter: the
    /// outcome is identical either way.
    ///
    /// # Errors
    ///
    /// Returns the same [`RuntimeError`]s the AST interpreter would;
    /// a traced run can also report out-of-stream program-counter
    /// errors that the unchecked build would turn into UB.
    pub fn execute(
        &self,
        config: &RunConfig,
        scratch: &mut ExecScratch,
        trace: Option<&mut ReuseCollector>,
    ) -> Result<RunOutcome, RuntimeError> {
        // One span per run; the dispatch loop itself is never probed —
        // step totals and the counter ledger are read off the outcome
        // after the fact.
        let _sp = obs::span("profiler.execute");
        let (out, traced) = match trace {
            None => (exec::execute(self, config, scratch, &mut NoTap), None),
            Some(tap) => {
                let before = tap.events;
                let out = exec::execute(self, config, scratch, &mut *tap);
                (out, Some(tap.events - before))
            }
        };
        if obs::enabled() {
            obs::counter_add("profiler.runs", 1);
            if let Ok(o) = &out {
                obs::counter_add("profiler.steps", o.steps);
            }
            if let Some(accesses) = traced {
                obs::counter_add("reuse.traced_runs", 1);
                obs::counter_add("reuse.traced_accesses", accesses);
            }
        }
        out
    }

    /// 128-bit fingerprint of the post-fold IR: everything execution
    /// reads (ops, function metadata, switch tables, data image,
    /// initializer images). Two programs with the same fingerprint
    /// are observationally identical on every input, so corpus
    /// deduplication counts them once.
    ///
    /// Unlike the process-local compile-cache fingerprint, this one
    /// hashes the IR structurally with the workspace's fixed
    /// [`obs::hash::Fnv128`] (floats by their bit patterns), so it is
    /// stable across processes and runs.
    pub fn ir_fingerprint(&self) -> u128 {
        let mut h = Fnv128::with_basis(FNV64_OFFSET ^ 0x9E37_79B9_7F4A_7C15);
        self.ops.hash(&mut h);
        self.funcs.hash(&mut h);
        self.main.hash(&mut h);
        self.switch_tables.hash(&mut h);
        self.images.hash(&mut h);
        self.data_image.hash(&mut h);
        self.counters.hash(&mut h);
        h.digest()
    }

    /// Summary sizes of the compiled image: `(ops, funcs, blocks,
    /// data words)`. Exposed so the artifact cache can persist
    /// bytecode metadata without reaching into `pub(crate)` fields.
    pub fn image_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.ops.len() as u64,
            self.funcs.len() as u64,
            self.block_lens.iter().map(|&n| u64::from(n)).sum(),
            self.data_image.len() as u64,
        )
    }

    /// An all-zero profile shaped like this program's.
    pub fn empty_profile(&self) -> Profile {
        Profile {
            block_counts: self
                .block_lens
                .iter()
                .map(|&n| vec![0; n as usize])
                .collect(),
            branch_counts: vec![(0, 0); self.n_branches],
            call_site_counts: vec![0; self.n_sites],
            func_counts: vec![0; self.funcs.len()],
            edge_counts: HashMap::new(),
            func_cost: vec![0; self.funcs.len()],
        }
    }
}

/// Compiles a program to bytecode. Compilation is a single linear
/// pass per CFG plus one spanning-tree build; the suite compiles in
/// well under a millisecond per program.
pub fn compile(program: &Program) -> CompiledProgram {
    let _sp = obs::span("profiler.compile");
    let cp = compile::compile(program);
    if cfg!(debug_assertions) {
        if let Err(e) = verify(&cp) {
            panic!("compiler emitted invalid bytecode: {e}");
        }
    }
    cp
}

/// Compiles `program`, then runs `main` on the bytecode VM and
/// collects a profile. Callers that run one program on many inputs
/// should [`compile`] once and [`CompiledProgram::execute`] per input.
///
/// # Errors
///
/// Returns a [`RuntimeError`] on any dynamic error, exactly as
/// [`crate::run_ast`] would.
///
/// # Examples
///
/// ```
/// use profiler::{run, RunConfig};
///
/// let module = minic::compile(r#"
///     int main(void) {
///         int i, s = 0;
///         for (i = 0; i < 10; i++) s += i;
///         printf("%d\n", s);
///         return 0;
///     }
/// "#).unwrap();
/// let program = flowgraph::build_program(module);
/// let out = run(&program, &RunConfig::default()).unwrap();
/// assert_eq!(out.stdout(), "45\n");
/// assert_eq!(out.exit_code, 0);
/// ```
pub fn run(program: &Program, config: &RunConfig) -> Result<RunOutcome, RuntimeError> {
    compile(program).execute(config, &mut ExecScratch::default(), None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_program_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledProgram>();
    }

    #[test]
    fn ops_stay_small() {
        // The dispatch loop streams these; keep them cache-friendly.
        assert!(
            std::mem::size_of::<Op>() <= 24,
            "{}",
            std::mem::size_of::<Op>()
        );
    }
}
