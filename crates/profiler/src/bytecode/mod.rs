//! The profiler's bytecode VM: compile a [`flowgraph::Program`] once
//! into a flat register-based instruction stream, then execute it with
//! a non-recursive dispatch loop.
//!
//! The AST walker behind [`crate::run_ast`] re-resolves every name, ticks
//! the step counter through two memory round-trips per expression
//! node, and nests a Rust stack frame per MiniC expression. Profiling
//! dominates `load_suite` and the test suite, so this module performs
//! the classic flattening once per program:
//!
//! - locals become frame-slot indices; globals and string literals
//!   become absolute addresses baked into the code (the static data
//!   image is laid out at compile time by the runtime's one layout,
//!   the same the walker loads);
//! - `switch` becomes a jump table (dense) or a sorted binary search;
//! - `&&`/`||`/`?:` become branches over a per-frame register window;
//! - only the chords of a per-function spanning tree carry an edge
//!   counter (see `place.rs`); block, tree-edge and branch counts are
//!   rebuilt from them after the run into the profile's dense
//!   per-function edge rows, indexed by the CFG's edge numbering;
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
//! differential-testing oracle. [`verify`] checks the invariants the
//! dispatch loop's unchecked accesses rest on, and
//! [`CompiledProgram::new`], the one way to build an image the VM
//! runs, runs it on the plain [`Parts`] that both producers emit.

mod compile;
mod exec;
mod fuse;
mod place;
mod verify;

pub use exec::{arith, cmp_vals};
pub use fuse::fuse_pair;
pub use place::{CounterPlan, Peel};
pub use verify::verify;

use crate::reuse::{NoTap, ReuseCollector};
use crate::runtime::{RunConfig, RunOutcome, RuntimeError, TyClass, Value};
use flowgraph::{BlockId, Program};
use minic::ast::BinOp;
use minic::builtins::Builtin;
use minic::sema::FuncId;
use obs::hash::WordHash;
use std::hash::{Hash, Hasher};

/// Sentinel for "no index" in `u32` fields (branch ids, entry points).
pub const NONE32: u32 = u32::MAX;

/// How a binary operator executes, resolved at compile time from the
/// operands' static types (the dynamic float/int split stays in the
/// op, exactly as in the walker's `arith`).
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
#[derive(Debug, Clone, Copy)]
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
}

/// One classified field of an [`Op`], as [`Op::fields`] hands it out.
///
/// Registers are `u16` indices into the frame's register window,
/// frame offsets `u32` word offsets into the frame. Fields that look
/// like offsets but are not frame-relative — [`Op::MemberAddr`]'s
/// struct-member offset, the absolute data addresses of
/// [`Op::IndexAddrPL`]/[`Op::LoadIdxPL`] — and immediates, modes,
/// element sizes and lengths are not fields in this sense and are
/// never handed out.
#[derive(Debug)]
pub enum Field<'a> {
    /// A register the op reads.
    Read(&'a mut u16),
    /// A register the op writes (always, when it succeeds).
    Write(&'a mut u16),
    /// A register the op reads, then overwrites.
    ReadWrite(&'a mut u16),
    /// The first of two consecutive registers the op writes.
    WritePair(&'a mut u16),
    /// The argument registers `base .. base + n`, all read.
    Args(&'a mut u16, u16),
    /// A frame-slot offset.
    Frame(&'a mut u32),
    /// A jump target: a pc, or a chunk id inside the optimizer.
    /// `SwitchJump`'s targets live in its [`SwitchTable`].
    Target(&'a mut u32),
    /// A batched step-counter payload.
    Tick(&'a mut u32),
    /// An index into one of the program's side tables.
    Index(Table, &'a mut u32),
}

/// The side table an [`Field::Index`] points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// A call-site counter.
    Site,
    /// A function counter.
    Func,
    /// The function a direct call enters; it must have a body.
    Callee,
    /// A branch counter, or [`NONE32`] for none.
    Branch,
    /// An edge counter, or [`NONE32`] for none.
    Edge,
    /// A word of the static data image.
    Data,
    /// A local initializer image.
    Image,
    /// An interned runtime error.
    Fail,
    /// A switch table.
    Switch,
}

impl Op {
    /// Hands every register, frame-offset, jump-target, tick and
    /// side-table field of the op to `f`, classified. This is the one
    /// description of the op's fields: the verifier checks them, the
    /// optimizer rebases them when it inlines, and its folding and
    /// dead-code passes read their register effects from it. The
    /// match is exhaustive with no wildcard arm (clippy denies one) and
    /// every pattern names every field, the unclassified ones as `_`,
    /// so neither a new op nor a new field can be skipped unseen.
    #[deny(
        clippy::wildcard_enum_match_arm,
        clippy::match_wildcard_for_single_variants
    )]
    #[rustfmt::skip] // one row per op
    pub fn fields(&mut self, mut f: impl FnMut(Field<'_>)) {
        use Field::*;
        use Table::*;
        macro_rules! row {
            ($($field:expr),*) => {{ $(f($field);)* }};
        }
        match self {
            Op::Tick(n) => row!(Tick(n)),
            Op::BumpSite(i) => row!(Index(Site, i)),
            Op::BumpFunc(i) => row!(Index(Func, i)),
            Op::BumpBranch { branch, taken: _ } => row!(Index(Branch, branch)),
            Op::Const { dst, v: _ } => row!(Write(dst)),
            Op::LeaLocal { dst, off } => row!(Write(dst), Frame(off)),
            Op::LoadLocal { dst, off } => row!(Write(dst), Frame(off)),
            Op::LoadLocal2 { dst, off_a, off_b } => {
                row!(WritePair(dst), Frame(off_a), Frame(off_b))
            }
            Op::LoadLocalImm { dst, off, imm: _ } => row!(WritePair(dst), Frame(off)),
            Op::StoreLocal { off, src, class: _, dst } => row!(Frame(off), Read(src), Write(dst)),
            Op::LoadGlobal { dst, idx } => row!(Write(dst), Index(Data, idx)),
            Op::StoreGlobal { idx, src, class: _, dst } => {
                row!(Index(Data, idx), Read(src), Write(dst))
            }
            Op::Load { dst, addr, tick } => row!(Read(addr), Write(dst), Tick(tick)),
            Op::Store { addr, src, class: _, dst, tick } => {
                row!(Read(addr), Read(src), Write(dst), Tick(tick))
            }
            Op::CopyWords { dst_addr, src, n: _, dst, tick } => {
                row!(Read(dst_addr), Read(src), Write(dst), Tick(tick))
            }
            Op::InitWordsLocal { off, img } => row!(Frame(off), Index(Image, img)),
            Op::ZeroLocal { off, len: _ } => row!(Frame(off)),
            Op::ToPtr { dst, src } => row!(Read(src), Write(dst)),
            Op::Bool { dst, src } => row!(Read(src), Write(dst)),
            Op::LogicNot { dst, src } => row!(Read(src), Write(dst)),
            Op::Neg { dst, src } => row!(Read(src), Write(dst)),
            Op::BitNot { dst, src } => row!(Read(src), Write(dst)),
            Op::Conv { dst, src, class: _ } => row!(Read(src), Write(dst)),
            Op::IndexAddr { dst, base, idx, elem: _ } => row!(Read(base), Read(idx), Write(dst)),
            Op::IndexAddrLL { dst, off_a, off_b, elem: _ } => {
                row!(Write(dst), Frame(off_a), Frame(off_b))
            }
            Op::IndexAddrPL { dst, base: _, idx_off, elem: _ } => row!(Write(dst), Frame(idx_off)),
            Op::IndexAddrLeaL { dst, lea_off, idx_off, elem: _ } => {
                row!(Write(dst), Frame(lea_off), Frame(idx_off))
            }
            Op::LoadIdx { dst, base, idx, elem: _, tick } => {
                row!(Read(base), Read(idx), Write(dst), Tick(tick))
            }
            Op::LoadIdxLL { dst, off_a, off_b, elem: _, tick } => {
                row!(Write(dst), Frame(off_a), Frame(off_b), Tick(tick))
            }
            Op::LoadIdxPL { dst, base: _, idx_off, elem: _, tick } => {
                row!(Write(dst), Frame(idx_off), Tick(tick))
            }
            Op::LoadIdxLeaL { dst, lea_off, idx_off, elem: _, tick } => {
                row!(Write(dst), Frame(lea_off), Frame(idx_off), Tick(tick))
            }
            Op::MemberAddr { dst, src, off: _, tick } => row!(Read(src), Write(dst), Tick(tick)),
            Op::IncDecLocal { dst, off, delta: _, post: _ } => row!(Write(dst), Frame(off)),
            Op::IncDecGlobal { dst, idx, delta: _, post: _ } => row!(Write(dst), Index(Data, idx)),
            Op::IncDec { dst, addr, delta: _, post: _, tick } => {
                row!(Read(addr), Write(dst), Tick(tick))
            }
            Op::Arith { dst, a, b, mode: _, tick } => {
                row!(Read(a), Read(b), Write(dst), Tick(tick))
            }
            Op::ArithLL { dst, off_a, off_b, mode: _, tick } => {
                row!(Write(dst), Frame(off_a), Frame(off_b), Tick(tick))
            }
            Op::ArithLI { dst, off, imm: _, mode: _, tick } => {
                row!(Write(dst), Frame(off), Tick(tick))
            }
            Op::ArithRL { dst, off, mode: _, tick } => row!(ReadWrite(dst), Frame(off), Tick(tick)),
            Op::ArithRI { dst, imm: _, mode: _, tick } => row!(ReadWrite(dst), Tick(tick)),
            Op::StoreRR { off, a, b, mode: _, class: _, dst } => {
                row!(Frame(off), Read(a), Read(b), Write(dst))
            }
            Op::StoreLL { off, off_a, off_b, mode: _, class: _, dst } => {
                row!(Frame(off), Frame(off_a), Frame(off_b), Write(dst))
            }
            Op::StoreLI { off, off_a, imm: _, mode: _, class: _, dst } => {
                row!(Frame(off), Frame(off_a), Write(dst))
            }
            Op::StoreRL { off, off_b, mode: _, class: _, dst } => {
                row!(Frame(off), Frame(off_b), ReadWrite(dst))
            }
            Op::StoreRI { off, imm: _, mode: _, class: _, dst } => row!(Frame(off), ReadWrite(dst)),
            Op::RmwLocal { off, src, mode: _, class: _, dst, tick } => {
                row!(Frame(off), Read(src), Write(dst), Tick(tick))
            }
            Op::RmwGlobal { idx, src, mode: _, class: _, dst, tick } => {
                row!(Index(Data, idx), Read(src), Write(dst), Tick(tick))
            }
            Op::Rmw { addr, src, mode: _, class: _, dst, tick } => {
                row!(Read(addr), Read(src), Write(dst), Tick(tick))
            }
            Op::Jump { target, tick } => row!(Target(target), Tick(tick)),
            Op::JumpIfFalse { src, target, tick } => row!(Read(src), Target(target), Tick(tick)),
            Op::JumpIfTrue { src, target, tick } => row!(Read(src), Target(target), Tick(tick)),
            Op::CondBranch { src, branch, else_target, tick } => {
                row!(Read(src), Index(Branch, branch), Target(else_target), Tick(tick))
            }
            Op::CmpBranchLL { off_a, off_b, op: _, branch, else_target, tick } => {
                let branch = Index(Branch, branch);
                row!(Frame(off_a), Frame(off_b), branch, Target(else_target), Tick(tick))
            }
            Op::CmpBranchLI { off, imm: _, op: _, branch, else_target, tick } => {
                row!(Frame(off), Index(Branch, branch), Target(else_target), Tick(tick))
            }
            Op::CmpBranchRR { a, b, op: _, branch, else_target, tick } => {
                row!(Read(a), Read(b), Index(Branch, branch), Target(else_target), Tick(tick))
            }
            Op::CmpBranchRL { a, off, op: _, branch, else_target, tick } => {
                row!(Read(a), Frame(off), Index(Branch, branch), Target(else_target), Tick(tick))
            }
            Op::CmpBranchRI { a, imm: _, op: _, branch, else_target, tick } => {
                row!(Read(a), Index(Branch, branch), Target(else_target), Tick(tick))
            }
            Op::SwitchJump { src, table, tick } => {
                row!(Read(src), Index(Switch, table), Tick(tick))
            }
            Op::EdgeJump { edge, target, tick } => {
                row!(Index(Edge, edge), Target(target), Tick(tick))
            }
            Op::CheckFn { src, tick } => row!(Read(src), Tick(tick)),
            Op::CallDirect { func, argbase, nargs, dst, tick } => {
                row!(Index(Callee, func), Args(argbase, *nargs), Write(dst), Tick(tick))
            }
            Op::CallIndirect { callee, argbase, nargs, dst, tick } => {
                row!(Read(callee), Args(argbase, *nargs), Write(dst), Tick(tick))
            }
            Op::CallBuiltin { b: _, argbase, nargs, dst, tick } => {
                row!(Args(argbase, *nargs), Write(dst), Tick(tick))
            }
            Op::Ret { src, tick } => row!(Read(src), Tick(tick)),
            Op::Fail(i) => row!(Index(Fail, i)),
            Op::ConstJump { dst, imm: _, target, tick } => {
                row!(Write(dst), Target(target), Tick(tick))
            }
            Op::ConstRet { imm: _, tick } => row!(Tick(tick)),
            Op::StoreLEdge { off, src, class: _, edge, target, tick } => {
                row!(Frame(off), ReadWrite(src), Index(Edge, edge), Target(target), Tick(tick))
            }
            Op::LoadLBranch { off, dst, branch, else_target, tick } => {
                row!(Frame(off), Write(dst), Index(Branch, branch), Target(else_target), Tick(tick))
            }
            Op::ArithGI { dst, idx, imm: _, mode: _, tick } => {
                row!(Write(dst), Index(Data, idx), Tick(tick))
            }
            Op::CmpBranchRCI { a, dst, imm: _, op: _, branch, else_target, tick } => {
                row!(Read(a), Write(dst), Index(Branch, branch), Target(else_target), Tick(tick))
            }
            Op::ArithRLJumpF { dst, off, mode: _, target, tick } => {
                row!(ReadWrite(dst), Frame(off), Target(target), Tick(tick))
            }
        }
    }

    /// Applies `f` to every jump-target field of the op (see
    /// [`Op::fields`]). `SwitchJump` targets live in its side table.
    pub fn for_each_target(&mut self, mut f: impl FnMut(&mut u32)) {
        self.fields(|field| {
            if let Field::Target(t) = field {
                f(t)
            }
        });
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
        )
    }
}

/// Declares [`OP_CODES`], [`Op::code`], [`Op::name`] and `Op`'s
/// [`Hash`] from one table that lists, per variant, its stable code,
/// its name and every one of its fields in hashing order. The matches
/// it expands to have no wildcard arm and their patterns name every
/// field, so a new variant does not compile until it has a row and a
/// new field does not compile until its row hashes it.
macro_rules! op_codes {
    ($($code:literal => $name:ident $(( $($t:ident),* ))? $({ $($f:ident),* })?,)*) => {
        /// Every [`Op`] variant's stable code and name, one row each.
        ///
        /// The code, not the variant's place in the enum, is what
        /// [`Parts::ir_fingerprint`] hashes, so adding, deleting or
        /// reordering a variant moves no other op's fingerprint. A code
        /// is never reused: a deleted variant's row moves to
        /// [`RETIRED_OP_CODES`], and a new variant takes a code above
        /// every code in both lists.
        pub const OP_CODES: &[(u16, &str)] = &[$(($code, stringify!($name))),*];

        impl Op {
            /// The variant's stable code in [`OP_CODES`].
            pub fn code(&self) -> u16 {
                match self {
                    $(Op::$name { .. } => $code,)*
                }
            }

            /// The variant's name in [`OP_CODES`].
            pub fn name(&self) -> &'static str {
                match self {
                    $(Op::$name { .. } => stringify!($name),)*
                }
            }
        }

        /// The op's stable code, then every field in table order: the
        /// register, frame, target, tick and index fields
        /// [`Op::fields`] hands out, and also the immediates, values
        /// (by bit pattern), modes, operators, classes and builtins it
        /// does not.
        impl Hash for Op {
            #[inline(always)]
            fn hash<H: Hasher>(&self, state: &mut H) {
                match self {
                    $(Op::$name $(( $($t),* ))? $({ $($f),* })? => {
                        state.write_u16($code);
                        $($($t.hash(state);)*)?
                        $($($f.hash(state);)*)?
                    })*
                }
            }
        }
    };
}

op_codes! {
    0 => Tick(n),
    1 => BumpSite(i),
    2 => BumpFunc(i),
    3 => BumpBranch { branch, taken },
    4 => Const { dst, v },
    5 => LeaLocal { dst, off },
    6 => LoadLocal { dst, off },
    7 => LoadLocal2 { dst, off_a, off_b },
    8 => LoadLocalImm { dst, off, imm },
    9 => StoreLocal { off, src, class, dst },
    10 => LoadGlobal { dst, idx },
    11 => StoreGlobal { idx, src, class, dst },
    12 => Load { dst, addr, tick },
    13 => Store { addr, src, class, dst, tick },
    14 => CopyWords { dst_addr, src, n, dst, tick },
    15 => InitWordsLocal { off, img },
    16 => ZeroLocal { off, len },
    17 => ToPtr { dst, src },
    18 => Bool { dst, src },
    19 => LogicNot { dst, src },
    20 => Neg { dst, src },
    21 => BitNot { dst, src },
    22 => Conv { dst, src, class },
    23 => IndexAddr { dst, base, idx, elem },
    24 => IndexAddrLL { dst, off_a, off_b, elem },
    25 => IndexAddrPL { dst, base, idx_off, elem },
    26 => IndexAddrLeaL { dst, lea_off, idx_off, elem },
    27 => LoadIdx { dst, base, idx, elem, tick },
    28 => LoadIdxLL { dst, off_a, off_b, elem, tick },
    29 => LoadIdxPL { dst, base, idx_off, elem, tick },
    30 => LoadIdxLeaL { dst, lea_off, idx_off, elem, tick },
    31 => MemberAddr { dst, src, off, tick },
    32 => IncDecLocal { dst, off, delta, post },
    33 => IncDecGlobal { dst, idx, delta, post },
    34 => IncDec { dst, addr, delta, post, tick },
    35 => Arith { dst, a, b, mode, tick },
    36 => ArithLL { dst, off_a, off_b, mode, tick },
    37 => ArithLI { dst, off, imm, mode, tick },
    38 => ArithRL { dst, off, mode, tick },
    39 => ArithRI { dst, imm, mode, tick },
    40 => StoreRR { off, a, b, mode, class, dst },
    41 => StoreLL { off, off_a, off_b, mode, class, dst },
    42 => StoreLI { off, off_a, imm, mode, class, dst },
    43 => StoreRL { off, off_b, mode, class, dst },
    44 => StoreRI { off, imm, mode, class, dst },
    45 => RmwLocal { off, src, mode, class, dst, tick },
    46 => RmwGlobal { idx, src, mode, class, dst, tick },
    47 => Rmw { addr, src, mode, class, dst, tick },
    48 => Jump { target, tick },
    49 => JumpIfFalse { src, target, tick },
    50 => JumpIfTrue { src, target, tick },
    51 => CondBranch { src, branch, else_target, tick },
    52 => CmpBranchLL { off_a, off_b, op, branch, else_target, tick },
    53 => CmpBranchLI { off, imm, op, branch, else_target, tick },
    54 => CmpBranchRR { a, b, op, branch, else_target, tick },
    55 => CmpBranchRL { a, off, op, branch, else_target, tick },
    56 => CmpBranchRI { a, imm, op, branch, else_target, tick },
    57 => SwitchJump { src, table, tick },
    58 => EdgeJump { edge, target, tick },
    59 => CheckFn { src, tick },
    60 => CallDirect { func, argbase, nargs, dst, tick },
    61 => CallIndirect { callee, argbase, nargs, dst, tick },
    62 => CallBuiltin { b, argbase, nargs, dst, tick },
    63 => Ret { src, tick },
    64 => Fail(i),
    65 => ConstJump { dst, imm, target, tick },
    66 => ConstRet { imm, tick },
    67 => StoreLEdge { off, src, class, edge, target, tick },
    69 => LoadLBranch { off, dst, branch, else_target, tick },
    70 => ArithGI { dst, idx, imm, mode, tick },
    71 => CmpBranchRCI { a, dst, imm, op, branch, else_target, tick },
    72 => ArithRLJumpF { dst, off, mode, target, tick },
}

/// The codes of deleted [`Op`] variants, with their names: no new
/// variant may take one (`exec_scratch.rs` checks it).
pub const RETIRED_OP_CODES: &[(u16, &str)] = &[(68, "IncDecLEdge")];

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

impl SwitchTable {
    /// The target the switch takes on scrutinee `v`: what the VM's
    /// `SwitchJump` executes and what constant folding resolves.
    #[inline(always)]
    pub fn lookup(&self, v: i64) -> u32 {
        match self {
            SwitchTable::Dense {
                min,
                targets,
                default,
            } => {
                let off = v as i128 - *min as i128;
                match usize::try_from(off).ok().and_then(|i| targets.get(i)) {
                    Some(&t) if t != NONE32 => t,
                    _ => *default,
                }
            }
            SwitchTable::Sorted {
                keys,
                targets,
                default,
            } => match keys.binary_search(&v) {
                Ok(i) => targets[i],
                Err(_) => *default,
            },
        }
    }

    /// Applies `f` to every target the switch can take: the cases in
    /// table order (not a dense table's [`NONE32`] holes, which mean
    /// "default"), then the default.
    pub fn for_each_target(&mut self, mut f: impl FnMut(&mut u32)) {
        let (targets, default, holes) = match self {
            SwitchTable::Dense {
                targets, default, ..
            } => (targets, default, true),
            SwitchTable::Sorted {
                targets, default, ..
            } => (targets, default, false),
        };
        for t in targets.iter_mut().filter(|t| !(holes && **t == NONE32)) {
            f(t);
        }
        f(default);
    }
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
    /// [`Parts::ops`] (`(0, 0)` for bodiless prototypes).
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

/// The parts of a program lowered to bytecode, as plain data: what
/// the compiler and the optimizer's lowering emit, and what [`verify`]
/// checks. Nothing runs a `Parts`; [`CompiledProgram::new`] verifies
/// one into an executable image.
#[derive(Debug, Clone)]
pub struct Parts {
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
    /// The static data segment (globals + string literals), in the
    /// runtime's one layout, which the AST walker loads too.
    pub data_image: Vec<Value>,
    /// The `(from, to)` of every edge counter, parallel to the runtime
    /// counter array. Each function's counters are contiguous
    /// ([`CounterPlan::edges`]) and in its CFG's edge numbering, so
    /// the range is the function's profile edge row.
    pub edge_keys: Vec<(BlockId, BlockId)>,
    /// Per-function counter placement (default for prototypes): how
    /// block, edge and branch counts are rebuilt after a run, and the
    /// function's block count and counter range.
    pub counters: Vec<CounterPlan>,
    /// Number of registered branch sites.
    pub n_branches: usize,
    /// Number of registered call sites.
    pub n_sites: usize,
}

impl Parts {
    /// 128-bit fingerprint of the post-fold IR: everything execution
    /// reads (ops, function metadata, `main`, switch tables,
    /// initializer images, the data image and the counter plans). Two
    /// programs with the same fingerprint are observationally
    /// identical on every input, so corpus deduplication counts them
    /// once, and Fig 10 reuses one measured run per distinct image.
    ///
    /// Each op hashes as its stable code in [`OP_CODES`] followed by
    /// every one of its fields, values by bit pattern; the rest hashes
    /// through `#[derive(Hash)]`. The hasher is the word-at-a-time
    /// [`obs::hash::WordHash`]: the fingerprint is an in-process
    /// equality key, deterministic within a build, and never persisted.
    pub fn ir_fingerprint(&self) -> u128 {
        let mut h = WordHash::new();
        self.ops.hash(&mut h);
        self.funcs.hash(&mut h);
        self.main.hash(&mut h);
        self.switch_tables.hash(&mut h);
        self.images.hash(&mut h);
        self.data_image.hash(&mut h);
        self.counters.hash(&mut h);
        h.digest()
    }
}

/// A verified program image: fully owned and `Send + Sync`, so one
/// compiled image can profile many inputs on concurrent threads.
///
/// [`CompiledProgram::new`] is its only constructor and runs
/// [`verify`], and the image is read-only behind it (`Deref` to
/// [`Parts`]), so every invariant the dispatch loop's unchecked
/// indexing rests on holds for every `CompiledProgram` there is.
#[derive(Debug, Clone)]
pub struct CompiledProgram(Parts);

impl std::ops::Deref for CompiledProgram {
    type Target = Parts;

    fn deref(&self) -> &Parts {
        &self.0
    }
}

impl CompiledProgram {
    /// Verifies `parts` into an executable image.
    ///
    /// # Errors
    ///
    /// Returns [`verify`]'s diagnostic for the first violation found.
    pub fn new(parts: Parts) -> Result<Self, String> {
        verify(&parts)?;
        Ok(CompiledProgram(parts))
    }

    /// Gives the image back as plain, writable parts.
    pub fn into_parts(self) -> Parts {
        self.0
    }

    /// Executes the compiled program on one input.
    ///
    /// Observably identical to [`crate::run_ast`] on the same
    /// program: same exit code, output, step count, profile, and
    /// error — the proptest oracle in `tests/vm_oracle.rs` checks
    /// profile-for-profile equality on random programs.
    ///
    /// The VM's stack, register, counter and string buffers are
    /// recycled per thread: back-to-back runs on one thread (a pool
    /// worker profiling input after input) allocate them once.
    ///
    /// With `trace`, every *data-segment* access (globals, string
    /// literals, `malloc` storage — never VM stack traffic) also feeds
    /// the exact reuse-distance collector; [`ReuseCollector::finish`]
    /// yields the trace. The tap is a monomorphized generic and both
    /// instantiations are compiled here, so the untraced dispatch loop
    /// stays probe-free; both run the same accessors otherwise.
    /// Tracing observes memory traffic and changes no frequency
    /// counter: the outcome is identical either way.
    ///
    /// # Errors
    ///
    /// Returns the same [`RuntimeError`]s the AST interpreter would.
    pub fn execute(
        &self,
        config: &RunConfig,
        trace: Option<&mut ReuseCollector>,
    ) -> Result<RunOutcome, RuntimeError> {
        // One span per run; the dispatch loop itself is never probed —
        // step totals and the counter ledger are read off the outcome
        // after the fact.
        let _sp = obs::span("profiler.execute");
        let (out, traced) = match trace {
            None => (exec::execute(self, config, &mut NoTap), None),
            Some(tap) => {
                let before = tap.events;
                let out = exec::execute(self, config, &mut *tap);
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
}

/// Compiles a program to bytecode and verifies the image
/// ([`CompiledProgram::new`]) before anything can run it. Compilation
/// is a single linear pass per CFG plus one spanning-tree build; the
/// suite compiles in well under a millisecond per program.
pub fn compile(program: &Program) -> CompiledProgram {
    let _sp = obs::span("profiler.compile");
    CompiledProgram::new(compile::compile(program))
        .unwrap_or_else(|e| panic!("compiler emitted invalid bytecode: {e}"))
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
    compile(program).execute(config, None)
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
    fn switch_lookup_covers_both_encodings() {
        let dense = SwitchTable::Dense {
            min: 10,
            targets: vec![1, NONE32, 3],
            default: 9,
        };
        assert_eq!(dense.lookup(10), 1);
        assert_eq!(dense.lookup(11), 9, "a hole falls to the default");
        assert_eq!(dense.lookup(12), 3);
        assert_eq!(dense.lookup(9), 9, "below the range");
        assert_eq!(dense.lookup(13), 9, "above the range");
        // A `min` near either extreme: `v - min` must not wrap.
        let low = SwitchTable::Dense {
            min: i64::MIN + 1,
            targets: vec![4, 5],
            default: 9,
        };
        assert_eq!(low.lookup(i64::MIN), 9);
        assert_eq!(low.lookup(i64::MIN + 2), 5);
        assert_eq!(low.lookup(i64::MAX), 9);
        let high = SwitchTable::Dense {
            min: i64::MAX - 1,
            targets: vec![6, 7],
            default: 9,
        };
        assert_eq!(high.lookup(i64::MAX), 7);
        assert_eq!(high.lookup(i64::MIN), 9);
        assert_eq!(high.lookup(i64::MAX - 2), 9);
        let sorted = SwitchTable::Sorted {
            keys: vec![-5, 100, 7000],
            targets: vec![1, 2, 3],
            default: 9,
        };
        assert_eq!(sorted.lookup(100), 2);
        assert_eq!(sorted.lookup(101), 9);
        assert_eq!(sorted.lookup(i64::MIN), 9);

        let mut seen = Vec::new();
        dense.clone().for_each_target(|t| seen.push(*t));
        assert_eq!(seen, [1, 3, 9], "holes are not targets");
        seen.clear();
        sorted.clone().for_each_target(|t| seen.push(*t));
        assert_eq!(seen, [1, 2, 3, 9]);
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
