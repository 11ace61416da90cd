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
//! - every block / edge / branch / call-site counter increment
//!   indexes a dense array — the `HashMap` of edge counts is only
//!   materialized once, after the run;
//! - consecutive step-counter ticks are batched and carried as a
//!   payload on the next control-flow or fallible op wherever no
//!   intervening op can fail or `exit()` (so batching can never
//!   change an observable outcome — see `compile.rs`); a taken CFG
//!   edge is a single fused [`Op::EdgeJump`] dispatch that ticks,
//!   bumps the edge and target-block counters, and jumps.
//!
//! The result of [`compile`] is [`CompiledProgram`]: fully owned,
//! `Send + Sync`, executable concurrently from many threads — one
//! compiled image profiles all of a suite program's inputs in
//! parallel. [`run`] keeps the old `profiler::run` signature and adds
//! a fingerprint-keyed compile cache; the AST walker survives as
//! [`crate::run_ast`], the differential-testing oracle.

mod compile;
mod exec;

pub use exec::{arith, cmp_vals, ExecScratch};

use crate::interp::{RunConfig, RunOutcome, RuntimeError, TyClass, Value};
use crate::profile::Profile;
use crate::reuse::{ObjectMap, ReuseCollector, ReuseTrace};
use flowgraph::{BlockId, Program};
use minic::ast::BinOp;
use minic::builtins::Builtin;
use minic::sema::FuncId;
use obs::hash::{Fnv128, FNV64_OFFSET};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

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
/// side tables of the [`CompiledProgram`].
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
    /// `func_counts[f] += 1` and `blocks[funcs[f].entry_block] += 1` —
    /// replicates the counter bumps of `enter()` at an inlined call
    /// site (emitted only by the optimizer; zero cost).
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
    /// by truthiness, fall through when true, jump when false.
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
    /// The fused CFG transition: bump edge counter `edge` and block
    /// counter `block` (the jump target's), then jump. One dispatch
    /// per taken CFG edge instead of Tick + BumpEdge + BumpBlock + Jump.
    EdgeJump {
        edge: u32,
        block: u32,
        target: u32,
        tick: u32,
    },
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
        block: u32,
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
        block: u32,
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
    /// Flat block-counter index of the entry block (bumped on call;
    /// all other block entries go through [`Op::EdgeJump`]).
    pub entry_block: u32,
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
    /// Per-CFG-block start pc (indexed by `BlockId`), recorded so the
    /// optimizer can map lifted ops back to flowgraph blocks.
    pub block_pc: Vec<u32>,
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
    /// Flat block-counter layout: `block_base[f] + block`.
    pub block_base: Vec<u32>,
    /// Block-counter count per function (parallel to `block_base`).
    pub block_lens: Vec<u32>,
    /// Dense edge-counter keys, parallel to the runtime counter array.
    pub edge_keys: Vec<(FuncId, BlockId, BlockId)>,
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
    /// # Errors
    ///
    /// Returns the same [`RuntimeError`]s the AST interpreter would.
    pub fn execute(&self, config: &RunConfig) -> Result<RunOutcome, RuntimeError> {
        // One span per run; the dispatch loop itself is never probed —
        // step totals are read from the outcome after the fact.
        let _sp = obs::span("profiler.execute");
        let out = exec::execute(self, config);
        if obs::enabled() {
            obs::counter_add("profiler.runs", 1);
            if let Ok(o) = &out {
                obs::counter_add("profiler.steps", o.steps);
            }
        }
        out
    }

    /// [`Self::execute`] with caller-owned VM buffers: corpus-scale
    /// drivers that execute thousands of programs back-to-back keep
    /// one [`ExecScratch`] per worker and skip the per-run stack /
    /// register / counter-array allocations.
    ///
    /// # Errors
    ///
    /// Returns the same [`RuntimeError`]s as [`Self::execute`].
    pub fn execute_in(
        &self,
        config: &RunConfig,
        scratch: &mut ExecScratch,
    ) -> Result<RunOutcome, RuntimeError> {
        let _sp = obs::span("profiler.execute");
        let out = exec::execute_in(self, config, scratch);
        if obs::enabled() {
            obs::counter_add("profiler.runs", 1);
            if let Ok(o) = &out {
                obs::counter_add("profiler.steps", o.steps);
            }
        }
        out
    }

    /// [`Self::execute`] with exact reuse-distance tracing: every
    /// *data-segment* access (globals, string literals, `malloc`
    /// storage — never VM stack traffic) feeds an LRU stack-distance
    /// collector partitioned by the object map. The tap is a
    /// monomorphized generic, so the normal dispatch loop compiled for
    /// [`Self::execute`] stays probe-free; the traced instantiation
    /// additionally uses *checked* register/frame/data indexing, so a
    /// trace of a buggy program fails deterministically instead of
    /// reading garbage.
    ///
    /// The profile inside the returned [`RunOutcome`] is identical to
    /// the untraced one — tracing observes memory traffic and changes
    /// no frequency counter.
    ///
    /// # Errors
    ///
    /// Returns the same [`RuntimeError`]s as [`Self::execute`], plus
    /// out-of-stream program-counter errors that the unchecked build
    /// would turn into UB.
    pub fn execute_traced(
        &self,
        config: &RunConfig,
        objects: &ObjectMap,
    ) -> Result<(RunOutcome, ReuseTrace), RuntimeError> {
        let _sp = obs::span("reuse.trace");
        let mut tap = ReuseCollector::new(objects.clone());
        let mut scratch = ExecScratch::default();
        let out = exec::execute_tapped(self, config, &mut scratch, &mut tap)?;
        let trace = tap.finish();
        if obs::enabled() {
            obs::counter_add("reuse.traced_runs", 1);
            obs::counter_add("reuse.traced_accesses", trace.events);
        }
        Ok((out, trace))
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

/// Compiles a program to bytecode (no caching — see [`run`] for the
/// cached path). Compilation is a single linear pass per CFG; the
/// suite compiles in well under a millisecond per program.
pub fn compile(program: &Program) -> CompiledProgram {
    let _sp = obs::span("profiler.compile");
    compile::compile(program)
}

/// Runs `main` on the bytecode VM and collects a profile.
///
/// Drop-in replacement for the old AST-walking `run`: same signature,
/// same observable behaviour. Programs are compiled once and cached
/// by a structural fingerprint, so re-running the same program on
/// many inputs (the suite, proptest loops) pays compilation once.
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
    cached_compile(program).execute(config)
}

/// [`run`] with exact reuse-distance tracing (see
/// [`CompiledProgram::execute_traced`]). Uses the same compile-once
/// cache as [`run`]; the object map is derived from the module's
/// global layout.
///
/// # Errors
///
/// Returns the same [`RuntimeError`]s as [`run`].
pub fn run_traced(
    program: &Program,
    config: &RunConfig,
) -> Result<(RunOutcome, ReuseTrace), RuntimeError> {
    let objects = ObjectMap::for_module(&program.module);
    cached_compile(program).execute_traced(config, &objects)
}

/// Upper bound on cached compiled programs; the cache is cleared when
/// it fills (tests and proptest loops churn many tiny programs).
const CACHE_CAP: usize = 64;

fn cache() -> &'static Mutex<HashMap<u128, Arc<CompiledProgram>>> {
    static CACHE: OnceLock<Mutex<HashMap<u128, Arc<CompiledProgram>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Compile with a content-addressed cache: the key is a 128-bit
/// structural fingerprint, so the cache stays correct when a caller
/// rebuilds an identical `Program` at a different address (and when a
/// new program reuses a dropped one's address).
pub(crate) fn cached_compile(program: &Program) -> Arc<CompiledProgram> {
    let key = fingerprint(program);
    let map = cache().lock().expect("compile cache poisoned");
    if let Some(hit) = map.get(&key) {
        obs::counter_add("profiler.cache.hits", 1);
        return Arc::clone(hit);
    }
    drop(map); // don't hold the lock across compilation
    obs::counter_add("profiler.cache.misses", 1);
    let compiled = Arc::new(compile(program));
    let mut map = cache().lock().expect("compile cache poisoned");
    if map.len() >= CACHE_CAP {
        map.clear();
    }
    map.insert(key, Arc::clone(&compiled));
    compiled
}

/// 128-bit structural fingerprint: the `Debug` rendering of the whole
/// program streamed through two differently-salted hashers. Covers
/// everything compilation reads (module, side tables, CFGs).
fn fingerprint(program: &Program) -> u128 {
    struct TwoHash {
        a: DefaultHasher,
        b: DefaultHasher,
    }
    impl std::fmt::Write for TwoHash {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.a.write(s.as_bytes());
            self.b.write(s.as_bytes());
            Ok(())
        }
    }
    let mut h = TwoHash {
        a: DefaultHasher::new(),
        b: DefaultHasher::new(),
    };
    h.b.write_u64(0x9E3779B97F4A7C15); // salt the second stream
    use std::fmt::Write as _;
    write!(h, "{program:?}").expect("hashing cannot fail");
    ((h.a.finish() as u128) << 64) | h.b.finish() as u128
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

    #[test]
    fn cache_hits_are_shared() {
        let module = minic::compile("int main(void) { return 7; }").unwrap();
        let program = flowgraph::build_program(module);
        let a = cached_compile(&program);
        let b = cached_compile(&program);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn distinct_programs_get_distinct_code() {
        let m1 = minic::compile("int main(void) { return 1; }").unwrap();
        let m2 = minic::compile("int main(void) { return 2; }").unwrap();
        let p1 = flowgraph::build_program(m1);
        let p2 = flowgraph::build_program(m2);
        let c1 = cached_compile(&p1);
        let c2 = cached_compile(&p2);
        assert_eq!(c1.execute(&RunConfig::default()).unwrap().exit_code, 1);
        assert_eq!(c2.execute(&RunConfig::default()).unwrap().exit_code, 2);
    }
}
