//! The bytecode dispatch loop.
//!
//! A single non-recursive loop over the flat op stream with an
//! explicit frame stack — MiniC recursion no longer nests Rust stack
//! frames, so no oversized interpreter thread is needed. Registers
//! live in one shared vector addressed through a per-frame window
//! base (`rp`); memory is the interpreter's exact model (word
//! addressed, NULL = 0, static data + heap low, stack above
//! [`STACK_BASE`]).
//!
//! Builtin shims reuse three persistent `String` buffers instead of
//! allocating per call (`read_cstring`/`format` in the AST walker
//! built fresh `String`s on every `printf`/`strcmp`). The quirky
//! byte-to-`char` semantics of the originals (bytes ≥ 128 widen to
//! two UTF-8 bytes in `strlen`, `%s`, `strncpy`, …) are preserved
//! exactly — the differential oracle covers them.

use super::place::{derive_branches, rebuild};
use super::{ArithMode, CompiledProgram, Op, ParamBind, SwitchTable, NONE32};
use crate::interp::{
    convert_for_class, RunConfig, RunOutcome, RuntimeError, Value, CALL_COST, STACK_BASE,
};
use crate::profile::Profile;
use crate::reuse::MemTap;
use minic::ast::BinOp;
use minic::builtins::Builtin;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Non-local control flow out of a builtin or the dispatch loop.
enum VmAbort {
    Error(RuntimeError),
    Exit(i64),
}

impl From<RuntimeError> for VmAbort {
    fn from(e: RuntimeError) -> Self {
        VmAbort::Error(e)
    }
}

struct Frame {
    ret_pc: usize,
    ret_dst: u16,
    func: usize,
    fp: usize,
    rp: usize,
}

struct Vm<'a, T: MemTap> {
    cp: &'a CompiledProgram,
    /// Data-segment access probe ([`NoTap`](crate::reuse::NoTap) in
    /// normal runs — the `T::ACTIVE` checks below monomorphize away
    /// entirely).
    tap: &'a mut T,
    data: Vec<Value>,
    stack: Vec<Value>,
    regs: Vec<Value>,
    frames: Vec<Frame>,
    fp: usize,
    rp: usize,
    cur_fn: usize,
    steps: u64,
    max_steps: u64,
    depth: usize,
    max_depth: usize,
    input: &'a [u8],
    input_pos: usize,
    output: Vec<u8>,
    rng: u64,
    /// The pc of the op that called `exit()`, for booking departures.
    exit_pc: usize,
    // Dense profile counters (chord edges only during the run; the
    // rest is rebuilt into a `Profile` at the end).
    edges: Vec<u64>,
    branches: Vec<(u64, u64)>,
    sites: Vec<u64>,
    func_counts: Vec<u64>,
    func_cost: Vec<u64>,
    // Reusable builtin string buffers.
    sbuf_a: String,
    sbuf_b: String,
    fmt_out: String,
}

/// Reusable per-run VM buffers: the data image copy, stack, register
/// file, frame stack, dense edge counters, the count-rebuild balance
/// array, and builtin string buffers. One run of a ~12k-step
/// generated program otherwise pays ten-plus allocations; a corpus
/// run re-executing thousands of programs on one scratch pays them
/// once and then only grows to the high-water mark. Buffers that escape into the [`RunOutcome`]
/// (profile vectors, output) still allocate per run.
#[derive(Default)]
pub struct ExecScratch {
    data: Vec<Value>,
    stack: Vec<Value>,
    regs: Vec<Value>,
    frames: Vec<Frame>,
    edges: Vec<u64>,
    excess: Vec<i64>,
    sbuf_a: String,
    sbuf_b: String,
    fmt_out: String,
}

impl ExecScratch {
    /// Releases any buffer whose capacity grew past `max_elems`
    /// elements. Scratches were built for one-shot corpus runs, where
    /// growing to the corpus high-water mark is the whole point; a
    /// resident service that keeps scratches for its process lifetime
    /// must instead shed the occasional deep-recursion or huge-program
    /// outlier, or every worker permanently retains the worst case it
    /// ever executed.
    pub fn trim(&mut self, max_elems: usize) {
        fn shed<T>(v: &mut Vec<T>, cap: usize) {
            if v.capacity() > cap {
                *v = Vec::new();
            }
        }
        shed(&mut self.data, max_elems);
        shed(&mut self.stack, max_elems);
        shed(&mut self.regs, max_elems);
        shed(&mut self.frames, max_elems);
        shed(&mut self.edges, max_elems);
        shed(&mut self.excess, max_elems);
        for s in [&mut self.sbuf_a, &mut self.sbuf_b, &mut self.fmt_out] {
            if s.capacity() > max_elems {
                *s = String::new();
            }
        }
    }

    /// The largest element capacity across the recycled buffers —
    /// what [`ExecScratch::trim`] bounds; exposed so lifetime tests
    /// can assert the bound without reaching into the fields.
    pub fn high_water(&self) -> usize {
        self.data
            .capacity()
            .max(self.stack.capacity())
            .max(self.regs.capacity())
            .max(self.frames.capacity())
            .max(self.edges.capacity())
            .max(self.excess.capacity())
            .max(self.sbuf_a.capacity())
            .max(self.sbuf_b.capacity())
            .max(self.fmt_out.capacity())
    }
}

/// The generic engine: runs `cp` with `tap` observing every
/// data-segment access. With [`NoTap`](crate::reuse::NoTap) this
/// monomorphizes to the probe-free fast path; with an active tap every
/// register/frame/data accessor additionally switches to checked
/// indexing (see the accessor comments below).
pub(super) fn execute<T: MemTap>(
    cp: &CompiledProgram,
    config: &RunConfig,
    scratch: &mut ExecScratch,
    tap: &mut T,
) -> Result<RunOutcome, RuntimeError> {
    let main = cp.main.ok_or(RuntimeError::NoMain)?;
    // Move the recycled buffers into the Vm (pointer swaps), reset
    // their contents, and hand them back below. `clear` + zero-fill
    // keeps each buffer's capacity.
    let mut data = std::mem::take(&mut scratch.data);
    data.clear();
    data.extend_from_slice(&cp.data_image);
    let mut stack = std::mem::take(&mut scratch.stack);
    stack.clear();
    let mut regs = std::mem::take(&mut scratch.regs);
    regs.clear();
    let mut frames = std::mem::take(&mut scratch.frames);
    frames.clear();
    let mut edges = std::mem::take(&mut scratch.edges);
    edges.clear();
    edges.resize(cp.edge_keys.len(), 0);
    let mut vm = Vm {
        cp,
        tap,
        data,
        stack,
        regs,
        frames,
        fp: 0,
        rp: 0,
        cur_fn: main.0 as usize,
        steps: 0,
        max_steps: config.max_steps,
        depth: 0,
        max_depth: config.max_call_depth,
        input: &config.input,
        input_pos: 0,
        output: Vec::new(),
        rng: 0x2545F4914F6CDD1D,
        exit_pc: 0,
        edges,
        branches: vec![(0, 0); cp.n_branches],
        sites: vec![0; cp.n_sites],
        func_counts: vec![0; cp.funcs.len()],
        func_cost: vec![0; cp.funcs.len()],
        sbuf_a: std::mem::take(&mut scratch.sbuf_a),
        sbuf_b: std::mem::take(&mut scratch.sbuf_b),
        fmt_out: std::mem::take(&mut scratch.fmt_out),
    };
    let run_result = vm.run(main.0 as usize);
    let departures = match run_result {
        Err(VmAbort::Exit(_)) => vm.live_blocks(),
        _ => Vec::new(),
    };
    let Vm {
        data,
        stack,
        regs,
        frames,
        mut edges,
        branches,
        sites,
        func_counts,
        func_cost,
        sbuf_a,
        sbuf_b,
        fmt_out,
        output,
        steps,
        ..
    } = vm;
    scratch.data = data;
    scratch.stack = stack;
    scratch.regs = regs;
    scratch.frames = frames;
    scratch.sbuf_a = sbuf_a;
    scratch.sbuf_b = sbuf_b;
    scratch.fmt_out = fmt_out;

    let exit_code = match run_result {
        Ok(code) | Err(VmAbort::Exit(code)) => code,
        Err(VmAbort::Error(e)) => {
            // A failed run discards its profile: nothing to rebuild.
            scratch.edges = edges;
            return Err(e);
        }
    };
    let mut profile = Profile {
        block_counts: cp.block_lens.iter().map(|&n| vec![0; n as usize]).collect(),
        branch_counts: branches,
        call_site_counts: sites,
        func_counts,
        edge_counts: HashMap::new(),
        func_cost,
    };
    rebuild_counts(
        cp,
        &mut profile,
        &mut edges,
        &departures,
        &mut scratch.excess,
    );
    scratch.edges = edges;
    Ok(RunOutcome {
        exit_code,
        profile,
        output,
        steps,
    })
}

/// Completes `profile` from the run's chord counts in `edges` (see
/// `place.rs`): block counts, tree-edge counts, and the branch counts
/// that follow from edges. `departures` holds the `(function, block)`
/// of every activation `exit()` left live.
fn rebuild_counts(
    cp: &CompiledProgram,
    profile: &mut Profile,
    edges: &mut [u64],
    departures: &[(u32, u32)],
    excess: &mut Vec<i64>,
) {
    let bumps = obs::enabled().then(|| edges.iter().sum::<u64>() + profile.total_branches());
    for (f, plan) in cp.counters.iter().enumerate() {
        let calls = profile.func_counts[f];
        if calls == 0 {
            continue; // never entered: every count stays zero
        }
        let live = departures
            .iter()
            .filter(|&&(df, _)| df as usize == f)
            .map(|&(_, b)| b);
        rebuild(
            plan,
            &cp.edge_keys,
            calls,
            live,
            edges,
            &mut profile.block_counts[f],
            excess,
        );
        derive_branches(plan, edges, &mut profile.branch_counts);
    }
    for (i, &c) in edges.iter().enumerate() {
        if c > 0 {
            profile.edge_counts.insert(cp.edge_keys[i], c);
        }
    }
    if let Some(bumps) = bumps {
        // The counter ledger: increments executed, against those full
        // block + edge + branch instrumentation would have executed.
        obs::counter_add("profiler.counter_bumps", bumps);
        obs::counter_add(
            "profiler.counter_bumps_full",
            profile.total_block_count() + edges.iter().sum::<u64>() + profile.total_branches(),
        );
    }
}

impl<'a, T: MemTap> Vm<'a, T> {
    // ----- memory (identical to the AST interpreter's) -----

    fn load(&mut self, addr: u64) -> Result<Value, RuntimeError> {
        load_mem(&mut *self.tap, &self.data, &self.stack, addr)
    }

    fn store(&mut self, addr: u64, v: Value) -> Result<(), RuntimeError> {
        store_mem(&mut *self.tap, &mut self.data, &mut self.stack, addr, v)
    }

    fn copy_words(&mut self, dst: u64, src: u64, n: usize) -> Result<(), RuntimeError> {
        for i in 0..n as u64 {
            let v = self.load(src + i)?;
            self.store(dst + i, v)?;
        }
        Ok(())
    }

    fn alloc_static(&mut self, words: usize) -> u64 {
        let addr = self.data.len() as u64 + 1;
        self.data.extend(std::iter::repeat_n(Value::Int(0), words));
        addr
    }

    // ----- registers and frame slots -----
    //
    // The hot accessors skip bounds checks: the compiler guarantees
    // every register operand is `< max_regs` (the `touch` watermark)
    // and every frame offset is `< frame_size` (sema's layout), and
    // `enter`/`run` size the register window and frame before any op
    // of the function executes. Debug builds keep the assertions.
    //
    // Trace mode (`T::ACTIVE`) switches every one of them to checked
    // indexing with a deterministic fallback (reads yield `Int(0)`,
    // writes become no-ops): a reuse trace of a program that trips a
    // compiler-invariant bug must read garbage *deterministically*,
    // never exercise UB. The branch is compile-time, so the normal
    // dispatch loop keeps the unchecked fast path.

    #[inline(always)]
    fn reg(&self, r: u16) -> Value {
        let i = self.rp + r as usize;
        if T::ACTIVE {
            return self.regs.get(i).copied().unwrap_or(Value::Int(0));
        }
        debug_assert!(i < self.regs.len());
        // SAFETY: see above — `rp + max_regs <= regs.len()` holds
        // between `enter`/`Ret` transitions, and `r < max_regs`.
        unsafe { *self.regs.get_unchecked(i) }
    }

    #[inline(always)]
    fn set_reg(&mut self, r: u16, v: Value) {
        let i = self.rp + r as usize;
        if T::ACTIVE {
            if let Some(slot) = self.regs.get_mut(i) {
                *slot = v;
            }
            return;
        }
        debug_assert!(i < self.regs.len());
        // SAFETY: as in `reg`.
        unsafe { *self.regs.get_unchecked_mut(i) = v }
    }

    #[inline(always)]
    fn local(&self, off: u32) -> Value {
        let i = self.fp + off as usize;
        if T::ACTIVE {
            return self.stack.get(i).copied().unwrap_or(Value::Int(0));
        }
        debug_assert!(i < self.stack.len());
        // SAFETY: `fp + frame_size <= stack.len()` for the running
        // frame, and every compiled offset is `< frame_size`.
        unsafe { *self.stack.get_unchecked(i) }
    }

    #[inline(always)]
    fn set_local(&mut self, off: u32, v: Value) {
        let i = self.fp + off as usize;
        if T::ACTIVE {
            if let Some(slot) = self.stack.get_mut(i) {
                *slot = v;
            }
            return;
        }
        debug_assert!(i < self.stack.len());
        // SAFETY: as in `local`.
        unsafe { *self.stack.get_unchecked_mut(i) = v }
    }

    #[inline(always)]
    fn global(&self, idx: u32) -> Value {
        if T::ACTIVE {
            return self
                .data
                .get(idx as usize)
                .copied()
                .unwrap_or(Value::Int(0));
        }
        debug_assert!((idx as usize) < self.data.len());
        // SAFETY: global indices address the static image laid out at
        // compile time, and `data` only ever grows (malloc appends).
        unsafe { *self.data.get_unchecked(idx as usize) }
    }

    #[inline(always)]
    fn set_global(&mut self, idx: u32, v: Value) {
        if T::ACTIVE {
            if let Some(slot) = self.data.get_mut(idx as usize) {
                *slot = v;
            }
            return;
        }
        debug_assert!((idx as usize) < self.data.len());
        // SAFETY: as in `global`.
        unsafe { *self.data.get_unchecked_mut(idx as usize) = v }
    }

    /// The data-segment word address of global slot `idx` (the image
    /// is 1-based: address 0 is NULL).
    #[inline(always)]
    fn global_addr(idx: u32) -> u64 {
        idx as u64 + 1
    }

    // ----- profile counters -----

    #[inline(always)]
    fn bump_edge(&mut self, edge: u32) {
        if edge != NONE32 {
            self.edges[edge as usize] += 1;
        }
    }

    /// The `(function, block)` of every activation live when `exit()`
    /// ended the run, innermost first: each books one departure to
    /// its function's EXIT, since it will never return.
    fn live_blocks(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.frames.len() + 1);
        let at = |f: usize, pc: usize, out: &mut Vec<(u32, u32)>| {
            self.cp.funcs[f].blocks_at(f as u32, pc as u32, out);
        };
        at(self.cur_fn, self.exit_pc, &mut out);
        for fr in self.frames.iter().rev() {
            // `ret_pc` is the op after the call.
            at(fr.func, fr.ret_pc - 1, &mut out);
        }
        out
    }

    #[inline]
    fn bump_branch(&mut self, branch: u32, taken: bool) {
        if branch != NONE32 {
            let slot = &mut self.branches[branch as usize];
            if taken {
                slot.0 += 1;
            } else {
                slot.1 += 1;
            }
        }
    }

    // ----- calls -----

    /// Push a frame and return `f`'s entry pc. The callee's entry pc
    /// must be valid (the compiler guarantees it for direct calls;
    /// indirect calls check before entering).
    fn enter(
        &mut self,
        f: usize,
        argbase: u16,
        nargs: u16,
        dst: u16,
        ret_pc: usize,
    ) -> Result<usize, RuntimeError> {
        if self.depth >= self.max_depth {
            return Err(RuntimeError::StackOverflow {
                limit: self.max_depth,
            });
        }
        self.depth += 1;
        let meta = &self.cp.funcs[f];
        self.frames.push(Frame {
            ret_pc,
            ret_dst: dst,
            func: self.cur_fn,
            fp: self.fp,
            rp: self.rp,
        });
        let new_fp = self.stack.len();
        self.stack
            .extend(std::iter::repeat_n(Value::Int(0), meta.frame_size as usize));
        self.func_counts[f] += 1;
        self.func_cost[f] += CALL_COST;
        let new_rp = self.rp + self.cp.funcs[self.cur_fn].max_regs as usize;
        if self.regs.len() < new_rp + meta.max_regs as usize {
            self.regs
                .resize(new_rp + meta.max_regs as usize, Value::Int(0));
        }
        // Bind parameters (structs are copied by value).
        for i in 0..(nargs as usize).min(meta.params.len()) {
            let arg = self.regs[self.rp + argbase as usize + i];
            match self.cp.funcs[f].params[i] {
                ParamBind::Scalar { off, class } => {
                    self.stack[new_fp + off as usize] = convert_for_class(class, arg);
                }
                ParamBind::Agg { off, size } => {
                    let dst_addr = STACK_BASE + (new_fp + off as usize) as u64;
                    self.copy_words(dst_addr, arg.to_ptr(), size as usize)?;
                }
            }
        }
        self.fp = new_fp;
        self.rp = new_rp;
        self.cur_fn = f;
        Ok(self.cp.funcs[f].entry as usize)
    }

    // ----- the dispatch loop -----

    fn run(&mut self, main: usize) -> Result<i64, VmAbort> {
        let meta = &self.cp.funcs[main];
        if meta.entry == NONE32 {
            return Err(RuntimeError::Undefined {
                name: meta.name.clone(),
            }
            .into());
        }
        if self.depth >= self.max_depth {
            return Err(RuntimeError::StackOverflow {
                limit: self.max_depth,
            }
            .into());
        }
        self.depth = 1;
        self.stack
            .extend(std::iter::repeat_n(Value::Int(0), meta.frame_size as usize));
        self.regs.resize(meta.max_regs as usize, Value::Int(0));
        self.func_counts[main] += 1;
        self.func_cost[main] += CALL_COST;
        self.cur_fn = main;
        self.fp = 0;
        self.rp = 0;

        // The hot VM state lives in locals: `pc` and `steps` would
        // otherwise cost a memory round-trip per dispatched op, and
        // `cost_acc` batches `func_cost[cur_fn]` updates between
        // function transitions. They are written back to `self` only
        // where someone can observe them: calls/returns for the cost,
        // the final return and `exit()` for the step count.
        let cp = self.cp;
        let max_steps = self.max_steps;
        let mut pc = meta.entry as usize;
        let mut steps: u64 = 0;
        let mut cost_acc: u64 = 0;

        macro_rules! tick {
            ($n:expr) => {{
                let n = $n;
                if n != 0 {
                    steps += n as u64;
                    cost_acc += n as u64;
                    if steps > max_steps {
                        return Err(RuntimeError::StepLimit { limit: max_steps }.into());
                    }
                }
            }};
        }

        loop {
            let op = if T::ACTIVE {
                // Trace mode: a wild pc (a compiler bug) must fail
                // deterministically, not read past the op stream.
                match cp.ops.get(pc) {
                    Some(&op) => op,
                    None => {
                        return Err(
                            RuntimeError::Other(format!("pc {pc} outside the op stream")).into(),
                        )
                    }
                }
            } else {
                debug_assert!(pc < cp.ops.len());
                // SAFETY: `pc` is either a compiler-emitted jump target
                // or the successor of a non-terminating op; every block
                // ends in a control transfer, so execution cannot run
                // off the end of the stream.
                unsafe { *cp.ops.get_unchecked(pc) }
            };
            pc += 1;
            match op {
                Op::Tick(n) => tick!(n),
                Op::BumpSite(i) => self.sites[i as usize] += 1,
                Op::BumpFunc(f) => self.func_counts[f as usize] += 1,
                Op::BumpBranch { branch, taken } => self.bump_branch(branch, taken),
                Op::Mov { dst, src } => {
                    let v = self.reg(src);
                    self.set_reg(dst, v);
                }
                Op::Const { dst, v } => self.set_reg(dst, v),
                Op::LeaLocal { dst, off } => {
                    let addr = STACK_BASE + (self.fp + off as usize) as u64;
                    self.set_reg(dst, Value::Ptr(addr));
                }
                Op::LoadLocal { dst, off } => {
                    let v = self.local(off);
                    self.set_reg(dst, v);
                }
                Op::LoadLocal2 { dst, off_a, off_b } => {
                    let a = self.local(off_a);
                    let b = self.local(off_b);
                    self.set_reg(dst, a);
                    self.set_reg(dst + 1, b);
                }
                Op::LoadLocalImm { dst, off, imm } => {
                    let a = self.local(off);
                    self.set_reg(dst, a);
                    self.set_reg(dst + 1, Value::Int(imm));
                }
                Op::StoreLocal {
                    off,
                    src,
                    class,
                    dst,
                } => {
                    let v = convert_for_class(class, self.reg(src));
                    self.set_local(off, v);
                    self.set_reg(dst, v);
                }
                Op::LoadGlobal { dst, idx } => {
                    let v = self.global(idx);
                    if T::ACTIVE {
                        self.tap.access(Self::global_addr(idx));
                    }
                    self.set_reg(dst, v);
                }
                Op::StoreGlobal {
                    idx,
                    src,
                    class,
                    dst,
                } => {
                    let v = convert_for_class(class, self.reg(src));
                    self.set_global(idx, v);
                    if T::ACTIVE {
                        self.tap.access(Self::global_addr(idx));
                    }
                    self.set_reg(dst, v);
                }
                Op::Load { dst, addr, tick } => {
                    tick!(tick);
                    let v = self.load(self.reg(addr).to_ptr())?;
                    self.set_reg(dst, v);
                }
                Op::Store {
                    addr,
                    src,
                    class,
                    dst,
                    tick,
                } => {
                    tick!(tick);
                    let v = convert_for_class(class, self.reg(src));
                    self.store(self.reg(addr).to_ptr(), v)?;
                    self.set_reg(dst, v);
                }
                Op::CopyWords {
                    dst_addr,
                    src,
                    n,
                    dst,
                    tick,
                } => {
                    tick!(tick);
                    let d = self.reg(dst_addr).to_ptr();
                    let s = self.reg(src).to_ptr();
                    self.copy_words(d, s, n as usize)?;
                    self.set_reg(dst, Value::Ptr(d));
                }
                Op::InitWordsLocal { off, img } => {
                    let img = &self.cp.images[img as usize];
                    let base = self.fp + off as usize;
                    self.stack[base..base + img.len()].copy_from_slice(img);
                }
                Op::ZeroLocal { off, len } => {
                    let base = self.fp + off as usize;
                    self.stack[base..base + len as usize].fill(Value::Int(0));
                }
                Op::ToPtr { dst, src } => {
                    let v = Value::Ptr(self.reg(src).to_ptr());
                    self.set_reg(dst, v);
                }
                Op::Bool { dst, src } => {
                    let v = Value::Int(self.reg(src).truthy() as i64);
                    self.set_reg(dst, v);
                }
                Op::LogicNot { dst, src } => {
                    let v = Value::Int(!self.reg(src).truthy() as i64);
                    self.set_reg(dst, v);
                }
                Op::Neg { dst, src } => {
                    let v = match self.reg(src) {
                        Value::Float(f) => Value::Float(-f),
                        other => Value::Int(other.to_int().wrapping_neg()),
                    };
                    self.set_reg(dst, v);
                }
                Op::BitNot { dst, src } => {
                    let v = Value::Int(!self.reg(src).to_int());
                    self.set_reg(dst, v);
                }
                Op::Conv { dst, src, class } => {
                    let v = convert_for_class(class, self.reg(src));
                    self.set_reg(dst, v);
                }
                Op::IndexAddr {
                    dst,
                    base,
                    idx,
                    elem,
                } => {
                    let b = self.reg(base).to_ptr();
                    let i = self.reg(idx).to_int();
                    let addr = b.wrapping_add_signed(i.wrapping_mul(elem as i64));
                    self.set_reg(dst, Value::Ptr(addr));
                }
                Op::IndexAddrLL {
                    dst,
                    off_a,
                    off_b,
                    elem,
                } => {
                    let b = self.local(off_a).to_ptr();
                    let i = self.local(off_b).to_int();
                    let addr = b.wrapping_add_signed(i.wrapping_mul(elem as i64));
                    self.set_reg(dst, Value::Ptr(addr));
                }
                Op::IndexAddrPL {
                    dst,
                    base,
                    idx_off,
                    elem,
                } => {
                    let i = self.local(idx_off).to_int();
                    let addr = base.wrapping_add_signed(i.wrapping_mul(elem as i64));
                    self.set_reg(dst, Value::Ptr(addr));
                }
                Op::IndexAddrLeaL {
                    dst,
                    lea_off,
                    idx_off,
                    elem,
                } => {
                    let b = STACK_BASE + (self.fp + lea_off as usize) as u64;
                    let i = self.local(idx_off).to_int();
                    let addr = b.wrapping_add_signed(i.wrapping_mul(elem as i64));
                    self.set_reg(dst, Value::Ptr(addr));
                }
                Op::LoadIdx {
                    dst,
                    base,
                    idx,
                    elem,
                    tick,
                } => {
                    tick!(tick);
                    let b = self.reg(base).to_ptr();
                    let i = self.reg(idx).to_int();
                    let v = self.load(b.wrapping_add_signed(i.wrapping_mul(elem as i64)))?;
                    self.set_reg(dst, v);
                }
                Op::LoadIdxLL {
                    dst,
                    off_a,
                    off_b,
                    elem,
                    tick,
                } => {
                    tick!(tick);
                    let b = self.local(off_a).to_ptr();
                    let i = self.local(off_b).to_int();
                    let v = self.load(b.wrapping_add_signed(i.wrapping_mul(elem as i64)))?;
                    self.set_reg(dst, v);
                }
                Op::LoadIdxPL {
                    dst,
                    base,
                    idx_off,
                    elem,
                    tick,
                } => {
                    tick!(tick);
                    let i = self.local(idx_off).to_int();
                    let v = self.load(base.wrapping_add_signed(i.wrapping_mul(elem as i64)))?;
                    self.set_reg(dst, v);
                }
                Op::LoadIdxLeaL {
                    dst,
                    lea_off,
                    idx_off,
                    elem,
                    tick,
                } => {
                    tick!(tick);
                    let b = STACK_BASE + (self.fp + lea_off as usize) as u64;
                    let i = self.local(idx_off).to_int();
                    let v = self.load(b.wrapping_add_signed(i.wrapping_mul(elem as i64)))?;
                    self.set_reg(dst, v);
                }
                Op::MemberAddr {
                    dst,
                    src,
                    off,
                    tick,
                } => {
                    tick!(tick);
                    let base = self.reg(src).to_ptr();
                    if base == 0 {
                        return Err(RuntimeError::NullDeref.into());
                    }
                    self.set_reg(dst, Value::Ptr(base + off as u64));
                }
                Op::IncDecLocal {
                    dst,
                    off,
                    delta,
                    post,
                } => {
                    let old = self.local(off);
                    let new = incdec(old, delta);
                    self.set_local(off, new);
                    self.set_reg(dst, if post { old } else { new });
                }
                Op::IncDecGlobal {
                    dst,
                    idx,
                    delta,
                    post,
                } => {
                    let old = self.global(idx);
                    if T::ACTIVE {
                        self.tap.access(Self::global_addr(idx));
                    }
                    let new = incdec(old, delta);
                    self.set_global(idx, new);
                    if T::ACTIVE {
                        self.tap.access(Self::global_addr(idx));
                    }
                    self.set_reg(dst, if post { old } else { new });
                }
                Op::IncDec {
                    dst,
                    addr,
                    delta,
                    post,
                    tick,
                } => {
                    tick!(tick);
                    let a = self.reg(addr).to_ptr();
                    let old = self.load(a)?;
                    let new = incdec(old, delta);
                    self.store(a, new)?;
                    self.set_reg(dst, if post { old } else { new });
                }
                Op::Arith {
                    dst,
                    a,
                    b,
                    mode,
                    tick,
                } => {
                    tick!(tick);
                    let v = arith(mode, self.reg(a), self.reg(b))?;
                    self.set_reg(dst, v);
                }
                Op::ArithLL {
                    dst,
                    off_a,
                    off_b,
                    mode,
                    tick,
                } => {
                    tick!(tick);
                    let a = self.local(off_a);
                    let b = self.local(off_b);
                    let v = arith(mode, a, b)?;
                    self.set_reg(dst, v);
                }
                Op::ArithLI {
                    dst,
                    off,
                    imm,
                    mode,
                    tick,
                } => {
                    tick!(tick);
                    let a = self.local(off);
                    let v = arith(mode, a, Value::Int(imm as i64))?;
                    self.set_reg(dst, v);
                }
                Op::ArithRL {
                    dst,
                    off,
                    mode,
                    tick,
                } => {
                    tick!(tick);
                    let b = self.local(off);
                    let v = arith(mode, self.reg(dst), b)?;
                    self.set_reg(dst, v);
                }
                Op::ArithRI {
                    dst,
                    imm,
                    mode,
                    tick,
                } => {
                    tick!(tick);
                    let v = arith(mode, self.reg(dst), Value::Int(imm as i64))?;
                    self.set_reg(dst, v);
                }
                Op::StoreRR {
                    off,
                    a,
                    b,
                    mode,
                    class,
                    dst,
                } => {
                    let v = convert_for_class(class, arith(mode, self.reg(a), self.reg(b))?);
                    self.set_local(off, v);
                    self.set_reg(dst, v);
                }
                Op::StoreLL {
                    off,
                    off_a,
                    off_b,
                    mode,
                    class,
                    dst,
                } => {
                    let a = self.local(off_a);
                    let b = self.local(off_b);
                    let v = convert_for_class(class, arith(mode, a, b)?);
                    self.set_local(off, v);
                    self.set_reg(dst, v);
                }
                Op::StoreLI {
                    off,
                    off_a,
                    imm,
                    mode,
                    class,
                    dst,
                } => {
                    let a = self.local(off_a);
                    let v = convert_for_class(class, arith(mode, a, Value::Int(imm as i64))?);
                    self.set_local(off, v);
                    self.set_reg(dst, v);
                }
                Op::StoreRL {
                    off,
                    off_b,
                    mode,
                    class,
                    dst,
                } => {
                    let b = self.local(off_b);
                    let v = convert_for_class(class, arith(mode, self.reg(dst), b)?);
                    self.set_local(off, v);
                    self.set_reg(dst, v);
                }
                Op::StoreRI {
                    off,
                    imm,
                    mode,
                    class,
                    dst,
                } => {
                    let a = self.reg(dst);
                    let v = convert_for_class(class, arith(mode, a, Value::Int(imm as i64))?);
                    self.set_local(off, v);
                    self.set_reg(dst, v);
                }
                Op::RmwLocal {
                    off,
                    src,
                    mode,
                    class,
                    dst,
                    tick,
                } => {
                    tick!(tick);
                    let cur = self.local(off);
                    let v = convert_for_class(class, arith(mode, cur, self.reg(src))?);
                    self.set_local(off, v);
                    self.set_reg(dst, v);
                }
                Op::RmwGlobal {
                    idx,
                    src,
                    mode,
                    class,
                    dst,
                    tick,
                } => {
                    tick!(tick);
                    let cur = self.global(idx);
                    if T::ACTIVE {
                        self.tap.access(Self::global_addr(idx));
                    }
                    let v = convert_for_class(class, arith(mode, cur, self.reg(src))?);
                    self.set_global(idx, v);
                    if T::ACTIVE {
                        self.tap.access(Self::global_addr(idx));
                    }
                    self.set_reg(dst, v);
                }
                Op::Rmw {
                    addr,
                    src,
                    mode,
                    class,
                    dst,
                    tick,
                } => {
                    tick!(tick);
                    let a = self.reg(addr).to_ptr();
                    let cur = self.load(a)?;
                    let v = convert_for_class(class, arith(mode, cur, self.reg(src))?);
                    self.store(a, v)?;
                    self.set_reg(dst, v);
                }
                Op::Jump { target, tick } => {
                    tick!(tick);
                    pc = target as usize;
                }
                Op::JumpIfFalse { src, target, tick } => {
                    tick!(tick);
                    if !self.reg(src).truthy() {
                        pc = target as usize;
                    }
                }
                Op::JumpIfTrue { src, target, tick } => {
                    tick!(tick);
                    if self.reg(src).truthy() {
                        pc = target as usize;
                    }
                }
                Op::CondBranch {
                    src,
                    branch,
                    else_target,
                    tick,
                } => {
                    tick!(tick);
                    let taken = self.reg(src).truthy();
                    self.bump_branch(branch, taken);
                    if !taken {
                        pc = else_target as usize;
                    }
                }
                Op::CmpBranchLL {
                    off_a,
                    off_b,
                    op,
                    branch,
                    else_target,
                    tick,
                } => {
                    tick!(tick);
                    let a = self.local(off_a);
                    let b = self.local(off_b);
                    let taken = cmp_vals(op, a, b);
                    self.bump_branch(branch, taken);
                    if !taken {
                        pc = else_target as usize;
                    }
                }
                Op::CmpBranchLI {
                    off,
                    imm,
                    op,
                    branch,
                    else_target,
                    tick,
                } => {
                    tick!(tick);
                    let a = self.local(off);
                    let taken = cmp_vals(op, a, Value::Int(imm as i64));
                    self.bump_branch(branch, taken);
                    if !taken {
                        pc = else_target as usize;
                    }
                }
                Op::CmpBranchRR {
                    a,
                    b,
                    op,
                    branch,
                    else_target,
                    tick,
                } => {
                    tick!(tick);
                    let taken = cmp_vals(op, self.reg(a), self.reg(b));
                    self.bump_branch(branch, taken);
                    if !taken {
                        pc = else_target as usize;
                    }
                }
                Op::CmpBranchRL {
                    a,
                    off,
                    op,
                    branch,
                    else_target,
                    tick,
                } => {
                    tick!(tick);
                    let b = self.local(off);
                    let taken = cmp_vals(op, self.reg(a), b);
                    self.bump_branch(branch, taken);
                    if !taken {
                        pc = else_target as usize;
                    }
                }
                Op::CmpBranchRI {
                    a,
                    imm,
                    op,
                    branch,
                    else_target,
                    tick,
                } => {
                    tick!(tick);
                    let taken = cmp_vals(op, self.reg(a), Value::Int(imm as i64));
                    self.bump_branch(branch, taken);
                    if !taken {
                        pc = else_target as usize;
                    }
                }
                Op::EdgeJump { edge, target, tick } => {
                    tick!(tick);
                    self.bump_edge(edge);
                    pc = target as usize;
                }
                Op::SwitchJump { src, table, tick } => {
                    tick!(tick);
                    let v = self.reg(src).to_int();
                    pc = match &cp.switch_tables[table as usize] {
                        SwitchTable::Dense {
                            min,
                            targets,
                            default,
                        } => {
                            let off = v as i128 - *min as i128;
                            if off >= 0 && (off as usize) < targets.len() {
                                let t = targets[off as usize];
                                if t == NONE32 {
                                    *default as usize
                                } else {
                                    t as usize
                                }
                            } else {
                                *default as usize
                            }
                        }
                        SwitchTable::Sorted {
                            keys,
                            targets,
                            default,
                        } => match keys.binary_search(&v) {
                            Ok(i) => targets[i] as usize,
                            Err(_) => *default as usize,
                        },
                    };
                }
                Op::CheckFn { src, tick } => {
                    tick!(tick);
                    if !matches!(self.reg(src), Value::Fn(_)) {
                        return Err(RuntimeError::NotAFunction.into());
                    }
                }
                Op::CallDirect {
                    func,
                    argbase,
                    nargs,
                    dst,
                    tick,
                } => {
                    tick!(tick);
                    self.func_cost[self.cur_fn] += cost_acc;
                    cost_acc = 0;
                    pc = self.enter(func as usize, argbase, nargs, dst, pc)?;
                }
                Op::CallIndirect {
                    callee,
                    argbase,
                    nargs,
                    dst,
                    tick,
                } => {
                    tick!(tick);
                    let Value::Fn(fid) = self.reg(callee) else {
                        return Err(RuntimeError::NotAFunction.into());
                    };
                    let f = fid.0 as usize;
                    if cp.funcs[f].entry == NONE32 {
                        return Err(RuntimeError::Undefined {
                            name: cp.funcs[f].name.clone(),
                        }
                        .into());
                    }
                    self.func_cost[self.cur_fn] += cost_acc;
                    cost_acc = 0;
                    pc = self.enter(f, argbase, nargs, dst, pc)?;
                }
                Op::CallBuiltin {
                    b,
                    argbase,
                    nargs,
                    dst,
                    tick,
                } => {
                    tick!(tick);
                    self.func_cost[self.cur_fn] += CALL_COST;
                    match self.builtin(b, argbase as usize, nargs as usize) {
                        Ok(v) => self.set_reg(dst, v),
                        Err(abort) => {
                            // `exit()` surfaces as an outcome, so the
                            // locals must be visible to `execute`.
                            self.steps = steps;
                            self.func_cost[self.cur_fn] += cost_acc;
                            self.exit_pc = pc - 1;
                            return Err(abort);
                        }
                    }
                }
                Op::Ret { src, tick } => {
                    tick!(tick);
                    let v = self.reg(src);
                    self.func_cost[self.cur_fn] += cost_acc;
                    cost_acc = 0;
                    match self.frames.pop() {
                        None => {
                            self.steps = steps;
                            return Ok(v.to_int());
                        }
                        Some(fr) => {
                            self.stack.truncate(self.fp);
                            self.depth -= 1;
                            self.fp = fr.fp;
                            self.rp = fr.rp;
                            self.cur_fn = fr.func;
                            pc = fr.ret_pc;
                            self.regs[fr.rp + fr.ret_dst as usize] = v;
                        }
                    }
                }
                Op::Fail(i) => {
                    return Err(cp.fails[i as usize].clone().into());
                }

                // ----- mined superinstructions -----
                // Each replicates its source pair's effects in order;
                // only the dispatch (one tick instead of two) differs.
                Op::ConstJump {
                    dst,
                    imm,
                    target,
                    tick,
                } => {
                    tick!(tick);
                    self.set_reg(dst, Value::Int(imm as i64));
                    pc = target as usize;
                }
                Op::ConstRet { imm, tick } => {
                    tick!(tick);
                    let v = Value::Int(imm as i64);
                    self.func_cost[self.cur_fn] += cost_acc;
                    cost_acc = 0;
                    match self.frames.pop() {
                        None => {
                            self.steps = steps;
                            return Ok(v.to_int());
                        }
                        Some(fr) => {
                            self.stack.truncate(self.fp);
                            self.depth -= 1;
                            self.fp = fr.fp;
                            self.rp = fr.rp;
                            self.cur_fn = fr.func;
                            pc = fr.ret_pc;
                            self.regs[fr.rp + fr.ret_dst as usize] = v;
                        }
                    }
                }
                Op::StoreLEdge {
                    off,
                    src,
                    class,
                    edge,
                    target,
                    tick,
                } => {
                    tick!(tick);
                    let v = convert_for_class(class, self.reg(src));
                    self.set_local(off, v);
                    self.set_reg(src, v);
                    self.bump_edge(edge);
                    pc = target as usize;
                }
                Op::IncDecLEdge {
                    off,
                    dst,
                    delta,
                    edge,
                    target,
                    tick,
                } => {
                    tick!(tick);
                    let new = incdec(self.local(off), delta as i64);
                    self.set_local(off, new);
                    self.set_reg(dst, new);
                    self.bump_edge(edge);
                    pc = target as usize;
                }
                Op::LoadLBranch {
                    off,
                    dst,
                    branch,
                    else_target,
                    tick,
                } => {
                    tick!(tick);
                    let v = self.local(off);
                    self.set_reg(dst, v);
                    let taken = v.truthy();
                    self.bump_branch(branch, taken);
                    if !taken {
                        pc = else_target as usize;
                    }
                }
                Op::ArithGI {
                    dst,
                    idx,
                    imm,
                    mode,
                    tick,
                } => {
                    tick!(tick);
                    let g = self.global(idx);
                    if T::ACTIVE {
                        self.tap.access(Self::global_addr(idx));
                    }
                    let v = arith(mode, g, Value::Int(imm as i64))?;
                    self.set_reg(dst, v);
                }
                Op::CmpBranchRCI {
                    a,
                    dst,
                    imm,
                    op,
                    branch,
                    else_target,
                    tick,
                } => {
                    tick!(tick);
                    self.set_reg(dst, Value::Int(imm as i64));
                    let taken = cmp_vals(op, self.reg(a), Value::Int(imm as i64));
                    self.bump_branch(branch, taken);
                    if !taken {
                        pc = else_target as usize;
                    }
                }
                Op::ArithRLJumpF {
                    dst,
                    off,
                    mode,
                    target,
                    tick,
                } => {
                    tick!(tick);
                    let b = self.local(off);
                    let v = arith(mode, self.reg(dst), b)?;
                    self.set_reg(dst, v);
                    if !v.truthy() {
                        pc = target as usize;
                    }
                }
                Op::LoadIdxLR {
                    dst,
                    off,
                    idx,
                    elem,
                    tick,
                } => {
                    tick!(tick);
                    let b = self.local(off).to_ptr();
                    let i = self.reg(idx).to_int();
                    let v = self.load(b.wrapping_add_signed(i.wrapping_mul(elem as i64)))?;
                    self.set_reg(dst, v);
                }
            }
        }
    }

    // ----- builtins -----

    /// Argument `i`, defaulting to `Int(0)` past the end (the AST
    /// interpreter's `arg()` helper behaves identically).
    fn barg(&self, argbase: usize, nargs: usize, i: usize) -> Value {
        if i < nargs {
            self.regs[self.rp + argbase + i]
        } else {
            Value::Int(0)
        }
    }

    fn builtin(&mut self, b: Builtin, argbase: usize, nargs: usize) -> Result<Value, VmAbort> {
        // Hoisted up front so the match arms can split-borrow the
        // string buffers (no builtin takes more than three args).
        let args = [
            self.barg(argbase, nargs, 0),
            self.barg(argbase, nargs, 1),
            self.barg(argbase, nargs, 2),
        ];
        let arg = |i: usize| args[i];
        Ok(match b {
            Builtin::Printf => {
                let fmt_ptr = arg(0).to_ptr();
                read_cs(
                    &mut *self.tap,
                    &self.data,
                    &self.stack,
                    fmt_ptr,
                    &mut self.sbuf_a,
                )?;
                let lo = self.rp + argbase + 1.min(nargs);
                let hi = self.rp + argbase + nargs;
                format_into(
                    &mut *self.tap,
                    &self.data,
                    &self.stack,
                    &self.sbuf_a,
                    &self.regs[lo..hi],
                    &mut self.fmt_out,
                    &mut self.sbuf_b,
                )?;
                self.output.extend_from_slice(self.fmt_out.as_bytes());
                Value::Int(self.fmt_out.len() as i64)
            }
            Builtin::Sprintf => {
                let buf = arg(0).to_ptr();
                let fmt_ptr = arg(1).to_ptr();
                read_cs(
                    &mut *self.tap,
                    &self.data,
                    &self.stack,
                    fmt_ptr,
                    &mut self.sbuf_a,
                )?;
                let lo = self.rp + argbase + 2.min(nargs);
                let hi = self.rp + argbase + nargs;
                format_into(
                    &mut *self.tap,
                    &self.data,
                    &self.stack,
                    &self.sbuf_a,
                    &self.regs[lo..hi],
                    &mut self.fmt_out,
                    &mut self.sbuf_b,
                )?;
                write_cs(
                    &mut *self.tap,
                    &mut self.data,
                    &mut self.stack,
                    buf,
                    &self.fmt_out,
                )?;
                Value::Int(self.fmt_out.len() as i64)
            }
            Builtin::Putchar => {
                self.output.push(arg(0).to_int() as u8);
                arg(0)
            }
            Builtin::Puts => {
                read_cs(
                    &mut *self.tap,
                    &self.data,
                    &self.stack,
                    arg(0).to_ptr(),
                    &mut self.sbuf_a,
                )?;
                self.output.extend_from_slice(self.sbuf_a.as_bytes());
                self.output.push(b'\n');
                Value::Int(0)
            }
            Builtin::Getchar => {
                if self.input_pos < self.input.len() {
                    let c = self.input[self.input_pos];
                    self.input_pos += 1;
                    Value::Int(c as i64)
                } else {
                    Value::Int(-1)
                }
            }
            Builtin::Malloc => {
                let n = arg(0).to_int().max(1) as usize;
                Value::Ptr(self.alloc_static(n))
            }
            Builtin::Calloc => {
                let n = (arg(0).to_int().max(0) as usize) * (arg(1).to_int().max(1) as usize);
                Value::Ptr(self.alloc_static(n.max(1)))
            }
            Builtin::Free => Value::Int(0),
            Builtin::Memset => {
                let p = arg(0).to_ptr();
                let v = arg(1).to_int();
                let n = arg(2).to_int().max(0) as u64;
                for i in 0..n {
                    self.store(p + i, Value::Int(v))?;
                }
                Value::Ptr(p)
            }
            Builtin::Memcpy => {
                let d = arg(0).to_ptr();
                let s = arg(1).to_ptr();
                let n = arg(2).to_int().max(0) as usize;
                self.copy_words(d, s, n)?;
                Value::Ptr(d)
            }
            Builtin::Strlen => {
                read_cs(
                    &mut *self.tap,
                    &self.data,
                    &self.stack,
                    arg(0).to_ptr(),
                    &mut self.sbuf_a,
                )?;
                Value::Int(self.sbuf_a.len() as i64)
            }
            Builtin::Strcpy => {
                let d = arg(0).to_ptr();
                read_cs(
                    &mut *self.tap,
                    &self.data,
                    &self.stack,
                    arg(1).to_ptr(),
                    &mut self.sbuf_a,
                )?;
                write_cs(
                    &mut *self.tap,
                    &mut self.data,
                    &mut self.stack,
                    d,
                    &self.sbuf_a,
                )?;
                Value::Ptr(d)
            }
            Builtin::Strncpy => {
                let d = arg(0).to_ptr();
                read_cs(
                    &mut *self.tap,
                    &self.data,
                    &self.stack,
                    arg(1).to_ptr(),
                    &mut self.sbuf_a,
                )?;
                let n = arg(2).to_int().max(0) as usize;
                // Byte length of the first `n` chars (chars ≥ 128 are
                // two UTF-8 bytes — the oracle's `chars().take(n)`
                // then byte-wise copy does exactly this).
                let s = &self.sbuf_a;
                let byte_end = s.char_indices().nth(n).map(|(i, _)| i).unwrap_or(s.len());
                for i in 0..byte_end {
                    let b2 = s.as_bytes()[i];
                    store_mem(
                        &mut *self.tap,
                        &mut self.data,
                        &mut self.stack,
                        d + i as u64,
                        Value::Int(b2 as i64),
                    )?;
                }
                for i in byte_end..n {
                    self.store(d + i as u64, Value::Int(0))?;
                }
                Value::Ptr(d)
            }
            Builtin::Strcmp => {
                read_cs(
                    &mut *self.tap,
                    &self.data,
                    &self.stack,
                    arg(0).to_ptr(),
                    &mut self.sbuf_a,
                )?;
                read_cs(
                    &mut *self.tap,
                    &self.data,
                    &self.stack,
                    arg(1).to_ptr(),
                    &mut self.sbuf_b,
                )?;
                Value::Int(ord_to_int(self.sbuf_a.cmp(&self.sbuf_b)))
            }
            Builtin::Strncmp => {
                let n = arg(2).to_int().max(0) as usize;
                read_cs(
                    &mut *self.tap,
                    &self.data,
                    &self.stack,
                    arg(0).to_ptr(),
                    &mut self.sbuf_a,
                )?;
                read_cs(
                    &mut *self.tap,
                    &self.data,
                    &self.stack,
                    arg(1).to_ptr(),
                    &mut self.sbuf_b,
                )?;
                // Char-sequence order equals the order of the collected
                // strings (UTF-8 preserves code-point order).
                let ord = self.sbuf_a.chars().take(n).cmp(self.sbuf_b.chars().take(n));
                Value::Int(ord_to_int(ord))
            }
            Builtin::Strcat => {
                let d = arg(0).to_ptr();
                read_cs(&mut *self.tap, &self.data, &self.stack, d, &mut self.sbuf_a)?;
                read_cs(
                    &mut *self.tap,
                    &self.data,
                    &self.stack,
                    arg(1).to_ptr(),
                    &mut self.sbuf_b,
                )?;
                let at = d + self.sbuf_a.len() as u64;
                write_cs(
                    &mut *self.tap,
                    &mut self.data,
                    &mut self.stack,
                    at,
                    &self.sbuf_b,
                )?;
                Value::Ptr(d)
            }
            Builtin::Atoi => {
                read_cs(
                    &mut *self.tap,
                    &self.data,
                    &self.stack,
                    arg(0).to_ptr(),
                    &mut self.sbuf_a,
                )?;
                Value::Int(self.sbuf_a.trim().parse::<i64>().unwrap_or(0))
            }
            Builtin::Abs => Value::Int(arg(0).to_int().wrapping_abs()),
            Builtin::Exit => return Err(VmAbort::Exit(arg(0).to_int())),
            Builtin::Abort => return Err(RuntimeError::Aborted.into()),
            Builtin::Rand => {
                // xorshift64*: deterministic across runs.
                let mut x = self.rng;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rng = x;
                Value::Int(((x.wrapping_mul(0x2545F4914F6CDD1D)) >> 33) as i64)
            }
            Builtin::Srand => {
                self.rng = (arg(0).to_int() as u64) | 1;
                Value::Int(0)
            }
            Builtin::Sqrt => Value::Float(arg(0).to_float().sqrt()),
            Builtin::Fabs => Value::Float(arg(0).to_float().abs()),
            Builtin::Sin => Value::Float(arg(0).to_float().sin()),
            Builtin::Cos => Value::Float(arg(0).to_float().cos()),
            Builtin::Exp => Value::Float(arg(0).to_float().exp()),
            Builtin::Log => Value::Float(arg(0).to_float().ln()),
            Builtin::Pow => Value::Float(arg(0).to_float().powf(arg(1).to_float())),
            Builtin::Floor => Value::Float(arg(0).to_float().floor()),
            Builtin::Ceil => Value::Float(arg(0).to_float().ceil()),
        })
    }
}

fn incdec(old: Value, delta: i64) -> Value {
    match old {
        Value::Float(f) => Value::Float(f + delta as f64),
        Value::Ptr(p) => Value::Ptr(p.wrapping_add_signed(delta)),
        other => Value::Int(other.to_int().wrapping_add(delta)),
    }
}

fn ord_to_int(o: Ordering) -> i64 {
    match o {
        Ordering::Less => -1,
        Ordering::Equal => 0,
        Ordering::Greater => 1,
    }
}

/// A comparison's truth value; the float/int split stays dynamic and
/// NaN compares false, exactly as in `Interp::arith`. Public (via
/// `bytecode`) so the optimizer folds constants with the VM's exact
/// semantics. Always inlined: every compare-and-branch op calls it,
/// and as an out-of-line call from the dispatch loop it cost more than
/// the comparison.
#[inline(always)]
pub fn cmp_vals(op: BinOp, va: Value, vb: Value) -> bool {
    use BinOp::*;
    let cmp = if matches!(va, Value::Float(_)) || matches!(vb, Value::Float(_)) {
        // IEEE comparison is the *specified* behaviour here (C source
        // semantics), not an ordering bug — see clippy.toml.
        #[allow(clippy::disallowed_methods)]
        va.to_float().partial_cmp(&vb.to_float())
    } else {
        Some(va.to_int().cmp(&vb.to_int()))
    };
    let Some(ord) = cmp else {
        return false; // NaN compares false
    };
    match op {
        Lt => ord.is_lt(),
        Le => ord.is_le(),
        Gt => ord.is_gt(),
        Ge => ord.is_ge(),
        Eq => ord.is_eq(),
        Ne => ord.is_ne(),
        _ => unreachable!("non-comparison in Cmp mode"),
    }
}

/// Binary arithmetic with the compile-time mode; the float/int split
/// stays dynamic, exactly as in `Interp::arith`. Public (via
/// `bytecode`) so the optimizer folds constants with the VM's exact
/// semantics. Always inlined into the dispatch loop, where the
/// out-of-line call (and its `Result` returned through memory) cost
/// more than the arithmetic.
#[inline(always)]
pub fn arith(mode: ArithMode, va: Value, vb: Value) -> Result<Value, RuntimeError> {
    use BinOp::*;
    Ok(match mode {
        ArithMode::Cmp(op) => Value::Int(cmp_vals(op, va, vb) as i64),
        ArithMode::PtrAddL(elem) => Value::Ptr(
            va.to_ptr()
                .wrapping_add_signed(vb.to_int().wrapping_mul(elem as i64)),
        ),
        ArithMode::PtrAddR(elem) => Value::Ptr(
            vb.to_ptr()
                .wrapping_add_signed(va.to_int().wrapping_mul(elem as i64)),
        ),
        ArithMode::PtrDiff(elem) => {
            let diff = va.to_ptr() as i64 - vb.to_ptr() as i64;
            Value::Int(diff / elem as i64)
        }
        ArithMode::PtrSubInt(elem) => Value::Ptr(
            va.to_ptr()
                .wrapping_add_signed(-(vb.to_int().wrapping_mul(elem as i64))),
        ),
        ArithMode::Num(op) => match op {
            Add | Sub | Mul | Div
                if matches!(va, Value::Float(_)) || matches!(vb, Value::Float(_)) =>
            {
                let (x, y) = (va.to_float(), vb.to_float());
                Value::Float(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    _ => unreachable!(),
                })
            }
            Add => Value::Int(va.to_int().wrapping_add(vb.to_int())),
            Sub => Value::Int(va.to_int().wrapping_sub(vb.to_int())),
            Mul => Value::Int(va.to_int().wrapping_mul(vb.to_int())),
            Div => {
                let d = vb.to_int();
                if d == 0 {
                    return Err(RuntimeError::DivByZero);
                }
                Value::Int(va.to_int().wrapping_div(d))
            }
            Rem => {
                let d = vb.to_int();
                if d == 0 {
                    return Err(RuntimeError::DivByZero);
                }
                Value::Int(va.to_int().wrapping_rem(d))
            }
            Shl => Value::Int(va.to_int().wrapping_shl((vb.to_int() & 63) as u32)),
            Shr => Value::Int(va.to_int().wrapping_shr((vb.to_int() & 63) as u32)),
            BitAnd => Value::Int(va.to_int() & vb.to_int()),
            BitOr => Value::Int(va.to_int() | vb.to_int()),
            BitXor => Value::Int(va.to_int() ^ vb.to_int()),
            Lt | Le | Gt | Ge | Eq | Ne => unreachable!("comparisons use Cmp mode"),
        },
    })
}

// ----- memory free functions (split borrows with the string buffers) -----
//
// Each takes the tap explicitly so builtins can keep split-borrowing
// the VM's string buffers; the tap fires only on *successful*
// data-segment accesses (`0 < addr < STACK_BASE`), mirroring the AST
// walker's `load`/`store` exactly.

fn load_mem<T: MemTap>(
    tap: &mut T,
    data: &[Value],
    stack: &[Value],
    addr: u64,
) -> Result<Value, RuntimeError> {
    if addr == 0 {
        return Err(RuntimeError::NullDeref);
    }
    if addr >= STACK_BASE {
        let i = (addr - STACK_BASE) as usize;
        stack
            .get(i)
            .copied()
            .ok_or(RuntimeError::OutOfBounds { addr })
    } else {
        let i = (addr - 1) as usize;
        let v = data
            .get(i)
            .copied()
            .ok_or(RuntimeError::OutOfBounds { addr })?;
        if T::ACTIVE {
            tap.access(addr);
        }
        Ok(v)
    }
}

fn store_mem<T: MemTap>(
    tap: &mut T,
    data: &mut [Value],
    stack: &mut [Value],
    addr: u64,
    v: Value,
) -> Result<(), RuntimeError> {
    if addr == 0 {
        return Err(RuntimeError::NullDeref);
    }
    if addr >= STACK_BASE {
        match stack.get_mut((addr - STACK_BASE) as usize) {
            Some(s) => {
                *s = v;
                Ok(())
            }
            None => Err(RuntimeError::OutOfBounds { addr }),
        }
    } else {
        match data.get_mut((addr - 1) as usize) {
            Some(s) => {
                *s = v;
                if T::ACTIVE {
                    tap.access(addr);
                }
                Ok(())
            }
            None => Err(RuntimeError::OutOfBounds { addr }),
        }
    }
}

/// Read a NUL-terminated string into `out` (cleared first), with the
/// oracle's byte-as-`char` semantics and 1M-word runaway guard.
fn read_cs<T: MemTap>(
    tap: &mut T,
    data: &[Value],
    stack: &[Value],
    mut addr: u64,
    out: &mut String,
) -> Result<(), RuntimeError> {
    out.clear();
    for _ in 0..1_000_000 {
        let c = load_mem(tap, data, stack, addr)?.to_int();
        if c == 0 {
            return Ok(());
        }
        out.push((c as u8) as char);
        addr += 1;
    }
    Err(RuntimeError::Other("unterminated string".into()))
}

fn write_cs<T: MemTap>(
    tap: &mut T,
    data: &mut [Value],
    stack: &mut [Value],
    addr: u64,
    s: &str,
) -> Result<(), RuntimeError> {
    for (i, b) in s.bytes().enumerate() {
        store_mem(tap, data, stack, addr + i as u64, Value::Int(b as i64))?;
    }
    store_mem(tap, data, stack, addr + s.len() as u64, Value::Int(0))
}

/// `printf`-style formatting into `out` (cleared first); `tmp` holds
/// `%s` operands. Mirrors `Interp::format` conversion-for-conversion.
fn format_into<T: MemTap>(
    tap: &mut T,
    data: &[Value],
    stack: &[Value],
    fmt: &str,
    args: &[Value],
    out: &mut String,
    tmp: &mut String,
) -> Result<(), RuntimeError> {
    use std::fmt::Write as _;
    out.clear();
    let mut chars = fmt.chars().peekable();
    let mut next = 0usize;
    let take = |next: &mut usize| -> Value {
        let v = args.get(*next).copied().unwrap_or(Value::Int(0));
        *next += 1;
        v
    };
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        // Skip flags/width/precision; honor the conversion letter.
        let mut conv = None;
        while let Some(&c2) = chars.peek() {
            if c2.is_ascii_digit() || matches!(c2, '-' | '+' | '.' | ' ' | '0' | 'l' | 'h') {
                chars.next();
            } else {
                conv = chars.next();
                break;
            }
        }
        let w = match conv {
            Some('d') | Some('i') | Some('u') => write!(out, "{}", take(&mut next).to_int()),
            Some('x') => write!(out, "{:x}", take(&mut next).to_int()),
            Some('o') => write!(out, "{:o}", take(&mut next).to_int()),
            Some('c') => {
                out.push((take(&mut next).to_int() as u8) as char);
                Ok(())
            }
            Some('s') => {
                read_cs(tap, data, stack, take(&mut next).to_ptr(), tmp)?;
                out.push_str(tmp);
                Ok(())
            }
            Some('f') => write!(out, "{:.6}", take(&mut next).to_float()),
            Some('g') | Some('e') => write!(out, "{}", take(&mut next).to_float()),
            Some('%') => {
                out.push('%');
                Ok(())
            }
            Some(other) => {
                out.push('%');
                out.push(other);
                Ok(())
            }
            None => {
                out.push('%');
                Ok(())
            }
        };
        w.expect("writing to a String cannot fail");
    }
    Ok(())
}
