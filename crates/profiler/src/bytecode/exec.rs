//! The bytecode dispatch loop.
//!
//! A single non-recursive loop over the flat op stream with an
//! explicit frame stack — MiniC recursion no longer nests Rust stack
//! frames, so no oversized interpreter thread is needed. Registers
//! live in one shared vector addressed through a per-frame window
//! base (`rp`). Memory and the C library are the ones the AST walker
//! runs too ([`crate::runtime`]): this file owns only the dispatch.
//!
//! The loop keeps its hot state in locals, which the compiler keeps
//! in machine registers: the pc, the op base, the step budget, the
//! running function's cost mark, and two raw bases, the register
//! window's (`regs.as_mut_ptr() + rp`) and the frame's
//! (`stack.as_mut_ptr() + fp`). Each op is matched in place (`&Op`),
//! so an arm loads only its own fields. One countdown budget stands
//! for both the step count (`max_steps - budget`) and the running
//! function's pending cost (`mark - budget`), so a tick is one
//! subtraction and one branch. The bases are re-derived (`rebase!`)
//! after the ops that can move the register file or the stack or
//! switch activations — calls, `Ret`/`ConstRet` and `CallBuiltin` —
//! and nothing in between makes a reference to either vector's
//! slice: `Memory` reaches stack words through `Vec::as_mut_ptr` too.
//! Debug builds assert both bases at every dispatch. Ops that the
//! suite and Fig 10 rarely or never dispatch keep their bodies in
//! `#[cold]` functions.

use super::place::{derive_branches, rebuild};
use super::{ArithMode, CompiledProgram, Op, ParamBind, NONE32};
use crate::profile::Profile;
use crate::reuse::MemTap;
use crate::runtime::{
    convert_for_class, Abort, Libc, Memory, RunConfig, RunOutcome, RuntimeError, StrBufs, Value,
    CALL_COST, STACK_BASE,
};
use minic::ast::BinOp;
use minic::types::MAX_STATIC_WORDS;
use std::cell::Cell;

struct Frame {
    ret_pc: usize,
    ret_dst: u16,
    func: usize,
    fp: usize,
    rp: usize,
}

struct Vm<'a, T: MemTap> {
    cp: &'a CompiledProgram,
    /// The address space. Its tap is the data-segment access probe
    /// ([`NoTap`](crate::reuse::NoTap) in normal runs — the
    /// `T::ACTIVE` checks below monomorphize away entirely).
    mem: Memory<&'a mut T>,
    libc: Libc<'a>,
    regs: Vec<Value>,
    frames: Vec<Frame>,
    fp: usize,
    rp: usize,
    cur_fn: usize,
    steps: u64,
    max_steps: u64,
    depth: usize,
    max_depth: usize,
    /// The pc of the op that called `exit()`, for booking departures.
    exit_pc: usize,
    // Dense profile counters (chord edges only during the run; the
    // rest is rebuilt into a `Profile` at the end).
    edges: Vec<u64>,
    branches: Vec<(u64, u64)>,
    sites: Vec<u64>,
    func_counts: Vec<u64>,
    func_cost: Vec<u64>,
}

/// Recycled per-run VM buffers: the data image copy, stack, register
/// file, frame stack, dense edge counters, the count-rebuild balance
/// array, and builtin string buffers. One run of a ~12k-step
/// generated program otherwise pays ten-plus allocations; each thread
/// keeps one set ([`SCRATCH`]), so a corpus worker re-executing
/// thousands of programs pays them once and then only grows to its
/// high-water mark. Buffers that escape into the [`RunOutcome`]
/// (profile vectors, output) still allocate per run.
#[derive(Default)]
struct ExecScratch {
    data: Vec<Value>,
    stack: Vec<Value>,
    regs: Vec<Value>,
    frames: Vec<Frame>,
    edges: Vec<u64>,
    excess: Vec<i64>,
    strs: StrBufs,
}

impl ExecScratch {
    /// Releases any buffer whose capacity grew past `max_elems`
    /// elements, so a thread that once ran a deep-recursion or
    /// huge-program outlier does not keep its worst case for life.
    fn trim(&mut self, max_elems: usize) {
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
        self.strs.trim(max_elems);
    }

    /// The largest element capacity across the recycled buffers —
    /// what [`ExecScratch::trim`] bounds.
    #[cfg(test)]
    fn high_water(&self) -> usize {
        self.data
            .capacity()
            .max(self.stack.capacity())
            .max(self.regs.capacity())
            .max(self.frames.capacity())
            .max(self.edges.capacity())
            .max(self.excess.capacity())
            .max(self.strs.high_water())
    }
}

/// Cap on recycled buffer capacity (elements): a buffer that grew
/// past it in one run is dropped instead of kept for the thread's
/// lifetime.
const SCRATCH_TRIM_ELEMS: usize = 1 << 20;

thread_local! {
    /// This thread's recycled VM buffers. A run takes them out and
    /// puts them back, trimmed, whether it succeeds or fails.
    static SCRATCH: Cell<ExecScratch> = Cell::new(ExecScratch::default());
}

/// The generic engine: runs `cp` with `tap` observing every
/// data-segment access, on this thread's recycled buffers. With
/// [`NoTap`](crate::reuse::NoTap) this monomorphizes to the probe-free
/// fast path; either way it runs the same unchecked accessors (see
/// the accessor comments below).
pub(super) fn execute<T: MemTap>(
    cp: &CompiledProgram,
    config: &RunConfig,
    tap: &mut T,
) -> Result<RunOutcome, RuntimeError> {
    let mut scratch = SCRATCH.take();
    let out = execute_on(cp, config, &mut scratch, tap);
    scratch.trim(SCRATCH_TRIM_ELEMS);
    SCRATCH.set(scratch);
    out
}

/// [`execute`] on the buffers in `scratch`.
fn execute_on<T: MemTap>(
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
    let stack = std::mem::take(&mut scratch.stack);
    let mut regs = std::mem::take(&mut scratch.regs);
    regs.clear();
    let mut frames = std::mem::take(&mut scratch.frames);
    frames.clear();
    let mut edges = std::mem::take(&mut scratch.edges);
    edges.clear();
    edges.resize(cp.edge_keys.len(), 0);
    let mut vm = Vm {
        cp,
        mem: Memory::new(data, stack, tap),
        libc: Libc::new(&config.input, std::mem::take(&mut scratch.strs)),
        regs,
        frames,
        fp: 0,
        rp: 0,
        cur_fn: main.0 as usize,
        steps: 0,
        max_steps: config.max_steps,
        depth: 0,
        max_depth: config.max_call_depth,
        exit_pc: 0,
        edges,
        branches: vec![(0, 0); cp.n_branches],
        sites: vec![0; cp.n_sites],
        func_counts: vec![0; cp.funcs.len()],
        func_cost: vec![0; cp.funcs.len()],
    };
    let run_result = vm.run(main.0 as usize);
    let departures = match run_result {
        Err(Abort::Exit(_)) => vm.live_blocks(),
        _ => Vec::new(),
    };
    let Vm {
        mem,
        libc,
        regs,
        frames,
        mut edges,
        branches,
        sites,
        func_counts,
        func_cost,
        steps,
        ..
    } = vm;
    scratch.data = mem.data;
    scratch.stack = mem.stack;
    scratch.regs = regs;
    scratch.frames = frames;
    scratch.strs = libc.bufs;

    let exit_code = match run_result {
        Ok(code) | Err(Abort::Exit(code)) => code,
        Err(Abort::Error(e)) => {
            // A failed run discards its profile: nothing to rebuild.
            scratch.edges = edges;
            return Err(e);
        }
    };
    let mut profile = Profile {
        block_counts: (cp.counters.iter())
            .map(|plan| vec![0; plan.n_blocks as usize])
            .collect(),
        branch_counts: branches,
        call_site_counts: sites,
        func_counts,
        edge_counts: Vec::new(),
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
        output: libc.output,
        steps,
    })
}

/// Completes `profile` from the run's chord counts in `edges` (see
/// `place.rs`): block counts, tree-edge counts, and the branch counts
/// that follow from edges; each function's counter range is then its
/// edge row. `departures` holds the `(function, block)` of every
/// activation `exit()` left live.
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
    profile.edge_counts = (cp.counters.iter())
        .map(|plan| edges[plan.edges.0 as usize..plan.edges.1 as usize].to_vec())
        .collect();
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
    // ----- globals -----
    //
    // Registers and frame slots are read in `run` through its cached
    // bases. Globals are read here, without bounds checks, traced or
    // not: `CompiledProgram::new`, the image's only constructor, runs
    // `verify`, and every verified global index lies in the data image.
    // Debug builds keep the assertions.

    /// Reads global slot `idx`, one data-segment access for the tap.
    #[inline(always)]
    fn global(&mut self, idx: u32) -> Value {
        if T::ACTIVE {
            self.mem.tap.access(Self::global_addr(idx));
        }
        debug_assert!((idx as usize) < self.mem.data.len());
        // SAFETY: verified global indices address the static image
        // laid out at compile time, and `data` only ever grows (malloc
        // appends).
        unsafe { *self.mem.data.get_unchecked(idx as usize) }
    }

    /// Writes global slot `idx`, one data-segment access for the tap.
    #[inline(always)]
    fn set_global(&mut self, idx: u32, v: Value) {
        if T::ACTIVE {
            self.mem.tap.access(Self::global_addr(idx));
        }
        debug_assert!((idx as usize) < self.mem.data.len());
        // SAFETY: as in `global`.
        unsafe { *self.mem.data.get_unchecked_mut(idx as usize) = v }
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
    ///
    /// Each activation's registers sit above its caller's, so the
    /// register window grows with call depth as the stack does, and it
    /// is held to the same budget: a call whose window would end past
    /// [`MAX_STATIC_WORDS`] registers is [`RuntimeError::StackBudget`],
    /// refused before anything grows. The AST walker keeps no register
    /// file, so this refusal is the VM's alone.
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
        let meta = &self.cp.funcs[f];
        let new_rp = self.rp + self.cp.funcs[self.cur_fn].max_regs as usize;
        let window = new_rp + meta.max_regs as usize;
        if window > MAX_STATIC_WORDS {
            return Err(RuntimeError::StackBudget {
                limit: MAX_STATIC_WORDS,
            });
        }
        let new_fp = self.mem.push_frame(meta.frame_size as usize)?;
        self.depth += 1;
        self.frames.push(Frame {
            ret_pc,
            ret_dst: dst,
            func: self.cur_fn,
            fp: self.fp,
            rp: self.rp,
        });
        self.func_counts[f] += 1;
        self.func_cost[f] += CALL_COST;
        if self.regs.len() < window {
            self.regs.resize(window, Value::Int(0));
        }
        // Bind parameters (structs are copied by value).
        for i in 0..(nargs as usize).min(meta.params.len()) {
            let arg = self.regs[self.rp + argbase as usize + i];
            match self.cp.funcs[f].params[i] {
                ParamBind::Scalar { off, class } => {
                    self.mem.stack[new_fp + off as usize] = convert_for_class(class, arg);
                }
                ParamBind::Agg { off, size } => {
                    let dst_addr = STACK_BASE + (new_fp + off as usize) as u64;
                    self.mem.copy_words(dst_addr, arg.to_ptr(), size as usize)?;
                }
            }
        }
        self.fp = new_fp;
        self.rp = new_rp;
        self.cur_fn = f;
        Ok(self.cp.funcs[f].entry as usize)
    }

    /// Pops the running activation back to its caller: the caller's
    /// frame base, register window and function, and the return pc
    /// and result register. `None` when the running activation is
    /// `main`'s.
    #[inline(always)]
    fn leave(&mut self) -> Option<(usize, u16)> {
        let fr = self.frames.pop()?;
        self.mem.stack.truncate(self.fp);
        self.depth -= 1;
        self.fp = fr.fp;
        self.rp = fr.rp;
        self.cur_fn = fr.func;
        Some((fr.ret_pc, fr.ret_dst))
    }

    // ----- the dispatch loop -----

    fn run(&mut self, main: usize) -> Result<i64, Abort> {
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
        self.mem.push_frame(meta.frame_size as usize)?;
        self.depth = 1;
        self.regs.resize(meta.max_regs as usize, Value::Int(0));
        self.func_counts[main] += 1;
        self.func_cost[main] += CALL_COST;
        self.cur_fn = main;
        self.fp = 0;
        self.rp = 0;

        // The hot VM state lives in locals, so that LLVM keeps it in
        // registers: the pc, the op base, the running activation's
        // register-window and frame bases, and the step budget. They
        // are written back to `self` only where someone can observe
        // them: calls, returns and builtins for the cost, the final
        // return and `exit()` for the step count.
        let cp = self.cp;
        let ops = cp.ops.as_ptr();
        let max_steps = self.max_steps;
        let mut pc = meta.entry as usize;
        // Steps left before the limit: every tick counts it down, so
        // the run has taken `max_steps - budget` steps, and the running
        // function has a pending cost of `mark - budget` that reaches
        // `func_cost` at its next call, return or builtin.
        let mut budget = max_steps;
        let mut mark = budget;
        // `regs` is `self.regs.as_mut_ptr() + rp` and `frame` is
        // `self.mem.stack.as_mut_ptr() + fp`. Both are derived only
        // through `Vec::as_mut_ptr`, which creates no reference to the
        // slice, and nothing between two `rebase!`s makes a `&`/`&mut`
        // slice of either vector (`Memory` reaches stack words the same
        // way). `rebase!` re-derives them after every op that can move
        // either vector or change `rp`/`fp`: calls, returns and
        // builtins. The dispatch head asserts both in debug builds.
        let mut regs: *mut Value;
        let mut frame: *mut Value;

        macro_rules! rebase {
            () => {{
                // SAFETY: `rp + max_regs <= regs.len()` and
                // `fp + frame_size <= stack.len()` for the running
                // activation (`enter`/`run` size both before its first
                // op), so each offset is in bounds or one past the end.
                regs = unsafe { self.regs.as_mut_ptr().add(self.rp) };
                frame = unsafe { self.mem.stack.as_mut_ptr().add(self.fp) };
            }};
        }
        rebase!();

        // The register and frame accessors skip bounds checks, traced
        // or not. They rest on `CompiledProgram::new`, the image's only
        // constructor, which runs `verify`: every register operand is
        // `< max_regs` and every frame offset is `< frame_size`. The
        // dispatch head asserts that `regs` and `frame` are the running
        // activation's bases and that its window and frame lie inside
        // their vectors; each access asserts its operand. Debug builds
        // keep the assertions.
        macro_rules! reg {
            ($r:expr) => {{
                let r = $r as usize;
                debug_assert!(r < cp.funcs[self.cur_fn].max_regs as usize);
                // SAFETY: `r < max_regs` (above).
                unsafe { regs.add(r).read() }
            }};
        }
        macro_rules! set_reg {
            ($r:expr, $v:expr) => {{
                let (r, v) = ($r as usize, $v);
                debug_assert!(r < cp.funcs[self.cur_fn].max_regs as usize);
                // SAFETY: as in `reg!`.
                unsafe { regs.add(r).write(v) }
            }};
        }
        macro_rules! local {
            ($off:expr) => {{
                let off = $off as usize;
                debug_assert!(off < cp.funcs[self.cur_fn].frame_size as usize);
                // SAFETY: `off < frame_size` (above).
                unsafe { frame.add(off).read() }
            }};
        }
        macro_rules! set_local {
            ($off:expr, $v:expr) => {{
                let (off, v) = ($off as usize, $v);
                debug_assert!(off < cp.funcs[self.cur_fn].frame_size as usize);
                // SAFETY: as in `local!`.
                unsafe { frame.add(off).write(v) }
            }};
        }
        macro_rules! lea {
            ($off:expr) => {
                STACK_BASE + (self.fp + $off as usize) as u64
            };
        }

        macro_rules! tick {
            ($n:expr) => {{
                match budget.checked_sub(u64::from($n)) {
                    Some(left) => budget = left,
                    None => return Err(RuntimeError::StepLimit { limit: max_steps }.into()),
                }
            }};
        }
        // Books the running function's pending cost.
        macro_rules! settle {
            () => {{
                self.func_cost[self.cur_fn] += mark - budget;
                mark = budget;
            }};
        }
        macro_rules! ret {
            ($v:expr) => {{
                let v: Value = $v;
                settle!();
                let Some((ret_pc, ret_dst)) = self.leave() else {
                    self.steps = max_steps - budget;
                    return Ok(v.to_int());
                };
                pc = ret_pc;
                rebase!();
                set_reg!(ret_dst, v);
            }};
        }

        loop {
            debug_assert!(pc < cp.ops.len());
            debug_assert!(
                {
                    let f = &cp.funcs[self.cur_fn];
                    regs == self.regs.as_mut_ptr().wrapping_add(self.rp)
                        && frame == self.mem.stack.as_mut_ptr().wrapping_add(self.fp)
                        && self.rp + f.max_regs as usize <= self.regs.len()
                        && self.fp + f.frame_size as usize <= self.mem.stack.len()
                },
                "stale register or frame base at pc {pc}"
            );
            // SAFETY: `pc` is a function's entry, a jump target or the
            // successor of a non-terminating op, and
            // `CompiledProgram::new` verified that every entry and
            // target lies in its function's code and that no function
            // can run off the end of its code. The op is matched in
            // place, so each arm loads only its own fields.
            let op = unsafe { &*ops.add(pc) };
            pc += 1;
            match *op {
                Op::Tick(n) => tick!(n),
                Op::BumpSite(i) => self.sites[i as usize] += 1,
                Op::BumpFunc(f) => self.func_counts[f as usize] += 1,
                Op::BumpBranch { branch, taken } => self.bump_branch(branch, taken),
                Op::Const { dst, v } => set_reg!(dst, v),
                Op::LeaLocal { dst, off } => set_reg!(dst, Value::Ptr(lea!(off))),
                Op::LoadLocal { dst, off } => set_reg!(dst, local!(off)),
                Op::LoadLocal2 { dst, off_a, off_b } => {
                    let a = local!(off_a);
                    let b = local!(off_b);
                    set_reg!(dst, a);
                    set_reg!(dst + 1, b);
                }
                Op::LoadLocalImm { dst, off, imm } => {
                    set_reg!(dst, local!(off));
                    set_reg!(dst + 1, Value::Int(imm));
                }
                Op::StoreLocal {
                    off,
                    src,
                    class,
                    dst,
                } => {
                    let v = convert_for_class(class, reg!(src));
                    set_local!(off, v);
                    set_reg!(dst, v);
                }
                Op::LoadGlobal { dst, idx } => {
                    let v = self.global(idx);
                    set_reg!(dst, v);
                }
                Op::StoreGlobal {
                    idx,
                    src,
                    class,
                    dst,
                } => {
                    let v = convert_for_class(class, reg!(src));
                    self.set_global(idx, v);
                    set_reg!(dst, v);
                }
                Op::Load { dst, addr, tick } => {
                    tick!(tick);
                    let v = self.mem.load(reg!(addr).to_ptr())?;
                    set_reg!(dst, v);
                }
                Op::Store {
                    addr,
                    src,
                    class,
                    dst,
                    tick,
                } => {
                    tick!(tick);
                    let v = convert_for_class(class, reg!(src));
                    self.mem.store(reg!(addr).to_ptr(), v)?;
                    set_reg!(dst, v);
                }
                Op::CopyWords {
                    dst_addr,
                    src,
                    n,
                    dst,
                    tick,
                } => {
                    tick!(tick);
                    let d = reg!(dst_addr).to_ptr();
                    self.copy_words(d, reg!(src).to_ptr(), n)?;
                    set_reg!(dst, Value::Ptr(d));
                }
                Op::InitWordsLocal { off, img } => {
                    let img = &cp.images[img as usize];
                    debug_assert!(
                        off as usize + img.len() <= cp.funcs[self.cur_fn].frame_size as usize
                    );
                    // SAFETY: `verify` holds `off + img.len()` to the
                    // frame size, and `frame` is the running frame.
                    unsafe { init_words(frame.add(off as usize), img) }
                }
                Op::ZeroLocal { off, len } => {
                    for i in off..off + len {
                        set_local!(i, Value::Int(0));
                    }
                }
                Op::ToPtr { dst, src } => set_reg!(dst, Value::Ptr(reg!(src).to_ptr())),
                Op::Bool { dst, src } => set_reg!(dst, Value::Int(reg!(src).truthy() as i64)),
                Op::LogicNot { dst, src } => set_reg!(dst, Value::Int(!reg!(src).truthy() as i64)),
                Op::Neg { dst, src } => {
                    let v = match reg!(src) {
                        Value::Float(f) => Value::Float(-f),
                        other => Value::Int(other.to_int().wrapping_neg()),
                    };
                    set_reg!(dst, v);
                }
                Op::BitNot { dst, src } => set_reg!(dst, Value::Int(!reg!(src).to_int())),
                Op::Conv { dst, src, class } => set_reg!(dst, convert_for_class(class, reg!(src))),
                Op::IndexAddr {
                    dst,
                    base,
                    idx,
                    elem,
                } => {
                    let b = reg!(base).to_ptr();
                    let i = reg!(idx).to_int();
                    set_reg!(dst, Value::Ptr(index(b, i, elem)));
                }
                Op::IndexAddrLL {
                    dst,
                    off_a,
                    off_b,
                    elem,
                } => {
                    let b = local!(off_a).to_ptr();
                    let i = local!(off_b).to_int();
                    set_reg!(dst, Value::Ptr(index(b, i, elem)));
                }
                Op::IndexAddrPL {
                    dst,
                    base,
                    idx_off,
                    elem,
                } => {
                    let i = local!(idx_off).to_int();
                    set_reg!(dst, Value::Ptr(index(base, i, elem)));
                }
                Op::IndexAddrLeaL {
                    dst,
                    lea_off,
                    idx_off,
                    elem,
                } => {
                    let i = local!(idx_off).to_int();
                    set_reg!(dst, Value::Ptr(index(lea!(lea_off), i, elem)));
                }
                Op::LoadIdx {
                    dst,
                    base,
                    idx,
                    elem,
                    tick,
                } => {
                    tick!(tick);
                    let b = reg!(base).to_ptr();
                    let i = reg!(idx).to_int();
                    let v = self.mem.load(index(b, i, elem))?;
                    set_reg!(dst, v);
                }
                Op::LoadIdxLL {
                    dst,
                    off_a,
                    off_b,
                    elem,
                    tick,
                } => {
                    tick!(tick);
                    let b = local!(off_a).to_ptr();
                    let i = local!(off_b).to_int();
                    let v = self.mem.load(index(b, i, elem))?;
                    set_reg!(dst, v);
                }
                Op::LoadIdxPL {
                    dst,
                    base,
                    idx_off,
                    elem,
                    tick,
                } => {
                    tick!(tick);
                    let i = local!(idx_off).to_int();
                    let v = self.mem.load(index(base, i, elem))?;
                    set_reg!(dst, v);
                }
                Op::LoadIdxLeaL {
                    dst,
                    lea_off,
                    idx_off,
                    elem,
                    tick,
                } => {
                    tick!(tick);
                    let i = local!(idx_off).to_int();
                    let v = self.mem.load(index(lea!(lea_off), i, elem))?;
                    set_reg!(dst, v);
                }
                Op::MemberAddr {
                    dst,
                    src,
                    off,
                    tick,
                } => {
                    tick!(tick);
                    set_reg!(dst, Value::Ptr(member_addr(reg!(src).to_ptr(), off)?));
                }
                Op::IncDecLocal {
                    dst,
                    off,
                    delta,
                    post,
                } => {
                    let old = local!(off);
                    let new = incdec(old, delta);
                    set_local!(off, new);
                    set_reg!(dst, if post { old } else { new });
                }
                Op::IncDecGlobal {
                    dst,
                    idx,
                    delta,
                    post,
                } => {
                    let old = self.global(idx);
                    let new = incdec(old, delta);
                    self.set_global(idx, new);
                    set_reg!(dst, if post { old } else { new });
                }
                Op::IncDec {
                    dst,
                    addr,
                    delta,
                    post,
                    tick,
                } => {
                    tick!(tick);
                    let a = reg!(addr).to_ptr();
                    let old = self.mem.load(a)?;
                    let new = incdec(old, delta);
                    self.mem.store(a, new)?;
                    set_reg!(dst, if post { old } else { new });
                }
                Op::Arith {
                    dst,
                    a,
                    b,
                    mode,
                    tick,
                } => {
                    tick!(tick);
                    let v = arith(mode, reg!(a), reg!(b))?;
                    set_reg!(dst, v);
                }
                Op::ArithLL {
                    dst,
                    off_a,
                    off_b,
                    mode,
                    tick,
                } => {
                    tick!(tick);
                    let v = arith(mode, local!(off_a), local!(off_b))?;
                    set_reg!(dst, v);
                }
                Op::ArithLI {
                    dst,
                    off,
                    imm,
                    mode,
                    tick,
                } => {
                    tick!(tick);
                    let v = arith(mode, local!(off), Value::Int(imm as i64))?;
                    set_reg!(dst, v);
                }
                Op::ArithRL {
                    dst,
                    off,
                    mode,
                    tick,
                } => {
                    tick!(tick);
                    let v = arith(mode, reg!(dst), local!(off))?;
                    set_reg!(dst, v);
                }
                Op::ArithRI {
                    dst,
                    imm,
                    mode,
                    tick,
                } => {
                    tick!(tick);
                    let v = arith(mode, reg!(dst), Value::Int(imm as i64))?;
                    set_reg!(dst, v);
                }
                Op::StoreRR {
                    off,
                    a,
                    b,
                    mode,
                    class,
                    dst,
                } => {
                    let v = convert_for_class(class, arith(mode, reg!(a), reg!(b))?);
                    set_local!(off, v);
                    set_reg!(dst, v);
                }
                Op::StoreLL {
                    off,
                    off_a,
                    off_b,
                    mode,
                    class,
                    dst,
                } => {
                    let v = convert_for_class(class, arith(mode, local!(off_a), local!(off_b))?);
                    set_local!(off, v);
                    set_reg!(dst, v);
                }
                Op::StoreLI {
                    off,
                    off_a,
                    imm,
                    mode,
                    class,
                    dst,
                } => {
                    let v = arith(mode, local!(off_a), Value::Int(imm as i64))?;
                    let v = convert_for_class(class, v);
                    set_local!(off, v);
                    set_reg!(dst, v);
                }
                Op::StoreRL {
                    off,
                    off_b,
                    mode,
                    class,
                    dst,
                } => {
                    let v = convert_for_class(class, arith(mode, reg!(dst), local!(off_b))?);
                    set_local!(off, v);
                    set_reg!(dst, v);
                }
                Op::StoreRI {
                    off,
                    imm,
                    mode,
                    class,
                    dst,
                } => {
                    let v = arith(mode, reg!(dst), Value::Int(imm as i64))?;
                    let v = convert_for_class(class, v);
                    set_local!(off, v);
                    set_reg!(dst, v);
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
                    let v = convert_for_class(class, arith(mode, local!(off), reg!(src))?);
                    set_local!(off, v);
                    set_reg!(dst, v);
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
                    let v = convert_for_class(class, arith(mode, cur, reg!(src))?);
                    self.set_global(idx, v);
                    set_reg!(dst, v);
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
                    let a = reg!(addr).to_ptr();
                    let cur = self.mem.load(a)?;
                    let v = convert_for_class(class, arith(mode, cur, reg!(src))?);
                    self.mem.store(a, v)?;
                    set_reg!(dst, v);
                }
                Op::Jump { target, tick } => {
                    tick!(tick);
                    pc = target as usize;
                }
                Op::JumpIfFalse { src, target, tick } => {
                    tick!(tick);
                    if !reg!(src).truthy() {
                        pc = target as usize;
                    }
                }
                Op::JumpIfTrue { src, target, tick } => {
                    tick!(tick);
                    if reg!(src).truthy() {
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
                    let taken = reg!(src).truthy();
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
                    let taken = cmp_vals(op, local!(off_a), local!(off_b));
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
                    let taken = cmp_vals(op, local!(off), Value::Int(imm as i64));
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
                    let taken = cmp_vals(op, reg!(a), reg!(b));
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
                    let taken = cmp_vals(op, reg!(a), local!(off));
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
                    let taken = cmp_vals(op, reg!(a), Value::Int(imm as i64));
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
                    let v = reg!(src).to_int();
                    pc = cp.switch_tables[table as usize].lookup(v) as usize;
                }
                Op::CheckFn { src, tick } => {
                    tick!(tick);
                    fn_index(reg!(src))?;
                }
                Op::CallDirect {
                    func,
                    argbase,
                    nargs,
                    dst,
                    tick,
                } => {
                    tick!(tick);
                    settle!();
                    pc = self.enter(func as usize, argbase, nargs, dst, pc)?;
                    rebase!();
                }
                Op::CallIndirect {
                    callee,
                    argbase,
                    nargs,
                    dst,
                    tick,
                } => {
                    tick!(tick);
                    let f = fn_index(reg!(callee))?;
                    if cp.funcs[f].entry == NONE32 {
                        return Err(undefined(cp, f).into());
                    }
                    settle!();
                    pc = self.enter(f, argbase, nargs, dst, pc)?;
                    rebase!();
                }
                Op::CallBuiltin {
                    b,
                    argbase,
                    nargs,
                    dst,
                    tick,
                } => {
                    tick!(tick);
                    settle!();
                    self.func_cost[self.cur_fn] += CALL_COST;
                    let args: &[Value] = if nargs == 0 {
                        &[]
                    } else {
                        debug_assert!(
                            argbase as usize + nargs as usize
                                <= cp.funcs[self.cur_fn].max_regs as usize
                        );
                        // SAFETY: `verify` holds a non-empty argument
                        // range to the register window, and the libc
                        // never touches the register file.
                        unsafe {
                            std::slice::from_raw_parts(regs.add(argbase as usize), nargs as usize)
                        }
                    };
                    let result = self.libc.call(&mut self.mem, b, args);
                    rebase!();
                    match result {
                        Ok(v) => set_reg!(dst, v),
                        Err(abort) => {
                            // `exit()` surfaces as an outcome, so the
                            // step count must be visible to `execute`.
                            self.steps = max_steps - budget;
                            self.exit_pc = pc - 1;
                            return Err(abort);
                        }
                    }
                }
                Op::Ret { src, tick } => {
                    tick!(tick);
                    ret!(reg!(src));
                }
                Op::Fail(i) => return Err(fail(cp, i).into()),

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
                    set_reg!(dst, Value::Int(imm as i64));
                    pc = target as usize;
                }
                Op::ConstRet { imm, tick } => {
                    tick!(tick);
                    ret!(Value::Int(imm as i64));
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
                    let v = convert_for_class(class, reg!(src));
                    set_local!(off, v);
                    set_reg!(src, v);
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
                    let v = local!(off);
                    set_reg!(dst, v);
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
                    let v = arith(mode, g, Value::Int(imm as i64))?;
                    set_reg!(dst, v);
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
                    set_reg!(dst, Value::Int(imm as i64));
                    let taken = cmp_vals(op, reg!(a), Value::Int(imm as i64));
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
                    let v = arith(mode, reg!(dst), local!(off))?;
                    set_reg!(dst, v);
                    if !v.truthy() {
                        pc = target as usize;
                    }
                }
            }
        }
    }
}

// ----- cold arms -----
//
// The bodies of the ops that the suite and Fig 10 dispatch fewer than
// 5,000 times in 100 million (EXPERIMENTS.md, *Dispatch census*), kept
// out of the dispatch loop's function.

impl<T: MemTap> Vm<'_, T> {
    #[cold]
    #[inline(never)]
    fn copy_words(&mut self, dst: u64, src: u64, n: u32) -> Result<(), RuntimeError> {
        self.mem.copy_words(dst, src, n as usize)
    }
}

/// Copies `img` to `dst`.
///
/// # Safety
///
/// `dst` must be valid for `img.len()` writes.
#[cold]
#[inline(never)]
unsafe fn init_words(dst: *mut Value, img: &[Value]) {
    // SAFETY: the caller's.
    unsafe { dst.copy_from_nonoverlapping(img.as_ptr(), img.len()) }
}

#[cold]
#[inline(never)]
fn member_addr(base: u64, off: u32) -> Result<u64, RuntimeError> {
    if base == 0 {
        return Err(RuntimeError::NullDeref);
    }
    Ok(base + off as u64)
}

/// The function `v` points to (its index), or the error of calling a
/// non-function.
#[cold]
#[inline(never)]
fn fn_index(v: Value) -> Result<usize, RuntimeError> {
    match v {
        Value::Fn(fid) => Ok(fid.0 as usize),
        _ => Err(RuntimeError::NotAFunction),
    }
}

#[cold]
#[inline(never)]
fn undefined(cp: &CompiledProgram, f: usize) -> RuntimeError {
    RuntimeError::Undefined {
        name: cp.funcs[f].name.clone(),
    }
}

#[cold]
#[inline(never)]
fn fail(cp: &CompiledProgram, i: u32) -> RuntimeError {
    cp.fails[i as usize].clone()
}

/// `base + i * elem`, wrapping: an indexed address.
#[inline(always)]
fn index(base: u64, i: i64, elem: u32) -> u64 {
    base.wrapping_add_signed(i.wrapping_mul(elem as i64))
}

fn incdec(old: Value, delta: i64) -> Value {
    match old {
        Value::Float(f) => Value::Float(f + delta as f64),
        Value::Ptr(p) => Value::Ptr(p.wrapping_add_signed(delta)),
        other => Value::Int(other.to_int().wrapping_add(delta)),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(src: &str) -> CompiledProgram {
        let module = minic::compile(src).expect("valid MiniC");
        super::super::compile(&flowgraph::build_program(module))
    }

    #[test]
    fn trim_sheds_outlier_capacity_and_keeps_the_rest() {
        // Deep recursion grows the frame and data stacks; trim must
        // bring oversized buffers back down while leaving modest ones be.
        let deep = compiled(
            "int f(int n) { if (n <= 0) return 0; return f(n - 1) + 1; }
             int main(void) { return f(5000) & 255; }",
        );
        let cfg = RunConfig::default();
        let mut scratch = ExecScratch::default();
        execute_on(&deep, &cfg, &mut scratch, &mut crate::reuse::NoTap).unwrap();
        let grown = scratch.high_water();
        assert!(
            grown > 1024,
            "expected the run to grow the buffers, got {grown}"
        );
        scratch.trim(usize::MAX);
        assert_eq!(
            scratch.high_water(),
            grown,
            "trim under the bound is a no-op"
        );
        scratch.trim(1024);
        assert!(
            scratch.high_water() <= 1024,
            "trim left {}",
            scratch.high_water()
        );
        // Trimmed buffers still run correctly.
        let out = execute_on(&deep, &cfg, &mut scratch, &mut crate::reuse::NoTap).unwrap();
        assert_eq!(out.exit_code, 5000 & 255);
    }

    #[test]
    fn a_thread_keeps_its_buffers_within_the_trim_bound() {
        // A local array past the bound grows the stack past it; the
        // run's buffers go back trimmed, and a small run after it
        // reuses what is left.
        let big = compiled("int main(void) { int a[1100000]; a[1099999] = 7; return a[1099999]; }");
        let small =
            compiled("int main(void) { int i, s = 0; for (i = 0; i < 9; i++) s += i; return s; }");
        std::thread::spawn(move || {
            let cfg = RunConfig::default();
            assert_eq!(big.execute(&cfg, None).unwrap().exit_code, 7);
            let kept = SCRATCH.take();
            assert!(
                kept.high_water() <= SCRATCH_TRIM_ELEMS,
                "{}",
                kept.high_water()
            );
            SCRATCH.set(kept);
            assert_eq!(small.execute(&cfg, None).unwrap().exit_code, 36);
            assert!(
                SCRATCH.take().high_water() > 0,
                "the small run's buffers were kept"
            );
        })
        .join()
        .unwrap();
    }
}
