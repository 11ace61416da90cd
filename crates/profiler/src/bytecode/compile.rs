//! CFG/AST → bytecode lowering.
//!
//! One linear pass per function. The lowering mirrors the AST
//! interpreter *observably*: identical tick counts on every path,
//! identical error kinds at identical cumulative-step points, and
//! identical profile counters on success.
//!
//! ## Tick batching
//!
//! The interpreter charges one step per `eval()`/`place()` call and
//! per block iteration, checking the step limit each time. Paying two
//! memory round-trips per AST node is most of its cost, so the
//! compiler accumulates ticks in `pending` and attaches the batch as
//! a `tick` payload on the next op that ends the batching region —
//! the flush points. A flush is forced before anything whose
//! behaviour an earlier tick could gate: any fallible op (so a
//! `StepLimit` that the interpreter would hit first still wins), any
//! call or return (so `func_cost` lands on the right function), any
//! jump, and any jump target (so untaken paths never charge). Within
//! a flush region only profile counters move, and a failing run
//! discards its profile — so reordering ticks against counter bumps
//! is unobservable. Executing the payload costs zero extra dispatch;
//! a standalone `Tick` survives only on cold paths (before `Fail`,
//! at a ternary's join) where no carrier op follows.
//!
//! ## Counter placement
//!
//! Only the chords of a per-function spanning tree carry a counter;
//! `place.rs` picks the tree (heaviest under loop nesting depth) and
//! the peeling order that rebuilds block, tree-edge and branch counts
//! after the run. Edges need no "previous block" state at runtime:
//! every jump knows its (src, dst) statically, so each terminator
//! jumps through a tiny per-successor stub — an `EdgeJump` that
//! ticks, bumps the edge's counter if it is a chord, and jumps. A
//! zero-tick then, else or switch stub on a tree edge has nothing to
//! do and disappears: the else target or switch entry points straight
//! at the block, and the then arm falls through when the then block
//! comes next and the else stub is gone too. `FuncMeta::elided`
//! records each dropped stub so the optimizer can restore the fully
//! instrumented stream its cost model was built on. Blocks need no
//! counter op of their own, and a conditional bumps its branch
//! counter only when both arms reach the same block (so the edge
//! counts cannot tell them apart).

//! ## Superinstructions
//!
//! Emission peepholes fuse the dominant op sequences into single
//! dispatches. Two kinds of rule apply:
//!
//! - **Shared pair rules** (`LoadLocal2`/`LoadLocalImm`, `LoadIdx*`,
//!   `Store{RR,LL,LI,RL,RI}`) live once, in [`super::fuse_pair`]; the
//!   optimizer's fusion pass runs the same table. Each fused op writes
//!   everything its pair wrote.
//! - **Emitter-only operand rules** fold operand loads into `Arith*`
//!   and `IndexAddr*`, and comparisons into their branch (`CmpBranch*`
//!   — a loop header like `i < n` becomes one op). They drop the write
//!   of a consumed operand register, so they are safe only under the
//!   register discipline below, which optimized code need not keep.
//!
//! Two invariants make this safe:
//!
//! - **No fusion across a label.** `label_here` records every jump
//!   target (block starts, stub pcs, short-circuit joins) as a
//!   barrier; `fuse1`/`fuse2` refuse to touch ops at or before it, so
//!   a jump can never land inside a fused sequence.
//! - **Consumed operand registers are dead.** Each `eval` writes its
//!   destination before anything reads it, on every path, so when a
//!   fused op consumes its operand directly from a frame slot or
//!   immediate, skipping the architectural register write is
//!   unobservable.

use super::fuse::{fuse_pair, ticks};
use super::place::{self, Candidate, CounterPlan};
use super::{ArithMode, FuncMeta, Op, ParamBind, Parts, SwitchTable, NONE32};
use crate::runtime::{
    member_offset, NodeTables, NodeTy, RuntimeError, StaticLayout, TyClass, Value,
};
use flowgraph::analysis::loop_depths;
use flowgraph::{BlockId, Cfg, EdgeIds, Instr, Program, Terminator};
use minic::ast::{BinOp, Expr, ExprKind, UnOp};
use minic::sema::{CalleeKind, FuncId, Resolution};
use minic::types::Type;

/// Where an lvalue lives, as far as compile time can tell.
enum Place {
    /// Frame slot at a static word offset.
    Local(u32),
    /// Static-data slot (index into the data image).
    Data(u32),
    /// Address computed at runtime into a register (`to_ptr` applies).
    Reg(u16),
}

pub(super) fn compile(program: &Program) -> Parts {
    let module = &program.module;

    // The one static layout: its addresses are baked into the code.
    let layout = StaticLayout::of(module);
    let data_image = layout.image(module);

    let mut c = Compiler {
        program,
        tables: NodeTables::build(program),
        layout,
        ops: Vec::new(),
        switch_tables: Vec::new(),
        images: Vec::new(),
        fails: Vec::new(),
        edge_keys: Vec::new(),
        edge_ids: EdgeIds::default(),
        edge_base: 0,
        chord: Vec::new(),
        cur_fn: FuncId(0),
        pending: 0,
        hi: 1,
        fixups: Vec::new(),
        switches: Vec::new(),
        block_pc: Vec::new(),
        elided: Vec::new(),
        barrier: 0,
    };

    let mut funcs = Vec::with_capacity(module.functions.len());
    let mut counters = Vec::with_capacity(module.functions.len());
    for f in &module.functions {
        match program.cfg_opt(f.id) {
            Some(cfg) => {
                counters.push(c.place_counters(f.id, cfg));
                funcs.push(c.compile_func(f.id, cfg));
            }
            None => {
                counters.push(CounterPlan::default());
                funcs.push(FuncMeta {
                    entry: NONE32,
                    frame_size: f.frame_size as u32,
                    max_regs: 0,
                    params: Vec::new(),
                    name: f.name.clone(),
                    code: (0, 0),
                    block_pc: Vec::new(),
                    elided: Vec::new(),
                    origin_pc: Vec::new(),
                    origins: Vec::new(),
                });
            }
        }
    }

    Parts {
        ops: c.ops,
        funcs,
        main: module.function_id("main"),
        switch_tables: c.switch_tables,
        images: c.images,
        fails: c.fails,
        data_image,
        edge_keys: c.edge_keys,
        counters,
        n_branches: module.side.branches.len(),
        n_sites: module.side.call_sites.len(),
    }
}

/// A jump to a block, patched once every block of the function has
/// a pc.
enum Fixup {
    /// `EdgeJump` at this op index, to this block.
    Jump(usize, u32),
    /// Conditional at this op index, whose else edge goes straight to
    /// this block (its stub was elided).
    Else(usize, u32),
}

/// A switch table to build once block pcs exist: `(table, cases,
/// per-successor stub pc or NONE32 when elided, default block)`.
type PendingSwitch = (u32, Vec<(i64, BlockId)>, Vec<(BlockId, u32)>, BlockId);

struct Compiler<'p> {
    program: &'p Program,
    tables: NodeTables<'p>,
    layout: StaticLayout,
    ops: Vec<Op>,
    switch_tables: Vec<SwitchTable>,
    images: Vec<Vec<Value>>,
    fails: Vec<RuntimeError>,
    /// Every function's CFG edges, in the CFG's edge numbering.
    edge_keys: Vec<(BlockId, BlockId)>,
    /// The current function's edge numbering, and the counter index
    /// of its edge 0.
    edge_ids: EdgeIds,
    edge_base: u32,
    /// Whether each edge counter is a chord (kept) or a tree edge.
    chord: Vec<bool>,
    // Per-function state.
    cur_fn: FuncId,
    /// Ticks accumulated since the last flush point.
    pending: u32,
    /// Register watermark (window size so far).
    hi: u16,
    fixups: Vec<Fixup>,
    switches: Vec<PendingSwitch>,
    block_pc: Vec<u32>,
    elided: Vec<(u32, u32)>,
    /// Ops at indices `< barrier` precede a jump target and must not
    /// be rewritten by the fusing emitters.
    barrier: usize,
}

impl<'p> Compiler<'p> {
    // ----- small helpers -----

    fn nty(&self, e: &Expr) -> NodeTy {
        self.tables.ty(e.id)
    }

    fn resolution(&self, e: &Expr) -> Resolution {
        self.program
            .module
            .side
            .resolution(e.id)
            .expect("sema resolved every name")
    }

    fn touch(&mut self, r: u16) {
        self.hi = self
            .hi
            .max(r.checked_add(1).expect("register window overflow"));
    }

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Take the pending tick batch to attach to a flush-point op.
    fn take_pending(&mut self) -> u32 {
        std::mem::take(&mut self.pending)
    }

    // ----- fusing emitters (superinstructions) -----

    /// Record a jump target at the current pc. Nothing emitted after
    /// this point may fuse into ops before it, else the jump would
    /// land mid-superinstruction.
    fn label_here(&mut self) -> u32 {
        self.barrier = self.ops.len();
        self.ops.len() as u32
    }

    /// Index of the previous op when it is past the last label.
    fn fuse1(&self) -> Option<usize> {
        (self.ops.len() > self.barrier).then(|| self.ops.len() - 1)
    }

    /// Index of the second-to-last op when the last *two* are past
    /// the last label.
    fn fuse2(&self) -> Option<usize> {
        (self.ops.len() >= self.barrier + 2).then(|| self.ops.len() - 2)
    }

    /// Emits `op`, fused into the op before it (past the last label)
    /// when a shared pair rule of [`fuse_pair`] applies. The fused op
    /// must carry the pair's whole step charge: at -O0 the stream
    /// mirrors the walker tick for tick, so a fusion must never lose an
    /// AST tick (the `Arith → StoreLocal` rules drop the arithmetic's).
    fn emit_fused(&mut self, op: Op) {
        if let Some(i) = self.fuse1() {
            let prev = self.ops[i];
            if let Some(fused) = fuse_pair(prev, op) {
                if ticks(fused) == ticks(prev) + ticks(op) {
                    self.ops[i] = fused;
                    return;
                }
            }
        }
        self.emit(op);
    }

    /// Emit the binary-operator arith (`a = dst`, `b = dst + 1`),
    /// folding operand loads emitted immediately before it. Fused
    /// forms skip the dead write of the consumed operand register
    /// (see the module docs for why that is unobservable). Not a
    /// [`fuse_pair`] rule: that write is dead only under the emitter's
    /// register discipline, which the optimizer cannot assume.
    fn emit_arith(&mut self, dst: u16, mode: ArithMode, tick: u32) {
        if let Some(i) = self.fuse1() {
            match self.ops[i] {
                Op::LoadLocal2 {
                    dst: d,
                    off_a,
                    off_b,
                } if d == dst => {
                    self.ops[i] = Op::ArithLL {
                        dst,
                        off_a,
                        off_b,
                        mode,
                        tick,
                    };
                    return;
                }
                Op::LoadLocalImm { dst: d, off, imm } if d == dst => {
                    if let Ok(imm) = i32::try_from(imm) {
                        self.ops[i] = Op::ArithLI {
                            dst,
                            off,
                            imm,
                            mode,
                            tick,
                        };
                        return;
                    }
                }
                Op::LoadLocal { dst: d, off } if d == dst + 1 => {
                    self.ops[i] = Op::ArithRL {
                        dst,
                        off,
                        mode,
                        tick,
                    };
                    return;
                }
                Op::Const {
                    dst: d,
                    v: Value::Int(imm),
                } if d == dst + 1 => {
                    if let Ok(imm) = i32::try_from(imm) {
                        self.ops[i] = Op::ArithRI {
                            dst,
                            imm,
                            mode,
                            tick,
                        };
                        return;
                    }
                }
                _ => {}
            }
        }
        self.emit(Op::Arith {
            dst,
            a: dst,
            b: dst + 1,
            mode,
            tick,
        });
    }

    /// Emit the `IndexAddr` for `base[idx]` (`base = dst`,
    /// `idx = dst + 1`), folding the base/index loads before it
    /// (emitter-only, like [`Self::emit_arith`]'s rules).
    fn emit_index_addr(&mut self, dst: u16, elem: u32) {
        if let Some(i) = self.fuse1() {
            match self.ops[i] {
                Op::LoadLocal2 {
                    dst: d,
                    off_a,
                    off_b,
                } if d == dst => {
                    self.ops[i] = Op::IndexAddrLL {
                        dst,
                        off_a,
                        off_b,
                        elem,
                    };
                    return;
                }
                Op::LoadLocal {
                    dst: d,
                    off: idx_off,
                } if d == dst + 1 => {
                    if let Some(i1) = self.fuse2() {
                        match self.ops[i1] {
                            // Global-array decay: the base address is
                            // a compile-time constant.
                            Op::Const {
                                dst: b,
                                v: Value::Ptr(base),
                            } if b == dst => {
                                self.ops.pop();
                                self.ops[i1] = Op::IndexAddrPL {
                                    dst,
                                    base,
                                    idx_off,
                                    elem,
                                };
                                return;
                            }
                            Op::LeaLocal {
                                dst: b,
                                off: lea_off,
                            } if b == dst => {
                                self.ops.pop();
                                self.ops[i1] = Op::IndexAddrLeaL {
                                    dst,
                                    lea_off,
                                    idx_off,
                                    elem,
                                };
                                return;
                            }
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
        self.emit(Op::IndexAddr {
            dst,
            base: dst,
            idx: dst + 1,
            elem,
        });
    }

    /// Emit a conditional branch on `src`, folding an immediately
    /// preceding comparison (whose result register is dead only under
    /// the emitter's discipline, so the rule stays here). Returns the
    /// op index for [`Self::set_else_target`].
    fn emit_cond_branch(&mut self, src: u16, branch: u32, tick: u32) -> usize {
        if let Some(i) = self.fuse1() {
            match self.ops[i] {
                Op::Arith {
                    dst,
                    a,
                    b,
                    mode: ArithMode::Cmp(op),
                    tick: 0,
                } if dst == src => {
                    self.ops[i] = Op::CmpBranchRR {
                        a,
                        b,
                        op,
                        branch,
                        else_target: 0,
                        tick,
                    };
                    return i;
                }
                Op::ArithLL {
                    dst,
                    off_a,
                    off_b,
                    mode: ArithMode::Cmp(op),
                    tick: 0,
                } if dst == src => {
                    self.ops[i] = Op::CmpBranchLL {
                        off_a,
                        off_b,
                        op,
                        branch,
                        else_target: 0,
                        tick,
                    };
                    return i;
                }
                Op::ArithLI {
                    dst,
                    off,
                    imm,
                    mode: ArithMode::Cmp(op),
                    tick: 0,
                } if dst == src => {
                    self.ops[i] = Op::CmpBranchLI {
                        off,
                        imm,
                        op,
                        branch,
                        else_target: 0,
                        tick,
                    };
                    return i;
                }
                Op::ArithRL {
                    dst,
                    off,
                    mode: ArithMode::Cmp(op),
                    tick: 0,
                } if dst == src => {
                    self.ops[i] = Op::CmpBranchRL {
                        a: dst,
                        off,
                        op,
                        branch,
                        else_target: 0,
                        tick,
                    };
                    return i;
                }
                Op::ArithRI {
                    dst,
                    imm,
                    mode: ArithMode::Cmp(op),
                    tick: 0,
                } if dst == src => {
                    self.ops[i] = Op::CmpBranchRI {
                        a: dst,
                        imm,
                        op,
                        branch,
                        else_target: 0,
                        tick,
                    };
                    return i;
                }
                _ => {}
            }
        }
        self.emit(Op::CondBranch {
            src,
            branch,
            else_target: 0,
            tick,
        })
    }

    fn set_else_target(&mut self, idx: usize, pc: u32) {
        match &mut self.ops[idx] {
            Op::CondBranch { else_target, .. }
            | Op::CmpBranchLL { else_target, .. }
            | Op::CmpBranchLI { else_target, .. }
            | Op::CmpBranchRR { else_target, .. }
            | Op::CmpBranchRL { else_target, .. }
            | Op::CmpBranchRI { else_target, .. } => *else_target = pc,
            other => unreachable!("else-target patch on {other:?}"),
        }
    }

    /// Emit the pending batch as a standalone `Tick` (cold paths with
    /// no carrier op: before `Fail`, at a ternary's join label).
    fn flush(&mut self) {
        if self.pending > 0 {
            let n = self.pending;
            self.pending = 0;
            self.emit(Op::Tick(n));
        }
    }

    fn fail(&mut self, e: RuntimeError) {
        self.flush();
        let idx = self.fails.len() as u32;
        self.fails.push(e);
        self.emit(Op::Fail(idx));
    }

    /// The dense counter index of edge `src → dst` in the current
    /// function: its edge id past the function's first counter.
    fn edge(&self, src: BlockId, dst: BlockId) -> u32 {
        let id = (self.program.cfg(self.cur_fn))
            .edge_id(&self.edge_ids, src, dst)
            .expect("every CFG edge has a counter index");
        self.edge_base + id as u32
    }

    /// Whether edge `src → dst` carries a counter.
    fn is_chord(&self, src: BlockId, dst: BlockId) -> bool {
        self.chord[self.edge(src, dst) as usize]
    }

    /// Edge stub: one fused op that ticks `tick`, counts the edge if
    /// it is a chord, then jumps to the target block.
    fn edge_stub(&mut self, src: BlockId, dst: BlockId, tick: u32) -> u32 {
        debug_assert_eq!(self.pending, 0);
        let pc = self.label_here();
        let edge = self.edge(src, dst);
        let edge = if self.chord[edge as usize] {
            edge
        } else {
            NONE32
        };
        let idx = self.emit(Op::EdgeJump {
            edge,
            target: 0,
            tick,
        });
        self.fixups.push(Fixup::Jump(idx, dst.0));
        pc
    }

    /// Records a zero-tick tree-edge stub to `dst` that is left out
    /// at the current pc.
    fn elide_stub(&mut self, dst: BlockId) {
        self.elided.push((self.ops.len() as u32, dst.0));
    }

    /// Allocates the function's edge counters in the CFG's edge
    /// numbering and places them: only chords of the maximum-weight
    /// spanning tree count. The tree builder is offered each edge once,
    /// in stub order (a switch's cases, then its default), which its
    /// tie-break depends on.
    fn place_counters(&mut self, fid: FuncId, cfg: &Cfg) -> CounterPlan {
        self.cur_fn = fid;
        self.edge_base = self.edge_keys.len() as u32;
        self.edge_ids = cfg.edge_ids();
        self.edge_keys.extend(cfg.edges());
        let n_edges = self.edge_keys.len() - self.edge_base as usize;
        let depth = loop_depths(cfg);
        let mut cands: Vec<Candidate> = Vec::with_capacity(n_edges);
        let mut offered = vec![false; n_edges];
        let mut returns = Vec::new();
        let mut branches = Vec::new();
        for block in &cfg.blocks {
            let b = block.id;
            // Offers `b → dst` unless it already was, and returns its
            // counter index.
            let mut add = |dst: BlockId, rank: u8| -> u32 {
                let edge = self.edge(b, dst);
                if !std::mem::replace(&mut offered[(edge - self.edge_base) as usize], true) {
                    cands.push(Candidate {
                        src: b.0,
                        dst: dst.0,
                        weight: depth[b.0 as usize].min(depth[dst.0 as usize]) as u32,
                        rank,
                        edge,
                    });
                }
                edge
            };
            match &block.term {
                Terminator::Goto(t) => {
                    add(*t, 2);
                }
                Terminator::Branch {
                    branch,
                    then_blk,
                    else_blk,
                    ..
                } => {
                    let te = add(*then_blk, 0);
                    let ee = add(*else_blk, 1);
                    if let (Some(br), true) = (branch, then_blk != else_blk) {
                        branches.push((br.0, te, ee));
                    }
                }
                Terminator::Switch { cases, default, .. } => {
                    for &(_, t) in cases {
                        add(t, 1);
                    }
                    add(*default, 1);
                }
                Terminator::Return(_) => returns.push(b.0),
            }
        }
        let peel = place::spanning_tree(cfg.blocks.len(), &cands, &returns, &mut self.chord);
        CounterPlan {
            entry: cfg.entry.0,
            n_blocks: cfg.blocks.len() as u32,
            edges: (self.edge_base, self.edge_keys.len() as u32),
            peel,
            branches,
        }
    }

    fn is_aggregate(ty: &Type) -> bool {
        matches!(ty, Type::Struct(_) | Type::Array(_, _))
    }

    fn arith_mode(op: BinOp, ta: NodeTy, tb: NodeTy) -> ArithMode {
        if op.is_comparison() {
            return ArithMode::Cmp(op);
        }
        let a_ptr = ta.is_ptr_like();
        let b_ptr = tb.is_ptr_like();
        match op {
            BinOp::Add if a_ptr => ArithMode::PtrAddL(ta.elem),
            BinOp::Add if b_ptr => ArithMode::PtrAddR(tb.elem),
            BinOp::Sub if a_ptr && b_ptr => ArithMode::PtrDiff(ta.elem.max(1)),
            BinOp::Sub if a_ptr => ArithMode::PtrSubInt(ta.elem),
            _ => ArithMode::Num(op),
        }
    }

    // ----- function compilation -----

    fn compile_func(&mut self, fid: FuncId, cfg: &Cfg) -> FuncMeta {
        let func = self.program.module.function(fid);
        let code_start = self.ops.len() as u32;
        self.cur_fn = fid;
        self.pending = 0;
        self.hi = 1;
        self.fixups.clear();
        self.block_pc = vec![0; cfg.blocks.len()];

        for (i, block) in cfg.blocks.iter().enumerate() {
            debug_assert_eq!(block.id.0 as usize, i, "blocks are emitted in id order");
            debug_assert_eq!(self.pending, 0);
            self.block_pc[i] = self.label_here();
            // One tick per block iteration; the block *count* is
            // rebuilt from the edge counts after the run.
            self.pending += 1;
            for instr in &block.instrs {
                self.instr(func, instr);
            }
            self.terminator(block.id, &block.term);
            debug_assert_eq!(self.pending, 0);
        }

        // Patch intra-function jumps now that every block has a pc.
        for fixup in std::mem::take(&mut self.fixups) {
            match fixup {
                Fixup::Jump(op_idx, blk) => match &mut self.ops[op_idx] {
                    Op::EdgeJump { target, .. } => *target = self.block_pc[blk as usize],
                    other => unreachable!("fixup on non-jump {other:?}"),
                },
                Fixup::Else(op_idx, blk) => {
                    self.set_else_target(op_idx, self.block_pc[blk as usize])
                }
            }
        }
        for (table, cases, mut stubs, default) in std::mem::take(&mut self.switches) {
            for (b, pc) in &mut stubs {
                if *pc == NONE32 {
                    *pc = self.block_pc[b.0 as usize];
                }
            }
            let default_pc = stubs
                .iter()
                .find(|&&(b, _)| b == default)
                .map(|&(_, pc)| pc)
                .expect("stub exists for the default");
            self.switch_tables[table as usize] =
                Self::build_switch_table(&cases, &stubs, default_pc);
        }

        let structs = &self.program.module.structs;
        let params = func.locals[..func.param_count]
            .iter()
            .map(|local| {
                if Self::is_aggregate(&local.ty) {
                    ParamBind::Agg {
                        off: local.offset as u32,
                        size: local.size as u32,
                    }
                } else {
                    ParamBind::Scalar {
                        off: local.offset as u32,
                        class: NodeTy::of(&local.ty, structs).class,
                    }
                }
            })
            .collect();

        FuncMeta {
            entry: self.block_pc[cfg.entry.0 as usize],
            frame_size: func.frame_size as u32,
            max_regs: self.hi as u32,
            params,
            name: func.name.clone(),
            code: (code_start, self.ops.len() as u32),
            block_pc: std::mem::take(&mut self.block_pc),
            elided: std::mem::take(&mut self.elided),
            origin_pc: Vec::new(),
            origins: Vec::new(),
        }
    }

    fn instr(&mut self, func: &minic::sema::Function, instr: &Instr) {
        match instr {
            Instr::Eval(e) => {
                self.eval(e, 0);
            }
            Instr::Init {
                local,
                word,
                ty,
                value,
            } => {
                self.eval(value, 0);
                let off = (func.locals[local.0 as usize].offset + word) as u32;
                if Self::is_aggregate(ty) {
                    let n = ty.size_words(&self.program.module.structs) as u32;
                    self.touch(1);
                    self.emit(Op::LeaLocal { dst: 1, off });
                    let tick = self.take_pending();
                    self.emit(Op::CopyWords {
                        dst_addr: 1,
                        src: 0,
                        n,
                        dst: 1,
                        tick,
                    });
                } else {
                    let class = NodeTy::of(ty, &self.program.module.structs).class;
                    self.emit_fused(Op::StoreLocal {
                        off,
                        src: 0,
                        class,
                        dst: 0,
                    });
                }
            }
            Instr::InitStr {
                local,
                word,
                str_idx,
                pad_to,
            } => {
                let s = &self.program.module.strings[*str_idx];
                let n = s.len().max(*pad_to);
                let mut img = vec![Value::Int(0); n];
                for (i, b) in s.bytes().enumerate() {
                    img[i] = Value::Int(b as i64);
                }
                let idx = self.images.len() as u32;
                self.images.push(img);
                let off = (func.locals[local.0 as usize].offset + word) as u32;
                self.emit(Op::InitWordsLocal { off, img: idx });
            }
            Instr::InitZero { local, word, len } => {
                let off = (func.locals[local.0 as usize].offset + word) as u32;
                self.emit(Op::ZeroLocal {
                    off,
                    len: *len as u32,
                });
            }
        }
    }

    fn terminator(&mut self, blk: BlockId, term: &Terminator) {
        match term {
            Terminator::Goto(t) => {
                let tick = self.take_pending();
                self.edge_stub(blk, *t, tick);
            }
            Terminator::Branch {
                cond,
                branch,
                then_blk,
                else_blk,
            } => {
                self.eval(cond, 0);
                let tick = self.take_pending();
                // Out-edge counts tell the arms apart unless both
                // reach the same block.
                let brid = match branch {
                    Some(b) if then_blk == else_blk => b.0,
                    _ => NONE32,
                };
                let cb = self.emit_cond_branch(0, brid, tick);
                let then_tree = !self.is_chord(blk, *then_blk);
                let else_tree = !self.is_chord(blk, *else_blk);
                if then_tree && else_tree && then_blk.0 == blk.0 + 1 {
                    // Nothing to count either way: fall through into
                    // the then block, which comes next.
                    self.elide_stub(*then_blk);
                } else {
                    self.edge_stub(blk, *then_blk, 0);
                }
                if else_tree {
                    self.elide_stub(*else_blk);
                    self.fixups.push(Fixup::Else(cb, else_blk.0));
                } else {
                    let else_pc = self.label_here();
                    self.set_else_target(cb, else_pc);
                    self.edge_stub(blk, *else_blk, 0);
                }
            }
            Terminator::Switch {
                scrut,
                cases,
                default,
                ..
            } => {
                self.eval(scrut, 0);
                let tick = self.take_pending();
                let table = self.switch_tables.len() as u32;
                // Reserve the slot so the op can reference it now; the
                // table is built once every block has a pc.
                self.switch_tables.push(SwitchTable::Sorted {
                    keys: Vec::new(),
                    targets: Vec::new(),
                    default: 0,
                });
                self.emit(Op::SwitchJump {
                    src: 0,
                    table,
                    tick,
                });
                // One stub per distinct successor block, unless its
                // edge carries no counter.
                let mut stubs: Vec<(BlockId, u32)> = Vec::new();
                for t in cases.iter().map(|&(_, t)| t).chain([*default]) {
                    if stubs.iter().any(|&(b, _)| b == t) {
                        continue;
                    }
                    let pc = if self.is_chord(blk, t) {
                        self.edge_stub(blk, t, 0)
                    } else {
                        self.elide_stub(t);
                        NONE32
                    };
                    stubs.push((t, pc));
                }
                self.switches.push((table, cases.clone(), stubs, *default));
            }
            Terminator::Return(e) => {
                match e {
                    Some(e) => {
                        self.eval(e, 0);
                    }
                    None => {
                        self.emit(Op::Const {
                            dst: 0,
                            v: Value::Int(0),
                        });
                    }
                }
                let tick = self.take_pending();
                self.emit(Op::Ret { src: 0, tick });
            }
        }
    }

    /// Lower the case list to a lookup table. Duplicate case values
    /// keep the *first* occurrence — the interpreter scans linearly —
    /// and a dense table is used when the value range is compact.
    fn build_switch_table(
        cases: &[(i64, BlockId)],
        stub_pc: &[(BlockId, u32)],
        default_pc: u32,
    ) -> SwitchTable {
        let pc_of = |b: BlockId| {
            stub_pc
                .iter()
                .find(|&&(sb, _)| sb == b)
                .map(|&(_, pc)| pc)
                .expect("stub exists for every case target")
        };
        let mut entries: Vec<(i64, u32)> = Vec::with_capacity(cases.len());
        for &(v, t) in cases {
            if !entries.iter().any(|&(ev, _)| ev == v) {
                entries.push((v, pc_of(t)));
            }
        }
        entries.sort_by_key(|&(v, _)| v);
        if entries.is_empty() {
            return SwitchTable::Sorted {
                keys: Vec::new(),
                targets: Vec::new(),
                default: default_pc,
            };
        }
        let min = entries[0].0;
        let max = entries[entries.len() - 1].0;
        let span = (max as i128 - min as i128) + 1;
        if span <= entries.len() as i128 * 3 + 8 {
            let mut targets = vec![NONE32; span as usize];
            for &(v, pc) in &entries {
                targets[(v - min) as usize] = pc;
            }
            SwitchTable::Dense {
                min,
                targets,
                default: default_pc,
            }
        } else {
            SwitchTable::Sorted {
                keys: entries.iter().map(|&(v, _)| v).collect(),
                targets: entries.iter().map(|&(_, pc)| pc).collect(),
                default: default_pc,
            }
        }
    }

    // ----- places -----

    /// Compile the address computation of an lvalue. Mirrors
    /// `Interp::place`: one tick on entry, then per-shape work. The
    /// result only uses registers `>= scratch`.
    fn place(&mut self, e: &Expr, scratch: u16) -> Place {
        self.pending += 1;
        self.touch(scratch);
        match &e.kind {
            ExprKind::Ident(_) => match self.resolution(e) {
                Resolution::Local(lid) => {
                    let func = self.program.module.function(self.cur_fn);
                    Place::Local(func.locals[lid.0 as usize].offset as u32)
                }
                Resolution::Global(gid) => {
                    Place::Data((self.layout.global_addr[gid.0 as usize] - 1) as u32)
                }
                Resolution::Func(_) | Resolution::Builtin(_) | Resolution::EnumConst(_) => {
                    self.fail(RuntimeError::Other("constant is not an lvalue".into()));
                    Place::Reg(scratch)
                }
            },
            ExprKind::Unary(UnOp::Deref, inner) => {
                self.eval(inner, scratch);
                Place::Reg(scratch)
            }
            ExprKind::Index(base, idx) => {
                let bt = self.nty(base);
                if bt.class == TyClass::Agg {
                    let pb = self.place(base, scratch);
                    self.place_addr(pb, scratch);
                } else {
                    self.eval(base, scratch);
                }
                self.eval(idx, scratch + 1);
                self.emit_index_addr(scratch, bt.elem);
                Place::Reg(scratch)
            }
            ExprKind::Member(base, _, arrow) => {
                let Some(off) = member_offset(&self.program.module, e) else {
                    self.fail(RuntimeError::Other("member on non-struct".into()));
                    return Place::Reg(scratch);
                };
                if *arrow {
                    self.eval(base, scratch);
                    let tick = self.take_pending();
                    self.emit(Op::MemberAddr {
                        dst: scratch,
                        src: scratch,
                        off,
                        tick,
                    });
                    Place::Reg(scratch)
                } else {
                    match self.place(base, scratch) {
                        // Frame/static bases are never NULL, so the
                        // interpreter's NULL check cannot fire there.
                        Place::Local(o) => Place::Local(o + off),
                        Place::Data(i) => Place::Data(i + off),
                        Place::Reg(r) => {
                            let tick = self.take_pending();
                            self.emit(Op::MemberAddr {
                                dst: r,
                                src: r,
                                off,
                                tick,
                            });
                            Place::Reg(r)
                        }
                    }
                }
            }
            ExprKind::Cast(_, inner) => self.place(inner, scratch),
            _ => {
                self.fail(RuntimeError::Other(format!(
                    "expression is not an lvalue: {:?}",
                    std::mem::discriminant(&e.kind)
                )));
                Place::Reg(scratch)
            }
        }
    }

    /// Materialize a place's address as a `Ptr` value in `dst`.
    fn place_addr(&mut self, p: Place, dst: u16) {
        self.touch(dst);
        match p {
            Place::Local(off) => {
                self.emit(Op::LeaLocal { dst, off });
            }
            Place::Data(idx) => {
                self.emit(Op::Const {
                    dst,
                    v: Value::Ptr(idx as u64 + 1),
                });
            }
            Place::Reg(r) => {
                self.emit(Op::ToPtr { dst, src: r });
            }
        }
    }

    /// Load an rvalue out of a place (aggregates yield their address).
    fn load_place(&mut self, nt: NodeTy, p: Place, dst: u16) {
        self.touch(dst);
        if nt.class == TyClass::Agg {
            self.place_addr(p, dst);
            return;
        }
        match p {
            Place::Local(off) => {
                self.emit_fused(Op::LoadLocal { dst, off });
            }
            Place::Data(idx) => {
                self.emit(Op::LoadGlobal { dst, idx });
            }
            Place::Reg(r) => {
                let tick = self.take_pending();
                self.emit_fused(Op::Load { dst, addr: r, tick });
            }
        }
    }

    // ----- expressions -----

    /// Compile `e`, leaving its value in `dst`. Only registers
    /// `>= dst` are written. Mirrors `Interp::eval` tick-for-tick.
    fn eval(&mut self, e: &Expr, dst: u16) {
        self.pending += 1;
        self.touch(dst);
        match &e.kind {
            ExprKind::IntLit(v) => {
                self.emit_fused(Op::Const {
                    dst,
                    v: Value::Int(*v),
                });
            }
            ExprKind::FloatLit(v) => {
                self.emit(Op::Const {
                    dst,
                    v: Value::Float(*v),
                });
            }
            ExprKind::StrLit(_) => {
                let idx = self.program.module.side.str_index(e.id);
                let idx = idx.expect("sema interned every string literal");
                self.emit(Op::Const {
                    dst,
                    v: Value::Ptr(self.layout.str_addr[idx]),
                });
            }
            ExprKind::Ident(_) => match self.resolution(e) {
                Resolution::Func(fid) => {
                    self.emit(Op::Const {
                        dst,
                        v: Value::Fn(fid),
                    });
                }
                Resolution::EnumConst(v) => {
                    self.emit_fused(Op::Const {
                        dst,
                        v: Value::Int(v),
                    });
                }
                Resolution::Builtin(_) => {
                    self.fail(RuntimeError::Other("builtin used as a value".into()));
                }
                Resolution::Local(_) | Resolution::Global(_) => {
                    let p = self.place(e, dst);
                    self.load_place(self.nty(e), p, dst);
                }
            },
            ExprKind::Unary(op, inner) => self.eval_unary(e, *op, inner, dst),
            ExprKind::Binary(op, a, b) => {
                let ta = self.nty(a);
                let tb = self.nty(b);
                self.eval(a, dst);
                self.eval(b, dst + 1);
                let mode = Self::arith_mode(*op, ta, tb);
                let tick = if mode.fallible() {
                    self.take_pending()
                } else {
                    0
                };
                self.emit_arith(dst, mode, tick);
            }
            ExprKind::LogAnd(a, b) => {
                self.eval(a, dst);
                let t1 = self.take_pending();
                let j1 = self.emit(Op::JumpIfFalse {
                    src: dst,
                    target: 0,
                    tick: t1,
                });
                self.eval(b, dst);
                self.emit(Op::Bool { dst, src: dst });
                let t2 = self.take_pending();
                let j2 = self.emit(Op::Jump {
                    target: 0,
                    tick: t2,
                });
                self.patch_jump_here(j1);
                self.emit(Op::Const {
                    dst,
                    v: Value::Int(0),
                });
                self.patch_jump_here(j2);
            }
            ExprKind::LogOr(a, b) => {
                self.eval(a, dst);
                let t1 = self.take_pending();
                let j1 = self.emit(Op::JumpIfTrue {
                    src: dst,
                    target: 0,
                    tick: t1,
                });
                self.eval(b, dst);
                self.emit(Op::Bool { dst, src: dst });
                let t2 = self.take_pending();
                let j2 = self.emit(Op::Jump {
                    target: 0,
                    tick: t2,
                });
                self.patch_jump_here(j1);
                self.emit(Op::Const {
                    dst,
                    v: Value::Int(1),
                });
                self.patch_jump_here(j2);
            }
            ExprKind::Assign(op, lhs, rhs) => self.eval_assign(*op, lhs, rhs, dst),
            ExprKind::Call(callee, args) => self.eval_call(e, callee, args, dst),
            ExprKind::Index(_, _) | ExprKind::Member(_, _, _) => {
                let p = self.place(e, dst);
                self.load_place(self.nty(e), p, dst);
            }
            ExprKind::Cond(c, t, f) => {
                self.eval(c, dst);
                let tick = self.take_pending();
                let branch = self.program.module.side.branch(e.id);
                let cb = self.emit_cond_branch(dst, branch.map_or(NONE32, |b| b.0), tick);
                self.eval(t, dst);
                let jt = self.take_pending();
                let j = self.emit(Op::Jump {
                    target: 0,
                    tick: jt,
                });
                let else_pc = self.label_here();
                self.set_else_target(cb, else_pc);
                self.eval(f, dst);
                self.flush();
                self.patch_jump_here(j);
            }
            ExprKind::Cast(_, inner) => {
                self.eval(inner, dst);
                let class = self.nty(e).class;
                if !matches!(class, TyClass::Agg | TyClass::Other) {
                    self.emit(Op::Conv {
                        dst,
                        src: dst,
                        class,
                    });
                }
            }
            ExprKind::SizeofType(_) | ExprKind::SizeofExpr(_) => {
                let v = self.program.module.side.const_value(e.id);
                let v = v.and_then(|v| v.as_int()).unwrap_or(0);
                self.emit_fused(Op::Const {
                    dst,
                    v: Value::Int(v),
                });
            }
            ExprKind::Comma(a, b) => {
                self.eval(a, dst);
                self.eval(b, dst);
            }
        }
    }

    fn patch_jump_here(&mut self, op_idx: usize) {
        let here = self.label_here();
        match &mut self.ops[op_idx] {
            Op::Jump { target, .. }
            | Op::JumpIfFalse { target, .. }
            | Op::JumpIfTrue { target, .. } => *target = here,
            other => unreachable!("patch on non-jump {other:?}"),
        }
    }

    fn eval_unary(&mut self, e: &Expr, op: UnOp, inner: &Expr, dst: u16) {
        match op {
            UnOp::Neg => {
                self.eval(inner, dst);
                self.emit(Op::Neg { dst, src: dst });
            }
            UnOp::Not => {
                self.eval(inner, dst);
                self.emit(Op::LogicNot { dst, src: dst });
            }
            UnOp::BitNot => {
                self.eval(inner, dst);
                self.emit(Op::BitNot { dst, src: dst });
            }
            UnOp::Deref => {
                let nt = self.nty(e);
                // `*f` on a function pointer is the function pointer.
                if nt.class == TyClass::FnPtr && self.nty(inner).class == TyClass::FnPtr {
                    self.eval(inner, dst);
                    return;
                }
                self.eval(inner, dst);
                if nt.class == TyClass::Agg {
                    self.emit(Op::ToPtr { dst, src: dst });
                } else {
                    let tick = self.take_pending();
                    self.emit_fused(Op::Load {
                        dst,
                        addr: dst,
                        tick,
                    });
                }
            }
            UnOp::Addr => {
                // `&f` yields the function pointer itself, no place walk.
                if let ExprKind::Ident(_) = &inner.kind {
                    if let Some(Resolution::Func(fid)) =
                        self.program.module.side.resolution(inner.id)
                    {
                        self.emit(Op::Const {
                            dst,
                            v: Value::Fn(fid),
                        });
                        return;
                    }
                }
                let p = self.place(inner, dst);
                self.place_addr(p, dst);
            }
            UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec => {
                let nt = self.nty(inner);
                let step = if nt.class == TyClass::Ptr {
                    nt.elem as i64
                } else {
                    1
                };
                let delta = match op {
                    UnOp::PreInc | UnOp::PostInc => step,
                    _ => -step,
                };
                let post = matches!(op, UnOp::PostInc | UnOp::PostDec);
                match self.place(inner, dst) {
                    Place::Local(off) => {
                        self.emit(Op::IncDecLocal {
                            dst,
                            off,
                            delta,
                            post,
                        });
                    }
                    Place::Data(idx) => {
                        self.emit(Op::IncDecGlobal {
                            dst,
                            idx,
                            delta,
                            post,
                        });
                    }
                    Place::Reg(r) => {
                        let tick = self.take_pending();
                        self.emit(Op::IncDec {
                            dst,
                            addr: r,
                            delta,
                            post,
                            tick,
                        });
                    }
                }
            }
        }
    }

    fn eval_assign(&mut self, op: Option<BinOp>, lhs: &Expr, rhs: &Expr, dst: u16) {
        let lty = self.nty(lhs);
        match op {
            None => {
                if lty.class == TyClass::Agg {
                    let p = self.place(lhs, dst);
                    self.place_addr(p, dst);
                    self.eval(rhs, dst + 1);
                    let tick = self.take_pending();
                    self.emit(Op::CopyWords {
                        dst_addr: dst,
                        src: dst + 1,
                        n: lty.size,
                        dst,
                        tick,
                    });
                } else {
                    match self.place(lhs, dst) {
                        Place::Local(off) => {
                            self.eval(rhs, dst);
                            self.emit_fused(Op::StoreLocal {
                                off,
                                src: dst,
                                class: lty.class,
                                dst,
                            });
                        }
                        Place::Data(idx) => {
                            self.eval(rhs, dst);
                            self.emit(Op::StoreGlobal {
                                idx,
                                src: dst,
                                class: lty.class,
                                dst,
                            });
                        }
                        Place::Reg(r) => {
                            self.eval(rhs, dst + 1);
                            let tick = self.take_pending();
                            self.emit(Op::Store {
                                addr: r,
                                src: dst + 1,
                                class: lty.class,
                                dst,
                                tick,
                            });
                        }
                    }
                }
            }
            Some(op) => {
                let mode = Self::arith_mode(op, lty, self.nty(rhs));
                match self.place(lhs, dst) {
                    Place::Local(off) => {
                        self.eval(rhs, dst);
                        let tick = if mode.fallible() {
                            self.take_pending()
                        } else {
                            0
                        };
                        self.emit(Op::RmwLocal {
                            off,
                            src: dst,
                            mode,
                            class: lty.class,
                            dst,
                            tick,
                        });
                    }
                    Place::Data(idx) => {
                        self.eval(rhs, dst);
                        let tick = if mode.fallible() {
                            self.take_pending()
                        } else {
                            0
                        };
                        self.emit(Op::RmwGlobal {
                            idx,
                            src: dst,
                            mode,
                            class: lty.class,
                            dst,
                            tick,
                        });
                    }
                    Place::Reg(r) => {
                        self.eval(rhs, dst + 1);
                        let tick = self.take_pending();
                        self.emit(Op::Rmw {
                            addr: r,
                            src: dst + 1,
                            mode,
                            class: lty.class,
                            dst,
                            tick,
                        });
                    }
                }
            }
        }
    }

    fn eval_call(&mut self, e: &Expr, callee: &Expr, args: &[Expr], dst: u16) {
        let site = self.program.module.side.call_site(e.id);
        let site = site.expect("sema registered every call site").0;
        self.emit(Op::BumpSite(site));
        let cs = &self.program.module.side.call_sites[site as usize];
        let nargs = u16::try_from(args.len()).expect("argument count fits u16");
        match cs.callee {
            CalleeKind::Direct(fid) => {
                for (i, a) in args.iter().enumerate() {
                    self.eval(a, dst + i as u16);
                }
                if self.program.cfg_opt(fid).is_none() {
                    let name = self.program.module.function(fid).name.clone();
                    self.fail(RuntimeError::Undefined { name });
                } else {
                    let tick = self.take_pending();
                    self.emit(Op::CallDirect {
                        func: fid.0,
                        argbase: dst,
                        nargs,
                        dst,
                        tick,
                    });
                }
            }
            CalleeKind::Builtin(b) => {
                for (i, a) in args.iter().enumerate() {
                    self.eval(a, dst + i as u16);
                }
                let tick = self.take_pending();
                self.emit(Op::CallBuiltin {
                    b,
                    argbase: dst,
                    nargs,
                    dst,
                    tick,
                });
            }
            CalleeKind::Indirect => {
                self.eval(callee, dst);
                let tick = self.take_pending();
                self.emit(Op::CheckFn { src: dst, tick });
                for (i, a) in args.iter().enumerate() {
                    self.eval(a, dst + 1 + i as u16);
                }
                let tick = self.take_pending();
                self.emit(Op::CallIndirect {
                    callee: dst,
                    argbase: dst + 1,
                    nargs,
                    dst,
                    tick,
                });
            }
        }
    }
}
