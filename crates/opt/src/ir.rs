//! The optimizer's chunk IR: lifting a function's contiguous op range
//! into relocatable straight-line chunks, and lowering the whole
//! program back to one flat stream.
//!
//! A *chunk* is a maximal straight-line run of ops: it starts at a
//! jump target (or the op after an unconditional transfer) and ends
//! with an unconditional transfer — lifting appends an explicit
//! `Jump { tick: 0 }` where the original code fell through, so chunks
//! can be reordered, spliced, and dropped freely. Inside the IR every
//! jump-target field holds a `ChunkId` (an index into
//! [`FuncIr::chunks`]); switch tables are cloned per function with
//! `ChunkId` targets. Lowering emits chunks in [`FuncIr::order`],
//! patches targets back to absolute pcs, and rebuilds the side tables.
//!
//! Lifting works on the fully instrumented stream: the compiler leaves
//! out zero-tick edge stubs whose edge carries no counter
//! (`FuncMeta::elided`), and lifting puts each back as the uncounted
//! `EdgeJump` it replaced, so every pass and the dispatch-cost model
//! see the same op stream whatever the counter placement.
//!
//! Functions outside the optimization budget are copied verbatim with
//! their jump targets shifted by the relocation delta, so an optimized
//! program always contains every function.

use profiler::bytecode::{CompiledProgram, FuncMeta, Op, Origin, Parts, SwitchTable, NONE32};

/// One straight-line run of ops, relocatable as a unit.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Index into [`FuncIr::origins`] of the flowgraph block the
    /// chunk came from (`NONE32` when unknown).
    pub origin: u32,
    /// The ops; jump-target fields hold `ChunkId`s.
    pub ops: Vec<Op>,
    /// Estimated (or measured) executions per program run.
    pub freq: f64,
    /// Unreachable — skipped at lowering.
    pub dead: bool,
}

/// A direct-call site found during lifting, for the inliner.
#[derive(Debug, Clone, Copy)]
pub struct CallSite {
    /// Containing chunk.
    pub chunk: u32,
    /// Op index of the `CallDirect` within the chunk.
    pub idx: u32,
    /// The call-site counter index (`CallSiteId`), or `NONE32` when
    /// the pairing scan could not attribute one.
    pub site: u32,
    /// Callee `FuncId`.
    pub callee: u32,
}

/// One function lifted to chunks.
#[derive(Debug, Clone)]
pub struct FuncIr {
    /// The function's id.
    pub fid: usize,
    /// All chunks; indexed by `ChunkId`.
    pub chunks: Vec<Chunk>,
    /// Entry `ChunkId`.
    pub entry: u32,
    /// Emission order (live chunks only after layout/DCE prune it).
    pub order: Vec<u32>,
    /// Per-function switch tables with `ChunkId` targets.
    pub tables: Vec<SwitchTable>,
    /// Frame size in words (grows under inlining).
    pub frame_size: u32,
    /// Register-window size (grows under inlining).
    pub max_regs: u32,
    /// Direct-call sites eligible for inlining, in op order.
    pub call_sites: Vec<CallSite>,
    /// The blocks chunks came from, with the call-site block of every
    /// inlined callee's blocks (lowered into `FuncMeta::origins`).
    pub origins: Vec<Origin>,
}

/// A function's code with its elided stubs restored, in
/// function-local pcs (`0..ops.len()`).
struct Body {
    ops: Vec<Op>,
    tables: Vec<SwitchTable>,
    entry: u32,
    block_start: Vec<u32>,
}

/// The function's op count with every elided stub restored — the
/// size the optimizer's budgets are measured in.
pub fn instrumented_len(meta: &FuncMeta) -> u32 {
    meta.code.1 - meta.code.0 + meta.elided.len() as u32
}

/// Restores the fully instrumented stream of one function: every
/// elided stub goes back where it stood, as an uncounted zero-tick
/// `EdgeJump`. A conditional whose else edge jumped straight to a
/// block regains its else stub two ops on (after the then stub), and
/// a switch entry that did so regains the stub for that block among
/// the switch's stubs.
fn expand(cp: &CompiledProgram, meta: &FuncMeta) -> Body {
    let (start, end) = meta.code;
    let n = (end - start) as usize;
    let mut ops = Vec::with_capacity(n + meta.elided.len());
    // Real pc (relative to `start`, plus one past the end) → local pc.
    let mut local = vec![0u32; n + 1];
    let mut elided = meta.elided.iter().peekable();
    for pc in start..=end {
        while let Some(&(_, b)) = elided.next_if(|&&(at, _)| at == pc) {
            ops.push(Op::EdgeJump {
                edge: NONE32,
                target: meta.block_pc[b as usize],
                tick: 0,
            });
        }
        local[(pc - start) as usize] = ops.len() as u32;
        if pc < end {
            ops.push(cp.ops[pc as usize]);
        }
    }
    debug_assert!(elided.next().is_none(), "elided stub outside the code");
    let is_block = |t: u32| meta.block_pc.binary_search(&t).is_ok();
    let to_local = |t: u32| local[(t - start) as usize];
    let block_start: Vec<u32> = meta.block_pc.iter().map(|&p| to_local(p)).collect();

    for (at, op) in ops.iter_mut().enumerate() {
        let else_elided = matches!(
            op,
            Op::CondBranch { .. }
                | Op::CmpBranchLL { .. }
                | Op::CmpBranchLI { .. }
                | Op::CmpBranchRR { .. }
                | Op::CmpBranchRL { .. }
                | Op::CmpBranchRI { .. }
        );
        op.for_each_target(|t| {
            *t = if else_elided && is_block(*t) {
                at as u32 + 2
            } else {
                to_local(*t)
            };
        });
    }
    // Switch tables, with an elided entry pointing at the restored
    // stub for its block among the stubs after the switch (there is
    // one per distinct successor).
    let mut tables = Vec::new();
    for at in 0..ops.len() {
        let Op::SwitchJump { table, .. } = ops[at] else {
            continue;
        };
        let stubs_end = block_start
            .iter()
            .copied()
            .find(|&b| b > at as u32)
            .unwrap_or(ops.len() as u32);
        let mut t = cp.switch_tables[table as usize].clone();
        t.for_each_target(|pc| {
            let blk = to_local(*pc);
            *pc = if !is_block(*pc) {
                blk
            } else {
                (at as u32 + 1..stubs_end)
                    .find(|&p| matches!(ops[p as usize], Op::EdgeJump { target, .. } if target == blk))
                    .expect("a stub for every switch successor")
            };
        });
        if let Op::SwitchJump { table, .. } = &mut ops[at] {
            *table = tables.len() as u32;
        }
        tables.push(t);
    }
    Body {
        ops,
        tables,
        entry: to_local(meta.entry),
        block_start,
    }
}

/// Lifts one function into chunk IR. `block_freqs` is the function's
/// per-block frequency vector (estimated or measured); pass `&[]` for
/// an all-zero profile.
pub fn lift(cp: &CompiledProgram, fid: usize, block_freqs: &[f64]) -> FuncIr {
    let meta = &cp.funcs[fid];
    debug_assert_ne!(meta.entry, NONE32, "lifting a bodiless prototype");
    let mut body = expand(cp, meta);
    let code = &body.ops;
    let end = code.len() as u32;

    // Leaders: the range start, every block start, every jump target,
    // and the op after every unconditional transfer.
    let mut leaders = vec![0, body.entry];
    leaders.extend_from_slice(&body.block_start);
    for (pc, &op) in code.iter().enumerate() {
        let mut targets = op;
        targets.for_each_target(|t| leaders.push(*t));
        if let Op::SwitchJump { table, .. } = op {
            body.tables[table as usize].for_each_target(|t| leaders.push(*t));
        }
        if op.is_terminator() && pc as u32 + 1 < end {
            leaders.push(pc as u32 + 1);
        }
    }
    leaders.sort_unstable();
    leaders.dedup();
    debug_assert!(leaders.iter().all(|&pc| pc < end));
    let chunk_of = |pc: u32| -> u32 {
        debug_assert!(leaders.binary_search(&pc).is_ok(), "jump into mid-chunk");
        leaders.partition_point(|&l| l <= pc) as u32 - 1
    };

    // Pair each call op with its `BumpSite`: the compiler emits the
    // site bump before the arguments and the call after them, so
    // pushes and pops nest in layout order. (Used only to *rank*
    // sites; the counters themselves are never touched.)
    let mut site_stack = Vec::new();
    let mut site_of_pc = vec![NONE32; code.len()];
    for (pc, op) in code.iter().enumerate() {
        match *op {
            Op::BumpSite(s) => site_stack.push(s),
            Op::CallDirect { .. } => site_of_pc[pc] = site_stack.pop().unwrap_or(NONE32),
            Op::CallIndirect { .. } | Op::CallBuiltin { .. } => {
                site_stack.pop();
            }
            _ => {}
        }
    }

    let mut chunks = Vec::with_capacity(leaders.len());
    let mut tables = Vec::new();
    let mut call_sites = Vec::new();
    for (i, &lead) in leaders.iter().enumerate() {
        let chunk_end = leaders.get(i + 1).copied().unwrap_or(end);
        let mut ops = Vec::with_capacity((chunk_end - lead + 1) as usize);
        for pc in lead..chunk_end {
            let mut op = code[pc as usize];
            op.for_each_target(|t| *t = chunk_of(*t));
            if let Op::SwitchJump { table, .. } = &mut op {
                let mut t = body.tables[*table as usize].clone();
                t.for_each_target(|t| *t = chunk_of(*t));
                *table = tables.len() as u32;
                tables.push(t);
            }
            if let Op::CallDirect { func, .. } = op {
                call_sites.push(CallSite {
                    chunk: i as u32,
                    idx: ops.len() as u32,
                    site: site_of_pc[pc as usize],
                    callee: func,
                });
            }
            ops.push(op);
        }
        // Materialize the fallthrough so chunk order is semantically
        // free; a zero tick keeps the step count unchanged.
        if !ops.last().is_some_and(Op::is_terminator) {
            debug_assert!(i + 1 < leaders.len(), "function falls off its end");
            ops.push(Op::Jump {
                target: i as u32 + 1,
                tick: 0,
            });
        }
        let block = block_of_pc(&body.block_start, lead);
        let freq = block
            .and_then(|b| block_freqs.get(b).copied())
            .unwrap_or(0.0);
        chunks.push(Chunk {
            origin: block.map_or(NONE32, |b| b as u32),
            ops,
            freq,
            dead: false,
        });
    }

    let order = (0..chunks.len() as u32).collect();
    FuncIr {
        fid,
        entry: chunk_of(body.entry),
        chunks,
        order,
        tables,
        frame_size: meta.frame_size,
        max_regs: meta.max_regs,
        call_sites,
        origins: (0..body.block_start.len() as u32)
            .map(|block| Origin {
                func: fid as u32,
                block,
                caller: NONE32,
            })
            .collect(),
    }
}

/// The flowgraph block containing `pc`, from the function's sorted
/// per-block start pcs.
pub fn block_of_pc(block_pc: &[u32], pc: u32) -> Option<usize> {
    let i = block_pc.partition_point(|&p| p <= pc);
    i.checked_sub(1)
}

/// Drops a trailing `Jump` whose target is the next chunk in emission
/// order (the jump becomes an implicit fallthrough). Ticks carried by
/// dropped jumps are re-derived by recosting, which always follows.
pub fn drop_redundant_jumps(ir: &mut FuncIr) {
    for w in 0..ir.order.len() {
        let id = ir.order[w] as usize;
        let next = ir.order.get(w + 1).copied();
        if let Some(Op::Jump { target, .. }) = ir.chunks[id].ops.last() {
            if Some(*target) == next && ir.chunks[id].ops.len() > 1 {
                ir.chunks[id].ops.pop();
            }
        }
    }
}

/// Lowers the whole program back to a flat op stream. `irs` holds the
/// transformed IR for budgeted functions (`None` entries are copied
/// verbatim, relocated). `order` is the emission order of function
/// bodies in the flat stream — cross-function hot packing clusters
/// hot bodies together; the `funcs` table stays `FuncId`-indexed and
/// every body stays contiguous, so jump closure is preserved.
///
/// The image is built through `CompiledProgram::new`, which verifies
/// it; an image that fails is an optimizer bug and panics.
pub fn lower(cp: &CompiledProgram, irs: &[Option<FuncIr>], order: &[usize]) -> CompiledProgram {
    debug_assert_eq!(order.len(), cp.funcs.len());
    let mut ops = Vec::with_capacity(cp.ops.len());
    let mut switch_tables = Vec::with_capacity(cp.switch_tables.len());
    let mut funcs: Vec<Option<FuncMeta>> = vec![None; cp.funcs.len()];

    for &fid in order {
        let meta = &cp.funcs[fid];
        let new_start = ops.len() as u32;
        let (start, end) = meta.code;
        match &irs[fid] {
            None => {
                // Verbatim copy, shifted by the relocation delta.
                let delta = new_start.wrapping_sub(start);
                for pc in start..end {
                    let mut op = cp.ops[pc as usize];
                    op.for_each_target(|t| *t = t.wrapping_add(delta));
                    if let Op::SwitchJump { table, .. } = &mut op {
                        let mut t = cp.switch_tables[*table as usize].clone();
                        t.for_each_target(|pc| *pc = pc.wrapping_add(delta));
                        *table = switch_tables.len() as u32;
                        switch_tables.push(t);
                    }
                    ops.push(op);
                }
                let shift = |p: u32| p.wrapping_add(delta);
                funcs[fid] = Some(FuncMeta {
                    entry: if meta.entry == NONE32 {
                        NONE32
                    } else {
                        shift(meta.entry)
                    },
                    code: (new_start, ops.len() as u32),
                    block_pc: meta.block_pc.iter().map(|&p| shift(p)).collect(),
                    elided: meta.elided.iter().map(|&(p, b)| (shift(p), b)).collect(),
                    origin_pc: meta.origin_pc.iter().map(|&(p, o)| (shift(p), o)).collect(),
                    ..meta.clone()
                });
            }
            Some(ir) => {
                // Chunk start pcs, in emission order.
                let mut chunk_pc = vec![NONE32; ir.chunks.len()];
                let mut at = new_start;
                for &id in &ir.order {
                    debug_assert!(!ir.chunks[id as usize].dead);
                    chunk_pc[id as usize] = at;
                    at += ir.chunks[id as usize].ops.len() as u32;
                }
                for &id in &ir.order {
                    for op in &ir.chunks[id as usize].ops {
                        let mut op = *op;
                        op.for_each_target(|t| {
                            debug_assert_ne!(chunk_pc[*t as usize], NONE32, "jump to dead chunk");
                            *t = chunk_pc[*t as usize];
                        });
                        if let Op::SwitchJump { table, .. } = &mut op {
                            let mut t = ir.tables[*table as usize].clone();
                            t.for_each_target(|c| *c = chunk_pc[*c as usize]);
                            *table = switch_tables.len() as u32;
                            switch_tables.push(t);
                        }
                        ops.push(op);
                    }
                }
                funcs[fid] = Some(FuncMeta {
                    entry: chunk_pc[ir.entry as usize],
                    code: (new_start, ops.len() as u32),
                    // Optimized functions are not re-liftable; their
                    // ops map back to blocks through chunk origins.
                    block_pc: Vec::new(),
                    elided: Vec::new(),
                    origin_pc: ir
                        .order
                        .iter()
                        .map(|&id| (chunk_pc[id as usize], ir.chunks[id as usize].origin))
                        .collect(),
                    origins: ir.origins.clone(),
                    frame_size: ir.frame_size,
                    max_regs: ir.max_regs,
                    ..meta.clone()
                });
            }
        }
    }

    let parts = Parts {
        ops,
        funcs: funcs
            .into_iter()
            .map(|f| f.expect("every function emitted exactly once"))
            .collect(),
        switch_tables,
        main: cp.main,
        images: cp.images.clone(),
        fails: cp.fails.clone(),
        data_image: cp.data_image.clone(),
        edge_keys: cp.edge_keys.clone(),
        counters: cp.counters.clone(),
        n_branches: cp.n_branches,
        n_sites: cp.n_sites,
    };
    CompiledProgram::new(parts)
        .unwrap_or_else(|e| panic!("optimizer emitted invalid bytecode: {e}"))
}
