//! Estimator-guided optimizing backend for the bytecode VM.
//!
//! The paper's Fig 10 experiment recompiles a program's functions in
//! estimated-hotness order and measures the speedup after each
//! increment. This crate is the "recompile" half: it lifts compiled
//! bytecode into a chunk IR ([`ir`]), runs a classic scalar pipeline
//! over the functions selected by an [`OptPlan`] — inlining, constant
//! folding and branch simplification, dead-code elimination,
//! superinstruction fusion, hot-path layout ([`passes`],
//! [`inline`]) — and recosts the result under a dispatch-cost model so
//! the VM's `steps` counter measures what the optimizer saved.
//!
//! The contract with the unoptimized program is exact: byte-identical
//! output, exit state, and *count* profile counters (blocks, edges,
//! branches, call sites, function entries). Only `steps` and
//! `func_cost` — the quantities being optimized — change. The fuzzer's
//! differential oracle holds every optimized program to that contract.
//!
//! Pass order: inline → fold → dce → fuse (the compiler's shared pair
//! rules, then the mined ones) → layout → recost → lower.
//! Inlining first exposes the callee body to the caller's folding;
//! layout runs before recost so dropped fallthrough jumps are never
//! charged; recost runs last over the final op sequence.

#![warn(missing_docs)]

pub mod alias;
pub mod inline;
pub mod ir;
pub mod passes;

use profiler::bytecode::{CompiledProgram, NONE32};

/// Version of the pass pipeline, part of every optimized-artifact
/// cache key: bump when a pass changes observable shape or costs.
/// Version 2: alias-admitted inlining, multi-level inlining, mined
/// superinstructions, cross-function hot packing.
pub const PASS_PIPELINE_VERSION: u32 = 2;

/// What to optimize and how hard — produced by a ranking provider
/// (static estimates, measured profiles, or the held-out oracle).
#[derive(Debug, Clone)]
pub struct OptPlan {
    /// Optimization level: 0 = identity, 1 = fold + branch
    /// simplification + DCE + recost, 2 = + fusion + layout,
    /// 3 = + inlining.
    pub level: u8,
    /// Per-`FuncId` budget membership: only these functions are
    /// transformed (the rest are relocated verbatim).
    pub budgeted: Vec<bool>,
    /// Per-function, per-block execution frequencies (estimated or
    /// measured, whole-run scale). Empty vectors mean "unknown".
    pub block_freqs: Vec<Vec<f64>>,
    /// Per-call-site execution frequencies, indexed by `CallSiteId`.
    pub site_freqs: Vec<f64>,
    /// Global code-growth budget for inlining, in ops.
    pub inline_budget: u32,
}

impl OptPlan {
    /// A plan that optimizes every defined function at `level`, with
    /// no frequency information (all chunks equally hot).
    pub fn full(cp: &CompiledProgram, level: u8) -> OptPlan {
        OptPlan {
            level,
            budgeted: cp.funcs.iter().map(|f| f.entry != NONE32).collect(),
            block_freqs: vec![Vec::new(); cp.funcs.len()],
            site_freqs: vec![0.0; cp.n_sites],
            inline_budget: default_inline_budget(cp),
        }
    }
}

/// The default global inlining budget: a quarter of the program's
/// original code size, fully instrumented.
pub fn default_inline_budget(cp: &CompiledProgram) -> u32 {
    let elided: usize = cp.funcs.iter().map(|f| f.elided.len()).sum();
    ((cp.ops.len() + elided) / 4) as u32
}

/// Per-pass work counters for one [`optimize`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Call sites inlined.
    pub inlined_calls: u64,
    /// Constants folded and branches statically resolved.
    pub folded: u64,
    /// Unreachable chunks dropped.
    pub dce_blocks: u64,
    /// Dead register writes deleted.
    pub dce_ops: u64,
    /// Superinstruction pairs fused (emitter-pair patterns).
    pub fused: u64,
    /// Mined superinstruction pairs fused (frequency-harvested
    /// digram patterns).
    pub mined: u64,
}

/// Optimizes `cp` according to `plan`, returning the rewritten
/// program and what each pass did. The input is never mutated; at
/// level 0 (or an empty budget) the result is a verbatim clone. A
/// rewritten image is verified as [`ir::lower`] builds it.
pub fn optimize(cp: &CompiledProgram, plan: &OptPlan) -> (CompiledProgram, OptStats) {
    let _sp = obs::span("opt.optimize");
    let Some((mut irs, stats)) = run_passes(cp, plan) else {
        return (cp.clone(), OptStats::default());
    };
    for f_ir in irs.iter_mut().flatten() {
        passes::recost(f_ir);
    }
    let out = ir::lower(cp, &irs, &pack_order(cp, plan));

    if obs::enabled() {
        obs::counter_add("opt.inlined_calls", stats.inlined_calls);
        obs::counter_add("opt.folded", stats.folded);
        obs::counter_add("opt.dce_blocks", stats.dce_blocks);
        obs::counter_add("opt.dce_ops", stats.dce_ops);
        obs::counter_add("opt.fused", stats.fused);
        obs::counter_add("opt.mined", stats.mined);
    }
    (out, stats)
}

/// Lift + scalar passes up to layout (everything except recost and
/// lowering). `None` means the plan is an identity transform.
fn run_passes(cp: &CompiledProgram, plan: &OptPlan) -> Option<(Vec<Option<ir::FuncIr>>, OptStats)> {
    let mut stats = OptStats::default();
    let budgeted = |f: usize| {
        plan.level >= 1
            && plan.budgeted.get(f).copied().unwrap_or(false)
            && cp.funcs[f].entry != NONE32
            && cp.funcs[f].code.1 > cp.funcs[f].code.0
    };
    if plan.level == 0 || !(0..cp.funcs.len()).any(budgeted) {
        return None;
    }

    let mut irs: Vec<Option<ir::FuncIr>> = (0..cp.funcs.len())
        .map(|f| {
            budgeted(f).then(|| {
                let freqs = plan.block_freqs.get(f).map(Vec::as_slice).unwrap_or(&[]);
                ir::lift(cp, f, freqs)
            })
        })
        .collect();

    if plan.level >= 3 {
        stats.inlined_calls = run_inliner(cp, plan, &mut irs);
    }
    for f_ir in irs.iter_mut().flatten() {
        stats.folded += passes::fold(f_ir, cp);
        let (blocks, ops) = passes::dce(f_ir);
        stats.dce_blocks += blocks;
        stats.dce_ops += ops;
        if plan.level >= 2 {
            stats.fused += passes::fuse(f_ir, profiler::bytecode::fuse_pair);
            stats.mined += passes::fuse(f_ir, passes::mined_pair);
            passes::layout(f_ir);
        } else {
            ir::drop_redundant_jumps(f_ir);
        }
    }
    Some((irs, stats))
}

/// Function emission order for cross-function hot packing: bodies of
/// hot functions cluster at the front of the flat op stream (bytecode
/// locality; `FuncId` indexing is unaffected). Heat is the plan's
/// whole-run block-frequency mass; functions without frequency
/// information keep their relative program order at the back.
fn pack_order(cp: &CompiledProgram, plan: &OptPlan) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cp.funcs.len()).collect();
    if plan.level < 2 {
        return order;
    }
    let heat = |f: usize| -> f64 {
        plan.block_freqs
            .get(f)
            .map(|b| b.iter().sum())
            .unwrap_or(0.0)
    };
    order.sort_by(|&a, &b| heat(b).total_cmp(&heat(a)).then(a.cmp(&b)));
    order
}

/// Lift + lower with no passes: the optimizer's machinery shakedown.
/// The result must behave identically to `cp` *including* steps and
/// profiles (the only difference is zero-tick fallthrough jumps and
/// relocation).
pub fn roundtrip(cp: &CompiledProgram) -> CompiledProgram {
    let irs: Vec<Option<ir::FuncIr>> = (0..cp.funcs.len())
        .map(|f| {
            let meta = &cp.funcs[f];
            (meta.entry != NONE32 && meta.code.1 > meta.code.0).then(|| ir::lift(cp, f, &[]))
        })
        .collect();
    ir::lower(cp, &irs, &(0..cp.funcs.len()).collect::<Vec<_>>())
}

/// Depth bound for multi-level inlining: call sites exposed by a
/// splice can themselves be inlined, at most this many levels deep.
const MAX_INLINE_DEPTH: usize = 4;

/// Global hottest-first inlining over every budgeted function, bounded
/// by the plan's code-growth budget, iterated to a fixed point: every
/// splice re-enters the callee body's own call sites as candidates
/// (with frequencies rescaled to this instance's share), so hot call
/// chains collapse level by level until the budget runs out or no
/// admissible site remains. An ancestor-chain check plus the depth
/// bound keeps (mutual) recursion from cycling; the monotonically
/// shrinking budget guarantees termination regardless.
fn run_inliner(cp: &CompiledProgram, plan: &OptPlan, irs: &mut [Option<ir::FuncIr>]) -> u64 {
    struct Cand {
        fid: usize,
        site: ir::CallSite,
        freq: f64,
        /// Callee fids of the splices that exposed this site —
        /// inlining a callee already on the chain would cycle.
        path: Vec<u32>,
        done: bool,
    }
    let site_freq = |site: &ir::CallSite| {
        if site.site == NONE32 {
            0.0
        } else {
            plan.site_freqs
                .get(site.site as usize)
                .copied()
                .unwrap_or(0.0)
        }
    };
    let mut cands = Vec::new();
    for (fid, f_ir) in irs.iter().enumerate() {
        let Some(f_ir) = f_ir else { continue };
        for site in &f_ir.call_sites {
            cands.push(Cand {
                fid,
                site: *site,
                freq: site_freq(site),
                path: Vec::new(),
                done: false,
            });
        }
    }

    let mut budget = plan.inline_budget as i64;
    let mut inlined = 0;
    // Hottest remaining site first, across rounds: freshly exposed
    // sites compete with the original ones on equal footing.
    while let Some(i) = {
        // First among equals, so zero-frequency plans (no profile
        // information) fall back to stable program order.
        let mut best: Option<usize> = None;
        for (j, c) in cands.iter().enumerate() {
            if !c.done && best.is_none_or(|b| c.freq > cands[b].freq) {
                best = Some(j);
            }
        }
        best
    } {
        cands[i].done = true;
        let (fid, site) = (cands[i].fid, cands[i].site);
        if cands[i].path.len() >= MAX_INLINE_DEPTH || cands[i].path.contains(&site.callee) {
            continue;
        }
        let f_ir = irs[fid].as_mut().expect("candidate from a budgeted fn");
        if !inline::can_inline(cp, f_ir, &site) {
            continue;
        }
        if inline::growth_estimate(cp, &site) as i64 > budget {
            continue;
        }
        let callee_freqs = plan
            .block_freqs
            .get(site.callee as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let spliced = inline::inline_site(f_ir, cp, &site, callee_freqs);
        budget -= spliced.growth as i64;
        inlined += 1;
        // Candidates in the calling chunk after the call moved into
        // the continuation chunk; retarget their coordinates.
        for later in cands.iter_mut().filter(|c| !c.done) {
            if later.fid == fid && later.site.chunk == site.chunk && later.site.idx > site.idx {
                later.site.chunk = spliced.post_chunk;
                later.site.idx -= site.idx + 1;
            }
        }
        // The spliced body's call sites become candidates one level
        // deeper, ranked by the heat of the chunk they landed in.
        let mut path = cands[i].path.clone();
        path.push(site.callee);
        let f_ir = irs[fid].as_ref().expect("just spliced into it");
        for s in spliced.new_sites {
            cands.push(Cand {
                fid,
                site: s,
                freq: site_freq(&s).min(f_ir.chunks[s.chunk as usize].freq),
                path: path.clone(),
                done: false,
            });
        }
    }
    inlined
}
