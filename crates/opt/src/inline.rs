//! Frequency-guided function inlining by chunk splicing.
//!
//! An inlined call replicates `enter()`/`Ret` inline: the callee's
//! frame is bump-allocated at the end of the caller's (so the caller's
//! single frame allocation covers it), its registers are rebased onto
//! the call's destination window (compiler invariant: `argbase == dst`
//! and every register at or above `dst` is dead after the call), and
//! its original chunks are spliced in with `Ret` rewritten to a jump
//! to the split-off continuation. A zero-cost
//! [`Op::BumpFunc`] replicates the function-entry counter bump (the
//! entry block's count is rebuilt from it) and a
//! `ZeroLocal` replicates the per-call frame zero-fill, so every
//! *count* profile counter stays byte-identical; only `CALL_COST`
//! attribution (`func_cost`) and step accounting change.
//!
//! Candidates may materialize frame addresses (`LeaLocal` and
//! friends) as long as the [`crate::alias`] analysis proves those
//! addresses stay contained in the activation: dereferences relocate
//! together with the frame, so merging it into the caller's cannot
//! change what any runtime pointer observes.

use crate::ir::{instrumented_len, lift, CallSite, FuncIr};
use profiler::bytecode::{CompiledProgram, Field, Op, Origin, ParamBind, Table, NONE32};

/// Upper bound on callee size (ops) for inlining.
pub const MAX_INLINE_OPS: u32 = 96;

/// Why a call site cannot be inlined (or `None` if it can).
fn reject(cp: &CompiledProgram, caller: usize, site: &CallSite) -> bool {
    let callee = &cp.funcs[site.callee as usize];
    let (start, end) = callee.code;
    if callee.entry == NONE32
        || site.callee as usize == caller
        || instrumented_len(callee) > MAX_INLINE_OPS
    {
        return true;
    }
    if !callee
        .params
        .iter()
        .all(|p| matches!(p, ParamBind::Scalar { .. }))
    {
        return true;
    }
    let ops = &cp.ops[start as usize..end as usize];
    // The splice turns `Ret` into a plain jump, so the value must
    // already sit in the call's destination: the callee's register 0,
    // which the compiler returns every value from.
    if ops
        .iter()
        .any(|op| matches!(op, Op::Ret { src, .. } if *src != 0))
    {
        return true;
    }
    // Address-taken locals are fine as long as the alias analysis
    // proves every materialized frame address stays contained in the
    // activation: the splice relocates the frame, so an escaping or
    // numerically-observed address could diverge.
    !crate::alias::frame_contained(ops)
}

/// The result of one successful splice, for call-site fixups.
pub struct Spliced {
    /// Chunk holding the caller ops after the call.
    pub post_chunk: u32,
    /// Ops added to the caller (code growth).
    pub growth: u32,
    /// The callee body's own call sites, now in caller coordinates —
    /// candidates for further (multi-level) inlining.
    pub new_sites: Vec<CallSite>,
}

/// Conservative pre-splice growth estimate, for budget checks.
pub fn growth_estimate(cp: &CompiledProgram, site: &CallSite) -> u32 {
    let callee = &cp.funcs[site.callee as usize];
    instrumented_len(callee) + callee.params.len() as u32 + 4
}

/// Whether `site` can be inlined into `caller` at all (size, shape,
/// and register-window checks; the budget is the caller's concern).
pub fn can_inline(cp: &CompiledProgram, ir: &FuncIr, site: &CallSite) -> bool {
    if reject(cp, ir.fid, site) {
        return false;
    }
    let Op::CallDirect {
        func, argbase, dst, ..
    } = ir.chunks[site.chunk as usize].ops[site.idx as usize]
    else {
        return false;
    };
    debug_assert_eq!(func, site.callee);
    if argbase != dst {
        // The splice relies on the compiler's argbase == dst layout
        // (arguments live at the destination window).
        return false;
    }
    let callee = &cp.funcs[site.callee as usize];
    // The rebased callee window must stay within u16 registers.
    (dst as u32 + callee.max_regs) <= u16::MAX as u32
}

/// Splices `site`'s callee into the caller. The caller must have
/// checked [`can_inline`] first.
///
/// `callee_freqs` are the callee's whole-run per-block frequencies
/// (empty when unknown): the spliced chunks inherit the callee's
/// *shape* of heat, rescaled so the entry matches the calling chunk's
/// frequency — downstream fusion and layout then see this instance's
/// share rather than the callee's all-callers total.
pub fn inline_site(
    ir: &mut FuncIr,
    cp: &CompiledProgram,
    site: &CallSite,
    callee_freqs: &[f64],
) -> Spliced {
    let Op::CallDirect { dst: rb, nargs, .. } =
        ir.chunks[site.chunk as usize].ops[site.idx as usize]
    else {
        unreachable!("call site coordinates went stale");
    };
    let callee_fid = site.callee as usize;
    let callee = &cp.funcs[callee_fid];
    let fb = ir.frame_size;
    ir.frame_size += callee.frame_size;
    ir.max_regs = ir.max_regs.max(rb as u32 + callee.max_regs);

    let mut body = lift(cp, callee_fid, callee_freqs);
    let base = ir.chunks.len() as u32;
    // The callee's blocks join the caller's origins, nested under the
    // calling block: an `exit()` inside the body is then booked to
    // both activations the unoptimized run would have had.
    let origin_base = ir.origins.len() as u32;
    let site_origin = ir.chunks[site.chunk as usize].origin;
    ir.origins.extend(body.origins.iter().map(|o| Origin {
        caller: if o.caller == NONE32 {
            site_origin
        } else {
            o.caller + origin_base
        },
        ..*o
    }));
    let table_base = ir.tables.len() as u32;
    let post_chunk = base + body.chunks.len() as u32;
    let site_freq = ir.chunks[site.chunk as usize].freq;
    let entry_freq = body.chunks[body.entry as usize].freq;
    if callee_freqs.is_empty() || entry_freq <= 0.0 {
        for chunk in &mut body.chunks {
            chunk.freq = site_freq;
        }
    } else {
        let scale = site_freq / entry_freq;
        for chunk in &mut body.chunks {
            chunk.freq *= scale;
        }
    }
    let new_sites = body
        .call_sites
        .iter()
        .map(|s| CallSite {
            chunk: s.chunk + base,
            ..*s
        })
        .collect();
    let mut growth = 0u32;

    // Split the calling chunk: the continuation becomes its own chunk.
    let caller_chunk = &mut ir.chunks[site.chunk as usize];
    let post_ops = caller_chunk.ops.split_off(site.idx as usize + 1);
    caller_chunk.ops.pop(); // the CallDirect itself

    // Prologue: zero the callee frame region (enter() zero-fills on
    // every call — the body may run many times), bump the entry
    // counters, bind parameters. `StoreLocal`'s register write-back
    // clobbers the argument register with the converted value, which
    // is fine: registers at or above `rb` are dead in the caller.
    if callee.frame_size > 0 {
        caller_chunk.ops.push(Op::ZeroLocal {
            off: fb,
            len: callee.frame_size,
        });
    }
    caller_chunk.ops.push(Op::BumpFunc(site.callee));
    for (i, p) in callee
        .params
        .iter()
        .enumerate()
        .take((nargs as usize).min(callee.params.len()))
    {
        let ParamBind::Scalar { off, class } = *p else {
            unreachable!("can_inline requires scalar params");
        };
        caller_chunk.ops.push(Op::StoreLocal {
            off: off + fb,
            src: rb + i as u16,
            class,
            dst: rb + i as u16,
        });
    }
    caller_chunk.ops.push(Op::Jump {
        target: base + body.entry,
        tick: 0,
    });
    growth += caller_chunk.ops.len() as u32 - site.idx - 1;

    // Splice the callee body, rebased and retargeted.
    for chunk in body.chunks {
        let mut ops = Vec::with_capacity(chunk.ops.len() + 1);
        for op in chunk.ops {
            let mut op = op;
            // Registers onto the call's window, the frame after the
            // caller's, chunks and switch tables after the caller's;
            // counters, static data, images and fails are global.
            op.fields(|field| match field {
                Field::Read(r)
                | Field::Write(r)
                | Field::ReadWrite(r)
                | Field::WritePair(r)
                | Field::Args(r, _) => *r += rb,
                Field::Frame(off) => *off += fb,
                Field::Target(t) => *t += base,
                Field::Index(Table::Switch, t) => *t += table_base,
                Field::Index(_, _) | Field::Tick(_) => {}
            });
            if let Op::Ret { .. } = op {
                // `Ret` read the call destination (`reject` refuses any
                // other register) and resumed the caller; the frame
                // shrink is the caller's eventual `Ret`'s job now.
                ops.push(Op::Jump {
                    target: post_chunk,
                    tick: 0,
                });
            } else {
                ops.push(op);
            }
        }
        growth += ops.len() as u32;
        ir.chunks.push(crate::ir::Chunk {
            origin: if chunk.origin == NONE32 {
                NONE32
            } else {
                chunk.origin + origin_base
            },
            ops,
            freq: site_freq,
            dead: false,
        });
    }
    for mut table in body.tables {
        table.for_each_target(|t| *t += base);
        ir.tables.push(table);
    }

    // The continuation chunk.
    ir.chunks.push(crate::ir::Chunk {
        origin: site_origin,
        ops: post_ops,
        freq: site_freq,
        dead: false,
    });

    // Keep emission order local: caller chunk, body, continuation.
    let pos = ir
        .order
        .iter()
        .position(|&c| c == site.chunk)
        .expect("calling chunk is live");
    ir.order
        .splice(pos + 1..pos + 1, (base..=post_chunk).collect::<Vec<_>>());

    Spliced {
        post_chunk,
        growth,
        new_sites,
    }
}
