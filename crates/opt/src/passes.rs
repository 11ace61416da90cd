//! The scalar pass pipeline over chunk IR: constant
//! folding/propagation with branch simplification, dead-code
//! elimination, hot-chunk superinstruction fusion, hot-path layout,
//! and dispatch-cost recosting.
//!
//! All passes run only on budgeted functions and assume the recost
//! pass follows: they drop or rewrite batched-tick payloads freely,
//! because [`recost`] re-derives every tick under the dispatch-cost
//! model (one step per executed op, counter bumps free). Observable
//! behaviour — output bytes, exit state, and every *count* profile
//! counter — is preserved exactly; only `steps` and `func_cost`
//! change, which is the optimization being measured.

use crate::ir::{drop_redundant_jumps, FuncIr};
use profiler::bytecode::{arith, cmp_vals, CompiledProgram, Field, Op, Table, NONE32};
use profiler::runtime::convert_for_class;
use profiler::Value;
use std::collections::{HashMap, HashSet, VecDeque};

/// Frame-slot ranges larger than this are invalidated rather than
/// tracked word-by-word when zeroed (keeps the fold maps small).
const MAX_TRACKED_ZERO: u32 = 64;

/// Chunk-local constant folding, propagation, and branch
/// simplification. Returns the number of folds (constant rewrites and
/// statically resolved branches).
///
/// Tracking is killed conservatively: any op that can write memory
/// through a pointer — or call code that might — forgets every frame
/// slot, because frame addresses escape via `LeaLocal`. Resolved
/// counted branches are replaced by [`Op::BumpBranch`], so the branch
/// profile stays byte-identical.
pub fn fold(ir: &mut FuncIr, cp: &CompiledProgram) -> u64 {
    let mut folded = 0;
    for chunk in ir.chunks.iter_mut().filter(|c| !c.dead) {
        let mut regs: HashMap<u16, Value> = HashMap::new();
        let mut slots: HashMap<u32, Value> = HashMap::new();
        let mut out = Vec::with_capacity(chunk.ops.len());
        // A statically resolved branch truncates the chunk: the ops
        // after it are unreachable, and since resolution is
        // input-independent they never execute unoptimized either.
        'ops: for &op in &chunk.ops {
            // A counted conditional: each kind only says whether its
            // operands decide it; one rewrite serves them all.
            let reg = |r: u16| regs.get(&r).copied();
            let slot = |off: u32| slots.get(&off).copied();
            let decided = match op {
                Op::CondBranch { src, .. } => reg(src).map(|v| v.truthy()),
                Op::CmpBranchLL {
                    off_a,
                    off_b,
                    op: cmp,
                    ..
                } => binop(slot(off_a), slot(off_b), |x, y| Some(cmp_vals(cmp, x, y))),
                Op::CmpBranchLI {
                    off, imm, op: cmp, ..
                } => slot(off).map(|x| cmp_vals(cmp, x, Value::Int(imm as i64))),
                Op::CmpBranchRR { a, b, op: cmp, .. } => {
                    binop(reg(a), reg(b), |x, y| Some(cmp_vals(cmp, x, y)))
                }
                Op::CmpBranchRL {
                    a, off, op: cmp, ..
                } => binop(reg(a), slot(off), |x, y| Some(cmp_vals(cmp, x, y))),
                Op::CmpBranchRI {
                    a, imm, op: cmp, ..
                } => reg(a).map(|x| cmp_vals(cmp, x, Value::Int(imm as i64))),
                _ => None,
            };
            if let Some(taken) = decided {
                let (branch, else_target, tick) = cond_parts(op);
                folded += 1;
                if branch != NONE32 {
                    out.push(Op::BumpBranch { branch, taken });
                }
                if !taken {
                    out.push(Op::Jump {
                        target: else_target,
                        tick,
                    });
                    break 'ops;
                }
                continue;
            }
            match op {
                Op::Const { dst, v } => {
                    regs.insert(dst, v);
                    out.push(op);
                }
                Op::LoadLocal { dst, off } => match slots.get(&off).copied() {
                    Some(v) => {
                        regs.insert(dst, v);
                        out.push(Op::Const { dst, v });
                        folded += 1;
                    }
                    None => {
                        regs.remove(&dst);
                        out.push(op);
                    }
                },
                Op::LoadLocal2 { dst, off_a, off_b } => {
                    upsert(&mut regs, dst, slots.get(&off_a).copied());
                    upsert(&mut regs, dst + 1, slots.get(&off_b).copied());
                    out.push(op);
                }
                Op::LoadLocalImm { dst, off, imm } => {
                    upsert(&mut regs, dst, slots.get(&off).copied());
                    regs.insert(dst + 1, Value::Int(imm));
                    out.push(op);
                }
                Op::StoreLocal {
                    off,
                    src,
                    class,
                    dst,
                } => {
                    let v = regs.get(&src).map(|&v| convert_for_class(class, v));
                    upsert(&mut slots, off, v);
                    upsert(&mut regs, dst, v);
                    out.push(op);
                }
                Op::StoreGlobal {
                    src, class, dst, ..
                } => {
                    let v = regs.get(&src).map(|&v| convert_for_class(class, v));
                    upsert(&mut regs, dst, v);
                    out.push(op);
                }
                Op::InitWordsLocal { off, img } => {
                    for (i, &v) in cp.images[img as usize].iter().enumerate() {
                        slots.insert(off + i as u32, v);
                    }
                    out.push(op);
                }
                Op::ZeroLocal { off, len } => {
                    if len <= MAX_TRACKED_ZERO {
                        for i in 0..len {
                            slots.insert(off + i, Value::Int(0));
                        }
                    } else {
                        slots.retain(|&o, _| o < off || o >= off + len);
                    }
                    out.push(op);
                }
                Op::ToPtr { dst, src } => {
                    fold_unary(&mut regs, &mut out, &mut folded, op, dst, src, |v| {
                        Value::Ptr(v.to_ptr())
                    });
                }
                Op::Bool { dst, src } => {
                    fold_unary(&mut regs, &mut out, &mut folded, op, dst, src, |v| {
                        Value::Int(v.truthy() as i64)
                    });
                }
                Op::LogicNot { dst, src } => {
                    fold_unary(&mut regs, &mut out, &mut folded, op, dst, src, |v| {
                        Value::Int(!v.truthy() as i64)
                    });
                }
                Op::Neg { dst, src } => {
                    fold_unary(
                        &mut regs,
                        &mut out,
                        &mut folded,
                        op,
                        dst,
                        src,
                        |v| match v {
                            Value::Float(f) => Value::Float(-f),
                            other => Value::Int(other.to_int().wrapping_neg()),
                        },
                    );
                }
                Op::BitNot { dst, src } => {
                    fold_unary(&mut regs, &mut out, &mut folded, op, dst, src, |v| {
                        Value::Int(!v.to_int())
                    });
                }
                Op::Conv { dst, src, class } => {
                    fold_unary(&mut regs, &mut out, &mut folded, op, dst, src, |v| {
                        convert_for_class(class, v)
                    });
                }
                Op::Arith {
                    dst, a, b, mode, ..
                } => {
                    let v = binop(regs.get(&a).copied(), regs.get(&b).copied(), |x, y| {
                        arith(mode, x, y).ok()
                    });
                    fold_result(&mut regs, &mut out, &mut folded, op, dst, v);
                }
                Op::ArithLL {
                    dst,
                    off_a,
                    off_b,
                    mode,
                    ..
                } => {
                    let v = binop(
                        slots.get(&off_a).copied(),
                        slots.get(&off_b).copied(),
                        |x, y| arith(mode, x, y).ok(),
                    );
                    fold_result(&mut regs, &mut out, &mut folded, op, dst, v);
                }
                Op::ArithLI {
                    dst,
                    off,
                    imm,
                    mode,
                    ..
                } => {
                    let v = slots
                        .get(&off)
                        .and_then(|&x| arith(mode, x, Value::Int(imm as i64)).ok());
                    fold_result(&mut regs, &mut out, &mut folded, op, dst, v);
                }
                Op::ArithRL { dst, off, mode, .. } => {
                    let v = binop(regs.get(&dst).copied(), slots.get(&off).copied(), |x, y| {
                        arith(mode, x, y).ok()
                    });
                    fold_result(&mut regs, &mut out, &mut folded, op, dst, v);
                }
                Op::ArithRI { dst, imm, mode, .. } => {
                    let v = regs
                        .get(&dst)
                        .and_then(|&x| arith(mode, x, Value::Int(imm as i64)).ok());
                    fold_result(&mut regs, &mut out, &mut folded, op, dst, v);
                }
                Op::StoreRR {
                    off,
                    a,
                    b,
                    mode,
                    class,
                    dst,
                } => {
                    let v = binop(regs.get(&a).copied(), regs.get(&b).copied(), |x, y| {
                        arith(mode, x, y).ok().map(|v| convert_for_class(class, v))
                    });
                    upsert(&mut slots, off, v);
                    upsert(&mut regs, dst, v);
                    out.push(op);
                }
                Op::StoreLL {
                    off,
                    off_a,
                    off_b,
                    mode,
                    class,
                    dst,
                } => {
                    let v = binop(
                        slots.get(&off_a).copied(),
                        slots.get(&off_b).copied(),
                        |x, y| arith(mode, x, y).ok().map(|v| convert_for_class(class, v)),
                    );
                    upsert(&mut slots, off, v);
                    upsert(&mut regs, dst, v);
                    out.push(op);
                }
                Op::StoreLI {
                    off,
                    off_a,
                    imm,
                    mode,
                    class,
                    dst,
                } => {
                    let v = slots.get(&off_a).and_then(|&x| {
                        arith(mode, x, Value::Int(imm as i64))
                            .ok()
                            .map(|v| convert_for_class(class, v))
                    });
                    upsert(&mut slots, off, v);
                    upsert(&mut regs, dst, v);
                    out.push(op);
                }
                Op::StoreRL {
                    off,
                    off_b,
                    mode,
                    class,
                    dst,
                } => {
                    let v = binop(
                        regs.get(&dst).copied(),
                        slots.get(&off_b).copied(),
                        |x, y| arith(mode, x, y).ok().map(|v| convert_for_class(class, v)),
                    );
                    upsert(&mut slots, off, v);
                    upsert(&mut regs, dst, v);
                    out.push(op);
                }
                Op::StoreRI {
                    off,
                    imm,
                    mode,
                    class,
                    dst,
                } => {
                    let v = regs.get(&dst).and_then(|&x| {
                        arith(mode, x, Value::Int(imm as i64))
                            .ok()
                            .map(|v| convert_for_class(class, v))
                    });
                    upsert(&mut slots, off, v);
                    upsert(&mut regs, dst, v);
                    out.push(op);
                }
                Op::RmwLocal {
                    off,
                    src,
                    mode,
                    class,
                    dst,
                    ..
                } => {
                    let v = binop(slots.get(&off).copied(), regs.get(&src).copied(), |x, y| {
                        arith(mode, x, y).ok().map(|v| convert_for_class(class, v))
                    });
                    upsert(&mut slots, off, v);
                    upsert(&mut regs, dst, v);
                    out.push(op);
                }
                Op::IncDecLocal { dst, off, .. } => {
                    slots.remove(&off);
                    regs.remove(&dst);
                    out.push(op);
                }
                // Statically resolvable control flow.
                Op::JumpIfFalse { src, target, tick } => match regs.get(&src) {
                    Some(v) => {
                        folded += 1;
                        if !v.truthy() {
                            out.push(Op::Jump { target, tick });
                            break 'ops;
                        } // else: fall through, op deleted
                    }
                    None => out.push(op),
                },
                Op::JumpIfTrue { src, target, tick } => match regs.get(&src) {
                    Some(v) => {
                        folded += 1;
                        if v.truthy() {
                            out.push(Op::Jump { target, tick });
                            break 'ops;
                        }
                    }
                    None => out.push(op),
                },
                Op::SwitchJump { src, table, tick } => match regs.get(&src) {
                    Some(v) => {
                        let target = ir.tables[table as usize].lookup(v.to_int());
                        folded += 1;
                        out.push(Op::Jump { target, tick });
                        break 'ops;
                    }
                    None => out.push(op),
                },
                // Everything else: generic invalidation.
                _ => {
                    if clobbers_frame(&op) {
                        slots.clear();
                    }
                    writes(op, |w| {
                        regs.remove(&w);
                    });
                    out.push(op);
                }
            }
        }
        chunk.ops = out;
    }
    folded
}

/// A conditional branch's counter, else target and tick, read from
/// the operand table.
fn cond_parts(mut op: Op) -> (u32, u32, u32) {
    let (mut branch, mut else_target, mut tick) = (NONE32, 0, 0);
    op.fields(|field| match field {
        Field::Index(Table::Branch, &mut b) => branch = b,
        Field::Target(&mut t) => else_target = t,
        Field::Tick(&mut t) => tick = t,
        _ => {}
    });
    (branch, else_target, tick)
}

fn upsert<K: std::hash::Hash + Eq>(map: &mut HashMap<K, Value>, k: K, v: Option<Value>) {
    match v {
        Some(v) => {
            map.insert(k, v);
        }
        None => {
            map.remove(&k);
        }
    }
}

fn binop<T>(
    a: Option<Value>,
    b: Option<Value>,
    f: impl FnOnce(Value, Value) -> Option<T>,
) -> Option<T> {
    match (a, b) {
        (Some(x), Some(y)) => f(x, y),
        _ => None,
    }
}

fn fold_unary(
    regs: &mut HashMap<u16, Value>,
    out: &mut Vec<Op>,
    folded: &mut u64,
    op: Op,
    dst: u16,
    src: u16,
    f: impl FnOnce(Value) -> Value,
) {
    match regs.get(&src).copied() {
        Some(v) => {
            let v = f(v);
            regs.insert(dst, v);
            out.push(Op::Const { dst, v });
            *folded += 1;
        }
        None => {
            regs.remove(&dst);
            out.push(op);
        }
    }
}

fn fold_result(
    regs: &mut HashMap<u16, Value>,
    out: &mut Vec<Op>,
    folded: &mut u64,
    op: Op,
    dst: u16,
    v: Option<Value>,
) {
    match v {
        Some(v) => {
            regs.insert(dst, v);
            out.push(Op::Const { dst, v });
            *folded += 1;
        }
        None => {
            regs.remove(&dst);
            out.push(op);
        }
    }
}

/// Calls `f` on every register `op` writes.
fn writes(mut op: Op, mut f: impl FnMut(u16)) {
    op.fields(|field| match field {
        Field::Write(&mut r) | Field::ReadWrite(&mut r) => f(r),
        Field::WritePair(&mut r) => {
            f(r);
            f(r + 1);
        }
        _ => {}
    });
}

/// Calls `f` on every register `op` reads.
fn reads(mut op: Op, mut f: impl FnMut(u16)) {
    op.fields(|field| match field {
        Field::Read(&mut r) | Field::ReadWrite(&mut r) => f(r),
        Field::Args(&mut base, n) => (base..base + n).for_each(&mut f),
        _ => {}
    });
}

/// No effect beyond its register writes, and infallible: the op can
/// be deleted when every register it writes is overwritten before any
/// read.
fn pure(op: &Op) -> bool {
    matches!(
        op,
        Op::Const { .. }
            | Op::LeaLocal { .. }
            | Op::LoadLocal { .. }
            | Op::LoadLocal2 { .. }
            | Op::LoadLocalImm { .. }
            | Op::LoadGlobal { .. }
            | Op::ToPtr { .. }
            | Op::Bool { .. }
            | Op::LogicNot { .. }
            | Op::Neg { .. }
            | Op::BitNot { .. }
            | Op::Conv { .. }
            | Op::IndexAddr { .. }
            | Op::IndexAddrLL { .. }
            | Op::IndexAddrPL { .. }
            | Op::IndexAddrLeaL { .. }
    ) || matches!(
        op,
        Op::Arith { mode, .. }
            | Op::ArithLL { mode, .. }
            | Op::ArithLI { mode, .. }
            | Op::ArithRL { mode, .. }
            | Op::ArithRI { mode, .. }
            if !mode.fallible()
    )
}

/// Whether `op` can write memory through a pointer or run arbitrary
/// code — anything after which no frame-slot value can be assumed
/// (frame addresses escape via `LeaLocal`, so stores through pointers
/// and calls may alias any slot).
fn clobbers_frame(op: &Op) -> bool {
    matches!(
        op,
        Op::Store { .. }
            | Op::CopyWords { .. }
            | Op::IncDec { .. }
            | Op::Rmw { .. }
            | Op::CallDirect { .. }
            | Op::CallIndirect { .. }
            | Op::CallBuiltin { .. }
            | Op::StoreLEdge { .. }
    )
}

/// Dead-code elimination: drops unreachable chunks, then deletes pure
/// register writes that are overwritten before any read within their
/// chunk. Returns `(dropped chunks, deleted ops)`.
///
/// Dropping an unreachable chunk is profile-sound: chunks only become
/// unreachable through input-independent branch resolution, so their
/// counters are zero in the unoptimized run too.
pub fn dce(ir: &mut FuncIr) -> (u64, u64) {
    // Reachability over explicit targets (all fallthroughs are still
    // materialized as jumps at this point).
    let mut seen = HashSet::from([ir.entry]);
    let mut work = VecDeque::from([ir.entry]);
    while let Some(c) = work.pop_front() {
        let mut reach = |t: &mut u32| {
            if seen.insert(*t) {
                work.push_back(*t);
            }
        };
        for &op in &ir.chunks[c as usize].ops {
            let mut targets = op;
            targets.for_each_target(&mut reach);
            if let Op::SwitchJump { table, .. } = op {
                ir.tables[table as usize].for_each_target(&mut reach);
            }
        }
    }
    let mut dropped = 0;
    for (i, chunk) in ir.chunks.iter_mut().enumerate() {
        if !chunk.dead && !seen.contains(&(i as u32)) {
            chunk.dead = true;
            dropped += 1;
        }
    }
    ir.order.retain(|c| seen.contains(c));

    // Chunk-local dead pure writes (fold residue): walk backward,
    // tracking registers certain to be overwritten before any read.
    let mut deleted = 0;
    for chunk in ir.chunks.iter_mut().filter(|c| !c.dead) {
        let mut dead: HashSet<u16> = HashSet::new();
        let mut keep = vec![true; chunk.ops.len()];
        for (i, &op) in chunk.ops.iter().enumerate().rev() {
            let (mut written, mut all_dead) = (false, true);
            writes(op, |w| {
                written = true;
                all_dead &= dead.contains(&w);
            });
            if pure(&op) && written && all_dead {
                keep[i] = false;
                deleted += 1;
                continue;
            }
            writes(op, |w| {
                dead.insert(w);
            });
            reads(op, |r| {
                dead.remove(&r);
            });
        }
        if deleted > 0 {
            let mut it = keep.iter();
            chunk.ops.retain(|_| *it.next().unwrap());
        }
    }
    (dropped, deleted)
}

/// Superinstruction selection on hot chunks: fuses every adjacent
/// pair that `rule` matches — the compiler's shared pair rules
/// ([`profiler::bytecode::fuse_pair`]) on code shapes exposed by
/// inlining and folding, or the crate's mined digrams. A chunk is hot
/// when its frequency is at least the mean over the function's live
/// chunks, so cold code keeps its shape. Returns the number of fused
/// pairs.
pub fn fuse(ir: &mut FuncIr, rule: fn(Op, Op) -> Option<Op>) -> u64 {
    let live: Vec<_> = ir.chunks.iter().filter(|c| !c.dead).collect();
    if live.is_empty() {
        return 0;
    }
    let threshold = live.iter().map(|c| c.freq).sum::<f64>() / live.len() as f64;
    drop(live);
    let mut fused = 0;
    for chunk in ir
        .chunks
        .iter_mut()
        .filter(|c| !c.dead && c.freq >= threshold)
    {
        let ops = &mut chunk.ops;
        let mut i = 0;
        while i + 1 < ops.len() {
            if let Some(op) = rule(ops[i], ops[i + 1]) {
                ops[i] = op;
                ops.remove(i + 1);
                fused += 1;
                // A fused op can seed another pattern (rare); rescan
                // from the previous position.
                i = i.saturating_sub(1);
            } else {
                i += 1;
            }
        }
    }
    fused
}

/// The mined fusion patterns — the digrams that ranked hottest over
/// the post-pipeline IR of the benchmark suite, weighted by estimator
/// block frequencies. The ranking ran once, when these ops were added;
/// nothing re-ranks the table. Same contract as
/// [`profiler::bytecode::fuse_pair`]: the fused op writes exactly what
/// the pair wrote.
pub(crate) fn mined_pair(a: Op, b: Op) -> Option<Op> {
    match (a, b) {
        // Address ops always produce `Value::Ptr`, on which `to_ptr`
        // is the identity — a following same-register `ToPtr` is a
        // pure dispatch tax and is dropped outright.
        (
            Op::IndexAddr { dst, .. }
            | Op::IndexAddrLL { dst, .. }
            | Op::IndexAddrPL { dst, .. }
            | Op::IndexAddrLeaL { dst, .. }
            | Op::LeaLocal { dst, .. }
            | Op::MemberAddr { dst, .. },
            Op::ToPtr { dst: d2, src },
        ) if src == dst && d2 == dst => Some(a),
        (
            Op::Const {
                dst,
                v: Value::Int(imm),
            },
            Op::Jump { target, tick },
        ) if i32::try_from(imm).is_ok() => Some(Op::ConstJump {
            dst,
            imm: imm as i32,
            target,
            tick,
        }),
        (
            Op::Const {
                dst,
                v: Value::Int(imm),
            },
            Op::Ret { src, tick },
        ) if src == dst && i32::try_from(imm).is_ok() => Some(Op::ConstRet {
            imm: imm as i32,
            tick,
        }),
        (
            Op::StoreLocal {
                off,
                src,
                class,
                dst,
            },
            Op::EdgeJump { edge, target, tick },
        ) if dst == src => Some(Op::StoreLEdge {
            off,
            src,
            class,
            edge,
            target,
            tick,
        }),
        (
            Op::LoadLocal { dst, off },
            Op::CondBranch {
                src,
                branch,
                else_target,
                tick,
            },
        ) if src == dst => Some(Op::LoadLBranch {
            off,
            dst,
            branch,
            else_target,
            tick,
        }),
        (
            Op::LoadGlobal { dst, idx },
            Op::ArithRI {
                dst: d2,
                imm,
                mode,
                tick,
            },
        ) if d2 == dst => Some(Op::ArithGI {
            dst,
            idx,
            imm,
            mode,
            tick,
        }),
        (
            Op::Const {
                dst,
                v: Value::Int(imm),
            },
            Op::CmpBranchRR {
                a,
                b,
                op,
                branch,
                else_target,
                tick,
            },
        ) if b == dst && i32::try_from(imm).is_ok() => Some(Op::CmpBranchRCI {
            a,
            dst,
            imm: imm as i32,
            op,
            branch,
            else_target,
            tick,
        }),
        (
            Op::ArithRL {
                dst,
                off,
                mode,
                tick: _,
            },
            Op::JumpIfFalse { src, target, tick },
        ) if src == dst => Some(Op::ArithRLJumpF {
            dst,
            off,
            mode,
            target,
            tick,
        }),
        _ => None,
    }
}

/// Hot-path chunk layout: a greedy trace from the entry that always
/// extends with the hottest unplaced successor, then the hottest
/// unplaced chunk overall. Jumps to the next chunk in the final order
/// become implicit fallthroughs (one dispatch saved per execution).
pub fn layout(ir: &mut FuncIr) {
    let live: HashSet<u32> = ir.order.iter().copied().collect();
    let mut placed: HashSet<u32> = HashSet::new();
    let mut order = Vec::with_capacity(ir.order.len());
    let mut cur = Some(ir.entry);
    loop {
        let c = match cur {
            Some(c) => c,
            None => match ir
                .order
                .iter()
                .copied()
                .filter(|c| !placed.contains(c))
                .max_by(|a, b| {
                    let fa = ir.chunks[*a as usize].freq;
                    let fb = ir.chunks[*b as usize].freq;
                    fa.total_cmp(&fb)
                }) {
                Some(c) => c,
                None => break,
            },
        };
        placed.insert(c);
        order.push(c);
        // Hottest unplaced successor continues the trace.
        let mut succs = Vec::new();
        for &op in &ir.chunks[c as usize].ops {
            let mut targets = op;
            targets.for_each_target(|t| succs.push(*t));
        }
        cur = succs
            .into_iter()
            .filter(|s| live.contains(s) && !placed.contains(s))
            .max_by(|a, b| {
                let fa = ir.chunks[*a as usize].freq;
                let fb = ir.chunks[*b as usize].freq;
                fa.total_cmp(&fb)
            });
    }
    ir.order = order;
    drop_redundant_jumps(ir);
}

/// Replaces the AST-mirroring tick payloads with the dispatch-cost
/// model: every executed op charges one step, counter bumps charge
/// none, and charges batch onto the next tick-carrying op exactly as
/// the compiler batches AST ticks. This is where the measured speedup
/// comes from: a fused superinstruction, an inlined call, or a
/// constant-folded subexpression now costs what it dispatches, not
/// what the source AST would have ticked.
pub fn recost(ir: &mut FuncIr) {
    for chunk in ir.chunks.iter_mut().filter(|c| !c.dead) {
        let mut out = Vec::with_capacity(chunk.ops.len());
        let mut pending: u32 = 0;
        for &op in &chunk.ops {
            let mut op = op;
            match op {
                Op::Tick(_) => continue, // AST-cost artifact
                Op::Fail(_) => {
                    if pending > 0 {
                        out.push(Op::Tick(pending));
                        pending = 0;
                    }
                    out.push(op);
                }
                // Counter bumps are free under the dispatch-cost model.
                Op::BumpSite(_) | Op::BumpFunc(_) | Op::BumpBranch { .. } => out.push(op),
                _ => {
                    let mut ticked = false;
                    op.fields(|field| {
                        if let Field::Tick(t) = field {
                            *t = pending + 1;
                            ticked = true;
                        }
                    });
                    pending = if ticked { 0 } else { pending + 1 };
                    out.push(op);
                }
            }
        }
        if pending > 0 {
            out.push(Op::Tick(pending));
        }
        chunk.ops = out;
    }
}
