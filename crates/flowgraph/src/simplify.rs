//! CFG clean-up after lowering.
//!
//! Three passes run to a fixpoint:
//!
//! 1. **Jump threading** — edges into empty `Goto`-only blocks are
//!    redirected to their final target.
//! 2. **Unreachable-block removal** — anything not reachable from the
//!    entry disappears (e.g. the exit of a `while (1)` loop, or code
//!    after `return`).
//! 3. **Chain merging** — a block whose only successor has it as its
//!    only predecessor absorbs that successor, producing *maximal*
//!    basic blocks like the paper's gcc-derived CFGs.
//!
//! Every pass is linear in the size of the CFG and moves blocks and
//! instructions instead of copying them. Chain merging needs a single
//! pass because absorbing a block never changes another block's
//! predecessor count: the absorbable edges are fixed up front, and each
//! maximal chain collapses into its head at once.

use crate::cfg::{Block, BlockId, Cfg, Terminator};

/// Simplifies `cfg`, preserving semantics and anchors.
pub fn simplify(mut cfg: Cfg) -> Cfg {
    let _sp = obs::span("flowgraph.simplify");
    loop {
        let before = cfg.blocks.len();
        thread_jumps(&mut cfg);
        remove_unreachable(&mut cfg);
        merge_chains(&mut cfg);
        if cfg.blocks.len() == before {
            return cfg;
        }
    }
}

/// Follows chains of empty `Goto` blocks to their final target.
fn final_target(cfg: &Cfg, mut b: BlockId) -> BlockId {
    let mut hops = 0;
    loop {
        let blk = cfg.block(b);
        if !blk.instrs.is_empty() {
            return b;
        }
        match blk.term {
            Terminator::Goto(t) if t != b => {
                b = t;
                hops += 1;
                // Guard against Goto cycles of empty blocks.
                if hops > cfg.blocks.len() {
                    return b;
                }
            }
            _ => return b,
        }
    }
}

fn thread_jumps(cfg: &mut Cfg) {
    let target: Vec<BlockId> = (0..cfg.blocks.len())
        .map(|i| final_target(cfg, BlockId(i as u32)))
        .collect();
    cfg.entry = target[cfg.entry.0 as usize];
    for b in &mut cfg.blocks {
        b.term.retarget(|t| target[t.0 as usize]);
    }
}

/// Keeps the blocks with `keep[i]` set, in order, renumbering ids and
/// terminator targets. Kept blocks must only jump to kept blocks.
fn compact(cfg: &mut Cfg, keep: &[bool]) {
    let mut remap = vec![BlockId(u32::MAX); keep.len()];
    let kept = remap.iter_mut().zip(keep).filter(|(_, &k)| k);
    for (next, (slot, _)) in kept.enumerate() {
        *slot = BlockId(next as u32);
    }
    let blocks = std::mem::take(&mut cfg.blocks);
    cfg.blocks = blocks
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| keep[i])
        .map(|(i, mut b)| {
            b.id = remap[i];
            b.term.retarget(|t| remap[t.0 as usize]);
            b
        })
        .collect();
    cfg.entry = remap[cfg.entry.0 as usize];
}

fn remove_unreachable(cfg: &mut Cfg) {
    let n = cfg.blocks.len();
    let mut reachable = vec![false; n];
    let mut stack = vec![cfg.entry];
    reachable[cfg.entry.0 as usize] = true;
    while let Some(b) = stack.pop() {
        for s in cfg.successors(b) {
            if !reachable[s.0 as usize] {
                reachable[s.0 as usize] = true;
                stack.push(s);
            }
        }
    }
    if reachable.iter().all(|&r| r) {
        return;
    }
    compact(cfg, &reachable);
}

/// Collapses every maximal chain into its head. Block `t` is absorbed
/// by its predecessor `p` when `p` ends in `Goto(t)`, `p` is `t`'s only
/// predecessor, `p != t`, and `t` is not the entry. Requires every
/// block to be reachable (run after [`remove_unreachable`]), so every
/// absorbed block lies on a chain that starts at a non-absorbed head.
fn merge_chains(cfg: &mut Cfg) {
    let n = cfg.blocks.len();
    // The sole predecessor of each block, if it has exactly one.
    const MANY: u32 = u32::MAX - 1;
    const NONE: u32 = u32::MAX;
    let mut sole_pred = vec![NONE; n];
    for b in &cfg.blocks {
        for s in cfg.successors(b.id) {
            let p = &mut sole_pred[s.0 as usize];
            *p = if *p == NONE { b.id.0 } else { MANY };
        }
    }
    let absorbed: Vec<bool> = (0..n)
        .map(|t| {
            let p = sole_pred[t];
            p < MANY
                && p as usize != t
                && BlockId(t as u32) != cfg.entry
                && matches!(cfg.blocks[p as usize].term, Terminator::Goto(g) if g.0 as usize == t)
        })
        .collect();
    if !absorbed.contains(&true) {
        return;
    }
    for h in 0..n {
        if absorbed[h] {
            continue;
        }
        // Walk the chain from head `h`, moving each tail into it.
        while let Terminator::Goto(t) = cfg.blocks[h].term {
            let t = t.0 as usize;
            if !absorbed[t] {
                break;
            }
            let tail = &mut cfg.blocks[t];
            let instrs = std::mem::take(&mut tail.instrs);
            let term = std::mem::replace(&mut tail.term, Terminator::Return(None));
            let anchor = tail.anchor;
            let head: &mut Block = &mut cfg.blocks[h];
            head.instrs.extend(instrs);
            head.term = term;
            if head.anchor.is_none() {
                head.anchor = anchor;
            }
        }
    }
    let keep: Vec<bool> = absorbed.iter().map(|&a| !a).collect();
    compact(cfg, &keep);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Instr;
    use minic::ast::{Expr, ExprKind, NodeId};
    use minic::sema::FuncId;
    use minic::token::Span;

    fn lit(v: i64) -> Expr {
        Expr {
            id: NodeId(v as u32),
            span: Span::default(),
            kind: ExprKind::IntLit(v),
        }
    }

    /// A block evaluating the literal `tag` (so it is never empty).
    fn blk(id: u32, tag: i64, term: Terminator, anchor: Option<u32>) -> Block {
        Block {
            id: BlockId(id),
            instrs: vec![Instr::Eval(lit(tag))],
            term,
            anchor: anchor.map(NodeId),
        }
    }

    fn empty(id: u32, term: Terminator) -> Block {
        Block {
            id: BlockId(id),
            instrs: Vec::new(),
            term,
            anchor: None,
        }
    }

    fn cfg(entry: u32, blocks: Vec<Block>) -> Cfg {
        Cfg {
            func: FuncId(0),
            blocks,
            entry: BlockId(entry),
        }
    }

    fn goto(t: u32) -> Terminator {
        Terminator::Goto(BlockId(t))
    }

    fn branch(a: u32, b: u32) -> Terminator {
        Terminator::Branch {
            cond: lit(99),
            branch: None,
            then_blk: BlockId(a),
            else_blk: BlockId(b),
        }
    }

    /// The literal tags of a block's instructions, in order.
    fn tags(b: &Block) -> Vec<i64> {
        b.instrs
            .iter()
            .map(|i| match i {
                Instr::Eval(Expr {
                    kind: ExprKind::IntLit(v),
                    ..
                }) => *v,
                other => panic!("unexpected instr {other:?}"),
            })
            .collect()
    }

    #[test]
    fn chain_head_after_tail_in_block_order() {
        // Block order: tail (0), head/entry (1). 1 -> 0 -> return.
        let c = simplify(cfg(
            1,
            vec![
                blk(0, 20, Terminator::Return(None), None),
                blk(1, 10, goto(0), None),
            ],
        ));
        assert_eq!(c.len(), 1);
        assert_eq!(c.entry, BlockId(0));
        assert_eq!(tags(&c.blocks[0]), vec![10, 20]);
        assert!(matches!(c.blocks[0].term, Terminator::Return(None)));
    }

    #[test]
    fn empty_goto_cycle_terminates() {
        // entry -> a; a and b are empty Gotos forming a cycle.
        let c = simplify(cfg(
            0,
            vec![
                blk(0, 1, goto(1), None),
                empty(1, goto(2)),
                empty(2, goto(1)),
            ],
        ));
        // Entry absorbs the cycle's single-predecessor members; what is
        // left jumps to itself, and every target stays in range.
        for b in &c.blocks {
            for s in c.successors(b.id) {
                assert!((s.0 as usize) < c.len());
            }
        }
        assert_eq!(c.block(c.entry).instrs.len(), 1);
        assert!(c.len() <= 2);
    }

    #[test]
    fn anchor_is_inherited_from_first_anchored_tail() {
        // 0 (no anchor) -> 1 (anchor 7) -> 2 (anchor 8) -> return.
        let c = simplify(cfg(
            0,
            vec![
                blk(0, 1, goto(1), None),
                blk(1, 2, goto(2), Some(7)),
                blk(2, 3, Terminator::Return(None), Some(8)),
            ],
        ));
        assert_eq!(c.len(), 1);
        assert_eq!(c.blocks[0].anchor, Some(NodeId(7)));
        assert_eq!(tags(&c.blocks[0]), vec![1, 2, 3]);
    }

    #[test]
    fn entry_is_never_absorbed() {
        // 1 -> 0 (entry) -> 1: the entry's only predecessor is 1, which
        // ends in Goto(entry), yet the entry must survive as a head.
        let c = simplify(cfg(
            0,
            vec![blk(0, 1, goto(1), None), blk(1, 2, goto(0), None)],
        ));
        assert_eq!(c.len(), 1);
        assert_eq!(c.entry, BlockId(0));
        assert_eq!(tags(&c.blocks[0]), vec![1, 2]);
        assert!(matches!(c.blocks[0].term, Terminator::Goto(BlockId(0))));
    }

    #[test]
    fn join_blocks_are_not_merged() {
        // 0 branches to 1 and 2, both jump to 3: 3 has two predecessors.
        let c = simplify(cfg(
            0,
            vec![
                blk(0, 0, branch(1, 2), None),
                blk(1, 1, goto(3), None),
                blk(2, 2, goto(3), None),
                blk(3, 3, Terminator::Return(None), None),
            ],
        ));
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn long_straight_line_function_collapses_to_one_block() {
        let body: String = (0..5000).map(|i| format!("x = x + {i};\n")).collect();
        let src = format!("int main(void) {{ int x; x = 0; {{ {body} }} return x; }}");
        let module = minic::compile(&src).expect("valid MiniC");
        let program = crate::build_program(module);
        let main = program.function_id("main").unwrap();
        let c = program.cfg(main);
        assert_eq!(c.len(), 1);
        assert_eq!(c.blocks[0].instrs.len(), 5001);
    }
}
