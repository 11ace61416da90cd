//! Control-flow-graph types.
//!
//! A [`Cfg`] is the execution IR of this reproduction: the profiler's
//! interpreter runs it directly, so profiled basic-block counts and the
//! estimators' per-block predictions refer to the *same* blocks by
//! construction (the paper had to map gcc's ASTs onto its CFGs; here the
//! mapping is the `anchor` field filled during lowering).
//!
//! Expressions are shared with the AST, not copied: every expression an
//! instruction or terminator holds is the parser's own [`Arc<Expr>`]
//! from the matching statement-level slot. Adjacency queries allocate
//! nothing per block: [`Cfg::successors`] borrows its targets, and
//! [`Cfg::predecessors`] returns one flat [`BlockLists`].
//!
//! A CFG numbers its edges once, in [`Cfg::edges`].

use minic::ast::{Expr, NodeId};
use minic::sema::{BranchId, FuncId, LocalId, SwitchId};
use minic::types::Type;
use std::fmt;
use std::ops::{Deref, Index};
use std::sync::Arc;

/// Identifies a basic block within one function's CFG.
// The derived `partial_cmp` delegates to `Ord` on a `u32` — total, so
// exempt from the workspace NaN-ordering ban (clippy.toml).
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// A straight-line instruction within a block.
#[derive(Debug, Clone)]
pub enum Instr {
    /// Evaluate an expression for its side effects.
    Eval(Arc<Expr>),
    /// Store the value of `value` into word `word` of local `local`,
    /// converting to `ty` (local-declaration initializer).
    Init {
        /// The declared local.
        local: LocalId,
        /// Word offset within the local.
        word: usize,
        /// The scalar target type at that word.
        ty: Type,
        /// The initializer expression.
        value: Arc<Expr>,
    },
    /// Copy string-table entry `str_idx` (plus NUL) into local `local`
    /// starting at `word`, zero-padding to `pad_to` words
    /// (`char s[] = "...";`).
    InitStr {
        /// The declared local.
        local: LocalId,
        /// Word offset within the local.
        word: usize,
        /// String-table index.
        str_idx: usize,
        /// Total words to write (string + NUL + padding).
        pad_to: usize,
    },
    /// Zero `len` words of local `local` starting at `word` (padding of
    /// partially initialized aggregates).
    InitZero {
        /// The declared local.
        local: LocalId,
        /// Word offset within the local.
        word: usize,
        /// Number of words to clear.
        len: usize,
    },
}

/// How a block ends.
#[derive(Clone)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way conditional branch.
    Branch {
        /// The condition expression.
        cond: Arc<Expr>,
        /// The branch site registered by sema, if any (synthetic
        /// branches from lowering have none).
        branch: Option<BranchId>,
        /// Target when the condition is true.
        then_blk: BlockId,
        /// Target when the condition is false.
        else_blk: BlockId,
    },
    /// Multi-way `switch`; build it with [`Terminator::switch`].
    Switch {
        /// The scrutinee expression.
        scrut: Arc<Expr>,
        /// The switch site registered by sema.
        switch: SwitchId,
        /// `(case value, target)` pairs.
        cases: Vec<(i64, BlockId)>,
        /// Target when no case matches.
        default: BlockId,
        /// The distinct targets of `cases` and `default`, sorted: the
        /// block's successors. [`Terminator::switch`] computes them and
        /// [`Terminator::retarget`] keeps them in step.
        targets: Vec<BlockId>,
    },
    /// Return from the function.
    Return(Option<Arc<Expr>>),
}

/// Prints what `#[derive(Debug)]` would, minus a switch's `targets`,
/// which only repeat its cases and default.
impl fmt::Debug for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Goto(t) => f.debug_tuple("Goto").field(t).finish(),
            Terminator::Branch {
                cond,
                branch,
                then_blk,
                else_blk,
            } => f
                .debug_struct("Branch")
                .field("cond", cond)
                .field("branch", branch)
                .field("then_blk", then_blk)
                .field("else_blk", else_blk)
                .finish(),
            Terminator::Switch {
                scrut,
                switch,
                cases,
                default,
                ..
            } => f
                .debug_struct("Switch")
                .field("scrut", scrut)
                .field("switch", switch)
                .field("cases", cases)
                .field("default", default)
                .finish(),
            Terminator::Return(e) => f.debug_tuple("Return").field(e).finish(),
        }
    }
}

impl Terminator {
    /// A `switch` terminator, with its successor list computed.
    pub fn switch(
        scrut: Arc<Expr>,
        switch: SwitchId,
        cases: Vec<(i64, BlockId)>,
        default: BlockId,
    ) -> Terminator {
        let mut targets = Vec::with_capacity(cases.len() + 1);
        switch_targets(&cases, default, &mut targets);
        Terminator::Switch {
            scrut,
            switch,
            cases,
            default,
            targets,
        }
    }

    /// Rewrites every jump target through `f`.
    pub fn retarget(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Goto(t) => *t = f(*t),
            Terminator::Branch {
                then_blk, else_blk, ..
            } => {
                *then_blk = f(*then_blk);
                *else_blk = f(*else_blk);
            }
            Terminator::Switch {
                cases,
                default,
                targets,
                ..
            } => {
                for (_, t) in cases.iter_mut() {
                    *t = f(*t);
                }
                *default = f(*default);
                switch_targets(cases, *default, targets);
            }
            Terminator::Return(_) => {}
        }
    }
}

/// Refills `out` with the distinct targets of a switch, sorted. Never
/// grows `out` past the capacity its first fill gave it.
fn switch_targets(cases: &[(i64, BlockId)], default: BlockId, out: &mut Vec<BlockId>) {
    out.clear();
    out.extend(cases.iter().map(|&(_, b)| b));
    out.push(default);
    out.sort_unstable();
    out.dedup();
}

/// A basic block.
#[derive(Debug, Clone)]
pub struct Block {
    /// This block's id.
    pub id: BlockId,
    /// Straight-line instructions.
    pub instrs: Vec<Instr>,
    /// The terminator.
    pub term: Terminator,
    /// The AST node this block corresponds to: the first statement
    /// lowered into it, or a loop condition / `for`-step expression.
    /// The AST-based estimators map their per-node frequencies onto
    /// blocks through this field. `None` for synthetic join blocks.
    pub anchor: Option<NodeId>,
}

/// The control-flow graph of one function.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// The function this CFG belongs to.
    pub func: FuncId,
    /// All blocks; [`BlockId`] indexes this vector.
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
}

impl Cfg {
    /// Looks up a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this CFG.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the CFG has no blocks (never true for lowered functions).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The distinct successor blocks of `id`, without allocating: a
    /// `Goto`'s target, a branch's then and else targets (one when they
    /// coincide), a switch's sorted [`Terminator::Switch::targets`],
    /// nothing for a return.
    pub fn successors(&self, id: BlockId) -> Successors<'_> {
        Successors(match &self.block(id).term {
            Terminator::Goto(t) => Succ::Slice(std::slice::from_ref(t)),
            Terminator::Branch {
                then_blk, else_blk, ..
            } => Succ::Inline(
                [*then_blk, *else_blk],
                if then_blk == else_blk { 1 } else { 2 },
            ),
            Terminator::Switch { targets, .. } => Succ::Slice(targets),
            Terminator::Return(_) => Succ::Slice(&[]),
        })
    }

    /// Every edge `(from, to)` in edge-id order: edge `e` is the `e`-th
    /// pair of `for b in blocks { for s in successors(b) }`. This is
    /// the one edge numbering: profile edge rows, the VM's edge
    /// counters and the Markov arc probabilities are columns by it.
    /// Cached profiles store edge rows by position, so a change to
    /// this order must bump the artifact cache's `FORMAT_VERSION`, or
    /// old entries decode with their counts on the wrong edges.
    pub fn edges(&self) -> impl Iterator<Item = (BlockId, BlockId)> + '_ {
        self.blocks
            .iter()
            .flat_map(move |b| self.successors(b.id).into_iter().map(move |s| (b.id, s)))
    }

    /// Each block's first edge id in the [`Cfg::edges`] numbering.
    pub fn edge_ids(&self) -> EdgeIds {
        let (mut first, mut next) = (Vec::with_capacity(self.blocks.len()), 0);
        for b in &self.blocks {
            first.push(next);
            next += self.successors(b.id).len() as u32;
        }
        EdgeIds(first)
    }

    /// The id of edge `from → to`, if the CFG has it; `ids` is this
    /// CFG's [`Cfg::edge_ids`].
    pub fn edge_id(&self, ids: &EdgeIds, from: BlockId, to: BlockId) -> Option<usize> {
        let k = self.successors(from).iter().position(|&s| s == to)?;
        Some(ids.first(from) + k)
    }

    /// The predecessors of every block, each list in block order.
    pub fn predecessors(&self) -> BlockLists {
        let n = self.blocks.len();
        // Count each block's predecessors, then turn the counts into
        // list ends: `off[v + 1]` is one past the end of `v`'s list.
        let mut off = vec![0u32; n + 1];
        for b in &self.blocks {
            for s in self.successors(b.id) {
                off[s.0 as usize + 1] += 1;
            }
        }
        for v in 0..n {
            off[v + 1] += off[v];
        }
        // Fill every list back to front from the last block, so each
        // ends up in block order; `off[v + 1]` walks down to `v`'s
        // start on the way.
        let mut ids = vec![BlockId(0); off[n] as usize];
        for b in self.blocks.iter().rev() {
            for s in self.successors(b.id) {
                let end = &mut off[s.0 as usize + 1];
                *end -= 1;
                ids[*end as usize] = b.id;
            }
        }
        // Now `off[v + 1]` is `v`'s start: shift the starts down one.
        off.copy_within(1.., 0);
        off[n] = ids.len() as u32;
        BlockLists { off, ids }
    }

    /// Blocks in reverse post-order from the entry.
    pub fn reverse_post_order(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS with an explicit stack of (block, next-successor).
        let mut stack = vec![(self.entry, 0usize)];
        visited[self.entry.0 as usize] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            match self.successors(b).get(*i) {
                Some(&s) => {
                    *i += 1;
                    if !visited[s.0 as usize] {
                        visited[s.0 as usize] = true;
                        stack.push((s, 0));
                    }
                }
                None => {
                    post.push(b);
                    stack.pop();
                }
            }
        }
        post.reverse();
        post
    }

    /// Every instruction's and terminator's expressions, visited with `f`.
    pub fn walk_exprs<'a>(&'a self, f: &mut dyn FnMut(BlockId, &'a Expr)) {
        for b in &self.blocks {
            for instr in &b.instrs {
                match instr {
                    Instr::Eval(e) | Instr::Init { value: e, .. } => e.walk(&mut |x| f(b.id, x)),
                    Instr::InitStr { .. } | Instr::InitZero { .. } => {}
                }
            }
            match &b.term {
                Terminator::Branch { cond, .. } => cond.walk(&mut |x| f(b.id, x)),
                Terminator::Switch { scrut, .. } => scrut.walk(&mut |x| f(b.id, x)),
                Terminator::Return(Some(e)) => e.walk(&mut |x| f(b.id, x)),
                _ => {}
            }
        }
    }
}

/// The successors of one block ([`Cfg::successors`]): derefs to a
/// slice, iterates by value, and owns no heap memory.
#[derive(Debug, Clone, Copy)]
pub struct Successors<'a>(Succ<'a>);

#[derive(Debug, Clone, Copy)]
enum Succ<'a> {
    /// The first `n` of a branch's two targets.
    Inline([BlockId; 2], usize),
    /// A `Goto`'s target, a switch's targets, or none for a return.
    Slice(&'a [BlockId]),
}

impl Deref for Successors<'_> {
    type Target = [BlockId];

    fn deref(&self) -> &[BlockId] {
        match &self.0 {
            Succ::Inline(ids, n) => &ids[..*n],
            Succ::Slice(ids) => ids,
        }
    }
}

impl<'a> IntoIterator for Successors<'a> {
    type Item = BlockId;
    type IntoIter = SuccessorsIter<'a>;

    fn into_iter(self) -> SuccessorsIter<'a> {
        SuccessorsIter {
            succs: self,
            next: 0,
        }
    }
}

/// By-value iterator over [`Successors`].
#[derive(Debug, Clone)]
pub struct SuccessorsIter<'a> {
    succs: Successors<'a>,
    next: usize,
}

impl Iterator for SuccessorsIter<'_> {
    type Item = BlockId;

    fn next(&mut self) -> Option<BlockId> {
        let s = self.succs.get(self.next).copied();
        self.next += 1;
        s
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.succs.len().saturating_sub(self.next);
        (left, Some(left))
    }
}

impl ExactSizeIterator for SuccessorsIter<'_> {}

/// Where each block's out-edges start in a CFG's edge numbering
/// ([`Cfg::edge_ids`]): block `b`'s edges are the ids from `first(b)`
/// on, one per successor in [`Cfg::successors`] order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeIds(Vec<u32>);

impl EdgeIds {
    /// The id of `b`'s first out-edge.
    pub fn first(&self, b: BlockId) -> usize {
        self.0[b.0 as usize] as usize
    }
}

/// One list of blocks per block, stored flat (compressed sparse rows):
/// block `v`'s list is `ids[off[v]..off[v + 1]]` — two allocations for
/// a whole CFG instead of one per block. Index it with a block's
/// number, or call [`BlockLists::of`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockLists {
    off: Vec<u32>,
    ids: Vec<BlockId>,
}

impl BlockLists {
    /// The list of block `b`.
    pub fn of(&self, b: BlockId) -> &[BlockId] {
        &self[b.0 as usize]
    }

    /// Number of lists (one per block).
    pub fn len(&self) -> usize {
        self.off.len() - 1
    }

    /// Whether there are no lists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Index<usize> for BlockLists {
    type Output = [BlockId];

    fn index(&self, v: usize) -> &[BlockId] {
        &self.ids[self.off[v] as usize..self.off[v + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The successor lists `Cfg::successors` returned when it built a
    /// `Vec` per call.
    fn vec_successors(cfg: &Cfg, id: BlockId) -> Vec<BlockId> {
        match &cfg.block(id).term {
            Terminator::Goto(t) => vec![*t],
            Terminator::Branch {
                then_blk, else_blk, ..
            } => {
                if then_blk == else_blk {
                    vec![*then_blk]
                } else {
                    vec![*then_blk, *else_blk]
                }
            }
            Terminator::Switch { cases, default, .. } => {
                let mut out: Vec<BlockId> = cases.iter().map(|&(_, b)| b).collect();
                out.push(*default);
                out.sort();
                out.dedup();
                out
            }
            Terminator::Return(_) => Vec::new(),
        }
    }

    /// The predecessor lists of the `Vec<Vec<_>>` implementation.
    fn vec_predecessors(cfg: &Cfg) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); cfg.blocks.len()];
        for b in &cfg.blocks {
            for s in vec_successors(cfg, b.id) {
                preds[s.0 as usize].push(b.id);
            }
        }
        preds
    }

    /// Reverse post-order over `vec_successors`.
    fn vec_reverse_post_order(cfg: &Cfg) -> Vec<BlockId> {
        let mut visited = vec![false; cfg.blocks.len()];
        let mut post = Vec::new();
        let mut stack = vec![(cfg.entry, 0usize)];
        visited[cfg.entry.0 as usize] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let succs = vec_successors(cfg, b);
            if *i < succs.len() {
                let s = succs[*i];
                *i += 1;
                if !visited[s.0 as usize] {
                    visited[s.0 as usize] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    fn assert_matches_vec_adjacency(cfg: &Cfg, what: &str) {
        for b in &cfg.blocks {
            let want = vec_successors(cfg, b.id);
            assert_eq!(*cfg.successors(b.id), *want, "{what} block {}", b.id.0);
            let by_value: Vec<BlockId> = cfg.successors(b.id).into_iter().collect();
            assert_eq!(by_value, want, "{what} block {}", b.id.0);
        }
        let preds = cfg.predecessors();
        let want = vec_predecessors(cfg);
        assert_eq!(preds.len(), want.len(), "{what}");
        for (v, want) in want.iter().enumerate() {
            assert_eq!(&preds[v], want.as_slice(), "{what} block {v}");
        }
        assert_eq!(
            cfg.reverse_post_order(),
            vec_reverse_post_order(cfg),
            "{what}"
        );
    }

    #[test]
    fn adjacency_matches_the_vec_implementation_on_the_suite() {
        let (mut switches, mut repeated) = (0, 0);
        for bench in suite::all() {
            let module = minic::compile(bench.source).expect("suite programs compile");
            let program = crate::build_program(module);
            for cfg in program.cfgs.iter().flatten() {
                assert_matches_vec_adjacency(cfg, bench.name);
                for b in &cfg.blocks {
                    if let Terminator::Switch { cases, .. } = &b.term {
                        switches += 1;
                        if vec_successors(cfg, b.id).len() < cases.len() + 1 {
                            repeated += 1;
                        }
                    }
                }
            }
        }
        assert!(switches > 0, "the suite has switches");
        assert!(repeated > 0, "some suite switch repeats a target");
    }

    #[test]
    fn retargeting_a_switch_keeps_its_successors_in_step() {
        let src = r#"
            int f(int n) {
                int r = 0;
                switch (n) {
                    case 1: case 2: r = 1; break;
                    case 3: r = 3;
                    case 4: break;
                    case 5: return 7;
                }
                if (r) r++; else r--;
                return r;
            }
        "#;
        let program = crate::build_program(minic::compile(src).expect("valid MiniC"));
        let cfg = program.cfg(program.function_id("f").unwrap());
        assert_matches_vec_adjacency(cfg, "f");
        // Sending every target to one block collapses each list to it.
        let mut cfg = cfg.clone();
        for b in &mut cfg.blocks {
            b.term.retarget(|_| BlockId(0));
        }
        for b in &cfg.blocks {
            if !matches!(b.term, Terminator::Return(_)) {
                assert_eq!(*cfg.successors(b.id), [BlockId(0)]);
            }
        }
        assert_matches_vec_adjacency(&cfg, "retargeted f");
    }

    #[test]
    fn debug_omits_switch_targets() {
        let t = Terminator::Goto(BlockId(3));
        assert_eq!(format!("{t:?}"), "Goto(BlockId(3))");
        let r = Terminator::Return(None);
        assert_eq!(format!("{r:?}"), "Return(None)");
        let src = "int f(int n) { switch (n) { case 1: n = 2; break; default: n = 3; } return n; }";
        let program = crate::build_program(minic::compile(src).expect("valid MiniC"));
        let cfg = program.cfg(program.function_id("f").unwrap());
        let sw = cfg
            .blocks
            .iter()
            .find(|b| matches!(b.term, Terminator::Switch { .. }))
            .expect("a switch block");
        let dump = format!("{:?}", sw.term);
        assert!(dump.starts_with("Switch { scrut: Expr {"), "{dump}");
        assert!(
            dump.contains(", switch: SwitchId(0), cases: [(1, BlockId("),
            "{dump}"
        );
        assert!(dump.contains("], default: BlockId("), "{dump}");
        assert!(!dump.contains("targets"), "{dump}");
    }
}
