//! Control-flow-graph types.
//!
//! A [`Cfg`] is the execution IR of this reproduction: the profiler's
//! interpreter runs it directly, so profiled basic-block counts and the
//! estimators' per-block predictions refer to the *same* blocks by
//! construction (the paper had to map gcc's ASTs onto its CFGs; here the
//! mapping is the `anchor` field filled during lowering).

use minic::ast::{Expr, NodeId};
use minic::sema::{BranchId, FuncId, LocalId, SwitchId};
use minic::types::Type;

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
    Eval(Expr),
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
        value: Expr,
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
#[derive(Debug, Clone)]
pub enum Terminator {
    /// Unconditional jump.
    Goto(BlockId),
    /// Two-way conditional branch.
    Branch {
        /// The condition expression.
        cond: Expr,
        /// The branch site registered by sema, if any (synthetic
        /// branches from lowering have none).
        branch: Option<BranchId>,
        /// Target when the condition is true.
        then_blk: BlockId,
        /// Target when the condition is false.
        else_blk: BlockId,
    },
    /// Multi-way `switch`.
    Switch {
        /// The scrutinee expression.
        scrut: Expr,
        /// The switch site registered by sema.
        switch: SwitchId,
        /// `(case value, target)` pairs.
        cases: Vec<(i64, BlockId)>,
        /// Target when no case matches.
        default: BlockId,
    },
    /// Return from the function.
    Return(Option<Expr>),
}

impl Terminator {
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
            Terminator::Switch { cases, default, .. } => {
                for (_, t) in cases.iter_mut() {
                    *t = f(*t);
                }
                *default = f(*default);
            }
            Terminator::Return(_) => {}
        }
    }
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

    /// The successor blocks of `id`, in terminator order.
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        match &self.block(id).term {
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

    /// Predecessor lists for every block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in &self.blocks {
            for s in self.successors(b.id) {
                preds[s.0 as usize].push(b.id);
            }
        }
        preds
    }

    /// Blocks in reverse post-order from the entry.
    pub fn reverse_post_order(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS with an explicit stack of (block, next-successor).
        let mut stack = vec![(self.entry, 0usize)];
        visited[self.entry.0 as usize] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let succs = self.successors(b);
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
