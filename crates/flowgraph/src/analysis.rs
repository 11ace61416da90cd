//! Graph analyses: dominators and natural loops.
//!
//! Dominators and natural loops support the "locating loops" step of
//! the paper's simple estimators and the DOT renderer. (Strongly
//! connected components, for the Markov call-graph model's recursion
//! repair, are `linsolve::tarjan_scc`.)

use crate::cfg::{BlockId, BlockLists, Cfg};
use std::collections::HashSet;

/// Immediate-dominator tree of a CFG, computed by the classic iterative
/// algorithm (Cooper–Harvey–Kennedy) over reverse post-order.
#[derive(Debug, Clone)]
pub struct Dominators {
    /// `idom[b]` is the immediate dominator of `b`; the entry block is
    /// its own idom. Unreachable blocks map to `None`.
    idom: Vec<Option<BlockId>>,
    entry: BlockId,
}

impl Dominators {
    /// Computes dominators for `cfg`.
    pub fn compute(cfg: &Cfg) -> Self {
        Self::with_preds(cfg, &cfg.predecessors())
    }

    fn with_preds(cfg: &Cfg, preds: &BlockLists) -> Self {
        let n = cfg.blocks.len();
        let rpo = cfg.reverse_post_order();
        let mut order = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            order[b.0 as usize] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[cfg.entry.0 as usize] = Some(cfg.entry);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in preds.of(b) {
                    if idom[p.0 as usize].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &order, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.0 as usize] != Some(ni) {
                        idom[b.0 as usize] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        Dominators {
            idom,
            entry: cfg.entry,
        }
    }

    /// The immediate dominator of `b` (the entry dominates itself).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.0 as usize]
    }

    /// Whether `a` dominates `b`.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.entry {
                return false;
            }
            match self.idom[cur.0 as usize] {
                Some(next) if next != cur => cur = next,
                _ => return false,
            }
        }
    }
}

fn intersect(idom: &[Option<BlockId>], order: &[usize], mut a: BlockId, mut b: BlockId) -> BlockId {
    while a != b {
        while order[a.0 as usize] > order[b.0 as usize] {
            a = idom[a.0 as usize].expect("processed block has an idom");
        }
        while order[b.0 as usize] > order[a.0 as usize] {
            b = idom[b.0 as usize].expect("processed block has an idom");
        }
    }
    a
}

/// A natural loop: a back edge `latch → header` where the header
/// dominates the latch, plus every block that can reach the latch
/// without passing through the header.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// The loop header.
    pub header: BlockId,
    /// The source of the back edge.
    pub latch: BlockId,
    /// All blocks in the loop (including header and latch).
    pub body: Vec<BlockId>,
}

/// Finds all natural loops of `cfg`. Loops sharing a header are
/// reported separately (one per back edge).
pub fn natural_loops(cfg: &Cfg) -> Vec<NaturalLoop> {
    let dom = Dominators::compute(cfg);
    let preds = cfg.predecessors();
    let mut loops = Vec::new();
    for b in &cfg.blocks {
        for s in cfg.successors(b.id) {
            if dom.dominates(s, b.id) {
                // Back edge b -> s.
                let header = s;
                let latch = b.id;
                let mut body: HashSet<BlockId> = [header, latch].into_iter().collect();
                let mut stack = vec![latch];
                while let Some(x) = stack.pop() {
                    if x == header {
                        continue;
                    }
                    for &p in &preds[x.0 as usize] {
                        if body.insert(p) {
                            stack.push(p);
                        }
                    }
                }
                let mut body: Vec<BlockId> = body.into_iter().collect();
                body.sort();
                loops.push(NaturalLoop {
                    header,
                    latch,
                    body,
                });
            }
        }
    }
    loops.sort_by_key(|l| (l.header, l.latch));
    loops
}

/// Loop nesting depth of every block (0 = not in any loop): the
/// number of distinct loop headers whose loop (every natural loop of
/// the header, merged) contains the block. Allocation-light — one
/// stamp array and one work stack for all loops — because the
/// profiler weighs its counter placement with it on every compile.
pub fn loop_depths(cfg: &Cfg) -> Vec<usize> {
    let n = cfg.blocks.len();
    if cfg
        .blocks
        .iter()
        .all(|b| cfg.successors(b.id).iter().all(|t| t.0 > b.id.0))
    {
        // Every edge goes to a later block: no cycle, so no loop.
        return vec![0; n];
    }
    let preds = cfg.predecessors();
    let dom = Dominators::with_preds(cfg, &preds);
    let mut depth = vec![0usize; n];
    // `seen[b] == h` once `b` is counted in header `h`'s loop.
    let mut seen = vec![usize::MAX; n];
    let mut stack = Vec::new();
    for h in 0..n {
        let header = BlockId(h as u32);
        // Back edges `latch → header`: the header dominates the latch.
        for &latch in &preds[h] {
            if !dom.dominates(header, latch) {
                continue;
            }
            if seen[h] != h {
                seen[h] = h;
                depth[h] += 1;
            }
            // The latch and everything reaching it without passing
            // through the header.
            stack.push(latch);
            while let Some(x) = stack.pop() {
                let x = x.0 as usize;
                if seen[x] == h {
                    continue;
                }
                seen[x] = h;
                depth[x] += 1;
                stack.extend(preds[x].iter().filter(|p| seen[p.0 as usize] != h));
            }
        }
    }
    depth
}

/// One loop of a [`LoopForest`]: every natural loop sharing a header,
/// merged (multiple back edges = one loop), with its nesting links.
#[derive(Debug, Clone)]
pub struct ForestLoop {
    /// The loop header (dominates every body block).
    pub header: BlockId,
    /// All blocks in the merged loop, sorted (includes the header).
    pub body: Vec<BlockId>,
    /// Index of the innermost strictly-enclosing loop, if any.
    pub parent: Option<usize>,
    /// Indices of the loops nested directly inside this one.
    pub children: Vec<usize>,
    /// Nesting depth: 1 for outermost loops.
    pub depth: usize,
}

impl ForestLoop {
    /// Whether `b` belongs to this loop's body (binary search).
    pub fn contains(&self, b: BlockId) -> bool {
        self.body.binary_search(&b).is_ok()
    }
}

/// The loop-nest forest of one CFG: natural loops merged by header and
/// linked by strict body containment. Since every header dominates its
/// body, two merged loops are either disjoint or strictly nested, so
/// containment forms a forest.
///
/// Loops are stored innermost-first (ascending body size), so walking
/// `parent` links climbs outward and the chain from
/// [`LoopForest::innermost`] enumerates a block's nest inside-out.
#[derive(Debug, Clone)]
pub struct LoopForest {
    /// The merged loops, ascending body size (innermost first).
    pub loops: Vec<ForestLoop>,
    innermost: Vec<Option<usize>>,
}

impl LoopForest {
    /// Builds the forest for `cfg`.
    pub fn compute(cfg: &Cfg) -> Self {
        // Merge natural loops by header.
        let mut by_header: std::collections::HashMap<BlockId, HashSet<BlockId>> =
            std::collections::HashMap::new();
        for l in natural_loops(cfg) {
            by_header
                .entry(l.header)
                .or_default()
                .extend(l.body.iter().copied());
        }
        let mut loops: Vec<ForestLoop> = by_header
            .into_iter()
            .map(|(header, body)| {
                let mut body: Vec<BlockId> = body.into_iter().collect();
                body.sort();
                ForestLoop {
                    header,
                    body,
                    parent: None,
                    children: Vec::new(),
                    depth: 0,
                }
            })
            .collect();
        // Strict nesting implies strictly larger bodies (two distinct
        // headers cannot dominate each other), so after this sort a
        // loop's parent candidates all come later in the vector.
        loops.sort_by_key(|l| (l.body.len(), l.header));
        for i in 0..loops.len() {
            loops[i].parent = (i + 1..loops.len()).find(|&j| loops[j].contains(loops[i].header));
        }
        for i in 0..loops.len() {
            if let Some(p) = loops[i].parent {
                loops[p].children.push(i);
            }
        }
        for i in (0..loops.len()).rev() {
            loops[i].depth = match loops[i].parent {
                Some(p) => loops[p].depth + 1,
                None => 1,
            };
        }
        let innermost = (0..cfg.blocks.len())
            .map(|b| {
                let b = BlockId(b as u32);
                (0..loops.len()).find(|&i| loops[i].contains(b))
            })
            .collect();
        LoopForest { loops, innermost }
    }

    /// The innermost loop containing `b`, if any.
    pub fn innermost(&self, b: BlockId) -> Option<usize> {
        self.innermost[b.0 as usize]
    }

    /// The loops containing `b`, innermost first.
    pub fn nest_of(&self, b: BlockId) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.innermost(b);
        while let Some(i) = cur {
            out.push(i);
            cur = self.loops[i].parent;
        }
        out
    }
}
