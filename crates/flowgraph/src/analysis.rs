//! Graph analyses: dominators, natural loops, and strongly connected
//! components.
//!
//! Dominators and natural loops support the "locating loops" step of
//! the paper's simple estimators and the DOT renderer; Tarjan's SCC
//! algorithm is the machinery behind the Markov call-graph model's
//! recursion repair (§5.2.2 considers each SCC in isolation).

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

/// Post-dominator tree of a CFG: `a` post-dominates `b` when every
/// path from `b` to function exit passes through `a`. Computed over the
/// reversed CFG with a virtual exit joining all `Return` blocks.
/// (Ball & Larus's original executable-level heuristics are phrased in
/// terms of post-domination; this is the analysis a faithful port of
/// their store/call heuristics would use.)
#[derive(Debug, Clone)]
pub struct PostDominators {
    /// Immediate post-dominator per block; `None` for blocks that
    /// cannot reach the exit (e.g. bodies of `while(1)` loops) and for
    /// blocks whose only post-dominator is the virtual exit.
    ipdom: Vec<Option<BlockId>>,
}

impl PostDominators {
    /// Computes post-dominators for `cfg`.
    pub fn compute(cfg: &Cfg) -> Self {
        let n = cfg.blocks.len();
        let exit = n; // virtual exit node
                      // Reversed adjacency, with Return blocks feeding the exit.
        let mut radj = vec![Vec::new(); n + 1];
        let mut rpreds = vec![Vec::new(); n + 1]; // successors in reversed graph's terms
        for b in &cfg.blocks {
            let succs = cfg.successors(b.id);
            if succs.is_empty() {
                radj[exit].push(b.id.0 as usize);
                rpreds[b.id.0 as usize].push(exit);
            }
            for s in succs {
                radj[s.0 as usize].push(b.id.0 as usize);
                rpreds[b.id.0 as usize].push(s.0 as usize);
            }
        }
        // RPO over the reversed graph from the virtual exit.
        let mut visited = vec![false; n + 1];
        let mut post = Vec::new();
        let mut stack = vec![(exit, 0usize)];
        visited[exit] = true;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if *i < radj[v].len() {
                let w = radj[v][*i];
                *i += 1;
                if !visited[w] {
                    visited[w] = true;
                    stack.push((w, 0));
                }
            } else {
                post.push(v);
                stack.pop();
            }
        }
        post.reverse();
        let mut order = vec![usize::MAX; n + 1];
        for (i, &v) in post.iter().enumerate() {
            order[v] = i;
        }
        let mut idom: Vec<Option<usize>> = vec![None; n + 1];
        idom[exit] = Some(exit);
        let mut changed = true;
        while changed {
            changed = false;
            for &v in post.iter().skip(1) {
                // "Predecessors" in the reversed graph are the CFG
                // successors (plus the virtual exit for returns).
                let mut new_idom: Option<usize> = None;
                for &p in &rpreds[v] {
                    if idom[p].is_none() || order[p] == usize::MAX {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect_usize(&idom, &order, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[v] != Some(ni) {
                        idom[v] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        let ipdom = (0..n)
            .map(|v| match idom[v] {
                Some(p) if p < n => Some(BlockId(p as u32)),
                _ => None, // virtual exit or unreachable-from-exit
            })
            .collect();
        PostDominators { ipdom }
    }

    /// The immediate post-dominator of `b` (`None` when it is the
    /// function exit itself or cannot reach the exit).
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        self.ipdom[b.0 as usize]
    }

    /// Whether `a` post-dominates `b` (reflexive).
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.ipdom[cur.0 as usize] {
                Some(next) if next != cur => cur = next,
                _ => return false,
            }
        }
    }
}

fn intersect_usize(idom: &[Option<usize>], order: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while order[a] > order[b] {
            a = idom[a].expect("processed node has an idom");
        }
        while order[b] > order[a] {
            b = idom[b].expect("processed node has an idom");
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

/// Tarjan's strongly-connected components over an adjacency list.
///
/// Returns components in reverse topological order (callees before
/// callers when applied to a call graph). Singleton nodes without a
/// self edge are their own (trivial) component.
///
/// # Examples
///
/// ```
/// use flowgraph::analysis::tarjan_scc;
///
/// // 0 -> 1 -> 2 -> 1 (cycle), 2 -> 3
/// let adj = vec![vec![1], vec![2], vec![1, 3], vec![]];
/// let sccs = tarjan_scc(&adj);
/// assert!(sccs.contains(&vec![1, 2]));
/// ```
pub fn tarjan_scc(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let n = adj.len();
    let mut state = vec![
        NodeState {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut stack = Vec::new();
    let mut sccs = Vec::new();
    let mut counter = 0usize;

    // Iterative Tarjan to avoid recursion limits on big call graphs.
    enum Frame {
        Enter(usize),
        Resume(usize, usize),
    }
    for root in 0..n {
        if state[root].visited {
            continue;
        }
        let mut work = vec![Frame::Enter(root)];
        while let Some(frame) = work.pop() {
            match frame {
                Frame::Enter(v) => {
                    state[v].visited = true;
                    state[v].index = counter;
                    state[v].lowlink = counter;
                    counter += 1;
                    stack.push(v);
                    state[v].on_stack = true;
                    work.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut i) => {
                    let mut descended = false;
                    while i < adj[v].len() {
                        let w = adj[v][i];
                        i += 1;
                        if !state[w].visited {
                            work.push(Frame::Resume(v, i));
                            work.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if state[w].on_stack {
                            state[v].lowlink = state[v].lowlink.min(state[w].index);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if state[v].lowlink == state[v].index {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("stack holds the component");
                            state[w].on_stack = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        sccs.push(comp);
                    }
                    // Propagate lowlink to the parent frame.
                    if let Some(Frame::Resume(p, _)) = work.last() {
                        let p = *p;
                        state[p].lowlink = state[p].lowlink.min(state[v].lowlink);
                    }
                }
            }
        }
    }
    sccs
}

/// Whether node `v` is in a nontrivial cycle: its SCC has more than one
/// node, or it has a self edge.
pub fn in_cycle(adj: &[Vec<usize>], sccs: &[Vec<usize>], v: usize) -> bool {
    if adj[v].contains(&v) {
        return true;
    }
    sccs.iter().any(|c| c.len() > 1 && c.contains(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scc_finds_cycles() {
        // 0->1->2->0 cycle; 3 alone; 4->4 self loop.
        let adj = vec![vec![1], vec![2], vec![0], vec![0], vec![4]];
        let sccs = tarjan_scc(&adj);
        assert!(sccs.contains(&vec![0, 1, 2]));
        assert!(sccs.contains(&vec![3]));
        assert!(sccs.contains(&vec![4]));
        assert!(in_cycle(&adj, &sccs, 0));
        assert!(!in_cycle(&adj, &sccs, 3));
        assert!(in_cycle(&adj, &sccs, 4));
    }

    #[test]
    fn scc_reverse_topological_order() {
        // 0 -> 1, 1 -> 2: components come out callee-first.
        let adj = vec![vec![1], vec![2], vec![]];
        let sccs = tarjan_scc(&adj);
        let pos = |v: usize| sccs.iter().position(|c| c.contains(&v)).unwrap();
        assert!(pos(2) < pos(1));
        assert!(pos(1) < pos(0));
    }

    #[test]
    fn scc_empty_graph() {
        assert!(tarjan_scc(&[]).is_empty());
    }
}
