//! Counter placement: count only the chords of a spanning tree, and
//! rebuild every other count after the run (Ball & Larus, "Optimally
//! Profiling and Tracing Programs", TOPLAS 1994).
//!
//! Each function's CFG gets a virtual EXIT node: every `Return` block
//! has an edge to EXIT, and EXIT has an edge back to the entry whose
//! count is the function's invocation count (already kept in
//! `func_counts`). Every activation enters through that edge and
//! leaves through a return edge, or is still live when `exit()` ends
//! the run — the VM then books one *departure* to EXIT for the block
//! each live activation was in. With those known, flow is conserved
//! at every node, so the counts of a spanning tree's edges follow
//! from the counts of the edges outside it (the chords).
//!
//! The tree is a maximum-weight spanning forest under a static
//! frequency estimate — loop nesting depth — so the counters that
//! remain sit on statically cold edges. Return edges join the tree
//! first (so `Ret` never counts), then CFG edges by weight, ties to
//! the conditional's fall-through (then) edge, then to its else and
//! switch edges, whose stubs can vanish when they carry no counter.
//!
//! After the run, [`rebuild`] replays a leaf-peeling order computed
//! here at compile time: a leaf of the remaining tree has exactly one
//! unknown incident edge, and conservation at the leaf fixes it. One
//! pass over the edges seeds the per-node balances, one step per tree
//! edge resolves it, and one more pass sums block counts — O(edges).

use super::NONE32;
use flowgraph::BlockId;

/// One step of the leaf-peeling order: conservation at `leaf` fixes
/// the count of its last unresolved tree edge, which joins it to
/// `other`.
#[derive(Debug, Clone, Copy, Hash, PartialEq, Eq)]
pub struct Peel {
    /// The leaf node (a block, or the EXIT node `n_blocks`).
    pub leaf: u32,
    /// The edge's other endpoint.
    pub other: u32,
    /// Edge-counter index of the edge, or [`NONE32`] for a return
    /// edge (its count is needed only for the balance, never stored).
    pub edge: u32,
    /// Whether the edge leaves the leaf (`leaf → other`).
    pub out: bool,
}

/// How one function's block, edge and branch counts are rebuilt from
/// its chord counts.
#[derive(Debug, Clone, Default, Hash, PartialEq, Eq)]
pub struct CounterPlan {
    /// Entry block.
    pub entry: u32,
    /// Number of CFG blocks (the EXIT node is numbered `n_blocks`).
    pub n_blocks: u32,
    /// The function's contiguous edge-counter range `[lo, hi)`.
    pub edges: (u32, u32),
    /// Leaf-peeling order over the spanning forest's edges.
    pub peel: Vec<Peel>,
    /// Branches whose counts are the counts of their two out-edges:
    /// `(branch, then edge, else edge)`.
    pub branches: Vec<(u32, u32, u32)>,
}

/// One CFG edge offered to the tree builder.
pub(super) struct Candidate {
    pub src: u32,
    pub dst: u32,
    /// Static frequency estimate: higher is hotter.
    pub weight: u32,
    /// Tie-break among equal weights: lower joins the tree first.
    pub rank: u8,
    /// The edge's counter index.
    pub edge: u32,
}

/// Builds the maximum-weight spanning forest over `n` blocks plus
/// EXIT. `edges` offers each CFG edge of the function once; their
/// counter indices are the `edges.len()` slots past `chord.len()`, in
/// any order, while ties between equal weights and ranks go to the
/// earlier candidate. `returns` are the blocks ending in `Return`.
/// Appends one chord flag per edge to `chord` and returns the
/// leaf-peeling order of the tree edges.
pub(super) fn spanning_tree(
    n: usize,
    edges: &[Candidate],
    returns: &[u32],
    chord: &mut Vec<bool>,
) -> Vec<Peel> {
    let exit = n as u32;
    let mut uf = UnionFind::new(n + 1);
    // Tree edges as (src, dst, counter index or NONE32).
    let mut tree: Vec<(u32, u32, u32)> = Vec::with_capacity(n);
    for &r in returns {
        if uf.union(r, exit) {
            tree.push((r, exit, NONE32));
        }
    }
    let mut work: Vec<u32> = (0..edges.len() as u32).collect();
    work.sort_unstable_by_key(|&i| {
        let e = &edges[i as usize];
        (std::cmp::Reverse(e.weight), e.rank, i)
    });
    chord.resize(chord.len() + edges.len(), true);
    for &i in &work {
        let e = &edges[i as usize];
        if uf.union(e.src, e.dst) {
            chord[e.edge as usize] = false;
            tree.push((e.src, e.dst, e.edge));
        }
    }

    // Peel leaves: a node's remaining tree edges are tracked as a
    // degree plus the XOR of their indices, so a leaf names its last
    // edge in O(1).
    let mut node = vec![(0u32, 0usize); n + 1];
    for (t, &(a, b, _)) in tree.iter().enumerate() {
        for v in [a, b] {
            node[v as usize].0 += 1;
            node[v as usize].1 ^= t;
        }
    }
    work.clear();
    work.extend((0..=exit).filter(|&v| node[v as usize].0 == 1));
    let mut peel = Vec::with_capacity(tree.len());
    while let Some(v) = work.pop() {
        let (deg, t) = node[v as usize];
        if deg != 1 {
            continue; // its last edge was peeled from the other side
        }
        let (a, b, edge) = tree[t];
        let other = if a == v { b } else { a };
        peel.push(Peel {
            leaf: v,
            other,
            edge,
            out: a == v,
        });
        for u in [v, other] {
            node[u as usize].0 -= 1;
            node[u as usize].1 ^= t;
        }
        if node[other as usize].0 == 1 {
            work.push(other);
        }
    }
    debug_assert_eq!(peel.len(), tree.len(), "every tree edge is peeled");
    peel
}

struct UnionFind(Vec<u32>);

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind((0..n as u32).collect())
    }

    fn find(&mut self, mut v: u32) -> u32 {
        while self.0[v as usize] != v {
            let up = self.0[self.0[v as usize] as usize];
            self.0[v as usize] = up;
            v = up;
        }
        v
    }

    /// Joins the sets of `a` and `b`; false when already joined.
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.0[ra as usize] = rb;
        true
    }
}

/// Rebuilds one function's counts in place. On entry `edges` holds
/// the chord counts of the run (tree edges are zero); on return it
/// holds every edge count of the function and `blocks` (zeroed, one
/// slot per block) holds the block counts; [`derive_branches`] then
/// reads the branch counts off the edges. `departures` lists the
/// blocks that were live when `exit()` ended the run, one entry per
/// live activation. `excess` is scratch.
pub(super) fn rebuild(
    plan: &CounterPlan,
    edge_keys: &[(BlockId, BlockId)],
    func_count: u64,
    departures: impl Iterator<Item = u32>,
    edges: &mut [u64],
    blocks: &mut [u64],
    excess: &mut Vec<i64>,
) {
    let exit = plan.n_blocks as usize;
    let (lo, hi) = (plan.edges.0 as usize, plan.edges.1 as usize);
    // `excess[v]` = known inflow − known outflow at node `v`.
    excess.clear();
    excess.resize(exit + 1, 0);
    excess[exit] -= func_count as i64;
    excess[plan.entry as usize] += func_count as i64;
    for b in departures {
        excess[b as usize] -= 1;
        excess[exit] += 1;
    }
    for (&(s, d), &c) in edge_keys[lo..hi].iter().zip(&edges[lo..hi]) {
        excess[s.0 as usize] -= c as i64;
        excess[d.0 as usize] += c as i64;
    }
    for p in &plan.peel {
        // The leaf's last unknown edge carries its whole imbalance to
        // the other end: out of the leaf when it has surplus inflow.
        let moved = excess[p.leaf as usize];
        excess[p.other as usize] += moved;
        if p.edge != NONE32 {
            let c = if p.out { moved } else { -moved };
            debug_assert!(c >= 0, "rebuilt a negative count");
            edges[p.edge as usize] = c as u64;
        }
    }
    blocks[plan.entry as usize] += func_count;
    for (&(_, d), &c) in edge_keys[lo..hi].iter().zip(&edges[lo..hi]) {
        blocks[d.0 as usize] += c;
    }
}

/// Adds the branch counts that follow from rebuilt edge counts: a
/// two-way branch was taken as often as its then edge ran.
pub(super) fn derive_branches(plan: &CounterPlan, edges: &[u64], branches: &mut [(u64, u64)]) {
    for &(b, then_e, else_e) in &plan.branches {
        let slot = &mut branches[b as usize];
        slot.0 += edges[then_e as usize];
        slot.1 += edges[else_e as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Candidate `edge` of a test CFG whose edges are offered in
    /// counter order.
    fn cand(edge: u32, src: u32, dst: u32, weight: u32, rank: u8) -> Candidate {
        Candidate {
            src,
            dst,
            weight,
            rank,
            edge,
        }
    }

    #[test]
    fn loop_back_edge_is_the_only_chord() {
        // 0 → 1 (header) ⇄ 2 (body), 1 → 3 (exit, returns).
        let edges = [
            cand(0, 0, 1, 0, 2),
            cand(1, 1, 2, 1, 0),
            cand(2, 1, 3, 0, 1),
            cand(3, 2, 1, 1, 2),
        ];
        let mut chord = Vec::new();
        let peel = spanning_tree(4, &edges, &[3], &mut chord);
        assert_eq!(chord, vec![false, false, false, true]);
        // Four tree edges (three CFG + one return) over five nodes.
        assert_eq!(peel.len(), 4);
    }

    #[test]
    fn self_loops_are_always_chords() {
        let edges = [cand(0, 0, 0, 9, 0), cand(1, 0, 1, 0, 2)];
        let mut chord = Vec::new();
        spanning_tree(2, &edges, &[1], &mut chord);
        assert_eq!(chord, vec![true, false]);
    }

    #[test]
    fn ties_go_to_the_earlier_offer_and_flags_land_by_counter() {
        // A switch in block 0 offers its edges in case order (to 2,
        // then to 1), the reverse of their counter order; the heavier
        // 1 → 2 joins first, so only the first offered of the two can.
        let edges = [
            cand(1, 0, 2, 0, 1),
            cand(0, 0, 1, 0, 1),
            cand(2, 1, 2, 5, 2),
        ];
        let mut chord = Vec::new();
        spanning_tree(3, &edges, &[2], &mut chord);
        assert_eq!(chord, vec![true, false, false]);
    }

    #[test]
    fn rebuild_recovers_loop_counts() {
        // Same loop as above, run with 10 iterations, one invocation.
        let edges = [
            cand(0, 0, 1, 0, 2),
            cand(1, 1, 2, 1, 0),
            cand(2, 1, 3, 0, 1),
            cand(3, 2, 1, 1, 2),
        ];
        let mut chord = Vec::new();
        let peel = spanning_tree(4, &edges, &[3], &mut chord);
        let keys: Vec<_> = edges
            .iter()
            .map(|e| (BlockId(e.src), BlockId(e.dst)))
            .collect();
        let truth = [1u64, 10, 1, 10];
        let mut counts: Vec<u64> = truth
            .iter()
            .zip(&chord)
            .map(|(&c, &ch)| if ch { c } else { 0 })
            .collect();
        let plan = CounterPlan {
            entry: 0,
            n_blocks: 4,
            edges: (0, 4),
            peel,
            branches: vec![(0, 1, 2)],
        };
        let mut blocks = vec![0; 4];
        let mut branches = vec![(0, 0)];
        rebuild(
            &plan,
            &keys,
            1,
            std::iter::empty(),
            &mut counts,
            &mut blocks,
            &mut Vec::new(),
        );
        derive_branches(&plan, &counts, &mut branches);
        assert_eq!(counts, truth);
        assert_eq!(blocks, vec![1, 11, 10, 1]);
        assert_eq!(branches, vec![(10, 1)]);
    }
}
