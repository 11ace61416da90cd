//! Sparse, SCC-aware solving of flow systems.
//!
//! Flow graphs from CFGs and call graphs are extremely sparse (most
//! blocks have out-degree ≤ 2), so the dense `O(n³)` elimination in
//! [`crate::Matrix::solve`] wastes nearly all of its work. This module
//! exploits the graph structure instead:
//!
//! 1. the arc list is compiled into CSR adjacencies: incoming arcs
//!    with weights ([`Csr`]) and successors ([`Successors`]);
//! 2. the graph is condensed into strongly connected components with
//!    an iterative Tarjan pass ([`tarjan_scc`]), emitted as one flat
//!    member array ([`Components`]);
//! 3. components are solved in topological order — a trivial SCC is a
//!    single substitution over its incoming arcs (`O(in-degree)`),
//!    and a nontrivial SCC becomes a *local* dense solve (or, if that
//!    local matrix is singular, a damped fixed-point iteration
//!    confined to the component).
//!
//! Acyclic regions therefore solve in `O(V + E)` with `O(V + E)`
//! memory, and the cubic cost is paid only per cyclic component — in
//! practice loops and recursion cliques of a handful of nodes. The
//! allocations of a solve do not grow with the node or component
//! count: every per-node and per-component list lives in a flat array.

use crate::solve::FlowSolveError;
use crate::Matrix;

/// Compressed sparse row adjacency of a weighted directed graph,
/// indexed by *destination*: `incoming(v)` lists the `(src, weight)`
/// arcs flowing into `v`, which is the orientation the flow equation
/// `x[v] = inject[v] + Σ w·x[src]` consumes.
#[derive(Debug, Clone)]
pub struct Csr {
    n: usize,
    /// Row offsets into `arcs`, length `n + 1`.
    row: Vec<u32>,
    /// `(src, weight)` pairs grouped by destination.
    arcs: Vec<(u32, f64)>,
}

impl Csr {
    /// Builds the incoming-arc CSR for `n` nodes from an arc list of
    /// `(src, dst, weight)` triples. Parallel arcs are kept; they sum
    /// naturally during propagation.
    ///
    /// # Errors
    ///
    /// Returns [`FlowSolveError::NodeOutOfRange`] if any arc endpoint
    /// is `>= n`.
    pub fn from_arcs(n: usize, arcs: &[(usize, usize, f64)]) -> Result<Self, FlowSolveError> {
        if let Some(&(src, dst, _)) = arcs.iter().find(|&&(src, dst, _)| src >= n || dst >= n) {
            return Err(FlowSolveError::NodeOutOfRange {
                node: src.max(dst),
                len: n,
            });
        }
        let (row, arcs) = group(n, arcs.iter().map(|&(src, dst, w)| (dst, (src as u32, w))));
        Ok(Csr { n, row, arcs })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The `(src, weight)` arcs flowing into `v`.
    pub fn incoming(&self, v: usize) -> &[(u32, f64)] {
        &self.arcs[self.row[v] as usize..self.row[v + 1] as usize]
    }
}

/// Stable counting sort of `items` by their key `< n`: the row
/// offsets (length `n + 1`) and the values grouped by key, each group
/// in input order.
fn group<T: Copy + Default>(
    n: usize,
    items: impl DoubleEndedIterator<Item = (usize, T)> + ExactSizeIterator + Clone,
) -> (Vec<u32>, Vec<T>) {
    let mut row = vec![0u32; n + 1];
    for (key, _) in items.clone() {
        row[key] += 1;
    }
    // `row[k]` becomes the end of group `k`; filling back to front
    // walks each cursor down to its group's start.
    for k in 1..n {
        row[k] += row[k - 1];
    }
    row[n] = items.len() as u32;
    let mut packed = vec![T::default(); items.len()];
    for (key, value) in items.rev() {
        row[key] -= 1;
        packed[row[key] as usize] = value;
    }
    (row, packed)
}

/// Successor lists of a directed graph in CSR form: `of(v)` lists the
/// heads of `v`'s arcs in arc-list order.
#[derive(Debug, Clone)]
pub struct Successors {
    /// Row offsets into `heads`, length `n + 1`.
    row: Vec<u32>,
    heads: Vec<u32>,
}

impl Successors {
    /// The successor lists of `n` nodes under the `(src, dst, _)` arcs.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n` ([`Csr::from_arcs`] checks that
    /// first in [`solve_sparse`]).
    pub fn from_arcs(n: usize, arcs: &[(usize, usize, f64)]) -> Self {
        let (row, heads) = group(n, arcs.iter().map(|&(src, dst, _)| (src, dst as u32)));
        Successors { row, heads }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.row.len() - 1
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The heads of `v`'s arcs.
    pub fn of(&self, v: usize) -> &[u32] {
        &self.heads[self.row[v] as usize..self.row[v + 1] as usize]
    }
}

/// Strongly connected components as one flat member array: component
/// `c` is `get(c)`, in the order [`tarjan_scc`] emitted it.
#[derive(Debug, Clone, Default)]
pub struct Components {
    members: Vec<u32>,
    /// `ends[c]` is one past component `c`'s last member.
    ends: Vec<u32>,
}

impl Components {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` if there are no components.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The members of component `c`.
    pub fn get(&self, c: usize) -> &[u32] {
        let start = if c == 0 { 0 } else { self.ends[c - 1] as usize };
        &self.members[start..self.ends[c] as usize]
    }
}

/// Iterative Tarjan: partitions the nodes of `succ` into strongly
/// connected components. Components come in *reverse topological*
/// order of the condensation (every component precedes the components
/// that point into it), which is the natural emission order of the
/// algorithm; callers wanting sources-first order walk them backwards.
pub fn tarjan_scc(succ: &Successors) -> Components {
    const UNVISITED: u32 = u32::MAX;
    let n = succ.len();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0u32;
    let mut sccs = Components {
        members: Vec::with_capacity(n),
        ends: Vec::new(),
    };
    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if let Some(&w) = succ.of(v).get(*child) {
                let w = w as usize;
                *child += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        sccs.members.push(w as u32);
                        if w == v {
                            break;
                        }
                    }
                    sccs.ends.push(sccs.members.len() as u32);
                }
            }
        }
    }
    sccs
}

/// Damping factor shared with the historical dense fallback: the
/// fixed-point iteration computes `x ← b + damping·Wᵀx`, which
/// truncates the infinite execution of an inescapable cycle after
/// roughly `1/(1−damping)` effective traversals.
pub(crate) const DAMPING: f64 = 0.999;
/// Iteration budget for one damped component solve.
pub(crate) const MAX_ITERS: usize = 60_000;
/// Convergence threshold on the max-norm step size.
pub(crate) const TOLERANCE: f64 = 1e-9;
/// Pivots below this are treated as singular, matching [`Matrix::solve`].
const SINGULAR_TOL: f64 = 1e-12;

/// Solves `x[v] = inject[v] + Σ_{arc src→v} w·x[src]` for every node,
/// exploiting sparsity and SCC structure as described in the module
/// docs.
///
/// # Errors
///
/// Returns [`FlowSolveError::NodeOutOfRange`] for malformed arcs and
/// [`FlowSolveError::DidNotConverge`] if a singular cyclic component's
/// damped iteration fails to settle.
pub fn solve_sparse(
    n: usize,
    arcs: &[(usize, usize, f64)],
    inject: &[f64],
) -> Result<Vec<f64>, FlowSolveError> {
    debug_assert_eq!(inject.len(), n);
    if n == 0 {
        return Ok(Vec::new());
    }
    let _sp = obs::span("linsolve.solve");
    // Telemetry accumulates in locals and is recorded once on exit, so
    // the per-component loop takes no locks even while tracing.
    let mut stat_trivial = 0u64;
    let mut stat_dense = 0u64;
    let mut stat_damped = 0u64;
    let incoming = Csr::from_arcs(n, arcs)?;
    let sccs = tarjan_scc(&Successors::from_arcs(n, arcs));

    let mut comp_of = vec![0u32; n];
    for ci in 0..sccs.len() {
        for &v in sccs.get(ci) {
            comp_of[v as usize] = ci as u32;
        }
    }

    let mut x = vec![0.0f64; n];
    // Scratch buffers reused across nontrivial components.
    let mut local_index = vec![u32::MAX; n];

    // Tarjan emits components sinks-first; solve sources-first.
    for ci in (0..sccs.len()).rev() {
        let comp = sccs.get(ci);
        // External inflow: arcs from earlier components are final.
        // (Arcs from *this* component are the unknowns handled below.)
        if let [v] = *comp {
            let v = v as usize;
            // Trivial SCC: x[v] = (b[v]) / (1 - self_weight).
            let mut b = inject[v];
            let mut self_w = 0.0;
            for &(src, w) in incoming.incoming(v) {
                if src as usize == v {
                    self_w += w;
                } else {
                    b += w * x[src as usize];
                }
            }
            if self_w == 0.0 {
                x[v] = b;
            } else {
                let denom = 1.0 - self_w;
                if denom.abs() > SINGULAR_TOL {
                    x[v] = b / denom;
                } else {
                    // Inescapable self-loop: damped closed form,
                    // identical to the fixed point of the damped
                    // iteration (converges because DAMPING·w < 1).
                    x[v] = b / (1.0 - DAMPING * self_w);
                }
            }
            stat_trivial += 1;
            continue;
        }

        // Nontrivial SCC: local dense solve over the members.
        let k = comp.len();
        for (i, &v) in comp.iter().enumerate() {
            local_index[v as usize] = i as u32;
        }
        let mut m = Matrix::identity(k);
        let mut b = vec![0.0f64; k];
        for (i, &v) in comp.iter().enumerate() {
            b[i] = inject[v as usize];
            for &(src, w) in incoming.incoming(v as usize) {
                let src = src as usize;
                if comp_of[src] as usize == ci {
                    m[(i, local_index[src] as usize)] -= w;
                } else {
                    b[i] += w * x[src];
                }
            }
        }
        let _scc = obs::span("linsolve.scc");
        match m.solve(&b) {
            Ok(local) => {
                stat_dense += 1;
                for (i, &v) in comp.iter().enumerate() {
                    x[v as usize] = local[i];
                }
            }
            Err(_) => {
                // Singular component (e.g. a cycle that can never
                // exit): damped fixed point confined to the SCC.
                stat_damped += 1;
                let local =
                    solve_damped_component(comp, &local_index, ci, &comp_of, &incoming, &b)?;
                for (i, &v) in comp.iter().enumerate() {
                    x[v as usize] = local[i];
                }
            }
        }
        drop(_scc);
        for &v in comp {
            local_index[v as usize] = u32::MAX;
        }
    }
    if obs::enabled() {
        obs::counter_add("linsolve.solves", 1);
        obs::counter_add("linsolve.scc.trivial", stat_trivial);
        obs::counter_add("linsolve.scc.dense", stat_dense);
        obs::counter_add("linsolve.scc.damped_fallback", stat_damped);
    }
    Ok(x)
}

/// Damped fixed-point iteration over one singular component:
/// `y ← b + DAMPING·W_localᵀ y` until the max-norm step drops below
/// [`TOLERANCE`].
fn solve_damped_component(
    comp: &[u32],
    local_index: &[u32],
    ci: usize,
    comp_of: &[u32],
    incoming: &Csr,
    b: &[f64],
) -> Result<Vec<f64>, FlowSolveError> {
    let k = comp.len();
    let mut y = b.to_vec();
    let mut next = vec![0.0f64; k];
    let mut residual = f64::INFINITY;
    for _ in 0..MAX_ITERS {
        next.copy_from_slice(b);
        for (i, &v) in comp.iter().enumerate() {
            for &(src, w) in incoming.incoming(v as usize) {
                let src = src as usize;
                if comp_of[src] as usize == ci {
                    next[i] += DAMPING * w * y[local_index[src] as usize];
                }
            }
        }
        residual = y
            .iter()
            .zip(&next)
            .map(|(a, c)| (a - c).abs())
            .fold(0.0, f64::max);
        std::mem::swap(&mut y, &mut next);
        if residual < TOLERANCE {
            obs::gauge_max("linsolve.damped.residual.max", residual);
            return Ok(y);
        }
    }
    obs::gauge_max("linsolve.damped.residual.max", residual);
    Err(FlowSolveError::DidNotConverge {
        iterations: MAX_ITERS,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_groups_by_destination() {
        let csr = Csr::from_arcs(3, &[(0, 1, 0.5), (2, 1, 0.25), (1, 2, 1.0)]).unwrap();
        assert_eq!(csr.len(), 3);
        assert!(csr.incoming(0).is_empty());
        let mut into1: Vec<(u32, f64)> = csr.incoming(1).to_vec();
        into1.sort_by_key(|&(s, _)| s);
        assert_eq!(into1, vec![(0, 0.5), (2, 0.25)]);
        assert_eq!(csr.incoming(2), &[(1, 1.0)]);
    }

    #[test]
    fn csr_rejects_out_of_range() {
        assert!(matches!(
            Csr::from_arcs(2, &[(0, 5, 1.0)]),
            Err(FlowSolveError::NodeOutOfRange { node: 5, len: 2 })
        ));
    }

    fn successors(n: usize, arcs: &[(usize, usize)]) -> Successors {
        let arcs: Vec<(usize, usize, f64)> = arcs.iter().map(|&(s, d)| (s, d, 1.0)).collect();
        Successors::from_arcs(n, &arcs)
    }

    #[test]
    fn successors_keep_arc_order() {
        let succ = successors(3, &[(2, 0), (0, 2), (2, 1), (0, 1), (2, 2)]);
        assert_eq!(succ.len(), 3);
        assert_eq!(succ.of(0), &[2, 1]);
        assert!(succ.of(1).is_empty());
        assert_eq!(succ.of(2), &[0, 1, 2]);
    }

    #[test]
    fn tarjan_finds_components_in_reverse_topo_order() {
        // 0 -> 1 <-> 2 -> 3, 3 -> 3 (self loop).
        let succ = successors(4, &[(0, 1), (1, 2), (2, 1), (2, 3), (3, 3)]);
        let sccs = tarjan_scc(&succ);
        let mut sorted: Vec<Vec<u32>> = (0..sccs.len())
            .map(|c| {
                let mut c = sccs.get(c).to_vec();
                c.sort_unstable();
                c
            })
            .collect();
        // Emission order: {3} first (sink), then {1,2}, then {0}.
        assert_eq!(sorted.remove(0), vec![3]);
        assert_eq!(sorted.remove(0), vec![1, 2]);
        assert_eq!(sorted.remove(0), vec![0]);
    }

    #[test]
    fn tarjan_handles_disconnected_graphs() {
        assert_eq!(tarjan_scc(&successors(3, &[])).len(), 3);
    }

    #[test]
    fn acyclic_chain_is_exact() {
        let arcs: Vec<(usize, usize, f64)> = (0..99).map(|i| (i, i + 1, 0.5)).collect();
        let mut inject = vec![0.0; 100];
        inject[0] = 1.0;
        let x = solve_sparse(100, &arcs, &inject).unwrap();
        for (i, v) in x.iter().enumerate() {
            assert!((v - 0.5f64.powi(i as i32)).abs() < 1e-12, "node {i}: {v}");
        }
    }

    #[test]
    fn two_node_cycle_matches_closed_form() {
        // 0 -> 1 (1.0), 1 -> 0 (0.5): x0 = 1 + 0.5 x1, x1 = x0.
        let x = solve_sparse(2, &[(0, 1, 1.0), (1, 0, 0.5)], &[1.0, 0.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12, "{x:?}");
        assert!((x[1] - 2.0).abs() < 1e-12, "{x:?}");
    }

    #[test]
    fn inescapable_cycle_uses_damped_fallback() {
        // 0 <-> 1 with probability 1: singular, damped result is large
        // but finite and symmetric.
        let x = solve_sparse(2, &[(0, 1, 1.0), (1, 0, 1.0)], &[1.0, 0.0]).unwrap();
        assert!(x[0] > 100.0 && x[0].is_finite());
        assert!((x[0] - x[1]).abs() / x[0] < 0.01);
    }
}
