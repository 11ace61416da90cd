//! Inter-procedural function-invocation estimation (§4.3, §5.2).
//!
//! All estimators start from per-function intra-procedural block
//! frequencies (normalized to one entry). A call site's *local
//! frequency* is the estimated frequency of the block containing it.
//!
//! Simple models (§4.3, Figure 5a):
//!
//! - [`InterEstimator::CallSite`] — a function's invocation count is
//!   the sum of the local frequencies of its call sites.
//! - [`InterEstimator::Direct`] — *call-site*, with directly-recursive
//!   functions multiplied by 5.
//! - [`InterEstimator::AllRec`] — every function involved in any
//!   recursion (a nontrivial call-graph SCC) is multiplied by 5.
//! - [`InterEstimator::AllRec2`] — the *all-rec* counts scale each
//!   function's block frequencies, and the algorithm is reapplied.
//!
//! The Markov model (§5.2, Figures 5b/5c):
//!
//! - [`InterEstimator::Markov`] — the call graph becomes a flow system:
//!   arcs between the same pair of functions are merged, `main` is
//!   injected with count 1, and the system is solved exactly. Indirect
//!   calls route through a synthetic *pointer node* that fans out to
//!   every address-taken function, weighted by static address-of
//!   counts (§5.2.1). Recursion that produces invalid (negative)
//!   solutions is repaired per SCC: self-arcs above 1 are reset to 0.8,
//!   and SCC sub-systems are solved with an artificial main and their
//!   arc weights scaled down until the sub-solution is valid (§5.2.2).

use crate::intra::IntraEstimates;
use flowgraph::analysis::tarjan_scc;
use flowgraph::Program;
use linsolve::FlowSystem;
use minic::sema::FuncId;
use std::collections::HashMap;

/// The recursion multiplier shared by the simple models (the loop
/// iteration guess applied to recursion).
pub const RECURSION_FACTOR: f64 = 5.0;
/// §5.2.2: the repaired probability for a direct-recursion self arc
/// whose estimated weight exceeds 1.
pub const SELF_ARC_REPAIR: f64 = 0.8;
/// §5.2.2 footnote 6: ceiling on per-entry execution counts inside an
/// SCC sub-problem.
pub const SCC_CEILING: f64 = 5.0;

/// Which inter-procedural estimator to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterEstimator {
    /// Sum of call-site frequencies.
    CallSite,
    /// Call-site with direct recursion ×5.
    Direct,
    /// Call-site with every recursive function ×5.
    AllRec,
    /// All-rec applied twice (block counts rescaled in between).
    AllRec2,
    /// The call-graph Markov model.
    Markov,
}

impl InterEstimator {
    /// All five estimators, in the paper's order.
    pub const ALL: [InterEstimator; 5] = [
        InterEstimator::CallSite,
        InterEstimator::Direct,
        InterEstimator::AllRec,
        InterEstimator::AllRec2,
        InterEstimator::Markov,
    ];

    /// The paper's name for the estimator.
    pub fn name(self) -> &'static str {
        match self {
            InterEstimator::CallSite => "call-site",
            InterEstimator::Direct => "direct",
            InterEstimator::AllRec => "all-rec",
            InterEstimator::AllRec2 => "all-rec2",
            InterEstimator::Markov => "markov",
        }
    }
}

/// Estimated invocation counts per function.
#[derive(Debug, Clone)]
pub struct InterEstimates {
    /// Which estimator produced this.
    pub estimator: InterEstimator,
    /// Invocation estimate per function, indexed by [`FuncId`].
    pub func_freqs: Vec<f64>,
}

impl InterEstimates {
    /// The estimate for one function.
    pub fn of(&self, f: FuncId) -> f64 {
        self.func_freqs[f.0 as usize]
    }
}

/// The local (within-caller, per-invocation) frequency of every call
/// site, derived from intra-procedural block estimates.
pub fn local_site_freqs(program: &Program, intra: &IntraEstimates) -> HashMap<u32, f64> {
    let mut out = HashMap::new();
    for (site, &block) in &program.callgraph.site_block {
        let caller = program.module.side.call_sites[site.0 as usize].caller;
        let freq = intra
            .blocks_of(caller)
            .get(block.0 as usize)
            .copied()
            .unwrap_or(0.0);
        out.insert(site.0, freq);
    }
    out
}

/// Runs one inter-procedural estimator.
pub fn estimate_invocations(
    program: &Program,
    intra: &IntraEstimates,
    which: InterEstimator,
) -> InterEstimates {
    let _sp = obs::span("estimate.inter");
    let func_freqs = match which {
        InterEstimator::CallSite => simple(program, intra, Recursion::None, false),
        InterEstimator::Direct => simple(program, intra, Recursion::DirectOnly, false),
        InterEstimator::AllRec => simple(program, intra, Recursion::All, false),
        InterEstimator::AllRec2 => simple(program, intra, Recursion::All, true),
        InterEstimator::Markov => markov(program, intra),
    };
    InterEstimates {
        estimator: which,
        func_freqs,
    }
}

enum Recursion {
    None,
    DirectOnly,
    All,
}

/// Shared machinery of the simple models: invocation(f) = Σ local site
/// frequencies (scaled by `scale[caller]`), with indirect call weight
/// split across address-taken functions by static `&f` counts.
fn one_pass(program: &Program, local: &HashMap<u32, f64>, scale: &[f64]) -> Vec<f64> {
    let module = &program.module;
    let n = module.functions.len();
    let mut inv = vec![0.0; n];
    for arc in &program.callgraph.direct {
        let callee = arc.callee.expect("direct arc");
        inv[callee.0 as usize] += local[&arc.site.0] * scale[arc.caller.0 as usize];
    }
    // Indirect sites: sum their weight, divide among address-taken
    // functions in proportion to static address-of counts (§4.3).
    let total_indirect: f64 = program
        .callgraph
        .indirect
        .iter()
        .map(|arc| local[&arc.site.0] * scale[arc.caller.0 as usize])
        .sum();
    if total_indirect > 0.0 {
        let total_count: u32 = module.side.address_taken.values().sum();
        if total_count > 0 {
            for (&fid, &count) in &module.side.address_taken {
                inv[fid.0 as usize] += total_indirect * (count as f64) / (total_count as f64);
            }
        }
    }
    // `main` runs at least once.
    if let Some(m) = module.function_id("main") {
        let slot = &mut inv[m.0 as usize];
        *slot = slot.max(1.0);
    }
    inv
}

fn recursion_multipliers(program: &Program, which: &Recursion) -> Vec<f64> {
    let n = program.module.functions.len();
    let mut mult = vec![1.0; n];
    let adj = program.callgraph.adjacency(n);
    match which {
        Recursion::None => {}
        Recursion::DirectOnly => {
            for (i, m) in mult.iter_mut().enumerate() {
                if adj[i].contains(&i) {
                    *m = RECURSION_FACTOR;
                }
            }
        }
        Recursion::All => {
            let sccs = tarjan_scc(&adj);
            for scc in &sccs {
                let recursive = scc.len() > 1 || adj[scc[0]].contains(&scc[0]);
                if recursive {
                    for &v in scc {
                        mult[v] = RECURSION_FACTOR;
                    }
                }
            }
        }
    }
    mult
}

fn simple(
    program: &Program,
    intra: &IntraEstimates,
    recursion: Recursion,
    second_pass: bool,
) -> Vec<f64> {
    let local = local_site_freqs(program, intra);
    let ones = vec![1.0; program.module.functions.len()];
    let mult = recursion_multipliers(program, &recursion);
    let mut inv: Vec<f64> = one_pass(program, &local, &ones)
        .iter()
        .zip(&mult)
        .map(|(v, m)| v * m)
        .collect();
    if second_pass {
        // all-rec2: use the first-round function counts to scale each
        // caller's block counts, then recompute (§4.3).
        let scale: Vec<f64> = inv.iter().map(|&v| v.max(1.0)).collect();
        inv = one_pass(program, &local, &scale)
            .iter()
            .zip(&mult)
            .map(|(v, m)| v * m)
            .collect();
    }
    inv
}

// ----- the Markov call-graph model -----

/// The merged, weighted call-graph arcs (including the pointer node,
/// which gets index `n`): `(src, dst, weight)`.
fn markov_arcs(program: &Program, local: &HashMap<u32, f64>) -> (usize, Vec<(usize, usize, f64)>) {
    let module = &program.module;
    let n = module.functions.len();
    let ptr_node = n;
    let mut merged: HashMap<(usize, usize), f64> = HashMap::new();
    for arc in &program.callgraph.direct {
        let callee = arc.callee.expect("direct arc");
        *merged
            .entry((arc.caller.0 as usize, callee.0 as usize))
            .or_insert(0.0) += local[&arc.site.0];
    }
    for arc in &program.callgraph.indirect {
        *merged
            .entry((arc.caller.0 as usize, ptr_node))
            .or_insert(0.0) += local[&arc.site.0];
    }
    let total_count: u32 = module.side.address_taken.values().sum();
    if total_count > 0 {
        for (&fid, &count) in &module.side.address_taken {
            *merged.entry((ptr_node, fid.0 as usize)).or_insert(0.0) +=
                count as f64 / total_count as f64;
        }
    }
    // Sort so the solver sees arcs in a fixed order: the sparse solve
    // accumulates floats in arc order, and HashMap iteration order
    // would otherwise leak last-ulp differences into the estimates.
    let mut arcs: Vec<_> = merged.into_iter().map(|((s, d), w)| (s, d, w)).collect();
    arcs.sort_by_key(|&(s, d, _)| (s, d));
    (n + 1, arcs)
}

fn solve_arcs(
    size: usize,
    arcs: &[(usize, usize, f64)],
    inject: &[(usize, f64)],
) -> Option<Vec<f64>> {
    let mut sys = FlowSystem::new(size);
    for &(s, d, w) in arcs {
        sys.add_arc(s, d, w);
    }
    for &(node, amount) in inject {
        sys.inject(node, amount);
    }
    sys.solve().ok()
}

fn markov(program: &Program, intra: &IntraEstimates) -> Vec<f64> {
    let module = &program.module;
    let local = local_site_freqs(program, intra);
    let (size, mut arcs) = markov_arcs(program, &local);
    let main = module
        .function_id("main")
        .map(|f| f.0 as usize)
        .unwrap_or(0);

    // Repair 1 (§5.2.2): a self arc with weight > 1 means "calls itself
    // more than once per invocation" — reset to the standard 0.8.
    for arc in arcs.iter_mut() {
        if arc.0 == arc.1 && arc.2 > 1.0 {
            arc.2 = SELF_ARC_REPAIR;
        }
    }

    let inject = [(main, 1.0)];
    if let Some(solution) = solve_arcs(size, &arcs, &inject) {
        if solution.iter().all(|&v| v >= -1e-9) {
            return finish(solution, module.functions.len());
        }
    }

    // Repair 2: per-SCC damping with an artificial main.
    let mut adj = vec![Vec::new(); size];
    for &(s, d, _) in &arcs {
        if !adj[s].contains(&d) {
            adj[s].push(d);
        }
    }
    let sccs = tarjan_scc(&adj);
    for scc in &sccs {
        let nontrivial = scc.len() > 1 || arcs.iter().any(|&(s, d, _)| s == scc[0] && d == scc[0]);
        if !nontrivial {
            continue;
        }
        repair_scc(&mut arcs, scc, size);
    }

    match solve_arcs(size, &arcs, &inject) {
        Some(solution) if solution.iter().all(|&v| v >= -1e-6) => {
            finish(solution, module.functions.len())
        }
        _ => {
            // Last resort: damp everything until solvable.
            let mut damped = arcs.clone();
            for _ in 0..60 {
                for a in damped.iter_mut() {
                    a.2 *= 0.75;
                }
                if let Some(sol) = solve_arcs(size, &damped, &inject) {
                    if sol.iter().all(|&v| v >= -1e-6) {
                        return finish(sol, module.functions.len());
                    }
                }
            }
            vec![1.0; module.functions.len()]
        }
    }
}

/// Solves one SCC in isolation with an artificial main (§5.2.2): the
/// artificial entry feeds each member `v` with `m_v / n` where `m_v` is
/// the arc weight into `v` from outside the SCC and `n` the total into
/// the SCC. If the sub-solution is negative or exceeds the ceiling,
/// every internal arc is scaled down and the solve retried; the scaled
/// weights are written back into `arcs`.
fn repair_scc(arcs: &mut [(usize, usize, f64)], scc: &[usize], _size: usize) {
    let in_scc = |v: usize| scc.contains(&v);
    // External inflow per member. BTreeMap so the `total` float sum
    // below accumulates in a fixed order.
    let mut inflow: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
    for &(s, d, w) in arcs.iter() {
        if !in_scc(s) && in_scc(d) {
            *inflow.entry(d).or_insert(0.0) += w;
        }
    }
    let total: f64 = inflow.values().sum();
    // Index members densely: member i of the sub-system.
    let index: HashMap<usize, usize> = scc.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let sub_n = scc.len() + 1; // + artificial main at the end
    let art = scc.len();

    let internal: Vec<usize> = arcs
        .iter()
        .enumerate()
        .filter(|(_, &(s, d, _))| in_scc(s) && in_scc(d))
        .map(|(i, _)| i)
        .collect();

    let mut scale = 1.0;
    for _ in 0..60 {
        let mut sub_arcs: Vec<(usize, usize, f64)> = Vec::new();
        for &i in &internal {
            let (s, d, w) = arcs[i];
            sub_arcs.push((index[&s], index[&d], w * scale));
        }
        for &v in scc {
            let m = inflow.get(&v).copied().unwrap_or(0.0);
            let share = if total > 0.0 {
                m / total
            } else {
                1.0 / scc.len() as f64
            };
            sub_arcs.push((art, index[&v], share));
        }
        if let Some(sol) = solve_arcs(sub_n, &sub_arcs, &[(art, 1.0)]) {
            let valid = sol[..scc.len()]
                .iter()
                .all(|&v| (-1e-9..=SCC_CEILING).contains(&v));
            if valid {
                // Commit the scaled internal weights.
                for &i in &internal {
                    arcs[i].2 *= scale;
                }
                return;
            }
        }
        scale *= 0.75;
    }
    // Give up: neutralize internal arcs entirely.
    for &i in &internal {
        arcs[i].2 = 0.0;
    }
}

fn finish(mut solution: Vec<f64>, n_functions: usize) -> Vec<f64> {
    solution.truncate(n_functions); // drop the pointer node
    for v in solution.iter_mut() {
        if !v.is_finite() || *v < 0.0 {
            *v = 0.0;
        }
    }
    solution
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intra::{estimate_program, IntraEstimator};

    fn setup(src: &str) -> (Program, IntraEstimates) {
        let module = minic::compile(src).expect("valid MiniC");
        let program = flowgraph::build_program(module);
        let intra = estimate_program(&program, IntraEstimator::Smart);
        (program, intra)
    }

    fn by_name(p: &Program, est: &InterEstimates, name: &str) -> f64 {
        est.of(p.function_id(name).unwrap())
    }

    #[test]
    fn call_site_sums_local_frequencies() {
        let (p, intra) = setup(
            r#"
            int leaf(int x) { return x; }
            int main(void) {
                int i, s = 0;
                for (i = 0; i < 10; i++) s += leaf(i); /* freq 4 */
                s += leaf(0);                          /* freq 1 */
                return s;
            }
            "#,
        );
        let est = estimate_invocations(&p, &intra, InterEstimator::CallSite);
        assert!((by_name(&p, &est, "leaf") - 5.0).abs() < 1e-9);
        assert!((by_name(&p, &est, "main") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn direct_multiplies_self_recursion() {
        let (p, intra) = setup(
            r#"
            int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }
            int main(void) { return fact(6); }
            "#,
        );
        let cs = estimate_invocations(&p, &intra, InterEstimator::CallSite);
        let direct = estimate_invocations(&p, &intra, InterEstimator::Direct);
        assert!((by_name(&p, &direct, "fact") - 5.0 * by_name(&p, &cs, "fact")).abs() < 1e-9);
    }

    #[test]
    fn all_rec_catches_mutual_recursion() {
        let (p, intra) = setup(
            r#"
            int odd(int n);
            int even(int n) { if (n == 0) return 1; return odd(n - 1); }
            int odd(int n) { if (n == 0) return 0; return even(n - 1); }
            int main(void) { return even(8); }
            "#,
        );
        let direct = estimate_invocations(&p, &intra, InterEstimator::Direct);
        let allrec = estimate_invocations(&p, &intra, InterEstimator::AllRec);
        // direct does not see the mutual cycle; all-rec does.
        assert!((by_name(&p, &allrec, "even") - 5.0 * by_name(&p, &direct, "even")).abs() < 1e-9);
    }

    #[test]
    fn all_rec2_amplifies_through_callers() {
        let (p, intra) = setup(
            r#"
            int helper(int x) { return x + 1; }
            int worker(int n) {
                int i, s = 0;
                for (i = 0; i < n; i++) s += helper(i);
                if (n > 1) s += worker(n - 1);
                return s;
            }
            int main(void) { return worker(5); }
            "#,
        );
        let one = estimate_invocations(&p, &intra, InterEstimator::AllRec);
        let two = estimate_invocations(&p, &intra, InterEstimator::AllRec2);
        // worker is recursive, so in the second pass helper's count is
        // scaled by worker's (≥5×) invocation estimate.
        assert!(by_name(&p, &two, "helper") > by_name(&p, &one, "helper") * 2.0);
    }

    #[test]
    fn markov_weights_chain_multiplicatively() {
        let (p, intra) = setup(
            r#"
            int inner(int x) { return x; }
            int outer(int n) {
                int i, s = 0;
                for (i = 0; i < 8; i++) s += inner(i); /* local freq 4 */
                return s;
            }
            int main(void) {
                int i, s = 0;
                for (i = 0; i < 8; i++) s += outer(i); /* local freq 4 */
                return s;
            }
            "#,
        );
        let est = estimate_invocations(&p, &intra, InterEstimator::Markov);
        // main = 1, outer = 4, inner = 16.
        assert!((by_name(&p, &est, "main") - 1.0).abs() < 1e-6);
        assert!((by_name(&p, &est, "outer") - 4.0).abs() < 1e-6);
        assert!((by_name(&p, &est, "inner") - 16.0).abs() < 1e-6);
    }

    #[test]
    fn markov_repairs_figure8_recursion() {
        // Figure 8: count_nodes branches on `node == NULL`; the pointer
        // heuristic predicts the else arm (two recursive calls), giving
        // the self arc weight 2 × 0.8 = 1.6 > 1 — impossible. The
        // repair resets it to 0.8; the solution stays positive.
        let (p, intra) = setup(
            r#"
            struct tree { struct tree *left; struct tree *right; };
            int count_nodes(struct tree *node) {
                if (node == 0) return 0;
                else return count_nodes(node->left) + count_nodes(node->right) + 1;
            }
            int main(void) { return count_nodes(0); }
            "#,
        );
        // Confirm the pathological local weight first.
        let local = local_site_freqs(&p, &intra);
        let self_weight: f64 = p
            .callgraph
            .direct
            .iter()
            .filter(|a| {
                a.caller == p.function_id("count_nodes").unwrap()
                    && a.callee == p.function_id("count_nodes")
            })
            .map(|a| local[&a.site.0])
            .sum();
        assert!((self_weight - 1.6).abs() < 1e-9, "got {self_weight}");

        let est = estimate_invocations(&p, &intra, InterEstimator::Markov);
        let v = by_name(&p, &est, "count_nodes");
        assert!(v.is_finite() && v > 0.0, "got {v}");
        // With the 0.8 repair: count = 1 / (1 - 0.8) = 5.
        assert!((v - 5.0).abs() < 1e-6, "got {v}");
    }

    #[test]
    fn markov_pointer_node_splits_by_address_counts() {
        let (p, intra) = setup(
            r#"
            int a(int x) { return x; }
            int b(int x) { return x + 1; }
            int (*tab[3])(int) = { a, a, b };  /* a taken twice, b once */
            int main(void) {
                int i, s = 0;
                for (i = 0; i < 3; i++) s += tab[i](i);
                return s;
            }
            "#,
        );
        let est = estimate_invocations(&p, &intra, InterEstimator::Markov);
        let va = by_name(&p, &est, "a");
        let vb = by_name(&p, &est, "b");
        assert!(va > 0.0 && vb > 0.0);
        assert!((va / vb - 2.0).abs() < 1e-6, "a={va} b={vb}");
    }

    #[test]
    fn mutual_recursion_triggers_scc_repair() {
        // Both arms of each function recurse with high local frequency,
        // making the 2-cycle weight exceed 1 without any self arc.
        let (p, intra) = setup(
            r#"
            int pong(int n);
            int ping(int n) {
                int i, s = 0;
                for (i = 0; i < 4; i++) s += pong(n - 1); /* weight 4 */
                return s;
            }
            int pong(int n) {
                int i, s = 0;
                for (i = 0; i < 4; i++) s += ping(n - 1); /* weight 4 */
                return s;
            }
            int main(void) { return ping(3); }
            "#,
        );
        let est = estimate_invocations(&p, &intra, InterEstimator::Markov);
        for name in ["ping", "pong", "main"] {
            let v = by_name(&p, &est, name);
            assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
        }
        assert!(by_name(&p, &est, "ping") > 0.0);
    }

    #[test]
    fn every_estimator_produces_finite_estimates() {
        let (p, intra) = setup(
            r#"
            int f(int n) { if (n < 1) return 0; return f(n - 1) + 1; }
            int g(int n) { return f(n); }
            int main(void) { return g(4); }
            "#,
        );
        for which in InterEstimator::ALL {
            let est = estimate_invocations(&p, &intra, which);
            assert_eq!(est.func_freqs.len(), p.module.functions.len());
            for v in &est.func_freqs {
                assert!(v.is_finite() && *v >= 0.0, "{which:?}: {v}");
            }
        }
    }
}
