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
use flowgraph::Program;
use linsolve::{solve_sparse, tarjan_scc, Successors};
use minic::sema::FuncId;

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
    /// All five estimators, in the paper's order (and declaration
    /// order, so `which as usize` indexes this array).
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
/// site, derived from intra-procedural block estimates: indexed by
/// `CallSiteId`, 0 for a site the call graph places in no block.
pub fn local_site_freqs(program: &Program, intra: &IntraEstimates) -> Vec<f64> {
    let sites = &program.module.side.call_sites;
    let blocks = &program.callgraph.site_block;
    sites
        .iter()
        .zip(blocks)
        .map(|(site, block)| {
            block.map_or(0.0, |b| {
                intra
                    .blocks_of(site.caller)
                    .get(b.0 as usize)
                    .copied()
                    .unwrap_or(0.0)
            })
        })
        .collect()
}

/// Runs one inter-procedural estimator.
pub fn estimate_invocations(
    program: &Program,
    intra: &IntraEstimates,
    which: InterEstimator,
) -> InterEstimates {
    let _sp = obs::span("estimate.inter");
    let local = local_site_freqs(program, intra);
    let main = program.function_id("main");
    let func_freqs = match which {
        InterEstimator::Markov => markov(program, &local, main),
        // The four simple models in `ALL` order.
        simple => simple_models(program, &local, main)
            .into_iter()
            .nth(simple as usize)
            .expect("one estimate per simple model"),
    };
    InterEstimates {
        estimator: which,
        func_freqs,
    }
}

/// All five inter-procedural estimators, in [`InterEstimator::ALL`]
/// order, over precomputed [`local_site_freqs`]; `main` is the
/// program's entry function.
pub(crate) fn all_invocations(
    program: &Program,
    local: &[f64],
    main: Option<FuncId>,
) -> [InterEstimates; 5] {
    let _sp = obs::span("estimate.inter");
    let [call_site, direct, all_rec, all_rec2] = simple_models(program, local, main);
    let mut freqs = [
        call_site,
        direct,
        all_rec,
        all_rec2,
        markov(program, local, main),
    ]
    .into_iter();
    InterEstimator::ALL.map(|estimator| InterEstimates {
        estimator,
        func_freqs: freqs.next().expect("one per estimator"),
    })
}

/// Call-site, direct, all-rec and all-rec2: one unscaled pass times
/// each model's recursion multipliers, and all-rec2's second pass.
/// Call-site is the unscaled pass itself (its multipliers are all 1,
/// and `x * 1.0` is `x`).
fn simple_models(program: &Program, local: &[f64], main: Option<FuncId>) -> [Vec<f64>; 4] {
    let (direct_mult, all_mult) = recursion_multipliers(program);
    let times =
        |v: &[f64], mult: &[f64]| -> Vec<f64> { v.iter().zip(mult).map(|(v, m)| v * m).collect() };
    let base = one_pass(program, local, None, main);
    let direct = times(&base, &direct_mult);
    let all_rec = times(&base, &all_mult);
    // all-rec2: use the first-round function counts to scale each
    // caller's block counts, then recompute (§4.3).
    let scale: Vec<f64> = all_rec.iter().map(|&v| v.max(1.0)).collect();
    let all_rec2 = times(&one_pass(program, local, Some(&scale), main), &all_mult);
    [base, direct, all_rec, all_rec2]
}

/// The recursion multipliers of *direct* (functions that call
/// themselves) and *all-rec* (every function in a call-graph cycle).
fn recursion_multipliers(program: &Program) -> (Vec<f64>, Vec<f64>) {
    let n = program.module.functions.len();
    let calls: Vec<(usize, usize, f64)> = program
        .callgraph
        .direct
        .iter()
        .map(|a| {
            (
                a.caller.0 as usize,
                a.callee.expect("direct arc").0 as usize,
                1.0,
            )
        })
        .collect();
    let mut direct = vec![1.0; n];
    for &(caller, callee, _) in &calls {
        if caller == callee {
            direct[caller] = RECURSION_FACTOR;
        }
    }
    // A self-recursive function is a cycle of its own; the others are
    // the members of nontrivial components.
    let mut all = direct.clone();
    let sccs = tarjan_scc(&Successors::from_arcs(n, &calls));
    for c in 0..sccs.len() {
        let members = sccs.get(c);
        if members.len() > 1 {
            for &v in members {
                all[v as usize] = RECURSION_FACTOR;
            }
        }
    }
    (direct, all)
}

/// Shared machinery of the simple models: invocation(f) = Σ local site
/// frequencies (scaled by `scale[caller]`, when given), with indirect
/// call weight split across address-taken functions by static `&f`
/// counts. Sums run in call-graph arc order.
fn one_pass(
    program: &Program,
    local: &[f64],
    scale: Option<&[f64]>,
    main: Option<FuncId>,
) -> Vec<f64> {
    let module = &program.module;
    let n = module.functions.len();
    // Unscaled is scaled by 1: `x * 1.0` is `x`, bit for bit.
    let scale = |f: FuncId| scale.map_or(1.0, |s| s[f.0 as usize]);
    let mut inv = vec![0.0; n];
    for arc in &program.callgraph.direct {
        let callee = arc.callee.expect("direct arc");
        inv[callee.0 as usize] += local[arc.site.0 as usize] * scale(arc.caller);
    }
    // Indirect sites: sum their weight, divide among address-taken
    // functions in proportion to static address-of counts (§4.3).
    let total_indirect: f64 = program
        .callgraph
        .indirect
        .iter()
        .map(|arc| local[arc.site.0 as usize] * scale(arc.caller))
        .sum();
    if total_indirect > 0.0 {
        let total_count: u32 = module.side.address_taken_funcs().map(|(_, n)| n).sum();
        if total_count > 0 {
            for (fid, count) in module.side.address_taken_funcs() {
                inv[fid.0 as usize] += total_indirect * (count as f64) / (total_count as f64);
            }
        }
    }
    // `main` runs at least once.
    if let Some(m) = main {
        let slot = &mut inv[m.0 as usize];
        *slot = slot.max(1.0);
    }
    inv
}

// ----- the Markov call-graph model -----

/// The merged, weighted call-graph arcs (including the pointer node,
/// which gets index `n`): `(src, dst, weight)`, sorted by `(src, dst)`.
/// Arcs between the same pair are summed in call-graph order (direct
/// arcs, then indirect ones, then the pointer node's fan-out): the
/// stable sort keeps that order within a pair, and the sparse solve
/// accumulates floats in the sorted arc order.
fn markov_arcs(program: &Program, local: &[f64]) -> (usize, Vec<(usize, usize, f64)>) {
    let module = &program.module;
    let n = module.functions.len();
    let ptr_node = n;
    let cg = &program.callgraph;
    let mut arcs: Vec<(usize, usize, f64)> =
        Vec::with_capacity(cg.direct.len() + cg.indirect.len());
    for arc in &cg.direct {
        let callee = arc.callee.expect("direct arc");
        arcs.push((
            arc.caller.0 as usize,
            callee.0 as usize,
            local[arc.site.0 as usize],
        ));
    }
    for arc in &cg.indirect {
        arcs.push((arc.caller.0 as usize, ptr_node, local[arc.site.0 as usize]));
    }
    let total_count: u32 = module.side.address_taken_funcs().map(|(_, n)| n).sum();
    if total_count > 0 {
        for (fid, count) in module.side.address_taken_funcs() {
            arcs.push((ptr_node, fid.0 as usize, count as f64 / total_count as f64));
        }
    }
    arcs.sort_by_key(|&(s, d, _)| (s, d));
    // Merge each run of equal `(src, dst)` into its first slot.
    let mut merged = 0;
    for i in 0..arcs.len() {
        let (s, d, w) = arcs[i];
        if merged > 0 && (arcs[merged - 1].0, arcs[merged - 1].1) == (s, d) {
            arcs[merged - 1].2 += w;
        } else {
            // `0.0 + w`, as a zero-initialised accumulator adds it.
            arcs[merged] = (s, d, 0.0 + w);
            merged += 1;
        }
    }
    arcs.truncate(merged);
    (n + 1, arcs)
}

fn solve_arcs(
    size: usize,
    arcs: &[(usize, usize, f64)],
    inject: &[(usize, f64)],
) -> Option<Vec<f64>> {
    let mut b = vec![0.0; size];
    for &(node, amount) in inject {
        *b.get_mut(node)? += amount;
    }
    solve_sparse(size, arcs, &b).ok()
}

fn markov(program: &Program, local: &[f64], main: Option<FuncId>) -> Vec<f64> {
    let module = &program.module;
    let (size, mut arcs) = markov_arcs(program, local);
    let main = main.map_or(0, |f| f.0 as usize);

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

    // Repair 2: per-SCC damping with an artificial main. Each repair
    // rescales only its own component's internal arcs, so the order
    // components come in does not matter; members are sorted, which
    // fixes the sub-system's row order.
    let sccs = tarjan_scc(&Successors::from_arcs(size, &arcs));
    for c in 0..sccs.len() {
        let mut scc: Vec<usize> = sccs.get(c).iter().map(|&v| v as usize).collect();
        scc.sort_unstable();
        let nontrivial = scc.len() > 1 || arcs.iter().any(|&(s, d, _)| s == scc[0] && d == scc[0]);
        if !nontrivial {
            continue;
        }
        repair_scc(&mut arcs, &scc, size);
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
fn repair_scc(arcs: &mut [(usize, usize, f64)], scc: &[usize], size: usize) {
    // Index members densely: member i of the sub-system.
    let mut index = vec![usize::MAX; size];
    for (i, &v) in scc.iter().enumerate() {
        index[v] = i;
    }
    let in_scc = |v: usize| index[v] != usize::MAX;
    // External inflow per member. BTreeMap so the `total` float sum
    // below accumulates in a fixed order.
    let mut inflow: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
    for &(s, d, w) in arcs.iter() {
        if !in_scc(s) && in_scc(d) {
            *inflow.entry(d).or_insert(0.0) += w;
        }
    }
    let total: f64 = inflow.values().sum();
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
            sub_arcs.push((index[s], index[d], w * scale));
        }
        for &v in scc {
            let m = inflow.get(&v).copied().unwrap_or(0.0);
            let share = if total > 0.0 {
                m / total
            } else {
                1.0 / scc.len() as f64
            };
            sub_arcs.push((art, index[v], share));
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
            .map(|a| local[a.site.0 as usize])
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
