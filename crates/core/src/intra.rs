//! Intra-procedural basic-block frequency estimation (§4.2, §5.1).
//!
//! Three estimators, exactly as the paper evaluates in Figure 4:
//!
//! - [`IntraEstimator::Loop`] — locate loops, assume every loop runs
//!   five times, split every branch 50/50. A single top-down AST walk.
//! - [`IntraEstimator::Smart`] — *loop* plus the branch heuristics: the
//!   predicted arm of a branch receives probability 0.8.
//! - [`IntraEstimator::Markov`] — model the CFG as a Markov chain with
//!   the same smart probabilities on its arcs and solve the resulting
//!   linear system (Figures 6/7). Unlike the AST walks, this honours
//!   `break`/`continue`/`goto`/`return`.
//!
//! The AST-based walks assign frequencies to statement nodes (and loop
//! conditions / `for` steps); those map onto CFG blocks through each
//! block's `anchor`.

use crate::branch::{predict_module, predict_module_with, Prediction, PredictorConfig};
use flowgraph::{BlockId, Cfg, Program, Terminator};
use linsolve::FlowSystem;
use minic::ast::{NodeId, Stmt, StmtKind};
use minic::sema::{BranchId, FuncId, SwitchId};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// The paper's loop-count assumption: every loop iterates five times,
/// so a pre-tested loop's condition runs 5× and its body 4× per entry
/// (Figure 3).
pub const LOOP_TEST_COUNT: f64 = 5.0;
/// Body multiplier for pre-tested loops (`while`, `for`).
pub const LOOP_BODY_COUNT: f64 = 4.0;
/// Body/test multiplier for post-tested loops (`do … while`).
pub const DO_WHILE_COUNT: f64 = 5.0;

/// Which intra-procedural estimator to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntraEstimator {
    /// Loops ×5, branches 50/50 (the paper's *loop*).
    Loop,
    /// Loops ×5 with branch-prediction probabilities (*smart*).
    Smart,
    /// CFG Markov chain with smart probabilities (*Markov*, §5.1).
    Markov,
}

impl IntraEstimator {
    /// All three estimators, in the paper's order (and declaration
    /// order, so `which as usize` indexes this array).
    pub const ALL: [IntraEstimator; 3] = [
        IntraEstimator::Loop,
        IntraEstimator::Smart,
        IntraEstimator::Markov,
    ];

    /// The paper's name for the estimator.
    pub fn name(self) -> &'static str {
        match self {
            IntraEstimator::Loop => "loop",
            IntraEstimator::Smart => "smart",
            IntraEstimator::Markov => "markov",
        }
    }
}

/// All intra-procedural estimates for a program, plus the shared branch
/// predictions (computed once and reused by the inter-procedural and
/// miss-rate analyses; the estimates of one program share one map).
#[derive(Debug, Clone)]
pub struct IntraEstimates {
    /// Which estimator produced this.
    pub estimator: IntraEstimator,
    /// Per-function block frequencies, normalized to one function entry.
    /// Indexed by `FuncId`; empty for prototypes.
    pub block_freqs: Vec<Vec<f64>>,
    /// The branch predictions used.
    pub predictions: Arc<HashMap<BranchId, Prediction>>,
}

impl IntraEstimates {
    /// The block-frequency vector of one function.
    pub fn blocks_of(&self, f: FuncId) -> &[f64] {
        &self.block_freqs[f.0 as usize]
    }
}

/// Tunable parameters of the intra-procedural estimators, for the
/// ablation studies the paper's design decisions invite: the loop
/// iteration guess (the paper's 5) and the branch-predictor config
/// (heuristic set, arm probability, calibrated probabilities).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntraOptions {
    /// Assumed loop iteration count (paper: 5). The loop test runs
    /// `loop_count` times and the body `loop_count - 1` per entry.
    pub loop_count: f64,
    /// Branch predictor configuration.
    pub predictor: PredictorConfig,
    /// Use static trip-count analysis ([`crate::tripcount`]) for
    /// `for` loops of recognized shape instead of the fixed guess —
    /// the refinement §4.1 says is possible for numerical codes.
    pub trip_counts: bool,
}

impl Default for IntraOptions {
    fn default() -> Self {
        IntraOptions {
            loop_count: LOOP_TEST_COUNT,
            predictor: PredictorConfig::default(),
            trip_counts: false,
        }
    }
}

/// Runs one estimator over every defined function.
pub fn estimate_program(program: &Program, which: IntraEstimator) -> IntraEstimates {
    estimate_program_with(program, which, &IntraOptions::default())
}

/// [`estimate_program`] with explicit [`IntraOptions`].
pub fn estimate_program_with(
    program: &Program,
    which: IntraEstimator,
    options: &IntraOptions,
) -> IntraEstimates {
    let _sp = obs::span("estimate.intra");
    let predictions = predict_module_with(&program.module, &options.predictor);
    let trips = if options.trip_counts {
        crate::tripcount::trip_counts(&program.module)
    } else {
        HashMap::new()
    };
    let block_freqs = program
        .module
        .functions
        .iter()
        .map(|f| {
            if f.is_defined() {
                estimate_with_trips(program, f.id, which, &predictions, options, &trips)
            } else {
                Vec::new()
            }
        })
        .collect();
    IntraEstimates {
        estimator: which,
        block_freqs,
        predictions: Arc::new(predictions),
    }
}

/// Estimates block frequencies for one function (entry normalized to 1).
pub fn estimate_function(program: &Program, f: FuncId, which: IntraEstimator) -> Vec<f64> {
    let predictions = predict_module(&program.module);
    estimate_with(program, f, which, &predictions, &IntraOptions::default())
}

fn estimate_with(
    program: &Program,
    f: FuncId,
    which: IntraEstimator,
    predictions: &HashMap<BranchId, Prediction>,
    options: &IntraOptions,
) -> Vec<f64> {
    estimate_with_trips(program, f, which, predictions, options, &HashMap::new())
}

/// Estimates one function's block frequencies against caller-supplied
/// module predictions — the unit of recomputation of the incremental
/// serve database, which computes predictions once per update and then
/// solves only the functions whose fingerprints changed.
pub fn estimate_function_with(
    program: &Program,
    f: FuncId,
    which: IntraEstimator,
    predictions: &HashMap<BranchId, Prediction>,
    options: &IntraOptions,
) -> Vec<f64> {
    estimate_with(program, f, which, predictions, options)
}

fn estimate_with_trips(
    program: &Program,
    f: FuncId,
    which: IntraEstimator,
    predictions: &HashMap<BranchId, Prediction>,
    options: &IntraOptions,
    trips: &HashMap<BranchId, f64>,
) -> Vec<f64> {
    match which {
        IntraEstimator::Loop => ast_walk_blocks(program, f, predictions, false, options, trips),
        IntraEstimator::Smart => ast_walk_blocks(program, f, predictions, true, options, trips),
        IntraEstimator::Markov => markov_blocks_with(program, f, predictions, trips),
    }
}

// ----- AST-based estimators -----

/// Per-node frequencies from the top-down AST walk of Figure 3.
pub fn ast_frequencies(
    program: &Program,
    f: FuncId,
    predictions: &HashMap<BranchId, Prediction>,
    smart: bool,
) -> HashMap<NodeId, f64> {
    ast_frequencies_with(program, f, predictions, smart, &IntraOptions::default())
}

/// [`ast_frequencies`] with explicit [`IntraOptions`].
pub fn ast_frequencies_with(
    program: &Program,
    f: FuncId,
    predictions: &HashMap<BranchId, Prediction>,
    smart: bool,
    options: &IntraOptions,
) -> HashMap<NodeId, f64> {
    ast_frequencies_trips(program, f, predictions, smart, options, &HashMap::new())
}

fn ast_frequencies_trips(
    program: &Program,
    f: FuncId,
    predictions: &HashMap<BranchId, Prediction>,
    smart: bool,
    options: &IntraOptions,
    trips: &HashMap<BranchId, f64>,
) -> HashMap<NodeId, f64> {
    let module = &program.module;
    let func = module.function(f);
    let body = func.body.as_ref().expect("defined function");
    let mut freqs = HashMap::new();
    let walker = AstWalker {
        module,
        predictions,
        smart,
        test_count: options.loop_count,
        body_count: (options.loop_count - 1.0).max(0.0),
        trips,
    };
    walker.walk(body, 1.0, &mut freqs);
    freqs
}

struct AstWalker<'m> {
    module: &'m minic::Module,
    predictions: &'m HashMap<BranchId, Prediction>,
    smart: bool,
    test_count: f64,
    body_count: f64,
    trips: &'m HashMap<BranchId, f64>,
}

impl AstWalker<'_> {
    /// The probability that the branch owned by `owner` is taken.
    fn prob(&self, owner: NodeId) -> f64 {
        if !self.smart {
            return 0.5;
        }
        self.module
            .side
            .branch(owner)
            .and_then(|b| self.predictions.get(&b))
            .map(|p| p.prob_taken())
            .unwrap_or(0.5)
    }

    /// The (test, body) execution counts for the loop owned by `owner`.
    fn loop_counts(&self, owner: NodeId) -> (f64, f64) {
        if let Some(bid) = self.module.side.branch(owner) {
            if let Some(&trip) = self.trips.get(&bid) {
                return (trip + 1.0, trip);
            }
        }
        (self.test_count, self.body_count)
    }

    fn walk(&self, s: &Stmt, f: f64, out: &mut HashMap<NodeId, f64>) {
        out.insert(s.id, f);
        match &s.kind {
            StmtKind::Block(stmts) => {
                // The AST model ignores early exits: every statement in
                // a sequence runs as often as the sequence.
                for st in stmts {
                    self.walk(st, f, out);
                }
            }
            StmtKind::If(cond, then_s, else_s) => {
                out.insert(cond.id, f);
                let p = self.prob(s.id);
                self.walk(then_s, f * p, out);
                if let Some(e) = else_s {
                    self.walk(e, f * (1.0 - p), out);
                }
            }
            StmtKind::While(cond, body) => {
                let (test, bodyc) = self.loop_counts(s.id);
                out.insert(cond.id, f * test);
                self.walk(body, f * bodyc, out);
            }
            StmtKind::DoWhile(body, cond) => {
                let (test, _) = self.loop_counts(s.id);
                self.walk(body, f * test, out);
                out.insert(cond.id, f * test);
            }
            StmtKind::For(init, cond, step, body) => {
                let (test, bodyc) = self.loop_counts(s.id);
                if let Some(i) = init {
                    self.walk(i, f, out);
                }
                if let Some(c) = cond {
                    out.insert(c.id, f * test);
                }
                if let Some(st) = step {
                    out.insert(st.id, f * bodyc);
                }
                self.walk(body, f * bodyc, out);
            }
            StmtKind::Switch(scrut, sections) => {
                out.insert(scrut.id, f);
                let Some(sw) = self.module.side.switch(s.id) else {
                    return;
                };
                let weights = self.switch_weights(sw, sections.len());
                for (sec, w) in sections.iter().zip(weights) {
                    for st in &sec.body {
                        self.walk(st, f * w, out);
                    }
                }
            }
            StmtKind::Label(_, inner) => self.walk(inner, f, out),
            StmtKind::Expr(_)
            | StmtKind::Decl(_)
            | StmtKind::Break
            | StmtKind::Continue
            | StmtKind::Return(_)
            | StmtKind::Goto(_)
            | StmtKind::Empty => {}
        }
    }

    /// Per-section probabilities for a `switch`. *Smart* weights arms
    /// by the number of case labels on them (the variant the paper
    /// found slightly better); *loop* guesses each arm equally likely.
    fn switch_weights(&self, sw: SwitchId, n_sections: usize) -> Vec<f64> {
        let info = &self.module.side.switches[sw.0 as usize];
        if !self.smart {
            return vec![1.0 / n_sections.max(1) as f64; n_sections];
        }
        let total: usize = info.section_labels.iter().sum();
        let total = total.max(1) as f64;
        info.section_labels
            .iter()
            .map(|&c| c as f64 / total)
            .collect()
    }
}

/// Maps AST-walk frequencies onto CFG blocks via block anchors, filling
/// unanchored synthetic blocks from their predecessors.
fn ast_walk_blocks(
    program: &Program,
    f: FuncId,
    predictions: &HashMap<BranchId, Prediction>,
    smart: bool,
    options: &IntraOptions,
    trips: &HashMap<BranchId, f64>,
) -> Vec<f64> {
    let freqs = ast_frequencies_trips(program, f, predictions, smart, options, trips);
    let cfg = program.cfg(f);
    let mut out: Vec<Option<f64>> = cfg
        .blocks
        .iter()
        .map(|b| b.anchor.and_then(|a| freqs.get(&a).copied()))
        .collect();
    out[cfg.entry.0 as usize].get_or_insert(1.0);
    if out.iter().all(Option::is_some) {
        return out.into_iter().flatten().collect();
    }
    // Propagate to unanchored blocks: take the max anchored
    // predecessor estimate, iterating in reverse post-order.
    let rpo = cfg.reverse_post_order();
    let preds = cfg.predecessors();
    for _ in 0..cfg.len() {
        let mut changed = false;
        for &b in &rpo {
            if out[b.0 as usize].is_some() {
                continue;
            }
            let best = preds[b.0 as usize]
                .iter()
                .filter_map(|p| out[p.0 as usize])
                .fold(None, |acc: Option<f64>, v| {
                    Some(acc.map_or(v, |a| a.max(v)))
                });
            if let Some(v) = best {
                out[b.0 as usize] = Some(v);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    out.into_iter().map(|v| v.unwrap_or(1.0)).collect()
}

// ----- Markov estimator -----

/// The arc probabilities the Markov model assigns to a block's
/// out-edges, built from the smart predictions (§5.1): the arcs of
/// [`for_each_arc`], listed per source block.
pub fn edge_probabilities(
    program: &Program,
    cfg: &Cfg,
    predictions: &HashMap<BranchId, Prediction>,
) -> Vec<Vec<(BlockId, f64)>> {
    let mut out = vec![Vec::new(); cfg.len()];
    for_each_arc(program, cfg, predictions, |src, dst, p| {
        out[src.0 as usize].push((dst, p));
    });
    out
}

/// Calls `arc(src, dst, probability)` for every out-edge of every
/// block, in block order. A branch's arcs come then-first; a switch's
/// come in target order, each weighted by the number of case labels
/// routing to it, the default target getting the default section's
/// share (or one share if there is no default section). The order is
/// fixed because arc insertion order reaches the sparse solver's float
/// accumulation.
pub fn for_each_arc(
    program: &Program,
    cfg: &Cfg,
    predictions: &HashMap<BranchId, Prediction>,
    mut arc: impl FnMut(BlockId, BlockId, f64),
) {
    for b in &cfg.blocks {
        match &b.term {
            Terminator::Goto(t) => arc(b.id, *t, 1.0),
            Terminator::Branch {
                branch,
                then_blk,
                else_blk,
                ..
            } => {
                let p = branch
                    .and_then(|id| predictions.get(&id))
                    .map(|p| p.prob_taken())
                    .unwrap_or(0.5);
                if then_blk == else_blk {
                    arc(b.id, *then_blk, 1.0);
                } else {
                    arc(b.id, *then_blk, p);
                    arc(b.id, *else_blk, 1.0 - p);
                }
            }
            Terminator::Switch {
                switch,
                cases,
                default,
                targets,
                ..
            } => {
                let info = &program.module.side.switches[switch.0 as usize];
                let total: usize = info.section_labels.iter().sum::<usize>().max(1);
                // One share per case label; every weight is a whole
                // number, so these sums are exact in any order.
                let mut weight = vec![0.0; targets.len()];
                for (_, t) in cases {
                    let i = targets
                        .binary_search(t)
                        .expect("case targets are successors");
                    weight[i] += 1.0;
                }
                let assigned = cases.len() as f64;
                let rest = (total as f64 - assigned).max(if info.has_default { 1.0 } else { 0.0 });
                let default_share = rest.max(if assigned == 0.0 { 1.0 } else { 0.0 });
                let i = targets
                    .binary_search(default)
                    .expect("the default is a successor");
                weight[i] += default_share;
                let sum = (assigned + default_share).max(1.0);
                for (&t, w) in targets.iter().zip(weight) {
                    arc(b.id, t, w / sum);
                }
            }
            Terminator::Return(_) => {}
        }
    }
}

fn markov_blocks_with(
    program: &Program,
    f: FuncId,
    predictions: &HashMap<BranchId, Prediction>,
    trips: &HashMap<BranchId, f64>,
) -> Vec<f64> {
    let cfg = program.cfg(f);
    // Trip-count refinement: a loop that runs t times has back-edge
    // probability t/(t+1). Without trip counts the module's map is
    // used as it is.
    let mut predictions = Cow::Borrowed(predictions);
    for (bid, &trip) in trips {
        if let Some(p) = predictions.to_mut().get_mut(bid) {
            if p.taken {
                p.prob_taken = trip / (trip + 1.0);
            }
        }
    }
    let mut sys = FlowSystem::new(cfg.len());
    sys.inject(cfg.entry.0 as usize, 1.0);
    for_each_arc(program, cfg, &predictions, |src, dst, p| {
        sys.add_arc(src.0 as usize, dst.0 as usize, p);
    });
    match sys.solve() {
        Ok(x) => x.into_iter().map(|v| v.max(0.0)).collect(),
        // Malformed systems should not happen; fall back to uniform.
        Err(_) => vec![1.0; cfg.len()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(src: &str) -> Program {
        let module = minic::compile(src).expect("valid MiniC");
        flowgraph::build_program(module)
    }

    const STRCHR: &str = r#"
        char *strchr(char *str, int c) {
            while (*str) {
                if (*str == c) return str;
                str++;
            }
            return 0;
        }
    "#;

    /// Block estimate lookup by anchor-ish position: we identify blocks
    /// by their profiled role instead, via sorted values.
    fn sorted(mut v: Vec<f64>) -> Vec<f64> {
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    #[test]
    fn smart_strchr_matches_figure3() {
        // Figure 3: while test 5; the loop body (the if test) and its
        // sibling `str++` run 4; `return str` is the predicted-false
        // arm, 4 × 0.2 = 0.8; the trailing return runs once (the AST
        // model ignores the early return).
        let p = program(STRCHR);
        let f = p.function_id("strchr").unwrap();
        let est = estimate_function(&p, f, IntraEstimator::Smart);
        let s = sorted(est);
        let expect = [0.8, 1.0, 4.0, 4.0, 5.0];
        for (a, b) in s.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-9, "got {s:?}");
        }
    }

    #[test]
    fn loop_strchr_splits_branches_evenly() {
        let p = program(STRCHR);
        let f = p.function_id("strchr").unwrap();
        let est = estimate_function(&p, f, IntraEstimator::Loop);
        let s = sorted(est);
        // while 5, body + incr 4 each, return1 = 4 × 0.5 = 2,
        // trailing return 1.
        let expect = [1.0, 2.0, 4.0, 4.0, 5.0];
        for (a, b) in s.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-9, "got {s:?}");
        }
    }

    #[test]
    fn markov_strchr_matches_figure7() {
        // Figure 7: entry=1, while=2.78, if=2.22, return1=0.44,
        // incr=1.78, return2=0.56. Our CFG has no separate entry block
        // (entry == the while header), so the header absorbs the
        // injection: same solution, while=2.78 etc.
        let p = program(STRCHR);
        let f = p.function_id("strchr").unwrap();
        let est = estimate_function(&p, f, IntraEstimator::Markov);
        let s = sorted(est);
        let expect = [0.4444, 0.5556, 1.7778, 2.2222, 2.7778];
        for (a, b) in s.iter().zip(expect.iter()) {
            assert!((a - b).abs() < 1e-3, "got {s:?}");
        }
    }

    #[test]
    fn markov_reflects_early_returns_ast_does_not() {
        // The paper's point in §5.1: the return inside the loop reduces
        // the Markov test count to 2.78, while the AST model says 5.
        let p = program(STRCHR);
        let f = p.function_id("strchr").unwrap();
        let smart = estimate_function(&p, f, IntraEstimator::Smart);
        let markov = estimate_function(&p, f, IntraEstimator::Markov);
        assert!((smart.iter().cloned().fold(0.0, f64::max) - 5.0).abs() < 1e-9);
        assert!((markov.iter().cloned().fold(0.0, f64::max) - 2.7778).abs() < 1e-3);
    }

    #[test]
    fn nested_loops_multiply() {
        let p = program(
            r#"
            int f(int n) {
                int i, j, s = 0;
                for (i = 0; i < n; i++)
                    for (j = 0; j < n; j++)
                        s++;
                return s;
            }
            "#,
        );
        let f = p.function_id("f").unwrap();
        let est = estimate_function(&p, f, IntraEstimator::Loop);
        // Inner body should be 16 (4 × 4); inner test 20 (4 × 5).
        let max = est.iter().cloned().fold(0.0, f64::max);
        assert!((max - 20.0).abs() < 1e-9, "est {est:?}");
        assert!(est.iter().any(|v| (*v - 16.0).abs() < 1e-9), "est {est:?}");
    }

    #[test]
    fn switch_weights_by_labels_in_smart() {
        let p = program(
            r#"
            int f(int n) {
                int r = 0;
                switch (n) {
                    case 1: case 2: case 3: r = 1; break;
                    case 4: r = 2; break;
                }
                return r;
            }
            "#,
        );
        let f = p.function_id("f").unwrap();
        let smart = estimate_function(&p, f, IntraEstimator::Smart);
        let looped = estimate_function(&p, f, IntraEstimator::Loop);
        // Smart: section with 3 labels gets 0.75; loop: 0.5 each.
        assert!(smart.iter().any(|v| (*v - 0.75).abs() < 1e-9), "{smart:?}");
        assert!(looped.iter().any(|v| (*v - 0.5).abs() < 1e-9), "{looped:?}");
    }

    #[test]
    fn estimates_align_with_cfg_len() {
        let p = program(STRCHR);
        let f = p.function_id("strchr").unwrap();
        for which in [
            IntraEstimator::Loop,
            IntraEstimator::Smart,
            IntraEstimator::Markov,
        ] {
            assert_eq!(estimate_function(&p, f, which).len(), p.cfg(f).len());
        }
    }

    #[test]
    fn estimate_program_covers_all_defined_functions() {
        let p = program(
            r#"
            int a(void) { return 1; }
            int b(void);
            int main(void) { return a(); }
            "#,
        );
        let est = estimate_program(&p, IntraEstimator::Smart);
        assert_eq!(est.block_freqs.len(), 3);
        assert!(!est.blocks_of(p.function_id("a").unwrap()).is_empty());
        assert!(est.blocks_of(p.function_id("b").unwrap()).is_empty());
    }

    #[test]
    fn do_while_body_runs_five_times() {
        let p = program("int f(int n) { int s = 0; do { s++; } while (s < n); return s; }");
        let f = p.function_id("f").unwrap();
        let est = estimate_function(&p, f, IntraEstimator::Loop);
        assert!(est.iter().any(|v| (*v - 5.0).abs() < 1e-9), "{est:?}");
    }
}
