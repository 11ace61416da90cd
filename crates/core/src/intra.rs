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
//! conditions / `for` steps) in one dense column per function (see
//! [`AstFrequencies`]); those map onto CFG blocks through each block's
//! `anchor`.

use crate::branch::{predict_module, predict_module_with, Predictions, PredictorConfig};
use crate::tripcount::TripCounts;
use flowgraph::cfg::BlockLists;
use flowgraph::{BlockId, Cfg, Program, Terminator};
use linsolve::solve_sparse;
use minic::ast::{NodeId, Stmt, StmtKind};
use minic::sema::{BranchId, FuncId, Module};
use std::sync::Arc;

/// The paper's loop-count assumption: every loop iterates five times,
/// so a pre-tested loop's condition runs 5× and its body 4× per entry
/// (Figure 3).
pub const LOOP_TEST_COUNT: f64 = 5.0;

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
/// miss-rate analyses; the estimates of one program share one table).
#[derive(Debug, Clone)]
pub struct IntraEstimates {
    /// Which estimator produced this.
    pub estimator: IntraEstimator,
    /// Per-function block frequencies, normalized to one function entry.
    /// Indexed by `FuncId`; empty for prototypes.
    pub block_freqs: Vec<Vec<f64>>,
    /// The branch predictions used.
    pub predictions: Arc<Predictions>,
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
        TripCounts::default()
    };
    let mut scratch = Scratch::default();
    let block_freqs = program
        .module
        .functions
        .iter()
        .map(|f| {
            if f.is_defined() {
                let cfg = program.cfg(f.id);
                let fe = FnEstimator::new(&program.module, cfg, &predictions, options, &trips);
                fe.estimate(which, &mut scratch)
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

/// All three estimators over every defined function with the default
/// options and caller-supplied predictions: the intra half of
/// [`crate::estimate_all`]. Function by function, so loop and smart
/// share the walk's scratch column and the CFG order work.
pub(crate) fn estimate_all_three(
    program: &Program,
    predictions: &Arc<Predictions>,
) -> [IntraEstimates; 3] {
    let _sp = obs::span("estimate.intra");
    let n = program.module.functions.len();
    let mut block_freqs: [Vec<Vec<f64>>; 3] = std::array::from_fn(|_| Vec::with_capacity(n));
    let mut scratch = Scratch::default();
    for f in &program.module.functions {
        let three = match program.cfg_opt(f.id) {
            Some(cfg) => all_three(&program.module, cfg, predictions, &mut scratch),
            None => Default::default(),
        };
        for (column, freqs) in block_freqs.iter_mut().zip(three) {
            column.push(freqs);
        }
    }
    let [l, s, m] = block_freqs;
    [
        (IntraEstimator::Loop, l),
        (IntraEstimator::Smart, s),
        (IntraEstimator::Markov, m),
    ]
    .map(|(estimator, block_freqs)| IntraEstimates {
        estimator,
        block_freqs,
        predictions: Arc::clone(predictions),
    })
}

/// The three estimators' block frequencies (in [`IntraEstimator::ALL`]
/// order) for the function `cfg` lowers, with the default options and
/// caller-supplied module predictions: one step of
/// [`crate::estimate_all`], and the unit of recomputation of the
/// incremental serve database, which solves each function whose
/// fingerprint changed as soon as it has its CFG.
pub fn estimate_function_all_three(
    module: &Module,
    cfg: &Cfg,
    predictions: &Predictions,
) -> [Vec<f64>; 3] {
    all_three(module, cfg, predictions, &mut Scratch::default())
}

/// [`estimate_function_all_three`] in caller-kept scratch buffers.
fn all_three(
    module: &Module,
    cfg: &Cfg,
    predictions: &Predictions,
    scratch: &mut Scratch,
) -> [Vec<f64>; 3] {
    let options = IntraOptions::default();
    let trips = TripCounts::default();
    let fe = FnEstimator::new(module, cfg, predictions, &options, &trips);
    IntraEstimator::ALL.map(|which| fe.estimate(which, scratch))
}

/// Estimates block frequencies for one function (entry normalized to 1).
pub fn estimate_function(program: &Program, f: FuncId, which: IntraEstimator) -> Vec<f64> {
    let predictions = predict_module(&program.module);
    let (options, trips) = (IntraOptions::default(), TripCounts::default());
    let fe = FnEstimator::new(
        &program.module,
        program.cfg(f),
        &predictions,
        &options,
        &trips,
    );
    fe.estimate(which, &mut Scratch::default())
}

/// Buffers and CFG order work one function's estimators share, kept
/// from one function to the next.
#[derive(Default)]
struct Scratch {
    /// The AST walk's frequency column (see [`AstFrequencies`]).
    column: Vec<Option<f64>>,
    /// A function's reverse post-order and predecessor lists, once an
    /// AST walk over it has needed them.
    order: Option<(FuncId, Vec<BlockId>, BlockLists)>,
    /// The Markov system's arcs and injection.
    arcs: Vec<(usize, usize, f64)>,
    inject: Vec<f64>,
}

/// One defined function (the one `cfg` lowers) and everything its
/// estimators read.
struct FnEstimator<'a> {
    module: &'a Module,
    cfg: &'a Cfg,
    predictions: &'a Predictions,
    options: &'a IntraOptions,
    trips: &'a TripCounts,
}

impl<'a> FnEstimator<'a> {
    fn new(
        module: &'a Module,
        cfg: &'a Cfg,
        predictions: &'a Predictions,
        options: &'a IntraOptions,
        trips: &'a TripCounts,
    ) -> Self {
        FnEstimator {
            module,
            cfg,
            predictions,
            options,
            trips,
        }
    }

    fn estimate(&self, which: IntraEstimator, scratch: &mut Scratch) -> Vec<f64> {
        match which {
            IntraEstimator::Loop => self.ast_walk_blocks(false, scratch),
            IntraEstimator::Smart => self.ast_walk_blocks(true, scratch),
            IntraEstimator::Markov => self.markov_blocks(scratch),
        }
    }

    /// Runs the AST walk of Figure 3 into `column`.
    fn walk(&self, smart: bool, column: &mut Vec<Option<f64>>) -> NodeId {
        let body = self
            .module
            .function(self.cfg.func)
            .body
            .as_ref()
            .expect("defined function");
        column.clear();
        let walker = AstWalker {
            module: self.module,
            predictions: self.predictions,
            smart,
            test_count: self.options.loop_count,
            body_count: (self.options.loop_count - 1.0).max(0.0),
            trips: self.trips,
            body: body.id,
        };
        walker.walk(body, 1.0, column);
        body.id
    }

    /// Maps AST-walk frequencies onto CFG blocks via block anchors,
    /// filling unanchored synthetic blocks from their predecessors.
    fn ast_walk_blocks(&self, smart: bool, scratch: &mut Scratch) -> Vec<f64> {
        let body = self.walk(smart, &mut scratch.column);
        let column = &scratch.column;
        let cfg = self.cfg;
        let anchored =
            |b: &flowgraph::Block| match b.anchor.and_then(|a| column_get(body, column, a)) {
                None if b.id == cfg.entry => Some(1.0),
                v => v,
            };
        if cfg.blocks.iter().all(|b| anchored(b).is_some()) {
            return cfg.blocks.iter().filter_map(anchored).collect();
        }
        let mut out: Vec<Option<f64>> = cfg.blocks.iter().map(anchored).collect();
        // Propagate to unanchored blocks: take the max anchored
        // predecessor estimate, iterating in reverse post-order.
        if !matches!(scratch.order, Some((f, ..)) if f == cfg.func) {
            scratch.order = Some((cfg.func, cfg.reverse_post_order(), cfg.predecessors()));
        }
        let (_, rpo, preds) = scratch.order.as_ref().expect("just filled");
        for _ in 0..cfg.len() {
            let mut changed = false;
            for &b in rpo.iter() {
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

    fn markov_blocks(&self, scratch: &mut Scratch) -> Vec<f64> {
        let cfg = self.cfg;
        let n = cfg.len();
        // The system `FlowSystem` would build, in buffers kept from one
        // function to the next: one unit injected at the entry, the
        // arcs in `for_each_arc` order.
        let (arcs, inject) = (&mut scratch.arcs, &mut scratch.inject);
        arcs.clear();
        inject.clear();
        inject.resize(n, 0.0);
        inject[cfg.entry.0 as usize] = 1.0;
        // Trip-count refinement: a loop predicted to iterate that runs
        // t times has back-edge probability t/(t+1).
        let prob = |b: BranchId| match (self.predictions.get(b), self.trips.get(b)) {
            (Some(p), Some(trip)) if p.taken => trip / (trip + 1.0),
            _ => self.predictions.prob_taken(b),
        };
        arcs_with(self.module, cfg, prob, |src, dst, p| {
            arcs.push((src.0 as usize, dst.0 as usize, p));
        });
        match solve_sparse(n, arcs, inject) {
            Ok(x) => x.into_iter().map(|v| v.max(0.0)).collect(),
            // Malformed systems should not happen; fall back to uniform.
            Err(_) => vec![1.0; n],
        }
    }
}

// ----- AST-based estimators -----

/// Per-node frequencies from the top-down AST walk of Figure 3, for
/// one function: a dense column over the function body's node ids.
/// The parser numbers nodes post-order, so a body's nodes are exactly
/// the ids just below the body's own; entry `i` of the column is node
/// `body - i`, whatever id namespaces the body spans.
#[derive(Debug, Clone, PartialEq)]
pub struct AstFrequencies {
    body: NodeId,
    column: Vec<Option<f64>>,
}

impl AstFrequencies {
    /// The frequency of one statement or condition node, if the walk
    /// assigned one.
    pub fn get(&self, id: NodeId) -> Option<f64> {
        column_get(self.body, &self.column, id)
    }

    /// Every assigned frequency, in node-id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let body = self.body.0;
        self.column
            .iter()
            .enumerate()
            .rev()
            .filter_map(move |(i, v)| Some((NodeId(body - i as u32), (*v)?)))
    }
}

/// Node `id`'s entry in the frequency column of the body `body`.
fn column_get(body: NodeId, column: &[Option<f64>], id: NodeId) -> Option<f64> {
    let i = body.0.checked_sub(id.0)?;
    *column.get(i as usize)?
}

/// Per-node frequencies from the top-down AST walk of Figure 3.
pub fn ast_frequencies(
    program: &Program,
    f: FuncId,
    predictions: &Predictions,
    smart: bool,
) -> AstFrequencies {
    ast_frequencies_with(program, f, predictions, smart, &IntraOptions::default())
}

/// [`ast_frequencies`] with explicit [`IntraOptions`].
pub fn ast_frequencies_with(
    program: &Program,
    f: FuncId,
    predictions: &Predictions,
    smart: bool,
    options: &IntraOptions,
) -> AstFrequencies {
    let trips = TripCounts::default();
    let mut column = Vec::new();
    let body = FnEstimator::new(
        &program.module,
        program.cfg(f),
        predictions,
        options,
        &trips,
    )
    .walk(smart, &mut column);
    AstFrequencies { body, column }
}

struct AstWalker<'m> {
    module: &'m minic::Module,
    predictions: &'m Predictions,
    smart: bool,
    test_count: f64,
    body_count: f64,
    trips: &'m TripCounts,
    /// The function body's id: the column's entry 0.
    body: NodeId,
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
            .map_or(0.5, |b| self.predictions.prob_taken(b))
    }

    /// The (test, body) execution counts for the loop owned by `owner`.
    fn loop_counts(&self, owner: NodeId) -> (f64, f64) {
        if let Some(trip) = self
            .module
            .side
            .branch(owner)
            .and_then(|b| self.trips.get(b))
        {
            return (trip + 1.0, trip);
        }
        (self.test_count, self.body_count)
    }

    fn record(&self, id: NodeId, f: f64, out: &mut Vec<Option<f64>>) {
        let i = (self.body.0 - id.0) as usize;
        if i >= out.len() {
            out.resize(i + 1, None);
        }
        out[i] = Some(f);
    }

    fn walk(&self, s: &Stmt, f: f64, out: &mut Vec<Option<f64>>) {
        self.record(s.id, f, out);
        match &s.kind {
            StmtKind::Block(stmts) => {
                // The AST model ignores early exits: every statement in
                // a sequence runs as often as the sequence.
                for st in stmts {
                    self.walk(st, f, out);
                }
            }
            StmtKind::If(cond, then_s, else_s) => {
                self.record(cond.id, f, out);
                let p = self.prob(s.id);
                self.walk(then_s, f * p, out);
                if let Some(e) = else_s {
                    self.walk(e, f * (1.0 - p), out);
                }
            }
            StmtKind::While(cond, body) => {
                let (test, bodyc) = self.loop_counts(s.id);
                self.record(cond.id, f * test, out);
                self.walk(body, f * bodyc, out);
            }
            StmtKind::DoWhile(body, cond) => {
                let (test, _) = self.loop_counts(s.id);
                self.walk(body, f * test, out);
                self.record(cond.id, f * test, out);
            }
            StmtKind::For(init, cond, step, body) => {
                let (test, bodyc) = self.loop_counts(s.id);
                if let Some(i) = init {
                    self.walk(i, f, out);
                }
                if let Some(c) = cond {
                    self.record(c.id, f * test, out);
                }
                if let Some(st) = step {
                    self.record(st.id, f * bodyc, out);
                }
                self.walk(body, f * bodyc, out);
            }
            StmtKind::Switch(scrut, sections) => {
                self.record(scrut.id, f, out);
                let Some(sw) = self.module.side.switch(s.id) else {
                    return;
                };
                // *Smart* weights arms by the number of case labels on
                // them (the variant the paper found slightly better);
                // *loop* guesses each arm equally likely.
                let labels = &self.module.side.switches[sw.0 as usize].section_labels;
                let total = labels.iter().sum::<usize>().max(1) as f64;
                for (i, sec) in sections.iter().enumerate() {
                    let w = if self.smart {
                        let Some(&c) = labels.get(i) else { break };
                        c as f64 / total
                    } else {
                        1.0 / sections.len() as f64
                    };
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
}

// ----- Markov estimator -----

/// The probability the Markov model assigns to each CFG edge, built
/// from the smart predictions (§5.1): a dense column by edge id
/// ([`Cfg::edges`]), the probabilities of [`for_each_arc`].
pub fn edge_probabilities(program: &Program, cfg: &Cfg, predictions: &Predictions) -> Vec<f64> {
    let mut out = Vec::new();
    for_each_arc(program, cfg, predictions, |_, _, p| out.push(p));
    out
}

/// Calls `arc(src, dst, probability)` for every out-edge of every
/// block, in edge-id order ([`Cfg::edges`]). A branch's arcs come
/// then-first; a switch's come in target order, each weighted by the
/// number of case labels routing to it, the default target getting
/// the default section's share (or one share if there is no default
/// section). The order is fixed because arc insertion order reaches
/// the sparse solver's float accumulation.
pub fn for_each_arc(
    program: &Program,
    cfg: &Cfg,
    predictions: &Predictions,
    arc: impl FnMut(BlockId, BlockId, f64),
) {
    arcs_with(&program.module, cfg, |b| predictions.prob_taken(b), arc);
}

/// [`for_each_arc`] with the probability of each branch's true edge
/// given by `prob`.
fn arcs_with(
    module: &Module,
    cfg: &Cfg,
    prob: impl Fn(BranchId) -> f64,
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
                let p = branch.map_or(0.5, &prob);
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
                let info = &module.side.switches[switch.0 as usize];
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
