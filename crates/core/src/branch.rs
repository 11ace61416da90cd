//! The "smart" static branch predictor (§4.1).
//!
//! The paper designed an AST-level analogue of Ball & Larus's
//! executable-level idiom matcher, using "AST structure, type
//! information, and dataflow information in the compiler". The
//! heuristics, in the priority order applied here:
//!
//! 1. **Constant** — a condition sema folded to a constant predicts its
//!    own value (such branches are excluded from miss-rate scoring).
//! 2. **Loop** — loop conditions are predicted true (loops iterate).
//! 3. **Pointer** — "Pointers are unlikely to be NULL": a pointer
//!    tested for NULL-ness predicts non-NULL; pointer equality is
//!    unlikely.
//! 4. **Error call** — "Errors (calling abort or exit) are unlikely":
//!    an arm that reaches `abort`/`exit` is the unlikely arm.
//! 5. **Store-use** — "When one arm of a conditional construct writes
//!    to variables read elsewhere, that arm is more likely."
//! 6. **AND chain** — "Multiple logical ANDs make a condition less
//!    likely."
//! 7. **Opcode** — integer equality is unlikely true; comparisons
//!    against zero/negative bounds skew false.
//! 8. **Default** — an unpredicted `if` falls through (condition
//!    false); this carries no 0.8 confidence in the frequency models.

use minic::ast::{BinOp, Expr, ExprKind, Initializer, Stmt, StmtKind, UnOp};
use minic::sema::{Branch, BranchId, CalleeKind, FuncId, Module, Resolution};

/// Which heuristic produced a prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Constant-folded condition.
    Constant,
    /// Loop conditions predict taken.
    Loop,
    /// Pointer NULL / equality tests.
    Pointer,
    /// Arm calls `abort`/`exit`.
    ErrorCall,
    /// Arm stores to variables read elsewhere.
    StoreUse,
    /// `a && b && …` is unlikely.
    AndChain,
    /// Comparison-shape default (`==` false, `< 0` false, …).
    Opcode,
    /// No signal; fall-through assumed.
    Default,
}

/// A static prediction for one branch site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Predicted direction: `true` = condition holds.
    pub taken: bool,
    /// The deciding heuristic.
    pub heuristic: Heuristic,
    /// The probability the frequency models assign to the *true* edge.
    /// Under the paper's scheme this is 0.8/0.2 for confident
    /// predictions (footnote 5), 0.5 for [`Heuristic::Default`], and
    /// 1/0 for constants; a [`PredictorConfig`] can change it.
    pub prob_taken: f64,
}

impl Prediction {
    /// The probability of the true edge (field accessor kept as a
    /// method for backwards compatibility with earlier revisions).
    pub fn prob_taken(&self) -> f64 {
        self.prob_taken
    }
}

/// Configuration of the predictor, for ablation studies and for the
/// paper's §5.1 open question ("a static predictor that generates
/// probabilities directly, rather than a true/false guess").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorConfig {
    /// Enable the pointer heuristic.
    pub pointer: bool,
    /// Enable the error-call heuristic.
    pub error_call: bool,
    /// Enable the store-use heuristic.
    pub store_use: bool,
    /// Enable the AND-chain heuristic.
    pub and_chain: bool,
    /// Enable the opcode heuristic.
    pub opcode: bool,
    /// Probability of the predicted arm (the paper's 0.8).
    pub confidence: f64,
    /// Use per-heuristic probabilities instead of the flat
    /// `confidence` — the paper's suggested refinement. The values are
    /// rough hit-rate guesses: Loop 0.88, Pointer 0.85, ErrorCall
    /// 0.95, StoreUse 0.65, AndChain 0.75, Opcode 0.7.
    pub calibrated: bool,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            pointer: true,
            error_call: true,
            store_use: true,
            and_chain: true,
            opcode: true,
            confidence: 0.8,
            calibrated: false,
        }
    }
}

impl PredictorConfig {
    /// The default config with one heuristic disabled (for ablation).
    ///
    /// # Panics
    ///
    /// Panics for [`Heuristic::Constant`], [`Heuristic::Loop`], and
    /// [`Heuristic::Default`], which cannot be disabled.
    pub fn without(h: Heuristic) -> Self {
        let mut c = PredictorConfig::default();
        match h {
            Heuristic::Pointer => c.pointer = false,
            Heuristic::ErrorCall => c.error_call = false,
            Heuristic::StoreUse => c.store_use = false,
            Heuristic::AndChain => c.and_chain = false,
            Heuristic::Opcode => c.opcode = false,
            other => panic!("{other:?} cannot be ablated"),
        }
        c
    }

    /// The default config with every optional heuristic disabled
    /// (loops and constants only — the *loop* estimator's view).
    pub fn bare() -> Self {
        PredictorConfig {
            pointer: false,
            error_call: false,
            store_use: false,
            and_chain: false,
            opcode: false,
            ..PredictorConfig::default()
        }
    }

    /// The probability of the *predicted* arm under this config.
    fn arm_probability(&self, h: Heuristic) -> f64 {
        if !self.calibrated {
            return self.confidence;
        }
        match h {
            Heuristic::Loop => 0.88,
            Heuristic::Pointer => 0.85,
            Heuristic::ErrorCall => 0.95,
            Heuristic::StoreUse => 0.65,
            Heuristic::AndChain => 0.75,
            Heuristic::Opcode => 0.70,
            Heuristic::Constant | Heuristic::Default => self.confidence,
        }
    }

    /// Builds a [`Prediction`] with this config's probabilities.
    fn prediction(&self, taken: bool, heuristic: Heuristic) -> Prediction {
        let prob_taken = match heuristic {
            Heuristic::Constant => {
                if taken {
                    1.0
                } else {
                    0.0
                }
            }
            Heuristic::Default => 0.5,
            h => {
                let p = self.arm_probability(h);
                if taken {
                    p
                } else {
                    1.0 - p
                }
            }
        };
        Prediction {
            taken,
            heuristic,
            prob_taken,
        }
    }
}

/// Every branch prediction of one module, indexed by [`BranchId`],
/// together with the module's error functions (see
/// [`Predictions::error_functions`]) that the error-call heuristic
/// consulted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Predictions {
    /// One slot per registered branch; `None` for a branch outside
    /// every function body, which nothing predicts.
    by_branch: Vec<Option<Prediction>>,
    /// Error function flags, indexed by `FuncId`.
    error_fns: Vec<bool>,
}

impl Predictions {
    /// The prediction of branch `b`, if it has one.
    pub fn get(&self, b: BranchId) -> Option<&Prediction> {
        self.by_branch.get(b.0 as usize)?.as_ref()
    }

    /// The probability of `b`'s true edge; 0.5 for a branch without a
    /// prediction.
    pub fn prob_taken(&self, b: BranchId) -> f64 {
        self.get(b).map_or(0.5, |p| p.prob_taken)
    }

    /// Every prediction, in [`BranchId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchId, &Prediction)> {
        self.by_branch
            .iter()
            .enumerate()
            .filter_map(|(i, p)| Some((BranchId(i as u32), p.as_ref()?)))
    }

    /// The number of predicted branches.
    pub fn len(&self) -> usize {
        self.by_branch.iter().flatten().count()
    }

    /// Whether no branch is predicted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The error function flags, indexed by `FuncId`. Error functions
    /// never return normally: their bodies contain no `return`
    /// statement and reach `abort`/`exit` (directly or through another
    /// error function). Real C code wraps `exit` in `fatal()`-style
    /// helpers; the paper's error heuristic keys on the *intent*.
    pub fn error_functions(&self) -> &[bool] {
        &self.error_fns
    }
}

impl std::ops::Index<BranchId> for Predictions {
    type Output = Prediction;

    /// # Panics
    ///
    /// Panics if `b` has no prediction.
    fn index(&self, b: BranchId) -> &Prediction {
        self.get(b).expect("branch has a prediction")
    }
}

/// Predicts every registered branch in the module.
///
/// # Examples
///
/// ```
/// let module = minic::compile(r#"
///     int f(char *p) { if (p == 0) return -1; return *p; }
/// "#).unwrap();
/// let preds = estimators::branch::predict_module(&module);
/// let b = &module.side.branches[0];
/// let pred = preds[b.id];
/// assert!(!pred.taken, "p == 0 is predicted false");
/// ```
pub fn predict_module(module: &Module) -> Predictions {
    predict_module_with(module, &PredictorConfig::default())
}

/// [`predict_module`] with an explicit [`PredictorConfig`] — the entry
/// point for ablation studies and the calibrated-probability variant.
pub fn predict_module_with(module: &Module, config: &PredictorConfig) -> Predictions {
    let _sp = obs::span("estimate.branch");
    let facts = Facts::of(module);
    let error_fns = facts.error_functions(module);
    let ctx = Predictor {
        module,
        facts: &facts,
        error_fns: &error_fns,
        config,
    };
    let mut by_branch = vec![None; module.side.branches.len()];
    let mut reads = ReadCounts::new(facts.globals + facts.max_locals);
    for f in &facts.fns {
        let body = facts.slice(f.events);
        for site in &facts.sites[f.sites.clone()] {
            let branch = &module.side.branches[site.branch.0 as usize];
            by_branch[site.branch.0 as usize] = Some(ctx.predict(branch, site, body, &mut reads));
        }
        reads.forget(body);
    }
    Predictions {
        by_branch,
        error_fns,
    }
}

/// One entry of a function's event column: what one expression node
/// contributes to the heuristics' questions about an arm.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A read of a variable (dense index, see [`Walker::var`]).
    Read(u32),
    /// A store whose target is rooted at a variable.
    Write(u32),
    /// A direct call to a user function.
    Call(FuncId),
    /// A call to a noreturn builtin (`abort`, `exit`).
    Exit,
}

/// A `[start, end)` range of the event column.
#[derive(Debug, Clone, Copy)]
struct Arm {
    start: u32,
    end: u32,
}

/// What a branch site needs from the walk beyond its condition.
#[derive(Debug, Clone, Copy)]
enum SiteKind {
    /// A loop condition.
    Loop,
    /// An `if` and the event ranges of its arms.
    If { then: Arm, els: Option<Arm> },
    /// A `?:` and the event ranges of its arms.
    Ternary { then: Arm, els: Arm },
}

/// One predicted branch, as the walk found it.
#[derive(Debug, Clone, Copy)]
struct Site<'m> {
    branch: BranchId,
    cond: &'m Expr,
    kind: SiteKind,
}

/// One defined function's share of the columns.
#[derive(Debug, Clone)]
struct FnFacts {
    func: FuncId,
    events: Arm,
    sites: std::ops::Range<usize>,
    has_return: bool,
}

/// The walk-once record of a module: per defined function, in one
/// pre-order pass, every read, store and call that can matter as a flat
/// event column, and every branch site with the column ranges of its
/// arms. A statement's or expression's events are contiguous, so every
/// question the heuristics ask about an arm is a scan of one slice.
struct Facts<'m> {
    events: Vec<Event>,
    sites: Vec<Site<'m>>,
    fns: Vec<FnFacts>,
    /// Variables are numbered globals first, then the current
    /// function's locals.
    globals: usize,
    max_locals: usize,
}

impl<'m> Facts<'m> {
    fn of(module: &'m Module) -> Self {
        let mut w = Walker {
            module,
            globals: module.globals.len() as u32,
            // Each event comes from a distinct node, so the node count
            // bounds the column.
            events: Vec::with_capacity(module.side.index().len()),
            sites: Vec::with_capacity(module.side.branches.len()),
            has_return: false,
        };
        let mut fns = Vec::new();
        let mut max_locals = 0;
        for func in module.defined_functions() {
            let (events, sites) = (w.mark(), w.sites.len());
            w.has_return = false;
            w.stmt(func.body.as_ref().expect("defined"));
            fns.push(FnFacts {
                func: func.id,
                events: Arm {
                    start: events,
                    end: w.mark(),
                },
                sites: sites..w.sites.len(),
                has_return: w.has_return,
            });
            max_locals = max_locals.max(func.locals.len());
        }
        Facts {
            events: w.events,
            sites: w.sites,
            fns,
            globals: module.globals.len(),
            max_locals,
        }
    }

    fn slice(&self, arm: Arm) -> &[Event] {
        &self.events[arm.start as usize..arm.end as usize]
    }

    /// The error functions in one worklist pass: seed with the
    /// return-less functions that call a noreturn builtin, then mark
    /// every return-less direct caller of a marked function.
    fn error_functions(&self, module: &Module) -> Vec<bool> {
        let mut error_fns = vec![false; module.functions.len()];
        let candidates = || self.fns.iter().filter(|f| !f.has_return);
        let mut work: Vec<FuncId> = candidates()
            .filter(|f| {
                self.slice(f.events)
                    .iter()
                    .any(|e| matches!(e, Event::Exit))
            })
            .map(|f| f.func)
            .collect();
        if work.is_empty() {
            return error_fns;
        }
        for &f in &work {
            error_fns[f.0 as usize] = true;
        }
        // (callee, caller) for every direct call of a candidate, sorted
        // so a callee's callers are one run.
        let mut calls: Vec<(FuncId, FuncId)> = candidates()
            .flat_map(|f| {
                self.slice(f.events).iter().filter_map(move |e| match e {
                    Event::Call(g) => Some((*g, f.func)),
                    _ => None,
                })
            })
            .collect();
        calls.sort_unstable();
        while let Some(g) = work.pop() {
            let from = calls.partition_point(|&(callee, _)| callee < g);
            for &(callee, caller) in &calls[from..] {
                if callee != g {
                    break;
                }
                if !error_fns[caller.0 as usize] {
                    error_fns[caller.0 as usize] = true;
                    work.push(caller);
                }
            }
        }
        error_fns
    }
}

/// The pre-order walk behind [`Facts`]. It visits exactly the
/// expressions `Stmt::walk_exprs` visits.
struct Walker<'m> {
    module: &'m Module,
    globals: u32,
    events: Vec<Event>,
    sites: Vec<Site<'m>>,
    has_return: bool,
}

impl<'m> Walker<'m> {
    /// The variable a store through `e` lands in, or that an `Ident`
    /// reads: globals are numbered first, then the function's locals.
    /// Stores through pointers (`*p`, `p->f`) have unknown targets.
    fn var(&self, e: &Expr) -> Option<u32> {
        match &e.kind {
            ExprKind::Ident(_) => match self.module.side.resolution(e.id)? {
                Resolution::Local(l) => Some(self.globals + l.0),
                Resolution::Global(g) => Some(g.0),
                _ => None,
            },
            ExprKind::Index(b, _) | ExprKind::Member(b, _, false) => self.var(b),
            ExprKind::Cast(_, inner) => self.var(inner),
            _ => None,
        }
    }

    fn site(&mut self, owner: minic::ast::NodeId, cond: &'m Expr, kind: SiteKind) {
        if let Some(branch) = self.module.side.branch(owner) {
            self.sites.push(Site { branch, cond, kind });
        }
    }

    fn mark(&self) -> u32 {
        self.events.len() as u32
    }

    fn stmt_arm(&mut self, s: &'m Stmt) -> Arm {
        let start = self.mark();
        self.stmt(s);
        Arm {
            start,
            end: self.mark(),
        }
    }

    fn expr_arm(&mut self, e: &'m Expr) -> Arm {
        let start = self.mark();
        self.expr(e);
        Arm {
            start,
            end: self.mark(),
        }
    }

    fn stmt(&mut self, s: &'m Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::Decl(ds) => {
                for d in ds {
                    if let Some(init) = &d.init {
                        self.init(init);
                    }
                }
            }
            StmtKind::If(cond, then_s, else_s) => {
                self.expr(cond);
                let then = self.stmt_arm(then_s);
                let els = else_s.as_deref().map(|e| self.stmt_arm(e));
                self.site(s.id, cond, SiteKind::If { then, els });
            }
            StmtKind::While(cond, body) | StmtKind::DoWhile(body, cond) => {
                self.expr(cond);
                self.stmt(body);
                self.site(s.id, cond, SiteKind::Loop);
            }
            StmtKind::For(init, cond, step, body) => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                if let Some(c) = cond {
                    self.expr(c);
                }
                if let Some(st) = step {
                    self.expr(st);
                }
                self.stmt(body);
                if let Some(c) = cond {
                    self.site(s.id, c, SiteKind::Loop);
                }
            }
            StmtKind::Switch(scrut, sections) => {
                self.expr(scrut);
                for sec in sections {
                    for l in &sec.labels {
                        self.expr(l);
                    }
                    for st in &sec.body {
                        self.stmt(st);
                    }
                }
            }
            StmtKind::Return(e) => {
                self.has_return = true;
                if let Some(e) = e {
                    self.expr(e);
                }
            }
            StmtKind::Label(_, inner) => self.stmt(inner),
            StmtKind::Block(stmts) => {
                for st in stmts {
                    self.stmt(st);
                }
            }
            StmtKind::Break | StmtKind::Continue | StmtKind::Goto(_) | StmtKind::Empty => {}
        }
    }

    fn init(&mut self, init: &'m Initializer) {
        match init {
            Initializer::Expr(e) => self.expr(e),
            Initializer::List(items) => {
                for i in items {
                    self.init(i);
                }
            }
        }
    }

    fn expr(&mut self, e: &'m Expr) {
        match &e.kind {
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::SizeofType(_) => {}
            ExprKind::Ident(_) => {
                if let Some(v) = self.var(e) {
                    self.events.push(Event::Read(v));
                }
            }
            ExprKind::Assign(op, lhs, rhs) => {
                if let Some(v) = self.var(lhs) {
                    self.events.push(Event::Write(v));
                }
                // Every `Ident` reads, except the direct target of a
                // plain assignment. (Compound assignments read their
                // target.)
                if op.is_some() || !matches!(lhs.kind, ExprKind::Ident(_)) {
                    self.expr(lhs);
                }
                self.expr(rhs);
            }
            ExprKind::Unary(op, inner) => {
                if matches!(
                    op,
                    UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec
                ) {
                    if let Some(v) = self.var(inner) {
                        self.events.push(Event::Write(v));
                    }
                }
                self.expr(inner);
            }
            ExprKind::Cast(_, inner)
            | ExprKind::SizeofExpr(inner)
            | ExprKind::Member(inner, _, _) => self.expr(inner),
            ExprKind::Binary(_, a, b)
            | ExprKind::LogAnd(a, b)
            | ExprKind::LogOr(a, b)
            | ExprKind::Index(a, b)
            | ExprKind::Comma(a, b) => {
                self.expr(a);
                self.expr(b);
            }
            ExprKind::Call(callee, args) => {
                if let Some(site) = self.module.side.call_site(e.id) {
                    match self.module.side.call_sites[site.0 as usize].callee {
                        CalleeKind::Builtin(b) if b.is_noreturn() => self.events.push(Event::Exit),
                        CalleeKind::Direct(f) => self.events.push(Event::Call(f)),
                        _ => {}
                    }
                }
                self.expr(callee);
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::Cond(c, t, f) => {
                self.expr(c);
                let then = self.expr_arm(t);
                let els = self.expr_arm(f);
                self.site(e.id, c, SiteKind::Ternary { then, els });
            }
        }
    }
}

/// Per-variable read counts for the store-use heuristic, dense over the
/// [`Walker::var`] numbering.
struct ReadCounts {
    /// Reads in the whole current function, once `filled`.
    totals: Vec<i64>,
    filled: bool,
    /// Reads in the arm being asked about; zero between questions.
    inside: Vec<i64>,
}

impl ReadCounts {
    fn new(vars: usize) -> Self {
        ReadCounts {
            totals: vec![0; vars],
            filled: false,
            inside: vec![0; vars],
        }
    }

    /// Whether `arm` writes a variable that is read more often in the
    /// whole function `body` than inside the arm itself ("read
    /// elsewhere"). The function's totals are counted on its first
    /// question.
    fn stores_used_vars(&mut self, body: &[Event], arm: &[Event]) -> bool {
        if !arm.iter().any(|e| matches!(e, Event::Write(_))) {
            return false;
        }
        if !self.filled {
            add_reads(&mut self.totals, body, 1);
            self.filled = true;
        }
        add_reads(&mut self.inside, arm, 1);
        let hit = arm.iter().any(|e| match *e {
            Event::Write(v) => self.totals[v as usize] > self.inside[v as usize],
            _ => false,
        });
        add_reads(&mut self.inside, arm, -1);
        hit
    }

    /// Clears the totals of the function whose events are `body`.
    fn forget(&mut self, body: &[Event]) {
        if self.filled {
            add_reads(&mut self.totals, body, -1);
            self.filled = false;
        }
    }
}

/// Adds `delta` to `counts[v]` for every read of `v` in `events`.
fn add_reads(counts: &mut [i64], events: &[Event], delta: i64) {
    for &e in events {
        if let Event::Read(v) = e {
            counts[v as usize] += delta;
        }
    }
}

/// Predicts the sites of a module from its [`Facts`].
struct Predictor<'a, 'm> {
    module: &'m Module,
    facts: &'a Facts<'m>,
    /// Module-wide noreturn wrappers (see
    /// [`Predictions::error_functions`]).
    error_fns: &'a [bool],
    /// Active heuristics and probabilities.
    config: &'a PredictorConfig,
}

impl Predictor<'_, '_> {
    fn predict(
        &self,
        branch: &Branch,
        site: &Site,
        body: &[Event],
        reads: &mut ReadCounts,
    ) -> Prediction {
        if let Some(v) = branch.const_cond {
            return self.config.prediction(v, Heuristic::Constant);
        }
        let (then, els) = match site.kind {
            SiteKind::Loop => {
                debug_assert!(branch.kind.is_loop());
                return self.config.prediction(true, Heuristic::Loop);
            }
            SiteKind::If { then, els } => (then, els),
            SiteKind::Ternary { then, els } => (then, Some(els)),
        };
        let cond = site.cond;
        if self.config.pointer {
            if let Some(p) = self.pointer_heuristic(cond) {
                return p;
            }
        }
        if self.config.error_call {
            let then_err = self.has_error_call(then);
            let else_err = els.is_some_and(|a| self.has_error_call(a));
            if then_err != else_err {
                return self.config.prediction(else_err, Heuristic::ErrorCall);
            }
        }
        // Store-use compares the two arms of an `if`, so it only applies
        // when there *are* two arms; firing it on every else-less `if`
        // that assigns something mispredicts wildly (confirmed by the
        // ablation experiment: +9 points miss rate). `?:` arms are
        // expressions and do not take part.
        if let (true, SiteKind::If { els: Some(els), .. }) = (self.config.store_use, site.kind) {
            let then_stores = reads.stores_used_vars(body, self.facts.slice(then));
            let else_stores = reads.stores_used_vars(body, self.facts.slice(els));
            if then_stores != else_stores {
                return self.config.prediction(then_stores, Heuristic::StoreUse);
            }
        }
        if self.config.and_chain {
            if let Some(p) = self.and_chain(cond) {
                return p;
            }
        }
        if self.config.opcode {
            if let Some(p) = self.opcode_heuristic(cond) {
                return p;
            }
        }
        self.config.prediction(false, Heuristic::Default)
    }

    // -- individual heuristics --

    fn is_pointer(&self, e: &Expr) -> bool {
        self.module
            .side
            .ty(e.id)
            .map(|t| t.is_pointer_like())
            .unwrap_or(false)
    }

    fn is_null_literal(e: &Expr) -> bool {
        matches!(e.kind, ExprKind::IntLit(0))
            || matches!(&e.kind, ExprKind::Cast(_, inner) if Self::is_null_literal(inner))
    }

    /// "Pointers are unlikely to be NULL" plus pointer (in)equality.
    fn pointer_heuristic(&self, cond: &Expr) -> Option<Prediction> {
        let p = |taken| Some(self.config.prediction(taken, Heuristic::Pointer));
        match &cond.kind {
            // `if (ptr)` — non-NULL likely, condition true.
            _ if self.is_pointer(cond) && !matches!(cond.kind, ExprKind::Binary(_, _, _)) => {
                p(true)
            }
            // `if (!ptr)`
            ExprKind::Unary(UnOp::Not, inner) if self.is_pointer(inner) => p(false),
            ExprKind::Binary(op @ (BinOp::Eq | BinOp::Ne), a, b) => {
                let a_ptr = self.is_pointer(a);
                let b_ptr = self.is_pointer(b);
                let null_test =
                    (a_ptr && Self::is_null_literal(b)) || (b_ptr && Self::is_null_literal(a));
                let ptr_cmp = a_ptr && b_ptr;
                if null_test || ptr_cmp {
                    // Equality of pointers (or with NULL) is unlikely.
                    p(*op == BinOp::Ne)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Whether the arm calls `abort`/`exit` or an error function.
    fn has_error_call(&self, arm: Arm) -> bool {
        self.facts.slice(arm).iter().any(|e| match *e {
            Event::Exit => true,
            Event::Call(f) => self.error_fns[f.0 as usize],
            Event::Read(_) | Event::Write(_) => false,
        })
    }

    /// "Multiple logical ANDs make a condition less likely."
    fn and_chain(&self, cond: &Expr) -> Option<Prediction> {
        fn count_ands(e: &Expr) -> usize {
            match &e.kind {
                ExprKind::LogAnd(a, b) => 1 + count_ands(a) + count_ands(b),
                _ => 0,
            }
        }
        if count_ands(cond) >= 2 {
            Some(self.config.prediction(false, Heuristic::AndChain))
        } else {
            None
        }
    }

    /// Comparison-shape defaults in the spirit of Ball & Larus's
    /// opcode heuristic.
    fn opcode_heuristic(&self, cond: &Expr) -> Option<Prediction> {
        let p = |taken| Some(self.config.prediction(taken, Heuristic::Opcode));
        match &cond.kind {
            ExprKind::Binary(BinOp::Eq, _, _) => p(false),
            ExprKind::Binary(BinOp::Ne, _, _) => p(true),
            ExprKind::Binary(BinOp::Lt | BinOp::Le, _, rhs) => match rhs.kind {
                // x < 0 / x <= 0: negative values are unlikely.
                ExprKind::IntLit(v) if v <= 0 => p(false),
                _ => None,
            },
            ExprKind::Binary(BinOp::Gt | BinOp::Ge, _, rhs) => match rhs.kind {
                // x > 0 / x >= 0: non-negative values are likely.
                ExprKind::IntLit(v) if v <= 0 => p(true),
                _ => None,
            },
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::sema::BranchKind;

    fn predictions(src: &str) -> (Module, Predictions) {
        let module = minic::compile(src).expect("valid MiniC");
        let preds = predict_module(&module);
        (module, preds)
    }

    fn first_if_prediction(src: &str) -> Prediction {
        let (module, preds) = predictions(src);
        let branch = module
            .side
            .branches
            .iter()
            .find(|b| b.kind == BranchKind::If)
            .expect("an if branch");
        preds[branch.id]
    }

    #[test]
    fn loops_predict_taken() {
        let (module, preds) = predictions("int f(int n) { while (n > 0) n--; return n; }");
        let b = &module.side.branches[0];
        assert_eq!(
            preds[b.id],
            Prediction {
                taken: true,
                heuristic: Heuristic::Loop,
                prob_taken: 0.8,
            }
        );
    }

    #[test]
    fn pointer_null_test_predicts_non_null() {
        let p = first_if_prediction("int f(char *p) { if (p == 0) return 1; return 0; }");
        assert_eq!(p.heuristic, Heuristic::Pointer);
        assert!(!p.taken);

        let p = first_if_prediction("int f(char *p) { if (p != 0) return 1; return 0; }");
        assert!(p.taken);

        let p = first_if_prediction("int f(char *p) { if (p) return 1; return 0; }");
        assert!(p.taken);

        let p = first_if_prediction("int f(char *p) { if (!p) return 1; return 0; }");
        assert!(!p.taken);
    }

    #[test]
    fn pointer_equality_is_unlikely() {
        let p = first_if_prediction("int f(char *p, char *q) { if (p == q) return 1; return 0; }");
        assert_eq!(p.heuristic, Heuristic::Pointer);
        assert!(!p.taken);
    }

    #[test]
    fn error_call_arm_is_unlikely() {
        let p = first_if_prediction("int f(int n) { if (n < 0) { exit(1); } return n; }");
        assert_eq!(p.heuristic, Heuristic::ErrorCall);
        assert!(!p.taken);

        let p = first_if_prediction(
            "int f(int n) { int r; if (n) { r = 2; } else { abort(); } return r; }",
        );
        assert_eq!(p.heuristic, Heuristic::ErrorCall);
        assert!(p.taken);
    }

    #[test]
    fn and_chain_is_unlikely() {
        let p = first_if_prediction(
            "int f(int a, int b, int c) { if (a > 1 && b > 2 && c > 3) return 1; return 0; }",
        );
        assert_eq!(p.heuristic, Heuristic::AndChain);
        assert!(!p.taken);
    }

    #[test]
    fn store_use_prefers_storing_arm() {
        // Two-armed conditional: only the then-arm stores to a
        // variable read elsewhere.
        let p = first_if_prediction(
            r#"
            int f(int n) {
                int acc = 0;
                int scratch = 0;
                if (n > 42) { acc = n; } else { scratch = 3; }
                return acc + 1;
            }
            "#,
        );
        assert_eq!(p.heuristic, Heuristic::StoreUse);
        assert!(p.taken);
    }

    #[test]
    fn store_use_skips_else_less_ifs() {
        // Without an else there is no arm comparison; the ablation
        // showed this case mispredicts badly if taken.
        let p = first_if_prediction(
            r#"
            int f(int n) {
                int acc = 0;
                if (n > 42) { acc = n; }
                return acc + 1;
            }
            "#,
        );
        assert_ne!(p.heuristic, Heuristic::StoreUse);
    }

    #[test]
    fn opcode_equality_unlikely() {
        let p = first_if_prediction("int f(int a, int b) { if (a == b) return 1; return 0; }");
        assert_eq!(p.heuristic, Heuristic::Opcode);
        assert!(!p.taken);

        let p = first_if_prediction("int f(int a) { if (a < 0) return 1; return 0; }");
        assert!(!p.taken);

        let p = first_if_prediction("int f(int a) { if (a >= 0) return 1; return 0; }");
        assert!(p.taken);
    }

    #[test]
    fn constant_condition_predicts_itself() {
        let (module, preds) = predictions("int f(void) { if (1) return 1; return 0; }");
        let b = &module.side.branches[0];
        assert_eq!(preds[b.id].heuristic, Heuristic::Constant);
        assert!(preds[b.id].taken);
        assert_eq!(preds[b.id].prob_taken(), 1.0);
    }

    #[test]
    fn ternary_gets_predicted() {
        let (module, preds) = predictions("int f(char *p) { return p ? 1 : 0; }");
        let b = module
            .side
            .branches
            .iter()
            .find(|b| b.kind == BranchKind::Ternary)
            .unwrap();
        assert_eq!(preds[b.id].heuristic, Heuristic::Pointer);
        assert!(preds[b.id].taken);
    }

    #[test]
    fn default_prediction_has_even_probability() {
        let p = first_if_prediction("int f(int a, int b) { if (a > b) return 1; return 0; }");
        assert_eq!(p.heuristic, Heuristic::Default);
        assert_eq!(p.prob_taken(), 0.5);
    }

    #[test]
    fn ablation_disables_heuristics() {
        let module = minic::compile("int f(char *p) { if (p == 0) return 1; return 0; }").unwrap();
        let full = predict_module_with(&module, &PredictorConfig::default());
        let ablated = predict_module_with(&module, &PredictorConfig::without(Heuristic::Pointer));
        let b = module.side.branches[0].id;
        assert_eq!(full[b].heuristic, Heuristic::Pointer);
        // Without the pointer heuristic, `p == 0` falls to the opcode
        // heuristic (equality unlikely) — same direction, new source.
        assert_eq!(ablated[b].heuristic, Heuristic::Opcode);
        let bare = predict_module_with(&module, &PredictorConfig::bare());
        assert_eq!(bare[b].heuristic, Heuristic::Default);
        assert_eq!(bare[b].prob_taken, 0.5);
    }

    #[test]
    fn calibrated_probabilities_differ_by_heuristic() {
        let module = minic::compile(
            r#"
            int f(char *p, int n) {
                int s = 0;
                while (n > 0) { if (p != 0) s++; n--; }
                return s;
            }
            "#,
        )
        .unwrap();
        let config = PredictorConfig {
            calibrated: true,
            ..PredictorConfig::default()
        };
        let preds = predict_module_with(&module, &config);
        let mut probs: Vec<f64> = preds.iter().map(|(_, p)| p.prob_taken).collect();
        probs.sort_by(|a, b| a.total_cmp(b));
        probs.dedup();
        assert!(
            probs.len() >= 2,
            "calibrated probs should differ: {probs:?}"
        );
    }

    #[test]
    fn confidence_parameter_scales_probabilities() {
        let module = minic::compile("int f(int n) { while (n > 0) n--; return n; }").unwrap();
        let config = PredictorConfig {
            confidence: 0.9,
            ..PredictorConfig::default()
        };
        let preds = predict_module_with(&module, &config);
        assert_eq!(preds[module.side.branches[0].id].prob_taken, 0.9);
    }

    #[test]
    fn error_wrappers_are_detected() {
        let module = minic::compile(
            r#"
            void die(void) { printf("boom\n"); exit(1); }
            void die2(void) { die(); }
            int ok(void) { return 1; }
            int f(int n) { if (n < 0) die2(); return n; }
            "#,
        )
        .unwrap();
        let preds = predict_module(&module);
        let errs = preds.error_functions();
        assert_eq!(errs.iter().filter(|&&e| e).count(), 2);
        let b = module
            .side
            .branches
            .iter()
            .find(|b| b.kind == BranchKind::If)
            .unwrap();
        assert_eq!(preds[b.id].heuristic, Heuristic::ErrorCall);
        assert!(!preds[b.id].taken);
    }

    #[test]
    fn every_branch_gets_a_prediction() {
        let (module, preds) = predictions(
            r#"
            int f(int n, char *s) {
                int i, acc = 0;
                for (i = 0; i < n; i++) {
                    if (s && s[i] == 'x') acc++;
                    acc += i > 2 ? 1 : 0;
                }
                do { acc--; } while (acc > 100);
                return acc;
            }
            "#,
        );
        assert_eq!(preds.len(), module.side.branches.len());
    }
}
