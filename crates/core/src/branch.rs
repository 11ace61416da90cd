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

use minic::ast::{BinOp, Expr, ExprKind, Stmt, StmtKind, UnOp};
use minic::builtins::Builtin;
use minic::sema::{Branch, BranchId, CalleeKind, Module, Resolution};
use std::collections::{HashMap, HashSet};

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
/// let pred = preds[&b.id];
/// assert!(!pred.taken, "p == 0 is predicted false");
/// ```
pub fn predict_module(module: &Module) -> HashMap<BranchId, Prediction> {
    predict_module_with(module, &PredictorConfig::default())
}

/// [`predict_module`] with an explicit [`PredictorConfig`] — the entry
/// point for ablation studies and the calibrated-probability variant.
pub fn predict_module_with(
    module: &Module,
    config: &PredictorConfig,
) -> HashMap<BranchId, Prediction> {
    let _sp = obs::span("estimate.branch");
    let mut out = HashMap::new();
    let error_fns = error_functions(module);
    for func in module.defined_functions() {
        let body = func.body.as_ref().expect("defined");
        let ctx = FnContext::new(module, body, &error_fns, config);
        // Walk statements to find branch owners with their arms.
        body.walk(&mut |s| match &s.kind {
            StmtKind::If(cond, then_s, else_s) => {
                if let Some(bid) = module.side.branch(s.id) {
                    let branch = &module.side.branches[bid.0 as usize];
                    let p = ctx.predict_if(branch, cond, Some(then_s), else_s.as_deref());
                    out.insert(bid, p);
                }
            }
            StmtKind::While(cond, _) | StmtKind::DoWhile(_, cond) => {
                if let Some(bid) = module.side.branch(s.id) {
                    let branch = &module.side.branches[bid.0 as usize];
                    out.insert(bid, ctx.predict_loop(branch, cond));
                }
            }
            StmtKind::For(_, Some(cond), _, _) => {
                if let Some(bid) = module.side.branch(s.id) {
                    let branch = &module.side.branches[bid.0 as usize];
                    out.insert(bid, ctx.predict_loop(branch, cond));
                }
            }
            _ => {}
        });
        // Ternary branches live on expressions.
        body.walk_exprs(&mut |e| {
            if let ExprKind::Cond(c, t, f) = &e.kind {
                if let Some(bid) = module.side.branch(e.id) {
                    let branch = &module.side.branches[bid.0 as usize];
                    let p = ctx.predict_ternary(branch, c, t, f);
                    out.insert(bid, p);
                }
            }
        });
    }
    out
}

/// Functions that never return normally: their bodies contain no
/// `return` statement and reach `abort`/`exit` (directly or through
/// another error function). Real C code wraps `exit` in `fatal()`-style
/// helpers; the paper's error heuristic keys on the *intent*.
pub fn error_functions(module: &Module) -> std::collections::HashSet<minic::sema::FuncId> {
    use minic::sema::FuncId;
    let mut error_fns: std::collections::HashSet<FuncId> = std::collections::HashSet::new();
    // Fixpoint: a call to an already-known error function counts.
    loop {
        let mut changed = false;
        for func in module.defined_functions() {
            if error_fns.contains(&func.id) {
                continue;
            }
            let body = func.body.as_ref().expect("defined");
            let mut has_return = false;
            body.walk(&mut |s| {
                if matches!(s.kind, StmtKind::Return(_)) {
                    has_return = true;
                }
            });
            if has_return {
                continue;
            }
            let mut reaches_exit = false;
            body.walk_exprs(&mut |e| {
                if let ExprKind::Call(_, _) = &e.kind {
                    if let Some(site) = module.side.call_site(e.id) {
                        match module.side.call_sites[site.0 as usize].callee {
                            CalleeKind::Builtin(b) if b.is_noreturn() => reaches_exit = true,
                            CalleeKind::Direct(f) if error_fns.contains(&f) => reaches_exit = true,
                            _ => {}
                        }
                    }
                }
            });
            if reaches_exit {
                error_fns.insert(func.id);
                changed = true;
            }
        }
        if !changed {
            return error_fns;
        }
    }
}

/// Per-function analysis context: read counts per variable and the
/// module reference.
struct FnContext<'m> {
    module: &'m Module,
    /// Total reads of each variable in the whole function.
    reads: HashMap<VarKey, i64>,
    /// Module-wide noreturn wrappers (see [`error_functions`]).
    error_fns: &'m std::collections::HashSet<minic::sema::FuncId>,
    /// Active heuristics and probabilities.
    config: &'m PredictorConfig,
}

/// A variable identity for the store-use heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum VarKey {
    Local(u32),
    Global(u32),
}

impl<'m> FnContext<'m> {
    fn new(
        module: &'m Module,
        body: &Stmt,
        error_fns: &'m std::collections::HashSet<minic::sema::FuncId>,
        config: &'m PredictorConfig,
    ) -> Self {
        let mut reads = HashMap::new();
        body.walk_exprs(&mut |e| collect_reads(module, e, &mut reads));
        FnContext {
            module,
            reads,
            error_fns,
            config,
        }
    }

    fn constant(&self, branch: &Branch) -> Option<Prediction> {
        branch
            .const_cond
            .map(|v| self.config.prediction(v, Heuristic::Constant))
    }

    fn predict_loop(&self, branch: &Branch, _cond: &Expr) -> Prediction {
        if let Some(p) = self.constant(branch) {
            return p;
        }
        debug_assert!(branch.kind.is_loop());
        self.config.prediction(true, Heuristic::Loop)
    }

    fn predict_if(
        &self,
        branch: &Branch,
        cond: &Expr,
        then_s: Option<&Stmt>,
        else_s: Option<&Stmt>,
    ) -> Prediction {
        if let Some(p) = self.constant(branch) {
            return p;
        }
        if self.config.pointer {
            if let Some(p) = self.pointer_heuristic(cond) {
                return p;
            }
        }
        if self.config.error_call {
            let then_err = then_s.is_some_and(|s| self.stmt_has_error_call(s));
            let else_err = else_s.is_some_and(|s| self.stmt_has_error_call(s));
            if then_err != else_err {
                return self.config.prediction(else_err, Heuristic::ErrorCall);
            }
        }
        // Store-use compares the two arms of the conditional, so it
        // only applies when there *are* two arms; firing it on every
        // else-less `if` that assigns something mispredicts wildly
        // (confirmed by the ablation experiment: +9 points miss rate).
        if self.config.store_use && else_s.is_some() {
            let then_stores = then_s.is_some_and(|s| self.stmt_stores_used_vars(s));
            let else_stores = else_s.is_some_and(|s| self.stmt_stores_used_vars(s));
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

    fn predict_ternary(
        &self,
        branch: &Branch,
        cond: &Expr,
        then_e: &Expr,
        else_e: &Expr,
    ) -> Prediction {
        if let Some(p) = self.constant(branch) {
            return p;
        }
        if self.config.pointer {
            if let Some(p) = self.pointer_heuristic(cond) {
                return p;
            }
        }
        if self.config.error_call {
            let then_err = self.expr_has_error_call(then_e);
            let else_err = self.expr_has_error_call(else_e);
            if then_err != else_err {
                return self.config.prediction(else_err, Heuristic::ErrorCall);
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

    fn call_is_error(&self, e: &Expr) -> bool {
        let Some(site) = self.module.side.call_site(e.id) else {
            return false;
        };
        match self.module.side.call_sites[site.0 as usize].callee {
            CalleeKind::Builtin(b) => b.is_noreturn(),
            CalleeKind::Direct(f) => self.error_fns.contains(&f),
            CalleeKind::Indirect => false,
        }
    }

    fn expr_has_error_call(&self, e: &Expr) -> bool {
        let mut found = false;
        e.walk(&mut |x| {
            if let ExprKind::Call(_, _) = &x.kind {
                if self.call_is_error(x) {
                    found = true;
                }
            }
        });
        found
    }

    fn stmt_has_error_call(&self, s: &Stmt) -> bool {
        let mut found = false;
        s.walk_exprs(&mut |e| {
            if let ExprKind::Call(_, _) = &e.kind {
                if self.call_is_error(e) {
                    found = true;
                }
            }
        });
        found
    }

    /// Whether the arm writes a variable that is read more often in the
    /// whole function than inside the arm itself ("read elsewhere").
    fn stmt_stores_used_vars(&self, s: &Stmt) -> bool {
        let mut writes: HashSet<VarKey> = HashSet::new();
        s.walk_exprs(&mut |e| collect_writes(self.module, e, &mut writes));
        if writes.is_empty() {
            return false;
        }
        let mut arm_reads: HashMap<VarKey, i64> = HashMap::new();
        s.walk_exprs(&mut |e| collect_reads(self.module, e, &mut arm_reads));
        writes.iter().any(|v| {
            let total = self.reads.get(v).copied().unwrap_or(0);
            let inside = arm_reads.get(v).copied().unwrap_or(0);
            total > inside
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
            ExprKind::Binary(op @ (BinOp::Lt | BinOp::Le), _, rhs) => {
                match rhs.kind {
                    // x < 0 / x <= 0: negative values are unlikely.
                    ExprKind::IntLit(v) if v <= 0 => p(false),
                    _ => {
                        let _ = op;
                        None
                    }
                }
            }
            ExprKind::Binary(BinOp::Gt | BinOp::Ge, _, rhs) => match rhs.kind {
                // x > 0 / x >= 0: non-negative values are likely.
                ExprKind::IntLit(v) if v <= 0 => p(true),
                _ => None,
            },
            _ => None,
        }
    }
}

fn root_var(module: &Module, e: &Expr) -> Option<VarKey> {
    match &e.kind {
        ExprKind::Ident(_) => match module.side.resolution(e.id)? {
            Resolution::Local(l) => Some(VarKey::Local(l.0)),
            Resolution::Global(g) => Some(VarKey::Global(g.0)),
            _ => None,
        },
        ExprKind::Index(b, _) | ExprKind::Member(b, _, false) => root_var(module, b),
        ExprKind::Cast(_, inner) => root_var(module, inner),
        // Writes through pointers (`*p`, `p->f`) have unknown targets.
        _ => None,
    }
}

fn collect_writes(module: &Module, e: &Expr, out: &mut HashSet<VarKey>) {
    match &e.kind {
        ExprKind::Assign(_, lhs, _) => {
            if let Some(v) = root_var(module, lhs) {
                out.insert(v);
            }
        }
        ExprKind::Unary(UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec, inner) => {
            if let Some(v) = root_var(module, inner) {
                out.insert(v);
            }
        }
        _ => {}
    }
}

fn collect_reads(module: &Module, e: &Expr, out: &mut HashMap<VarKey, i64>) {
    // Every Ident occurrence counts as a read except the direct target
    // of a plain assignment. (Compound assignments and inc/dec read
    // too, but `walk_exprs` visits the lhs Ident node itself, so the
    // adjustment happens at the Assign node.)
    match &e.kind {
        ExprKind::Ident(_) => {
            if let Some(v) = root_var(module, e) {
                *out.entry(v).or_insert(0) += 1;
            }
        }
        ExprKind::Assign(None, lhs, _) => {
            // Cancel the read that the lhs root Ident will register.
            if let ExprKind::Ident(_) = lhs.kind {
                if let Some(v) = root_var(module, lhs) {
                    // Walk order is pre-order: parent first. Record a
                    // deficit; the child Ident's increment restores 0.
                    *out.entry(v).or_insert(0) -= 1;
                }
            }
        }
        _ => {}
    }
}

/// A builtin exists purely so the doc-comment can reference the set of
/// error builtins without importing them at call sites.
pub fn is_error_builtin(b: Builtin) -> bool {
    b.is_noreturn()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::sema::BranchKind;

    fn predictions(src: &str) -> (Module, HashMap<BranchId, Prediction>) {
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
        preds[&branch.id]
    }

    #[test]
    fn loops_predict_taken() {
        let (module, preds) = predictions("int f(int n) { while (n > 0) n--; return n; }");
        let b = &module.side.branches[0];
        assert_eq!(
            preds[&b.id],
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
        assert_eq!(preds[&b.id].heuristic, Heuristic::Constant);
        assert!(preds[&b.id].taken);
        assert_eq!(preds[&b.id].prob_taken(), 1.0);
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
        assert_eq!(preds[&b.id].heuristic, Heuristic::Pointer);
        assert!(preds[&b.id].taken);
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
        assert_eq!(full[&b].heuristic, Heuristic::Pointer);
        // Without the pointer heuristic, `p == 0` falls to the opcode
        // heuristic (equality unlikely) — same direction, new source.
        assert_eq!(ablated[&b].heuristic, Heuristic::Opcode);
        let bare = predict_module_with(&module, &PredictorConfig::bare());
        assert_eq!(bare[&b].heuristic, Heuristic::Default);
        assert_eq!(bare[&b].prob_taken, 0.5);
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
        let mut probs: Vec<f64> = preds.values().map(|p| p.prob_taken).collect();
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
        assert_eq!(preds[&module.side.branches[0].id].prob_taken, 0.9);
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
        let errs = error_functions(&module);
        assert_eq!(errs.len(), 2);
        let preds = predict_module(&module);
        let b = module
            .side
            .branches
            .iter()
            .find(|b| b.kind == BranchKind::If)
            .unwrap();
        assert_eq!(preds[&b.id].heuristic, Heuristic::ErrorCall);
        assert!(!preds[&b.id].taken);
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
