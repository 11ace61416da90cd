//! Static loop trip-count analysis.
//!
//! §4.1 observes that the suite splits into "numerical programs with
//! simple control flow" — where "it is often possible to estimate the
//! iteration counts of loops accurately" — and everything else, where
//! the fixed count of 5 is as good as anything. This module implements
//! the analysis the paper alludes to but does not build: recognizing
//! the `for (i = C0; i < C1; i += k)` idiom and computing its exact
//! trip count, for use by the intra-procedural estimators via
//! [`crate::intra::IntraOptions::trip_counts`].

use minic::ast::{BinOp, Expr, ExprKind, Initializer, Stmt, StmtKind, UnOp};
use minic::fold::{fold, ConstValue, NoEnv};
use minic::sema::{BranchId, Module, Resolution};
use std::collections::HashMap;

/// Upper clamp: a statically-huge loop is still "hot", but letting a
/// million-iteration bound dominate every ranking would just re-derive
/// the profile; the paper's spirit is *relative* frequency.
pub const MAX_TRIP: f64 = 1024.0;

/// Computes trip counts for every `for` loop of the recognized shape.
/// The returned value is the number of body executions per loop entry
/// (the test runs one more time).
///
/// # Examples
///
/// ```
/// let module = minic::compile(
///     "int f(void) { int i, s = 0; for (i = 0; i < 100; i++) s++; return s; }",
/// ).unwrap();
/// let trips = estimators::tripcount::trip_counts(&module);
/// assert_eq!(trips.len(), 1);
/// assert_eq!(trips.values().next(), Some(&100.0));
/// ```
pub fn trip_counts(module: &Module) -> HashMap<BranchId, f64> {
    let mut out = HashMap::new();
    for func in module.defined_functions() {
        let body = func.body.as_ref().expect("defined");
        body.walk(&mut |s| {
            if let StmtKind::For(init, Some(cond), Some(step), _) = &s.kind {
                let Some(&bid) = module.side.branch_of.get(&s.id) else {
                    return;
                };
                if let Some(trip) = analyze_for(module, init.as_deref(), cond, step) {
                    out.insert(bid, trip.clamp(1.0, MAX_TRIP));
                }
            }
        });
    }
    out
}

/// The induction variable (resolved) named by an expression, if any.
fn var_of(module: &Module, e: &Expr) -> Option<Resolution> {
    if let ExprKind::Ident(_) = e.kind {
        module.side.resolutions.get(&e.id).copied()
    } else {
        None
    }
}

fn const_of(e: &Expr) -> Option<i64> {
    fold(e, &NoEnv).and_then(ConstValue::as_int)
}

/// `i = C0` from the init statement, returning (var, C0).
fn init_binding(module: &Module, init: Option<&Stmt>) -> Option<(Resolution, i64)> {
    let init = init?;
    match &init.kind {
        StmtKind::Expr(e) => {
            if let ExprKind::Assign(None, lhs, rhs) = &e.kind {
                Some((var_of(module, lhs)?, const_of(rhs)?))
            } else {
                None
            }
        }
        StmtKind::Decl(decls) => {
            // `for (int i = 0; ...)`: the declared local is the var.
            let d = decls.last()?;
            let lid = module.side.local_of_decl.get(&d.id)?;
            let Some(Initializer::Expr(e)) = &d.init else {
                return None;
            };
            Some((Resolution::Local(*lid), const_of(e)?))
        }
        _ => None,
    }
}

/// `i++`, `++i`, `i += k`, or `i = i + k` from the step expression,
/// returning (var, k).
fn step_stride(module: &Module, step: &Expr) -> Option<(Resolution, i64)> {
    match &step.kind {
        ExprKind::Unary(UnOp::PostInc | UnOp::PreInc, inner) => Some((var_of(module, inner)?, 1)),
        ExprKind::Unary(UnOp::PostDec | UnOp::PreDec, inner) => Some((var_of(module, inner)?, -1)),
        ExprKind::Assign(Some(BinOp::Add), lhs, rhs) => {
            Some((var_of(module, lhs)?, const_of(rhs)?))
        }
        ExprKind::Assign(Some(BinOp::Sub), lhs, rhs) => {
            Some((var_of(module, lhs)?, -const_of(rhs)?))
        }
        ExprKind::Assign(None, lhs, rhs) => {
            // i = i + k / i = i - k
            let v = var_of(module, lhs)?;
            if let ExprKind::Binary(op @ (BinOp::Add | BinOp::Sub), a, b) = &rhs.kind {
                if var_of(module, a) == Some(v) {
                    let k = const_of(b)?;
                    return Some((v, if *op == BinOp::Add { k } else { -k }));
                }
            }
            None
        }
        _ => None,
    }
}

/// `i < C1` / `i <= C1` / `i > C1` / `i >= C1` from the condition,
/// returning (var, bound, inclusive, ascending).
fn cond_bound(module: &Module, cond: &Expr) -> Option<(Resolution, i64, bool, bool)> {
    let ExprKind::Binary(op, a, b) = &cond.kind else {
        return None;
    };
    // var on the left...
    if let (Some(v), Some(c)) = (var_of(module, a), const_of(b)) {
        return match op {
            BinOp::Lt => Some((v, c, false, true)),
            BinOp::Le => Some((v, c, true, true)),
            BinOp::Gt => Some((v, c, false, false)),
            BinOp::Ge => Some((v, c, true, false)),
            _ => None,
        };
    }
    // ...or on the right (C1 > i etc.).
    if let (Some(c), Some(v)) = (const_of(a), var_of(module, b)) {
        return match op {
            BinOp::Gt => Some((v, c, false, true)), // C1 > i  ≡  i < C1
            BinOp::Ge => Some((v, c, true, true)),
            BinOp::Lt => Some((v, c, false, false)), // C1 < i  ≡  i > C1
            BinOp::Le => Some((v, c, true, false)),
            _ => None,
        };
    }
    None
}

fn analyze_for(module: &Module, init: Option<&Stmt>, cond: &Expr, step: &Expr) -> Option<f64> {
    let (iv, c0) = init_binding(module, init)?;
    let (sv, k) = step_stride(module, step)?;
    let (cv, c1, inclusive, ascending) = cond_bound(module, cond)?;
    if iv != sv || iv != cv || k == 0 {
        return None;
    }
    // Direction must match the bound.
    if ascending != (k > 0) {
        return None;
    }
    let span = if ascending { c1 - c0 } else { c0 - c1 };
    let stride = k.abs();
    if span < 0 {
        return Some(0.0);
    }
    let extra = i64::from(inclusive);
    let trips = (span + extra + stride - 1) / stride;
    Some(trips as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trips(src: &str) -> Vec<f64> {
        let module = minic::compile(src).expect("compiles");
        let mut v: Vec<f64> = trip_counts(&module).values().copied().collect();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    #[test]
    fn classic_ascending_loop() {
        assert_eq!(
            trips("int f(void) { int i, s = 0; for (i = 0; i < 10; i++) s++; return s; }"),
            vec![10.0]
        );
    }

    #[test]
    fn inclusive_bound() {
        assert_eq!(
            trips("int f(void) { int i, s = 0; for (i = 1; i <= 10; i++) s++; return s; }"),
            vec![10.0]
        );
    }

    #[test]
    fn strided_loop() {
        assert_eq!(
            trips("int f(void) { int i, s = 0; for (i = 0; i < 10; i += 3) s++; return s; }"),
            vec![4.0]
        );
    }

    #[test]
    fn descending_loop() {
        assert_eq!(
            trips("int f(void) { int i, s = 0; for (i = 9; i >= 0; i--) s++; return s; }"),
            vec![10.0]
        );
    }

    #[test]
    fn i_equals_i_plus_k_form() {
        assert_eq!(
            trips("int f(void) { int i, s = 0; for (i = 0; i < 8; i = i + 2) s++; return s; }"),
            vec![4.0]
        );
    }

    #[test]
    fn reversed_comparison() {
        assert_eq!(
            trips("int f(void) { int i, s = 0; for (i = 0; 10 > i; i++) s++; return s; }"),
            vec![10.0]
        );
    }

    #[test]
    fn macro_bounds_fold() {
        assert_eq!(
            trips(
                "#define N 64\nint f(void) { int i, s = 0; for (i = 0; i < N; i++) s++; return s; }"
            ),
            vec![64.0]
        );
    }

    #[test]
    fn non_constant_bound_is_unrecognized() {
        assert!(
            trips("int f(int n) { int i, s = 0; for (i = 0; i < n; i++) s++; return s; }")
                .is_empty()
        );
    }

    #[test]
    fn wrong_direction_is_unrecognized() {
        // i < 10 with i-- never terminates by the bound; don't guess.
        assert!(trips(
            "int f(void) { int i, s = 0; for (i = 20; i < 10; i--) { s++; if (s > 100) break; } return s; }"
        )
        .is_empty());
    }

    #[test]
    fn huge_loops_clamp() {
        assert_eq!(
            trips("int f(void) { int i, s = 0; for (i = 0; i < 1000000; i++) s++; return s; }"),
            vec![MAX_TRIP]
        );
    }

    #[test]
    fn trips_are_accurate_against_the_interpreter() {
        let src = "int main(void) { int i, s = 0; for (i = 3; i <= 47; i += 4) s++; return s; }";
        let module = minic::compile(src).unwrap();
        let program = flowgraph::build_program(module);
        let out = profiler::run(&program, &profiler::RunConfig::default()).unwrap();
        let trip = *trip_counts(&program.module).values().next().unwrap();
        assert_eq!(out.exit_code, trip as i64);
    }
}
