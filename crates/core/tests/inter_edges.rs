//! Inter-procedural estimator edge cases: programs without `main`,
//! pointer-only call graphs, deep call chains, and mixed
//! direct/indirect recursion — the shapes §5.2 warns about.

use estimators::inter::{estimate_invocations, InterEstimator};
use estimators::intra::{estimate_program, IntraEstimator};
use flowgraph::Program;

fn setup(src: &str) -> (Program, estimators::IntraEstimates) {
    let module = minic::compile(src).expect("valid MiniC");
    let program = flowgraph::build_program(module);
    let ia = estimate_program(&program, IntraEstimator::Smart);
    (program, ia)
}

fn of(p: &Program, e: &estimators::InterEstimates, name: &str) -> f64 {
    e.of(p.function_id(name).unwrap())
}

#[test]
fn library_without_main_still_estimates() {
    // No main: the Markov model has no injection point named main; it
    // must not panic, and uncalled roots get zero-ish estimates.
    let (p, ia) = setup(
        r#"
        int helper(int x) { return x + 1; }
        int api(int x) { return helper(x) * 2; }
        "#,
    );
    for which in InterEstimator::ALL {
        let est = estimate_invocations(&p, &ia, which);
        for v in &est.func_freqs {
            assert!(v.is_finite() && *v >= 0.0, "{which:?}");
        }
    }
}

#[test]
fn pointer_only_program_distributes_via_static_counts() {
    // Everything is called through one dispatch table — the gs shape.
    let (p, ia) = setup(
        r#"
        int op_a(int x) { return x + 1; }
        int op_b(int x) { return x + 2; }
        int op_c(int x) { return x + 3; }
        int (*table[4])(int) = { op_a, op_a, op_b, op_c };
        int main(void) {
            int i, s = 0;
            for (i = 0; i < 20; i++) s += table[i % 4](i);
            return s & 255;
        }
        "#,
    );
    let est = estimate_invocations(&p, &ia, InterEstimator::Markov);
    let (a, b, c) = (
        of(&p, &est, "op_a"),
        of(&p, &est, "op_b"),
        of(&p, &est, "op_c"),
    );
    // op_a is referenced twice statically: twice the share of b and c.
    assert!((a / b - 2.0).abs() < 1e-6, "a={a} b={b}");
    assert!((b / c - 1.0).abs() < 1e-6, "b={b} c={c}");
}

#[test]
fn deep_call_chain_multiplies_correctly() {
    // f0 -> f1 -> f2 -> f3 each from straight-line code: every level
    // should be estimated at exactly 1 invocation.
    let (p, ia) = setup(
        r#"
        int f3(int x) { return x; }
        int f2(int x) { return f3(x); }
        int f1(int x) { return f2(x); }
        int main(void) { return f1(1); }
        "#,
    );
    let est = estimate_invocations(&p, &ia, InterEstimator::Markov);
    for name in ["f1", "f2", "f3"] {
        let v = of(&p, &est, name);
        assert!((v - 1.0).abs() < 1e-9, "{name} = {v}");
    }
}

#[test]
fn mixed_direct_and_mutual_recursion_repairs() {
    // A self loop *and* a two-cycle on the same function.
    let (p, ia) = setup(
        r#"
        int b(int n);
        int a(int n) {
            if (n < 1) return 0;
            return a(n - 1) + b(n - 1) + a(n - 2);
        }
        int b(int n) {
            if (n < 1) return 1;
            return a(n - 1) + b(n - 2);
        }
        int main(void) { return a(6); }
        "#,
    );
    for which in [InterEstimator::Markov, InterEstimator::AllRec2] {
        let est = estimate_invocations(&p, &ia, which);
        for name in ["a", "b", "main"] {
            let v = of(&p, &est, name);
            assert!(v.is_finite() && v >= 0.0, "{which:?} {name} = {v}");
        }
        assert!(of(&p, &est, "a") > 0.0, "{which:?}");
    }
}

#[test]
fn prototypes_get_zero_without_bodies() {
    let (p, ia) = setup(
        r#"
        int external(int x);
        int main(void) { return 7; }
        "#,
    );
    let est = estimate_invocations(&p, &ia, InterEstimator::Markov);
    assert_eq!(of(&p, &est, "external"), 0.0);
    assert!((of(&p, &est, "main") - 1.0).abs() < 1e-9);
}

#[test]
fn estimator_names_are_stable() {
    let names: Vec<&str> = InterEstimator::ALL.iter().map(|e| e.name()).collect();
    assert_eq!(
        names,
        vec!["call-site", "direct", "all-rec", "all-rec2", "markov"]
    );
}

#[test]
fn calls_inside_condition_expressions_are_attributed() {
    // A call site in a loop condition executes per test, and the
    // estimators should see it in the loop-header block.
    let (p, ia) = setup(
        r#"
        int has_more(int i) { return i < 12; }
        int main(void) {
            int i = 0;
            while (has_more(i)) i++;
            return i;
        }
        "#,
    );
    let est = estimate_invocations(&p, &ia, InterEstimator::CallSite);
    // The header runs ~5 times under the loop model.
    let v = of(&p, &est, "has_more");
    assert!(v >= 4.0, "call in loop condition got {v}");
}

#[test]
fn every_simple_estimator_scales_monotonically_with_sites() {
    // Adding a second call site can only increase a simple estimate.
    let one = setup(
        r#"
        int f(int x) { return x; }
        int main(void) { return f(1); }
        "#,
    );
    let two = setup(
        r#"
        int f(int x) { return x; }
        int main(void) { return f(1) + f(2); }
        "#,
    );
    for which in [
        InterEstimator::CallSite,
        InterEstimator::Direct,
        InterEstimator::AllRec,
    ] {
        let e1 = estimate_invocations(&one.0, &one.1, which);
        let e2 = estimate_invocations(&two.0, &two.1, which);
        assert!(
            of(&two.0, &e2, "f") > of(&one.0, &e1, "f") - 1e-12,
            "{which:?}"
        );
    }
}
