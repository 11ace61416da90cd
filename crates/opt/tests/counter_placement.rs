//! Exactness of the rebuilt counts. The VM counts only spanning-tree
//! chords and rebuilds block, edge and branch counts after the run;
//! every case here checks that the rebuilt profile equals the AST
//! walker's fully counted one, and that optimized code (-O1..-O3,
//! with inlining) rebuilds the same counts as unoptimized code. The
//! cases aim at the spots where flow conservation needs help:
//! `exit()` with live activations (direct, recursive, through a
//! function pointer, inside inlined code), branches and switches
//! whose arms share a block, several returns, and a run the step
//! limit cuts off.

use opt::{optimize, OptPlan};
use profiler::bytecode::{compile, verify};
use profiler::{run_ast, Profile, RunConfig, RuntimeError};

fn config(input: &str, max_steps: u64) -> RunConfig {
    RunConfig {
        max_steps,
        ..RunConfig::with_input(input)
    }
}

/// The count counters (everything but `func_cost`, which the
/// optimizer is meant to move).
fn counts(p: &Profile) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &p.block_counts,
        &p.branch_counts,
        &p.edge_counts,
        &p.call_site_counts,
        &p.func_counts,
    )
}

/// Runs `src` on the AST walker, the VM, and the VM at every
/// optimization level; asserts they agree. Returns the total number
/// of call sites the optimizer inlined across levels.
fn check(src: &str, input: &str) -> u64 {
    let module = minic::compile(src).expect("valid MiniC");
    let program = flowgraph::build_program(module);
    let cfg = config(input, 10_000_000);
    let ast = run_ast(&program, &cfg).expect("the oracle runs");
    let cp = compile(&program);
    assert_eq!(verify(&cp), Ok(()));
    let vm = cp.execute(&cfg, None).expect("the VM runs");
    assert_eq!(vm.exit_code, ast.exit_code, "exit code");
    assert_eq!(vm.output, ast.output, "output");
    assert_eq!(vm.steps, ast.steps, "steps");
    assert_eq!(vm.profile, ast.profile, "VM profile vs AST walker");

    let mut inlined = 0;
    for level in 1..=3u8 {
        let (ocp, stats) = optimize(&cp, &OptPlan::full(&cp, level));
        inlined += stats.inlined_calls;
        assert_eq!(verify(&ocp), Ok(()), "O{level} verifies");
        let out = ocp.execute(&cfg, None).expect("optimized code runs");
        assert_eq!(out.exit_code, vm.exit_code, "O{level} exit code");
        assert_eq!(out.output, vm.output, "O{level} output");
        assert_eq!(
            counts(&out.profile),
            counts(&vm.profile),
            "O{level} counts vs O0"
        );
    }
    inlined
}

#[test]
fn exit_from_deep_recursion() {
    check(
        r#"
        int depth(int n) {
            if (n == 0) { exit(7); }
            return depth(n - 1) + 1;
        }
        int main(void) {
            int i;
            for (i = 0; i < 3; i++) printf("%d\n", i);
            depth(50);
            return 0;
        }
        "#,
        "",
    );
}

#[test]
fn exit_from_a_callee_called_through_a_function_pointer() {
    check(
        r#"
        int quit(int c) { if (c > 6) exit(c); return c; }
        int keep(int c) { return c + 1; }
        int (*table[2])(int) = { keep, quit };
        int main(void) {
            int i, s = 0;
            for (i = 0; i < 10; i++) s += table[i % 2](i);
            return s;
        }
        "#,
        "",
    );
}

#[test]
fn exit_inside_a_loop() {
    check(
        r#"
        int main(void) {
            int i, s = 0;
            for (i = 0; i < 100; i++) {
                s += i;
                if (s > 50) exit(s);
            }
            return 0;
        }
        "#,
        "",
    );
}

#[test]
fn exit_inside_inlined_callees() {
    // Input `a` exits inside `check`, inlined one level deep; input
    // `b` exits inside `inner`, inlined into `mid` inlined into `main`.
    let src = r#"
        int mode;
        int inner(int v) { if (mode == 'b' && v == 4) exit(9); return v; }
        int mid(int v) { return inner(v) * 2; }
        int check(int v) { if (mode == 'a' && v > 6) exit(v); return v + 1; }
        int main(void) {
            int i, s = 0;
            mode = getchar();
            for (i = 0; i < 10; i++) { s += mid(i % 3); s += check(i); }
            for (i = 0; i < 10; i++) s += mid(i);
            return s;
        }
    "#;
    for input in ["a", "b", "c"] {
        assert!(check(src, input) > 0, "the callees were inlined");
    }
}

#[test]
fn branch_whose_arms_reach_the_same_block() {
    check(
        r#"
        int main(void) {
            int i, s = 0;
            for (i = 0; i < 10; i++) {
                if (i % 3) { }
                s++;
            }
            while (s > 100) { }
            return s;
        }
        "#,
        "",
    );
}

#[test]
fn switch_with_shared_case_and_default_targets() {
    check(
        r#"
        int main(void) {
            int i, s = 0;
            for (i = 0; i < 20; i++) {
                switch (i % 6) {
                    case 0:
                    case 1: s += 1; break;
                    case 2:
                    default: s += 2; break;
                    case 3: break;
                    case 4: continue;
                }
                s += 10;
            }
            switch (s) { case 1: case 2: break; }
            return s;
        }
        "#,
        "",
    );
}

#[test]
fn function_with_several_returns() {
    check(
        r#"
        int classify(int v) {
            if (v < 0) return -1;
            if (v == 0) return 0;
            if (v < 10) return 1;
            return 2;
        }
        int main(void) {
            int i, s = 0;
            for (i = 0; i < 20; i++) s += classify(i - 5) + classify(i * 3);
            return s;
        }
        "#,
        "",
    );
}

#[test]
fn step_limit_cut_is_an_error_without_a_profile() {
    let module = minic::compile(
        r#"
        int main(void) {
            int s = 0;
            while (1) { s++; if (s % 7 == 0) s += 2; }
            return s;
        }
        "#,
    )
    .expect("valid MiniC");
    let program = flowgraph::build_program(module);
    let cfg = config("", 5_000);
    let limit = RuntimeError::StepLimit { limit: 5_000 };
    assert_eq!(run_ast(&program, &cfg).unwrap_err(), limit);
    let cp = compile(&program);
    assert_eq!(cp.execute(&cfg, None).unwrap_err(), limit);
    for level in 1..=3u8 {
        let (ocp, _) = optimize(&cp, &OptPlan::full(&cp, level));
        assert_eq!(ocp.execute(&cfg, None).unwrap_err(), limit, "O{level}");
    }
}
