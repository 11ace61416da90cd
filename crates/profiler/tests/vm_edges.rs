//! Targeted bytecode-VM edge cases: irregular control flow the
//! compiler's block layout must get right (goto across loop
//! boundaries, switch fallthrough, sparse vs. dense jump tables),
//! call-machinery limits (recursion depth, function pointers behind
//! short-circuit guards), and mid-block step-limit aborts. Each test
//! also cross-checks the AST walker so the two engines can't drift
//! apart on these paths.

use profiler::{run, run_ast, ExecScratch, RunConfig, RunOutcome, RuntimeError};

fn program(src: &str) -> flowgraph::Program {
    let module = minic::compile(src).expect("valid MiniC");
    flowgraph::build_program(module)
}

/// Runs on both engines, asserts full agreement, returns the VM's.
fn run_both(src: &str, config: &RunConfig) -> Result<RunOutcome, RuntimeError> {
    let p = program(src);
    let vm = run(&p, config);
    let ast = run_ast(&p, config);
    match (&vm, &ast) {
        (Ok(v), Ok(a)) => {
            assert_eq!(v.exit_code, a.exit_code);
            assert_eq!(v.output, a.output);
            assert_eq!(v.steps, a.steps);
            assert_eq!(v.profile, a.profile);
        }
        (Err(v), Err(a)) => assert_eq!(v, a),
        _ => panic!("engines diverged: vm={vm:?} ast={ast:?}"),
    }
    vm
}

fn run_ok(src: &str) -> RunOutcome {
    run_both(src, &RunConfig::default()).expect("run succeeds")
}

#[test]
fn goto_out_of_nested_loops() {
    let out = run_ok(
        r#"
        int main(void) {
            int i, j, hits = 0;
            for (i = 0; i < 10; i++) {
                for (j = 0; j < 10; j++) {
                    hits++;
                    if (i * 10 + j == 23) goto done;
                }
            }
        done:
            return hits;
        }
        "#,
    );
    assert_eq!(out.exit_code, 24);
}

#[test]
fn goto_into_loop_body_skips_the_header_once() {
    // Jumping into the middle of a loop: the first iteration enters at
    // the label, then control falls into the normal back-edge path.
    let out = run_ok(
        r#"
        int main(void) {
            int i = 7, sum = 0;
            goto inside;
            while (i < 10) {
        inside:
                sum += i;
                i++;
            }
            return sum;
        }
        "#,
    );
    assert_eq!(out.exit_code, 7 + 8 + 9);
}

#[test]
fn goto_backwards_builds_a_loop_with_counted_edges() {
    let out = run_ok(
        r#"
        int main(void) {
            int n = 0;
        again:
            n++;
            if (n < 6) goto again;
            return n;
        }
        "#,
    );
    assert_eq!(out.exit_code, 6);
    // The goto's back edge ran five times.
    assert!(out.profile.edge_counts.values().any(|&c| c == 5));
}

#[test]
fn goto_into_for_loop_skips_init_and_first_test() {
    // Entering a `for` body by label bypasses both the init and the
    // first condition test; the step/test machinery must take over from
    // the back edge onward. Found worth pinning by fuzzing: the
    // generator's goto-into-loop shape exercises exactly this layout.
    let out = run_ok(
        r#"
        int main(void) {
            int i = 5, sum = 0;
            goto body;
            for (i = 0; i < 8; i++) {
        body:
                sum = sum * 10 + i;
            }
            return sum % 251;
        }
        "#,
    );
    // Entered at i=5: visits 5, 6, 7 -> sum 567.
    assert_eq!(out.exit_code, 567 % 251);
    // The loop ran three bodies but only three step->test traversals;
    // no block executed more than four times (test runs 5,6,7,8).
    let max = out.profile.block_counts[0].iter().max().copied().unwrap();
    assert!(max <= 4, "unexpected hot block: {max}");
}

#[test]
fn switch_fallthrough_chains_run_in_order() {
    let out = run_ok(
        r#"
        int main(void) {
            int trace = 0, v;
            for (v = 0; v < 4; v++) {
                switch (v) {
                    case 0: trace = trace * 10 + 1; /* fall through */
                    case 1: trace = trace * 10 + 2; break;
                    case 2: trace = trace * 10 + 3; /* fall through */
                    default: trace = trace * 10 + 4;
                }
            }
            /* v=0: 12, v=1: 2, v=2: 34, v=3: 4 */
            printf("%d\n", trace);
            return 0;
        }
        "#,
    );
    assert_eq!(out.stdout(), "122344\n");
}

#[test]
fn switch_falls_through_into_a_middle_default() {
    // The default section sits between two cases: case 0 falls through
    // *into* it, and the default itself falls through into case 9. Both
    // the jump routing (unmatched values land mid-switch) and the
    // sequential fallthrough order must hold.
    let out = run_ok(
        r#"
        int classify(int v) {
            int trace = 0;
            switch (v) {
                case 0: trace = trace * 10 + 1; /* fall through */
                default: trace = trace * 10 + 2; /* fall through */
                case 9: trace = trace * 10 + 3; break;
                case 5: trace = trace * 10 + 4;
            }
            return trace;
        }
        int main(void) {
            /* 0 -> 123, 4 -> 23, 9 -> 3, 5 -> 4 */
            printf("%d %d %d %d\n", classify(0), classify(4), classify(9), classify(5));
            return 0;
        }
        "#,
    );
    assert_eq!(out.stdout(), "123 23 3 4\n");
}

#[test]
fn sparse_switch_uses_search_not_a_table() {
    // Case values spread over ~2 million: a dense table would be
    // enormous, so the compiler must fall back to binary search while
    // keeping first-match semantics.
    let out = run_ok(
        r#"
        int pick(int v) {
            switch (v) {
                case -1000000: return 1;
                case 0: return 2;
                case 7: return 3;
                case 1000000: return 4;
                default: return 9;
            }
        }
        int main(void) {
            printf("%d %d %d %d %d %d\n",
                pick(-1000000), pick(0), pick(7),
                pick(1000000), pick(8), pick(-999999));
            return 0;
        }
        "#,
    );
    assert_eq!(out.stdout(), "1 2 3 4 9 9\n");
}

#[test]
fn dense_switch_with_holes_routes_gaps_to_default() {
    let out = run_ok(
        r#"
        int pick(int v) {
            switch (v) {
                case 0: return 10;
                case 1: return 11;
                case 3: return 13;   /* hole at 2 */
                case 4: return 14;
                default: return -1;
            }
        }
        int main(void) {
            int v, acc = 0;
            for (v = -1; v <= 5; v++) acc = acc * 100 + (pick(v) + 20);
            return acc > 0;
        }
        "#,
    );
    assert_eq!(out.exit_code, 1);
}

#[test]
fn recursion_to_the_exact_depth_limit_succeeds() {
    let src = r#"
        int down(int n) { if (n == 0) return 0; return 1 + down(n - 1); }
        int main(void) { return down(40); }
    "#;
    // main is frame 1, so down() may nest 41 deep at limit 42.
    let cfg = RunConfig {
        max_call_depth: 42,
        ..RunConfig::default()
    };
    let out = run_both(src, &cfg).expect("exactly at the limit");
    assert_eq!(out.exit_code, 40);
}

#[test]
fn recursion_one_past_the_limit_overflows() {
    let src = r#"
        int down(int n) { if (n == 0) return 0; return 1 + down(n - 1); }
        int main(void) { return down(42); }
    "#;
    let cfg = RunConfig {
        max_call_depth: 42,
        ..RunConfig::default()
    };
    let err = run_both(src, &cfg).expect_err("one frame too deep");
    assert_eq!(err, RuntimeError::StackOverflow { limit: 42 });
}

#[test]
fn zero_depth_limit_overflows_before_main() {
    let cfg = RunConfig {
        max_call_depth: 0,
        ..RunConfig::default()
    };
    let err = run_both("int main(void) { return 0; }", &cfg).expect_err("no room for main");
    assert_eq!(err, RuntimeError::StackOverflow { limit: 0 });
}

#[test]
fn function_pointer_call_behind_short_circuit_guard() {
    // The fp(...) call sits in the right operand of &&, so the VM's
    // branchy lowering of && must still evaluate (and count) the call
    // only when the guard passes.
    let out = run_ok(
        r#"
        int calls;
        int odd(int n) { calls++; return n & 1; }
        int main(void) {
            int (*fp)(int);
            int n, picked = 0;
            fp = odd;
            for (n = 0; n < 8; n++) {
                if (n > 2 && fp(n)) picked++;
            }
            printf("%d %d\n", picked, calls);
            return 0;
        }
        "#,
    );
    // Guard passes for n in 3..8 (5 calls); odd among them: 3, 5, 7.
    assert_eq!(out.stdout(), "3 5\n");
}

#[test]
fn mutual_recursion_through_function_pointers() {
    // even/odd recursion where every recursive call goes through a
    // function pointer: each leg is an *indirect* call site, so the
    // profiler must attribute invocations without any direct call-graph
    // edge between the two functions.
    let out = run_ok(
        r#"
        int is_odd(int n);
        int (*podd)(int);
        int (*peven)(int);
        int is_even(int n) { if (n == 0) return 1; return podd(n - 1); }
        int is_odd(int n) { if (n == 0) return 0; return peven(n - 1); }
        int main(void) {
            podd = is_odd;
            peven = is_even;
            printf("%d %d\n", peven(10), podd(7));
            return 0;
        }
        "#,
    );
    assert_eq!(out.stdout(), "1 1\n");
    // peven(10): even 6x, odd 5x. podd(7): odd 4x, even 4x.
    let total: u64 = out.profile.func_counts.iter().sum();
    assert_eq!(total, 1 + 10 + 9); // main + is_even 10 + is_odd 9
                                   // Every non-main invocation flowed through an indirect site.
    let sites: u64 = out.profile.call_site_counts.iter().sum();
    assert!(sites >= 19 - 2, "call sites undercounted: {sites}");
}

#[test]
fn null_function_pointer_behind_guard_never_fires() {
    let out = run_ok(
        r#"
        int main(void) {
            int (*fp)(int);
            fp = 0;
            if (0 && fp(3)) return 1;
            return 2;
        }
        "#,
    );
    assert_eq!(out.exit_code, 2);
}

#[test]
fn step_limit_aborts_mid_block() {
    // A long straight-line block: the batched-tick VM must report the
    // same StepLimit as the per-node AST walker even when the limit
    // falls in the middle of the block's fused tick.
    let src = r#"
        int main(void) {
            int a = 0;
            while (1) {
                a += 1; a += 2; a += 3; a += 4; a += 5;
                a += 6; a += 7; a += 8; a += 9; a += 10;
            }
            return a;
        }
    "#;
    for limit in [50, 51, 52, 53, 99, 1000] {
        let cfg = RunConfig {
            max_steps: limit,
            ..RunConfig::default()
        };
        let err = run_both(src, &cfg).expect_err("must hit the limit");
        assert_eq!(err, RuntimeError::StepLimit { limit });
    }
}

#[test]
fn compile_once_execute_many_inputs() {
    // The public compile/execute split: one artifact, several inputs.
    let p = program(
        r#"
        int main(void) {
            int c, n = 0;
            while ((c = getchar()) != -1) n = n * 10 + (c - '0');
            return n;
        }
        "#,
    );
    let compiled = profiler::compile(&p);
    for (input, want) in [("7", 7), ("19", 19), ("305", 305)] {
        let out = compiled
            .execute(
                &RunConfig::with_input(input),
                &mut ExecScratch::default(),
                None,
            )
            .expect("runs clean");
        assert_eq!(out.exit_code, want);
    }
}
