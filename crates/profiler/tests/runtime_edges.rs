//! Targeted tests of the interpreter's failure paths, builtin corner
//! cases, and instrumentation details that the happy-path suite tests
//! do not reach.

use profiler::{run, RunConfig, RuntimeError};

fn program(src: &str) -> flowgraph::Program {
    let module = minic::compile(src).expect("valid MiniC");
    flowgraph::build_program(module)
}

fn run_ok(src: &str) -> profiler::RunOutcome {
    run(&program(src), &RunConfig::default()).expect("run succeeds")
}

fn run_err(src: &str) -> RuntimeError {
    run(&program(src), &RunConfig::default()).expect_err("run should fail")
}

#[test]
fn undefined_function_call_is_reported() {
    let e = run_err("int helper(int x); int main(void) { return helper(1); }");
    assert!(matches!(e, RuntimeError::Undefined { name } if name == "helper"));
}

#[test]
fn indirect_call_through_garbage_is_reported() {
    let e = run_err(
        r#"
        int main(void) {
            int garbage = 12345;
            int (*fp)(int);
            fp = garbage;     /* K&R-permissive int -> fn-pointer */
            return fp(1);
        }
        "#,
    );
    assert_eq!(e, RuntimeError::NotAFunction);
}

#[test]
fn no_main_is_reported() {
    let e = run_err("int helper(void) { return 1; }");
    assert_eq!(e, RuntimeError::NoMain);
}

#[test]
fn wild_address_is_out_of_bounds() {
    let e = run_err(
        r#"
        int main(void) {
            int *p = (int *) 99999999;
            return *p;
        }
        "#,
    );
    assert!(matches!(e, RuntimeError::OutOfBounds { .. }));
}

#[test]
fn negative_modulo_truncates_toward_zero() {
    // C99 semantics: -7 % 3 == -1, -7 / 3 == -2.
    let out = run_ok(
        r#"
        int main(void) {
            int a = -7, b = 3;
            printf("%d %d %d %d\n", a / b, a % b, (-a) / (-b), a % (-b));
            return 0;
        }
        "#,
    );
    assert_eq!(out.stdout(), "-2 -1 -2 -1\n");
}

#[test]
fn shift_semantics() {
    let out = run_ok(
        r#"
        int main(void) {
            printf("%d %d %d\n", 1 << 10, -16 >> 2, (1 << 4) >> 4);
            return 0;
        }
        "#,
    );
    assert_eq!(out.stdout(), "1024 -4 1\n");
}

#[test]
fn printf_octal_and_width_flags_are_tolerated() {
    let out = run_ok(
        r#"
        int main(void) {
            printf("%o|%5d|%-3d|%02x|%q\n", 8, 42, 7, 255, 0);
            return 0;
        }
        "#,
    );
    // Width/precision are skipped (not implemented), conversions work,
    // unknown conversions print literally.
    assert_eq!(out.stdout(), "10|42|7|ff|%q\n");
}

#[test]
fn strncpy_pads_and_strncmp_limits() {
    let out = run_ok(
        r#"
        int main(void) {
            char buf[8];
            strncpy(buf, "abcdef", 4);
            printf("%d\n", buf[3]);
            printf("%d\n", buf[4] == 0 ? 1 : 0); /* NUL-padded? no: only n chars */
            printf("%d %d\n", strncmp("abcdef", "abcxyz", 3), strncmp("abcdef", "abcxyz", 4));
            return 0;
        }
        "#,
    );
    let text = out.stdout();
    let lines: Vec<&str> = text.trim().lines().map(str::trim).collect();
    assert_eq!(lines[0], "100"); // 'd'
    assert_eq!(lines[2], "0 -1");
}

#[test]
fn calloc_zeroes() {
    let out = run_ok(
        r#"
        int main(void) {
            int *p = (int *) calloc(8, 1);
            int i, s = 0;
            for (i = 0; i < 8; i++) s += p[i];
            return s;
        }
        "#,
    );
    assert_eq!(out.exit_code, 0);
}

#[test]
fn comma_and_compound_assignment_results() {
    let out = run_ok(
        r#"
        int main(void) {
            int a = 1, b;
            b = (a += 2, a *= 3, a - 1);
            int c = 10;
            c <<= 2; c |= 1; c ^= 4; c &= 63; c %= 40; c -= 1; c /= 2;
            return b * 100 + c;
        }
        "#,
    );
    // a = 9, b = 8; c: 10<<2=40, |1=41, ^4=45, &63=45, %40=5, -1=4, /2=2.
    assert_eq!(out.exit_code, 802);
}

#[test]
fn pre_and_post_increment_on_pointers() {
    let out = run_ok(
        r#"
        int arr[5] = {10, 20, 30, 40, 50};
        int main(void) {
            int *p = arr;
            int a = *p++;
            int b = *++p;
            int c = *--p;
            int d = *p--;
            return a * 1000 + b * 100 + c * 10 + d;
        }
        "#,
    );
    // a=10 (p->1), b=30 (p->2), c=20 (p->1), d=20 (p->0).
    assert_eq!(out.exit_code, 10 * 1000 + 30 * 100 + 20 * 10 + 20);
}

#[test]
fn ternary_branch_counts_are_recorded() {
    let out = run_ok(
        r#"
        int main(void) {
            int i, s = 0;
            for (i = 0; i < 9; i++) s += (i % 3 == 0) ? 10 : 1;
            return s;
        }
        "#,
    );
    assert_eq!(out.exit_code, 36);
    // The ternary site: 3 taken, 6 not taken.
    assert!(out.profile.branch_counts.contains(&(3, 6)));
}

#[test]
fn function_invocations_count_indirect_calls() {
    let out = run_ok(
        r#"
        int f(int x) { return x; }
        int main(void) {
            int (*p)(int) = f;
            int i, s = 0;
            for (i = 0; i < 4; i++) s += p(i);
            return s + f(10);
        }
        "#,
    );
    assert_eq!(out.profile.func_counts[0], 5);
}

#[test]
fn getchar_eof_is_minus_one_forever() {
    let out = run_ok(
        r#"
        int main(void) {
            int a = getchar();
            int b = getchar();
            return (a == -1) + (b == -1);
        }
        "#,
    );
    assert_eq!(out.exit_code, 2);
}

#[test]
fn string_literals_are_interned_and_stable() {
    let out = run_ok(
        r#"
        int main(void) {
            char *a = "same";
            char *b = "same";
            return a == b; /* interned: same address */
        }
        "#,
    );
    assert_eq!(out.exit_code, 1);
}

#[test]
fn nested_struct_array_access() {
    let out = run_ok(
        r#"
        struct inner { int vals[3]; };
        struct outer { struct inner rows[2]; int tag; };
        struct outer grid[2];
        int main(void) {
            grid[1].rows[0].vals[2] = 7;
            grid[1].tag = 3;
            struct outer *p = &grid[1];
            return p->rows[0].vals[2] * 10 + p->tag;
        }
        "#,
    );
    assert_eq!(out.exit_code, 73);
}

#[test]
fn float_to_int_conversion_truncates() {
    let out = run_ok(
        r#"
        int main(void) {
            float x = 3.9;
            float y = -3.9;
            int a = (int) x;
            int b = (int) y;
            return a * 10 + (b == -3 ? 1 : 0);
        }
        "#,
    );
    assert_eq!(out.exit_code, 31);
}

#[test]
fn exit_skips_remaining_output_but_keeps_prior() {
    let out = run_ok(
        r#"
        int main(void) {
            printf("before\n");
            exit(7);
            printf("after\n");
            return 0;
        }
        "#,
    );
    assert_eq!(out.exit_code, 7);
    assert_eq!(out.stdout(), "before\n");
}

#[test]
fn cost_model_charges_callers_for_builtin_calls() {
    let out = run_ok(
        r#"
        int chatty(void) { int i; for (i = 0; i < 50; i++) putchar('x'); return 0; }
        int main(void) { chatty(); return 0; }
        "#,
    );
    assert!(out.profile.func_cost[0] > out.profile.func_cost[1]);
}
