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

// ----- the C library, pinned by value -----
//
// Both engines run the one C library of `profiler::runtime`, so the
// VM-vs-walker differential cannot catch a change to it: these tests
// pin what it returns and prints, in both engines.

/// Runs `src` on both engines, checks that they agree, and returns
/// the VM's result.
fn run_both(src: &str) -> Result<profiler::RunOutcome, RuntimeError> {
    run_both_on(src, b"")
}

/// [`run_both`] with `input` served to `getchar()`.
fn run_both_on(src: &str, input: &[u8]) -> Result<profiler::RunOutcome, RuntimeError> {
    let p = program(src);
    let config = RunConfig {
        input: input.to_vec(),
        ..RunConfig::default()
    };
    let vm = run(&p, &config);
    let ast = profiler::run_ast(&p, &config);
    match (&vm, &ast) {
        (Ok(v), Ok(a)) => {
            assert_eq!(
                (v.exit_code, &v.output, v.steps),
                (a.exit_code, &a.output, a.steps)
            );
        }
        (Err(v), Err(a)) => assert_eq!(v, a),
        _ => panic!("engines disagree: vm {vm:?}, ast {ast:?}"),
    }
    vm
}

#[test]
fn bytes_past_127_widen_to_two_byte_chars() {
    // A word's low byte becomes one `char`, so byte 200 is 'È': two
    // UTF-8 bytes in `strlen`, in `%s` output and in what `strncpy`
    // copies for one char, and compared as U+00C8 by `strcmp`.
    let out = run_both(
        r#"
        int main(void) {
            char s[4];
            char t[4];
            char d[4];
            s[0] = 200; s[1] = 'a'; s[2] = 0;
            t[0] = 200; t[1] = 'b'; t[2] = 0;
            d[0] = 1; d[1] = 1; d[2] = 1; d[3] = 1;
            strncpy(d, s, 1);
            printf("%d %d %d %d|%s|\n", strlen(s), strcmp(s, "b"), strncmp(s, t, 1),
                   strncmp(s, t, 2), s);
            printf("%d %d %d %d\n", d[0], d[1], d[2], d[3]);
            return 0;
        }
        "#,
    )
    .expect("runs");
    assert_eq!(out.output, b"3 1 0 -1|\xc3\x88a|\n195 136 1 1\n");
}

#[test]
fn rand_sequences_are_fixed() {
    let out = run_both(
        r#"
        int main(void) {
            int a = rand(), b = rand(), c = rand();
            printf("%d %d %d\n", a, b, c);
            srand(42);
            a = rand(); b = rand(); c = rand();
            printf("%d %d %d\n", a, b, c);
            return 0;
        }
        "#,
    )
    .expect("runs");
    assert_eq!(
        out.stdout(),
        "1454299909 1601010478 84930582\n1331268737 973654270 244831125\n"
    );
}

#[test]
fn printf_hex_and_float_conversions() {
    // `%x` prints the 64-bit word; `%e` and `%g` print Rust's shortest
    // round-trip form, `%f` six decimals.
    let out = run_both(
        r#"
        int main(void) {
            printf("%x %x\n", -1, -255);
            printf("%f|%f|%f\n", 2.0 / 3.0, -2.5, 0.0000001);
            printf("%e|%g|%e|%g\n", 1.5, 0.1, 1.0 / 3.0, 1000000.0 * 1000000.0);
            return 0;
        }
        "#,
    )
    .expect("runs");
    assert_eq!(
        out.stdout(),
        "ffffffffffffffff ffffffffffffff01\n\
         0.666667|-2.500000|0.000000\n\
         1.5|0.1|0.3333333333333333|1000000000000\n"
    );
}

#[test]
fn printf_octal_widths_and_flags_print_as_in_c() {
    let out = run_both(
        r#"
        int main(void) {
            printf("%o|%5d|%-3d|%02x|%q\n", 8, 42, 7, 255, 0);
            return 0;
        }
        "#,
    )
    .expect("runs");
    // Widths pad, `-` pads on the right, a width the value already
    // fills adds nothing, and an unknown conversion prints literally.
    assert_eq!(out.stdout(), "10|   42|7  |ff|%q\n");
}

/// Every expected line is what the C library prints for the same
/// call (`%5%` included, which C leaves undefined).
#[test]
fn printf_flags_widths_and_precisions() {
    let out = run_both(
        r#"
        int main(void) {
            printf("%.3f|%5d|%-4s|%05d|%+d|%.2s\n", 15.625, 7, "ab", 42, 3, "xyz");
            printf("%08.3f|%-+6d|% d|%.4d|%6.3d|%-6.2f|%3c|%.0d|%x\n",
                   -2.5, 9, 5, -17, 8, 1.0 / 3.0, 'z', 0, 255);
            printf("%ld|%5.1s|%+.1f|%05s|%%|%5%|\n", 12, "hello", -0.04, "ab");
            printf("%08.3f|%08f|%-08d|%+05d|% 05d|%+x|%.3x|%08.3d\n",
                   2.5, -1.0 / 0.0, 3, 4, 5, 255, 10, 7);
            return 0;
        }
        "#,
    )
    .expect("runs");
    assert_eq!(
        out.stdout(),
        "15.625|    7|ab  |00042|+3|xy\n\
         -002.500|+9    | 5|-0017|   008|0.33  |  z||ff\n\
         12|    h|-0.0|   ab|%|%|\n\
         0002.500|    -inf|3       |+0004| 0005|ff|00a|     007\n"
    );
}

/// `#` and `*` widths and precisions, each line as the C library
/// prints it: a later conversion reads the right argument only if
/// every `*` before it took one.
#[test]
fn printf_alternate_forms_and_star_widths() {
    let out = run_both(
        r#"
        int main(void) {
            printf("%#x|%#o|%*d|%-*d|%.*f|%#x|%*d|%#5x|%#08x\n", 255, 8, 3, 7, 3, 7, 2, 3.14159, 0, -4, 9, 26, 26);
            printf("%#.5o|%#08o|%#o|%#.0o|%#.4x|%.*d|%-*.*d\n", 8, 8, 0, 0, 26, -1, 5, -6, 3, 4);
            return 0;
        }
        "#,
    )
    .expect("runs");
    assert_eq!(
        out.stdout(),
        "0xff|010|  7|7  |3.14|0|9   | 0x1a|0x00001a\n\
         00010|00000010|0|0|0x001a|5|004   \n"
    );
}

/// `%X` and `%e` with a precision, each line as the C library prints
/// it. Before `%X` was a conversion it printed literally and took no
/// argument, so every later conversion read the wrong one.
#[test]
fn printf_upper_hex_and_exponents_with_a_precision() {
    let out = run_both(
        r#"
        int main(void) {
            printf("%X|%#X|%x|%5.1e|%c%c\n", 255, 255, 255, 1.5, 'a', 'b');
            printf("%.0e|%#08X|%-8.2e|%+.3e|%.2e|%.1e|%.3X\n", 12345.0, 26, 0.000123, -2.5, 0.0, 9.96, 10);
            printf("%.2e|%010.2e|%.1e\n", 1e300, -3.0, 1.0 / 0.0);
            return 0;
        }
        "#,
    )
    .expect("runs");
    assert_eq!(
        out.stdout(),
        "FF|0XFF|ff|1.5e+00|ab\n\
         1e+04|0X00001A|1.23e-04|-2.500e+00|0.00e+00|1.0e+01|00A\n\
         1.00e+300|-03.00e+00|inf\n"
    );
}

#[test]
fn a_huge_width_or_precision_is_the_output_budget() {
    // Each would print at least a trillion characters; the padding is
    // refused before anything is written or allocated. A width or
    // precision past `usize` saturates, and a `*` one is held to the
    // same budget.
    for spec in [
        r#""%999999999999d", 1"#,
        r#""%.999999999999d", 1"#,
        r#""%.999999999999f", 1"#,
        r#""%-99999999999999999999999s", 1"#,
        r#""%99999999999999999999999.99999999999999999999999d", 1"#,
        r#""%+.99999999999999999999999d", 1"#,
        r#""%.99999999999999999999999f", 1"#,
        r#""%.999999999999e", 1.5"#,
        r#""%*d", 999999999999, 1"#,
        r#""%.*d", 999999999999, 1"#,
    ] {
        let src = format!("int main(void) {{ printf({spec}); return 0; }}");
        let e = run_both(&src).expect_err("over budget");
        assert!(
            matches!(e, RuntimeError::OutputBudget { .. }),
            "{spec}: {e:?}"
        );
    }
}

#[test]
fn an_over_wide_sprintf_stops_at_the_end_of_its_destination() {
    // The padded result cannot fit between `g` (data) or `l` (stack)
    // and the end of its segment: the error is the one `strcpy` of a
    // too-long string raises at the first store past the segment.
    let src = r#"
        char big[1000];
        char g[4];
        int main(void) {
            char l[4];
            int i, c = getchar();
            for (i = 0; i < 999; i++) big[i] = 'A';
            if (c == 'g') sprintf(g, "%999999999999d", 1);
            if (c == 'G') strcpy(g, big);
            if (c == 'l') sprintf(l, "%.999999999999f", 1.0);
            if (c == 'L') strcpy(l, big);
            return 0;
        }
    "#;
    let err = |input: &[u8]| run_both_on(src, input).expect_err("overflows");
    assert_eq!(err(b"g"), err(b"G"));
    assert_eq!(err(b"l"), err(b"L"));
}

#[test]
fn percent_s_of_an_unterminated_string_is_an_error() {
    // A million words without a NUL end the read.
    let e = run_both(
        r#"
        char big[1000000];
        int main(void) {
            int i;
            for (i = 0; i < 1000000; i++) big[i] = 'A';
            printf("%s", big);
            return 0;
        }
        "#,
    )
    .expect_err("unterminated");
    assert_eq!(e, RuntimeError::Other("unterminated string".into()));
}

#[test]
fn sprintf_stops_at_the_end_of_its_destination_segment() {
    // Three copies of a 999-byte string cannot fit between `g` (data)
    // or `l` (stack) and the end of its segment. `sprintf` fails with
    // the error `strcpy` of one copy raises at the first store past the
    // segment, before it reaches the wild `%s` after the copies: the
    // destination error wins over a later faulting operand.
    let src = r#"
        char big[1000];
        char g[4];
        int main(void) {
            char l[4];
            int i, c = getchar();
            for (i = 0; i < 999; i++) big[i] = 'A';
            if (c == 'g') sprintf(g, "%s%s%s%s", big, big, big, (char *) 99999999);
            if (c == 'G') strcpy(g, big);
            if (c == 'l') sprintf(l, "%s%s%s%s", big, big, big, (char *) 99999999);
            if (c == 'L') strcpy(l, big);
            return 0;
        }
    "#;
    let err = |input: &[u8]| run_both_on(src, input).expect_err("overflows");
    let (data, stack) = (err(b"g"), err(b"l"));
    assert_eq!(data, err(b"G"));
    assert_eq!(stack, err(b"L"));
    for e in [data, stack] {
        let RuntimeError::OutOfBounds { addr } = e else {
            panic!("{e:?}");
        };
        assert_ne!(addr, 99999999, "the wild operand is never read");
    }
    // A result that fits is stored whole.
    let out = run_both(
        r#"
        char d[8];
        int main(void) {
            int n = sprintf(d, "%d-%s", 42, "ab");
            printf("%d %s\n", n, d);
            return 0;
        }
        "#,
    )
    .expect("runs");
    assert_eq!(out.stdout(), "5 42-ab\n");
}

#[test]
fn octal_and_hex_escapes_and_leading_dot_floats_run_as_c() {
    // What gcc's build of the same file prints and returns: `\012` is a
    // newline (it once lexed as a NUL and cut the string at `a`), `\101`
    // and `\x41` are `A`, and `.5`/`.25e1` are floating constants.
    let out = run_both(
        r#"
        int main(void) {
            float h = .5;
            printf("a\012b|\n");
            printf("%c%c %d\n", '\101', '\x41', (int) ((h + .25e1) * 10));
            return '\101';
        }
        "#,
    )
    .expect("runs");
    assert_eq!(out.stdout(), "a\nb|\nAA 30\n");
    assert_eq!(out.exit_code, 65);
}
