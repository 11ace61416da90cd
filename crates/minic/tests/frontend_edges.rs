//! Front-end edge cases: preprocessor, parser recovery behaviour,
//! tricky declarators, and semantic corner cases beyond the unit tests
//! inside the crate.

use minic::compile;
use minic::sema::Resolution;

#[test]
fn macros_expand_inside_macros_and_arrays() {
    let m = compile(
        r#"
        #define ROWS 4
        #define COLS (ROWS * 2)
        #define CELLS (ROWS * COLS)
        int grid[CELLS];
        int main(void) { return sizeof(int) * CELLS; }
        "#,
    )
    .unwrap();
    assert_eq!(m.globals[0].size, 32);
}

#[test]
fn octal_hex_char_and_suffixed_literals() {
    let m = compile(
        r#"
        int a = 0x10;
        int b = 010;
        int c = 'A';
        int d = 100L;
        int e = 1000UL;
        "#,
    )
    .unwrap();
    let vals: Vec<i64> = m
        .globals
        .iter()
        .map(|g| match g.init[0] {
            minic::sema::InitWord::Int(v) => v,
            _ => panic!(),
        })
        .collect();
    assert_eq!(vals, vec![16, 8, 65, 100, 1000]);
}

#[test]
fn deeply_nested_declarators() {
    let m = compile(
        r#"
        char matrix[3][4][5];
        int *pointers[10];
        int (*fns[3])(int, char *);
        int main(void) { return sizeof matrix + sizeof pointers + sizeof fns; }
        "#,
    )
    .unwrap();
    assert_eq!(m.globals[0].size, 60);
    assert_eq!(m.globals[1].size, 10);
    assert_eq!(m.globals[2].size, 3);
}

#[test]
fn shadowing_gets_distinct_locals() {
    let m = compile(
        r#"
        int f(int x) {
            int y = x;
            {
                int y = x * 2;
                x = y;
            }
            return y + x;
        }
        "#,
    )
    .unwrap();
    let f = m.function(m.function_id("f").unwrap());
    // x, outer y, inner y.
    assert_eq!(f.locals.len(), 3);
    let names: Vec<&str> = f.locals.iter().map(|l| l.name.as_str()).collect();
    assert_eq!(names, vec!["x", "y", "y"]);
}

#[test]
fn for_loop_scope_does_not_leak() {
    assert!(compile("int f(void) { for (int i = 0; i < 3; i++) { } return i; }").is_err());
}

#[test]
fn block_scope_does_not_leak() {
    assert!(compile("int f(void) { { int hidden = 1; } return hidden; }").is_err());
}

#[test]
fn builtins_are_shadowed_by_user_functions() {
    // A user-defined `abs` takes priority over the builtin.
    let m = compile(
        r#"
        int abs(int x) { return 42; }
        int main(void) { return abs(-5); }
        "#,
    )
    .unwrap();
    let call = &m.side.call_sites[0];
    assert!(matches!(
        call.callee,
        minic::sema::CalleeKind::Direct(f) if m.function(f).name == "abs"
    ));
}

#[test]
fn locals_shadow_globals_and_functions() {
    let m = compile(
        r#"
        int value = 10;
        int f(int value) { return value; }
        "#,
    )
    .unwrap();
    // The parameter use resolves to the local, not the global.
    let f = m.function_id("f").unwrap();
    let body = m.function(f).body.as_ref().unwrap();
    let mut found = false;
    body.walk_exprs(&mut |e| {
        if let minic::ast::ExprKind::Ident(name) = &e.kind {
            if name == "value" {
                assert!(matches!(m.side.resolutions[&e.id], Resolution::Local(_)));
                found = true;
            }
        }
    });
    assert!(found);
}

#[test]
fn prototype_then_definition_share_one_function() {
    let m = compile(
        r#"
        int twice(int x);
        int use_it(int y) { return twice(y); }
        int twice(int x) { return x * 2; }
        "#,
    )
    .unwrap();
    assert_eq!(m.functions.len(), 2);
    assert!(m.function(m.function_id("twice").unwrap()).is_defined());
}

#[test]
fn conflicting_redeclaration_is_rejected() {
    assert!(compile("int f(int x); float f(int x) { return 1.0; }").is_err());
    assert!(compile("int f(void) { return 0; } int f(void) { return 1; }").is_err());
}

#[test]
fn void_variables_are_rejected() {
    assert!(compile("void v; int main(void) { return 0; }").is_err());
    assert!(compile("int main(void) { void x; return 0; }").is_err());
}

#[test]
fn switch_requires_integer_scrutinee() {
    assert!(compile("int f(float x) { switch (x) { case 1: return 1; } return 0; }").is_err());
}

#[test]
fn case_labels_fold_expressions() {
    let m = compile(
        r#"
        #define BASE 10
        int f(int n) {
            switch (n) {
                case BASE + 1: return 1;
                case BASE * 2: return 2;
            }
            return 0;
        }
        "#,
    )
    .unwrap();
    let sw = &m.side.switches[0];
    let values = &m.side.case_values[&sw.id];
    assert_eq!(values, &vec![vec![11], vec![20]]);
}

#[test]
fn string_escapes_round_trip_through_sema() {
    let m = compile(r#"char *s = "a\tb\\c\"d\n";"#).unwrap();
    assert_eq!(m.strings[0], "a\tb\\c\"d\n");
}

#[test]
fn empty_function_bodies_and_empty_statements() {
    let m = compile("void nop(void) { } int main(void) { ;;; nop(); return 0; }").unwrap();
    assert_eq!(m.functions.len(), 2);
}

#[test]
fn address_of_array_element_and_global() {
    let m = compile(
        r#"
        int arr[4];
        int *p = &arr;      /* &array: permissive */
        int main(void) {
            int *q = &arr[2];
            return q - arr;
        }
        "#,
    )
    .unwrap();
    assert!(matches!(
        m.globals[1].init[0],
        minic::sema::InitWord::GlobalAddr(_)
    ));
}

#[test]
fn dangling_else_chain_parses() {
    let m = compile(
        r#"
        int f(int a, int b, int c) {
            if (a)
                if (b) return 1;
                else if (c) return 2;
                else return 3;
            return 4;
        }
        "#,
    )
    .unwrap();
    // Three if-branches registered.
    assert_eq!(m.side.branches.len(), 3);
}

#[test]
fn line_numbers_in_errors_are_accurate() {
    let src = "int main(void) {\n  int x = 1;\n  int y = z;\n  return x;\n}";
    let err = compile(src).unwrap_err();
    assert!(err.render(src).contains("line 3"), "{}", err.render(src));
}

#[test]
fn sizeof_in_macro_context() {
    let m = compile(
        r#"
        struct big { int a[7]; int b; };
        int main(void) {
            struct big x;
            x.b = 1;
            return sizeof x + sizeof(struct big) + sizeof x.a;
        }
        "#,
    )
    .unwrap();
    let f = m.function(m.function_id("main").unwrap());
    assert_eq!(f.locals[0].size, 8);
}

#[test]
fn comma_separated_declarations_mix_derived_types() {
    let m = compile("int a, *b, c[3], (*d)(int);").unwrap();
    assert_eq!(m.globals.len(), 4);
    assert_eq!(m.globals[0].size, 1);
    assert_eq!(m.globals[2].size, 3);
}

#[test]
fn nesting_past_the_limit_is_a_parse_diagnostic() {
    use minic::error::ErrorKind;
    use minic::parser::MAX_NESTING;
    let deep = MAX_NESTING as usize;
    let shapes: [fn(usize) -> String; 4] = [
        // Parentheses, a long left-associative sum, nested blocks and
        // a long pointer declarator: each reaches the limit a
        // different way.
        |n| {
            format!(
                "int main(void) {{ return {}1{}; }}",
                "(".repeat(n),
                ")".repeat(n)
            )
        },
        |n| format!("int main(void) {{ return {}1; }}", "1 + ".repeat(n)),
        |n| {
            format!(
                "int main(void) {{ {}{} return 0; }}",
                "{".repeat(n),
                "}".repeat(n)
            )
        },
        |n| format!("int main(void) {{ int {}p; return 0; }}", "*".repeat(n)),
    ];
    for make in shapes {
        let ok = make(deep / 4);
        compile(&ok).unwrap_or_else(|e| panic!("{}", e.render(&ok)));
        let bad = make(deep * 2);
        let err = compile(&bad).expect_err("past the nesting limit");
        assert_eq!(err.kind(), ErrorKind::Parse);
        let msg = err.render(&bad);
        assert!(
            msg.contains("line 1") && msg.contains("nesting too deep"),
            "{msg}"
        );
    }
}
