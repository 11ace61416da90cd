//! Tests for `enum` support: declaration forms, constant values,
//! resolution priority, and end-to-end behaviour.

use minic::compile;

#[test]
fn sequential_and_explicit_values() {
    let m = compile(
        r#"
        enum color { RED, GREEN, BLUE };
        enum flags { A = 1, B = 2, C = 4, D };
        int x = BLUE;
        int y = D;
        "#,
    )
    .unwrap();
    assert_eq!(m.enum_const("RED").unwrap(), 0);
    assert_eq!(m.enum_const("GREEN").unwrap(), 1);
    assert_eq!(m.enum_const("BLUE").unwrap(), 2);
    assert_eq!(m.enum_const("C").unwrap(), 4);
    assert_eq!(m.enum_const("D").unwrap(), 5);
    assert_eq!(m.globals[0].init[0], minic::sema::InitWord::Int(2));
    assert_eq!(m.globals[1].init[0], minic::sema::InitWord::Int(5));
}

#[test]
fn enum_values_reference_earlier_constants() {
    let m = compile("enum sizes { SMALL = 4, BIG = SMALL * 8, HUGE = BIG + 1 };").unwrap();
    assert_eq!(m.enum_const("BIG").unwrap(), 32);
    assert_eq!(m.enum_const("HUGE").unwrap(), 33);
}

#[test]
fn anonymous_enums_work() {
    let m = compile("enum { OK, FAIL = -1 }; int r = FAIL;").unwrap();
    assert_eq!(m.enum_const("FAIL").unwrap(), -1);
}

#[test]
fn enum_type_in_declarations_is_int() {
    let m = compile(
        r#"
        enum state { IDLE, BUSY };
        enum state current = IDLE;
        int f(enum state s) { return s == BUSY; }
        "#,
    )
    .unwrap();
    assert_eq!(m.globals[0].ty, minic::types::Type::Int);
}

#[test]
fn enum_constants_as_array_dims_and_case_labels() {
    let m = compile(
        r#"
        enum { NSLOTS = 8 };
        int table[NSLOTS];
        int f(int n) {
            switch (n) {
                case NSLOTS: return 1;
                default: return 0;
            }
        }
        "#,
    )
    .unwrap();
    assert_eq!(m.globals[0].size, 8);
    let sw = &m.side.switches[0];
    assert_eq!(m.side.case_values(sw.id)[0], vec![8]);
}

#[test]
fn locals_shadow_enum_constants() {
    let m = compile(
        r#"
        enum { VALUE = 9 };
        int f(int VALUE) { return VALUE; }
        "#,
    )
    .unwrap();
    // The parameter use resolves to the local, not the enum constant.
    let f = m.function(m.function_id("f").unwrap());
    let body = f.body.as_ref().unwrap();
    body.walk_exprs(&mut |e| {
        if let minic::ast::ExprKind::Ident(_) = e.kind {
            assert!(matches!(
                m.side.resolution(e.id).unwrap(),
                minic::sema::Resolution::Local(_)
            ));
        }
    });
}

#[test]
fn duplicate_enum_constant_is_rejected() {
    assert!(compile("enum a { X }; enum b { X };").is_err());
}

#[test]
fn assigning_to_enum_constant_is_rejected() {
    assert!(compile("enum { K = 1 }; int f(void) { K = 2; return K; }").is_err());
}

#[test]
fn constant_enum_conditions_fold_in_branch_registration() {
    let m = compile(
        r#"
        enum { DEBUG = 0 };
        int f(int x) {
            if (DEBUG) return -x;
            return x;
        }
        "#,
    )
    .unwrap();
    assert_eq!(m.side.branches[0].const_cond, Some(false));
}

#[test]
fn enums_pretty_print_round_trip() {
    let src = r#"
        enum color { RED, GREEN = 5, BLUE };
        int f(void) { return GREEN; }
    "#;
    let unit = minic::parser::parse(src).unwrap();
    let printed = minic::pretty::print_unit(&unit);
    let unit2 = minic::parser::parse(&printed).unwrap();
    assert_eq!(printed, minic::pretty::print_unit(&unit2));
    let m = compile(&printed).unwrap();
    assert_eq!(m.enum_const("BLUE").unwrap(), 6);
}

#[test]
fn enum_in_cast_position_is_rejected_gracefully() {
    // `(enum color) x` is not in the cast grammar; it should be a
    // parse error, not a panic.
    assert!(
        minic::parser::parse("enum color { R }; int f(int x) { return (enum color) x; }").is_err()
            || compile("enum color { R }; int f(int x) { return (enum color) x; }").is_ok()
    );
}
