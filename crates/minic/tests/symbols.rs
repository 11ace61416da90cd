//! One spelling in every namespace: names are interned symbols, so a
//! spelling that is at once a global, a shadowing local, a parameter,
//! a function, a struct tag, a field, a label, an enum constant and a
//! macro must still resolve per C scoping in each position, and every
//! diagnostic must spell the name it is about.

use minic::ast::{Expr, ExprKind, StmtKind};
use minic::compile;
use minic::sema::{CalleeKind, InitWord, LocalId, Module, Resolution};

/// The expressions of `func`'s body, pre-order.
fn exprs<'m>(m: &'m Module, func: &str) -> Vec<&'m Expr> {
    let f = m.function(m.function_id(func).expect("function exists"));
    let mut out = Vec::new();
    f.body.as_ref().unwrap().walk_exprs(&mut |e| out.push(e));
    out
}

/// What each identifier spelled `name` in `func` resolves to, pre-order.
fn resolutions(m: &Module, func: &str, name: &str) -> Vec<Resolution> {
    exprs(m, func)
        .into_iter()
        .filter(|e| matches!(e.kind, ExprKind::Ident(s) if &m.names[s] == name))
        .map(|e| m.side.resolution(e.id).expect("sema resolved every name"))
        .collect()
}

#[test]
fn globals_locals_parameters_tags_fields_and_labels_share_a_spelling() {
    let m = compile(
        r#"
        struct v { int v; int w; };
        struct u { int w; int v; };
        int v = 1;
        int get(void) { return v; }
        int shadow(int v) {
            {
                int v = 2;
                {
                    int v = 3;
                    v = v + 1;
                }
                v = v + 1;
            }
            return v;
        }
        int fields(struct v *p, struct u *q) {
            goto v;
        v:
            return p->v + q->v;
        }
        "#,
    )
    .unwrap();
    let global = Resolution::Global(m.globals[0].id);
    assert_eq!(m.globals[0].name, "v");
    assert_eq!(resolutions(&m, "get", "v"), [global]);

    // The innermost declaration wins, and closing a block restores
    // the one it shadowed: parameter 0, outer local 1, inner local 2.
    let local = |i| Resolution::Local(LocalId(i));
    assert_eq!(
        resolutions(&m, "shadow", "v"),
        [local(2), local(2), local(1), local(1), local(0)]
    );
    let f = m.function(m.function_id("shadow").unwrap());
    assert!(f.locals.iter().all(|l| &m.names[l.name] == "v"));

    // Two structs share the field spellings at different offsets.
    let [v, u] = ["v", "u"].map(|s| m.names.get(s).unwrap());
    let (sv, su) = (m.structs.by_name(v).unwrap(), m.structs.by_name(u).unwrap());
    assert_ne!(sv, su);
    assert_eq!(m.structs.layout(sv).field(v).unwrap().offset, 0);
    assert_eq!(m.structs.layout(su).field(v).unwrap().offset, 1);
    let offsets: Vec<usize> = exprs(&m, "fields")
        .into_iter()
        .filter(|e| matches!(e.kind, ExprKind::Member(..)))
        .map(|e| {
            m.side
                .field_offset(e.id)
                .expect("sema resolved every field")
        })
        .collect();
    assert_eq!(offsets, [0, 1]);

    // The label is its own namespace too.
    let body = m.function(m.function_id("fields").unwrap()).body.as_ref();
    let mut labels = Vec::new();
    body.unwrap().walk(&mut |s| match s.kind {
        StmtKind::Goto(l) | StmtKind::Label(l, _) => labels.push(&m.names[l]),
        _ => {}
    });
    assert_eq!(labels, ["v", "v"]);
}

#[test]
fn a_function_and_the_parameter_that_hides_it_share_a_spelling() {
    let m = compile(
        r#"
        int v(int n) { return n + 1; }
        int call(void) { return v(1); }
        int hide(int v) { return v; }
        int (*fp)(int) = v;
        "#,
    )
    .unwrap();
    let fv = m.function_id("v").unwrap();
    assert_eq!(resolutions(&m, "call", "v"), [Resolution::Func(fv)]);
    let call = m.call_sites_in(m.function_id("call").unwrap()).next();
    assert_eq!(call.unwrap().callee, CalleeKind::Direct(fv));
    assert_eq!(
        resolutions(&m, "hide", "v"),
        [Resolution::Local(LocalId(0))]
    );
    assert_eq!(m.globals[0].init, [InitWord::Fn(fv)]);
}

#[test]
fn an_enum_constant_and_the_local_that_hides_it_share_a_spelling() {
    let m = compile(
        r#"
        enum v { v = 7, w };
        int get(void) { return v + w; }
        int hide(void) { int v = 1; return v; }
        int sized[v];
        "#,
    )
    .unwrap();
    assert_eq!(m.enum_const("v"), Some(7));
    assert_eq!(m.enum_const("w"), Some(8));
    assert_eq!(resolutions(&m, "get", "v"), [Resolution::EnumConst(7)]);
    assert_eq!(
        resolutions(&m, "hide", "v"),
        [Resolution::Local(LocalId(0))]
    );
    assert_eq!(m.globals[0].size, 7);
}

#[test]
fn a_define_replaces_the_spelling_from_where_it_appears() {
    let m = compile(
        r#"
        int v = 5;
        int before(void) { return v; }
        #define v 40
        int after(void) { return v; }
        "#,
    )
    .unwrap();
    assert_eq!(
        resolutions(&m, "before", "v"),
        [Resolution::Global(m.globals[0].id)]
    );
    let after: Vec<&ExprKind> = exprs(&m, "after").iter().map(|e| &e.kind).collect();
    assert_eq!(after, [&ExprKind::IntLit(40)]);
}

#[test]
fn string_literals_are_interned_once_per_spelling() {
    let m = compile(
        r#"
        char *a = "same";
        char *b = "sa" "me";
        int f(void) { return printf("same") + printf("other"); }
        "#,
    )
    .unwrap();
    assert_eq!(m.strings, ["same", "other"]);
    assert_eq!(m.globals[0].init, m.globals[1].init);
}

/// The message of the error compiling `src` gives.
fn error(src: &str) -> String {
    compile(src)
        .expect_err("expected an error")
        .message()
        .to_string()
}

#[test]
fn diagnostics_spell_the_names_they_are_about() {
    let cases = [
        (
            "int f(void) { void x; return 0; }",
            "variable `x` has type void",
        ),
        (
            "void g; int f(void) { return 0; }",
            "global `g` has type void",
        ),
        ("int f(void) { return zz; }", "unknown name `zz`"),
        (
            "struct v { int v; }; int f(struct v *p) { return p->q; }",
            "struct `v` has no field `q`",
        ),
        ("int f(struct zz *p) { return 0; }", "unknown struct `zz`"),
        (
            "struct s { int a; }; struct s { int b; };",
            "struct `s` redefined",
        ),
        ("struct s { void a; };", "field `a` has type void"),
        (
            "int f(void) { goto nowhere; }",
            "goto to undefined label `nowhere`",
        ),
        ("enum { v, v };", "enum constant `v` redefined"),
        ("int x; int x;", "global `x` redefined"),
        (
            "int f(int a) { return a; } int f(int a) { return a; }",
            "function `f` redefined",
        ),
        (
            "int f(int a); char f(int a) { return 0; }",
            "conflicting declarations of `f`",
        ),
        (
            "int f(int a) { return a; } int g(void) { return f(1, 2); }",
            "`f` takes 1 arguments, 2 given",
        ),
        (
            "int f(void) { int a[]; return 0; }",
            "array `a` has unknown size",
        ),
        (
            "int f(void) { goto 3; }",
            "expected identifier, found integer `3`",
        ),
        ("int x y;", "expected `;`, found identifier `y`"),
        ("int x = 1 \"s\\n\";", "expected `;`, found string \"s\\n\""),
        (
            "#define A A\nint x = A;",
            "macro `A` expands too deeply (recursive #define?)",
        ),
    ];
    for (src, want) in cases {
        assert_eq!(error(src), want, "{src}");
    }
}
