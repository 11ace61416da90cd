//! Property tests over randomly generated MiniC *programs* (not just
//! expressions): every generated program must compile, lower to a
//! well-formed CFG, run deterministically, and survive a pretty-print
//! round trip with identical behaviour. This is the repository's
//! differential fuzzer for the front end + CFG + interpreter stack.

use proptest::prelude::*;

/// A tiny structured program: statements over `a`, `b`, `c`.
#[derive(Debug, Clone)]
enum S {
    Assign(u8, E),
    AddAssign(u8, E),
    If(E, Vec<S>, Vec<S>),
    /// Bounded while: `k` iterations via a fresh counter.
    Loop(u8, Vec<S>),
    Ret(E),
}

#[derive(Debug, Clone)]
enum E {
    Var(u8),
    Lit(i8),
    Add(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Lt(Box<E>, Box<E>),
    Cond(Box<E>, Box<E>, Box<E>),
}

fn var_name(v: u8) -> char {
    (b'a' + (v % 3)) as char
}

impl E {
    fn to_c(&self) -> String {
        match self {
            E::Var(v) => var_name(*v).to_string(),
            E::Lit(v) => format!("({v})"),
            E::Add(a, b) => format!("({} + {})", a.to_c(), b.to_c()),
            E::Mul(a, b) => format!("({} * {})", a.to_c(), b.to_c()),
            E::Lt(a, b) => format!("({} < {})", a.to_c(), b.to_c()),
            E::Cond(c, t, f) => format!("({} ? {} : {})", c.to_c(), t.to_c(), f.to_c()),
        }
    }
}

fn emit(stmts: &[S], out: &mut String, indent: usize, loop_id: &mut usize) {
    let pad = "    ".repeat(indent);
    for s in stmts {
        match s {
            S::Assign(v, e) => out.push_str(&format!("{pad}{} = {};\n", var_name(*v), e.to_c())),
            S::AddAssign(v, e) => {
                out.push_str(&format!("{pad}{} += {};\n", var_name(*v), e.to_c()))
            }
            S::If(c, t, f) => {
                out.push_str(&format!("{pad}if ({}) {{\n", c.to_c()));
                emit(t, out, indent + 1, loop_id);
                if f.is_empty() {
                    out.push_str(&format!("{pad}}}\n"));
                } else {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    emit(f, out, indent + 1, loop_id);
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
            S::Loop(k, body) => {
                let i = *loop_id;
                *loop_id += 1;
                out.push_str(&format!(
                    "{pad}for (t{i} = 0; t{i} < {}; t{i}++) {{\n",
                    k % 8
                ));
                emit(body, out, indent + 1, loop_id);
                out.push_str(&format!("{pad}}}\n"));
            }
            S::Ret(e) => out.push_str(&format!("{pad}return ({}) & 255;\n", e.to_c())),
        }
    }
}

fn count_loops(stmts: &[S]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            S::If(_, t, f) => count_loops(t) + count_loops(f),
            S::Loop(_, b) => 1 + count_loops(b),
            _ => 0,
        })
        .sum()
}

fn to_program(stmts: &[S]) -> String {
    let mut body = String::new();
    let mut loop_id = 0;
    emit(stmts, &mut body, 1, &mut loop_id);
    let nloops = count_loops(stmts).max(1);
    let decls: Vec<String> = (0..nloops).map(|i| format!("t{i}")).collect();
    format!(
        "int main(void) {{\n    int a = 1, b = 2, c = 3;\n    int {};\n{body}    return (a + b + c) & 255;\n}}\n",
        decls.join(", ")
    )
}

fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![(0u8..3).prop_map(E::Var), any::<i8>().prop_map(E::Lit)];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Lt(a.into(), b.into())),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, f)| E::Cond(
                c.into(),
                t.into(),
                f.into()
            )),
        ]
    })
}

fn arb_stmts() -> impl Strategy<Value = Vec<S>> {
    let stmt = prop_oneof![
        (0u8..3, arb_expr()).prop_map(|(v, e)| S::Assign(v, e)),
        (0u8..3, arb_expr()).prop_map(|(v, e)| S::AddAssign(v, e)),
        arb_expr().prop_map(S::Ret),
    ];
    let stmts = proptest::collection::vec(stmt, 1..5);
    stmts.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            (arb_expr(), inner.clone(), inner.clone()).prop_map(|(c, t, f)| vec![S::If(c, t, f)]),
            (any::<u8>(), inner.clone()).prop_map(|(k, b)| vec![S::Loop(k, b)]),
            (inner.clone(), inner).prop_map(|(mut a, b)| {
                a.extend(b);
                a.truncate(8);
                a
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Generated programs compile, run within limits, terminate with a
    /// deterministic exit code, and their CFGs are well-formed.
    #[test]
    fn generated_programs_run_deterministically(stmts in arb_stmts()) {
        let src = to_program(&stmts);
        let module = match minic::compile(&src) {
            Ok(m) => m,
            Err(e) => panic!("generated program failed to compile: {}\n{src}", e.render(&src)),
        };
        let program = flowgraph::build_program(module);

        // CFG well-formedness: every terminator target is in range and
        // every block is reachable (the simplifier guarantees it).
        for cfg in program.cfgs.iter().flatten() {
            let n = cfg.len() as u32;
            for b in &cfg.blocks {
                for s in cfg.successors(b.id) {
                    prop_assert!(s.0 < n, "target out of range");
                }
            }
            let rpo = cfg.reverse_post_order();
            prop_assert_eq!(rpo.len(), cfg.len(), "unreachable block survived simplify");
        }

        let cfg = profiler::RunConfig {
            max_steps: 5_000_000,
            ..profiler::RunConfig::default()
        };
        let a = profiler::run(&program, &cfg);
        let b = profiler::run(&program, &cfg);
        match (a, b) {
            (Ok(x), Ok(y)) => {
                prop_assert_eq!(x.exit_code, y.exit_code);
                prop_assert_eq!(x.profile.total_block_count(), y.profile.total_block_count());
                // Estimators must not panic or go non-finite on any
                // generated shape.
                let ia = estimators::intra::estimate_program(
                    &program, estimators::intra::IntraEstimator::Markov);
                for f in program.defined_ids() {
                    for v in ia.blocks_of(f) {
                        prop_assert!(v.is_finite() && *v >= 0.0);
                    }
                }
            }
            (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2, "nondeterministic error"),
            (a, b) => prop_assert!(false, "one run failed: {a:?} vs {b:?}"),
        }
    }

    /// Pretty-printing preserves semantics on generated programs.
    #[test]
    fn pretty_print_preserves_behaviour(stmts in arb_stmts()) {
        let src = to_program(&stmts);
        let module = minic::compile(&src).expect("compiles");
        let program = flowgraph::build_program(module);

        let printed = minic::pretty::print_unit(&minic::parser::parse(&src).unwrap());
        let module2 = match minic::compile(&printed) {
            Ok(m) => m,
            Err(e) => panic!("printed program failed: {}\n{printed}", e.render(&printed)),
        };
        let program2 = flowgraph::build_program(module2);

        let cfg = profiler::RunConfig {
            max_steps: 5_000_000,
            ..profiler::RunConfig::default()
        };
        let a = profiler::run(&program, &cfg);
        let b = profiler::run(&program2, &cfg);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x.exit_code, y.exit_code),
            (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
            (a, b) => prop_assert!(false, "behaviour diverged: {a:?} vs {b:?}"),
        }
    }
}
