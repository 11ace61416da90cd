//! The CFG shares the AST's statement-level expressions: every
//! expression an instruction or terminator holds must be the very
//! allocation of the AST slot it was lowered from, never a copy.

use flowgraph::{Instr, Program, Terminator};
use minic::ast::{Expr, Initializer, NodeId, StmtKind};
use std::collections::HashMap;
use std::sync::Arc;

/// Every statement-level expression slot of the program's function
/// bodies, by the expression's node id.
fn ast_slots(program: &Program) -> HashMap<NodeId, &Arc<Expr>> {
    fn init<'a>(i: &'a Initializer, out: &mut HashMap<NodeId, &'a Arc<Expr>>) {
        match i {
            Initializer::Expr(e) => {
                out.insert(e.id, e);
            }
            Initializer::List(items) => items.iter().for_each(|i| init(i, out)),
        }
    }
    let mut out = HashMap::new();
    for f in &program.module.functions {
        let Some(body) = &f.body else { continue };
        body.walk(&mut |s| {
            let slots: Vec<&Arc<Expr>> = match &s.kind {
                StmtKind::Expr(e)
                | StmtKind::If(e, _, _)
                | StmtKind::While(e, _)
                | StmtKind::DoWhile(_, e)
                | StmtKind::Switch(e, _) => vec![e],
                StmtKind::For(_, cond, step, _) => cond.iter().chain(step).collect(),
                StmtKind::Return(e) => e.iter().collect(),
                StmtKind::Decl(decls) => {
                    decls
                        .iter()
                        .flat_map(|d| &d.init)
                        .for_each(|i| init(i, &mut out));
                    Vec::new()
                }
                _ => Vec::new(),
            };
            for e in slots {
                out.insert(e.id, e);
            }
        });
    }
    out
}

/// Checks every CFG expression against its AST slot; returns how many
/// it checked.
fn assert_shared(program: &Program, what: &str) -> usize {
    let slots = ast_slots(program);
    let mut checked = 0;
    let mut check = |e: &Arc<Expr>| {
        let slot = slots
            .get(&e.id)
            .unwrap_or_else(|| panic!("{what}: CFG expression {} has no AST slot", e.id));
        assert!(
            Arc::ptr_eq(slot, e),
            "{what}: CFG expression {} is a copy of its AST slot",
            e.id
        );
        checked += 1;
    };
    for cfg in program.cfgs.iter().flatten() {
        for b in &cfg.blocks {
            for i in &b.instrs {
                match i {
                    Instr::Eval(e) | Instr::Init { value: e, .. } => check(e),
                    Instr::InitStr { .. } | Instr::InitZero { .. } => {}
                }
            }
            match &b.term {
                Terminator::Branch { cond: e, .. }
                | Terminator::Switch { scrut: e, .. }
                | Terminator::Return(Some(e)) => check(e),
                Terminator::Goto(_) | Terminator::Return(None) => {}
            }
        }
    }
    checked
}

#[test]
fn suite_cfgs_share_their_expressions_with_the_ast() {
    for bench in suite::all() {
        let program = bench.compile().expect("suite programs compile");
        assert!(assert_shared(&program, bench.name) > 0, "{}", bench.name);
    }
}

#[test]
fn generated_cfgs_share_their_expressions_with_the_ast() {
    let mut checked = 0;
    for seed in 1_000_001..1_000_201 {
        let src = fuzzgen::generate(seed).render();
        let module = minic::compile(&src).expect("generated programs compile");
        let program = flowgraph::build_program(module);
        checked += assert_shared(&program, &format!("seed {seed}"));
    }
    assert!(checked > 0);
}
