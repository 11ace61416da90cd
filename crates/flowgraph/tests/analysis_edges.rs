//! Tests for the graph analyses (dominators, natural loops, nesting
//! depths) and CFG invariants that the lowering tests do not cover.

use flowgraph::analysis::{loop_depths, natural_loops, Dominators};
use flowgraph::{Program, Terminator};

fn program(src: &str) -> Program {
    let module = minic::compile(src).expect("valid MiniC");
    flowgraph::build_program(module)
}

#[test]
fn nested_loop_depths() {
    let p = program(
        r#"
        int f(int n) {
            int i, j, k, s = 0;
            for (i = 0; i < n; i++) {
                for (j = 0; j < n; j++) {
                    for (k = 0; k < n; k++) s++;
                }
                s--;
            }
            return s;
        }
        "#,
    );
    let cfg = p.cfg(p.function_id("f").unwrap());
    let depths = loop_depths(cfg);
    assert_eq!(*depths.iter().max().unwrap(), 3, "depths {depths:?}");
    // The entry block is outside all loops.
    assert_eq!(depths[cfg.entry.0 as usize], 0);
}

#[test]
fn loop_body_membership() {
    let p = program(
        "int f(int n) { int i, s = 0; for (i = 0; i < n; i++) { if (i & 1) s++; else s--; } return s; }",
    );
    let cfg = p.cfg(p.function_id("f").unwrap());
    let loops = natural_loops(cfg);
    assert_eq!(loops.len(), 1);
    let l = &loops[0];
    // The loop body contains the header, the latch, and both if arms:
    // at least 4 blocks.
    assert!(l.body.len() >= 4, "body {:?}", l.body);
    assert!(l.body.contains(&l.header));
    assert!(l.body.contains(&l.latch));
}

#[test]
fn idom_of_entry_is_entry() {
    let p = program("int f(int a) { if (a) a++; else a--; return a; }");
    let cfg = p.cfg(p.function_id("f").unwrap());
    let dom = Dominators::compute(cfg);
    assert_eq!(dom.idom(cfg.entry), Some(cfg.entry));
}

#[test]
fn join_is_dominated_only_by_entry_in_a_diamond() {
    let p = program("int f(int a) { int r; if (a) { r = 1; } else { r = 2; } return r; }");
    let cfg = p.cfg(p.function_id("f").unwrap());
    let dom = Dominators::compute(cfg);
    // Find the join block (the one with the Return).
    let join = cfg
        .blocks
        .iter()
        .find(|b| matches!(b.term, Terminator::Return(Some(_))))
        .unwrap()
        .id;
    let arms: Vec<_> = cfg
        .blocks
        .iter()
        .filter(|b| b.id != cfg.entry && b.id != join)
        .collect();
    assert_eq!(arms.len(), 2);
    for arm in arms {
        assert!(
            !dom.dominates(arm.id, join),
            "an if-arm must not dominate the join"
        );
    }
    assert!(dom.dominates(cfg.entry, join));
}

#[test]
fn dominance_is_transitive_on_a_chain() {
    let p = program(
        r#"
        int f(int n) {
            int s = 0;
            if (n > 0) {
                s += 1;
                if (n > 1) {
                    s += 2;
                    if (n > 2) s += 3;
                }
            }
            return s;
        }
        "#,
    );
    let cfg = p.cfg(p.function_id("f").unwrap());
    let dom = Dominators::compute(cfg);
    for a in &cfg.blocks {
        for b in &cfg.blocks {
            for c in &cfg.blocks {
                if dom.dominates(a.id, b.id) && dom.dominates(b.id, c.id) {
                    assert!(dom.dominates(a.id, c.id), "transitivity violated");
                }
            }
        }
    }
}

#[test]
fn switch_multiway_successors() {
    let p = program(
        r#"
        int f(int n) {
            int r = 0;
            switch (n) {
                case 1: r = 1; break;
                case 2: r = 2; break;
                case 3: r = 3; break;
                default: r = 9;
            }
            return r;
        }
        "#,
    );
    let cfg = p.cfg(p.function_id("f").unwrap());
    let sw = cfg
        .blocks
        .iter()
        .find(|b| matches!(b.term, Terminator::Switch { .. }))
        .unwrap();
    let succs = cfg.successors(sw.id);
    assert_eq!(succs.len(), 4, "3 cases + default, deduped: {succs:?}");
}

#[test]
fn predecessors_are_consistent_with_successors() {
    for src in [
        "int f(int n) { while (n--) if (n & 1) n -= 2; return n; }",
        "int f(int n) { int i, s = 0; for (i = 0; i < n; i++) s += i; return s; }",
    ] {
        let p = program(src);
        let cfg = p.cfg(p.function_id("f").unwrap());
        let preds = cfg.predecessors();
        for b in &cfg.blocks {
            for s in cfg.successors(b.id) {
                assert!(
                    preds[s.0 as usize].contains(&b.id),
                    "missing predecessor edge"
                );
            }
        }
        let total_succ: usize = cfg.blocks.iter().map(|b| cfg.successors(b.id).len()).sum();
        let total_pred: usize = (0..preds.len()).map(|v| preds[v].len()).sum();
        assert_eq!(total_succ, total_pred);
    }
}

#[test]
fn suite_cfgs_satisfy_invariants() {
    for bench in suite::all() {
        let p = bench.compile().expect("compiles");
        for cfg in p.cfgs.iter().flatten() {
            // All reachable, all targets in range.
            assert_eq!(
                cfg.reverse_post_order().len(),
                cfg.len(),
                "{}: unreachable blocks",
                bench.name
            );
            let dom = Dominators::compute(cfg);
            for b in &cfg.blocks {
                assert!(dom.dominates(cfg.entry, b.id), "{}", bench.name);
            }
            // Natural loops are well-formed.
            for l in natural_loops(cfg) {
                assert!(l.body.contains(&l.header));
                assert!(l.body.contains(&l.latch));
            }
        }
    }
}

#[test]
fn loop_depths_count_the_merged_natural_loops_of_each_header() {
    // Reference: one level per distinct header whose natural loops
    // (merged) contain the block — checked on every suite function,
    // which covers gotos, multi-latch loops and irreducible-free nests.
    for bench in suite::all() {
        let p = bench.compile().expect("suite program compiles");
        for cfg in p.cfgs.iter().flatten() {
            let mut bodies: std::collections::BTreeMap<_, std::collections::BTreeSet<_>> =
                Default::default();
            for l in natural_loops(cfg) {
                bodies.entry(l.header).or_default().extend(l.body);
            }
            let mut want = vec![0usize; cfg.blocks.len()];
            for body in bodies.values() {
                for b in body {
                    want[b.0 as usize] += 1;
                }
            }
            assert_eq!(loop_depths(cfg), want, "{}", bench.name);
        }
    }
}
