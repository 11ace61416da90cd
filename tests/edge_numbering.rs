//! The one edge numbering: a CFG's `edges()` order is the order the
//! Markov model lists its arcs in (`estimators::intra::for_each_arc`)
//! and the order the compiler allocates edge counters in, so a
//! function's counter range, its profile edge row and its arc
//! probabilities are columns by the same edge id. Checked on every
//! suite CFG and on generated programs from seeds 1,000,001–1,000,200.

use flowgraph::{BlockId, Program};

const SEEDS: std::ops::RangeInclusive<u64> = 1_000_001..=1_000_200;

fn check(name: &str, p: &Program) -> usize {
    let preds = estimators::predict_module(&p.module);
    let cp = profiler::compile(p);
    let mut switches = 0;
    for cfg in p.cfgs.iter().flatten() {
        let f = cfg.func.0 as usize;
        let edges: Vec<(BlockId, BlockId)> = cfg.edges().collect();
        let mut arcs = Vec::new();
        estimators::intra::for_each_arc(p, cfg, &preds, |from, to, _| arcs.push((from, to)));
        assert_eq!(edges, arcs, "{name} function {f}: numbering vs Markov arcs");

        let (lo, hi) = cp.counters[f].edges;
        assert_eq!(
            cp.edge_keys[lo as usize..hi as usize],
            edges[..],
            "{name} function {f}: counter range vs numbering"
        );

        let ids = cfg.edge_ids();
        for (e, &(from, to)) in edges.iter().enumerate() {
            assert_eq!(cfg.edge_id(&ids, from, to), Some(e), "{name} function {f}");
        }
        switches += (cfg.blocks.iter())
            .filter(|b| matches!(b.term, flowgraph::Terminator::Switch { .. }))
            .count();
    }
    switches
}

#[test]
fn the_numbering_is_the_arc_order_and_the_counter_order() {
    let mut switches = 0;
    for bench in suite::all() {
        switches += check(
            bench.name,
            &bench.compile().expect("suite programs compile"),
        );
    }
    for seed in SEEDS {
        let src = fuzzgen::generate(seed).render();
        let p = flowgraph::build_program(minic::compile(&src).expect("generated programs compile"));
        switches += check(&format!("seed {seed}"), &p);
    }
    assert!(switches > 0, "the programs exercise switch numbering");
}
