//! The paper's printed tables and figures as structured data, private
//! to the `experiments` binary: `main.rs` formats them, and the unit
//! tests below assert on the same numbers. Figures 4, 5a–c and 9 are
//! columns of `estimators::eval::score_program`, and the measured
//! Fig 10 is `bench::fig10_measured_program`; neither lives here.

use bench::ProgramData;
use estimators::eval;
use estimators::inter::{estimate_invocations, InterEstimator};
use estimators::intra::{estimate_program, IntraEstimator};
use estimators::missrate::{miss_rates, MissRates};
use minic::sema::FuncId;
use profiler::{Profile, RunConfig};
use std::collections::HashSet;

/// The `strchr` running example used by Table 2 and Figures 1/3/6/7.
pub const STRCHR_EXAMPLE: &str = r#"
char *strchr(char *str, int c) {
    while (*str) {
        if (*str == c) return str;
        str++;
    }
    return 0;
}

char buf[4];

int main(void) {
    buf[0] = 'a'; buf[1] = 'b'; buf[2] = 'c'; buf[3] = '\0';
    strchr(buf, 'a');
    strchr(buf, 'b');
    return 0;
}
"#;

/// The Figure 8 recursion pathology.
pub const COUNT_NODES_EXAMPLE: &str = r#"
struct tree_node { struct tree_node *left; struct tree_node *right; };

int count_nodes(struct tree_node *node) {
    if (node == 0) return 0;
    else return count_nodes(node->left) + count_nodes(node->right) + 1;
}

int main(void) { return count_nodes(0); }
"#;

/// Table 2: the weight-matching worked example.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Per-block (actual, estimated) counts for strchr, in block order.
    pub rows: Vec<(f64, f64)>,
    /// Score at the 20% cutoff.
    pub score_20: f64,
    /// Score at the 60% cutoff.
    pub score_60: f64,
}

/// Computes Table 2 from an actual run of the strchr example.
pub fn table2() -> Table2 {
    let module = minic::compile(STRCHR_EXAMPLE).expect("strchr example compiles");
    let program = flowgraph::build_program(module);
    let out = profiler::run(&program, &RunConfig::default()).expect("runs");
    let f = program.function_id("strchr").expect("strchr exists");
    let actual: Vec<f64> = out.profile.blocks_of(f).iter().map(|&c| c as f64).collect();
    let est = estimators::intra::estimate_function(&program, f, IntraEstimator::Smart);
    let rows = actual.iter().copied().zip(est.iter().copied()).collect();
    Table2 {
        rows,
        score_20: estimators::weight_matching(&est, &actual, 0.2),
        score_60: estimators::weight_matching(&est, &actual, 0.6),
    }
}

/// Figure 2 rows: per-program miss rates plus the dynamic fraction of
/// control transfers that are `switch` dispatches (the paper excludes
/// switches, noting they are "less than 3% of dynamic branches").
pub fn fig2(suite_data: &[ProgramData]) -> Vec<(&'static str, MissRates, f64)> {
    suite_data
        .iter()
        .map(|d| {
            let preds = estimators::predict_module(&d.program.module);
            let rates = miss_rates(&d.program.module, &preds, &d.profiles);
            // Dynamic switch executions = executions of blocks ending
            // in a Switch terminator.
            let mut switch_execs = 0u64;
            for p in &d.profiles {
                for f in d.program.defined_ids() {
                    let cfg = d.program.cfg(f);
                    for b in &cfg.blocks {
                        if matches!(b.term, flowgraph::Terminator::Switch { .. }) {
                            switch_execs += p.blocks_of(f)[b.id.0 as usize];
                        }
                    }
                }
            }
            let total = rates.dynamic_branches + switch_execs;
            let frac = if total > 0 {
                switch_execs as f64 / total as f64
            } else {
                0.0
            };
            (d.bench.name, rates, frac)
        })
        .collect()
}

/// Figure 8 data: the pathological self-arc weight and the repaired
/// invocation estimate for `count_nodes`.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// The raw self-arc weight (the paper derives 1.6).
    pub self_arc_weight: f64,
    /// The Markov estimate after repair.
    pub repaired_estimate: f64,
}

/// Computes Figure 8's numbers.
pub fn fig8() -> Fig8 {
    let module = minic::compile(COUNT_NODES_EXAMPLE).expect("example compiles");
    let program = flowgraph::build_program(module);
    let ia = estimate_program(&program, IntraEstimator::Smart);
    let local = estimators::inter::local_site_freqs(&program, &ia);
    let cn = program.function_id("count_nodes").expect("exists");
    let self_arc_weight: f64 = program
        .callgraph
        .direct
        .iter()
        .filter(|a| a.caller == cn && a.callee == Some(cn))
        .map(|a| local[a.site.0 as usize])
        .sum();
    let ie = estimate_invocations(&program, &ia, InterEstimator::Markov);
    Fig8 {
        self_arc_weight,
        repaired_estimate: ie.of(cn),
    }
}

// The modeled Figure 10's cost model. The paper timed `compress` with
// different subsets of its functions compiled at `-O2`; this model
// only needs *relative* run times as functions move into the
// optimized set. Each function's measured `Profile::func_cost` (one
// unit per evaluation step) is scaled by `OPT_FACTOR` once the
// function is "optimized" — roughly the speedup gcc's `-O2` delivered
// on inner-loop C code of the era. The measured Fig 10 runs the real
// optimizer instead.

/// Cost multiplier for optimized functions (smaller = faster).
pub const OPT_FACTOR: f64 = 0.55;

/// Simulated run time (cost units) with the given functions optimized.
pub fn simulated_time(profile: &Profile, optimized: &HashSet<FuncId>) -> f64 {
    profile
        .func_cost
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let factor = if optimized.contains(&FuncId(i as u32)) {
                OPT_FACTOR
            } else {
                1.0
            };
            c as f64 * factor
        })
        .sum()
}

/// Speedup of optimizing `optimized` relative to no optimization.
pub fn speedup(profile: &Profile, optimized: &HashSet<FuncId>) -> f64 {
    let base = simulated_time(profile, &HashSet::new());
    let opt = simulated_time(profile, optimized);
    if opt > 0.0 {
        base / opt
    } else {
        1.0
    }
}

/// Figure 10: selective optimization of compress, under the cost model.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// The x axis: number of functions optimized.
    pub ks: Vec<usize>,
    /// Speedups per ordering: (label, speedup per k).
    pub series: Vec<(&'static str, Vec<f64>)>,
    /// Function names in the static (Markov) rank order.
    pub static_order: Vec<String>,
}

/// Runs the modeled Figure 10 experiment: optimize the top-k functions
/// of compress under three orderings, measure on a held-out input.
pub fn fig10() -> Fig10 {
    let compress = suite::by_name("compress").expect("compress in suite");
    let ProgramData {
        program, profiles, ..
    } = bench::load(&[compress], pool::global(), None, 0).remove(0);

    // The held-out measurement input (not among the standard four).
    let holdout: Vec<u8> = {
        let mut text = String::new();
        for i in 0..220 {
            text.push_str(&format!(
                "packet {} from node{} flags={:x} crc={:x}\n",
                i * 37 % 1000,
                i % 13,
                (i * 2654435761u64) & 0xFF,
                (i * 40503) & 0xFFFF,
            ));
        }
        text.into_bytes()
    };
    let measured = profiler::run(&program, &RunConfig::with_input(holdout))
        .expect("holdout runs")
        .profile;

    let funcs = program.defined_ids();
    let rank = |score: &dyn Fn(FuncId) -> f64| -> Vec<FuncId> {
        let mut order = funcs.clone();
        order.sort_by(|&a, &b| score(b).total_cmp(&score(a)).then(a.cmp(&b)));
        order
    };

    // (a) static Markov estimate of function invocations.
    let ia = estimate_program(&program, IntraEstimator::Smart);
    let ie = estimate_invocations(&program, &ia, InterEstimator::Markov);
    let static_order = rank(&|f| ie.of(f));
    // (b) the first profile.
    let first = &profiles[0];
    let profile_order = rank(&|f| first.calls_of(f) as f64);
    // (c) the normalized aggregate of the remaining profiles.
    let rest: Vec<&Profile> = profiles[1..].iter().collect();
    let agg = profiler::aggregate(&rest);
    let agg_order = rank(&|f| agg.func_freqs[f.0 as usize]);

    let ks: Vec<usize> = (0..=6).chain([funcs.len()]).collect();
    let speedups = |order: &[FuncId]| -> Vec<f64> {
        ks.iter()
            .map(|&k| {
                let set: HashSet<FuncId> = order.iter().take(k).copied().collect();
                speedup(&measured, &set)
            })
            .collect()
    };

    Fig10 {
        ks: ks.clone(),
        series: vec![
            ("estimate", speedups(&static_order)),
            ("profile", speedups(&profile_order)),
            ("aggregate", speedups(&agg_order)),
        ],
        static_order: static_order
            .iter()
            .map(|&f| program.module.function(f).name.clone())
            .collect(),
    }
}

/// Ablation results for the design choices DESIGN.md calls out.
#[derive(Debug, Clone, Default)]
pub struct Ablation {
    /// Suite-average miss rate of the full predictor.
    pub full_miss: f64,
    /// `(heuristic, miss rate without it)`, suite-averaged.
    pub heuristic_miss: Vec<(&'static str, f64)>,
    /// `(loop count, Figure 4 smart average)` for the loop-guess sweep.
    pub loop_sweep: Vec<(f64, f64)>,
    /// `(confidence, Figure 4 smart average)` for the paper's footnote
    /// 5 ("the exact value chosen did not have a significant effect").
    pub confidence_sweep: Vec<(f64, f64)>,
    /// Figure 4 averages for (smart, Markov@0.8, Markov calibrated) —
    /// the §5.1 open question about probability-emitting predictors.
    pub calibrated: [f64; 3],
}

/// Runs every ablation over the profiled suite.
pub fn ablation(suite_data: &[ProgramData]) -> Ablation {
    use estimators::branch::{predict_module_with, Heuristic, PredictorConfig};
    use estimators::intra::{estimate_program_with, IntraOptions};

    let avg_miss = |config: &PredictorConfig| -> f64 {
        let mut sum = 0.0;
        for d in suite_data {
            let preds = predict_module_with(&d.program.module, config);
            sum += miss_rates(&d.program.module, &preds, &d.profiles).static_pred;
        }
        sum / suite_data.len() as f64
    };
    let avg_intra = |options: &IntraOptions, which: IntraEstimator| -> f64 {
        let mut sum = 0.0;
        for d in suite_data {
            let est = estimate_program_with(&d.program, which, options);
            sum += eval::intra_score(&d.program, &est, &d.profiles, 0.05);
        }
        sum / suite_data.len() as f64
    };

    let full_miss = avg_miss(&PredictorConfig::default());
    let heuristic_miss = [
        ("pointer", Heuristic::Pointer),
        ("error-call", Heuristic::ErrorCall),
        ("store-use", Heuristic::StoreUse),
        ("and-chain", Heuristic::AndChain),
        ("opcode", Heuristic::Opcode),
    ]
    .into_iter()
    .map(|(name, h)| (name, avg_miss(&PredictorConfig::without(h))))
    .collect();

    let loop_sweep = [2.0, 3.0, 5.0, 8.0, 16.0]
        .into_iter()
        .map(|lc| {
            let options = IntraOptions {
                loop_count: lc,
                ..IntraOptions::default()
            };
            (lc, avg_intra(&options, IntraEstimator::Smart))
        })
        .collect();

    let confidence_sweep = [0.6, 0.7, 0.8, 0.9, 0.95]
        .into_iter()
        .map(|conf| {
            let options = IntraOptions {
                predictor: PredictorConfig {
                    confidence: conf,
                    ..PredictorConfig::default()
                },
                ..IntraOptions::default()
            };
            (conf, avg_intra(&options, IntraEstimator::Smart))
        })
        .collect();

    let calibrated_options = IntraOptions {
        predictor: PredictorConfig {
            calibrated: true,
            ..PredictorConfig::default()
        },
        ..IntraOptions::default()
    };
    let calibrated = [
        avg_intra(&IntraOptions::default(), IntraEstimator::Smart),
        avg_intra(&IntraOptions::default(), IntraEstimator::Markov),
        avg_intra(&calibrated_options, IntraEstimator::Markov),
    ];

    Ablation {
        full_miss,
        heuristic_miss,
        loop_sweep,
        confidence_sweep,
        calibrated,
    }
}

/// Extension results: trip-count refinement and whole-program rankings.
#[derive(Debug, Clone, Default)]
pub struct Extensions {
    /// `(program, smart score, smart+trip score, recognized loops)` —
    /// Figure 4 methodology with the §4.1 trip-count refinement.
    pub trip_rows: Vec<(&'static str, f64, f64, usize)>,
    /// `(program, global block score, global arc score)` at 25% — the
    /// abstract's "estimates for the entire program".
    pub global_rows: Vec<(&'static str, f64, f64)>,
}

/// Runs the extension experiments over the profiled suite.
pub fn extensions(suite_data: &[ProgramData]) -> Extensions {
    use estimators::intra::{estimate_program_with, IntraOptions};

    let mut trip_rows = Vec::new();
    let mut global_rows = Vec::new();
    for d in suite_data {
        let smart = estimate_program(&d.program, IntraEstimator::Smart);
        let trip_options = IntraOptions {
            trip_counts: true,
            ..IntraOptions::default()
        };
        let smart_trip = estimate_program_with(&d.program, IntraEstimator::Smart, &trip_options);
        let recognized = estimators::tripcount::trip_counts(&d.program.module).len();
        trip_rows.push((
            d.bench.name,
            eval::intra_score(&d.program, &smart, &d.profiles, 0.05),
            eval::intra_score(&d.program, &smart_trip, &d.profiles, 0.05),
            recognized,
        ));

        let ie = estimate_invocations(&d.program, &smart, InterEstimator::Markov);
        global_rows.push((
            d.bench.name,
            estimators::global::global_block_score(&d.program, &smart, &ie, &d.profiles, 0.25),
            estimators::global::global_arc_score(&d.program, &smart, &ie, &d.profiles, 0.25),
        ));
    }
    Extensions {
        trip_rows,
        global_rows,
    }
}

/// Column means over a table of per-program score rows.
pub fn averages<const N: usize>(rows: &[(&'static str, [f64; N])]) -> [f64; N] {
    let mut out = [0.0; N];
    if rows.is_empty() {
        return out;
    }
    for (_, r) in rows {
        for (o, v) in out.iter_mut().zip(r.iter()) {
            *o += v;
        }
    }
    for o in out.iter_mut() {
        *o /= rows.len() as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loads the named suite programs on the global pool, uncached.
    fn load(names: &[&str]) -> Vec<ProgramData> {
        let benches: Vec<_> = names.iter().map(|n| suite::by_name(n).unwrap()).collect();
        bench::load(&benches, pool::global(), None, 0)
    }

    #[test]
    fn table2_matches_the_paper() {
        let t = table2();
        assert_eq!(t.rows.len(), 5, "strchr has five blocks");
        // 100% at 20%, 7/8 = 88% at 60% (the paper's scores).
        assert!((t.score_20 - 1.0).abs() < 1e-9, "{t:?}");
        assert!((t.score_60 - 7.0 / 8.0).abs() < 1e-9, "{t:?}");
        // Actual totals: while 3, if 3, return1 2, incr 1, return2 0.
        let mut actual: Vec<f64> = t.rows.iter().map(|r| r.0).collect();
        actual.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(actual, vec![0.0, 1.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn fig8_matches_the_paper() {
        let f = fig8();
        assert!((f.self_arc_weight - 1.6).abs() < 1e-9, "{f:?}");
        assert!(f.repaired_estimate > 0.0 && f.repaired_estimate.is_finite());
    }

    #[test]
    fn ablation_and_extensions_are_sane_on_a_subset() {
        let subset = load(&["alvinn", "cc", "awk"]);

        let a = ablation(&subset);
        assert!(a.full_miss > 0.0 && a.full_miss < 1.0);
        assert_eq!(a.heuristic_miss.len(), 5);
        for (_, miss) in &a.heuristic_miss {
            assert!((0.0..=1.0).contains(miss));
        }
        assert_eq!(a.loop_sweep.len(), 5);
        assert_eq!(a.confidence_sweep.len(), 5);
        for (_, score) in a.loop_sweep.iter().chain(&a.confidence_sweep) {
            assert!((0.0..=1.0).contains(score));
        }

        let e = extensions(&subset);
        assert_eq!(e.trip_rows.len(), 3);
        let alvinn = e.trip_rows.iter().find(|r| r.0 == "alvinn").unwrap();
        assert!(alvinn.3 > 10, "alvinn is all constant-bound loops");
        // Trip counts never hurt alvinn.
        assert!(alvinn.2 >= alvinn.1 - 1e-9);
        for (_, blocks, arcs) in &e.global_rows {
            assert!((0.0..=1.0).contains(blocks));
            assert!((0.0..=1.0).contains(arcs));
        }
    }

    #[test]
    fn fig2_switch_fraction_is_small() {
        // The paper: switches are "less than 3% of dynamic branches on
        // average". Check on the switch-heaviest programs.
        let subset = load(&["cc", "gs"]);
        for (name, rates, frac) in fig2(&subset) {
            assert!(rates.dynamic_branches > 0, "{name}");
            assert!((0.0..0.25).contains(&frac), "{name}: switch frac {frac}");
        }
    }

    #[test]
    fn simulated_time_scales_only_optimized_functions() {
        let p = Profile {
            func_cost: vec![100, 900],
            ..Profile::default()
        };
        let none: HashSet<FuncId> = HashSet::new();
        let hot: HashSet<FuncId> = [FuncId(1)].into_iter().collect();
        let t0 = simulated_time(&p, &none);
        let t1 = simulated_time(&p, &hot);
        assert!(t1 < t0);
        assert!((t0 - (100.0 + 900.0)).abs() < 1e-9);
        assert!((t1 - (100.0 + 900.0 * OPT_FACTOR)).abs() < 1e-9);
    }

    #[test]
    fn optimizing_everything_gives_full_factor() {
        let p = Profile {
            func_cost: vec![10, 20, 30],
            ..Profile::default()
        };
        let all: HashSet<FuncId> = (0..3).map(FuncId).collect();
        let s = speedup(&p, &all);
        assert!((s - 1.0 / OPT_FACTOR).abs() < 1e-9);
    }

    #[test]
    fn optimizing_cold_function_changes_little() {
        let p = Profile {
            func_cost: vec![1, 100_000],
            ..Profile::default()
        };
        let cold: HashSet<FuncId> = [FuncId(0)].into_iter().collect();
        assert!((speedup(&p, &cold) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn fig10_static_finds_the_hot_functions() {
        let f = fig10();
        // The top-4 static picks should include the hot four; compress
        // is dominated by next_byte/find_code/emit_code/compress_stream
        // (hash_pair and put_byte are also hot contenders).
        let hot = [
            "next_byte",
            "find_code",
            "emit_code",
            "compress_stream",
            "hash_pair",
            "put_byte",
        ];
        let top: Vec<&str> = f.static_order.iter().take(4).map(|s| s.as_str()).collect();
        for name in &top {
            assert!(hot.contains(name), "unexpected hot pick {name}: {top:?}");
        }
        // Speedup grows monotonically-ish and optimizing everything
        // beats optimizing nothing.
        for (_, s) in &f.series {
            assert!((s[0] - 1.0).abs() < 1e-9);
            assert!(s[s.len() - 1] > 1.5, "{s:?}");
        }
    }
}
