//! End-to-end pipeline tests over real suite programs: compile →
//! profile → estimate → score, asserting the paper's qualitative
//! findings hold on this reproduction.

use estimators::eval;
use estimators::inter::{estimate_invocations, InterEstimator};
use estimators::intra::{estimate_program, IntraEstimator};
use estimators::missrate::miss_rates;

fn data(name: &str) -> (flowgraph::Program, Vec<profiler::Profile>) {
    let bench = suite::by_name(name).expect("suite program");
    let data = bench::load(&[bench], pool::global(), None, 0).remove(0);
    (data.program, data.profiles)
}

#[test]
fn psp_lower_bounds_other_predictors() {
    for name in ["compress", "cc", "awk"] {
        let (program, profiles) = data(name);
        let preds = estimators::predict_module(&program.module);
        let rates = miss_rates(&program.module, &preds, &profiles);
        assert!(rates.psp <= rates.static_pred + 1e-12, "{name}: {rates:?}");
        assert!(rates.psp <= rates.profile_pred + 1e-12, "{name}: {rates:?}");
        assert!(rates.dynamic_branches > 0, "{name}");
    }
}

#[test]
fn intra_estimates_beat_chance_on_real_programs() {
    for name in ["compress", "cc", "gs"] {
        let (program, profiles) = data(name);
        let smart = estimate_program(&program, IntraEstimator::Smart);
        let score = eval::intra_score(&program, &smart, &profiles, 0.05);
        assert!(score > 0.5, "{name}: smart intra score {score}");
    }
}

#[test]
fn numeric_codes_score_near_perfect_intra() {
    // §4.1: "In the numerical category ... the standard loop count was
    // quite sufficient for ordering basic blocks".
    for name in ["cholesky", "ear", "alvinn"] {
        let (program, profiles) = data(name);
        let looped = estimate_program(&program, IntraEstimator::Loop);
        let score = eval::intra_score(&program, &looped, &profiles, 0.05);
        assert!(score > 0.85, "{name}: loop intra score {score}");
    }
}

#[test]
fn markov_beats_direct_for_invocations_on_average() {
    // The paper's headline inter-procedural result (Figures 5b/5c).
    let mut direct_sum = 0.0;
    let mut markov_sum = 0.0;
    let names = ["compress", "cc", "xlisp", "mpeg", "water"];
    for name in names {
        let (program, profiles) = data(name);
        let ia = estimate_program(&program, IntraEstimator::Smart);
        let d = estimate_invocations(&program, &ia, InterEstimator::Direct);
        let m = estimate_invocations(&program, &ia, InterEstimator::Markov);
        direct_sum += eval::invocation_score(&program, &d, &profiles, 0.25);
        markov_sum += eval::invocation_score(&program, &m, &profiles, 0.25);
    }
    assert!(
        markov_sum > direct_sum,
        "markov {markov_sum} should beat direct {direct_sum} summed over {names:?}"
    );
    // And in absolute terms it should be strong (paper: ~81%).
    assert!(markov_sum / names.len() as f64 > 0.6);
}

#[test]
fn xlisp_markov_finds_busy_functions_despite_pointers() {
    // §5.2.1: "the Lisp interpreter spends most of its time in the
    // read/eval/print loop and in garbage collection. The Markov model
    // correctly identifies these functions as among the busiest."
    let (program, _) = data("xlisp");
    let ia = estimate_program(&program, IntraEstimator::Smart);
    let ie = estimate_invocations(&program, &ia, InterEstimator::Markov);
    let mut order = program.defined_ids();
    order.sort_by(|&a, &b| ie.of(b).total_cmp(&ie.of(a)));
    let top12: Vec<&str> = order
        .iter()
        .take(12)
        .map(|&f| program.module.function(f).name.as_str())
        .collect();
    let top20: Vec<&str> = order
        .iter()
        .take(20)
        .map(|&f| program.module.function(f).name.as_str())
        .collect();
    // The GC/allocator core dominates...
    assert!(
        top12.contains(&"mark")
            || top12.contains(&"gc")
            || top12.contains(&"cons")
            || top12.contains(&"alloc_node"),
        "the allocator/GC should be identified as busy: {top12:?}"
    );
    // ...and the evaluator ranks among the busier functions even though
    // all builtins are hidden behind the pointer node.
    assert!(
        top20.contains(&"eval") || top20.contains(&"eval_list"),
        "eval should be identified as busy: {top20:?}"
    );
}

#[test]
fn call_site_scores_are_meaningful() {
    let (program, profiles) = data("compress");
    let ia = estimate_program(&program, IntraEstimator::Smart);
    let ie = estimate_invocations(&program, &ia, InterEstimator::Markov);
    let score = eval::callsite_score(&program, &ia, &ie, &profiles, 0.25);
    assert!(score > 0.6, "compress call-site score {score}");
}

#[test]
fn profiles_vary_with_input_but_estimates_do_not() {
    let (program, profiles) = data("awk");
    // Different inputs produce different dynamic counts...
    let totals: Vec<u64> = profiles.iter().map(|p| p.total_block_count()).collect();
    assert!(totals.windows(2).any(|w| w[0] != w[1]), "{totals:?}");
    // ...while the static estimate is one fixed vector.
    let a = estimate_program(&program, IntraEstimator::Smart);
    let b = estimate_program(&program, IntraEstimator::Smart);
    for f in program.defined_ids() {
        assert_eq!(a.blocks_of(f), b.blocks_of(f));
    }
}

#[test]
fn every_estimator_is_finite_on_every_suite_program() {
    for bench in suite::all() {
        let program = bench.compile().expect("compiles");
        let ia = estimate_program(&program, IntraEstimator::Smart);
        for which in InterEstimator::ALL {
            let ie = estimate_invocations(&program, &ia, which);
            for (i, v) in ie.func_freqs.iter().enumerate() {
                assert!(
                    v.is_finite() && *v >= 0.0,
                    "{}: {:?} gave {} for function {}",
                    bench.name,
                    which,
                    v,
                    i
                );
            }
        }
    }
}
