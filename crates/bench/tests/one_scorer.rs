//! The one estimate-and-score path against its reference: the ten
//! columns of `score_estimates(estimate_all(p))` must equal, bit for
//! bit, the columns from running every estimator and every scorer
//! separately. The bundle shares one set of branch predictions across
//! the estimators; the reference recomputes them per call. Checked on
//! the 14 suite programs with their profiles and on generated programs.

use estimators::estimate_all;
use estimators::eval::{self, score_estimates, EstimateScores};
use estimators::inter::{estimate_invocations, InterEstimator};
use estimators::intra::{estimate_program, IntraEstimator};
use flowgraph::Program;
use profiler::Profile;

/// The ten columns from separate estimator and scorer calls.
fn reference(program: &Program, profiles: &[Profile]) -> EstimateScores {
    let smart = estimate_program(program, IntraEstimator::Smart);
    let inter = |w| estimate_invocations(program, &smart, w);
    EstimateScores {
        intra: IntraEstimator::ALL
            .map(|w| eval::intra_score(program, &estimate_program(program, w), profiles, 0.05)),
        invocation: InterEstimator::ALL
            .map(|w| eval::invocation_score(program, &inter(w), profiles, 0.25)),
        callsite: [InterEstimator::Direct, InterEstimator::Markov]
            .map(|w| eval::callsite_score(program, &smart, &inter(w), profiles, 0.25)),
    }
}

fn assert_bit_equal(what: &str, program: &Program, profiles: &[Profile]) {
    let got = score_estimates(program, &estimate_all(program), profiles);
    let want = reference(program, profiles);
    let columns = |s: &EstimateScores| {
        s.intra
            .iter()
            .chain(&s.invocation)
            .chain(&s.callsite)
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(columns(&got), columns(&want), "{what}: {got:?} vs {want:?}");
}

#[test]
fn bundle_scores_match_separate_calls_on_the_suite() {
    let suite = bench::load_suite();
    assert_eq!(suite.len(), 14);
    for d in &suite {
        assert_bit_equal(d.bench.name, &d.program, &d.profiles);
    }
}

#[test]
fn bundle_scores_match_separate_calls_on_generated_programs() {
    for seed in 1..=24 {
        let src = fuzzgen::generate(seed).render();
        let module = minic::compile(&src).expect("generated programs always parse");
        let program = flowgraph::build_program(module);
        let config = bench::corpus::run_config(seed);
        let out = profiler::run(&program, &config).expect("generated programs run");
        assert_bit_equal(&format!("seed {seed}"), &program, &[out.profile]);
    }
}
