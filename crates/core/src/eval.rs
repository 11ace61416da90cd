//! The paper's evaluation harness (§3): weight-matching scores for
//! intra-procedural block estimates (Figure 4), function-invocation
//! estimates (Figure 5), and call-site estimates (Figure 9), each
//! compared profile-by-profile and averaged — with the profile-based
//! predictor computed leave-one-out from the aggregate of the *other*
//! profiles.

use crate::callsite::{estimate_sites, rankable_sites};
use crate::inter::{estimate_invocations, InterEstimates, InterEstimator};
use crate::intra::{estimate_program, IntraEstimates, IntraEstimator};
use crate::metric::weight_matching;
use flowgraph::Program;
use profiler::{aggregate, Profile};

/// Leave-one-out split: for profile `i`, the aggregate of the others
/// (or of `i` itself when it is the only one).
fn loo_aggregate(profiles: &[Profile], i: usize) -> profiler::AggregateProfile {
    let others: Vec<&Profile> = profiles
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .map(|(_, p)| p)
        .collect();
    if others.is_empty() {
        aggregate(&[&profiles[i]])
    } else {
        aggregate(&others)
    }
}

/// Figure 4: intra-procedural weight-matching score for one static
/// estimator, at `cutoff`. Per-function scores are weighted by the
/// function's dynamic invocation count in the measuring profile, then
/// averaged across profiles.
pub fn intra_score(
    program: &Program,
    estimates: &IntraEstimates,
    profiles: &[Profile],
    cutoff: f64,
) -> f64 {
    let mut per_profile = Vec::new();
    for p in profiles {
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for f in program.defined_ids() {
            let w = p.calls_of(f) as f64;
            if w == 0.0 {
                continue;
            }
            let actual: Vec<f64> = p.blocks_of(f).iter().map(|&c| c as f64).collect();
            let est = estimates.blocks_of(f);
            if est.is_empty() {
                continue;
            }
            let score = weight_matching(est, &actual, cutoff);
            weighted += w * score;
            weight += w;
        }
        if weight > 0.0 {
            per_profile.push(weighted / weight);
        }
    }
    mean(&per_profile)
}

/// Figure 4's "profile" column: each profile scored against the
/// leave-one-out aggregate of the others.
pub fn intra_score_profile_predictor(program: &Program, profiles: &[Profile], cutoff: f64) -> f64 {
    let mut per_profile = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        let agg = loo_aggregate(profiles, i);
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for f in program.defined_ids() {
            let w = p.calls_of(f) as f64;
            if w == 0.0 {
                continue;
            }
            let actual: Vec<f64> = p.blocks_of(f).iter().map(|&c| c as f64).collect();
            let est = &agg.block_freqs[f.0 as usize];
            if est.is_empty() {
                continue;
            }
            let score = weight_matching(est, &actual, cutoff);
            weighted += w * score;
            weight += w;
        }
        if weight > 0.0 {
            per_profile.push(weighted / weight);
        }
    }
    mean(&per_profile)
}

/// Figure 5: function-invocation weight matching at `cutoff`. Entities
/// are the defined functions.
pub fn invocation_score(
    program: &Program,
    estimates: &InterEstimates,
    profiles: &[Profile],
    cutoff: f64,
) -> f64 {
    let funcs = program.defined_ids();
    let est: Vec<f64> = funcs.iter().map(|&f| estimates.of(f)).collect();
    let mut scores = Vec::new();
    for p in profiles {
        let actual: Vec<f64> = funcs.iter().map(|&f| p.calls_of(f) as f64).collect();
        scores.push(weight_matching(&est, &actual, cutoff));
    }
    mean(&scores)
}

/// Figure 5's "profiling" column for function invocations.
pub fn invocation_score_profile_predictor(
    program: &Program,
    profiles: &[Profile],
    cutoff: f64,
) -> f64 {
    let funcs = program.defined_ids();
    let mut scores = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        let agg = loo_aggregate(profiles, i);
        let est: Vec<f64> = funcs
            .iter()
            .map(|&f| agg.func_freqs[f.0 as usize])
            .collect();
        let actual: Vec<f64> = funcs.iter().map(|&f| p.calls_of(f) as f64).collect();
        scores.push(weight_matching(&est, &actual, cutoff));
    }
    mean(&scores)
}

/// Figure 9: call-site weight matching at `cutoff`, over direct
/// non-builtin sites only.
pub fn callsite_score(
    program: &Program,
    intra: &IntraEstimates,
    inter: &InterEstimates,
    profiles: &[Profile],
    cutoff: f64,
) -> f64 {
    let sites = estimate_sites(program, intra, inter);
    let est: Vec<f64> = sites.iter().map(|s| s.freq).collect();
    let mut scores = Vec::new();
    for p in profiles {
        let actual: Vec<f64> = sites.iter().map(|s| p.site(s.site) as f64).collect();
        scores.push(weight_matching(&est, &actual, cutoff));
    }
    mean(&scores)
}

/// Figure 9's "profile" column for call sites.
pub fn callsite_score_profile_predictor(
    program: &Program,
    profiles: &[Profile],
    cutoff: f64,
) -> f64 {
    let sites = rankable_sites(program);
    let mut scores = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        let agg = loo_aggregate(profiles, i);
        let est: Vec<f64> = sites
            .iter()
            .map(|s| agg.call_site_freqs[s.0 as usize])
            .collect();
        let actual: Vec<f64> = sites.iter().map(|&s| p.site(s) as f64).collect();
        scores.push(weight_matching(&est, &actual, cutoff));
    }
    mean(&scores)
}

/// Convenience bundle: all the scores the paper reports for one
/// program, computed in one pass.
#[derive(Debug, Clone, Default)]
pub struct ProgramScores {
    /// Figure 4 (5% cutoff): loop, smart, markov, profile.
    pub intra: [f64; 4],
    /// Figure 5a (25%): call-site, direct, all-rec, all-rec2, profile.
    pub invocation_simple: [f64; 5],
    /// Figures 5b/5c: direct, markov, profile at (10%, 25%).
    pub invocation_markov_10: [f64; 3],
    /// See [`ProgramScores::invocation_markov_10`].
    pub invocation_markov_25: [f64; 3],
    /// Figure 9 (25%): direct, markov, profile.
    pub callsites: [f64; 3],
}

/// Computes every headline score for one program and its profiles.
pub fn score_program(program: &Program, profiles: &[Profile]) -> ProgramScores {
    let ia_loop = estimate_program(program, IntraEstimator::Loop);
    let ia_smart = estimate_program(program, IntraEstimator::Smart);
    let ia_markov = estimate_program(program, IntraEstimator::Markov);

    let intra = [
        intra_score(program, &ia_loop, profiles, 0.05),
        intra_score(program, &ia_smart, profiles, 0.05),
        intra_score(program, &ia_markov, profiles, 0.05),
        intra_score_profile_predictor(program, profiles, 0.05),
    ];

    // All inter-procedural estimators are built on smart intra
    // estimates, as in the paper ("All estimates are built on the
    // smart intra-procedural estimator").
    let inter_of = |w| estimate_invocations(program, &ia_smart, w);
    let ie_callsite = inter_of(InterEstimator::CallSite);
    let ie_direct = inter_of(InterEstimator::Direct);
    let ie_allrec = inter_of(InterEstimator::AllRec);
    let ie_allrec2 = inter_of(InterEstimator::AllRec2);
    let ie_markov = inter_of(InterEstimator::Markov);

    let inv = |e: &InterEstimates, c| invocation_score(program, e, profiles, c);
    let invocation_simple = [
        inv(&ie_callsite, 0.25),
        inv(&ie_direct, 0.25),
        inv(&ie_allrec, 0.25),
        inv(&ie_allrec2, 0.25),
        invocation_score_profile_predictor(program, profiles, 0.25),
    ];
    let invocation_markov_10 = [
        inv(&ie_direct, 0.10),
        inv(&ie_markov, 0.10),
        invocation_score_profile_predictor(program, profiles, 0.10),
    ];
    let invocation_markov_25 = [
        inv(&ie_direct, 0.25),
        inv(&ie_markov, 0.25),
        invocation_score_profile_predictor(program, profiles, 0.25),
    ];

    let callsites = [
        callsite_score(program, &ia_smart, &ie_direct, profiles, 0.25),
        callsite_score(program, &ia_smart, &ie_markov, profiles, 0.25),
        callsite_score_profile_predictor(program, profiles, 0.25),
    ];

    ProgramScores {
        intra,
        invocation_simple,
        invocation_markov_10,
        invocation_markov_25,
        callsites,
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use profiler::{run, RunConfig};

    fn setup(src: &str, inputs: &[&str]) -> (Program, Vec<Profile>) {
        let module = minic::compile(src).expect("valid MiniC");
        let program = flowgraph::build_program(module);
        let profiles = inputs
            .iter()
            .map(|i| {
                run(&program, &RunConfig::with_input(*i))
                    .expect("run")
                    .profile
            })
            .collect();
        (program, profiles)
    }

    const COUNTER: &str = r#"
        int is_digit(int c) { return c >= '0' && c <= '9'; }
        int is_space(int c) { return c == ' ' || c == '\n'; }
        int rare(int c) { return c == 7; }
        int main(void) {
            int c, digits = 0, spaces = 0, others = 0;
            while ((c = getchar()) != -1) {
                if (is_digit(c)) digits++;
                else if (is_space(c)) spaces++;
                else { if (rare(c)) others += 2; others++; }
            }
            printf("%d %d %d\n", digits, spaces, others);
            return 0;
        }
    "#;

    #[test]
    fn scores_are_in_range_and_sane() {
        let (p, profiles) = setup(COUNTER, &["hello 123 world", "9 8 7 6", "aaaa", "   12"]);
        let s = score_program(&p, &profiles);
        for v in s
            .intra
            .iter()
            .chain(&s.invocation_simple)
            .chain(&s.invocation_markov_10)
            .chain(&s.invocation_markov_25)
            .chain(&s.callsites)
        {
            assert!((0.0..=1.0).contains(v), "{s:?}");
        }
        // The hot inner functions are identifiable: Markov should find
        // that main is hot and `rare` is not mistaken for hot.
        assert!(s.invocation_markov_25[1] > 0.3, "{s:?}");
    }

    #[test]
    fn profile_predictor_beats_junk_on_consistent_inputs() {
        let (p, profiles) = setup(COUNTER, &["12345", "67890", "11111", "22222"]);
        let prof_score = invocation_score_profile_predictor(&p, &profiles, 0.25);
        // Digit-only inputs are extremely consistent run to run.
        assert!(prof_score > 0.9, "got {prof_score}");
    }

    #[test]
    fn intra_perfect_on_straight_line() {
        let (p, profiles) = setup("int main(void) { int x = 1; x++; return x; }", &["", ""]);
        let ia = estimate_program(&p, IntraEstimator::Smart);
        let s = intra_score(&p, &ia, &profiles, 0.5);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uncalled_functions_do_not_affect_intra_score() {
        // `never` has wild estimates relative to its actuals (it never
        // runs), but its invocation weight is zero so the score is
        // driven by `main` alone.
        let (p, profiles) = setup(
            r#"
            int never(int n) {
                int i, s = 0;
                for (i = 0; i < n; i++) s += i;
                return s;
            }
            int main(void) { int x = 2; x *= 3; return x; }
            "#,
            &["", ""],
        );
        let ia = estimate_program(&p, IntraEstimator::Smart);
        let s = intra_score(&p, &ia, &profiles, 0.5);
        assert!((s - 1.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn leave_one_out_excludes_the_measured_profile() {
        // Three profiles: two consistent, one wildly different. When
        // the outlier is measured, the predictor sees only the two
        // consistent ones — and vice versa.
        let (p, profiles) = setup(
            COUNTER,
            &["11111", "22222", "          "], // two digit runs + one all-spaces
        );
        // Predicting the outlier from the digit runs is harder than
        // predicting a digit run from (digit + outlier).
        let s = intra_score_profile_predictor(&p, &profiles, 0.25);
        assert!((0.0..=1.0).contains(&s));
        // With a single profile, the fallback self-aggregates (still
        // well-defined, conservatively perfect).
        let one = vec![profiles.into_iter().next().unwrap()];
        let s1 = invocation_score_profile_predictor(&p, &one, 0.25);
        assert!((s1 - 1.0).abs() < 1e-9, "self-prediction is perfect");
    }

    #[test]
    fn callsite_profile_predictor_is_bounded() {
        let (p, profiles) = setup(COUNTER, &["abc 12", "x 3", "7 7 7", "zz"]);
        let s = callsite_score_profile_predictor(&p, &profiles, 0.25);
        assert!((0.0..=1.0).contains(&s), "{s}");
        let ia = estimate_program(&p, IntraEstimator::Smart);
        let ie = estimate_invocations(&p, &ia, InterEstimator::Markov);
        let cs = callsite_score(&p, &ia, &ie, &profiles, 0.25);
        assert!((0.0..=1.0).contains(&cs), "{cs}");
    }

    #[test]
    fn invocation_score_ranks_by_estimates_not_scale() {
        // Scaling every estimate by a constant must not change scores.
        let (p, profiles) = setup(COUNTER, &["abc", "123"]);
        let ia = estimate_program(&p, IntraEstimator::Smart);
        let ie = estimate_invocations(&p, &ia, InterEstimator::Direct);
        let s1 = invocation_score(&p, &ie, &profiles, 0.25);
        let scaled = InterEstimates {
            estimator: ie.estimator,
            func_freqs: ie.func_freqs.iter().map(|v| v * 1000.0).collect(),
        };
        let s2 = invocation_score(&p, &scaled, &profiles, 0.25);
        assert!((s1 - s2).abs() < 1e-12);
    }
}
