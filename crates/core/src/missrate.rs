//! Branch-prediction miss rates (Figure 2).
//!
//! Three predictors are scored against each profile:
//!
//! - the **static** smart predictor (§4.1);
//! - **profiling** — the branch's majority direction in the normalized
//!   aggregate of the *other* profiles (leave-one-out, §3);
//! - the **perfect static predictor (PSP)** — the majority direction of
//!   the profile being scored itself; the lower bound for any
//!   software scheme that picks one direction per branch.
//!
//! Branches whose condition is constant are *predicted but not
//! counted* (§2), and `switch` statements are excluded (they are not
//! two-way branches).

use crate::branch::Prediction;
use minic::sema::{BranchId, Module};
use profiler::Profile;
use std::collections::HashMap;

/// Miss rates (fractions in `[0, 1]`) for the three predictors of
/// Figure 2, averaged over profiles.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MissRates {
    /// The smart static predictor.
    pub static_pred: f64,
    /// Cross-input profile prediction (leave-one-out aggregate).
    pub profile_pred: f64,
    /// The perfect static predictor.
    pub psp: f64,
    /// Total dynamic (non-constant, non-switch) branches scored.
    pub dynamic_branches: u64,
}

/// Computes Figure 2's miss rates for one program.
///
/// With a single profile there is nothing to leave out, so the profile
/// predictor falls back to predicting *taken*; the numbers are mostly
/// meaningful with two or more profiles (the paper used four or more
/// inputs per program).
///
/// # Panics
///
/// Panics if `profiles` is empty.
pub fn miss_rates(
    module: &Module,
    predictions: &HashMap<BranchId, Prediction>,
    profiles: &[Profile],
) -> MissRates {
    assert!(!profiles.is_empty(), "miss_rates requires profiles");
    let scored: Vec<&minic::sema::Branch> = module
        .side
        .branches
        .iter()
        .filter(|b| b.const_cond.is_none())
        .collect();

    let mut static_sum = 0.0;
    let mut profile_sum = 0.0;
    let mut psp_sum = 0.0;
    let mut total_branches = 0u64;

    for (i, p) in profiles.iter().enumerate() {
        let others: Vec<&Profile> = profiles
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, q)| q)
            .collect();
        let agg = if others.is_empty() {
            None
        } else {
            Some(profiler::aggregate(&others))
        };

        let mut total = 0u64;
        let mut static_miss = 0u64;
        let mut profile_miss = 0u64;
        let mut psp_miss = 0u64;
        for b in &scored {
            let (t, n) = p.branch(b.id);
            let dynamic = t + n;
            if dynamic == 0 {
                continue;
            }
            total += dynamic;
            // Static.
            let taken = predictions.get(&b.id).map(|pr| pr.taken).unwrap_or(true);
            static_miss += if taken { n } else { t };
            // Profile (leave-one-out majority, ties predict taken).
            let prof_taken = match &agg {
                Some(a) => {
                    let (at, an) = a.branch_freqs[b.id.0 as usize];
                    at >= an
                }
                None => true,
            };
            profile_miss += if prof_taken { n } else { t };
            // PSP.
            psp_miss += t.min(n);
        }
        if total > 0 {
            static_sum += static_miss as f64 / total as f64;
            profile_sum += profile_miss as f64 / total as f64;
            psp_sum += psp_miss as f64 / total as f64;
        }
        total_branches += total;
    }
    let k = profiles.len() as f64;
    MissRates {
        static_pred: static_sum / k,
        profile_pred: profile_sum / k,
        psp: psp_sum / k,
        dynamic_branches: total_branches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::predict_module;
    use flowgraph::Program;
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

    #[test]
    fn psp_is_a_lower_bound() {
        let (p, profiles) = setup(
            r#"
            int main(void) {
                int c, letters = 0, digits = 0;
                while ((c = getchar()) != -1) {
                    if (c >= '0' && c <= '9') digits++;
                    else letters++;
                }
                return letters * 100 + digits;
            }
            "#,
            &["abc123", "xyzzy9", "12345", "hello world"],
        );
        let preds = predict_module(&p.module);
        let rates = miss_rates(&p.module, &preds, &profiles);
        assert!(rates.psp <= rates.static_pred + 1e-12);
        assert!(rates.psp <= rates.profile_pred + 1e-12);
        assert!(rates.dynamic_branches > 0);
    }

    #[test]
    fn loop_heavy_code_predicts_well() {
        let (p, profiles) = setup(
            r#"
            int main(void) {
                int i, j, s = 0;
                for (i = 0; i < 100; i++)
                    for (j = 0; j < 100; j++)
                        s += i ^ j;
                return s & 255;
            }
            "#,
            &["", "x"],
        );
        let preds = predict_module(&p.module);
        let rates = miss_rates(&p.module, &preds, &profiles);
        // Loop conditions are true ~99% of the time: static prediction
        // should miss under 5%.
        assert!(rates.static_pred < 0.05, "{rates:?}");
    }

    #[test]
    fn constant_branches_are_excluded() {
        let (p, profiles) = setup(
            r#"
            int main(void) {
                int s = 0, i;
                for (i = 0; i < 10; i++) {
                    if (1) s++; /* constant: excluded */
                }
                return s;
            }
            "#,
            &["", ""],
        );
        let preds = predict_module(&p.module);
        let rates = miss_rates(&p.module, &preds, &profiles);
        // Only the for-loop branch is scored: 11 dynamic executions per
        // run (10 taken + 1 not), 2 runs.
        assert_eq!(rates.dynamic_branches, 22);
    }
}
