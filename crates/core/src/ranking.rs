//! Hotness rankings that drive the Figure 10 optimization budget.
//!
//! The paper's closing experiment (§6, Fig 10) asks one question: if
//! the optimizer can afford to optimize only the `k` hottest
//! functions, does a *static* hotness ranking pick (nearly) the same
//! functions as a measured profile? This module provides the three
//! ranking providers the experiment compares:
//!
//! - [`StaticRanking`] — pure compile-time estimates: the *smart*
//!   intra-procedural estimator (§4.2) scaled by the call-graph
//!   *Markov* invocation model (§5.2), no execution required;
//! - [`ProfileRanking::measured`] — measured profiles from *training*
//!   inputs (the classic profile-guided baseline);
//! - [`ProfileRanking::oracle`] — a profile of the *evaluation* input
//!   itself: the unbeatable upper bound.
//!
//! All three expose the same [`Ranking`] view — hottest-first function
//! order plus whole-run block and call-site frequencies — so the
//! optimizer is indifferent to where its hotness numbers came from.

use crate::{callsite, inter, intra};
use flowgraph::Program;
use minic::sema::FuncId;
use profiler::Profile;

/// A source of hotness information for optimization budgeting.
pub trait Ranking {
    /// Provider name, for reports ("static", "profile", "oracle").
    fn name(&self) -> &'static str;
    /// Defined functions, hottest first (ties broken by `FuncId` so
    /// every provider is deterministic).
    fn func_order(&self) -> Vec<FuncId>;
    /// Whole-run block execution frequencies, `[func][block]`.
    fn block_freqs(&self) -> Vec<Vec<f64>>;
    /// Whole-run call-site frequencies, indexed by `CallSiteId`.
    fn site_freqs(&self) -> Vec<f64>;
}

/// Sorts `(FuncId, score)` pairs hottest-first with deterministic ties.
fn order_by_score(mut scored: Vec<(FuncId, f64)>) -> Vec<FuncId> {
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
    scored.into_iter().map(|(f, _)| f).collect()
}

/// Compile-time hotness: smart intra-procedural block frequencies
/// scaled by Markov invocation counts. Requires no execution.
pub struct StaticRanking {
    order: Vec<FuncId>,
    block_freqs: Vec<Vec<f64>>,
    site_freqs: Vec<f64>,
}

impl StaticRanking {
    /// Builds the static ranking for `program`.
    pub fn new(program: &Program) -> StaticRanking {
        let ia = intra::estimate_program(program, intra::IntraEstimator::Smart);
        let ie = inter::estimate_invocations(program, &ia, inter::InterEstimator::Markov);

        // A function's score is its estimated whole-run work: block
        // executions per invocation times estimated invocations.
        let scored = program
            .defined_ids()
            .into_iter()
            .map(|f| {
                let per_call: f64 = ia.blocks_of(f).iter().sum();
                (f, per_call * ie.of(f))
            })
            .collect();

        let block_freqs = ia
            .block_freqs
            .iter()
            .enumerate()
            .map(|(f, blocks)| {
                let inv = ie.of(FuncId(f as u32));
                blocks.iter().map(|b| b * inv).collect()
            })
            .collect();

        let mut site_freqs = vec![0.0; program.module.side.call_sites.len()];
        for s in callsite::estimate_sites(program, &ia, &ie) {
            site_freqs[s.site.0 as usize] = s.freq;
        }

        StaticRanking {
            order: order_by_score(scored),
            block_freqs,
            site_freqs,
        }
    }
}

impl Ranking for StaticRanking {
    fn name(&self) -> &'static str {
        "static"
    }
    fn func_order(&self) -> Vec<FuncId> {
        self.order.clone()
    }
    fn block_freqs(&self) -> Vec<Vec<f64>> {
        self.block_freqs.clone()
    }
    fn site_freqs(&self) -> Vec<f64> {
        self.site_freqs.clone()
    }
}

/// Measured hotness, summed over one or more profiles. Functions are
/// ranked by accumulated cost (the paper ranks by time spent, not
/// entry count).
pub struct ProfileRanking {
    name: &'static str,
    order: Vec<FuncId>,
    block_freqs: Vec<Vec<f64>>,
    site_freqs: Vec<f64>,
}

impl ProfileRanking {
    fn build(name: &'static str, program: &Program, profiles: &[&Profile]) -> ProfileRanking {
        let n_funcs = program.cfgs.len();
        let mut cost = vec![0.0f64; n_funcs];
        let mut block_freqs: Vec<Vec<f64>> = program
            .cfgs
            .iter()
            .map(|c| vec![0.0; c.as_ref().map_or(0, |c| c.len())])
            .collect();
        let mut site_freqs = vec![0.0f64; program.module.side.call_sites.len()];
        for p in profiles {
            for (f, &c) in p.func_cost.iter().enumerate() {
                cost[f] += c as f64;
            }
            for (f, blocks) in p.block_counts.iter().enumerate() {
                for (b, &c) in blocks.iter().enumerate() {
                    block_freqs[f][b] += c as f64;
                }
            }
            for (s, &c) in p.call_site_counts.iter().enumerate() {
                site_freqs[s] += c as f64;
            }
        }
        let scored = program
            .defined_ids()
            .into_iter()
            .map(|f| (f, cost[f.0 as usize]))
            .collect();
        ProfileRanking {
            name,
            order: order_by_score(scored),
            block_freqs,
            site_freqs,
        }
    }

    /// A training-input ranking (the profile-guided baseline).
    pub fn measured(program: &Program, profiles: &[&Profile]) -> ProfileRanking {
        ProfileRanking::build("profile", program, profiles)
    }

    /// The oracle: a profile of the evaluation input itself.
    pub fn oracle(program: &Program, profile: &Profile) -> ProfileRanking {
        ProfileRanking::build("oracle", program, &[profile])
    }
}

impl Ranking for ProfileRanking {
    fn name(&self) -> &'static str {
        self.name
    }
    fn func_order(&self) -> Vec<FuncId> {
        self.order.clone()
    }
    fn block_freqs(&self) -> Vec<Vec<f64>> {
        self.block_freqs.clone()
    }
    fn site_freqs(&self) -> Vec<f64> {
        self.site_freqs.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(src: &str) -> Program {
        flowgraph::build_program(minic::compile(src).unwrap())
    }

    const HOT_COLD: &str = r#"
        int hot(int n) {
            int i, s = 0;
            for (i = 0; i < n; i++) s += i * 3;
            return s;
        }
        int cold(int n) { return n + 1; }
        int main(void) {
            int i, s = 0;
            for (i = 0; i < 100; i++) s += hot(40);
            s += cold(s);
            return s & 255;
        }
    "#;

    #[test]
    fn static_ranks_hot_above_cold() {
        let p = program(HOT_COLD);
        let r = StaticRanking::new(&p);
        let order = r.func_order();
        let hot = p.function_id("hot").unwrap();
        let cold = p.function_id("cold").unwrap();
        let pos = |f| order.iter().position(|&x| x == f).unwrap();
        assert!(pos(hot) < pos(cold), "order: {order:?}");
        assert_eq!(order.len(), 3, "defined functions only");
    }

    #[test]
    fn profile_ranking_matches_measured_hotness() {
        let p = program(HOT_COLD);
        let out = profiler::run(&p, &profiler::RunConfig::default()).unwrap();
        let r = ProfileRanking::measured(&p, &[&out.profile]);
        let hot = p.function_id("hot").unwrap();
        assert_eq!(r.func_order()[0], hot);
        // Whole-run block frequencies reflect actual counts.
        let hot_total: f64 = r.block_freqs()[hot.0 as usize].iter().sum();
        assert!(hot_total > 100.0, "hot ran 100 times: {hot_total}");
        // The hot call site dominates.
        let sf = r.site_freqs();
        assert!(sf.iter().cloned().fold(0.0, f64::max) >= 100.0);
    }

    #[test]
    fn static_and_profile_agree_on_the_hottest_function() {
        let p = program(HOT_COLD);
        let out = profiler::run(&p, &profiler::RunConfig::default()).unwrap();
        let st = StaticRanking::new(&p);
        let pr = ProfileRanking::oracle(&p, &out.profile);
        assert_eq!(st.func_order()[0], pr.func_order()[0]);
        assert_eq!(pr.name(), "oracle");
    }
}
