//! Global call-site frequency estimation (§5.3).
//!
//! Function inlining needs a *global* ranking of call sites. The
//! estimate combines the two levels: a site's global frequency is the
//! invocation estimate of its containing function times the site's
//! local (per-invocation) frequency. Calls through pointers are
//! excluded — "it is difficult or impossible to inline calls through
//! pointers, so we omit them from these scores" — and so are builtin
//! (library) calls, which the paper's instrumentation did not see.

use crate::inter::{local_site_freqs, InterEstimates};
use crate::intra::IntraEstimates;
use flowgraph::Program;
use minic::sema::{CallSiteId, CalleeKind};

/// An estimated (or measured) global call-site frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteFreq {
    /// The call site.
    pub site: CallSiteId,
    /// Estimated executions over the whole program run.
    pub freq: f64,
}

/// The call sites eligible for ranking: direct calls to user functions.
pub fn rankable_sites(program: &Program) -> Vec<CallSiteId> {
    program
        .module
        .side
        .call_sites
        .iter()
        .filter(|c| matches!(c.callee, CalleeKind::Direct(_)))
        .map(|c| c.id)
        .collect()
}

/// Estimates the global frequency of every rankable call site.
///
/// # Examples
///
/// ```
/// use estimators::{callsite, inter, intra};
///
/// let module = minic::compile(r#"
///     int leaf(int x) { return x; }
///     int main(void) {
///         int i, s = 0;
///         for (i = 0; i < 10; i++) s += leaf(i);
///         return s + leaf(0);
///     }
/// "#).unwrap();
/// let program = flowgraph::build_program(module);
/// let ia = intra::estimate_program(&program, intra::IntraEstimator::Smart);
/// let ie = inter::estimate_invocations(&program, &ia, inter::InterEstimator::Markov);
/// let sites = callsite::estimate_sites(&program, &ia, &ie);
/// assert_eq!(sites.len(), 2);
/// // The loop site outranks the straight-line site.
/// let max = sites.iter().map(|s| s.freq).fold(0.0, f64::max);
/// assert!((max - 4.0).abs() < 1e-6);
/// ```
pub fn estimate_sites(
    program: &Program,
    intra: &IntraEstimates,
    inter: &InterEstimates,
) -> Vec<SiteFreq> {
    sites_from_local(program, &local_site_freqs(program, intra), inter)
}

/// [`estimate_sites`] over precomputed [`local_site_freqs`].
pub(crate) fn sites_from_local(
    program: &Program,
    local: &[f64],
    inter: &InterEstimates,
) -> Vec<SiteFreq> {
    program
        .module
        .side
        .call_sites
        .iter()
        .filter(|c| matches!(c.callee, CalleeKind::Direct(_)))
        .map(|c| SiteFreq {
            site: c.id,
            freq: inter.of(c.caller) * local[c.id.0 as usize],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inter::{estimate_invocations, InterEstimator};
    use crate::intra::{estimate_program, IntraEstimator};

    #[test]
    fn indirect_and_builtin_sites_are_excluded() {
        let module = minic::compile(
            r#"
            int f(int x) { return x; }
            int main(void) {
                int (*p)(int) = f;
                printf("%d\n", p(1));  /* indirect + builtin */
                return f(2);           /* direct */
            }
            "#,
        )
        .unwrap();
        let program = flowgraph::build_program(module);
        assert_eq!(program.module.side.call_sites.len(), 3);
        assert_eq!(rankable_sites(&program).len(), 1);
    }

    #[test]
    fn hot_caller_amplifies_its_sites() {
        let module = minic::compile(
            r#"
            int leaf(int x) { return x; }
            int hot(int x) { return leaf(x); }   /* site in hot */
            int main(void) {
                int i, s = 0;
                for (i = 0; i < 100; i++) s += hot(i);
                s += leaf(0);                    /* site in main */
                return s;
            }
            "#,
        )
        .unwrap();
        let program = flowgraph::build_program(module);
        let ia = estimate_program(&program, IntraEstimator::Smart);
        let ie = estimate_invocations(&program, &ia, InterEstimator::Markov);
        let sites = estimate_sites(&program, &ia, &ie);
        // The leaf-call inside `hot` should far outrank the one in main:
        // hot runs ~4 times, so its site has global freq ~4 vs 1.
        let hot_site = sites
            .iter()
            .find(|s| {
                program.module.side.call_sites[s.site.0 as usize].caller
                    == program.function_id("hot").unwrap()
            })
            .unwrap();
        let main_leaf_site = sites
            .iter()
            .filter(|s| {
                program.module.side.call_sites[s.site.0 as usize].caller
                    == program.function_id("main").unwrap()
            })
            .map(|s| s.freq)
            .fold(f64::INFINITY, f64::min);
        assert!(hot_site.freq > main_leaf_site * 2.0);
    }
}
