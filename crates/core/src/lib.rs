//! # estimators — accurate static estimators for program optimization
//!
//! The core library of this reproduction of **Wagner, Maverick, Graham &
//! Harrison, "Accurate Static Estimators for Program Optimization"
//! (PLDI 1994)**. Given a compiled MiniC program (see [`minic`] and
//! [`flowgraph`]), it produces compile-time estimates of:
//!
//! - **branch directions** — [`branch`], the "smart" heuristic
//!   predictor (§4.1);
//! - **basic-block frequencies within functions** — [`intra`]: the
//!   *loop*, *smart*, and CFG-*Markov* estimators (§4.2, §5.1);
//! - **function invocation counts** — [`inter`]: *call-site*, *direct*,
//!   *all-rec*, *all-rec2*, and the call-graph *Markov* model with
//!   pointer-node and recursion repair (§4.3, §5.2);
//! - **global call-site frequencies** — [`callsite`] (§5.3);
//!
//! and evaluates them against real profiles from the [`profiler`]
//! interpreter using Wall's weight-matching metric — [`metric`] (§3) —
//! and branch miss rates — [`missrate`] (Figure 2). The [`eval`]
//! module packages the paper's exact scoring methodology.
//!
//! [`estimate_all`] runs every estimator the paper scores over one
//! program, sharing one set of branch predictions, and
//! [`eval::score_estimates`] weight-matches that bundle against
//! profiles: the one estimate-and-score path behind the figures, the
//! corpus engine, `sfe suite` and the serve daemon.
//!
//! # Example
//!
//! ```
//! use estimators::{inter, intra};
//!
//! let module = minic::compile(r#"
//!     int work(int n) {
//!         int i, s = 0;
//!         for (i = 0; i < n; i++) s += i;
//!         return s;
//!     }
//!     int main(void) {
//!         int i, s = 0;
//!         for (i = 0; i < 50; i++) s += work(i);
//!         return s & 255;
//!     }
//! "#).unwrap();
//! let program = flowgraph::build_program(module);
//!
//! // Intra-procedural: the loop body is the hottest block.
//! let ia = intra::estimate_program(&program, intra::IntraEstimator::Smart);
//! let work = program.function_id("work").unwrap();
//! assert!(ia.blocks_of(work).iter().cloned().fold(0.0, f64::max) >= 4.0);
//!
//! // Inter-procedural: work is called from a loop, so its estimated
//! // invocation count is well above main's.
//! let ie = inter::estimate_invocations(&program, &ia, inter::InterEstimator::Markov);
//! assert!(ie.of(work) > 2.0);
//! ```

#![warn(missing_docs)]

pub mod branch;
pub mod callsite;
pub mod eval;
pub mod global;
pub mod inter;
pub mod intra;
pub mod metric;
pub mod missrate;
pub mod ranking;
pub mod tripcount;

pub use branch::{predict_module, Heuristic, Prediction, Predictions};
pub use inter::{estimate_invocations, InterEstimates, InterEstimator};
pub use intra::{estimate_program, IntraEstimates, IntraEstimator};
pub use metric::weight_matching;
pub use missrate::{miss_rates, MissRates};

use std::sync::Arc;

/// Every estimate the paper scores for one program: the three
/// intra-procedural estimators in [`IntraEstimator::ALL`] order and
/// the five inter-procedural ones in [`InterEstimator::ALL`] order.
#[derive(Debug, Clone)]
pub struct Estimates {
    /// Loop, smart and Markov block frequencies.
    pub intra: [IntraEstimates; 3],
    /// Call-site, direct, all-rec, all-rec2 and Markov invocations,
    /// all built on smart intra estimates as in the paper.
    pub inter: [InterEstimates; 5],
    /// The smart local frequency of every call site
    /// ([`inter::local_site_freqs`]), indexed by `CallSiteId`: what the
    /// inter estimators and the call-site ranking read.
    pub site_freqs: Vec<f64>,
}

impl Estimates {
    /// Completes three intra-procedural estimates (in
    /// [`IntraEstimator::ALL`] order) with the five inter-procedural
    /// ones, built on smart. The call sites' local frequencies are
    /// computed once and shared by all five.
    pub fn from_intra(program: &flowgraph::Program, intra: [IntraEstimates; 3]) -> Estimates {
        let site_freqs = inter::local_site_freqs(program, &intra[IntraEstimator::Smart as usize]);
        let main = program.function_id("main");
        let inter = inter::all_invocations(program, &site_freqs, main);
        Estimates {
            intra,
            inter,
            site_freqs,
        }
    }

    /// The block frequencies of one intra-procedural estimator.
    pub fn intra(&self, which: IntraEstimator) -> &IntraEstimates {
        &self.intra[which as usize]
    }

    /// The invocation estimates of one inter-procedural estimator.
    pub fn inter(&self, which: InterEstimator) -> &InterEstimates {
        &self.inter[which as usize]
    }
}

/// Runs every estimator over `program`. The branch predictions are
/// computed once and shared by all three intra-procedural estimators;
/// the inter-procedural ones build on smart, as in the paper.
pub fn estimate_all(program: &flowgraph::Program) -> Estimates {
    let predictions = Arc::new(predict_module(&program.module));
    Estimates::from_intra(program, intra::estimate_all_three(program, &predictions))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_lists_are_in_declaration_order() {
        for (i, w) in IntraEstimator::ALL.into_iter().enumerate() {
            assert_eq!(w as usize, i);
        }
        for (i, w) in InterEstimator::ALL.into_iter().enumerate() {
            assert_eq!(w as usize, i);
        }
    }
}
