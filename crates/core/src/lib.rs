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

pub use branch::{predict_module, Heuristic, Prediction};
pub use inter::{estimate_invocations, InterEstimates, InterEstimator};
pub use intra::{estimate_program, IntraEstimates, IntraEstimator};
pub use metric::weight_matching;
pub use missrate::{miss_rates, MissRates};
