//! # static-estimators
//!
//! A reproduction of *Accurate Static Estimators for Program Optimization*
//! (Wagner, Maverick, Graham & Harrison — PLDI 1994) as a Rust workspace.
//!
//! This umbrella crate re-exports the workspace members so examples and
//! downstream users can depend on a single crate:
//!
//! - [`minic`] — the MiniC front end (lexer, parser, AST, types, sema).
//! - [`flowgraph`] — CFGs, call graphs, loops, dominators, SCCs.
//! - [`linsolve`] — the dense linear-system solver behind the Markov models.
//! - [`profiler`] — the instrumenting CFG interpreter and profile data.
//! - [`estimators`] — the paper's contribution: static frequency estimators
//!   and the weight-matching evaluation metric.
//! - [`suite`] — the 14-program benchmark suite with input generators.
//!
//! # Examples
//!
//! Estimate intra-procedural block frequencies for a tiny program:
//!
//! ```
//! use static_estimators::prelude::*;
//!
//! let src = r#"
//!     char *strchr(char *str, int c) {
//!         while (*str) {
//!             if (*str == c) return str;
//!             str++;
//!         }
//!         return 0;
//!     }
//! "#;
//! let module = minic::compile(src).expect("valid MiniC");
//! let program = flowgraph::build_program(module);
//! let est = estimators::intra::estimate_function(
//!     &program,
//!     program.function_id("strchr").unwrap(),
//!     estimators::intra::IntraEstimator::Smart,
//! );
//! assert!(!est.is_empty());
//! ```

#![warn(missing_docs)]

pub use estimators;
pub use flowgraph;
pub use linsolve;
pub use minic;
pub use profiler;
pub use suite;

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use estimators;
    pub use flowgraph;
    pub use linsolve;
    pub use minic;
    pub use profiler;
    pub use suite;
}
