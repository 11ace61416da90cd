//! # fuzzgen — differential fuzzing for the estimator pipeline
//!
//! The paper's experiments (and this reproduction's claims about them)
//! rest on *exact agreement* between independent implementations of the
//! same semantics: the bytecode VM against the AST-walking interpreter,
//! the sparse SCC solver against the dense baseline, the pretty-printer
//! against the parser, and the measured profile against the CFG's own
//! conservation laws. This crate stress-tests all of those boundaries
//! at once:
//!
//! - [`gen`] — a typed, seed-deterministic MiniC program generator
//!   covering the full estimator-relevant surface (pointers, arrays,
//!   structs, function pointers, direct/mutual recursion, `switch`,
//!   `goto` — including jumps into loop bodies — `break`/`continue`,
//!   short-circuit `&&`/`||`, ternary, `char`/`float` arithmetic).
//!   Generated programs terminate and are fully defined *by
//!   construction*, so every oracle disagreement is a genuine bug.
//! - [`oracle`] — the six differential checks ([`check_source`]).
//! - [`minimize`](mod@minimize) — IR-level shrinking that preserves the failing
//!   oracle, used by both the CLI (`--minimize`) and the proptest
//!   target (the vendored proptest cannot shrink).
//!
//! Every failure is reproducible from a single `u64` seed:
//!
//! ```
//! let prog = fuzzgen::generate(42);
//! let src = prog.render();
//! fuzzgen::check_source(&src, &fuzzgen::CheckConfig::default())
//!     .expect("seed 42 passes all seven oracles");
//! ```
//!
//! The `fuzzgen` binary drives the same path from the command line; see
//! the README for the corpus workflow.

#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod minimize;
pub mod oracle;

pub use corpus::{Feature, StructuralFeatures};
pub use gen::{generate, generate_with, GenConfig, Prog};
pub use minimize::minimize;
pub use oracle::{check_source, CheckConfig, CheckStats, Failure, FailureKind};

/// Generates the program for `seed` and runs all seven oracles on it.
///
/// # Errors
///
/// Returns the first oracle disagreement.
pub fn check_seed(seed: u64, config: &CheckConfig) -> Result<CheckStats, Failure> {
    check_source(&generate(seed).render(), config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_checks_are_deterministic() {
        let a = check_seed(3, &CheckConfig::default());
        let b = check_seed(3, &CheckConfig::default());
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x.steps, y.steps),
            (Err(x), Err(y)) => assert_eq!(x.kind, y.kind),
            _ => panic!("one run passed, the other failed"),
        }
    }
}
