//! The differential fuzzer as a property test.
//!
//! Every generated program must pass all seven oracles (round trip,
//! VM vs AST walker, sparse vs dense solver, profile invariants,
//! estimator sanity). The vendored `proptest` stub has no shrinking, so
//! on failure this test runs the fuzzer's own IR-level minimizer and
//! prints the shrunk program alongside the seed; reproduce and re-shrink
//! any failure with `cargo run --release -p fuzzgen -- --seed N --count
//! 1 --minimize`.

use fuzzgen::{check_source, generate, minimize, CheckConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_programs_pass_all_oracles(seed in 0u64..1_000_000) {
        let config = CheckConfig { plan_seed: seed, ..CheckConfig::default() };
        if let Err(failure) = check_source(&generate(seed).render(), &config) {
            let kind = failure.kind;
            let min = minimize(generate(seed), |p| {
                matches!(check_source(&p.render(), &config), Err(f) if f.kind == kind)
            });
            prop_assert!(
                false,
                "seed {seed} fails oracle {kind}: {}\n--- minimized ---\n{}",
                failure.detail,
                min.render()
            );
        }
    }
}
