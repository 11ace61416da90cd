//! Replays every checked-in fuzzer counterexample.
//!
//! Each file in `tests/corpus/` is a minimized program that once made
//! one of the six differential oracles fire (its header comment names
//! the seed and the oracle). The bugs are fixed, so every file must now
//! pass `check_source` cleanly — a regression here means one of the
//! fixed bugs is back.
//!
//! Files whose name contains `_diag_` are the exception: they are
//! *invalid* programs that once crashed the front end (process aborts
//! instead of diagnostics). For those the contract is inverted — the
//! whole pipeline must fail with a clean `compile` diagnostic, never a
//! panic and never a successful compile.

use fuzzgen::{check_source, CheckConfig, FailureKind};

#[test]
fn every_corpus_counterexample_passes_all_oracles() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut replayed = 0;
    let mut entries: Vec<_> = std::fs::read_dir(corpus)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "c"))
        .collect();
    entries.sort();
    let config = CheckConfig::default();
    for path in entries {
        let src = std::fs::read_to_string(&path).expect("readable corpus file");
        let diagnostic_entry = path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().contains("_diag_"));
        // A panic anywhere in check_source fails the test for both
        // kinds of entry — that is the whole point of the diag files.
        match check_source(&src, &config) {
            Ok(_) if diagnostic_entry => panic!(
                "{} is an invalid-program entry but compiled cleanly",
                path.display()
            ),
            Ok(_) => {}
            Err(failure) if diagnostic_entry => assert_eq!(
                failure.kind,
                FailureKind::Compile,
                "{} must fail with a compile diagnostic, got oracle {}:\n{}",
                path.display(),
                failure.kind,
                failure.detail
            ),
            Err(failure) => panic!(
                "{} regressed: oracle {} fired again:\n{}",
                path.display(),
                failure.kind,
                failure.detail
            ),
        }
        replayed += 1;
    }
    // Guard against the directory silently going missing or empty: the
    // corpus must cover at least the three original bug classes.
    assert!(replayed >= 3, "only {replayed} corpus files replayed");
}

/// Generated `_diag_` cases: pathologically deep programs (10k nested
/// parentheses is a ~20 KB file that once overflowed the stack of
/// `sfe blocks`) must fail with the parser's nesting diagnostic, and
/// the same shapes just inside the limit must pass every oracle.
#[test]
fn deep_nesting_is_a_diagnostic_not_an_abort() {
    type Shape = (&'static str, fn(usize) -> String);
    let shapes: [Shape; 5] = [
        ("parens", |n| {
            format!(
                "int main(void){{return {}1{};}}",
                "(".repeat(n),
                ")".repeat(n)
            )
        }),
        ("sum", |n| {
            format!("int main(void){{return {}1;}}", "1+".repeat(n))
        }),
        ("blocks", |n| {
            format!(
                "int main(void){{{}return 0;}}",
                "{".repeat(n) + &"}".repeat(n)
            )
        }),
        ("ifs", |n| {
            format!(
                "int main(void){{int x; x=1; {}x=2; return x;}}",
                "if (x) ".repeat(n)
            )
        }),
        ("pointers", |n| {
            format!("int main(void){{int {}p; p=0; return 0;}}", "*".repeat(n))
        }),
    ];
    let config = CheckConfig::default();
    for (name, make) in shapes {
        let deep = make(10_000);
        let failure = check_source(&deep, &config).expect_err(name);
        assert_eq!(
            failure.kind,
            FailureKind::Compile,
            "{name}: {}",
            failure.detail
        );
        assert!(
            failure.detail.contains("nesting too deep"),
            "{name}: {}",
            failure.detail
        );
        // Well inside the limit for every shape (parentheses cost two
        // levels each).
        let shallow = make(40);
        if let Err(f) = check_source(&shallow, &config) {
            panic!("{name} at depth 40 fired oracle {}:\n{}", f.kind, f.detail);
        }
    }
}
