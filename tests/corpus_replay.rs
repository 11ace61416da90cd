//! Replays every checked-in fuzzer counterexample.
//!
//! Each file in `tests/corpus/` is a minimized program that once made
//! one of the differential oracles fire (its header comment names
//! the seed and the oracle). The bugs are fixed, so every file must now
//! pass `check_source` cleanly — a regression here means one of the
//! fixed bugs is back.
//!
//! Files whose name contains `_diag_` are the exception: they are
//! *invalid* programs that once crashed the front end (process aborts
//! instead of diagnostics). For those the contract is inverted — the
//! whole pipeline must fail with a clean `compile` diagnostic, never a
//! panic and never a successful compile. Files named `manual_rt_` are
//! hand-written valid programs that once aborted a run; they replay
//! like fuzzer entries, so both engines must agree on them. Files
//! named `manual_cov_` are hand-written valid programs that reach code
//! the generator never emits (a local `char s[] = "…"` initializer's
//! `InitWordsLocal` op; elements indexed by a plain local, the
//! `IndexAddr`/`LoadIdx` `LL`, `PL` and `LeaL` forms); they too replay
//! like fuzzer entries, so every oracle runs on that code. The
//! [`RUNTIME_ERROR_ENTRIES`] end in a runtime error by design: the
//! oracles must stop at them, and a test of its own pins each error's
//! rendered text in both engines.

use fuzzgen::{check_source, CheckConfig, FailureKind};

/// The `manual_rt_` entries whose runs end in a runtime error, with
/// the error's variant.
const RUNTIME_ERROR_ENTRIES: &[(&str, &str)] = &[
    ("manual_rt_big-output.c", "OutputBudget"),
    ("manual_rt_big-sprintf.c", "OutOfBounds"),
    ("manual_rt_deep-frames.c", "StackBudget"),
];

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
        let name = path
            .file_name()
            .map_or(String::new(), |n| n.to_string_lossy().into_owned());
        let diagnostic_entry = name.contains("_diag_");
        if let Some(&(_, error)) = RUNTIME_ERROR_ENTRIES.iter().find(|(n, _)| *n == name) {
            let failure = check_source(&src, &config).expect_err(&name);
            assert!(
                failure.kind == FailureKind::Runtime && failure.detail.contains(error),
                "{name} must fail with {error}, got oracle {}:\n{}",
                failure.kind,
                failure.detail
            );
            replayed += 1;
            continue;
        }
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

/// The -O0 op names of the `tests/corpus/` entry `name`.
fn op_names(name: &str) -> Vec<&'static str> {
    let path = format!("{}/tests/corpus/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(path).expect("readable corpus file");
    let module = minic::compile(&src).expect("valid MiniC");
    let cp = profiler::compile(&flowgraph::build_program(module));
    cp.ops.iter().map(profiler::bytecode::Op::name).collect()
}

/// The `manual_cov_` local-string entry reaches the op it exists for:
/// its bytecode initializes local char arrays with `InitWordsLocal`.
#[test]
fn the_local_string_entry_emits_init_words_local() {
    let ops = op_names("manual_cov_local-strings.c");
    let inits = ops.iter().filter(|&&n| n == "InitWordsLocal").count();
    assert_eq!(inits, 4, "one per local char array initializer");
}

/// The `manual_cov_` local-index entry reaches the six ops it exists
/// for: element addresses and loads indexed by a local, off a local
/// pointer, a global array and a local array.
#[test]
fn the_local_index_entry_emits_every_local_index_op() {
    let ops = op_names("manual_cov_pointer-local-index.c");
    for op in [
        "IndexAddrLL",
        "IndexAddrPL",
        "IndexAddrLeaL",
        "LoadIdxLL",
        "LoadIdxPL",
        "LoadIdxLeaL",
    ] {
        assert!(ops.contains(&op), "no {op} at -O0");
    }
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

/// Oversized objects (array sizes that wrap or exceed what any
/// allocation can hold, struct sums past the same limit, and global
/// data or frames past the static-size budget) must fail with sema's
/// size diagnostic, never a wrapped size, a wild address, an
/// allocation abort or a `capacity overflow` panic.
#[test]
fn oversized_objects_are_semantic_diagnostics() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut sources: Vec<String> = [
        "array-size-wrap",
        "array-size-overflow",
        "global-over-budget",
        "struct-array-over-budget",
        "frame-over-budget",
    ]
    .iter()
    .map(|name| {
        std::fs::read_to_string(format!("{corpus}/manual_diag_{name}.c"))
            .expect("readable corpus file")
    })
    .collect();
    let big = 300_000_000_000_000_000u64; // over half the word limit
    sources.extend([
        format!("struct T {{ int x[{big}]; int y[{big}]; }};\nint main(void) {{ return 0; }}"),
        format!("int a[{big}];\nint b[{big}];\nint main(void) {{ return 0; }}"),
        format!("int main(void) {{ int a[{big}]; int b[{big}]; return 0; }}"),
        "struct T { int x[4]; };\nstruct T t[4611686018427387904];\nint main(void) { return 0; }"
            .to_string(),
    ]);
    let config = CheckConfig::default();
    for src in &sources {
        let failure = check_source(src, &config).expect_err(src);
        assert_eq!(
            failure.kind,
            FailureKind::Compile,
            "{src}: {}",
            failure.detail
        );
        assert!(
            failure.detail.starts_with("semantic error") && failure.detail.contains("too large"),
            "{src}: {}",
            failure.detail
        );
    }
}

/// The static-size budget leaves every real program far below it: the
/// suite and 1,000 generated programs use at most 1/64 of it for their
/// data image and for any frame (the largest are xlisp's data image,
/// 129,536 words, and an espresso frame of 4,102).
#[test]
fn programs_stay_far_below_the_static_size_budget() {
    let mut modules: Vec<(String, minic::Module)> = suite::all()
        .iter()
        .map(|b| (b.name.to_string(), minic::compile(b.source).expect(b.name)))
        .collect();
    for seed in 0..1000 {
        let src = fuzzgen::generate(seed).render();
        let module = minic::compile(&src).expect("generated programs compile");
        modules.push((format!("seed {seed}"), module));
    }
    let (mut data, mut frame) = ((0, ""), (0, ""));
    for (name, m) in &modules {
        let words: usize = m.globals.iter().map(|g| g.size).sum();
        data = data.max((words, name));
        let words = m.functions.iter().map(|f| f.frame_size).max().unwrap_or(0);
        frame = frame.max((words, name));
    }
    println!("largest data image {data:?}, largest frame {frame:?}");
    let limit = minic::types::MAX_STATIC_WORDS / 64;
    assert!(data.0 <= limit && frame.0 <= limit, "over {limit} words");
}

/// Heap requests past the per-run budget (`malloc(4e9)`, a `calloc`
/// past it) or whose size overflows (`calloc(2^62, 4)`) return NULL in
/// both engines, the program goes on, and later requests that fit
/// still succeed. They once aborted the process or wrapped to a
/// zero-word block.
#[test]
fn over_budget_heap_requests_return_null() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    for (name, stdout) in [("malloc", "1 3\n"), ("calloc", "1 1 5\n")] {
        let path = format!("{corpus}/manual_rt_{name}-over-budget.c");
        let src = std::fs::read_to_string(&path).expect("readable corpus file");
        let program = flowgraph::build_program(minic::compile(&src).expect(&path));
        let config = profiler::RunConfig::default();
        for (engine, out) in [
            ("vm", profiler::run(&program, &config)),
            ("ast", profiler::run_ast(&program, &config)),
        ] {
            let out = out.unwrap_or_else(|e| panic!("{name} on {engine}: {e}"));
            assert_eq!(out.exit_code, 1, "{name} on {engine}: NULL expected");
            assert_eq!(out.stdout(), stdout, "{name} on {engine}");
        }
    }
}

/// Runs `tests/corpus/manual_rt_{name}.c` on both engines: each must
/// fail with `expected`, rendered as `text`.
fn fails_alike_in_both_engines(name: &str, expected: profiler::RuntimeError, text: &str) {
    let path = format!(
        "{}/tests/corpus/manual_rt_{name}.c",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(&path).expect("readable corpus file");
    let program = flowgraph::build_program(minic::compile(&src).expect(&path));
    let config = profiler::RunConfig::default();
    for (engine, out) in [
        ("vm", profiler::run(&program, &config)),
        ("ast", profiler::run_ast(&program, &config)),
    ] {
        let err = out.expect_err(engine);
        assert_eq!(err, expected, "{name} on {engine}");
        assert_eq!(err.to_string(), text, "{name} on {engine}");
    }
}

/// Frames whose sum passes the live-stack budget (`f(10000)` with a
/// 1,000,001-word frame, 10^10 words in all) are refused with the same
/// rendered runtime error by both engines, before the frame that would
/// cross the budget is allocated. They once aborted the process inside
/// the stack allocation.
#[test]
fn frames_past_the_stack_budget_are_a_runtime_error() {
    let limit = minic::types::MAX_STATIC_WORDS;
    fails_alike_in_both_engines(
        "deep-frames",
        profiler::RuntimeError::StackBudget { limit },
        &format!("call would take the live stack past {limit} words"),
    );
}

/// Output past its budget (a 999,999-byte string printed forever) is
/// refused at the 17th copy with the same rendered runtime error by
/// both engines. It once grew the output buffer until an allocation
/// aborted the process.
#[test]
fn output_past_the_output_budget_is_a_runtime_error() {
    let limit = minic::types::MAX_STATIC_WORDS;
    fails_alike_in_both_engines(
        "big-output",
        profiler::RuntimeError::OutputBudget { limit },
        &format!("program output would pass {limit} bytes"),
    );
}

/// A `sprintf` whose result cannot fit before the end of its
/// destination's segment (1,200 copies of a 999,999-byte string into a
/// 16-word global) stops after the first copy with the error of the
/// first store past the data segment, the same in both engines. It
/// once formatted the whole ~1.2 GB result first, until an allocation
/// aborted the process.
#[test]
fn sprintf_past_its_destination_segment_is_a_runtime_error() {
    fails_alike_in_both_engines(
        "big-sprintf",
        profiler::RuntimeError::OutOfBounds { addr: 0xf4bb2 },
        "wild address 0xf4bb2",
    );
}
