//! Conservation checks for the telemetry layer: a traced pipeline run
//! must produce spans that nest (a child's aggregate time never
//! exceeds its parent's), counters that agree with ground truth the
//! test can compute independently, and a metrics snapshot that
//! round-trips through the schema-stable JSON.
//!
//! The registry is process-global, so everything lives in one `#[test]`
//! run serially; the obs unit tests guard themselves the same way.

use std::time::Instant;

/// Sum of `total_ns` over the direct children of `path`.
fn child_sum(m: &obs::Metrics, path: &str) -> u64 {
    m.children_of(path).map(|(_, s)| s.total_ns).sum()
}

#[test]
fn traced_pipeline_is_conservation_consistent() {
    obs::reset();
    obs::set_enabled(true);

    // ── Serial single-program run: span nesting and time bounds. ──
    // (The parallel `load_suite` fan-out is checked below for counters
    // only — worker threads' span times overlap, so their sum is *not*
    // bounded by wall clock.)
    let bench = suite::by_name("bison").expect("bison in suite");
    let wall = Instant::now();
    let data = bench::load_program(bench);
    let wall_ns = wall.elapsed().as_nanos() as u64;

    obs::set_enabled(false);
    let m = obs::snapshot();

    // Every pipeline stage shows up, nested where it runs. The
    // compile stages run on the calling thread, so their paths are
    // exact; the VM executions are pool tasks, which run either on a
    // worker (their span is a root) or on the waiting caller when it
    // helps (nested under the caller's stack) — so for them only
    // existence by leaf name is schedule-independent.
    let root = "bench.load_program";
    for path in [
        root,
        "bench.load_program/minic.compile",
        "bench.load_program/minic.compile/minic.parse",
        "bench.load_program/minic.compile/minic.sema",
        "bench.load_program/flowgraph.build",
        "bench.load_program/flowgraph.build/flowgraph.lower",
        "bench.load_program/profiler.compile",
    ] {
        assert!(m.spans.contains_key(path), "missing span `{path}`");
    }
    let leaf_count = |leaf: &str| -> u64 {
        m.spans
            .iter()
            .filter(|(p, _)| p.rsplit('/').next() == Some(leaf))
            .map(|(_, s)| s.count)
            .sum()
    };
    assert_eq!(
        leaf_count("profiler.execute"),
        data.profiles.len() as u64,
        "one VM execution per input, wherever it was scheduled"
    );
    assert_eq!(m.spans[root].count, 1);

    // Conservation: instrumented time is contained by what encloses
    // it, level by level, up to the wall clock the test measured.
    assert!(
        m.spans[root].total_ns <= wall_ns,
        "root span {}ns exceeds wall {}ns",
        m.spans[root].total_ns,
        wall_ns
    );
    for parent in [
        root,
        "bench.load_program/minic.compile",
        "bench.load_program/flowgraph.build",
    ] {
        let children = child_sum(&m, parent);
        assert!(
            children <= m.spans[parent].total_ns,
            "children of `{parent}` sum to {children}ns > parent {}ns",
            m.spans[parent].total_ns
        );
    }

    // Counters agree with ground truth computed from the result.
    assert_eq!(m.counters["bench.programs"], 1);
    assert_eq!(m.counters["bench.profiles"], data.profiles.len() as u64);
    assert_eq!(
        m.counters["flowgraph.functions"],
        data.program.defined_ids().len() as u64
    );
    assert!(m.counters["profiler.steps"] > 0);
    assert_eq!(m.counters["profiler.runs"], data.profiles.len() as u64);

    // The snapshot survives the JSON schema byte-for-byte.
    let json = m.to_json();
    let back = obs::Metrics::from_json(&json).expect("metrics parse back");
    assert_eq!(back, m);
    assert_eq!(back.to_json(), json, "round-trip is byte-stable");

    // ── Parallel suite fan-out: counters aggregate across threads. ──
    obs::reset();
    obs::set_enabled(true);
    let suite_data = bench::load_suite();
    obs::set_enabled(false);
    let m = obs::snapshot();

    assert_eq!(m.counters["bench.programs"], suite_data.len() as u64);
    let total_profiles: u64 = suite_data.iter().map(|d| d.profiles.len() as u64).sum();
    assert_eq!(m.counters["bench.profiles"], total_profiles);
    assert_eq!(m.spans["bench.load_suite"].count, 1);
    // The suite fans out as pool tasks: one compile task per program,
    // one profile task per (program, input). Where each span lands in
    // the path tree depends on which thread ran the task, so count by
    // leaf name, which is scheduling-independent.
    let leaf_count = |leaf: &str| -> u64 {
        m.spans
            .iter()
            .filter(|(p, _)| p.rsplit('/').next() == Some(leaf))
            .map(|(_, s)| s.count)
            .sum()
    };
    assert_eq!(leaf_count("minic.compile"), suite_data.len() as u64);
    assert_eq!(leaf_count("profiler.compile"), suite_data.len() as u64);
    assert_eq!(leaf_count("profiler.execute"), total_profiles);
    // The pool counts every task it runs, exactly once.
    assert_eq!(
        m.counters["pool.tasks"],
        suite_data.len() as u64 + total_profiles
    );

    obs::reset();
}
