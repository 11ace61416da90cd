//! Conservation checks for the telemetry layer: a traced pipeline run
//! must produce spans that nest (a child's aggregate time never
//! exceeds its parent's), one trace tree whatever the pool size,
//! counters that agree with ground truth the test can compute
//! independently, and a metrics snapshot that round-trips through the
//! schema-stable JSON.
//!
//! The registry is process-global, so everything lives in one `#[test]`
//! run serially; the obs unit tests guard themselves the same way.

use pool::Pool;
use std::collections::BTreeMap;
use std::time::Instant;

/// Sum of `total_ns` over the direct children of `path`.
fn child_sum(m: &obs::Metrics, path: &str) -> u64 {
    m.children_of(path).map(|(_, s)| s.total_ns).sum()
}

/// Every span path of a traced whole-suite load on a pool of
/// `threads`, with its count.
fn suite_paths(threads: usize) -> BTreeMap<String, u64> {
    obs::reset();
    obs::set_enabled(true);
    let suite_data = bench::load(&suite::all(), &Pool::new(threads), None, 0);
    obs::set_enabled(false);
    let m = obs::snapshot();

    assert_eq!(m.counters["bench.programs"], suite_data.len() as u64);
    let total_profiles: u64 = suite_data.iter().map(|d| d.profiles.len() as u64).sum();
    assert_eq!(m.counters["bench.profiles"], total_profiles);
    let under_load = |leaf: &str| m.spans[&format!("bench.load_suite/{leaf}")].count;
    assert_eq!(under_load("minic.compile"), suite_data.len() as u64);
    assert_eq!(under_load("flowgraph.build"), suite_data.len() as u64);
    assert_eq!(under_load("profiler.compile"), suite_data.len() as u64);
    assert_eq!(under_load("profiler.execute"), total_profiles);
    // The pool counts every task it runs, exactly once: one compile
    // task per program, one profile task per (program, input).
    assert_eq!(
        m.counters["pool.tasks"],
        suite_data.len() as u64 + total_profiles
    );
    m.spans.into_iter().map(|(p, s)| (p, s.count)).collect()
}

#[test]
fn traced_pipeline_is_conservation_consistent() {
    obs::reset();
    obs::set_enabled(true);

    // ── One program on a one-thread pool: span nesting and time. ──
    let bench = suite::by_name("bison").expect("bison in suite");
    let wall = Instant::now();
    let data = bench::load(&[bench], &Pool::new(1), None, 0).remove(0);
    let wall_ns = wall.elapsed().as_nanos() as u64;

    obs::set_enabled(false);
    let m = obs::snapshot();

    // Every pipeline stage shows up, nested where it runs.
    let root = "bench.load_suite";
    for path in [
        root,
        "bench.load_suite/minic.compile",
        "bench.load_suite/minic.compile/minic.parse",
        "bench.load_suite/minic.compile/minic.sema",
        "bench.load_suite/flowgraph.build",
        "bench.load_suite/flowgraph.build/flowgraph.lower",
        "bench.load_suite/profiler.compile",
    ] {
        assert!(m.spans.contains_key(path), "missing span `{path}`");
    }
    assert_eq!(
        m.spans["bench.load_suite/profiler.execute"].count,
        data.profiles.len() as u64,
        "one VM execution per input"
    );
    assert_eq!(m.spans[root].count, 1);
    assert!(
        m.spans.keys().all(|p| p.starts_with(root)),
        "a span outside the load: {:?}",
        m.spans.keys()
    );

    // Conservation: on one thread, instrumented time is contained by
    // what encloses it, level by level, up to the measured wall clock.
    assert!(
        m.spans[root].total_ns <= wall_ns,
        "root span {}ns exceeds wall {}ns",
        m.spans[root].total_ns,
        wall_ns
    );
    for (parent, stat) in &m.spans {
        let children = child_sum(&m, parent);
        assert!(
            children <= stat.total_ns,
            "children of `{parent}` sum to {children}ns > parent {}ns",
            stat.total_ns
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

    // ── The whole suite: one trace tree at any pool size. ──
    let one = suite_paths(1);
    let two = suite_paths(2);
    assert_eq!(one, two, "span paths or counts depend on the pool size");

    obs::reset();
}
