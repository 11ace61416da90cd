//! Scheduling- and cache-independence of the suite pipeline: the
//! work-stealing pool merges results into slots indexed by (program,
//! input) position, so every pool size must produce identical output,
//! and a warm (artifact-cached) load must reproduce a cold one
//! exactly.

use cache::Cache;
use pool::Pool;

/// Deterministic rendering of everything `load_*` produces that
/// downstream experiments consume. `Profile` is integer counts plus a
/// sorted-on-render edge map, so equality here is byte-equality of
/// the whole result.
fn render(data: &[bench::ProgramData]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for d in data {
        writeln!(
            out,
            "== {} ({} blocks)",
            d.bench.name,
            d.program.total_blocks()
        )
        .unwrap();
        for p in &d.profiles {
            let mut edges: Vec<_> = p.edge_counts.iter().collect();
            edges.sort();
            writeln!(
                out,
                "{:?} {:?} {:?} {:?} {:?} {edges:?}",
                p.block_counts, p.branch_counts, p.call_site_counts, p.func_counts, p.func_cost
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn pool_sizes_one_two_and_n_agree() {
    // A 4-program subset keeps three uncached loads affordable while
    // still exercising the compile-task → profile-task fan-out.
    let subset = ["compress", "cc", "eqntott", "alvinn"];
    let load = |threads: usize| -> String {
        let pool = Pool::new(threads);
        let data: Vec<bench::ProgramData> = subset
            .iter()
            .map(|n| bench::load_program_with(suite::by_name(n).unwrap(), &pool, None))
            .collect();
        render(&data)
    };
    let one = load(1);
    let two = load(2);
    let n = load(pool::default_threads());
    assert_eq!(one, two, "pool size 1 vs 2 diverged");
    assert_eq!(one, n, "pool size 1 vs N diverged");
}

#[test]
fn cold_and_warm_suite_loads_are_identical() {
    let dir = std::env::temp_dir().join(format!("sfe-determinism-cache-{}", std::process::id()));
    let _fresh = std::fs::remove_dir_all(&dir);
    let cache = Cache::open(&dir).unwrap();
    let pool = pool::global();

    let cold = render(&bench::load_suite_with(pool, Some(&cache), 0));
    assert!(cache.entry_count() > 0, "cold run must populate the cache");

    obs::reset();
    obs::set_enabled(true);
    let warm = render(&bench::load_suite_with(pool, Some(&cache), 0));
    obs::set_enabled(false);
    let m = obs::snapshot();
    obs::reset();

    assert_eq!(cold, warm, "cached profiles diverged from computed ones");
    let hits = m.counters.get("cache.hits").copied().unwrap_or(0);
    let misses = m.counters.get("cache.misses").copied().unwrap_or(0);
    assert!(hits > 0, "warm run should hit the artifact cache");
    assert_eq!(misses, 0, "warm run should not miss: {m:?}");
    let _cleanup = std::fs::remove_dir_all(&dir);
}
