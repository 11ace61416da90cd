//! Traced end-to-end pipeline: loads and scores the whole suite with
//! telemetry enabled, then appends the per-stage times and counters to
//! `BENCH_pipeline.json` at the repository root. Run with
//! `cargo bench -p bench --bench pipeline`.
//!
//! Like `interp_throughput`, the trajectory file is a JSON array with
//! one entry per run, committed by CI's quick-bench step. The traced
//! run is one-shot (the registry aggregates a single pass), so there
//! is no quick/full mode split.
//!
//! Schema (`pipeline/v2`): keys ending `_wall_ms` (and the legacy
//! `wall_ms`) are wall-clock; keys ending `_cpu_ms` are *CPU time
//! summed across pool workers*, so they legitimately exceed the wall
//! figures on multi-core runs. v1 rows (no `schema` key) used plain
//! `*_ms` names for the same CPU sums — `profiler_execute_ms: 15280`
//! inside a 905 ms wall run was parallel CPU time, not a timing bug.
//! The `opt_*` keys measure the `-O3` optimizing backend on compress:
//! optimization cost, measured VM steps before/after, and per-pass
//! work counters. Rows with `opt_schema: "opt/v2"` additionally carry
//! `opt_pass_steps` — cumulative measured VM steps after each
//! pipeline stage (inline, fold, dce, fuse, mine, layout), so the
//! delta between consecutive stages attributes the saved steps to
//! exactly one pass — plus the `opt_dce_ops` and `opt_mined` work
//! counters.

use criterion::{criterion_group, criterion_main, Criterion};
use estimators::eval;
use profiler::{CompiledProgram, ExecScratch};
use std::hint::black_box;
use std::time::Instant;

/// Inclusive milliseconds attributed to `stage`, summed over every
/// span path ending in it (a stage can appear under several parents —
/// `linsolve.solve` runs under both estimator passes).
fn stage_ms(m: &obs::Metrics, stage: &str) -> f64 {
    m.spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(stage))
        .map(|(_, s)| s.total_ns)
        .sum::<u64>() as f64
        / 1e6
}

fn counter(m: &obs::Metrics, name: &str) -> u64 {
    m.counters.get(name).copied().unwrap_or(0)
}

fn record_trajectory(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    let mut recorded = false;
    group.bench_function("record_json", |b| {
        b.iter(|| {
            if !recorded {
                recorded = true;
                write_trajectory();
            }
        })
    });
    group.finish();
}

/// One traced cold-or-warm pass: load the suite through `cache`,
/// score every program, and return (wall ms, metrics, rendered
/// scores). The scores are Debug-rendered so cold-vs-warm equality is
/// a byte comparison — f64 Debug is shortest-round-trip exact.
fn traced_pass(cache: &cache::Cache) -> (f64, obs::Metrics, String) {
    obs::reset();
    obs::set_enabled(true);
    let wall = Instant::now();
    let data = bench::load_suite_with(pool::global(), Some(cache), 0);
    let mut scores = String::new();
    for d in &data {
        use std::fmt::Write as _;
        let s = black_box(eval::score_program(&d.program, &d.profiles));
        writeln!(scores, "{} {s:?}", d.bench.name).unwrap();
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    obs::set_enabled(false);
    let m = obs::snapshot();
    obs::reset();
    (wall_ms, m, scores)
}

struct OptPass {
    optimize_cpu_ms: f64,
    steps_before: u64,
    steps_after: u64,
    stats: opt::OptStats,
    /// Cumulative VM steps after each pipeline stage (`opt/v2`): the
    /// delta between consecutive entries is that pass's contribution.
    pass_steps: Vec<(&'static str, u64)>,
}

/// The optimizer row: compress at `-O3`, full budget, static-estimate
/// frequencies; measured steps on the first standard input.
fn optimizer_pass() -> OptPass {
    let bench_prog = suite::by_name("compress").expect("compress in suite");
    let program = bench_prog.compile().expect("compiles");
    let cp = profiler::compile(&program);
    let ranking = estimators::ranking::StaticRanking::new(&program);
    let plan = bench::plan_from_ranking(&ranking, &cp, 3, cp.funcs.len());

    obs::reset();
    obs::set_enabled(true);
    let (ocp, stats) = opt::optimize(&cp, &plan);
    obs::set_enabled(false);
    let m = obs::snapshot();
    obs::reset();

    let config = profiler::RunConfig::with_input(bench_prog.inputs().remove(0));
    let steps = |cp: &CompiledProgram, what: &str| {
        cp.execute(&config, &mut ExecScratch::default(), None)
            .unwrap_or_else(|e| panic!("{what} runs: {e}"))
            .steps
    };
    let steps_before = steps(&cp, "compress");
    let steps_after = steps(&ocp, "optimized compress");
    let pass_steps: Vec<(&'static str, u64)> = opt::stage_snapshots(&cp, &plan)
        .into_iter()
        .map(|(stage, scp)| (stage, steps(&scp, "stage snapshot")))
        .collect();
    assert_eq!(
        pass_steps.last().map(|&(_, s)| s),
        Some(steps_after),
        "the final stage snapshot must equal the production pipeline"
    );
    OptPass {
        optimize_cpu_ms: stage_ms(&m, "opt.optimize"),
        steps_before,
        steps_after,
        stats,
        pass_steps,
    }
}

fn write_trajectory() {
    // A fresh artifact-cache directory per invocation: the first pass
    // is guaranteed cold, the second guaranteed warm.
    let cache_dir = std::env::temp_dir().join(format!("sfe-pipeline-cache-{}", std::process::id()));
    let _fresh = std::fs::remove_dir_all(&cache_dir);
    let cache = cache::Cache::open(&cache_dir).expect("opening bench cache dir");

    let (cold_ms, m, cold_scores) = traced_pass(&cache);
    let (warm_ms, m_warm, warm_scores) = traced_pass(&cache);
    assert_eq!(
        cold_scores, warm_scores,
        "warm (cached) suite scores must be byte-identical to cold"
    );
    let _cleanup = std::fs::remove_dir_all(&cache_dir);

    let o = optimizer_pass();

    // Per-program span times overlap across the parallel `load_suite`
    // tasks, so the `*_cpu_ms` stage columns are CPU-time aggregates
    // summed over workers (they exceed wall time on multi-core runs by
    // design); the `*wall_ms` columns are the only wall-clock figures.
    // A separate warm-run row reports the persistent artifact cache,
    // which carries all the profiling work there.
    let entry = format!(
        "{{\"schema\": \"pipeline/v2\", \"wall_ms\": {cold_ms:.1}, \
          \"suite_cold_wall_ms\": {cold_ms:.1}, \"suite_warm_wall_ms\": {warm_ms:.1}, \
          \"minic_compile_cpu_ms\": {:.1}, \"flowgraph_build_cpu_ms\": {:.1}, \
          \"linsolve_solve_cpu_ms\": {:.1}, \"profiler_execute_cpu_ms\": {:.1}, \
          \"estimate_cpu_ms\": {:.1}, \"metric_weight_match_cpu_ms\": {:.1}, \
          \"programs\": {}, \"linsolve_solves\": {}, \
          \"linsolve_damped_fallback\": {}, \"profiler_steps\": {}, \
          \"artifact_cache_hits_cold\": {}, \"artifact_cache_misses_cold\": {}, \
          \"artifact_cache_hits_warm\": {}, \"artifact_cache_misses_warm\": {}, \
          \"pool_workers\": {}, \"pool_threads_env\": \"{}\", \
          \"pool_tasks\": {}, \"pool_steals\": {}, \
          \"metric_weight_matches\": {}, \
          \"opt_schema\": \"opt/v2\", \
          \"opt_program\": \"compress\", \"opt_level\": 3, \
          \"opt_optimize_cpu_ms\": {:.2}, \
          \"opt_steps_before\": {}, \"opt_steps_after\": {}, \"opt_speedup\": {:.3}, \
          \"opt_inlined_calls\": {}, \"opt_folded\": {}, \
          \"opt_dce_blocks\": {}, \"opt_dce_ops\": {}, \
          \"opt_fused\": {}, \"opt_mined\": {}, \
          \"opt_pass_steps\": {{{}}}}}",
        stage_ms(&m, "minic.compile"),
        stage_ms(&m, "flowgraph.build"),
        stage_ms(&m, "linsolve.solve"),
        stage_ms(&m, "profiler.execute"),
        stage_ms(&m, "estimate.intra") + stage_ms(&m, "estimate.inter"),
        stage_ms(&m, "metric.weight_match"),
        counter(&m, "bench.programs"),
        counter(&m, "linsolve.solves"),
        counter(&m, "linsolve.scc.damped_fallback"),
        counter(&m, "profiler.steps"),
        counter(&m, "cache.hits"),
        counter(&m, "cache.misses"),
        counter(&m_warm, "cache.hits"),
        counter(&m_warm, "cache.misses"),
        pool::global().workers(),
        std::env::var("SFE_POOL_THREADS").unwrap_or_else(|_| "unset".into()),
        counter(&m, "pool.tasks"),
        counter(&m, "pool.steals"),
        counter(&m, "metric.weight_matches"),
        o.optimize_cpu_ms,
        o.steps_before,
        o.steps_after,
        o.steps_before as f64 / o.steps_after as f64,
        o.stats.inlined_calls,
        o.stats.folded,
        o.stats.dce_blocks,
        o.stats.dce_ops,
        o.stats.fused,
        o.stats.mined,
        o.pass_steps
            .iter()
            .map(|(stage, steps)| format!("\"{stage}\": {steps}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    println!("pipeline/record_json: {entry}");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    let prior = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = prior.trim().trim_end_matches(']').trim_end_matches('\n');
    let body = if trimmed.is_empty() || trimmed == "[" {
        format!("[\n  {entry}\n]\n")
    } else {
        format!("{},\n  {entry}\n]\n", trimmed.trim_end_matches(','))
    };
    std::fs::write(path, body).expect("writing BENCH_pipeline.json");
}

criterion_group!(benches, record_trajectory);
criterion_main!(benches);
