//! Reuse-estimator benchmark: times the static prediction and the
//! exact tracing mode on representative suite programs, scores
//! predicted vs traced, and appends a `reuse/v1` row to
//! `BENCH_pipeline.json` at the repository root. Run with
//! `cargo bench -p bench --bench reuse` (`BENCH_QUICK=1` reduces
//! repetitions for CI; the recorded row is identical either way —
//! the measured quantities are one-shot wall times and exact scores,
//! not criterion statistics).
//!
//! Schema (`reuse/v1`), one block of keys per program:
//! `<prog>_estimate_ms` is the static prediction's wall time,
//! `<prog>_trace_ms` the exact traced run over all standard inputs,
//! `<prog>_plain_ms` the same runs untraced (the tracing overhead
//! baseline), `<prog>_traced_events` the trace's access count, and
//! `<prog>_score` the weight-matching agreement at the 25% cutoff.

use criterion::{criterion_group, criterion_main, Criterion};
use profiler::ExecScratch;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const PROGRAMS: [&str; 2] = ["compress", "cholesky"];

fn quick() -> bool {
    std::env::var_os("REUSE_BENCH_QUICK").is_some() || std::env::var_os("BENCH_QUICK").is_some()
}

struct ReuseRow {
    name: &'static str,
    estimate_ms: f64,
    trace_ms: f64,
    plain_ms: f64,
    traced_events: u64,
    score: f64,
}

fn measure(name: &'static str) -> ReuseRow {
    let bench_prog = suite::by_name(name).expect("program in suite");
    let program = bench_prog.compile().expect("suite program compiles");
    let compiled = profiler::compile(&program);
    let objects = profiler::ObjectMap::for_module(&program.module);
    let inputs = bench_prog.inputs();

    let t = Instant::now();
    let est = black_box(reuse::estimate(&program));
    let estimate_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let mut trace = profiler::ReuseTrace::empty(&objects);
    for input in &inputs {
        let config = profiler::RunConfig::with_input(input.clone());
        let mut tap = profiler::ReuseCollector::new(objects.clone());
        compiled
            .execute(&config, &mut ExecScratch::default(), Some(&mut tap))
            .expect("suite program runs traced");
        trace.merge(&tap.finish());
    }
    let trace_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    for input in &inputs {
        let config = profiler::RunConfig::with_input(input.clone());
        black_box(
            compiled
                .execute(&config, &mut ExecScratch::default(), None)
                .expect("suite program runs"),
        );
    }
    let plain_ms = t.elapsed().as_secs_f64() * 1e3;

    ReuseRow {
        name,
        estimate_ms,
        trace_ms,
        plain_ms,
        traced_events: trace.events,
        score: reuse::score(&est, &trace),
    }
}

fn write_trajectory() {
    let mut entry = String::from("{\"schema\": \"reuse/v1\"");
    for name in PROGRAMS {
        let r = measure(name);
        write!(
            entry,
            ", \"{0}_estimate_ms\": {1:.2}, \"{0}_trace_ms\": {2:.1}, \
             \"{0}_plain_ms\": {3:.1}, \"{0}_traced_events\": {4}, \"{0}_score\": {5:.3}",
            r.name, r.estimate_ms, r.trace_ms, r.plain_ms, r.traced_events, r.score
        )
        .unwrap();
    }
    entry.push('}');
    println!("reuse/record_json: {entry}");

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

fn record_trajectory(c: &mut Criterion) {
    let mut group = c.benchmark_group("reuse");
    group.sample_size(if quick() { 10 } else { 20 });
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

criterion_group!(benches, record_trajectory);
criterion_main!(benches);
