//! Corpus engine trajectory: runs the streaming engine over a
//! generated corpus, asserts its bounded-memory and throughput
//! contracts, and appends one `corpus/v1` row to
//! `BENCH_pipeline.json`. Run with `cargo bench -p bench --bench
//! corpus` (`BENCH_QUICK=1` or `CORPUS_BENCH_QUICK=1` shrinks the
//! corpus for CI).
//!
//! Schema (`corpus/v1`): `programs_per_sec` is sustained wall-clock
//! throughput over the whole run; `p50_ms`/`p99_ms` are per-program
//! pipeline latencies; `peak_rss_bytes` is the run's high-water mark
//! (the kernel peak is reset first); `quantiles` holds `[p25, p50,
//! p75]` weight-matching scores per heuristic over the `all` bucket;
//! `buckets` holds per-stratum program counts.

use bench::corpus::{run_corpus, CorpusConfig, HEURISTICS};
use criterion::{criterion_group, criterion_main, Criterion};

fn quick() -> bool {
    std::env::var_os("CORPUS_BENCH_QUICK").is_some() || std::env::var_os("BENCH_QUICK").is_some()
}

/// Fixed allowance on top of the configured window budget for
/// everything that is not in-flight corpus state: the binary, the
/// suite, Criterion, pool stacks, and allocator slack. The streaming
/// engine's peak RSS must stay under `mem_budget + OVERHEAD_BYTES` —
/// measured headroom is ~30x, so a violation means retention crept
/// back in, not that the allowance is tight.
const OVERHEAD_BYTES: u64 = 128 * 1024 * 1024;

fn record_trajectory(c: &mut Criterion) {
    let mut group = c.benchmark_group("corpus");
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

fn write_trajectory() {
    let count = if quick() { 1000 } else { 10_000 };
    let base = CorpusConfig {
        count,
        ..CorpusConfig::default()
    };

    obs::reset_peak_rss();
    let report = run_corpus(&base);

    // The bounded-memory contract: in-flight state is capped by the
    // window, so peak RSS stays under budget + fixed overhead no
    // matter the corpus size.
    if let Some(rss) = report.peak_rss_bytes {
        assert!(
            rss <= base.mem_budget_bytes + OVERHEAD_BYTES,
            "streaming peak RSS {} MiB exceeds budget {} MiB + {} MiB overhead",
            rss >> 20,
            base.mem_budget_bytes >> 20,
            OVERHEAD_BYTES >> 20,
        );
    }
    // Throughput floor: far below measured (~800/s single-thread on
    // the reference box), high enough to catch an accidental
    // reintroduction of per-program recompiles or retained state even
    // on slow shared CI runners.
    assert!(
        report.programs_per_sec >= 150.0,
        "streaming corpus throughput collapsed: {:.1} programs/sec",
        report.programs_per_sec
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    let mut buckets = String::new();
    for b in &report.buckets {
        if !buckets.is_empty() {
            buckets.push_str(", ");
        }
        buckets.push_str(&format!("\"{}\": {}", b.label, b.count));
    }
    let mut quantiles = String::new();
    for (h, q) in HEURISTICS.iter().zip(report.total.quantiles()) {
        if !quantiles.is_empty() {
            quantiles.push_str(", ");
        }
        quantiles.push_str(&format!("\"{h}\": [{:.4}, {:.4}, {:.4}]", q[0], q[1], q[2]));
    }
    let entry = format!(
        "{{\"schema\": \"corpus/v1\", \"engine\": \"streaming\", \"count\": {}, \
          \"evaluated\": {}, \"duplicates\": {}, \"errors\": {}, \
          \"wall_s\": {:.2}, \"programs_per_sec\": {:.1}, \
          \"p50_ms\": {:.2}, \"p99_ms\": {:.2}, \
          \"peak_rss_bytes\": {}, \"mem_budget_bytes\": {}, \"window\": {}, \
          \"pool_workers\": {}, \"pool_threads_env\": \"{}\", \
          \"aggregate_digest\": \"{:016x}\", \
          \"buckets\": {{{buckets}}}, \"quantiles\": {{{quantiles}}}}}",
        report.requested,
        report.evaluated,
        report.duplicates,
        report.errors,
        report.elapsed_s,
        report.programs_per_sec,
        report.p50_ms,
        report.p99_ms,
        report.peak_rss_bytes.unwrap_or(0),
        base.mem_budget_bytes,
        report.window,
        report.jobs,
        report.pool_threads_env.as_deref().unwrap_or("unset"),
        report.aggregate_digest(),
    );
    println!("corpus/record_json: {entry}");
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
