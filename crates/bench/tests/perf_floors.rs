//! Wall-clock and memory floors, in one file.
//!
//! These tests time real work, so they mean something only in an
//! optimized build and only with the machine to themselves. They are
//! `#[ignore]`d (the workspace gate runs debug builds in parallel) and
//! run explicitly, one at a time, because the telemetry registry and
//! the peak-RSS high-water mark are process-global:
//!
//! ```sh
//! cargo test --release -p bench --test perf_floors -- --ignored --test-threads 1
//! ```
//!
//! The floors sit far below measured figures: a failure means a
//! regression in kind (retained state, per-program recompiles, a
//! probe on the hot path), not a slow runner.

use bench::corpus::{run_corpus, CorpusConfig};
use profiler::RunConfig;
use std::hint::black_box;
use std::time::Instant;

/// Peak RSS bound for a 1,000-program corpus run: the binary, the
/// suite, pool stacks, the in-flight programs, the fold's dedup set and
/// allocator slack. The measured peak is ~8 MiB (2-core x86-64 VM), so
/// a violation means retention crept back in, not that the bound is
/// tight.
const CORPUS_MAX_RSS_BYTES: u64 = 384 * 1024 * 1024;

/// Sustained corpus throughput floor. Measured is ~2,000 programs/s
/// on a 2-core x86-64 VM; this catches per-program recompiles or
/// retained state even on a slow shared runner.
const CORPUS_MIN_PROGRAMS_PER_SEC: f64 = 150.0;

/// Budget for the enabled-telemetry slowdown of a compress run.
const TELEMETRY_OVERHEAD_BUDGET: f64 = 0.02;

/// Interleaved disabled/enabled pairs behind the median ratio (after
/// one discarded warm-up pair).
const TELEMETRY_PAIRS: usize = 61;

#[test]
#[ignore = "release-only timing floor; run with --release -- --ignored --test-threads 1"]
fn corpus_stays_in_budget_and_above_throughput_floor() {
    let config = CorpusConfig {
        count: 1000,
        ..CorpusConfig::default()
    };
    obs::reset_peak_rss();
    let report = run_corpus(&config);

    // In-flight state is one program per running thread, so peak RSS
    // stays far under the bound.
    if let Some(rss) = report.peak_rss_bytes {
        assert!(
            rss <= CORPUS_MAX_RSS_BYTES,
            "corpus peak RSS {} MiB exceeds {} MiB",
            rss >> 20,
            CORPUS_MAX_RSS_BYTES >> 20,
        );
    }
    assert!(
        report.programs_per_sec >= CORPUS_MIN_PROGRAMS_PER_SEC,
        "corpus throughput collapsed: {:.1} programs/sec (floor {CORPUS_MIN_PROGRAMS_PER_SEC})",
        report.programs_per_sec
    );
}

#[test]
#[ignore = "release-only timing floor; run with --release -- --ignored --test-threads 1"]
fn telemetry_overhead_is_under_two_percent() {
    let bench_prog = suite::by_name("compress").expect("compress in suite");
    let program = bench_prog.compile().expect("compress compiles");
    let config = RunConfig::with_input(bench_prog.inputs().remove(0));
    let timed = || {
        let t = Instant::now();
        black_box(profiler::run(&program, &config).expect("compress runs"));
        t.elapsed().as_secs_f64()
    };

    let timed_with = |enabled: bool| {
        obs::set_enabled(enabled);
        let t = timed();
        obs::set_enabled(false);
        obs::reset();
        t
    };

    // Adjacent disabled/enabled reps sample nearly the same host state,
    // so their ratio isolates the probe cost from host-load noise.
    // Which side runs first alternates, so a warming cache or a load
    // change inside a pair favours neither side, and the first pair
    // (cold code and data) is discarded. Enabled probes do strictly
    // more work than disabled ones, so the enabled overhead bounds
    // what the shipping default pays.
    let mut ratios = Vec::with_capacity(TELEMETRY_PAIRS);
    for pair in 0..=TELEMETRY_PAIRS {
        let (disabled, enabled) = if pair % 2 == 0 {
            let disabled = timed_with(false);
            (disabled, timed_with(true))
        } else {
            let enabled = timed_with(true);
            (timed_with(false), enabled)
        };
        if pair > 0 {
            ratios.push(enabled / disabled);
        }
    }
    ratios.sort_by(f64::total_cmp);
    let overhead = ratios[ratios.len() / 2] - 1.0;
    println!(
        "enabled-telemetry overhead {:+.2}% over {TELEMETRY_PAIRS} pairs (median ratio)",
        overhead * 100.0
    );
    assert!(
        overhead <= TELEMETRY_OVERHEAD_BUDGET,
        "enabled-telemetry overhead {:+.2}% over {TELEMETRY_PAIRS} pairs (median ratio) \
         exceeds the {:.0}% budget",
        overhead * 100.0,
        TELEMETRY_OVERHEAD_BUDGET * 100.0
    );
}
