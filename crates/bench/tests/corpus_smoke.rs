//! Quick-mode corpus smoke: a few hundred programs through the
//! streaming engine must populate every stratum, reproduce the pinned
//! aggregate digest, be invariant under `--jobs`, and write their
//! profiles through the artifact cache. CI runs this as the corpus
//! gate; the full 10k run lives in `benches/corpus.rs`.

use bench::corpus::{run_corpus, CorpusConfig};
use fuzzgen::corpus::Feature;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfe-corpus-smoke-{}-{tag}", std::process::id()));
    let _fresh = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn two_hundred_programs_fill_every_bucket_and_reach_the_cache() {
    let cache_dir = temp_dir("main");
    let base = CorpusConfig {
        count: 200,
        jobs: Some(1),
        cache_dir: Some(cache_dir.clone()),
        ..CorpusConfig::default()
    };
    let r = run_corpus(&base);

    // The digest's value is pinned, not only compared between runs, so
    // a change that shifts every run alike still fails here.
    assert_eq!(format!("{:016x}", r.aggregate_digest()), "4518b18289f0d37d");
    assert_eq!(r.requested, 200);
    assert_eq!(
        r.evaluated + r.duplicates + r.errors,
        200,
        "every seed accounted for"
    );
    assert_eq!(r.errors, 0, "generated programs never fault the VM");
    assert_eq!(r.total.count, r.evaluated);
    assert!(
        r.window > 0,
        "streaming engine always has a backpressure window"
    );
    assert!(r.p50_ms > 0.0 && r.p99_ms >= r.p50_ms);

    // The calibrated strata: 200 programs must hit every
    // feature/level bucket (thresholds were chosen for exactly this).
    for b in &r.buckets {
        assert!(b.count > 0, "bucket {} empty over 200 programs", b.label);
    }
    // Each program lands in exactly one bucket per feature.
    let per_feature: u64 = r.buckets.iter().map(|b| b.count).sum();
    assert_eq!(per_feature, r.evaluated * Feature::ALL.len() as u64);

    // Profiles streamed through the batched write tier and were
    // flushed by the end of the run.
    let cache = cache::Cache::open(&cache_dir).expect("reopen corpus cache");
    assert!(
        cache.entry_count() as u64 >= r.evaluated,
        "cache holds {} entries for {} programs",
        cache.entry_count(),
        r.evaluated
    );
    let _cleanup = std::fs::remove_dir_all(&cache_dir);

    // Aggregates are byte-identical at any worker count.
    for jobs in [2, 4] {
        let rj = run_corpus(&CorpusConfig {
            jobs: Some(jobs),
            cache_dir: None,
            ..base.clone()
        });
        assert_eq!(
            r.aggregate_digest(),
            rj.aggregate_digest(),
            "jobs={jobs} changed aggregates"
        );
    }
}

/// Corpus runs feed each seed a deterministic non-empty input — the
/// engine used to run everything on empty stdin, so `getchar`-driven
/// control flow in generated programs was never exercised.
#[test]
fn seed_inputs_are_deterministic_and_nonempty() {
    for seed in [0, 1, 7, 1000, u64::MAX] {
        let a = bench::corpus::seed_input(seed);
        let b = bench::corpus::seed_input(seed);
        assert_eq!(a, b, "seed {seed} input must be a pure function");
        assert!(
            (17..=80).contains(&a.len()),
            "seed {seed}: {} bytes",
            a.len()
        );
        assert_eq!(a.last(), Some(&b'\n'), "input ends in a newline");
        assert_eq!(bench::corpus::run_config(seed).input, a);
    }
    assert_ne!(
        bench::corpus::seed_input(1),
        bench::corpus::seed_input(2),
        "different seeds get different inputs"
    );
}

#[test]
fn bucket_subset_limits_strata() {
    let r = run_corpus(&CorpusConfig {
        count: 40,
        features: vec![Feature::Switch],
        jobs: Some(1),
        ..CorpusConfig::default()
    });
    assert_eq!(r.buckets.len(), 3, "one feature → three level buckets");
    assert!(r.buckets.iter().all(|b| b.label.starts_with("switch/")));
    assert_eq!(r.buckets.iter().map(|b| b.count).sum::<u64>(), r.evaluated);
}
