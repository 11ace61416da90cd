//! Predicted-vs-traced reuse histograms over the benchmark suite.
//!
//! Mirrors the frequency estimators' validation loop: run each suite
//! program under the exact reuse tracer, predict the histogram
//! statically, and weight-match the two distributions. The score
//! floors are deliberately conservative — the point is to catch
//! regressions in the model, not to freeze today's exact scores. The
//! traces themselves are the VM's ground truth and are pinned exactly
//! ([`TRACE_DIGEST`]).

use obs::hash::Fnv128;
use profiler::{ReuseCollector, ReuseTrace, RunConfig};
use reuse::{estimate, score};

/// Every suite program's merged exact trace, folded in suite order:
/// the program's name, then each object's name and bins, then the
/// event count. It pins what the VM's reuse tap reports, which the
/// loose score floors below do not.
const TRACE_DIGEST: u128 = 0x3cce_7a6b_562f_9b1d_5862_cf24_9caf_ae46;

fn traced_score(name: &str) -> (f64, ReuseTrace) {
    let prog = suite::by_name(name).expect("known program");
    let program = prog.compile().expect("suite program compiles");
    let est = estimate(&program);
    let compiled = profiler::compile(&program);
    let objects = profiler::ObjectMap::for_module(&program.module);
    let inputs = prog.inputs();
    let mut merged = None;
    for input in &inputs {
        let config = RunConfig {
            input: input.clone(),
            ..RunConfig::default()
        };
        let mut tap = ReuseCollector::new(objects.clone());
        compiled
            .execute(&config, Some(&mut tap))
            .expect("suite program runs");
        let trace = tap.finish();
        match &mut merged {
            None => merged = Some(trace),
            Some(m) => m.merge(&trace),
        }
    }
    let merged = merged.expect("at least one input");
    (score(&est, &merged), merged)
}

#[test]
fn all_programs_score_above_noise() {
    let mut rows = Vec::new();
    let mut digest = Fnv128::with_basis(0);
    for prog in suite::all() {
        let (s, trace) = traced_score(prog.name);
        rows.push((prog.name, s));
        digest.field_str(prog.name);
        for object in &trace.objects {
            digest.field_str(&object.name);
            for &bin in &object.hist {
                digest.word(bin);
            }
        }
        digest.word(trace.events);
    }
    for (name, s) in &rows {
        println!("{name:<12} {s:.3}");
        assert!(s.is_finite() && (0.0..=1.0).contains(s), "{name}: {s}");
    }
    let mean = rows.iter().map(|(_, s)| s).sum::<f64>() / rows.len() as f64;
    println!("mean         {mean:.3}");
    assert!(mean > 0.45, "suite mean weight-matching too low: {mean:.3}");
    assert_eq!(rows.len(), 14, "the suite has 14 programs");
    let digest = digest.digest();
    assert_eq!(
        digest, TRACE_DIGEST,
        "suite reuse traces moved: {digest:#034x}"
    );
}

/// The merged trace is a plain per-bin sum, so fanning the inputs out
/// over any number of threads must produce byte-identical histograms.
#[test]
fn merged_trace_is_identical_at_any_pool_size() {
    let prog = suite::by_name("compress").expect("known program");
    let program = prog.compile().expect("compiles");
    let compiled = profiler::compile(&program);
    let objects = profiler::ObjectMap::for_module(&program.module);
    let inputs = prog.inputs();

    let merged_with = |threads: usize| {
        let pool = pool::Pool::new(threads);
        let traces = pool.map(&inputs, |input| {
            let config = RunConfig::with_input(input.clone());
            let mut tap = ReuseCollector::new(objects.clone());
            compiled.execute(&config, Some(&mut tap)).expect("runs");
            tap.finish()
        });
        let mut merged = profiler::ReuseTrace::empty(&objects);
        for t in &traces {
            merged.merge(t);
        }
        merged
    };

    let one = merged_with(1);
    let two = merged_with(2);
    let four = merged_with(4);
    assert_eq!(one, two, "pool size must not change the merged trace");
    assert_eq!(one, four, "pool size must not change the merged trace");
}

#[test]
fn compress_scores_against_exact_trace() {
    let (s, _) = traced_score("compress");
    assert!(s > 0.55, "compress predicted-vs-traced score: {s:.3}");
}

#[test]
fn cholesky_scores_against_exact_trace() {
    let (s, _) = traced_score("cholesky");
    assert!(s > 0.55, "cholesky predicted-vs-traced score: {s:.3}");
}
