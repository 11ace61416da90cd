//! Analysis-cost benchmarks backing the paper's §2 claim that the
//! estimators' "running time was comparable to conventional sequential
//! compiler optimizations": front-end compilation, branch prediction,
//! each intra-procedural estimator, and the inter-procedural Markov
//! model are timed per representative suite program.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use estimators::inter::{estimate_invocations, InterEstimator};
use estimators::intra::{estimate_program, IntraEstimator};
use std::hint::black_box;

const PROGRAMS: &[&str] = &["compress", "xlisp", "gs", "cc"];

fn bench_frontend(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontend");
    group.sample_size(20);
    for name in PROGRAMS {
        let bench = suite::by_name(name).unwrap();
        group.bench_with_input(BenchmarkId::new("compile", name), &bench, |b, bench| {
            b.iter(|| {
                let module = minic::compile(black_box(bench.source)).unwrap();
                black_box(flowgraph::build_program(module))
            })
        });
    }
    group.finish();
}

fn bench_estimators(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimators");
    group.sample_size(20);
    for name in PROGRAMS {
        let bench = suite::by_name(name).unwrap();
        let program = bench.compile().unwrap();
        group.bench_with_input(
            BenchmarkId::new("predict_branches", name),
            &program,
            |b, p| b.iter(|| black_box(estimators::predict_module(&p.module))),
        );
        group.bench_with_input(BenchmarkId::new("intra_smart", name), &program, |b, p| {
            b.iter(|| black_box(estimate_program(p, IntraEstimator::Smart)))
        });
        group.bench_with_input(BenchmarkId::new("intra_markov", name), &program, |b, p| {
            b.iter(|| black_box(estimate_program(p, IntraEstimator::Markov)))
        });
        let ia = estimate_program(&program, IntraEstimator::Smart);
        group.bench_with_input(
            BenchmarkId::new("inter_markov", name),
            &(&program, &ia),
            |b, (p, ia)| b.iter(|| black_box(estimate_invocations(p, ia, InterEstimator::Markov))),
        );
    }
    group.finish();
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("linsolve");
    for n in [16usize, 64, 128] {
        // A chain with back edges: representative of CFG systems.
        group.bench_with_input(BenchmarkId::new("flow_solve", n), &n, |b, &n| {
            b.iter(|| {
                let mut sys = linsolve::FlowSystem::new(n);
                sys.inject(0, 1.0);
                for i in 0..n - 1 {
                    sys.add_arc(i, i + 1, 0.9);
                    if i > 0 {
                        sys.add_arc(i, i - 1, 0.05);
                    }
                }
                black_box(sys.solve().unwrap())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_frontend, bench_estimators, bench_solver);
criterion_main!(benches);
