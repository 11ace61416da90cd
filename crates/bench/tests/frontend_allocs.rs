//! Allocation gate for the compile-time pipeline: heap allocations per
//! generated program in each stage — lex and parse, sema,
//! `flowgraph::build_program`, and the estimator stage as the corpus
//! runs it (`estimators::estimate_all`: branch predictions once,
//! three intra-procedural and five inter-procedural estimators).
//! Allocation counts are deterministic, so unlike a timing floor this
//! runs in every workspace test run, and each stage is held to its own
//! measured count with no tolerance.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made on threads that opted in; everything else
/// passes straight through to the system allocator.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) `f` makes on this thread.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCS.with(Cell::get))
}

const PROGRAMS: u64 = 200;
const FIRST_SEED: u64 = 1_000_001;

/// Mean allocations per program in each stage, in tenths, measured
/// when the gate was last set: lex + parse 582.1 (each statement-level
/// expression slot is one `Arc`; names are interned symbols, not one
/// `String` each), sema 184.6 (name tables indexed by symbol), CFG
/// build 105.0 (the CFG shares the AST's expressions; the call
/// graph's site blocks are one column), estimators
/// 175.7 (no per-block adjacency lists, no per-node or per-component
/// solver lists; predictions, AST frequencies and site weights in
/// dense columns, the heuristics' facts from one walk). A change that
/// lowers a count should lower its constant with it.
const MEASURED_TENTHS: [u64; 4] = [5821, 1846, 1050, 1757];
const STAGES: [&str; 4] = ["lex+parse", "sema", "build", "estimators"];

#[test]
fn pipeline_allocations_stay_within_budget() {
    let mut totals = [0u64; 4];
    for seed in FIRST_SEED..FIRST_SEED + PROGRAMS {
        let src = fuzzgen::generate(seed).render();
        let (unit, n) = count(|| minic::parser::parse(&src).expect("generated programs parse"));
        totals[0] += n;
        let (module, n) = count(|| minic::sema::analyze(unit).expect("generated programs check"));
        totals[1] += n;
        let (program, n) = count(|| flowgraph::build_program(module));
        totals[2] += n;
        let (estimates, n) = count(|| estimators::estimate_all(&program));
        totals[3] += n;
        drop(estimates);
        drop(program);
    }
    let tenths = totals.map(|n| (n * 10).div_ceil(PROGRAMS));
    let report: Vec<String> = STAGES
        .iter()
        .zip(tenths)
        .map(|(stage, t)| format!("{stage} {}.{}", t / 10, t % 10))
        .collect();
    println!("allocations per program: {}", report.join(", "));
    for ((stage, got), want) in STAGES.iter().zip(tenths).zip(MEASURED_TENTHS) {
        assert!(
            got <= want,
            "{stage} makes {}.{} allocations per program, over its measured {}.{}",
            got / 10,
            got % 10,
            want / 10,
            want % 10
        );
    }
}
