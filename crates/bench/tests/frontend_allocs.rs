//! Allocation gate for the front end: heap allocations per generated
//! program through `minic::compile` (lex, parse, sema) and
//! `flowgraph::build_program`. Allocation counts are deterministic, so
//! unlike a timing floor this runs in every workspace test run, with no
//! tolerance knob.

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

/// Mean allocations per program measured when the gate was set:
/// lex + parse 722.2, sema 237.7, CFG build 736.8.
const MEASURED: u64 = 1_697;

#[test]
fn front_end_allocations_stay_within_budget() {
    let (mut parse, mut sema, mut build) = (0u64, 0u64, 0u64);
    for seed in FIRST_SEED..FIRST_SEED + PROGRAMS {
        let src = fuzzgen::generate(seed).render();
        let (unit, n) = count(|| minic::parser::parse(&src).expect("generated programs parse"));
        parse += n;
        let (module, n) = count(|| minic::sema::analyze(unit).expect("generated programs check"));
        sema += n;
        let (program, n) = count(|| flowgraph::build_program(module));
        build += n;
        drop(program);
    }
    let mean = |n: u64| n as f64 / PROGRAMS as f64;
    let total = mean(parse + sema + build);
    println!(
        "allocations per program: lex+parse {:.1}, sema {:.1}, build {:.1}, total {total:.1}",
        mean(parse),
        mean(sema),
        mean(build)
    );
    let budget = MEASURED as f64 * 1.10;
    assert!(
        total <= budget,
        "front end makes {total:.1} allocations per program, over the budget of {budget:.0} \
         ({MEASURED} measured + 10%)"
    );
}
