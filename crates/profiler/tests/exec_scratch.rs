//! Recycled VM buffers and the post-fold IR fingerprint: the buffers
//! a thread keeps across runs of dissimilar programs, traced or not,
//! must be invisible in every observable output and every reuse trace
//! (a corpus worker reuses them across thousands of programs), and the
//! fingerprint must separate observationally different programs while
//! collapsing identical IR.

use profiler::{
    compile, CompiledProgram, ObjectMap, ReuseCollector, ReuseTrace, RunConfig, RunOutcome,
    RuntimeError,
};

fn compiled(src: &str) -> CompiledProgram {
    let module = minic::compile(src).expect("valid MiniC");
    compile(&flowgraph::build_program(module))
}

fn objects(src: &str) -> ObjectMap {
    ObjectMap::for_module(&minic::compile(src).expect("valid MiniC"))
}

/// Runs `f` on a new thread, which starts with no recycled buffers.
fn on_new_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().unwrap())
}

/// An untraced run on fresh buffers: the reference outcome.
fn fresh(cp: &CompiledProgram, cfg: &RunConfig) -> Result<RunOutcome, RuntimeError> {
    on_new_thread(|| cp.execute(cfg, None))
}

/// A traced run on this thread's buffers with a fresh collector.
fn traced(
    cp: &CompiledProgram,
    objects: &ObjectMap,
    cfg: &RunConfig,
) -> (Result<RunOutcome, RuntimeError>, ReuseTrace) {
    let mut tap = ReuseCollector::new(objects.clone());
    let out = cp.execute(cfg, Some(&mut tap));
    (out, tap.finish())
}

/// Exercises strings/printf (the shared string buffers), deep-ish
/// recursion (frame stack growth), indirect calls, and a loop with a
/// data-dependent branch — everything the scratch buffers touch.
const BUSY: &str = r#"
    int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
    int twice(int x) { return 2 * x; }
    int main(void) {
        int (*f)(int) = twice;
        char buf[32];
        int i, acc = 0;
        for (i = 0; i < 12; i++) {
            if (i % 3 == 0) acc += f(i);
            else acc += fib(i % 7);
        }
        sprintf(buf, "acc=%d", acc);
        printf("%s fib=%d\n", buf, fib(10));
        return acc % 7;
    }
"#;

const SMALL: &str = r#"
    int main(void) {
        int i, s = 0;
        for (i = 0; i < 5; i++) s += i;
        printf("%d\n", s);
        return 0;
    }
"#;

fn assert_same(a: &Result<RunOutcome, RuntimeError>, b: &Result<RunOutcome, RuntimeError>) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.exit_code, y.exit_code);
            assert_eq!(x.output, y.output);
            assert_eq!(x.steps, y.steps);
            assert_eq!(x.profile, y.profile);
        }
        (Err(x), Err(y)) => assert_eq!(x, y),
        _ => panic!("fresh vs recycled buffers diverged: {a:?} vs {b:?}"),
    }
}

#[test]
fn reused_scratch_is_observationally_invisible() {
    let big = compiled(BUSY);
    let small = compiled(SMALL);
    let cfg = RunConfig::default();
    // This thread's buffers ping-ponged between programs of different
    // shapes (so every buffer shrinks and regrows), checked against a
    // run on a new thread each time.
    for _ in 0..3 {
        assert_same(&fresh(&big, &cfg), &big.execute(&cfg, None));
        assert_same(&fresh(&small, &cfg), &small.execute(&cfg, None));
    }

    // Traced runs (checked indexing, a live tap) alternate with
    // untraced ones on the same buffers: every outcome matches a fresh
    // untraced run and every trace a fresh traced run.
    let programs = [(&big, objects(BUSY)), (&small, objects(SMALL))];
    let refs: Vec<_> = programs
        .iter()
        .map(|(cp, objs)| {
            let (out, trace) = on_new_thread(|| traced(cp, objs, &cfg));
            assert_same(&fresh(cp, &cfg), &out);
            assert!(trace.events > 0, "the program touches its data segment");
            trace
        })
        .collect();
    for round in 0..4 {
        for (i, ((cp, objs), want_trace)) in programs.iter().zip(&refs).enumerate() {
            let want = fresh(cp, &cfg);
            if (round + i) % 2 == 0 {
                let (out, trace) = traced(cp, objs, &cfg);
                assert_same(&want, &out);
                assert_eq!(&trace, want_trace, "recycled buffers perturbed the trace");
            } else {
                assert_same(&want, &cp.execute(&cfg, None));
            }
        }
    }
}

#[test]
fn reused_scratch_survives_a_runtime_error() {
    let trap = compiled("int main(void) { int z = 0; return 1 / z; }");
    let ok = compiled(SMALL);
    let cfg = RunConfig::default();
    assert!(trap.execute(&cfg, None).is_err());
    // The error path must still recycle the buffers and leave them
    // usable.
    assert_same(&fresh(&ok, &cfg), &ok.execute(&cfg, None));
}

#[test]
fn ir_fingerprint_separates_programs_and_is_deterministic() {
    let a = compiled(BUSY);
    let b = compiled(SMALL);
    assert_eq!(a.ir_fingerprint(), compiled(BUSY).ir_fingerprint());
    assert_ne!(a.ir_fingerprint(), b.ir_fingerprint());
    // A one-constant change is a different post-fold IR.
    let c = compiled(&SMALL.replace("i < 5", "i < 6"));
    assert_ne!(b.ir_fingerprint(), c.ir_fingerprint());
}
