//! `ExecScratch` reuse and the post-fold IR fingerprint: a shared
//! scratch across dissimilar programs must be invisible in every
//! observable output (the corpus engine reuses one scratch per worker
//! across thousands of programs), and the fingerprint must separate
//! observationally different programs while collapsing identical IR.

use profiler::{compile, ExecScratch, RunConfig, RunOutcome, RuntimeError};

fn compiled(src: &str) -> profiler::CompiledProgram {
    let module = minic::compile(src).expect("valid MiniC");
    compile(&flowgraph::build_program(module))
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
        _ => panic!("fresh vs reused scratch diverged: {a:?} vs {b:?}"),
    }
}

#[test]
fn reused_scratch_is_observationally_invisible() {
    let big = compiled(BUSY);
    let small = compiled(SMALL);
    let cfg = RunConfig::default();
    // One shared scratch ping-ponged between programs of different
    // shapes (so every buffer shrinks and regrows), checked against a
    // fresh execute each time.
    let mut scratch = ExecScratch::default();
    for _ in 0..3 {
        assert_same(&big.execute(&cfg), &big.execute_in(&cfg, &mut scratch));
        assert_same(&small.execute(&cfg), &small.execute_in(&cfg, &mut scratch));
    }
}

#[test]
fn reused_scratch_survives_a_runtime_error() {
    let trap = compiled("int main(void) { int z = 0; return 1 / z; }");
    let ok = compiled(SMALL);
    let cfg = RunConfig::default();
    let mut scratch = ExecScratch::default();
    assert!(trap.execute_in(&cfg, &mut scratch).is_err());
    // The error path must still recycle the buffers and leave the
    // scratch usable.
    assert_same(&ok.execute(&cfg), &ok.execute_in(&cfg, &mut scratch));
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
