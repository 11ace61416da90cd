//! Recycled VM buffers and the post-fold IR fingerprint: the buffers
//! a thread keeps across runs of dissimilar programs, traced or not,
//! must be invisible in every observable output and every reuse trace
//! (a corpus worker reuses them across thousands of programs), and the
//! fingerprint must separate observationally different programs while
//! collapsing identical IR, down to the fields the VM's operand table
//! does not classify.

use minic::ast::BinOp;
use minic::builtins::Builtin;
use profiler::bytecode::{Op, Parts, SwitchTable, OP_CODES, RETIRED_OP_CODES};
use profiler::runtime::TyClass;
use profiler::{
    compile, CompiledProgram, ObjectMap, ReuseCollector, ReuseTrace, RunConfig, RunOutcome,
    RuntimeError, Value,
};
use std::collections::{HashMap, HashSet};

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

/// Compiles `src`, changes one field of a copy with `mutate` (which
/// reports whether it found the field), and demands the copy's
/// fingerprint differ.
fn one_field_moves_the_fingerprint(what: &str, src: &str, mutate: impl Fn(&mut Parts) -> bool) {
    let cp = compiled(src);
    let mut changed = cp.clone().into_parts();
    assert!(
        mutate(&mut changed),
        "{what}: no such field in the compiled code"
    );
    assert_ne!(cp.ir_fingerprint(), changed.ir_fingerprint(), "{what}");
}

/// Applies `f` to ops in order until it reports a change.
fn first_op(cp: &mut Parts, f: impl FnMut(&mut Op) -> bool) -> bool {
    cp.ops.iter_mut().any(f)
}

#[test]
fn ir_fingerprint_sees_the_fields_the_operand_table_skips() {
    one_field_moves_the_fingerprint("int immediate", SMALL, |cp| {
        first_op(cp, |op| match op {
            Op::CmpBranchLI { imm, .. } | Op::ArithRI { imm, .. } | Op::ArithLI { imm, .. } => {
                *imm += 1;
                true
            }
            _ => false,
        })
    });
    let float = "int main(void) { double d = 0.0; return d == 1.5; }";
    one_field_moves_the_fingerprint("0.0 vs -0.0", float, |cp| {
        first_op(cp, |op| match op {
            Op::Const { v, .. } if *v == Value::Float(0.0) => {
                *v = Value::Float(-0.0);
                true
            }
            _ => false,
        })
    });
    one_field_moves_the_fingerprint("comparison operator", SMALL, |cp| {
        first_op(cp, |op| match op {
            Op::CmpBranchLI { op, .. }
            | Op::CmpBranchLL { op, .. }
            | Op::CmpBranchRI { op, .. } => {
                *op = if *op == BinOp::Lt {
                    BinOp::Le
                } else {
                    BinOp::Lt
                };
                true
            }
            _ => false,
        })
    });
    let cast = "int main(void) { double d = 2.5; int i = (int) d; return i; }";
    one_field_moves_the_fingerprint("cast class", cast, |cp| {
        first_op(cp, |op| match op {
            Op::Conv { class, .. } => {
                *class = if *class == TyClass::Int {
                    TyClass::Float
                } else {
                    TyClass::Int
                };
                true
            }
            _ => false,
        })
    });
    let incdec = "int main(void) { int i = 0, j; j = i++; return i + j; }";
    one_field_moves_the_fingerprint("inc/dec delta", incdec, |cp| {
        first_op(cp, |op| match op {
            Op::IncDecLocal { delta, .. } => {
                *delta = -*delta;
                true
            }
            _ => false,
        })
    });
    one_field_moves_the_fingerprint("pre vs post", incdec, |cp| {
        first_op(cp, |op| match op {
            Op::IncDecLocal { post, .. } => {
                *post = !*post;
                true
            }
            _ => false,
        })
    });
    one_field_moves_the_fingerprint("builtin", "int main(void) { return putchar(65); }", |cp| {
        first_op(cp, |op| match op {
            Op::CallBuiltin { b, .. } => {
                *b = if *b == Builtin::Putchar {
                    Builtin::Getchar
                } else {
                    Builtin::Putchar
                };
                true
            }
            _ => false,
        })
    });
    let switch = r#"
        int main(void) {
            int x = 7;
            switch (x) { case 1: return 10; case 7: return 70; case 900: return 9; }
            return 0;
        }
    "#;
    one_field_moves_the_fingerprint("switch case key", switch, |cp| {
        match cp.switch_tables.first_mut() {
            Some(SwitchTable::Sorted { keys, .. }) => keys[0] -= 1,
            Some(SwitchTable::Dense { min, .. }) => *min -= 1,
            None => return false,
        }
        true
    });
}

#[test]
fn op_codes_are_unique_and_never_reuse_a_retired_code() {
    let mut codes = HashSet::new();
    let mut names = HashSet::new();
    for &(code, name) in OP_CODES {
        assert!(codes.insert(code), "code {code} ({name}) is used twice");
        assert!(names.insert(name), "{name} has two codes");
    }
    let mut retired = HashSet::new();
    for &(code, name) in RETIRED_OP_CODES {
        assert!(
            retired.insert(code),
            "retired code {code} ({name}) is listed twice"
        );
        assert!(
            !codes.contains(&code),
            "retired code {code} ({name}) is in use again"
        );
    }
    // Each op reports the table's row for its variant.
    for op in compiled(BUSY).ops.iter().chain(&compiled(SMALL).ops) {
        assert!(OP_CODES.contains(&(op.code(), op.name())), "{op:?}");
    }
}

/// Over the suite and 200 generated programs at -O0 to -O3, two images
/// share a fingerprint exactly when the `Debug` texts of everything
/// the fingerprint covers are equal: the fingerprint neither merges
/// different code nor splits identical code.
#[test]
fn ir_fingerprint_classes_are_debug_text_classes() {
    let suite = suite::all().into_iter().map(|p| p.compile().unwrap());
    let generated = (1_000_001..=1_000_200u64).map(|seed| {
        let src = fuzzgen::generate(seed).render();
        flowgraph::build_program(minic::compile(&src).expect("generated programs compile"))
    });
    let mut by_fingerprint: HashMap<u128, u128> = HashMap::new();
    let mut by_text: HashMap<u128, u128> = HashMap::new();
    let mut images = 0;
    for program in suite.chain(generated) {
        let cp = compile(&program);
        for level in 0..=3u8 {
            let code = opt::optimize(&cp, &opt::OptPlan::full(&cp, level)).0;
            let text = format!(
                "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
                code.ops,
                code.funcs,
                code.main,
                code.switch_tables,
                code.images,
                code.data_image,
                code.counters
            );
            // The text itself can run to megabytes; a content hash of
            // it stands in for it.
            let mut h = obs::hash::Fnv128::with_basis(0);
            h.field_str(&text);
            let text = h.digest();
            let fp = code.ir_fingerprint();
            assert_eq!(
                *by_fingerprint.entry(fp).or_insert(text),
                text,
                "one fingerprint, two texts"
            );
            assert_eq!(
                *by_text.entry(text).or_insert(fp),
                fp,
                "one text, two fingerprints"
            );
            images += 1;
        }
    }
    assert_eq!(images, (14 + 200) * 4);
    println!("{images} images, {} classes", by_fingerprint.len());
}
