//! The emitted bytecode, bit for bit, and which ops it uses.
//!
//! The 14 suite programs and the generated programs from seeds
//! 1,000,001–1,000,200 are compiled at -O0 and optimized under
//! `OptPlan::full` at -O1, -O2 and -O3; every
//! `CompiledProgram::ir_fingerprint` folds into one pinned digest. A
//! refactor of the compiler or the optimizer must leave it alone; the
//! constant moves only with a change that sets out to change emitted
//! code.
//!
//! The same pass is an emission census: every `Op` variant (every row
//! of `profiler::bytecode::OP_CODES`) must be emitted somewhere, or it
//! is dead weight in the VM's dispatch and in every table over the op
//! set. The two variants no such program emits are each pinned by a
//! hand-built program below. `-- --nocapture` prints the census with
//! the suite's and the generated programs' counts side by side, then
//! the variants only one of them emits.

use opt::{optimize, OptPlan};
use profiler::bytecode::{compile, CompiledProgram, Op, OP_CODES};
use std::collections::BTreeMap;

/// The pinned digest: per program, the fingerprints at -O0, -O1, -O2
/// and -O3 as two words each; suite programs first, then the seeds in
/// order. A fingerprint hashes each op's stable code from
/// `profiler::bytecode::OP_CODES`, not its place in the enum, so
/// adding, deleting or reordering a variant leaves the digest alone
/// unless emitted code changes.
const BYTECODE_DIGEST: u128 = 0x2582ae9c0f1d8f21ca24a6136e2953a8;

/// The generated programs after the suite.
const SEEDS: std::ops::RangeInclusive<u64> = 1_000_001..=1_000_200;

/// Variants no suite or generated program emits, each with the test
/// that builds one:
/// - `Fail`: [`a_call_to_an_undefined_function_compiles_to_fail`];
/// - `InitWordsLocal`: [`a_local_string_initializer_compiles_to_init_words`].
const HAND_BUILT: [&str; 2] = ["Fail", "InitWordsLocal"];

fn program(src: &str) -> flowgraph::Program {
    flowgraph::build_program(minic::compile(src).expect("valid MiniC"))
}

fn emits(cp: &CompiledProgram, name: &str) -> bool {
    cp.ops.iter().any(|op| op.name() == name)
}

#[test]
fn bytecode_matches_the_pinned_digest_and_every_op_is_emitted() {
    let suite = suite::all().into_iter().map(|p| (0, p.compile().unwrap()));
    let generated = SEEDS.map(|seed| (1, program(&fuzzgen::generate(seed).render())));
    let mut h = obs::hash::Fnv128::with_basis(0);
    // Per variant, the count at -O0..-O3 in the suite, then in the
    // generated programs.
    let mut census: BTreeMap<&str, [[u64; 4]; 2]> =
        OP_CODES.iter().map(|&(_, n)| (n, [[0; 4]; 2])).collect();
    for (source, p) in suite.chain(generated) {
        let cp = compile(&p);
        for level in 0..=3u8 {
            // Level 0 is the compiled program itself.
            let code = optimize(&cp, &OptPlan::full(&cp, level)).0;
            let fp = code.ir_fingerprint();
            h.word(fp as u64);
            h.word((fp >> 64) as u64);
            for op in &code.ops {
                census.get_mut(op.name()).unwrap()[source][level as usize] += 1;
            }
        }
    }
    println!("{:<16} {:>28}   {:>28}", "-O0..-O3", "suite", "generated");
    for (name, [suite, generated]) in &census {
        println!(
            "{name:<16} {:>28}   {:>28}",
            format!("{suite:?}"),
            format!("{generated:?}")
        );
    }
    let only = |i: usize| -> Vec<&str> {
        let counts = |c: &[u64; 4]| c.iter().sum::<u64>();
        census
            .iter()
            .filter(|(_, c)| counts(&c[i]) > 0 && counts(&c[1 - i]) == 0)
            .map(|(&n, _)| n)
            .collect()
    };
    println!("suite-only:     {:?}", only(0));
    println!("generated-only: {:?}", only(1));
    let never: Vec<&str> = census
        .iter()
        .filter(|(_, c)| c.iter().flatten().all(|&n| n == 0))
        .map(|(&n, _)| n)
        .collect();
    assert_eq!(never, HAND_BUILT, "variants never emitted");
    assert_eq!(h.digest(), BYTECODE_DIGEST, "{:032x}", h.digest());
}

#[test]
fn a_call_to_an_undefined_function_compiles_to_fail() {
    let cp = compile(&program(
        "int helper(int x); int main(void) { return helper(1); }",
    ));
    assert!(emits(&cp, "Fail"));
}

#[test]
fn a_local_string_initializer_compiles_to_init_words() {
    let cp = compile(&program(
        r#"int main(void) { char s[] = "hi"; return s[0]; }"#,
    ));
    assert!(emits(&cp, "InitWordsLocal"));
}

/// The compiler returns every value from register 0, which the
/// inliner's splice turns into a plain jump; a callee that returns
/// from register 1 (its two ops retargeted by hand) is left as a call.
#[test]
fn a_return_from_another_register_is_not_inlined() {
    let cp = compile(&program(
        "int id(int x) { return x; } int main(void) { return id(5); }",
    ));
    let mut parts = cp.clone().into_parts();
    let (start, end) = parts.funcs[0].code;
    for op in &mut parts.ops[start as usize..end as usize] {
        match op {
            Op::LoadLocal { dst, .. } => *dst = 1,
            Op::Ret { src, .. } => *src = 1,
            other => panic!("unexpected op in `id`: {other:?}"),
        }
    }
    parts.funcs[0].max_regs = 2;
    let retargeted = CompiledProgram::new(parts).expect("the retargeted image verifies");
    let config = profiler::RunConfig::default();
    for (code, inlined) in [(&cp, 1), (&retargeted, 0)] {
        let plan = OptPlan {
            inline_budget: 100,
            ..OptPlan::full(code, 3)
        };
        let (ocp, stats) = optimize(code, &plan);
        assert_eq!(stats.inlined_calls, inlined);
        for code in [code, &ocp] {
            let out = code.execute(&config, None);
            assert_eq!(out.unwrap().exit_code, 5);
        }
    }
}
