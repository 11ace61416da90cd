//! Differential oracle: the bytecode VM must be observably identical
//! to the AST walker (`profiler::run_ast`) on randomly generated
//! MiniC programs — same exit code, same stdout bytes, same step
//! count, same *complete* profile (blocks, edges, branches, call
//! sites, function counts, cost), and on failing runs the same
//! `RuntimeError`.
//!
//! The generator builds structurally varied but always-compiling
//! programs: nested arithmetic with division (which may legitimately
//! trap), short-circuit operators, ternaries, bounded loops,
//! switches with and without fallthrough, recursion, calls through
//! function pointers, global array traffic, `getchar` consuming a
//! random input, and string builtins.

use profiler::{run, run_ast, run_ast_traced, ObjectMap, ReuseCollector, RunConfig};
use proptest::test_runner::ProptestConfig;
use proptest::{proptest, Strategy, TestRng};

const BINOPS: &[&str] = &[
    "+", "-", "*", "/", "%", "<<", ">>", "<", "<=", ">", ">=", "==", "!=", "&", "|", "^",
];
const COMPOUND: &[&str] = &["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="];
const VARS: &[&str] = &["a", "b", "c", "g0", "g1"];

/// One generated case: a MiniC source and an input for `getchar`.
#[derive(Debug)]
struct GenCase {
    src: String,
    input: String,
}

struct ProgramGen;

/// Recursive source builder; `counters` keeps loop variables unique.
struct Builder<'a> {
    rng: &'a mut TestRng,
    counters: usize,
}

impl Builder<'_> {
    fn var(&mut self) -> &'static str {
        VARS[self.rng.below(VARS.len())]
    }

    fn word(&mut self) -> String {
        let n = self.rng.below(6);
        (0..n)
            .map(|_| (b'a' + self.rng.below(26) as u8) as char)
            .collect()
    }

    fn expr(&mut self, depth: usize) -> String {
        if depth == 0 {
            return match self.rng.below(3) {
                0 => format!("{}", self.rng.below(19) as i64 - 9),
                1 => self.var().to_string(),
                _ => format!("garr[{}]", self.rng.below(8)),
            };
        }
        let d = depth - 1;
        match self.rng.below(12) {
            0..=2 => {
                let op = BINOPS[self.rng.below(BINOPS.len())];
                format!("({} {} {})", self.expr(d), op, self.expr(d))
            }
            3 => format!("({} ? {} : {})", self.expr(d), self.expr(d), self.expr(d)),
            4 => format!("({} && {})", self.expr(d), self.expr(d)),
            5 => format!("({} || {})", self.expr(d), self.expr(d)),
            6 => {
                // The space keeps `-(-x)` from lexing as `--x`.
                let u = ["-", "!", "~"][self.rng.below(3)];
                format!("({} {})", u, self.expr(d))
            }
            7 => format!("garr[({}) & 7]", self.expr(d)),
            8 => format!("f0({}, {})", self.expr(d), self.expr(d)),
            9 => format!("rec(({}) & 7)", self.expr(d)),
            10 => format!("fp({}, {})", self.expr(d), self.expr(d)),
            _ => "getchar()".to_string(),
        }
    }

    fn block(&mut self, depth: usize, n: usize) -> String {
        (0..n).map(|_| self.stmt(depth)).collect()
    }

    fn stmt(&mut self, depth: usize) -> String {
        let d = depth.saturating_sub(1);
        match self.rng.below(11) {
            0 | 1 => format!("{} = {};\n", self.var(), self.expr(d)),
            2 => {
                let op = COMPOUND[self.rng.below(COMPOUND.len())];
                format!("{} {} {};\n", self.var(), op, self.expr(d))
            }
            3 => {
                let forms = ["{}++;\n", "{}--;\n", "++{};\n", "--{};\n"];
                forms[self.rng.below(4)].replacen("{}", self.var(), 1)
            }
            4 => format!("garr[({}) & 7] = {};\n", self.expr(d), self.expr(d)),
            5 => format!("printf(\"%d \", {});\n", self.expr(d)),
            6 => format!("putchar(65 + (({}) & 25));\n", self.expr(d)),
            7 if depth > 0 => {
                let cond = self.expr(d);
                let (nt, ne) = (1 + self.rng.below(2), 1 + self.rng.below(2));
                let (then_b, else_b) = (self.block(d, nt), self.block(d, ne));
                format!("if ({cond}) {{\n{then_b}}} else {{\n{else_b}}}\n")
            }
            8 if depth > 0 => {
                // Bounded loop: always terminates on its own counter.
                self.counters += 1;
                let t = format!("t{}", self.counters);
                let bound = 1 + self.rng.below(8);
                let n = 1 + self.rng.below(2);
                let body = self.block(d, n);
                format!("{{ int {t} = 0; while ({t} < {bound}) {{ {t}++;\n{body}}} }}\n")
            }
            9 if depth > 0 => {
                // Switch over a masked scrutinee; cases may fall through.
                let mut s = format!("switch (({}) & 3) {{\n", self.expr(d));
                for case in 0..3usize {
                    if self.rng.below(4) == 0 {
                        continue; // missing case -> default
                    }
                    s.push_str(&format!("case {case}:\n{}", self.block(d, 1)));
                    if self.rng.below(3) != 0 {
                        s.push_str("break;\n");
                    }
                }
                s.push_str(&format!("default:\n{}}}\n", self.block(d, 1)));
                s
            }
            10 => {
                // String builtins with random content.
                let (w1, w2, w3) = (self.word(), self.word(), self.word());
                format!(
                    "{{ char sb[64]; strcpy(sb, \"{w1}\"); strcat(sb, \"{w2}\");\n\
                     printf(\"%s %d %d \", sb, strcmp(sb, \"{w3}\"), strlen(sb)); }}\n"
                )
            }
            _ => format!("g0 = f0({}, {});\n", self.expr(d), self.expr(d)),
        }
    }
}

impl Strategy for ProgramGen {
    type Value = GenCase;

    fn generate(&self, rng: &mut TestRng) -> GenCase {
        let input: String = {
            let n = rng.below(8);
            (0..n)
                .map(|_| (b'0' + rng.below(75) as u8) as char)
                .collect()
        };
        let mut b = Builder { rng, counters: 0 };
        let init: Vec<i64> = (0..3).map(|_| b.rng.below(41) as i64 - 20).collect();
        let n_stmts = 3 + b.rng.below(5);
        let body = b.block(3, n_stmts);
        let src = format!(
            "int g0; int g1; int garr[8];\n\
             int f0(int x, int y) {{ g1 += x; return (x * 31 + y) ^ (x >> 2); }}\n\
             int rec(int n) {{ if (n <= 0) return g1 & 3; return n + rec(n - 1); }}\n\
             int main(void) {{\n\
             int a = {}; int b = {}; int c = {};\n\
             int (*fp)(int, int);\n\
             fp = f0;\n\
             {body}\
             printf(\"%d %d %d %d %d\\n\", a, b, c, g0, garr[1]);\n\
             return (a ^ b) & 127;\n}}\n",
            init[0], init[1], init[2],
        );
        GenCase { src, input }
    }
}

/// Every suite program on its smallest standard input: the VM's
/// rebuilt profile equals the walker's fully counted one, field for
/// field (edge rows included), and it passes fuzz oracle 4's
/// invariants, flow conservation over the edge rows among them. The
/// switch-heavy programs (xlisp, cc, awk, gs) reach the counters whose
/// order follows the CFG's sorted switch targets.
#[test]
fn suite_profiles_match_the_walker_and_conserve_flow() {
    for bench in suite::all() {
        let p = bench.compile().expect("suite programs compile");
        let input = (bench.inputs().into_iter())
            .min_by_key(Vec::len)
            .expect("suite programs have inputs");
        let config = RunConfig::with_input(input);
        let vm = run(&p, &config).expect("the VM runs");
        let ast = run_ast(&p, &config).expect("the walker runs");
        assert_eq!(vm.profile, ast.profile, "{}", bench.name);
        if let Err(e) = fuzzgen::oracle::profile_invariants(&p, &vm.profile) {
            panic!("{}: {}", bench.name, e.detail);
        }
    }
}

fn compile(src: &str) -> flowgraph::Program {
    let module = minic::compile(src).expect("generated source must compile");
    flowgraph::build_program(module)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn vm_matches_ast_walker(case in ProgramGen) {
        let program = compile(&case.src);
        let config = RunConfig {
            max_steps: 100_000,
            max_call_depth: 64,
            ..RunConfig::with_input(case.input.as_bytes().to_vec())
        };
        let vm = run(&program, &config);
        let ast = run_ast(&program, &config);
        match (vm, ast) {
            (Ok(v), Ok(a)) => {
                assert_eq!(v.exit_code, a.exit_code, "exit code diverged");
                assert_eq!(v.stdout(), a.stdout(), "stdout diverged");
                assert_eq!(v.steps, a.steps, "step count diverged");
                assert_eq!(v.profile, a.profile, "profile diverged");
            }
            (Err(v), Err(a)) => assert_eq!(v, a, "error kind diverged"),
            (v, a) => panic!("outcome diverged: vm={v:?} ast={a:?}"),
        }
    }

    /// Reuse-trace oracle: the VM's traced run and the AST walker's
    /// traced run must produce bit-identical reuse histograms (both
    /// observe only data-segment traffic, which the two engines issue
    /// in the same order), and turning tracing on must change no
    /// frequency-profile counter relative to the untraced run.
    #[test]
    fn reuse_trace_matches_ast_walker(case in ProgramGen) {
        let program = compile(&case.src);
        let config = RunConfig {
            max_steps: 100_000,
            max_call_depth: 64,
            ..RunConfig::with_input(case.input.as_bytes().to_vec())
        };
        let plain = run(&program, &config);
        let mut tap = ReuseCollector::new(ObjectMap::for_module(&program.module));
        let vm = profiler::compile(&program)
            .execute(&config, Some(&mut tap))
            .map(|out| (out, tap.finish()));
        let ast = run_ast_traced(&program, &config);
        match (vm, ast) {
            (Ok((vo, vt)), Ok((ao, at))) => {
                assert_eq!(vt, at, "reuse trace diverged");
                assert_eq!(vo.profile, ao.profile, "traced profile diverged");
                let p = plain.expect("untraced run must agree on success");
                assert_eq!(vo.profile, p.profile, "tracing changed the profile");
                assert_eq!(vo.steps, p.steps, "tracing changed the step count");
                assert_eq!(vo.stdout(), p.stdout(), "tracing changed the output");
            }
            (Err(v), Err(a)) => {
                assert_eq!(v, a, "traced error kind diverged");
                assert_eq!(v, plain.expect_err("untraced run must agree on failure"));
            }
            (v, a) => panic!("traced outcome diverged: vm={v:?} ast={a:?}"),
        }
    }

    #[test]
    fn vm_is_deterministic_across_cache_hits(case in ProgramGen) {
        let program = compile(&case.src);
        let config = RunConfig::with_input(case.input.as_bytes().to_vec());
        let first = run(&program, &config);
        // A second run and a run of a rebuilt Program (each compiled
        // afresh) must agree with the first.
        let second = run(&program, &config);
        let rebuilt = run(&compile(&case.src), &config);
        match (&first, &second, &rebuilt) {
            (Ok(x), Ok(y), Ok(z)) => {
                assert_eq!(x.stdout(), y.stdout());
                assert_eq!(x.steps, y.steps);
                assert_eq!(x.profile, y.profile);
                assert_eq!(x.stdout(), z.stdout());
                assert_eq!(x.profile, z.profile);
            }
            (Err(x), Err(y), Err(z)) => {
                assert_eq!(x, y);
                assert_eq!(x, z);
            }
            _ => panic!("determinism broken: {first:?} vs {second:?} vs {rebuilt:?}"),
        }
    }
}
