//! # profiler — the instrumenting MiniC interpreter
//!
//! The PLDI 1994 paper collected its ground truth by instrumenting gcc's
//! output and running the SPEC92 suite on several inputs. This crate is
//! that substrate: [`run`] executes a [`flowgraph::Program`] on a given
//! input and returns a [`Profile`] with basic-block, edge, branch,
//! call-site, and function-invocation counts, plus the abstract cost
//! units behind the Figure 10 selective-optimization experiment
//! ([`cost`]).
//!
//! Profiles from several inputs are combined with
//! [`profile::aggregate`], which normalizes each run to a common total
//! block count and sums — the paper's §3 aggregation for
//! profile-predicts-profile comparisons.
//!
//! ```
//! use profiler::{run, RunConfig};
//!
//! let module = minic::compile(r#"
//!     int main(void) {
//!         int c, n = 0;
//!         while ((c = getchar()) != -1) if (c == 'a') n++;
//!         printf("%d a's\n", n);
//!         return n;
//!     }
//! "#).unwrap();
//! let program = flowgraph::build_program(module);
//! let out = run(&program, &RunConfig::with_input("banana")).unwrap();
//! assert_eq!(out.exit_code, 3);
//! assert_eq!(out.stdout(), "3 a's\n");
//! ```

#![warn(missing_docs)]

pub mod bytecode;
pub mod cost;
pub mod interp;
pub mod profile;
pub mod reuse;

pub use bytecode::{compile, run, CompiledProgram, ExecScratch};
pub use interp::{run_ast, run_ast_traced, RunConfig, RunOutcome, RuntimeError, Value};
pub use profile::{aggregate, AggregateProfile, Profile};
pub use reuse::{ObjectMap, ReuseCollector, ReuseTrace};

#[cfg(test)]
mod tests {
    use super::*;
    use flowgraph::Program;

    fn program(src: &str) -> Program {
        let module = minic::compile(src).expect("valid MiniC");
        flowgraph::build_program(module)
    }

    fn run_ok(src: &str) -> RunOutcome {
        let p = program(src);
        match run(&p, &RunConfig::default()) {
            Ok(o) => o,
            Err(e) => panic!("runtime error: {e}"),
        }
    }

    fn run_with(src: &str, input: &str) -> RunOutcome {
        let p = program(src);
        run(&p, &RunConfig::with_input(input)).expect("run failed")
    }

    #[test]
    fn arithmetic_and_printf() {
        let out = run_ok(
            r#"
            int main(void) {
                int a = 7, b = 3;
                printf("%d %d %d %d %d\n", a + b, a - b, a * b, a / b, a % b);
                printf("%x %c %s%%\n", 255, 'Z', "str");
                printf("%f\n", 1.5);
                return 0;
            }
            "#,
        );
        assert_eq!(out.stdout(), "10 4 21 2 1\nff Z str%\n1.500000\n");
    }

    #[test]
    fn pointer_arithmetic_scales_by_element() {
        let out = run_ok(
            r#"
            struct pair { int a; int b; };
            struct pair arr[3];
            int main(void) {
                struct pair *p = arr;
                arr[2].b = 42;
                p = p + 2;
                printf("%d %d\n", p->b, (int)(p - arr));
                return 0;
            }
            "#,
        );
        assert_eq!(out.stdout(), "42 2\n");
    }

    #[test]
    fn strings_and_builtins() {
        let out = run_ok(
            r#"
            int main(void) {
                char buf[32];
                strcpy(buf, "hello");
                strcat(buf, " world");
                printf("%d %s\n", strlen(buf), buf);
                printf("%d\n", strcmp("abc", "abd"));
                printf("%d\n", atoi("  123"));
                return 0;
            }
            "#,
        );
        assert_eq!(out.stdout(), "11 hello world\n-1\n123\n");
    }

    #[test]
    fn malloc_and_linked_list() {
        let out = run_ok(
            r#"
            struct node { int v; struct node *next; };
            int main(void) {
                struct node *head = 0;
                int i, sum = 0;
                for (i = 0; i < 5; i++) {
                    struct node *n = (struct node *) malloc(sizeof(struct node));
                    n->v = i;
                    n->next = head;
                    head = n;
                }
                while (head != 0) { sum += head->v; head = head->next; }
                printf("%d\n", sum);
                return 0;
            }
            "#,
        );
        assert_eq!(out.stdout(), "10\n");
    }

    #[test]
    fn recursion_fib() {
        let out = run_ok(
            r#"
            int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
            int main(void) { printf("%d\n", fib(15)); return 0; }
            "#,
        );
        assert_eq!(out.stdout(), "610\n");
        let fibid = 0;
        // fib(15) is invoked 1973 times.
        assert_eq!(out.profile.func_counts[fibid], 1973);
    }

    #[test]
    fn function_pointers_dispatch() {
        let out = run_ok(
            r#"
            int add(int a, int b) { return a + b; }
            int mul(int a, int b) { return a * b; }
            int (*ops[2])(int, int) = { add, mul };
            int main(void) {
                int i, r = 0;
                for (i = 0; i < 2; i++) r += ops[i](3, 4);
                return r;
            }
            "#,
        );
        assert_eq!(out.exit_code, 19);
    }

    #[test]
    fn switch_with_fallthrough() {
        let out = run_ok(
            r#"
            int classify(int c) {
                switch (c) {
                    case 0: return 100;
                    case 1:
                    case 2: return 200;
                    case 3: c += 1; /* fallthrough */
                    case 4: return c;
                    default: return -1;
                }
            }
            int main(void) {
                printf("%d %d %d %d %d %d\n",
                    classify(0), classify(1), classify(2),
                    classify(3), classify(4), classify(9));
                return 0;
            }
            "#,
        );
        assert_eq!(out.stdout(), "100 200 200 4 4 -1\n");
    }

    #[test]
    fn goto_and_labels() {
        let out = run_ok(
            r#"
            int main(void) {
                int i = 0, s = 0;
            loop:
                s += i;
                i++;
                if (i < 5) goto loop;
                return s;
            }
            "#,
        );
        assert_eq!(out.exit_code, 10);
    }

    #[test]
    fn ternary_and_short_circuit() {
        let out = run_ok(
            r#"
            int sideeffect(int *p) { *p = 1; return 1; }
            int main(void) {
                int touched = 0;
                int a = (0 && sideeffect(&touched)) ? 10 : 20;
                int b = (1 || sideeffect(&touched)) ? 3 : 4;
                printf("%d %d %d\n", a, b, touched);
                return 0;
            }
            "#,
        );
        assert_eq!(out.stdout(), "20 3 0\n");
    }

    #[test]
    fn float_math() {
        let out = run_ok(
            r#"
            int main(void) {
                float x = 2.0;
                float y = sqrt(x) * sqrt(x);
                printf("%d\n", (int)(y + 0.5));
                printf("%d\n", (int) floor(3.7));
                return 0;
            }
            "#,
        );
        assert_eq!(out.stdout(), "2\n3\n");
    }

    #[test]
    fn getchar_consumes_input() {
        let out = run_with(
            r#"
            int main(void) {
                int c, n = 0;
                while ((c = getchar()) != -1) n = n * 10 + (c - '0');
                return n;
            }
            "#,
            "472",
        );
        assert_eq!(out.exit_code, 472);
    }

    #[test]
    fn block_counts_match_loop_iterations() {
        let out = run_ok(
            r#"
            int main(void) {
                int i, s = 0;
                for (i = 0; i < 10; i++) s += i;
                return s;
            }
            "#,
        );
        let blocks = &out.profile.block_counts[0];
        // Header runs 11 times, body 10.
        assert!(blocks.contains(&11), "blocks: {blocks:?}");
        assert!(blocks.contains(&10), "blocks: {blocks:?}");
    }

    #[test]
    fn branch_counts_record_directions() {
        let out = run_ok(
            r#"
            int main(void) {
                int i, evens = 0;
                for (i = 0; i < 10; i++) if (i % 2 == 0) evens++;
                return evens;
            }
            "#,
        );
        assert_eq!(out.exit_code, 5);
        // Two branches: the for condition (10 true, 1 false) and the if
        // (5 true, 5 false).
        let counts = &out.profile.branch_counts;
        assert!(counts.contains(&(10, 1)), "{counts:?}");
        assert!(counts.contains(&(5, 5)), "{counts:?}");
    }

    #[test]
    fn call_site_counts() {
        let out = run_ok(
            r#"
            int f(int x) { return x; }
            int main(void) {
                int i, s = 0;
                for (i = 0; i < 3; i++) s += f(i);  /* site 1: 3 times */
                s += f(100);                        /* site 2: once */
                return s;
            }
            "#,
        );
        let mut sites: Vec<u64> = out.profile.call_site_counts.clone();
        sites.sort();
        assert_eq!(sites, vec![1, 3]);
        assert_eq!(out.profile.func_counts[0], 4);
    }

    #[test]
    fn exit_unwinds_with_code() {
        let out = run_ok(
            r#"
            void die(void) { exit(3); }
            int main(void) { die(); return 0; }
            "#,
        );
        assert_eq!(out.exit_code, 3);
    }

    #[test]
    fn abort_is_an_error() {
        let p = program("int main(void) { abort(); return 0; }");
        assert_eq!(
            run(&p, &RunConfig::default()).unwrap_err(),
            RuntimeError::Aborted
        );
    }

    #[test]
    fn null_deref_is_caught() {
        let p = program("int main(void) { int *p = 0; return *p; }");
        assert_eq!(
            run(&p, &RunConfig::default()).unwrap_err(),
            RuntimeError::NullDeref
        );
    }

    #[test]
    fn div_by_zero_is_caught() {
        let p = program("int main(void) { int z = 0; return 1 / z; }");
        assert_eq!(
            run(&p, &RunConfig::default()).unwrap_err(),
            RuntimeError::DivByZero
        );
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let p = program("int main(void) { while (1) { } return 0; }");
        let cfg = RunConfig {
            max_steps: 10_000,
            ..RunConfig::default()
        };
        assert!(matches!(
            run(&p, &cfg).unwrap_err(),
            RuntimeError::StepLimit { .. }
        ));
    }

    #[test]
    fn stack_overflow_is_caught() {
        let p = program("int f(int n) { return f(n + 1); } int main(void) { return f(0); }");
        let cfg = RunConfig {
            max_call_depth: 100,
            ..RunConfig::default()
        };
        assert!(matches!(
            run(&p, &cfg).unwrap_err(),
            RuntimeError::StackOverflow { .. }
        ));
    }

    #[test]
    fn struct_assignment_copies_words() {
        let out = run_ok(
            r#"
            struct v { int x; int y; int z; };
            int main(void) {
                struct v a, b;
                a.x = 1; a.y = 2; a.z = 3;
                b = a;
                a.x = 99;
                return b.x + b.y + b.z;
            }
            "#,
        );
        assert_eq!(out.exit_code, 6);
    }

    #[test]
    fn struct_by_value_parameter() {
        let out = run_ok(
            r#"
            struct v { int x; int y; };
            int sum(struct v p) { p.x += 100; return p.x + p.y; }
            int main(void) {
                struct v a;
                int r;
                a.x = 1; a.y = 2;
                r = sum(a);
                return r * 1000 + a.x;  /* a.x unchanged */
            }
            "#,
        );
        assert_eq!(out.exit_code, 103_001);
    }

    #[test]
    fn sprintf_formats_into_buffer() {
        let out = run_ok(
            r#"
            int main(void) {
                char buf[64];
                sprintf(buf, "x=%d s=%s", 5, "ok");
                puts(buf);
                return 0;
            }
            "#,
        );
        assert_eq!(out.stdout(), "x=5 s=ok\n");
    }

    #[test]
    fn rand_is_deterministic() {
        let src = r#"
            int main(void) {
                srand(42);
                int a = rand() % 1000;
                int b = rand() % 1000;
                printf("%d %d\n", a, b);
                return 0;
            }
        "#;
        let a = run_ok(src).stdout();
        let b = run_ok(src).stdout();
        assert_eq!(a, b);
    }

    #[test]
    fn local_array_initializers() {
        let out = run_ok(
            r#"
            int main(void) {
                int a[5] = {1, 2, 3};
                char s[] = "hi";
                return a[0] + a[1] + a[2] + a[3] + a[4] + s[0];
            }
            "#,
        );
        assert_eq!(out.exit_code, 6 + 104);
    }

    #[test]
    fn global_grid_indexing() {
        let out = run_ok(
            r#"
            int grid[12];
            int at(int r, int c) { return grid[r * 4 + c]; }
            int main(void) {
                int r, c;
                for (r = 0; r < 3; r++)
                    for (c = 0; c < 4; c++)
                        grid[r * 4 + c] = r * 10 + c;
                return at(2, 3);
            }
            "#,
        );
        assert_eq!(out.exit_code, 23);
    }

    #[test]
    fn cost_accrues_to_the_executing_function() {
        let out = run_ok(
            r#"
            int hot(void) { int i, s = 0; for (i = 0; i < 1000; i++) s += i; return s; }
            int cold(void) { return 1; }
            int main(void) { hot(); cold(); return 0; }
            "#,
        );
        let hot = out.profile.func_cost[0];
        let cold = out.profile.func_cost[1];
        assert!(hot > 50 * cold, "hot={hot} cold={cold}");
    }

    #[test]
    fn memcpy_and_memset() {
        let out = run_ok(
            r#"
            int main(void) {
                int a[4], b[4];
                memset(a, 7, 4);
                memcpy(b, a, 4);
                return b[0] + b[3];
            }
            "#,
        );
        assert_eq!(out.exit_code, 14);
    }

    #[test]
    fn edge_counts_follow_control_flow() {
        let out = run_ok(
            r#"
            int main(void) {
                int i;
                for (i = 0; i < 7; i++) { }
                return 0;
            }
            "#,
        );
        // Some edge must have been traversed 7 times (the back edge).
        assert!(out.profile.edge_counts.values().any(|&c| c == 7));
    }
}
