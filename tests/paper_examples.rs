//! Integration tests reproducing the paper's worked examples through
//! the public API only: strchr (Figures 1, 3, 6, 7; Table 2) and
//! count_nodes (Figure 8).

use estimators::{inter, intra, weight_matching};
use profiler::RunConfig;

const STRCHR: &str = r#"
char *strchr(char *str, int c) {
    while (*str) {
        if (*str == c) return str;
        str++;
    }
    return 0;
}

char buf[4];

int main(void) {
    buf[0] = 'a'; buf[1] = 'b'; buf[2] = 'c'; buf[3] = '\0';
    strchr(buf, 'a');
    strchr(buf, 'b');
    return 0;
}
"#;

fn strchr_program() -> flowgraph::Program {
    let module = minic::compile(STRCHR).expect("compiles");
    flowgraph::build_program(module)
}

#[test]
fn table2_actual_counts() {
    // "abc"/'a' then "abc"/'b': while 3, if 3, return1 2, incr 1,
    // return2 0 (Table 2's actual column).
    let program = strchr_program();
    let out = profiler::run(&program, &RunConfig::default()).expect("runs");
    let f = program.function_id("strchr").unwrap();
    let mut counts: Vec<u64> = out.profile.blocks_of(f).to_vec();
    counts.sort_unstable();
    assert_eq!(counts, vec![0, 1, 2, 3, 3]);
}

#[test]
fn table2_scores() {
    let program = strchr_program();
    let out = profiler::run(&program, &RunConfig::default()).expect("runs");
    let f = program.function_id("strchr").unwrap();
    let actual: Vec<f64> = out.profile.blocks_of(f).iter().map(|&c| c as f64).collect();
    let est = intra::estimate_function(&program, f, intra::IntraEstimator::Smart);
    assert!((weight_matching(&est, &actual, 0.2) - 1.0).abs() < 1e-9);
    assert!((weight_matching(&est, &actual, 0.6) - 0.875).abs() < 1e-9);
}

#[test]
fn figure7_markov_solution() {
    let program = strchr_program();
    let f = program.function_id("strchr").unwrap();
    let est = intra::estimate_function(&program, f, intra::IntraEstimator::Markov);
    let mut sorted = est.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let expect = [0.4444, 0.5556, 1.7778, 2.2222, 2.7778];
    for (got, want) in sorted.iter().zip(expect.iter()) {
        assert!((got - want).abs() < 1e-3, "{sorted:?}");
    }
}

#[test]
fn figure8_recursion_repair() {
    let src = r#"
        struct tree_node { struct tree_node *left; struct tree_node *right; };
        int count_nodes(struct tree_node *node) {
            if (node == 0) return 0;
            else return count_nodes(node->left) + count_nodes(node->right) + 1;
        }
        int main(void) { return count_nodes(0); }
    "#;
    let module = minic::compile(src).expect("compiles");
    let program = flowgraph::build_program(module);
    let ia = intra::estimate_program(&program, intra::IntraEstimator::Smart);

    // The pathological weight the paper derives: 2 calls × 0.8 = 1.6.
    let local = inter::local_site_freqs(&program, &ia);
    let cn = program.function_id("count_nodes").unwrap();
    let w: f64 = program
        .callgraph
        .direct
        .iter()
        .filter(|a| a.caller == cn && a.callee == Some(cn))
        .map(|a| local[a.site.0 as usize])
        .sum();
    assert!((w - 1.6).abs() < 1e-9);

    // Without repair the naive solution would be negative; the
    // estimator must return a positive finite count.
    let ie = inter::estimate_invocations(&program, &ia, inter::InterEstimator::Markov);
    let v = ie.of(cn);
    assert!(v.is_finite() && v > 0.0, "repaired estimate {v}");
}

#[test]
fn strchr_runs_correctly_too() {
    // The interpreter agrees with C semantics for the example.
    let src = r#"
        char *strchr2(char *str, int c) {
            while (*str) {
                if (*str == c) return str;
                str++;
            }
            return 0;
        }
        char buf[6];
        int main(void) {
            buf[0] = 'h'; buf[1] = 'e'; buf[2] = 'l'; buf[3] = 'l';
            buf[4] = 'o'; buf[5] = '\0';
            char *p = strchr2(buf, 'l');
            if (p == 0) return -1;
            return (int)(p - buf);
        }
    "#;
    let module = minic::compile(src).expect("compiles");
    let program = flowgraph::build_program(module);
    let out = profiler::run(&program, &RunConfig::default()).expect("runs");
    assert_eq!(out.exit_code, 2);
}

#[test]
fn enums_run_correctly_end_to_end() {
    let module = minic::compile(
        r#"
        enum op { ADD, SUB = 10, MUL };
        int apply(int op, int a, int b) {
            switch (op) {
                case ADD: return a + b;
                case SUB: return a - b;
                case MUL: return a * b;
                default: return 0;
            }
        }
        int main(void) {
            return apply(ADD, 3, 4) * 100 + apply(SUB, 9, 2) * 10 + apply(MUL, 2, 3);
        }
        "#,
    )
    .unwrap();
    let program = flowgraph::build_program(module);
    let out = profiler::run(&program, &RunConfig::default()).unwrap();
    assert_eq!(out.exit_code, 700 + 70 + 6);
}
