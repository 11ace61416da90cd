//! The optimizer's ground rules, checked against the whole benchmark
//! suite:
//!
//! 1. Lift + lower with no passes (`roundtrip`) is observably
//!    identical to the original program — including `steps` and the
//!    complete profile.
//! 2. At every optimization level, output bytes, exit code, and all
//!    *count* profile counters (blocks, edges, branches, call sites,
//!    function entries) stay byte-identical; only `steps` and
//!    `func_cost` may change.
//! 3. Level 3 on `compress` actually pays: ≥1.90× fewer VM steps
//!    (measured 1.98× with the full pipeline; the floor keeps ~4%
//!    margin for op-stream jitter).

use opt::{optimize, roundtrip, OptPlan};
use profiler::bytecode::{compile, CompiledProgram};
use profiler::{Profile, RunConfig, RunOutcome};

fn run_cp(cp: &CompiledProgram, input: &[u8], max_steps: u64) -> RunOutcome {
    let config = RunConfig {
        input: input.to_vec(),
        max_steps,
        ..RunConfig::default()
    };
    cp.execute(&config, None).expect("suite programs run clean")
}

/// Everything except `steps`/`func_cost` — the optimizer's invariants.
#[allow(clippy::type_complexity)]
fn count_counters(p: &Profile) -> (&Vec<Vec<u64>>, &Vec<(u64, u64)>, &Vec<u64>, &Vec<u64>) {
    (
        &p.block_counts,
        &p.branch_counts,
        &p.call_site_counts,
        &p.func_counts,
    )
}

#[test]
fn roundtrip_is_identity_across_suite() {
    for bench in suite::all() {
        let program = bench.compile().unwrap();
        let cp = compile(&program);
        let rt = roundtrip(&cp);
        for input in bench.inputs() {
            let a = run_cp(&cp, &input, 400_000_000);
            let b = run_cp(&rt, &input, 400_000_000);
            assert_eq!(a.exit_code, b.exit_code, "{}: exit", bench.name);
            assert_eq!(a.output, b.output, "{}: output", bench.name);
            assert_eq!(a.steps, b.steps, "{}: steps", bench.name);
            assert_eq!(a.profile, b.profile, "{}: profile", bench.name);
        }
    }
}

#[test]
fn optimized_outputs_match_across_suite_and_levels() {
    for bench in suite::all() {
        let program = bench.compile().unwrap();
        let cp = compile(&program);
        let baselines: Vec<(Vec<u8>, RunOutcome)> = bench
            .inputs()
            .into_iter()
            .map(|input| {
                let out = run_cp(&cp, &input, 400_000_000);
                (input, out)
            })
            .collect();
        for level in 1..=3u8 {
            let (ocp, _stats) = optimize(&cp, &OptPlan::full(&cp, level));
            for (input, base) in &baselines {
                // 4× headroom: recosting may move a run across the
                // step limit in either direction near the boundary.
                let out = run_cp(&ocp, input, 1_600_000_000);
                let ctx = format!("{} @ O{level}", bench.name);
                assert_eq!(base.exit_code, out.exit_code, "{ctx}: exit");
                assert_eq!(base.output, out.output, "{ctx}: output");
                assert_eq!(
                    count_counters(&base.profile),
                    count_counters(&out.profile),
                    "{ctx}: count counters"
                );
            }
        }
    }
}

#[test]
fn hot_functions_pack_first_in_the_op_stream() {
    let bench = suite::by_name("compress").unwrap();
    let program = bench.compile().unwrap();
    let cp = compile(&program);
    // Mark the last defined function as by far the hottest; layout
    // must move its body to the front of the flat op stream without
    // disturbing observable behavior.
    let hot = (0..cp.funcs.len())
        .rev()
        .find(|&f| cp.funcs[f].code.1 > cp.funcs[f].code.0)
        .expect("compress has defined functions");
    let mut plan = OptPlan::full(&cp, 2);
    plan.block_freqs[hot] = vec![1e6];
    let (ocp, _) = optimize(&cp, &plan);
    for f in (0..ocp.funcs.len()).filter(|&f| f != hot) {
        if ocp.funcs[f].code.1 > ocp.funcs[f].code.0 {
            assert!(
                ocp.funcs[hot].code.0 < ocp.funcs[f].code.0,
                "hot {} at {} must precede {} at {}",
                ocp.funcs[hot].name,
                ocp.funcs[hot].code.0,
                ocp.funcs[f].name,
                ocp.funcs[f].code.0,
            );
        }
    }
    let input = bench.inputs().remove(0);
    let base = run_cp(&cp, &input, 400_000_000);
    let out = run_cp(&ocp, &input, 1_600_000_000);
    assert_eq!(base.exit_code, out.exit_code);
    assert_eq!(base.output, out.output);
    assert_eq!(count_counters(&base.profile), count_counters(&out.profile));
}

#[test]
fn multi_level_inlining_terminates_on_mutual_recursion() {
    // A call cycle with no non-recursive leaves: the iterative
    // inliner must stop on its depth/cycle guards rather than chase
    // the cycle until the budget is gone, and the result must still
    // behave identically.
    let src = r#"
        int is_even(int n);
        int is_odd(int n) {
            if (n == 0) return 0;
            return is_even(n - 1);
        }
        int is_even(int n) {
            if (n == 0) return 1;
            return is_odd(n - 1);
        }
        int main() {
            int acc = 0;
            int i = 0;
            while (i < 40) {
                acc = acc + is_even(i);
                i = i + 1;
            }
            printf("%d\n", acc);
            return 0;
        }
    "#;
    let module = minic::compile(src).expect("test program compiles");
    let cp = compile(&flowgraph::build_program(module));
    let mut plan = OptPlan::full(&cp, 3);
    // Pretend every call site is scorching and the budget is
    // effectively unlimited; the depth and cycle guards alone must
    // bound the work.
    plan.site_freqs = vec![1e9; plan.site_freqs.len()];
    plan.inline_budget = 100_000;
    let (ocp, stats) = optimize(&cp, &plan);
    assert!(stats.inlined_calls > 0, "recursive sites admitted");
    let base = run_cp(&cp, &[], 400_000_000);
    let out = run_cp(&ocp, &[], 1_600_000_000);
    assert_eq!(base.exit_code, out.exit_code);
    assert_eq!(base.output, out.output);
    assert_eq!(count_counters(&base.profile), count_counters(&out.profile));
}

#[test]
fn compress_level3_speedup_at_least_1_90x() {
    let bench = suite::by_name("compress").unwrap();
    let program = bench.compile().unwrap();
    let cp = compile(&program);
    let (ocp, stats) = optimize(&cp, &OptPlan::full(&cp, 3));
    let input = bench.inputs().remove(0);
    let before = run_cp(&cp, &input, 400_000_000).steps;
    let after = run_cp(&ocp, &input, 1_600_000_000).steps;
    let speedup = before as f64 / after as f64;
    assert!(
        speedup >= 1.90,
        "compress speedup {speedup:.3} ({before} -> {after} steps, {stats:?})"
    );
}
