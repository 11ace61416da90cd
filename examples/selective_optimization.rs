//! The paper's §6 experiment as a library consumer would run it:
//! decide which functions of a program deserve optimization using only
//! static estimates, then validate the choice on a held-out run by how
//! much of its measured cost the static picks cover.
//!
//! Run with: `cargo run --release --example selective_optimization [program]`
//!
//! For measured speedups from the real optimizer, run `sfe fig10`.

use estimators::{inter, intra};
use profiler::RunConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "compress".to_string());
    let bench = suite::by_name(&name).ok_or_else(|| format!("unknown suite program `{name}`"))?;
    let program = bench.compile().map_err(|e| e.render(bench.source))?;

    // Rank functions by the static Markov invocation estimate.
    let ia = intra::estimate_program(&program, intra::IntraEstimator::Smart);
    let ie = inter::estimate_invocations(&program, &ia, inter::InterEstimator::Markov);
    let mut order = program.defined_ids();
    order.sort_by(|&a, &b| ie.of(b).total_cmp(&ie.of(a)));

    println!("{name}: static hotness ranking");
    for (i, &f) in order.iter().enumerate() {
        println!(
            "  {:2}. {:<18} est. invocations {:10.1}",
            i + 1,
            program.module.function(f).name,
            ie.of(f)
        );
    }

    // Measure on the last standard input (the others would be the
    // "profiling" inputs if we were comparing approaches).
    let inputs = bench.inputs();
    let measured = profiler::run(
        &program,
        &RunConfig::with_input(inputs.last().expect("inputs").clone()),
    )?
    .profile;

    // The best any ranking of k functions could cover: the k costliest
    // functions of this very run.
    let cost = |f: minic::sema::FuncId| measured.func_cost[f.0 as usize];
    let total: u64 = order.iter().map(|&f| cost(f)).sum();
    let mut best: Vec<u64> = order.iter().map(|&f| cost(f)).collect();
    best.sort_unstable_by(|a, b| b.cmp(a));

    println!("\nshare of the held-out run's cost in the top-k functions:");
    println!("  {:>5} {:>8} {:>8}", "k", "static", "best");
    let (mut covered, mut ideal) = (0u64, 0u64);
    for (k, (&f, &c)) in order.iter().zip(&best).enumerate() {
        covered += cost(f);
        ideal += c;
        let share = |part: u64| 100.0 * part as f64 / total.max(1) as f64;
        let bar = "#".repeat((share(covered) / 2.5) as usize);
        println!(
            "  {:>5} {:>7.1}% {:>7.1}% {bar}",
            k + 1,
            share(covered),
            share(ideal)
        );
        if covered == total {
            break;
        }
    }
    println!("(measured optimizer speedups per budget: `sfe fig10`)");
    Ok(())
}
