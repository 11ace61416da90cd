//! Quickstart: estimate block frequencies statically and compare them
//! against a real profile, reproducing the paper's core loop in ~50
//! lines.
//!
//! Run with: `cargo run --example quickstart`

use estimators::{intra, weight_matching};
use profiler::RunConfig;

const SOURCE: &str = r#"
int classify(int c) {
    if (c >= '0' && c <= '9') return 0;   /* digit */
    if (c == ' ' || c == '\n') return 1;  /* space */
    return 2;                             /* other */
}

int main(void) {
    int c, counts[3];
    counts[0] = 0; counts[1] = 0; counts[2] = 0;
    while ((c = getchar()) != -1)
        counts[classify(c)]++;
    printf("digits=%d spaces=%d other=%d\n",
           counts[0], counts[1], counts[2]);
    return 0;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Compile MiniC and lower to CFGs.
    let module = minic::compile(SOURCE).map_err(|e| e.render(SOURCE))?;
    let program = flowgraph::build_program(module);

    // 2. Static estimate (no execution!).
    let estimates = intra::estimate_program(&program, intra::IntraEstimator::Smart);

    // 3. Ground truth: run the program on an input.
    let out = profiler::run(&program, &RunConfig::with_input("words 42 and 7 numbers"))?;
    println!("program output: {}", out.stdout().trim());

    // 4. Compare, function by function, with the weight-matching
    //    metric at the paper's intra-procedural 5% cutoff... which for
    //    tiny functions we widen to 50% so the comparison is visible.
    for f in program.defined_ids() {
        let actual: Vec<f64> = out.profile.blocks_of(f).iter().map(|&c| c as f64).collect();
        let est = estimates.blocks_of(f);
        let score = weight_matching(est, &actual, 0.5);
        println!(
            "{:10} blocks={} weight-matching@50% = {:.0}%",
            program.module.function(f).name,
            est.len(),
            score * 100.0
        );
        for (b, (e, a)) in est.iter().zip(&actual).enumerate() {
            println!("    B{b}: estimated {e:7.2}   actual {a:7.0}");
        }
    }
    Ok(())
}
