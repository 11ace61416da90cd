//! Regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p bench --bin experiments            # everything
//! cargo run --release -p bench --bin experiments -- fig4    # one experiment
//! ```
//!
//! Experiments: table1 table2 fig2 fig3 fig4 fig5a fig5b fig5c fig7
//! fig8 fig9 fig10.

use bench::{load_suite, ProgramData};
use estimators::intra::IntraEstimator;
use minic::ast::NodeId;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted: Vec<&str> = if args.is_empty() {
        vec![
            "table1",
            "table2",
            "fig2",
            "fig3",
            "fig4",
            "fig5a",
            "fig5b",
            "fig5c",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "ablation",
            "extensions",
        ]
    } else {
        args.iter().map(String::as_str).collect()
    };

    // Experiments that need the profiled suite share one load.
    let needs_suite = wanted.iter().any(|w| {
        matches!(
            *w,
            "fig2" | "fig4" | "fig5a" | "fig5b" | "fig5c" | "fig9" | "ablation" | "extensions"
        )
    });
    let suite_data = if needs_suite {
        eprintln!("compiling and profiling the 14-program suite...");
        load_suite()
    } else {
        Vec::new()
    };

    for w in wanted {
        match w {
            "table1" => table1(),
            "table2" => table2(),
            "fig2" => fig2(&suite_data),
            "fig3" => fig3(),
            "fig4" => fig4(&suite_data),
            "fig5a" => fig5a(&suite_data),
            "fig5b" => fig5bc(&suite_data, 0.10, "Figure 5b"),
            "fig5c" => fig5bc(&suite_data, 0.25, "Figure 5c"),
            "fig7" => fig7(),
            "fig8" => fig8(),
            "fig9" => fig9(&suite_data),
            "fig10" => fig10(),
            "ablation" => ablation(&suite_data),
            "extensions" => extensions(&suite_data),
            other => eprintln!("unknown experiment `{other}` (skipped)"),
        }
    }
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn pct(v: f64) -> String {
    format!("{:5.1}", v * 100.0)
}

fn table1() {
    header("Table 1: Programs used in this study");
    println!("{:<10} {:>6}  Description", "Program", "Lines");
    let mut total = 0;
    for p in suite::all() {
        println!("{:<10} {:>6}  {}", p.name, p.lines(), p.description);
        total += p.lines();
    }
    println!("{:<10} {:>6}", "total", total);
}

fn table2() {
    header("Figure 1 / Table 2: the strchr running example");
    println!("{}", bench::STRCHR_EXAMPLE.trim_end());
    println!();
    let t = bench::table2();
    println!("{:<8} {:>8} {:>10}", "block", "actual", "estimate");
    // Block order after lowering: loop header, if test, the trailing
    // return (loop exit), the in-loop return, the increment.
    let names = ["while", "if", "return2", "return1", "incr"];
    for (i, (actual, est)) in t.rows.iter().enumerate() {
        let name = names.get(i).copied().unwrap_or("?");
        println!("{:<8} {:>8.1} {:>10.2}", name, actual, est);
    }
    println!(
        "score at 20% cutoff: {}%   (paper: 100%)",
        pct(t.score_20).trim()
    );
    println!(
        "score at 60% cutoff: {}%   (paper:  88%)",
        pct(t.score_60).trim()
    );
}

fn fig2(suite_data: &[ProgramData]) {
    header("Figure 2: branch miss rates (%) — static predictor, profiling, PSP");
    println!(
        "{:<10} {:>8} {:>10} {:>8} {:>12} {:>8}",
        "program", "static", "profiling", "PSP", "dyn branches", "switch%"
    );
    let rows = bench::fig2(suite_data);
    let mut sums = [0.0; 4];
    for (name, r, switch_frac) in &rows {
        println!(
            "{:<10} {:>8} {:>10} {:>8} {:>12} {:>8}",
            name,
            pct(r.static_pred),
            pct(r.profile_pred),
            pct(r.psp),
            r.dynamic_branches,
            pct(*switch_frac)
        );
        sums[0] += r.static_pred;
        sums[1] += r.profile_pred;
        sums[2] += r.psp;
        sums[3] += switch_frac;
    }
    let n = rows.len() as f64;
    println!(
        "{:<10} {:>8} {:>10} {:>8} {:>12} {:>8}",
        "average",
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
        "",
        pct(sums[3] / n)
    );
    println!("(paper: static ≈ 2× the profiling miss rate, PSP lowest; switches");
    println!(" excluded — \"less than 3% of dynamic branches on average\")");
}

fn fig3() {
    header("Figure 3: AST walk for strchr (estimated counts per node)");
    let module = minic::compile(bench::STRCHR_EXAMPLE).expect("compiles");
    let program = flowgraph::build_program(module);
    let f = program.function_id("strchr").unwrap();
    let preds = estimators::predict_module(&program.module);
    let freqs = estimators::intra::ast_frequencies(&program, f, &preds, true);
    let mut entries: Vec<(NodeId, f64)> = freqs.into_iter().collect();
    entries.sort_by_key(|e| e.0);
    println!("node   est.count");
    for (id, v) in entries {
        println!("{id:>5}  {v:.2}");
    }
    println!("(the while test gets 5, body statements 4, `return str;` 0.8)");
}

fn fig4(suite_data: &[ProgramData]) {
    header("Figure 4: intra-procedural weight-matching at the 5% cutoff (%)");
    println!(
        "{:<10} {:>6} {:>6} {:>7} {:>8}",
        "program", "loop", "smart", "markov", "profile"
    );
    let rows = bench::fig4(suite_data);
    for (name, r) in &rows {
        println!(
            "{:<10} {:>6} {:>6} {:>7} {:>8}",
            name,
            pct(r[0]),
            pct(r[1]),
            pct(r[2]),
            pct(r[3])
        );
    }
    let avg = bench::averages(&rows);
    println!(
        "{:<10} {:>6} {:>6} {:>7} {:>8}",
        "average",
        pct(avg[0]),
        pct(avg[1]),
        pct(avg[2]),
        pct(avg[3])
    );
    println!("(paper: ~81% average for smart; markov no better intra-procedurally)");
}

fn fig5a(suite_data: &[ProgramData]) {
    header("Figure 5a: function-invocation scores at 25% (%) — simple estimators");
    println!(
        "{:<10} {:>9} {:>7} {:>8} {:>9} {:>8}",
        "program", "call-site", "direct", "all-rec", "all-rec2", "profile"
    );
    let rows = bench::fig5a(suite_data);
    for (name, r) in &rows {
        println!(
            "{:<10} {:>9} {:>7} {:>8} {:>9} {:>8}",
            name,
            pct(r[0]),
            pct(r[1]),
            pct(r[2]),
            pct(r[3]),
            pct(r[4])
        );
    }
    let avg = bench::averages(&rows);
    println!(
        "{:<10} {:>9} {:>7} {:>8} {:>9} {:>8}",
        "average",
        pct(avg[0]),
        pct(avg[1]),
        pct(avg[2]),
        pct(avg[3]),
        pct(avg[4])
    );
}

fn fig5bc(suite_data: &[ProgramData], cutoff: f64, title: &str) {
    header(&format!(
        "{title}: direct vs Markov vs profiling at the {:.0}% cutoff (%)",
        cutoff * 100.0
    ));
    println!(
        "{:<10} {:>7} {:>7} {:>8}",
        "program", "direct", "markov", "profile"
    );
    let rows = bench::fig5bc(suite_data, cutoff);
    for (name, r) in &rows {
        println!(
            "{:<10} {:>7} {:>7} {:>8}",
            name,
            pct(r[0]),
            pct(r[1]),
            pct(r[2])
        );
    }
    let avg = bench::averages(&rows);
    println!(
        "{:<10} {:>7} {:>7} {:>8}",
        "average",
        pct(avg[0]),
        pct(avg[1]),
        pct(avg[2])
    );
    println!("(paper: Markov ≈ 10 points above direct; ~81% at the 25% cutoff)");
}

fn fig7() {
    header("Figures 6/7: the strchr Markov system and its solution");
    let module = minic::compile(bench::STRCHR_EXAMPLE).expect("compiles");
    let program = flowgraph::build_program(module);
    let f = program.function_id("strchr").unwrap();
    let cfg = program.cfg(f);
    let preds = estimators::predict_module(&program.module);
    let probs = estimators::intra::edge_probabilities(&program, cfg, &preds);
    println!("arcs (block -> block : probability):");
    for (src, outs) in probs.iter().enumerate() {
        for (dst, p) in outs {
            println!("  B{src} -> B{} : {p:.2}", dst.0);
        }
    }
    let sol = estimators::intra::estimate_function(&program, f, IntraEstimator::Markov);
    println!("solution (block frequencies, entry = 1):");
    for (i, v) in sol.iter().enumerate() {
        println!("  B{i}: {v:.4}");
    }
    println!("(paper: while = 2.78, if = 2.22, return1 = 0.44, incr = 1.78, return2 = 0.56)");
    println!(
        "\nDOT rendering of the CFG:\n{}",
        flowgraph::dot::cfg_to_dot(&program.module, cfg, Some(&sol))
    );
}

fn fig8() {
    header("Figure 8: recursion repair for count_nodes");
    let f = bench::fig8();
    println!(
        "raw self-arc weight : {:.2}  (paper: 1.6 — impossible, >1)",
        f.self_arc_weight
    );
    println!(
        "repaired estimate   : {:.2}  (self arc reset to 0.8)",
        f.repaired_estimate
    );
}

fn fig9(suite_data: &[ProgramData]) {
    header("Figure 9: call-site scores at the 25% cutoff (%)");
    println!(
        "{:<10} {:>7} {:>7} {:>8}",
        "program", "direct", "markov", "profile"
    );
    let rows = bench::fig9(suite_data);
    for (name, r) in &rows {
        println!(
            "{:<10} {:>7} {:>7} {:>8}",
            name,
            pct(r[0]),
            pct(r[1]),
            pct(r[2])
        );
    }
    let avg = bench::averages(&rows);
    println!(
        "{:<10} {:>7} {:>7} {:>8}",
        "average",
        pct(avg[0]),
        pct(avg[1]),
        pct(avg[2])
    );
    println!("(paper: 76% for the combined estimate at 25%)");
}

fn fig10() {
    header("Figure 10: selective optimization of compress (speedup vs #functions)");
    let f = bench::fig10();
    print!("{:<10}", "k");
    for k in &f.ks {
        print!(" {k:>6}");
    }
    println!();
    for (label, series) in &f.series {
        print!("{label:<10}");
        for v in series {
            print!(" {v:>6.3}");
        }
        println!();
    }
    println!("static (Markov) rank order: {}", f.static_order.join(", "));
    println!("(paper: the static estimate finds the top-4 hot functions; optimizing");
    println!(" the remaining 12 adds nothing)");

    header("Figure 10 (measured): optimizer speedup vs budget, held-out input");
    let m = bench::fig10_measured();
    for p in &m.programs {
        println!("{} (baseline {} steps)", p.name, p.baseline_steps);
        print!("  {:<10}", "k");
        for k in &p.ks {
            print!(" {k:>6}");
        }
        println!();
        for c in &p.curves {
            print!("  {:<10}", c.ranking);
            for v in &c.speedups {
                print!(" {v:>6.3}");
            }
            println!();
        }
    }
    println!("(speedup = unoptimized steps / optimized steps at -O3, top-k budget)");
}

fn ablation(suite_data: &[ProgramData]) {
    header("Ablation: the paper's design choices");
    let a = bench::ablation(suite_data);
    println!("-- branch heuristics (suite-average miss rate when disabled) --");
    println!("{:<14} {:>8} {:>8}", "disabled", "miss", "delta");
    println!("{:<14} {:>8} {:>8}", "(none)", pct(a.full_miss), "");
    for (name, miss) in &a.heuristic_miss {
        println!(
            "{:<14} {:>8} {:>+7.1}",
            name,
            pct(*miss),
            (miss - a.full_miss) * 100.0
        );
    }
    println!("\n-- loop iteration guess (paper: 5) vs Figure 4 smart average --");
    for (lc, score) in &a.loop_sweep {
        println!("  loops = {lc:>4}  ->  {}", pct(*score));
    }
    println!("\n-- branch probability (paper footnote 5: 0.8, \"exact value");
    println!("   did not have a significant effect\") --");
    for (conf, score) in &a.confidence_sweep {
        println!("  p = {conf:.2}  ->  {}", pct(*score));
    }
    println!("\n-- the §5.1 open question: probability-emitting predictor --");
    println!("  smart (AST)        : {}", pct(a.calibrated[0]));
    println!("  Markov @ flat 0.8  : {}", pct(a.calibrated[1]));
    println!("  Markov calibrated  : {}", pct(a.calibrated[2]));
}

fn extensions(suite_data: &[ProgramData]) {
    header("Extensions beyond the paper");
    let e = bench::extensions(suite_data);
    println!("-- §4.1 trip-count refinement (Figure 4 methodology, 5% cutoff) --");
    println!(
        "{:<10} {:>7} {:>11} {:>8}",
        "program", "smart", "smart+trip", "#loops"
    );
    let (mut s1, mut s2) = (0.0, 0.0);
    for (name, smart, trip, n) in &e.trip_rows {
        println!(
            "{:<10} {:>7} {:>11} {:>8}",
            name,
            pct(*smart),
            pct(*trip),
            n
        );
        s1 += smart;
        s2 += trip;
    }
    let n = e.trip_rows.len() as f64;
    println!("{:<10} {:>7} {:>11}", "average", pct(s1 / n), pct(s2 / n));

    println!("\n-- whole-program rankings at 25% (abstract: \"arc and basic");
    println!("   block frequency estimates for the entire program\") --");
    println!("{:<10} {:>8} {:>8}", "program", "blocks", "arcs");
    let (mut b, mut a) = (0.0, 0.0);
    for (name, blocks, arcs) in &e.global_rows {
        println!("{:<10} {:>8} {:>8}", name, pct(*blocks), pct(*arcs));
        b += blocks;
        a += arcs;
    }
    let n = e.global_rows.len() as f64;
    println!("{:<10} {:>8} {:>8}", "average", pct(b / n), pct(a / n));
}
