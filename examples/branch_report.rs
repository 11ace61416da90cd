//! A per-branch prediction report: which heuristic fired on each
//! branch of a program, and how often each heuristic was right on real
//! inputs — a view into the §4.1 predictor that the paper aggregates
//! into Figure 2.
//!
//! Run with: `cargo run --release --example branch_report [program]`

use estimators::{predict_module, Heuristic};
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "awk".to_string());
    let bench = suite::by_name(&name).ok_or_else(|| format!("unknown suite program `{name}`"))?;
    let bench::ProgramData {
        program, profiles, ..
    } = bench::load(&[bench], pool::global(), None, 0).remove(0);
    let predictions = predict_module(&program.module);

    // Aggregate dynamic outcomes per heuristic.
    let mut stats: HashMap<Heuristic, (u64, u64)> = HashMap::new(); // (hits, total)
    for branch in &program.module.side.branches {
        if branch.const_cond.is_some() {
            continue; // predicted but not scored (§2)
        }
        let pred = predictions[branch.id];
        let (mut taken, mut not) = (0, 0);
        for p in &profiles {
            let (t, n) = p.branch(branch.id);
            taken += t;
            not += n;
        }
        if taken + not == 0 {
            continue;
        }
        let hits = if pred.taken { taken } else { not };
        let e = stats.entry(pred.heuristic).or_insert((0, 0));
        e.0 += hits;
        e.1 += taken + not;
    }

    println!("{name}: heuristic hit rates over {} inputs", profiles.len());
    println!(
        "{:<12} {:>14} {:>14} {:>8}",
        "heuristic", "correct", "total", "rate"
    );
    let mut rows: Vec<_> = stats.into_iter().collect();
    rows.sort_by_key(|&(_, (_, total))| std::cmp::Reverse(total));
    let (mut all_hits, mut all_total) = (0, 0);
    for (h, (hits, total)) in rows {
        println!(
            "{:<12} {:>14} {:>14} {:>7.1}%",
            format!("{h:?}"),
            hits,
            total,
            hits as f64 / total as f64 * 100.0
        );
        all_hits += hits;
        all_total += total;
    }
    if all_total > 0 {
        println!(
            "{:<12} {:>14} {:>14} {:>7.1}%  (miss rate {:.1}%)",
            "overall",
            all_hits,
            all_total,
            all_hits as f64 / all_total as f64 * 100.0,
            (1.0 - all_hits as f64 / all_total as f64) * 100.0
        );
    }
    Ok(())
}
