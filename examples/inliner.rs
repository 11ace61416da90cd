//! Selective function inlining guided by static call-site estimates —
//! the §5.3 use case ("In function inlining, the crucial information
//! derived from a profile is the frequency of execution of specific
//! call sites").
//!
//! This example ranks the call sites of a suite program with the
//! combined intra + inter Markov estimate, picks the top quartile as
//! inlining candidates, and then checks against a real profile how
//! much dynamic call traffic those candidates cover.
//!
//! Run with: `cargo run --release --example inliner [program-name]`

use estimators::{callsite, inter, intra};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "cc".to_string());
    let bench = suite::by_name(&name).ok_or_else(|| format!("unknown suite program `{name}`"))?;
    let bench::ProgramData {
        program, profiles, ..
    } = bench::load(&[bench], pool::global(), None, 0).remove(0);

    // Static analysis only: intra smart + inter Markov.
    let ia = intra::estimate_program(&program, intra::IntraEstimator::Smart);
    let ie = inter::estimate_invocations(&program, &ia, inter::InterEstimator::Markov);
    let mut sites = callsite::estimate_sites(&program, &ia, &ie);
    sites.sort_by(|a, b| b.freq.total_cmp(&a.freq));

    let candidates = sites.len().div_ceil(4); // top quartile
    println!(
        "{name}: {} direct call sites, inlining the top {candidates}:",
        sites.len()
    );
    for s in sites.iter().take(candidates) {
        let cs = &program.module.side.call_sites[s.site.0 as usize];
        let caller = &program.module.function(cs.caller).name;
        let callee = match cs.callee {
            minic::sema::CalleeKind::Direct(f) => program.module.function(f).name.clone(),
            _ => unreachable!("rankable sites are direct"),
        };
        println!(
            "  {caller:>16} -> {callee:<16} est. freq {:10.1}  (line {})",
            s.freq,
            cs.span.line(bench.source)
        );
    }

    // How much actual call traffic do the candidates capture?
    for (i, p) in profiles.iter().enumerate() {
        let covered: u64 = sites.iter().take(candidates).map(|s| p.site(s.site)).sum();
        let total: u64 = sites.iter().map(|s| p.site(s.site)).sum();
        println!(
            "input {}: candidates cover {}/{} dynamic calls ({:.0}%)",
            i + 1,
            covered,
            total,
            if total > 0 {
                covered as f64 / total as f64 * 100.0
            } else {
                100.0
            }
        );
    }
    Ok(())
}
