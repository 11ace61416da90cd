//! Dev utility: profile the whole suite, reporting each program's
//! executed blocks and cost units over its standard inputs.
fn main() {
    for bp in suite::all() {
        let t0 = std::time::Instant::now();
        let data = bench::load_program(bp);
        let blocks: u64 = data.profiles.iter().map(|p| p.total_block_count()).sum();
        let cost: u64 = data.profiles.iter().flat_map(|p| &p.func_cost).sum();
        println!(
            "{:10} inputs={} blocks={:>10} cost={:>10} time={:?}",
            bp.name,
            data.profiles.len(),
            blocks,
            cost,
            t0.elapsed()
        );
    }
}
