//! The estimators' numbers, bit for bit: every branch prediction and
//! every intra block frequency and inter function frequency that
//! `estimators::estimate_all` produces for the 14 suite programs and
//! the generated programs from seeds 1,000,001–1,000,500 (the
//! perfbench corpus range) hash to one pinned digest. A change to the
//! estimators' data layout or traversal order must leave it alone;
//! only a deliberate change to what the paper's estimators compute
//! may move it.

use obs::hash::Fnv128;

/// The pinned digest: per program, one word per branch (absent
/// predictions marked), then every block frequency of the three intra
/// estimators and every function frequency of the five inter ones, as
/// `f64::to_bits`; suite programs first, then the seeds in order.
const ESTIMATE_DIGEST: u128 = 0xc2066dbc843437647e7abbf6b8bbdf61;

fn hash_program(h: &mut Fnv128, program: &flowgraph::Program) {
    let est = estimators::estimate_all(program);
    let preds = &est.intra[0].predictions;
    h.word(program.module.side.branches.len() as u64);
    for b in &program.module.side.branches {
        match preds.get(b.id) {
            Some(p) => {
                h.word(u64::from(p.taken) | (p.heuristic as u64) << 1);
                h.word(p.prob_taken.to_bits());
            }
            None => h.word(u64::MAX),
        }
    }
    for ia in &est.intra {
        for blocks in &ia.block_freqs {
            h.word(blocks.len() as u64);
            for v in blocks {
                h.word(v.to_bits());
            }
        }
    }
    for ie in &est.inter {
        h.word(ie.func_freqs.len() as u64);
        for v in &ie.func_freqs {
            h.word(v.to_bits());
        }
    }
}

#[test]
fn estimates_match_the_pinned_digest() {
    let mut h = Fnv128::with_basis(0);
    for p in suite::all() {
        hash_program(&mut h, &p.compile().unwrap());
    }
    for seed in 1_000_001..=1_000_500u64 {
        let module = minic::compile(&fuzzgen::generate(seed).render()).unwrap();
        hash_program(&mut h, &flowgraph::build_program(module));
    }
    assert_eq!(h.digest(), ESTIMATE_DIGEST, "{:032x}", h.digest());
}
