//! Names survive the interner byte for byte: the pretty-printed text
//! of the 14 suite programs and of the generated programs from seeds
//! 1,000,001–1,000,500 (the perfbench corpus range) hashes to the
//! digest pinned when every name was still an owned `String`. The
//! serve fingerprints hash this text, so it must never move.

use obs::hash::Fnv128;

/// The pinned digest: one length-prefixed field per printed unit,
/// suite programs first, then the seeds in order.
const PRINTED_DIGEST: u128 = 0x94791baaf297847614d0cb9cd182f06d;

#[test]
fn printed_programs_match_the_pinned_digest() {
    let mut h = Fnv128::with_basis(0);
    let print = |src: &str| minic::pretty::print_unit(&minic::parser::parse(src).unwrap());
    for p in suite::all() {
        h.field_str(&print(p.source));
    }
    for seed in 1_000_001..=1_000_500u64 {
        h.field_str(&print(&fuzzgen::generate(seed).render()));
    }
    assert_eq!(h.digest(), PRINTED_DIGEST, "{:032x}", h.digest());
}
