//! The generator's text is pinned: the rendered source of seeds
//! 0..3,000 and 1,000,001..1,003,000 (the second range is where the
//! perfbench corpus and the digest tests draw from), concatenated and
//! hashed with FNV-1a/64, equals the digest taken when `CExpr` still
//! built its text from `format!` temporaries. Every corpus digest,
//! minimizer run and replayed seed depends on this text, so a change to
//! how it is built must leave it byte-identical.

/// FNV-1a/64 of every rendered program, in seed order.
const RENDER_DIGEST: u64 = 0x257990e10febff38;

#[test]
fn rendered_programs_match_the_pinned_digest() {
    let mut h: u64 = 0xcbf29ce484222325;
    for seed in (0..3_000u64).chain(1_000_001..1_003_001) {
        for &b in fuzzgen::generate(seed).render().as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }
    assert_eq!(h, RENDER_DIGEST, "{h:#018x}");
}
