//! 128-bit content fingerprints for the incremental database: the
//! workspace hash [`obs::hash::Fnv128`] over length-prefixed fields,
//! with the service's own second offset basis so published
//! fingerprints keep their values.

use obs::hash::Fnv128;

/// A fresh fingerprint hasher.
pub fn hasher() -> Fnv128 {
    Fnv128::with_basis(0x6c62_272e_07bb_0142)
}

/// Folds an `f64` slice into a hasher, bit-exactly.
pub fn fold_f64s(h: &mut Fnv128, xs: &[f64]) {
    h.word(xs.len() as u64);
    for &x in xs {
        h.word(x.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_values_are_pinned() {
        // Published service fingerprints depend on this exact value.
        let mut h = hasher();
        h.field_str("hello");
        assert_eq!(h.digest(), 0xff7a_61ff_1132_0f78_e79f_7ac5_497f_349d);
    }
}
