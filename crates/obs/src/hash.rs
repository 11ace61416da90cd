//! The workspace's hashes, both 128 bits wide and built from two
//! independent 64-bit streams.
//!
//! - [`Fnv128`], FNV-1a byte by byte, is the content hash for every
//!   value that leaves the process or is compared across runs:
//!   artifact-cache keys and checksums (persisted on disk), the
//!   service's declaration fingerprints and the corpus aggregate
//!   digest. Both streams start from the standard FNV-1a offset basis
//!   except that the second one is salted by a caller-chosen constant,
//!   so each user keeps the exact values it has always produced. The
//!   construction is fixed — no std hasher internals — so digests are
//!   stable across processes, runs and platforms.
//! - [`WordHash`] folds a whole integer per step and is the VM's IR
//!   fingerprint: an in-process equality key, never persisted, so its
//!   values may change with any release.

use std::hash::Hasher;

/// The 64-bit FNV-1a offset basis.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental dual-stream FNV-1a/128 hasher.
///
/// It also implements [`Hasher`], so any `#[derive(Hash)]` value can be
/// fed to it structurally; integers are written little-endian, so the
/// digest does not depend on the host's byte order.
#[derive(Debug, Clone)]
pub struct Fnv128 {
    a: u64,
    b: u64,
}

impl Fnv128 {
    /// A fresh hasher whose second stream starts at `second_basis`.
    pub const fn with_basis(second_basis: u64) -> Self {
        Fnv128 {
            a: FNV64_OFFSET,
            b: second_basis,
        }
    }

    /// Feeds raw bytes.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a = (self.a ^ u64::from(x)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(x)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Length-prefixed field update, so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn field(&mut self, bytes: &[u8]) {
        self.update(&(bytes.len() as u64).to_le_bytes());
        self.update(bytes);
    }

    /// Length-prefixed string field.
    pub fn field_str(&mut self, s: &str) {
        self.field(s.as_bytes());
    }

    /// A `u64` field (fixed width, no prefix needed).
    pub fn word(&mut self, w: u64) {
        self.update(&w.to_le_bytes());
    }

    /// The 128-bit digest.
    pub fn digest(&self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

impl Hasher for Fnv128 {
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }

    fn write_u8(&mut self, i: u8) {
        self.update(&[i]);
    }

    fn write_u16(&mut self, i: u16) {
        self.update(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.update(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.update(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.update(&(i as u64).to_le_bytes());
    }

    /// The first stream only; use [`Fnv128::digest`] for all 128 bits.
    fn finish(&self) -> u64 {
        self.a
    }
}

/// Multiplier of [`WordHash`]'s first stream (the golden ratio).
const WORD_K1: u64 = 0x9E37_79B9_7F4A_7C15;
/// Multiplier of [`WordHash`]'s second stream.
const WORD_K2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// A word-at-a-time 128-bit hasher for in-process equality keys.
///
/// Each integer write folds the whole word into each of two 64-bit
/// streams with one multiply and one rotate — the first stream xors
/// the word in, the second adds it, with different odd multipliers and
/// rotations — where [`Fnv128`] spends a multiply per *byte*. Byte
/// slices fold their length, then eight little-endian bytes per step.
/// [`WordHash::digest`] ends with a finalizer per stream that makes
/// every input bit reach every output bit.
///
/// It is fed through [`Hasher`] (any `#[derive(Hash)]` value). It is
/// not a content hash: nothing persists a digest or compares one
/// across processes, so the construction may change freely. The VM's
/// IR fingerprint is its one user.
#[derive(Debug, Clone)]
pub struct WordHash {
    a: u64,
    b: u64,
}

impl Default for WordHash {
    fn default() -> Self {
        WordHash::new()
    }
}

impl WordHash {
    /// A fresh hasher.
    pub const fn new() -> Self {
        WordHash {
            a: FNV64_OFFSET,
            b: WORD_K1,
        }
    }

    /// Folds one word into both streams.
    #[inline(always)]
    fn fold(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(WORD_K1).rotate_left(29);
        self.b = self.b.wrapping_add(w).wrapping_mul(WORD_K2).rotate_left(37);
    }

    /// The 128-bit digest.
    pub fn digest(&self) -> u128 {
        (u128::from(avalanche(self.a)) << 64) | u128::from(avalanche(self.b))
    }
}

/// MurmurHash3's 64-bit finalizer: every input bit flips each output
/// bit with probability close to one half.
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    x ^ (x >> 33)
}

impl Hasher for WordHash {
    fn write(&mut self, bytes: &[u8]) {
        self.fold(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.fold(u64::from_le_bytes(c.try_into().expect("eight bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    /// The low half of [`WordHash::digest`].
    fn finish(&self) -> u64 {
        self.digest() as u64
    }
}

/// Stand-alone FNV-1a/64 (the first stream of [`Fnv128`]).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv128::with_basis(0);
    h.update(bytes);
    h.a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn field_boundaries_matter() {
        let mut a = Fnv128::with_basis(1);
        a.field_str("ab");
        a.field_str("c");
        let mut b = Fnv128::with_basis(1);
        b.field_str("a");
        b.field_str("bc");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn known_fnv1a_vectors() {
        // Published FNV-1a/64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn second_basis_only_moves_the_low_half() {
        let mut a = Fnv128::with_basis(1);
        let mut b = Fnv128::with_basis(2);
        a.update(b"x");
        b.update(b"x");
        assert_eq!(a.digest() >> 64, b.digest() >> 64);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn word_hash_separates_widths_values_and_slice_boundaries() {
        let digest = |f: &dyn Fn(&mut WordHash)| {
            let mut h = WordHash::new();
            f(&mut h);
            h.digest()
        };
        let empty = digest(&|_| {});
        let one = digest(&|h| h.write_u64(1));
        assert_ne!(empty, one);
        assert_ne!(one, digest(&|h| h.write_u64(2)));
        assert_ne!(one, digest(&|h| h.write_u64(1 << 63)));
        // A byte slice folds its length, so where it splits matters.
        let split = |at: usize| {
            digest(&|h| {
                let bytes = b"abcdefghijkl";
                h.write(&bytes[..at]);
                h.write(&bytes[at..]);
            })
        };
        assert_ne!(split(3), split(4));
        assert_ne!(digest(&|h| h.write(b"a")), digest(&|h| h.write(b"a\0")));
        // Order matters.
        let ab = digest(&|h| {
            h.write_u32(1);
            h.write_u32(2);
        });
        let ba = digest(&|h| {
            h.write_u32(2);
            h.write_u32(1);
        });
        assert_ne!(ab, ba);
    }

    #[test]
    fn word_hash_avalanches_into_both_halves() {
        // Flipping any one input bit of the last word flips about half
        // of each output half.
        let base = {
            let mut h = WordHash::new();
            h.write_u64(0x0123_4567_89ab_cdef);
            h.digest()
        };
        for bit in 0..64 {
            let mut h = WordHash::new();
            h.write_u64(0x0123_4567_89ab_cdef ^ (1 << bit));
            let diff = base ^ h.digest();
            for half in [diff as u64, (diff >> 64) as u64] {
                let flipped = half.count_ones();
                assert!((12..=52).contains(&flipped), "bit {bit}: {flipped}");
            }
        }
    }

    #[test]
    fn hasher_writes_integers_little_endian() {
        let mut a = Fnv128::with_basis(3);
        0x0102_0304u32.hash(&mut a);
        let mut b = Fnv128::with_basis(3);
        b.update(&[4, 3, 2, 1]);
        assert_eq!(a.digest(), b.digest());
    }
}
