//! The workspace's one content hash: FNV-1a over two independent 64-bit
//! streams, concatenated to 128 bits.
//!
//! Artifact-cache keys (persisted on disk), the service's declaration
//! fingerprints and the VM's IR fingerprint all use it. Both streams
//! start from the standard FNV-1a offset basis except that the second
//! one is salted by a caller-chosen constant, so each user keeps the
//! exact values it has always produced. The construction is fixed —
//! no std hasher internals — so digests are stable across processes,
//! runs and platforms.

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
    fn hasher_writes_integers_little_endian() {
        let mut a = Fnv128::with_basis(3);
        0x0102_0304u32.hash(&mut a);
        let mut b = Fnv128::with_basis(3);
        b.update(&[4, 3, 2, 1]);
        assert_eq!(a.digest(), b.digest());
    }
}
