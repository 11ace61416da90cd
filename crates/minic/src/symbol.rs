//! Interned names.
//!
//! The lexer gives every distinct identifier and string-literal
//! spelling of a translation unit one [`Symbol`] from the unit's
//! [`Interner`], so tokens, AST names and sema's tables carry a `u32`
//! instead of an owned `String`, and comparing two names compares two
//! integers. Symbols are numbered in order of first appearance and are
//! only meaningful against the interner of the unit they came from: an
//! edit that adds a name early in a file renumbers every later one.
//! That is why no pass after sema reads a name out of the AST — sema
//! resolves every name-dependent fact into [`crate::side`] columns —
//! and only pretty-printing and diagnostics resolve a symbol back to
//! text, each with its own unit's interner.

use std::fmt;
use std::ops::Index;

/// An interned name: an index into the [`Interner`] of its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The empty name (an unnamed parameter or enum). Every interner
    /// holds it as its first symbol.
    pub const EMPTY: Symbol = Symbol(0);

    /// The symbol's dense index, for tables indexed by symbol.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Marks a free slot of the probe table.
const FREE: u32 = u32::MAX;

/// A unit's name table: every spelling once, back to back in one
/// buffer, and an open-addressed probe table over them. Interning a
/// name that is already present allocates nothing; a new one copies
/// its bytes into the buffer.
#[derive(Clone, PartialEq)]
pub struct Interner {
    /// Every spelling, concatenated.
    text: String,
    /// `ends[i]` is where symbol `i`'s spelling ends in `text`; it
    /// starts where symbol `i - 1`'s ends.
    ends: Vec<u32>,
    /// Linear-probing table of symbol indices ([`FREE`] when empty);
    /// its length is a power of two, at least twice the symbol count.
    table: Vec<u32>,
}

impl Interner {
    /// An interner holding only [`Symbol::EMPTY`], sized for the few
    /// hundred names of a typical unit.
    pub fn new() -> Self {
        let mut names = Interner {
            text: String::with_capacity(1024),
            ends: Vec::with_capacity(128),
            table: vec![FREE; 256],
        };
        names.intern("");
        names
    }

    /// Number of symbols, [`Symbol::EMPTY`] included. Every symbol of
    /// this interner has an index below it.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Always `false`: [`Symbol::EMPTY`] is always present.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The symbol for `s`, adding it if it is new.
    pub fn intern(&mut self, s: &str) -> Symbol {
        let slot = match self.probe(s) {
            Ok(sym) => return sym,
            Err(slot) => slot,
        };
        let sym = self.ends.len() as u32;
        self.text.push_str(s);
        self.ends.push(self.text.len() as u32);
        self.table[slot] = sym;
        if self.ends.len() * 2 > self.table.len() {
            self.grow();
        }
        Symbol(sym)
    }

    /// The symbol for `s`, if it has been interned.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        self.probe(s).ok()
    }

    /// The spelling of `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is not from this interner.
    pub fn resolve(&self, sym: Symbol) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// Finds `s`: its symbol, or the free slot where it belongs.
    fn probe(&self, s: &str) -> Result<Symbol, usize> {
        let mask = self.table.len() - 1;
        let mut slot = self.home(s);
        loop {
            match self.table[slot] {
                FREE => return Err(slot),
                sym if self.resolve(Symbol(sym)) == s => return Ok(Symbol(sym)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The first slot probed for `s`: the top bits of a word-at-a-time
    /// multiplicative hash (names are short, so this is a few
    /// multiplies).
    fn home(&self, s: &str) -> usize {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut h = s.len() as u64;
        let mut words = s.as_bytes().chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("chunks of eight bytes"));
            h = (h.rotate_left(5) ^ w).wrapping_mul(K);
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            h = (h.rotate_left(5) ^ u64::from_le_bytes(w)).wrapping_mul(K);
        }
        (h >> (64 - self.table.len().trailing_zeros())) as usize
    }

    /// Doubles the probe table and reinserts every symbol.
    fn grow(&mut self) {
        let doubled = vec![FREE; self.table.len() * 2];
        let old = std::mem::replace(&mut self.table, doubled);
        let mask = self.table.len() - 1;
        for sym in old.into_iter().filter(|&s| s != FREE) {
            let mut slot = self.home(self.resolve(Symbol(sym)));
            while self.table[slot] != FREE {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = sym;
        }
    }
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl Index<Symbol> for Interner {
    type Output = str;

    fn index(&self, sym: Symbol) -> &str {
        self.resolve(sym)
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|i| self.resolve(Symbol(i as u32))))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_symbol_per_spelling() {
        let mut names = Interner::new();
        let a = names.intern("alpha");
        let b = names.intern("beta");
        assert_ne!(a, b);
        assert_eq!(names.intern("alpha"), a);
        assert_eq!(names.intern(""), Symbol::EMPTY);
        assert_eq!(&names[a], "alpha");
        assert_eq!(names.resolve(b), "beta");
        assert_eq!(names.resolve(Symbol::EMPTY), "");
        assert_eq!(names.get("beta"), Some(b));
        assert_eq!(names.get("gamma"), None);
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn symbols_number_in_order_of_first_appearance() {
        let mut names = Interner::new();
        let syms: Vec<Symbol> = ["x", "y", "x", "z"].map(|s| names.intern(s)).to_vec();
        assert_eq!(
            syms.iter().map(|s| s.index()).collect::<Vec<_>>(),
            [1, 2, 1, 3]
        );
    }

    #[test]
    fn growing_keeps_every_symbol() {
        let mut names = Interner::new();
        let spelled: Vec<String> = (0..5000)
            .map(|i| format!("name_{i}_{}", i * 7919))
            .collect();
        let syms: Vec<Symbol> = spelled.iter().map(|s| names.intern(s)).collect();
        for (s, &sym) in spelled.iter().zip(&syms) {
            assert_eq!(&names[sym], s.as_str());
            assert_eq!(names.intern(s), sym);
        }
        assert_eq!(names.len(), 5001);
    }

    #[test]
    fn long_and_non_ascii_spellings_round_trip() {
        let mut names = Interner::new();
        for s in [
            "a string literal longer than eight bytes",
            "é\n\0\t",
            "12345678",
        ] {
            let sym = names.intern(s);
            assert_eq!(&names[sym], s);
        }
    }
}
