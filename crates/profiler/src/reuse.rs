//! Exact memory-reuse tracing.
//!
//! A *reuse distance* (LRU stack distance) is the number of distinct
//! other addresses touched between two consecutive accesses to the
//! same address. This module supplies the pieces both execution
//! engines share to measure it exactly:
//!
//! - [`MemTap`]: a compile-time probe the VM and the AST walker thread
//!   through their memory paths. The inactive [`NoTap`] monomorphizes
//!   to nothing, so the normal dispatch loop stays probe-free.
//! - [`ReuseCollector`]: an active tap implementing Olken's exact
//!   algorithm (hash map of last-access times + a Fenwick tree over
//!   the access timeline), binning each measured distance into a
//!   per-object log₂ histogram.
//! - [`ObjectMap`]: the static data-segment layout (one object per
//!   global, plus a catch-all for string literals and the heap), which
//!   attributes every traced address to a source-level object.
//!
//! **What is traced:** every load and store whose address lands in the
//! data segment (`0 < addr < STACK_BASE`) — globals, string literals,
//! and the heap. Stack and register traffic is deliberately excluded:
//! the VM keeps locals in registers while the AST walker spills them
//! to its memory stack, so only the data segment has an identical
//! access stream in both engines. Its layout is the same by
//! construction: both engines load the one static image of
//! [`crate::runtime`] (globals in declaration order, then strings) and
//! grow the one heap past it. The differential oracle exploits exactly
//! this — the two engines must produce byte-identical [`ReuseTrace`]s.

use crate::runtime::StaticLayout;
use minic::sema::Module;
use std::collections::HashMap;

/// A probe observing every data-segment memory access.
///
/// The VM and AST walker are generic over this trait; `ACTIVE` lets
/// the dispatch loops compile the probe out entirely when tracing is
/// off.
pub trait MemTap {
    /// Whether this tap observes accesses (false compiles the probe
    /// away).
    const ACTIVE: bool;
    /// Called once per successful data-segment load or store, with the
    /// word address.
    fn access(&mut self, addr: u64);
}

/// A borrowed tap observes as the tap it borrows.
impl<T: MemTap> MemTap for &mut T {
    const ACTIVE: bool = T::ACTIVE;
    #[inline(always)]
    fn access(&mut self, addr: u64) {
        (**self).access(addr);
    }
}

/// The inactive tap: zero-sized, compiles to nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTap;

impl MemTap for NoTap {
    const ACTIVE: bool = false;
    #[inline(always)]
    fn access(&mut self, _addr: u64) {}
}

/// Number of histogram bins: bin 0 holds distance 0, bins 1..=32 hold
/// `floor(log2(d)) + 1` (clamped), and bin [`COLD_BIN`] holds cold
/// (first-ever) accesses.
pub const BINS: usize = 34;

/// The bin recording cold (first-access) events.
pub const COLD_BIN: usize = 33;

/// The histogram bin for an exact reuse distance.
#[inline]
pub fn bin_of(dist: u64) -> usize {
    if dist == 0 {
        0
    } else {
        (64 - dist.leading_zeros() as usize).min(32)
    }
}

/// The static data-segment layout: one object per global (in
/// declaration order, at the addresses both engines load them), plus
/// one catch-all region for string literals and everything `malloc`
/// appends after them.
#[derive(Debug, Clone)]
pub struct ObjectMap {
    /// Ascending start addresses, one per object; object `i` covers
    /// `[starts[i], starts[i+1])` and the last object is unbounded.
    starts: Vec<u64>,
    names: Vec<String>,
}

impl ObjectMap {
    /// Builds the map from a module's globals, at the addresses of the
    /// runtime's one static layout, which both engines load.
    pub fn for_module(module: &Module) -> Self {
        let layout = StaticLayout::of(module);
        let mut starts = layout.global_addr;
        starts.push(layout.strings_at);
        let mut names: Vec<String> = module.globals.iter().map(|g| g.name.clone()).collect();
        names.push("<str/heap>".to_string());
        ObjectMap { starts, names }
    }

    /// Number of objects (globals + the catch-all region).
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the map has no objects (never: the catch-all always
    /// exists).
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Object names, in layout order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The object index covering `addr` (which must be a nonzero
    /// data-segment address).
    #[inline]
    pub fn object_of(&self, addr: u64) -> usize {
        debug_assert!(addr >= 1);
        self.starts.partition_point(|&s| s <= addr) - 1
    }
}

/// The result of one traced run: a per-object reuse-distance
/// histogram. Byte-identical across the VM and the AST walker, and
/// across any merge order (bins are plain sums).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseTrace {
    /// Per-object histograms, in [`ObjectMap`] layout order.
    pub objects: Vec<ReuseObject>,
    /// Total traced accesses.
    pub events: u64,
}

/// One object's reuse-distance histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseObject {
    /// The global's name, or `<str/heap>` for the catch-all region.
    pub name: String,
    /// `hist[bin_of(d)]` counts reuses at distance `d`;
    /// `hist[COLD_BIN]` counts cold accesses.
    pub hist: [u64; BINS],
}

impl ReuseTrace {
    /// An all-zero trace with the map's object shape.
    pub fn empty(map: &ObjectMap) -> Self {
        ReuseTrace {
            objects: map
                .names()
                .iter()
                .map(|n| ReuseObject {
                    name: n.clone(),
                    hist: [0; BINS],
                })
                .collect(),
            events: 0,
        }
    }

    /// Adds `other`'s counts into `self`. Both traces must come from
    /// the same program (same object list).
    ///
    /// # Panics
    ///
    /// Panics if the object lists differ.
    pub fn merge(&mut self, other: &ReuseTrace) {
        assert_eq!(
            self.objects.len(),
            other.objects.len(),
            "merging traces of different programs"
        );
        for (a, b) in self.objects.iter_mut().zip(&other.objects) {
            debug_assert_eq!(a.name, b.name);
            for (x, y) in a.hist.iter_mut().zip(&b.hist) {
                *x += y;
            }
        }
        self.events += other.events;
    }

    /// The histogram flattened to a normalized mass vector over
    /// `(object, bin)` cells — the entity weights the weight-matching
    /// metric scores. Sums to 1 (or is all-zero for an empty trace).
    pub fn mass(&self) -> Vec<f64> {
        let total: u64 = self.objects.iter().flat_map(|o| o.hist.iter()).sum();
        let scale = if total == 0 { 0.0 } else { 1.0 / total as f64 };
        self.objects
            .iter()
            .flat_map(|o| o.hist.iter().map(move |&c| c as f64 * scale))
            .collect()
    }
}

/// Olken's exact reuse-distance algorithm as an active [`MemTap`].
///
/// Each address's last-access time lives in a hash map; a Fenwick
/// tree over the access timeline holds a 1 at every address's *latest*
/// time, so the distance on a reuse is `live - prefix_sum(prev)` in
/// O(log n). When the timeline fills, times are compacted (renumbered
/// in order), bounding memory by the number of distinct addresses.
#[derive(Debug)]
pub struct ReuseCollector {
    map: ObjectMap,
    hists: Vec<[u64; BINS]>,
    /// addr → timeline slot of its most recent access.
    last: HashMap<u64, u32>,
    /// Fenwick tree (1-based) over timeline slots.
    fen: Vec<u32>,
    /// Next free timeline slot (1-based).
    next: u32,
    /// Number of distinct live addresses (1-bits in the tree).
    live: u32,
    pub(crate) events: u64,
}

impl ReuseCollector {
    /// A collector for the given layout.
    pub fn new(map: ObjectMap) -> Self {
        let hists = vec![[0u64; BINS]; map.len()];
        ReuseCollector {
            map,
            hists,
            last: HashMap::new(),
            fen: vec![0; 1 << 12],
            next: 1,
            live: 0,
            events: 0,
        }
    }

    #[inline]
    fn fen_add(&mut self, mut i: u32, delta: i32) {
        let n = self.fen.len() as u32;
        while i < n {
            self.fen[i as usize] = (self.fen[i as usize] as i32 + delta) as u32;
            i += i & i.wrapping_neg();
        }
    }

    #[inline]
    fn fen_sum(&self, mut i: u32) -> u64 {
        let mut s = 0u64;
        while i > 0 {
            s += self.fen[i as usize] as u64;
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Renumbers live timeline slots to 1..=live (in order) and
    /// rebuilds the tree, growing it if the live set needs room.
    fn compact(&mut self) {
        let mut order: Vec<(u32, u64)> = self.last.iter().map(|(&a, &t)| (t, a)).collect();
        order.sort_unstable();
        let need = (order.len() as u32 + 2).next_power_of_two().max(1 << 12) as usize;
        let cap = if need * 2 > self.fen.len() {
            need * 2
        } else {
            self.fen.len()
        };
        self.fen.clear();
        self.fen.resize(cap, 0);
        for (new_t, &(_, addr)) in order.iter().enumerate() {
            let t = new_t as u32 + 1;
            self.last.insert(addr, t);
            self.fen_add(t, 1);
        }
        self.next = order.len() as u32 + 1;
    }

    /// Finishes the trace.
    pub fn finish(self) -> ReuseTrace {
        ReuseTrace {
            objects: self
                .map
                .names()
                .iter()
                .zip(self.hists)
                .map(|(name, hist)| ReuseObject {
                    name: name.clone(),
                    hist,
                })
                .collect(),
            events: self.events,
        }
    }
}

impl MemTap for ReuseCollector {
    const ACTIVE: bool = true;

    fn access(&mut self, addr: u64) {
        self.events += 1;
        let obj = self.map.object_of(addr);
        if self.next as usize >= self.fen.len() {
            self.compact();
        }
        let t = self.next;
        self.next += 1;
        match self.last.insert(addr, t) {
            None => {
                self.hists[obj][COLD_BIN] += 1;
                self.live += 1;
            }
            Some(prev) => {
                // Distinct *other* addresses touched since `prev`:
                // live slots strictly after it.
                let dist = self.live as u64 - self.fen_sum(prev);
                self.fen_add(prev, -1);
                self.hists[obj][bin_of(dist)] += 1;
            }
        }
        self.fen_add(t, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector_for(n_objects: usize, sizes: &[u64]) -> ReuseCollector {
        // Hand-build a map without a module: starts from sizes.
        let mut starts = Vec::new();
        let mut names = Vec::new();
        let mut cur = 1u64;
        for (i, &s) in sizes.iter().enumerate() {
            starts.push(cur);
            names.push(format!("g{i}"));
            cur += s;
        }
        starts.push(cur);
        names.push("<str/heap>".into());
        assert_eq!(starts.len(), n_objects + 1);
        ReuseCollector::new(ObjectMap { starts, names })
    }

    #[test]
    fn bins_cover_the_distance_scale() {
        assert_eq!(bin_of(0), 0);
        assert_eq!(bin_of(1), 1);
        assert_eq!(bin_of(2), 2);
        assert_eq!(bin_of(3), 2);
        assert_eq!(bin_of(4), 3);
        assert_eq!(bin_of(1023), 10);
        assert_eq!(bin_of(1024), 11);
        assert_eq!(bin_of(u64::MAX), 32);
        for b in 1..=32 {
            assert_eq!(bin_of(1u64 << (b - 1)), b);
            assert_eq!(bin_of((1u64 << b) - 1), b);
        }
    }

    #[test]
    fn exact_distances_on_a_known_stream() {
        // Stream over addresses 1..=3 (one object of size 8):
        // 1 2 3 1  → reuse of 1 at distance 2
        // 2        → reuse of 2 at distance 2 (3 and 1 intervened)
        // 2        → distance 0
        let mut c = collector_for(1, &[8]);
        for a in [1u64, 2, 3, 1, 2, 2] {
            c.access(a);
        }
        let t = c.finish();
        assert_eq!(t.events, 6);
        let h = &t.objects[0].hist;
        assert_eq!(h[COLD_BIN], 3);
        assert_eq!(h[bin_of(2)], 2);
        assert_eq!(h[0], 1);
    }

    #[test]
    fn objects_partition_the_address_space() {
        let mut c = collector_for(2, &[4, 4]);
        assert_eq!(c.map.object_of(1), 0);
        assert_eq!(c.map.object_of(4), 0);
        assert_eq!(c.map.object_of(5), 1);
        assert_eq!(c.map.object_of(8), 1);
        assert_eq!(c.map.object_of(9), 2); // str/heap
        assert_eq!(c.map.object_of(1 << 30), 2);
        c.access(3);
        c.access(7);
        c.access(3);
        let t = c.finish();
        assert_eq!(t.objects[0].hist[COLD_BIN], 1);
        assert_eq!(t.objects[0].hist[bin_of(1)], 1);
        assert_eq!(t.objects[1].hist[COLD_BIN], 1);
    }

    #[test]
    fn compaction_preserves_distances() {
        // Force many compactions with a small working set; distances
        // must stay exact throughout.
        let mut c = collector_for(1, &[64]);
        c.fen = vec![0; 64]; // tiny timeline so compaction triggers often
        for round in 0..10_000u64 {
            // Cycle over 8 addresses: after warmup every access reuses
            // at distance 7.
            c.access(1 + (round % 8));
        }
        let t = c.finish();
        let h = &t.objects[0].hist;
        assert_eq!(h[COLD_BIN], 8);
        assert_eq!(h[bin_of(7)], 10_000 - 8);
    }

    #[test]
    fn merge_sums_bins_orderless() {
        let mut a = collector_for(1, &[8]);
        a.access(1);
        a.access(1);
        let ta = a.finish();
        let mut b = collector_for(1, &[8]);
        b.access(2);
        let tb = b.finish();
        let mut m1 = ta.clone();
        m1.merge(&tb);
        let mut m2 = tb.clone();
        m2.merge(&ta);
        assert_eq!(m1, m2);
        assert_eq!(m1.events, 3);
    }

    #[test]
    fn mass_is_normalized() {
        let mut c = collector_for(1, &[8]);
        for a in [1u64, 2, 1, 2] {
            c.access(a);
        }
        let m = c.finish().mass();
        assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(m.iter().all(|&x| x.is_finite() && x >= 0.0));
    }
}
