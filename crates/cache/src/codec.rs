//! The on-disk binary codec for cache entries.
//!
//! Deliberately tiny and hand-rolled: the build environment is
//! offline, so serde is not an option, and the artifact shapes are
//! simple enough that an explicit little-endian encoding is both
//! smaller and easier to audit than a generic framework.
//!
//! ## Entry framing
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SFEA"
//! 4       4     format version (u32 LE) — must equal FORMAT_VERSION
//! 8       8     payload length (u64 LE)
//! 16      8     FNV-1a/64 checksum of the payload (u64 LE)
//! 24      n     payload (first byte = artifact tag)
//! ```
//!
//! Every field is validated on decode; any mismatch — short file,
//! wrong magic, version skew, length disagreement, checksum failure,
//! unknown tag, or trailing/short payload internals — yields `None`,
//! never a panic. Hostile or truncated bytes must be survivable
//! because the cache directory is world-writable state.
//!
//! ## Payload encodings
//!
//! A `Profile` payload is tag `1` followed by the six count tables,
//! each length-prefixed, in field order:
//!
//! ```text
//! table             encoding
//! block_counts      rows: n, then per function a length and n u64
//! branch_counts     n, then n (taken u64, not-taken u64) pairs
//! call_site_counts  n, then n u64
//! func_counts       n, then n u64
//! edge_counts       rows, as block_counts (per function, by edge id)
//! func_cost         n, then n u64
//! ```
//!
//! Every table is dense, so encoding is a pure function of the
//! profile *value*: equal profiles produce byte-identical entries,
//! which the determinism tests rely on.
//! An `OptProfile` payload is tag `3` with the same layout. A
//! `ReuseProfile` payload is tag `4` followed by the event count and a
//! length-prefixed list of (name, histogram) objects. Tag `2`, a
//! retired bytecode-summary kind, decodes as unknown.

use crate::FORMAT_VERSION;
use obs::hash::fnv64;
use profiler::reuse::BINS;
use profiler::{Profile, ReuseTrace};

const MAGIC: [u8; 4] = *b"SFEA";
const HEADER_LEN: usize = 24;

const TAG_PROFILE: u8 = 1;
const TAG_OPT_PROFILE: u8 = 3;
const TAG_REUSE_PROFILE: u8 = 4;

/// One decoded cache entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// A full execution profile.
    Profile(Profile),
    /// A profile measured on the *optimized* program (same layout as
    /// [`Artifact::Profile`], distinct tag so the two artifact kinds
    /// can never be confused for one another).
    OptProfile(Profile),
    /// An exact reuse-distance trace from a traced run. Tagged
    /// separately from [`Artifact::Profile`] so a trace is never
    /// served where a plain profile was requested or vice versa.
    ReuseProfile(ReuseTrace),
}

/// Encodes `artifact` as a complete framed entry (header + payload).
pub fn encode_entry(artifact: &Artifact) -> Vec<u8> {
    let payload = encode_payload(artifact);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Decodes a framed entry, validating magic, version, length, and
/// checksum. `None` on any defect.
pub fn decode_entry(bytes: &[u8]) -> Option<Artifact> {
    if bytes.len() < HEADER_LEN || bytes[..4] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    if version != FORMAT_VERSION {
        return None;
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().ok()?);
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != payload_len || fnv64(payload) != checksum {
        return None;
    }
    decode_payload(payload)
}

fn encode_payload(artifact: &Artifact) -> Vec<u8> {
    let mut out = Vec::new();
    match artifact {
        Artifact::Profile(p) => {
            out.push(TAG_PROFILE);
            put_profile(&mut out, p);
        }
        Artifact::OptProfile(p) => {
            out.push(TAG_OPT_PROFILE);
            put_profile(&mut out, p);
        }
        Artifact::ReuseProfile(t) => {
            out.push(TAG_REUSE_PROFILE);
            put_u64(&mut out, t.events);
            put_len(&mut out, t.objects.len());
            for o in &t.objects {
                put_len(&mut out, o.name.len());
                out.extend_from_slice(o.name.as_bytes());
                for &c in &o.hist {
                    put_u64(&mut out, c);
                }
            }
        }
    }
    out
}

fn put_profile(out: &mut Vec<u8>, p: &Profile) {
    put_rows(out, &p.block_counts);
    put_len(out, p.branch_counts.len());
    for &(taken, not_taken) in &p.branch_counts {
        put_u64(out, taken);
        put_u64(out, not_taken);
    }
    put_len(out, p.call_site_counts.len());
    for &c in &p.call_site_counts {
        put_u64(out, c);
    }
    put_len(out, p.func_counts.len());
    for &c in &p.func_counts {
        put_u64(out, c);
    }
    put_rows(out, &p.edge_counts);
    put_len(out, p.func_cost.len());
    for &c in &p.func_cost {
        put_u64(out, c);
    }
}

/// A per-function table: the row count, then each row's length and
/// counts.
fn put_rows(out: &mut Vec<u8>, rows: &[Vec<u64>]) {
    put_len(out, rows.len());
    for row in rows {
        put_len(out, row.len());
        for &c in row {
            put_u64(out, c);
        }
    }
}

fn read_rows(r: &mut Reader) -> Option<Vec<Vec<u64>>> {
    (0..r.len()?)
        .map(|_| (0..r.len()?).map(|_| r.u64()).collect())
        .collect()
}

fn read_profile(r: &mut Reader) -> Option<Profile> {
    let mut p = Profile {
        block_counts: read_rows(r)?,
        ..Profile::default()
    };
    for _ in 0..r.len()? {
        p.branch_counts.push((r.u64()?, r.u64()?));
    }
    for _ in 0..r.len()? {
        p.call_site_counts.push(r.u64()?);
    }
    for _ in 0..r.len()? {
        p.func_counts.push(r.u64()?);
    }
    p.edge_counts = read_rows(r)?;
    for _ in 0..r.len()? {
        p.func_cost.push(r.u64()?);
    }
    Some(p)
}

fn decode_payload(payload: &[u8]) -> Option<Artifact> {
    let mut r = Reader(payload);
    let artifact = match r.u8()? {
        TAG_PROFILE => Artifact::Profile(read_profile(&mut r)?),
        TAG_OPT_PROFILE => Artifact::OptProfile(read_profile(&mut r)?),
        TAG_REUSE_PROFILE => {
            let events = r.u64()?;
            let n = r.len()?;
            let mut objects = Vec::with_capacity(n);
            for _ in 0..n {
                let name_len = r.len()?;
                let name = std::str::from_utf8(r.take(name_len)?).ok()?.to_string();
                let mut hist = [0u64; BINS];
                for slot in &mut hist {
                    *slot = r.u64()?;
                }
                objects.push(profiler::reuse::ReuseObject { name, hist });
            }
            Artifact::ReuseProfile(ReuseTrace { objects, events })
        }
        _ => return None,
    };
    // Trailing garbage means the writer and reader disagree about the
    // format — treat as corrupt rather than silently ignoring it.
    r.0.is_empty().then_some(artifact)
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u64(out, n as u64);
}

/// A bounds-checked little-endian cursor; every read is `Option` so
/// truncation anywhere surfaces as a clean decode failure.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A length prefix, sanity-capped so a corrupt length cannot make
    /// a decode loop attempt billions of iterations. Any genuine
    /// table in this workspace is far below the cap.
    fn len(&mut self) -> Option<usize> {
        let n = self.u64()?;
        // No table can have more entries than the payload has bytes.
        if n > self.0.len() as u64 {
            return None;
        }
        Some(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_every_header_defect() {
        let entry = encode_entry(&Artifact::Profile(Profile::default()));
        assert!(decode_entry(&entry).is_some());

        assert!(decode_entry(&[]).is_none(), "empty");
        assert!(decode_entry(&entry[..10]).is_none(), "truncated header");
        assert!(
            decode_entry(&entry[..entry.len() - 1]).is_none(),
            "truncated payload"
        );

        let mut bad = entry.clone();
        bad[0] = b'X';
        assert!(decode_entry(&bad).is_none(), "bad magic");

        let mut bad = entry.clone();
        bad[4] ^= 0xff;
        assert!(decode_entry(&bad).is_none(), "version skew");

        let mut bad = entry.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(decode_entry(&bad).is_none(), "checksum catches bit flip");

        let mut bad = entry.clone();
        bad.push(0);
        assert!(decode_entry(&bad).is_none(), "length catches trailing byte");
    }

    #[test]
    fn rejects_unknown_tag_and_oversized_length() {
        // A validly framed payload with an unknown tag.
        let payload = vec![99u8];
        let mut entry = Vec::new();
        entry.extend_from_slice(&MAGIC);
        entry.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        entry.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        entry.extend_from_slice(&fnv64(&payload).to_le_bytes());
        entry.extend_from_slice(&payload);
        assert!(decode_entry(&entry).is_none());

        // Tag 1 followed by a huge table length: must fail fast, not
        // loop for billions of iterations.
        let mut payload = vec![TAG_PROFILE];
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut entry = Vec::new();
        entry.extend_from_slice(&MAGIC);
        entry.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        entry.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        entry.extend_from_slice(&fnv64(&payload).to_le_bytes());
        entry.extend_from_slice(&payload);
        assert!(decode_entry(&entry).is_none());
    }
}
