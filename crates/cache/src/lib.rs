//! # cache — the persistent content-addressed artifact store
//!
//! The paper's pitch is that static estimates are cheap *because
//! profiling is expensive* — and the pipeline telemetry agrees:
//! profiler execution dwarfs every other stage combined, and before
//! this crate existed nothing survived the process, so every `sfe
//! suite` re-ran all of it. This store amortizes that cost across
//! runs the way production PGO pipelines amortize profile collection:
//! artifacts are keyed by a content fingerprint of everything that
//! could change the result, kept in a directory of small checksummed
//! files, consulted before executing, and written through after.
//!
//! Callers go through [`get_or_run`]: one call derives the key, serves
//! a valid entry, or runs the computation and writes its result
//! through before returning it.
//!
//! ## Key derivation
//!
//! An [`ArtifactKey`] is a 128-bit FNV-1a fingerprint (two 64-bit
//! streams with different offset bases — deterministic across
//! processes, platforms, and Rust versions, unlike `DefaultHasher`)
//! over a length-prefixed encoding of:
//!
//! - the artifact kind tag (profile, optimized-run profile or reuse
//!   trace),
//! - [`FORMAT_VERSION`] (bump it and every old entry misses),
//! - the full program source text,
//! - the run configuration (`max_steps`, `max_call_depth`),
//! - the input bytes served to `getchar()`, and
//! - the kind's own salt: the optimization level and pass-pipeline
//!   version of an optimized run, the trace-mode byte of a reuse
//!   trace (see [`ArtifactKind`]).
//!
//! Any change to any ingredient changes the key, so invalidation is
//! automatic — there is no staleness protocol to get wrong.
//!
//! ## On-disk layout
//!
//! `<dir>/<k[0..2]>/<k[2..32]>.sfea`, where `k` is the 32-hex-digit
//! key: a 256-way fan-out keeps directories small. Each file is
//! `magic ‖ version ‖ payload_len ‖ fnv64(payload) ‖ payload` (see
//! [`codec`]). Writes go to a `.tmp-<pid>-<n>` sibling and are
//! `rename`d into place, so concurrent writers race benignly — both
//! write identical bytes for identical keys — and readers never see a
//! torn file. Every write is synchronous: once [`Cache::store`]
//! returns, the entry is on disk for every other process, so a
//! resident service needs no flush protocol.
//!
//! ## Failure policy
//!
//! A missing, truncated, corrupt, version-skewed, or
//! wrong-checksummed entry is *never* an error: [`Cache::load`]
//! returns `None`, bumps the `cache.corrupt` counter (when the bytes
//! were there but wrong), and the caller recomputes and overwrites.
//! The store is an accelerator, not a source of truth.
//!
//! ## Eviction
//!
//! Best-effort, capacity-based: when an opportunistic scan (at
//! [`Cache::open`], and every [`EVICT_SCAN_INTERVAL`] writes) finds
//! more than [`Cache::capacity`] entries, the oldest-modified entries
//! are removed down to capacity and `cache.evictions` is bumped.
//! Filesystem mtimes can have full-second granularity, so same-mtime
//! groups are common after a burst of writes; the scan breaks those
//! ties by key (the entry's hex filename), which makes eviction order
//! a pure function of (mtime, key) — identical on every filesystem.
//! Concurrent scans race benignly: `remove_file` succeeds in exactly
//! one racer, so each eviction is counted once, and the temp+rename
//! write protocol means a scan can never observe (or remove) a
//! half-written entry.

#![warn(missing_docs)]

pub mod codec;

use codec::Artifact;
use obs::hash::Fnv128;
use profiler::{Profile, ReuseTrace, RunConfig};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Bump when the codec layout or key derivation changes; every entry
/// written under another version silently misses. v2 added the
/// optimized-run profile kind ([`ArtifactKind::OptProfile`]); v3
/// added reuse-distance traces ([`ArtifactKind::ReuseProfile`]) and
/// folded the trace-mode byte into their keys; v4 writes a profile's
/// edge counts as dense per-function rows by edge id. Those rows are
/// positional, so a change to the edge numbering (`Cfg::edges`) must
/// bump it too.
pub const FORMAT_VERSION: u32 = 4;

/// File extension for cache entries.
const ENTRY_EXT: &str = "sfea";

/// How many writes between opportunistic eviction scans.
pub const EVICT_SCAN_INTERVAL: u64 = 256;

/// Default [`Cache::capacity`]: far above one suite's needs (14
/// programs × a handful of inputs), far below anything that hurts.
pub const DEFAULT_CAPACITY: usize = 8192;

/// What kind of artifact a key addresses, with the salt its key
/// carries. The tag and the salt participate in key derivation, so
/// the kinds can never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A full execution [`Profile`] of (source, config, input).
    Profile,
    /// A [`Profile`] from executing the *optimized* program; its key
    /// is salted with the optimization level and the optimizer's
    /// pass-pipeline version, so a different level — or a pipeline
    /// change — always misses.
    OptProfile {
        /// The optimization level the program ran at.
        opt_level: u8,
        /// The optimizer's pass-pipeline version.
        pipeline_version: u32,
    },
    /// An exact reuse-distance trace of (source, config, input) from
    /// the profiler's tracing mode; its key is salted with the
    /// trace-mode byte, so a trace can never be served from a
    /// plain-profile entry.
    ReuseProfile,
}

impl ArtifactKind {
    /// The kind's key tag. Tag 2 belonged to a retired bytecode-summary
    /// kind and stays unassigned, so no new kind reuses its keys.
    fn tag(self) -> u8 {
        match self {
            ArtifactKind::Profile => 1,
            ArtifactKind::OptProfile { .. } => 3,
            ArtifactKind::ReuseProfile => 4,
        }
    }

    /// Hashes the kind's salt, the last ingredient of its keys.
    fn salt(self, h: &mut Fnv128) {
        match self {
            ArtifactKind::Profile => {}
            ArtifactKind::OptProfile {
                opt_level,
                pipeline_version,
            } => {
                h.update(&[opt_level]);
                h.update(&pipeline_version.to_le_bytes());
            }
            // The tag already separates the artifact spaces; the
            // trace-mode byte (1: traced) makes the execution-mode
            // dependency part of the key contract itself, so a future
            // non-traced reuse summary (0) can coexist without a
            // format bump.
            ArtifactKind::ReuseProfile => h.update(&[1]),
        }
    }
}

/// A value the store holds: how it becomes the [`Artifact`] of a kind
/// and how it is read back out of one.
pub trait Cached: Clone {
    /// `self` as the artifact `kind` stores.
    fn into_artifact(self, kind: ArtifactKind) -> Artifact;
    /// The value in `artifact` if it is an artifact of `kind`; `None`
    /// for any other kind, so one kind is never served as another.
    fn from_artifact(artifact: Artifact, kind: ArtifactKind) -> Option<Self>;
}

impl Cached for Profile {
    fn into_artifact(self, kind: ArtifactKind) -> Artifact {
        match kind {
            ArtifactKind::OptProfile { .. } => Artifact::OptProfile(self),
            ArtifactKind::Profile | ArtifactKind::ReuseProfile => Artifact::Profile(self),
        }
    }

    fn from_artifact(artifact: Artifact, kind: ArtifactKind) -> Option<Profile> {
        match (artifact, kind) {
            (Artifact::Profile(p), ArtifactKind::Profile)
            | (Artifact::OptProfile(p), ArtifactKind::OptProfile { .. }) => Some(p),
            _ => None,
        }
    }
}

impl Cached for ReuseTrace {
    fn into_artifact(self, _kind: ArtifactKind) -> Artifact {
        Artifact::ReuseProfile(self)
    }

    fn from_artifact(artifact: Artifact, kind: ArtifactKind) -> Option<ReuseTrace> {
        match (artifact, kind) {
            (Artifact::ReuseProfile(t), ArtifactKind::ReuseProfile) => Some(t),
            _ => None,
        }
    }
}

/// A 128-bit content fingerprint; the cache address of one artifact.
/// Ordered by key value — the eviction tie-break order.
// The derived `partial_cmp` delegates to `Ord` on a `u128` — total, so
// exempt from the workspace NaN-ordering ban (clippy.toml).
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArtifactKey(pub u128);

/// The key hash: [`obs::hash::Fnv128`] with the cache's own second
/// offset basis (digits of pi), which persisted keys depend on.
fn key_hasher() -> Fnv128 {
    Fnv128::with_basis(0x2437_0747_8584_2225)
}

impl ArtifactKey {
    /// The key of `kind` for running `source` under `config` — the
    /// input bytes are part of `config`, the kind's salt part of
    /// `kind`.
    pub fn derive(kind: ArtifactKind, source: &str, config: &RunConfig) -> ArtifactKey {
        let mut h = key_hasher();
        h.update(&[kind.tag()]);
        h.update(&FORMAT_VERSION.to_le_bytes());
        h.field(source.as_bytes());
        h.update(&config.max_steps.to_le_bytes());
        h.update(&(config.max_call_depth as u64).to_le_bytes());
        h.field(&config.input);
        kind.salt(&mut h);
        ArtifactKey(h.digest())
    }

    /// 32 lowercase hex digits.
    fn hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

/// The artifact of `kind` for running `source` under `config`: the
/// entry `cache` holds when it is valid, else what `run` computes,
/// written through before it is returned. Without a cache this is
/// `run()`; a failed run stores nothing.
///
/// # Errors
///
/// Whatever `run` returns.
pub fn get_or_run<T: Cached, E>(
    cache: Option<&Cache>,
    kind: ArtifactKind,
    source: &str,
    config: &RunConfig,
    run: impl FnOnce() -> Result<T, E>,
) -> Result<T, E> {
    let Some(cache) = cache else {
        return run();
    };
    let key = ArtifactKey::derive(kind, source, config);
    if let Some(hit) = cache.load(kind, key) {
        return Ok(hit);
    }
    let value = run()?;
    cache.store(key, &value.clone().into_artifact(kind));
    Ok(value)
}

/// A handle on one cache directory. Cheap to clone conceptually but
/// deliberately not `Clone`: share it by reference (it is `Sync`; all
/// internal state is atomic).
#[derive(Debug)]
pub struct Cache {
    dir: PathBuf,
    capacity: usize,
    writes: AtomicU64,
    tmp_counter: AtomicU64,
    /// One flag per 2-hex-digit shard directory already created, so
    /// a write skips the `create_dir_all` syscall after the first
    /// write into a shard.
    shard_created: [AtomicBool; 256],
}

impl Cache {
    /// Opens (creating if needed) the store rooted at `dir` with the
    /// [`DEFAULT_CAPACITY`], and runs one eviction scan.
    ///
    /// # Errors
    ///
    /// Only if the directory cannot be created — a cache that cannot
    /// even hold its root is worth surfacing, unlike any later I/O
    /// trouble, which degrades to recomputation.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Cache> {
        Cache::with_capacity(dir, DEFAULT_CAPACITY)
    }

    /// [`Cache::open`] with an explicit entry-count capacity.
    ///
    /// # Errors
    ///
    /// See [`Cache::open`].
    pub fn with_capacity(dir: impl Into<PathBuf>, capacity: usize) -> std::io::Result<Cache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let cache = Cache {
            dir,
            capacity: capacity.max(1),
            writes: AtomicU64::new(0),
            tmp_counter: AtomicU64::new(0),
            shard_created: [const { AtomicBool::new(false) }; 256],
        };
        cache.evict_to_capacity();
        Ok(cache)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Maximum entries the eviction scan keeps.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn entry_path(&self, key: ArtifactKey) -> PathBuf {
        let hex = key.hex();
        self.dir
            .join(&hex[..2])
            .join(format!("{}.{ENTRY_EXT}", &hex[2..]))
    }

    /// Loads the artifact of `kind` at `key`, or `None` on a miss, on
    /// any validation failure, or when the entry holds another kind.
    /// Bytes that exist but fail validation bump `cache.corrupt` and
    /// are removed — the caller recomputes and writes through.
    pub fn load<T: Cached>(&self, kind: ArtifactKind, key: ArtifactKey) -> Option<T> {
        let path = self.entry_path(key);
        let Ok(bytes) = std::fs::read(&path) else {
            obs::counter_add("cache.misses", 1);
            return None;
        };
        let Some(artifact) = codec::decode_entry(&bytes) else {
            obs::counter_add("cache.misses", 1);
            obs::counter_add("cache.corrupt", 1);
            // Drop the poisoned entry so the write-through after
            // recomputation heals the store.
            let _best_effort = std::fs::remove_file(&path);
            return None;
        };
        let value = T::from_artifact(artifact, kind);
        let outcome = if value.is_some() {
            "cache.hits"
        } else {
            "cache.misses"
        };
        obs::counter_add(outcome, 1);
        value
    }

    /// Encodes and writes `artifact` at `key` (write-through after a
    /// miss): a temp file renamed into place, on disk when this
    /// returns. Every [`EVICT_SCAN_INTERVAL`]th write runs an
    /// eviction scan. All I/O errors degrade to "not cached": the
    /// temp file is cleaned up and the store stays consistent.
    pub fn store(&self, key: ArtifactKey, artifact: &Artifact) {
        let path = self.entry_path(key);
        let Some(parent) = path.parent() else {
            return;
        };
        let shard = (key.0 >> 120) as usize;
        if !self.shard_created[shard].load(Ordering::Relaxed) {
            if std::fs::create_dir_all(parent).is_err() {
                return;
            }
            self.shard_created[shard].store(true, Ordering::Relaxed);
        }
        let tmp = parent.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        let entry = codec::encode_entry(artifact);
        let written = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&entry))
            .and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_err() {
            let _best_effort = std::fs::remove_file(&tmp);
            return;
        }
        obs::counter_add("cache.writes", 1);
        let writes = self.writes.fetch_add(1, Ordering::Relaxed) + 1;
        if writes.is_multiple_of(EVICT_SCAN_INTERVAL) {
            self.evict_to_capacity();
        }
    }

    /// Removes oldest-modified entries until at most `capacity`
    /// remain, breaking mtime ties by key so the order is a pure
    /// function of the store's contents (coarse-granularity
    /// filesystems stamp whole write bursts with one mtime — without
    /// the key tie-break, which entry survives would depend on
    /// directory iteration order). Best-effort: unreadable metadata
    /// sorts oldest, racing removals are counted by whichever racer's
    /// `remove_file` succeeds, so `cache.evictions` counts each entry
    /// once.
    fn evict_to_capacity(&self) {
        let mut entries: Vec<(std::time::SystemTime, String, PathBuf)> = Vec::new();
        let Ok(shards) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for shard in shards.flatten() {
            let Ok(files) = std::fs::read_dir(shard.path()) else {
                continue;
            };
            let shard_name = shard.file_name().to_string_lossy().into_owned();
            for f in files.flatten() {
                let path = f.path();
                if path.extension().and_then(|e| e.to_str()) != Some(ENTRY_EXT) {
                    continue;
                }
                let mtime = f
                    .metadata()
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                // The entry's full hex key: shard prefix + stem.
                let key = match path.file_stem() {
                    Some(stem) => format!("{shard_name}{}", stem.to_string_lossy()),
                    None => continue,
                };
                entries.push((mtime, key, path));
            }
        }
        if entries.len() <= self.capacity {
            return;
        }
        entries.sort();
        let excess = entries.len() - self.capacity;
        for (_, _, path) in entries.into_iter().take(excess) {
            if std::fs::remove_file(path).is_ok() {
                obs::counter_add("cache.evictions", 1);
            }
        }
    }

    /// Number of entries currently on disk (test/diagnostic helper;
    /// walks the directory).
    pub fn entry_count(&self) -> usize {
        let Ok(shards) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        shards
            .flatten()
            .filter_map(|s| std::fs::read_dir(s.path()).ok())
            .flatten()
            .flatten()
            .filter(|f| f.path().extension().and_then(|e| e.to_str()) == Some(ENTRY_EXT))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codec::Artifact;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sfe-cache-test-{}-{tag}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _fresh = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_profile(seed: u64) -> Profile {
        Profile {
            block_counts: vec![vec![seed, seed * 2, 3], vec![]],
            branch_counts: vec![(seed, 1), (0, 0)],
            call_site_counts: vec![5, seed],
            func_counts: vec![1, seed],
            edge_counts: vec![vec![0, seed + 9], vec![3]],
            func_cost: vec![seed * 100, 7],
        }
    }

    fn opt(opt_level: u8, pipeline_version: u32) -> ArtifactKind {
        ArtifactKind::OptProfile {
            opt_level,
            pipeline_version,
        }
    }

    #[test]
    fn key_values_are_pinned() {
        // Entries already on disk are addressed by these exact values.
        let cfg = RunConfig::with_input("x");
        let src = "int main(void) { return 0; }";
        let hex = |k: ArtifactKey| format!("{:032x}", k.0);
        assert_eq!(
            hex(ArtifactKey::derive(ArtifactKind::Profile, src, &cfg)),
            "436fd2737df8862c7748dfa47dde5d2c"
        );
        assert_eq!(
            hex(ArtifactKey::derive(opt(3, 2), src, &cfg)),
            "270790e9da566d5dfdda6cba543e925d"
        );
        assert_eq!(
            hex(ArtifactKey::derive(ArtifactKind::ReuseProfile, src, &cfg)),
            "2061773d03794e7c2009e17fd705a37c"
        );
    }

    #[test]
    fn opt_profile_key_invalidates_on_level_and_pipeline_change() {
        let cache = Cache::open(temp_dir("optkey")).unwrap();
        let cfg = RunConfig::with_input("abc");
        let src = "int main(void){}";

        let k3 = ArtifactKey::derive(opt(3, 1), src, &cfg);
        let profile = sample_profile(7);
        cache.store(k3, &Artifact::OptProfile(profile.clone()));
        assert_eq!(cache.load::<Profile>(opt(3, 1), k3).unwrap(), profile);

        // A different opt level misses.
        let k2 = ArtifactKey::derive(opt(2, 1), src, &cfg);
        assert_ne!(k2, k3, "opt level participates in the key");
        assert_eq!(cache.load::<Profile>(opt(2, 1), k2), None);

        // A pass-pipeline version bump misses.
        let k3v2 = ArtifactKey::derive(opt(3, 2), src, &cfg);
        assert_ne!(k3v2, k3, "pipeline version participates in the key");
        assert_eq!(cache.load::<Profile>(opt(3, 2), k3v2), None);

        // The unoptimized profile kind never aliases the optimized one.
        let kp = ArtifactKey::derive(ArtifactKind::Profile, src, &cfg);
        assert_ne!(kp, k3);
        cache.store(kp, &Artifact::Profile(sample_profile(1)));
        assert_eq!(
            cache.load::<Profile>(opt(3, 1), kp),
            None,
            "kinds are disjoint"
        );
        assert!(
            cache.load::<Profile>(ArtifactKind::Profile, k3).is_none(),
            "kinds are disjoint"
        );
    }

    fn sample_trace(seed: u64) -> profiler::ReuseTrace {
        use profiler::reuse::{ReuseObject, BINS};
        let mut hist = [0u64; BINS];
        hist[0] = seed;
        hist[5] = seed * 3;
        hist[BINS - 1] = 2;
        profiler::ReuseTrace {
            objects: vec![
                ReuseObject {
                    name: "a".to_string(),
                    hist,
                },
                ReuseObject {
                    name: "<str/heap>".to_string(),
                    hist: [0; BINS],
                },
            ],
            events: seed * 3 + seed + 2,
        }
    }

    #[test]
    fn reuse_profile_key_invalidates_and_never_aliases_plain_profile() {
        let cache = Cache::open(temp_dir("reusekey")).unwrap();
        let cfg = RunConfig::with_input("abc");
        let src = "int main(void){}";

        let reuse = ArtifactKind::ReuseProfile;
        let kr = ArtifactKey::derive(reuse, src, &cfg);
        let trace = sample_trace(11);
        cache.store(kr, &Artifact::ReuseProfile(trace.clone()));
        assert_eq!(cache.load::<ReuseTrace>(reuse, kr).unwrap(), trace);

        // Source and input both participate in the key.
        assert_ne!(kr, ArtifactKey::derive(reuse, "int x;", &cfg));
        assert_ne!(
            kr,
            ArtifactKey::derive(reuse, src, &RunConfig::with_input("xyz"))
        );

        // A trace is never served where a plain profile was asked for,
        // nor a profile where a trace was asked for — even if the keys
        // were somehow forced to collide, the codec tags are disjoint.
        let kp = ArtifactKey::derive(ArtifactKind::Profile, src, &cfg);
        assert_ne!(kp, kr, "trace flag + kind tag separate the key spaces");
        cache.store(kp, &Artifact::Profile(sample_profile(4)));
        assert_eq!(
            cache.load::<ReuseTrace>(reuse, kp),
            None,
            "kinds are disjoint"
        );
        assert!(
            cache.load::<Profile>(ArtifactKind::Profile, kr).is_none(),
            "kinds are disjoint"
        );

        // The explicit same-key cross-kind check: a plain profile
        // stored *at the trace's own key* still refuses to decode as
        // a trace.
        cache.store(kr, &Artifact::Profile(sample_profile(9)));
        assert_eq!(
            cache.load::<ReuseTrace>(reuse, kr),
            None,
            "trace output never served from a plain-profile entry"
        );
        let _cleanup = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn round_trips_reuse_trace() {
        let dir = temp_dir("reusetrip");
        let cfg = RunConfig::default();
        let kr = ArtifactKey::derive(ArtifactKind::ReuseProfile, "int a[4];", &cfg);
        let trace = sample_trace(99);
        {
            let cache = Cache::open(&dir).unwrap();
            cache.store(kr, &Artifact::ReuseProfile(trace.clone()));
        }
        // A fresh handle reads it back from disk byte-identically.
        let cache = Cache::open(&dir).unwrap();
        assert_eq!(
            cache.load::<ReuseTrace>(ArtifactKind::ReuseProfile, kr),
            Some(trace)
        );
        let _cleanup = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn round_trips_profile_and_opt_profile() {
        let cache = Cache::open(temp_dir("roundtrip")).unwrap();
        let cfg = RunConfig::with_input("abc");
        let kp = ArtifactKey::derive(ArtifactKind::Profile, "int main(void){}", &cfg);
        let ko = ArtifactKey::derive(opt(3, 1), "int main(void){}", &cfg);
        assert_ne!(kp, ko, "kind participates in the key");

        let profile = sample_profile(42);
        cache.store(kp, &Artifact::Profile(profile.clone()));
        assert_eq!(
            cache.load::<Profile>(ArtifactKind::Profile, kp).unwrap(),
            profile
        );

        let optimized = sample_profile(7);
        cache.store(ko, &Artifact::OptProfile(optimized.clone()));
        assert_eq!(cache.load::<Profile>(opt(3, 1), ko), Some(optimized));
        assert_eq!(cache.entry_count(), 2);
        let _cleanup = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn keys_separate_every_ingredient() {
        let cfg = RunConfig::with_input("in");
        let base = ArtifactKey::derive(ArtifactKind::Profile, "src", &cfg);
        assert_eq!(
            base,
            ArtifactKey::derive(ArtifactKind::Profile, "src", &cfg)
        );

        assert_ne!(
            base,
            ArtifactKey::derive(ArtifactKind::Profile, "src2", &cfg),
            "source changes the key"
        );
        assert_ne!(
            base,
            ArtifactKey::derive(ArtifactKind::Profile, "src", &RunConfig::with_input("in2")),
            "input changes the key"
        );
        let limits = RunConfig {
            max_steps: 1,
            ..RunConfig::with_input("in")
        };
        assert_ne!(
            base,
            ArtifactKey::derive(ArtifactKind::Profile, "src", &limits),
            "run limits change the key"
        );
        // Length-prefixing: moving a byte across the source/input
        // boundary must not collide.
        assert_ne!(
            ArtifactKey::derive(ArtifactKind::Profile, "ab", &RunConfig::with_input("c")),
            ArtifactKey::derive(ArtifactKind::Profile, "a", &RunConfig::with_input("bc")),
        );
    }

    #[test]
    fn missing_entry_is_a_miss() {
        let cache = Cache::open(temp_dir("miss")).unwrap();
        let key = ArtifactKey::derive(ArtifactKind::Profile, "nothing here", &RunConfig::default());
        assert!(cache.load::<Profile>(ArtifactKind::Profile, key).is_none());
        let _cleanup = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn eviction_trims_oldest_to_capacity() {
        let dir = temp_dir("evict");
        let cache = Cache::with_capacity(&dir, 4).unwrap();
        let profile = sample_profile(1);
        let mut keys = Vec::new();
        for i in 0..8u64 {
            let cfg = RunConfig::with_input(i.to_le_bytes().to_vec());
            let key = ArtifactKey::derive(ArtifactKind::Profile, "src", &cfg);
            cache.store(key, &Artifact::Profile(profile.clone()));
            keys.push(key);
        }
        assert_eq!(cache.entry_count(), 8, "scan interval not reached yet");
        // Reopening runs a scan immediately.
        drop(cache);
        let cache = Cache::with_capacity(&dir, 4).unwrap();
        assert_eq!(cache.entry_count(), 4);
        let _cleanup = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn concurrent_stores_of_same_key_are_benign() {
        let cache = Cache::open(temp_dir("concurrent")).unwrap();
        let key = ArtifactKey::derive(ArtifactKind::Profile, "x", &RunConfig::default());
        let profile = sample_profile(9);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..20 {
                        cache.store(key, &Artifact::Profile(profile.clone()));
                        if let Some(p) = cache.load::<Profile>(ArtifactKind::Profile, key) {
                            assert_eq!(p, profile);
                        }
                    }
                });
            }
        });
        assert_eq!(
            cache.load::<Profile>(ArtifactKind::Profile, key).unwrap(),
            profile
        );
        let _cleanup = std::fs::remove_dir_all(cache.dir());
    }
}
