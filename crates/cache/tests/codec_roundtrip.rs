//! Property tests for the cache codec and the store's recovery
//! behavior: random profiles round-trip exactly, every corruption of
//! an on-disk entry degrades to a clean miss (with the `cache.corrupt`
//! counter bumped), and keys change whenever any ingredient does.

use cache::codec::{decode_entry, encode_entry, Artifact};
use cache::{ArtifactKey, ArtifactKind, Cache};
use profiler::{Profile, RunConfig};
use proptest::{proptest, ProptestConfig, Strategy, TestRng};
use std::path::PathBuf;

/// Generates structurally arbitrary profiles: ragged block and edge
/// tables and arbitrary counts (including the u64 extremes).
struct ProfileGen;

fn big(rng: &mut TestRng) -> u64 {
    // Mix small counts with extreme magnitudes so the codec sees
    // every byte pattern, not just low-entropy integers.
    match rng.below(4) {
        0 => rng.below(10) as u64,
        1 => rng.below(1 << 16) as u64,
        2 => u64::MAX - rng.below(1000) as u64,
        _ => (rng.below(1 << 30) as u64) << rng.below(34),
    }
}

impl Strategy for ProfileGen {
    type Value = Profile;

    fn generate(&self, rng: &mut TestRng) -> Profile {
        let n_funcs = rng.below(6);
        let rows = |rng: &mut TestRng| -> Vec<Vec<u64>> {
            (0..n_funcs)
                .map(|_| (0..rng.below(8)).map(|_| big(rng)).collect())
                .collect()
        };
        Profile {
            block_counts: rows(rng),
            branch_counts: (0..rng.below(8)).map(|_| (big(rng), big(rng))).collect(),
            call_site_counts: (0..rng.below(8)).map(|_| big(rng)).collect(),
            func_counts: (0..n_funcs).map(|_| big(rng)).collect(),
            edge_counts: rows(rng),
            func_cost: (0..n_funcs).map(|_| big(rng)).collect(),
        }
    }
}

/// Serializes the tests that go through a [`Cache`]: its hit, miss
/// and corruption counters live in the process-wide `obs` registry, so
/// a test asserting exact counts must not overlap a sibling's loads.
fn cache_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sfe-cache-it-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _fresh = std::fs::remove_dir_all(&dir);
    dir
}

/// The single entry file in a store holding exactly one artifact.
fn sole_entry_file(cache: &Cache) -> PathBuf {
    let mut found = Vec::new();
    for shard in std::fs::read_dir(cache.dir()).unwrap().flatten() {
        if !shard.path().is_dir() {
            continue;
        }
        for f in std::fs::read_dir(shard.path()).unwrap().flatten() {
            if f.path().extension().and_then(|e| e.to_str()) == Some("sfea") {
                found.push(f.path());
            }
        }
    }
    assert_eq!(found.len(), 1, "expected exactly one entry: {found:?}");
    found.pop().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn profile_round_trips_exactly(profile in ProfileGen) {
        let entry = encode_entry(&Artifact::Profile(profile.clone()));
        match decode_entry(&entry) {
            Some(Artifact::Profile(back)) => assert_eq!(back, profile),
            other => panic!("decode failed: {other:?}"),
        }
        // Encoding is canonical: re-encoding the decoded value is
        // byte-identical despite HashMap iteration order.
        let Some(back) = decode_entry(&entry) else {
            panic!("second decode failed")
        };
        assert_eq!(encode_entry(&back), entry);
    }

    #[test]
    fn every_single_byte_flip_is_rejected_or_equal(profile in ProfileGen) {
        // Flipping any one byte must either fail validation (the
        // overwhelmingly common case) or — never — decode to a
        // different value. The checksum makes "decodes differently"
        // impossible, which is exactly what this asserts.
        let entry = encode_entry(&Artifact::Profile(profile.clone()));
        // Probe a spread of positions rather than all (entries can be
        // kilobytes): every header byte plus every 7th payload byte.
        let positions = (0..24).chain((24..entry.len()).step_by(7));
        for pos in positions {
            let mut bad = entry.clone();
            bad[pos] ^= 0x20;
            if let Some(Artifact::Profile(back)) = decode_entry(&bad) {
                assert_eq!(back, profile, "byte {pos} silently changed the value");
            }
        }
    }
}

#[test]
fn corrupt_entry_on_disk_recovers_by_recompute_path() {
    let _serial = cache_test_lock();
    let cache = Cache::open(temp_dir("corrupt")).unwrap();
    let cfg = RunConfig::with_input("x");
    let key = ArtifactKey::derive(ArtifactKind::Profile, "int main(void){}", &cfg);
    let profile = Profile {
        func_counts: vec![1, 2, 3],
        ..Profile::default()
    };
    cache.store(key, &Artifact::Profile(profile.clone()));
    let path = sole_entry_file(&cache);

    obs::reset();
    obs::set_enabled(true);

    // Flip one payload byte: load must miss, count the corruption,
    // and remove the poisoned file so a re-store heals the entry.
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(
        cache.load::<Profile>(ArtifactKind::Profile, key),
        None,
        "corrupt entry must miss"
    );
    assert!(!path.exists(), "poisoned entry should be dropped");

    // The recompute path: store again, and the hit comes back.
    cache.store(key, &Artifact::Profile(profile.clone()));
    assert_eq!(
        cache.load::<Profile>(ArtifactKind::Profile, key),
        Some(profile.clone())
    );

    // Truncation is just another corruption.
    std::fs::write(&path, &std::fs::read(&path).unwrap()[..10]).unwrap();
    assert_eq!(
        cache.load::<Profile>(ArtifactKind::Profile, key),
        None,
        "truncated entry must miss"
    );

    obs::set_enabled(false);
    let m = obs::snapshot();
    obs::reset();
    assert_eq!(m.counters.get("cache.corrupt").copied(), Some(2));
    assert_eq!(m.counters.get("cache.hits").copied(), Some(1));
    let _cleanup = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn version_skew_invalidates_without_error() {
    let _serial = cache_test_lock();
    let cache = Cache::open(temp_dir("version")).unwrap();
    let key = ArtifactKey::derive(ArtifactKind::Profile, "src", &RunConfig::default());
    cache.store(key, &Artifact::Profile(Profile::default()));
    let path = sole_entry_file(&cache);

    // Rewrite the entry's format-version field (bytes 4..8): a future
    // (or past) format must read as a miss, not an error or a
    // misparse.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4..8].copy_from_slice(&(cache::FORMAT_VERSION + 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(cache.load::<Profile>(ArtifactKind::Profile, key), None);
    let _cleanup = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn retired_bytecode_meta_entries_read_as_a_miss() {
    // Tag 2 once held four `u64`s of bytecode summary statistics. A
    // well-framed entry of that shape left in an old cache directory
    // must read as a clean miss, never a panic or a misparse.
    let _serial = cache_test_lock();
    let cache = Cache::open(temp_dir("meta")).unwrap();
    let key = ArtifactKey::derive(ArtifactKind::Profile, "src", &RunConfig::default());
    cache.store(key, &Artifact::Profile(Profile::default()));
    let path = sole_entry_file(&cache);

    let mut payload = vec![2u8];
    for word in [10u64, 2, 5, 64] {
        payload.extend_from_slice(&word.to_le_bytes());
    }
    let mut entry = b"SFEA".to_vec();
    entry.extend_from_slice(&cache::FORMAT_VERSION.to_le_bytes());
    entry.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    entry.extend_from_slice(&obs::hash::fnv64(&payload).to_le_bytes());
    entry.extend_from_slice(&payload);
    assert_eq!(decode_entry(&entry), None);
    std::fs::write(&path, &entry).unwrap();
    assert_eq!(cache.load::<Profile>(ArtifactKind::Profile, key), None);
    let _cleanup = std::fs::remove_dir_all(cache.dir());
}
