//! Eviction determinism and concurrency coverage: mtime ties broken
//! by key (pinned against coarse-granularity filesystems), many
//! writers racing an eviction scan without corruption, and exact
//! `cache.evictions` accounting.

use cache::{codec::Artifact, ArtifactKey, ArtifactKind, Cache};
use profiler::{Profile, RunConfig};
use std::fs::FileTimes;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::SystemTime;

/// Registry-touching tests share one lock: obs counters are
/// process-global.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfe-cache-itest-{}-{tag}", std::process::id()));
    let _fresh = std::fs::remove_dir_all(&dir);
    dir
}

fn sample_profile(seed: u64) -> Profile {
    Profile {
        block_counts: vec![vec![seed, 2 * seed + 1]],
        branch_counts: vec![(seed, 1)],
        call_site_counts: vec![seed],
        func_counts: vec![1],
        edge_counts: vec![vec![seed]],
        func_cost: vec![seed],
    }
}

fn key_for(i: u64) -> ArtifactKey {
    let cfg = RunConfig::with_input(i.to_le_bytes().to_vec());
    ArtifactKey::derive(ArtifactKind::Profile, "tie", &cfg)
}

fn entry_file(dir: &std::path::Path, key: ArtifactKey) -> PathBuf {
    let hex = format!("{:032x}", key.0);
    dir.join(&hex[..2]).join(format!("{}.sfea", &hex[2..]))
}

#[test]
fn mtime_ties_evict_in_key_order() {
    let _guard = serial();
    let dir = temp_dir("tiebreak");
    let profile = sample_profile(3);
    let keys: Vec<ArtifactKey> = {
        let cache = Cache::open(&dir).unwrap();
        (0..8)
            .map(|i| {
                let key = key_for(i);
                cache.store(key, &Artifact::Profile(profile.clone()));
                key
            })
            .collect()
    };

    // Force the pathological coarse-mtime case: every entry stamped
    // with one identical mtime, so ordering is decided purely by the
    // tie-break.
    let stamp = SystemTime::now();
    for &key in &keys {
        let f = std::fs::File::options()
            .append(true)
            .open(entry_file(&dir, key))
            .unwrap();
        f.set_times(FileTimes::new().set_modified(stamp)).unwrap();
    }

    // Reopening at capacity 4 scans and evicts; with all mtimes
    // equal, exactly the 4 lexicographically-smallest keys must go.
    let cache = Cache::with_capacity(&dir, 4).unwrap();
    let mut by_hex: Vec<(String, ArtifactKey)> =
        keys.iter().map(|&k| (format!("{:032x}", k.0), k)).collect();
    by_hex.sort();
    for (rank, (hex, key)) in by_hex.iter().enumerate() {
        let survived = cache.load::<Profile>(ArtifactKind::Profile, *key).is_some();
        assert_eq!(
            survived,
            rank >= 4,
            "key {hex} (rank {rank}) must {} a same-mtime eviction",
            if rank >= 4 { "survive" } else { "lose" },
        );
    }
    let _cleanup = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_racing_eviction_stay_consistent() {
    let _guard = serial();
    let dir = temp_dir("race");
    let writers = 4u64;
    let per_writer = 50u64;
    let capacity = 20usize;
    let profile = sample_profile(7);

    obs::reset();
    obs::set_enabled(true);
    let cache = Cache::open(&dir).unwrap();
    std::thread::scope(|s| {
        for w in 0..writers {
            let (cache, profile) = (&cache, &profile);
            s.spawn(move || {
                for i in 0..per_writer {
                    cache.store(
                        key_for(w * per_writer + i),
                        &Artifact::Profile(profile.clone()),
                    );
                }
            });
        }
        // The evictor: repeated open-time scans at low capacity while
        // the writers are mid-burst.
        s.spawn(|| {
            for _ in 0..15 {
                let _scan = Cache::with_capacity(&dir, capacity).unwrap();
                std::thread::yield_now();
            }
        });
    });
    // One final scan with all writers quiesced.
    drop(Cache::with_capacity(&dir, capacity).unwrap());
    obs::set_enabled(false);
    let m = obs::snapshot();
    obs::reset();

    let total = writers * per_writer;
    assert_eq!(m.counters.get("cache.writes").copied().unwrap_or(0), total);
    assert_eq!(
        cache.entry_count(),
        capacity,
        "final scan trims to capacity"
    );
    // Every eviction counted exactly once: removals = writes - survivors.
    assert_eq!(
        m.counters.get("cache.evictions").copied().unwrap_or(0),
        total - capacity as u64,
        "evictions double- or under-counted"
    );
    // No entry was evicted mid-write: every surviving key decodes
    // cleanly (a torn entry would count as corrupt).
    let mut survivors = 0;
    for i in 0..total {
        if let Some(p) = cache.load::<Profile>(ArtifactKind::Profile, key_for(i)) {
            assert_eq!(p, profile);
            survivors += 1;
        }
    }
    assert_eq!(survivors, capacity);
    let m = obs::snapshot();
    assert_eq!(
        m.counters.get("cache.corrupt").copied().unwrap_or(0),
        0,
        "an entry was observed mid-write"
    );
    let _cleanup = std::fs::remove_dir_all(&dir);
}
