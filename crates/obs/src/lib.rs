//! # obs — in-tree pipeline telemetry
//!
//! The paper's whole argument is a comparison *between pipeline
//! stages* (compile → lower → solve → profile → estimate →
//! weight-match), so the reproduction needs to see where a suite run
//! spends its time and why a solve fell back to damping. This crate is
//! the lightweight substrate: RAII span timers, monotonic counters,
//! gauges, and one process-wide thread-safe registry that aggregates
//! across the parallel `load_suite` threads. Everything is vendored —
//! no network, no external dependencies. The artifact cache, the
//! service and the profiler all depend on it, so it also holds the
//! workspace's content hash, [`hash::Fnv128`], and the word-at-a-time
//! [`hash::WordHash`] behind the VM's in-process IR fingerprint.
//!
//! ## Design
//!
//! - **Disabled by default, one load on the off path.** Every probe
//!   starts with a single `Relaxed` atomic load ([`enabled`]); while
//!   telemetry is off, a [`span`] constructs no `Instant`, takes no
//!   lock, and allocates nothing, so instrumented hot paths (the
//!   profiler VM's `run`, the flow solver) stay within the <2%
//!   overhead budget enforced by the bench crate's `perf_floors` test.
//!   The VM dispatch loop itself is *never* probed per instruction —
//!   the profiler records per-run aggregates after execution.
//! - **Spans aggregate by path.** Each thread keeps a stack of active
//!   span names; when a guard drops, its duration is added to the
//!   registry entry for the `/`-joined path (`bench.load_suite/
//!   minic.compile`). Identical shapes from the fourteen suite tasks
//!   merge into one row with a count, and a pool task runs under the
//!   path of the `map` that queued it ([`run_under`]): one trace tree.
//! - **Sharded hot path.** Counters and spans record into a
//!   *per-thread* shard (uncontended lock), and [`snapshot`] merges
//!   every shard on demand. The corpus engine pushes tens of
//!   thousands of tiny probes per second through many pool workers;
//!   with a single global `Mutex` those probes serialize, with shards
//!   they scale. A shard outlives its thread (the registry holds it
//!   strongly), so work done on pool workers that have since gone
//!   idle is never lost. Gauges are high-water marks
//!   ([`gauge_max`]) and keep the global registry.
//! - **Schema-stable JSON.** [`Metrics::to_json`] emits one object
//!   with sorted keys (`schema`, then `counters`/`gauges`/`spans`
//!   maps, which are `BTreeMap`s); [`Metrics::from_json`] reads it
//!   back, so metrics files round-trip byte-for-byte.
//!
//! ```
//! obs::reset();
//! obs::set_enabled(true);
//! {
//!     let _outer = obs::span("load");
//!     let _inner = obs::span("parse");
//!     obs::counter_add("programs", 1);
//! }
//! obs::set_enabled(false);
//! let m = obs::snapshot();
//! assert_eq!(m.counters["programs"], 1);
//! assert!(m.spans.contains_key("load/parse"));
//! let round = obs::Metrics::from_json(&m.to_json()).unwrap();
//! assert_eq!(round.to_json(), m.to_json());
//! ```

#![warn(missing_docs)]

pub mod hash;
pub mod json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Global on/off switch. `Relaxed` is sufficient: probes only need an
/// eventually-consistent view, and the flip happens before any
/// measured region starts (CLI flag parsing, bench setup).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is currently collected. This is the *only* cost
/// an instrumented call site pays while disabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off. Flip before the measured work starts;
/// guards created while enabled still record on drop.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStat {
    /// How many guards completed on this path.
    pub count: u64,
    /// Total nanoseconds across those guards.
    pub total_ns: u64,
}

/// One thread's slice of the counter/span state. The owning thread
/// takes the (uncontended) lock on every probe; [`snapshot`] and
/// [`reset`] briefly lock each shard to merge or clear it.
#[derive(Default)]
struct Shard {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<&'static str, u64>,
}

#[derive(Default)]
struct Registry {
    /// Every shard ever created, held strongly so a thread's data
    /// survives the thread. Bounded by the number of threads the
    /// process creates (pool workers are long-lived).
    shards: Vec<Arc<Mutex<Shard>>>,
    gauges: BTreeMap<&'static str, f64>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = match registry().lock() {
        Ok(g) => g,
        // A panic while holding the lock cannot corrupt the maps
        // (every critical section is a plain insert); keep collecting.
        Err(poisoned) => poisoned.into_inner(),
    };
    f(&mut guard)
}

fn lock_shard(shard: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    match shard.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Runs `f` on the calling thread's shard, registering the shard on
/// first use.
fn with_shard<R>(f: impl FnOnce(&mut Shard) -> R) -> R {
    THREAD_SHARD.with(|cell| {
        let shard = cell.get_or_init(|| {
            let shard = Arc::new(Mutex::new(Shard::default()));
            with_registry(|r| r.shards.push(Arc::clone(&shard)));
            shard
        });
        f(&mut lock_shard(shard))
    })
}

thread_local! {
    /// The active span names on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// This thread's registered shard (lazily created).
    static THREAD_SHARD: std::cell::OnceCell<Arc<Mutex<Shard>>> =
        const { std::cell::OnceCell::new() };
}

/// An RAII span timer created by [`span`]. While telemetry is
/// disabled this is inert — no clock read, no allocation, no lock.
#[must_use = "a span measures the scope it is bound to; bind it to a named local"]
pub struct Span {
    /// `None` when telemetry was disabled at construction time.
    armed: Option<Instant>,
}

/// Opens a span named `name` nested under this thread's innermost
/// active span. The returned guard records `(path, elapsed)` into the
/// global registry when dropped.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { armed: None };
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    Span {
        armed: Some(Instant::now()),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.armed else { return };
        let elapsed = start.elapsed();
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        // Recording stays active even if collection was switched off
        // mid-span, so every push has a matching aggregate.
        with_shard(|s| {
            let stat = s.spans.entry(path).or_default();
            stat.count += 1;
            stat.total_ns += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        });
    }
}

/// A thread's active span path, captured by [`capture_path`] so that
/// work on any thread can record under it with [`run_under`].
#[derive(Clone, Debug)]
pub struct SpanPath(Arc<[&'static str]>);

/// The calling thread's active span path, or `None` while telemetry
/// is off.
pub fn capture_path() -> Option<SpanPath> {
    enabled().then(|| SpanPath(SPAN_STACK.with(|s| s.borrow().as_slice().into())))
}

/// Runs `f` with `path`, if given, as this thread's span stack, so the
/// spans `f` opens record under it; the thread's own stack comes back
/// however `f` ends.
pub fn run_under<R>(path: Option<&SpanPath>, f: impl FnOnce() -> R) -> R {
    let Some(path) = path else { return f() };
    struct Restore(Vec<&'static str>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SPAN_STACK.with(|s| *s.borrow_mut() = std::mem::take(&mut self.0));
        }
    }
    let _own = Restore(SPAN_STACK.with(|s| s.replace(path.0.to_vec())));
    f()
}

/// Adds `delta` to the monotonic counter `name` (no-op while
/// disabled).
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_shard(|s| *s.counters.entry(name).or_insert(0) += delta);
}

/// Sets gauge `name` to the maximum of its current value and `value`
/// (no-op while disabled).
#[inline]
pub fn gauge_max(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_registry(|r| {
        let g = r.gauges.entry(name).or_insert(f64::NEG_INFINITY);
        if value > *g {
            *g = value;
        }
    });
}

/// Clears every span, counter, and gauge (collection state is
/// unchanged). Tests and benches call this between scenarios.
pub fn reset() {
    let shards = with_registry(|r| {
        r.gauges.clear();
        r.shards.clone()
    });
    for shard in shards {
        let mut s = lock_shard(&shard);
        s.spans.clear();
        s.counters.clear();
    }
}

/// An immutable snapshot of the registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Aggregated spans keyed by `/`-joined path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// High-water gauges ([`gauge_max`]).
    pub gauges: BTreeMap<String, f64>,
}

/// Snapshots the registry, merging every thread's shard (spans
/// currently on some thread's stack are not yet included — they
/// record on drop).
pub fn snapshot() -> Metrics {
    let (shards, gauges) = with_registry(|r| {
        (
            r.shards.clone(),
            r.gauges
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect::<BTreeMap<String, f64>>(),
        )
    });
    let mut spans: BTreeMap<String, SpanStat> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for shard in shards {
        let s = lock_shard(&shard);
        for (path, stat) in &s.spans {
            let agg = spans.entry(path.clone()).or_default();
            agg.count += stat.count;
            agg.total_ns += stat.total_ns;
        }
        for (name, v) in &s.counters {
            *counters.entry(name.to_string()).or_insert(0) += v;
        }
    }
    Metrics {
        spans,
        counters,
        gauges,
    }
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where that interface is absent.
/// The corpus engine reports this against its documented memory
/// budget.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Current resident set size of this process in bytes (`VmRSS` from
/// `/proc/self/status`), or `None` where that interface is absent.
/// Unlike [`peak_rss_bytes`] this is not monotonic, which is what the
/// serve soak test needs: sampling it over a long-lived session
/// distinguishes steady-state churn from genuine retention growth.
pub fn current_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Resets the peak-RSS high-water mark (`echo 5 > /proc/self/clear_refs`)
/// so back-to-back measurement regions in one process don't inherit
/// each other's peaks. Returns whether the kernel accepted the reset;
/// when it didn't, [`peak_rss_bytes`] still reports the process-wide
/// peak (an upper bound for any later region).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The schema tag emitted by [`Metrics::to_json`]; bump when the
/// layout changes so downstream readers can reject unknown shapes.
pub const METRICS_SCHEMA: &str = "obs-metrics/v1";

impl Metrics {
    /// Serializes to schema-stable JSON: a single object with sorted
    /// keys — `{"counters": {...}, "gauges": {...}, "schema": "...",
    /// "spans": {path: {"count": n, "total_ns": n}}}` — identical
    /// content always produces identical bytes.
    pub fn to_json(&self) -> String {
        use json::Value;
        let mut root = BTreeMap::new();
        root.insert("schema".into(), Value::Str(METRICS_SCHEMA.into()));
        root.insert(
            "counters".into(),
            Value::Obj(
                self.counters
                    .iter()
                    .map(|(k, &v)| (k.clone(), Value::Num(v as f64)))
                    .collect(),
            ),
        );
        root.insert(
            "gauges".into(),
            Value::Obj(
                self.gauges
                    .iter()
                    .map(|(k, &v)| (k.clone(), Value::Num(v)))
                    .collect(),
            ),
        );
        root.insert(
            "spans".into(),
            Value::Obj(
                self.spans
                    .iter()
                    .map(|(k, s)| {
                        let mut o = BTreeMap::new();
                        o.insert("count".into(), Value::Num(s.count as f64));
                        o.insert("total_ns".into(), Value::Num(s.total_ns as f64));
                        (k.clone(), Value::Obj(o))
                    })
                    .collect(),
            ),
        );
        let mut out = Value::Obj(root).to_string();
        out.push('\n');
        out
    }

    /// Parses JSON produced by [`Metrics::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message if the document is malformed or carries an
    /// unknown schema tag.
    pub fn from_json(src: &str) -> Result<Metrics, String> {
        let v = json::parse(src).map_err(|e| e.to_string())?;
        match v.get("schema").and_then(json::Value::as_str) {
            Some(METRICS_SCHEMA) => {}
            other => return Err(format!("unknown metrics schema: {other:?}")),
        }
        let num_map = |key: &str| -> Result<Vec<(String, f64)>, String> {
            let obj = v
                .get(key)
                .and_then(json::Value::as_obj)
                .ok_or_else(|| format!("missing `{key}` object"))?;
            obj.iter()
                .map(|(k, val)| {
                    val.as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("`{key}.{k}` is not a number"))
                })
                .collect()
        };
        let counters = num_map("counters")?
            .into_iter()
            .map(|(k, n)| (k, n as u64))
            .collect();
        let gauges = num_map("gauges")?.into_iter().collect();
        let spans_obj = v
            .get("spans")
            .and_then(json::Value::as_obj)
            .ok_or("missing `spans` object")?;
        let mut spans = BTreeMap::new();
        for (path, stat) in spans_obj {
            let field = |name: &str| -> Result<u64, String> {
                stat.get(name)
                    .and_then(json::Value::as_f64)
                    .map(|n| n as u64)
                    .ok_or_else(|| format!("span `{path}` missing `{name}`"))
            };
            spans.insert(
                path.clone(),
                SpanStat {
                    count: field("count")?,
                    total_ns: field("total_ns")?,
                },
            );
        }
        Ok(Metrics {
            spans,
            counters,
            gauges,
        })
    }

    /// Renders the aggregated spans as an indented tree plus the
    /// counter/gauge tables — the `--trace` output. Sibling order is
    /// lexicographic (the `BTreeMap` order), so output is stable.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        out.push_str("── spans ──\n");
        for (path, stat) in &self.spans {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let _ = writeln!(
                out,
                "{:indent$}{name:<28} {:>10.3} ms  ×{}",
                "",
                stat.total_ns as f64 / 1e6,
                stat.count,
                indent = depth * 2,
            );
        }
        if !self.counters.is_empty() {
            out.push_str("── counters ──\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{name:<38} {v}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("── gauges ──\n");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "{name:<38} {v}");
            }
        }
        out
    }

    /// The direct children of `path` (one `/` segment deeper).
    pub fn children_of<'a>(
        &'a self,
        path: &'a str,
    ) -> impl Iterator<Item = (&'a String, &'a SpanStat)> {
        let depth = path.matches('/').count() + 1;
        self.spans.iter().filter(move |(p, _)| {
            p.starts_with(path)
                && p.as_bytes().get(path.len()) == Some(&b'/')
                && p.matches('/').count() == depth
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All registry-touching tests share one lock so parallel `cargo
    /// test` threads don't interleave resets.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _guard = serial();
        reset();
        set_enabled(false);
        {
            let _s = span("ghost");
            counter_add("ghost", 5);
            gauge_max("ghost", 1.0);
        }
        let m = snapshot();
        assert!(m.spans.is_empty());
        assert!(m.counters.is_empty());
        assert!(m.gauges.is_empty());
    }

    #[test]
    fn spans_nest_and_aggregate_by_path() {
        let _guard = serial();
        reset();
        set_enabled(true);
        for _ in 0..3 {
            let _outer = span("outer");
            let _inner = span("inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_enabled(false);
        let m = snapshot();
        assert_eq!(m.spans["outer"].count, 3);
        assert_eq!(m.spans["outer/inner"].count, 3);
        // The child is fully contained in the parent.
        assert!(m.spans["outer/inner"].total_ns <= m.spans["outer"].total_ns);
        let children: Vec<_> = m.children_of("outer").map(|(p, _)| p.clone()).collect();
        assert_eq!(children, ["outer/inner"]);
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let _guard = serial();
        reset();
        set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _sp = span("worker");
                    counter_add("work.items", 10);
                });
            }
        });
        set_enabled(false);
        let m = snapshot();
        assert_eq!(m.counters["work.items"], 40);
        assert_eq!(m.spans["worker"].count, 4);
    }

    #[test]
    fn shard_data_survives_its_thread() {
        let _guard = serial();
        reset();
        set_enabled(true);
        std::thread::spawn(|| {
            let _sp = span("ephemeral");
            counter_add("ephemeral.items", 3);
        })
        .join()
        .unwrap();
        set_enabled(false);
        let m = snapshot();
        assert_eq!(m.counters["ephemeral.items"], 3);
        assert_eq!(m.spans["ephemeral"].count, 1);
    }

    #[test]
    fn a_captured_path_carries_to_another_thread() {
        let _guard = serial();
        reset();
        set_enabled(true);
        {
            let _outer = span("outer");
            let path = capture_path();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _own = span("own");
                    run_under(path.as_ref(), || {
                        let _sp = span("task");
                    });
                    // The thread's own stack is back after the run.
                    let _after = span("after");
                });
            });
        }
        set_enabled(false);
        let m = snapshot();
        let paths: Vec<&str> = m.spans.keys().map(String::as_str).collect();
        assert_eq!(paths, ["outer", "outer/task", "own", "own/after"]);
    }

    #[test]
    fn peak_rss_is_plausible_on_linux() {
        if let Some(rss) = peak_rss_bytes() {
            // Any live Rust process has megabytes resident; the probe
            // must not misparse units.
            assert!(rss > 1 << 20, "peak RSS {rss} implausibly small");
        } else if cfg!(target_os = "linux") {
            panic!("VmHWM must parse on Linux");
        }
    }

    #[test]
    fn gauges_keep_the_max() {
        let _guard = serial();
        reset();
        set_enabled(true);
        gauge_max("peak", 1.0);
        gauge_max("peak", 0.125);
        set_enabled(false);
        let m = snapshot();
        assert_eq!(m.gauges["peak"], 1.0);
    }

    #[test]
    fn json_round_trips_and_is_stable() {
        let mut m = Metrics::default();
        m.spans.insert(
            "a/b".into(),
            SpanStat {
                count: 2,
                total_ns: 1500,
            },
        );
        m.counters.insert("steps".into(), 7);
        m.gauges.insert("residual".into(), 0.125);
        let j1 = m.to_json();
        let back = Metrics::from_json(&j1).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.to_json(), j1, "serialization is deterministic");
        assert!(j1.contains("\"schema\":\"obs-metrics/v1\""));
    }

    #[test]
    fn from_json_rejects_unknown_schema() {
        assert!(Metrics::from_json("{\"schema\":\"other/v9\"}").is_err());
        assert!(Metrics::from_json("not json").is_err());
    }

    #[test]
    fn render_trace_indents_children() {
        let mut m = Metrics::default();
        m.spans.insert(
            "load".into(),
            SpanStat {
                count: 1,
                total_ns: 2_000_000,
            },
        );
        m.spans.insert(
            "load/parse".into(),
            SpanStat {
                count: 14,
                total_ns: 1_000_000,
            },
        );
        m.counters.insert("steps".into(), 5);
        let t = m.render_trace();
        assert!(t.contains("load"), "{t}");
        assert!(t.contains("  parse"), "{t}");
        assert!(t.contains("×14"), "{t}");
        assert!(t.contains("steps"), "{t}");
    }
}
