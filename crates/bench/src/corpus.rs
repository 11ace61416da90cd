//! # Corpus-scale evaluation
//!
//! Evaluates the paper's weight-matching heuristics over thousands of
//! generated programs instead of the 14-program suite, stratified by
//! the structural features the estimators are sensitive to
//! ([`fuzzgen::corpus`]), at full hardware throughput and bounded
//! memory.
//!
//! ## Engine shape
//!
//! The seed range runs in fixed chunks of 1,024 seeds, one
//! [`pool::Pool::map`] per chunk. Each seed is one pool task that runs
//! the whole per-program pipeline — generate → render → parse → CFG →
//! bytecode → profile → estimate → score — and returns a small (~150
//! byte) record; the calling thread helps run tasks while the map
//! waits. A chunk's records come back and fold **in seed order**, so
//! duplicate detection and aggregation see one canonical order and the
//! aggregate distributions are byte-identical at any `--jobs` (the
//! pool's determinism contract).
//!
//! ## Memory
//!
//! At most one program per pool thread (`--jobs`, the caller counted)
//! is in flight, and each task keeps only its fold record:
//! scores land in fixed 2048-bin histograms (exact to 1/2048, which is
//! far below the scores' own noise), a profile is dropped as soon as it
//! is scored, and the profiler recycles its VM buffers per thread.
//! What grows with the program count is the fold itself: the dedup set
//! of 128-bit fingerprints and the per-program latency list, about 60
//! bytes per program (peak RSS of `sfe corpus --seed 7000000` on a
//! 2-core x86-64 VM: 7.7 MiB at 1,000 programs, 8.8 MiB at 20,000).
//! `tests/perf_floors.rs` bounds peak RSS over 1,000 programs.

use estimators::eval::{score_estimates, EstimateScores};
pub use fuzzgen::corpus::parse_buckets;
use fuzzgen::corpus::{bucket_indices, bucket_labels, Feature, StructuralFeatures};
use obs::hash::Fnv128;
use profiler::RunConfig;
use std::collections::HashSet;
use std::hash::Hasher;
use std::time::Instant;

/// The ten headline heuristic columns aggregated per bucket: the
/// three intra-procedural estimators at the paper's 5% cutoff, the
/// five invocation estimators at 25%, and the two call-site rankers
/// at 25%. (All inter-procedural estimates build on *smart* intra
/// estimates, as in the paper.)
pub const HEURISTICS: [&str; 10] = [
    "intra_loop",
    "intra_smart",
    "intra_markov",
    "inv_callsite",
    "inv_direct",
    "inv_allrec",
    "inv_allrec2",
    "inv_markov",
    "cs_direct",
    "cs_markov",
];

/// Histogram resolution for score distributions (scores live in
/// `[0, 1]`; quantiles are exact to `1 / BINS`).
pub const BINS: usize = 2048;

/// Seeds per [`pool::Pool::map`] call. A chunk's records are held
/// until the whole chunk has run and its map returns them, so this
/// bounds the records held at once; the aggregate does not depend on
/// it.
const CHUNK: usize = 1024;

/// The run configuration for one corpus seed: generous step budget
/// (generated loops are fuel-bounded), deep call budget (recursion is
/// fuel-bounded), and a deterministic per-seed input. The input used
/// to be always empty, which made every `getchar`/`gets` path in a
/// generated program see instant EOF — a whole class of
/// input-dependent control flow the corpus silently never evaluated.
pub fn run_config(seed: u64) -> RunConfig {
    RunConfig {
        input: seed_input(seed),
        max_steps: 30_000_000,
        max_call_depth: 10_000,
    }
}

/// Deterministic pseudo-random input bytes for `seed`: a few lines of
/// digits, letters, and separators (the token shapes `atoi`/`gets`
/// consumers in generated programs care about), 16–79 bytes long.
/// Pure function of the seed — identical across job counts and
/// platforms, so aggregate digests stay comparable.
pub fn seed_input(seed: u64) -> Vec<u8> {
    // splitmix64 over the seed; independent of the generator's own
    // PRNG stream so adding input never perturbs program shapes.
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    const ALPHABET: &[u8] = b"0123456789 \nabcxyz+-";
    let len = 16 + (next() % 64) as usize;
    let mut input = Vec::with_capacity(len + 1);
    for _ in 0..len {
        input.push(ALPHABET[(next() % ALPHABET.len() as u64) as usize]);
    }
    input.push(b'\n');
    input
}

/// Configuration for one corpus run.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of seeds to evaluate.
    pub count: u64,
    /// First seed; seeds are `first_seed .. first_seed + count`, a
    /// range that must not overflow `u64`.
    pub first_seed: u64,
    /// Stratification features (one bucket per feature per program).
    pub features: Vec<Feature>,
    /// Threads: `Some(n)` builds a private pool of `n`, `None` uses
    /// the global pool.
    pub jobs: Option<usize>,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            count: 1000,
            first_seed: 1,
            features: Feature::ALL.to_vec(),
            jobs: None,
        }
    }
}

/// A fixed-width score histogram over `[0, 1]`.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            counts: vec![0; BINS],
            n: 0,
        }
    }

    fn add(&mut self, score: f64) {
        let clamped = if score.is_nan() {
            0.0
        } else {
            score.clamp(0.0, 1.0)
        };
        let bin = ((clamped * (BINS - 1) as f64).round() as usize).min(BINS - 1);
        self.counts[bin] += 1;
        self.n += 1;
    }

    /// The `q`-quantile as the midpoint of the first bin whose
    /// cumulative count reaches `q * n` (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = (q * self.n as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (bin, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bin as f64 / (BINS - 1) as f64;
            }
        }
        1.0
    }
}

/// Aggregate for one bucket: a count and one histogram per heuristic.
pub struct BucketAgg {
    /// Bucket label (`feature/level`, or `all`).
    pub label: String,
    /// Programs folded into this bucket.
    pub count: u64,
    /// One histogram per [`HEURISTICS`] column.
    pub hists: Vec<Histogram>,
}

impl BucketAgg {
    fn new(label: String) -> BucketAgg {
        BucketAgg {
            label,
            count: 0,
            hists: (0..HEURISTICS.len()).map(|_| Histogram::new()).collect(),
        }
    }

    /// Folds one program's scores, in [`HEURISTICS`] column order.
    fn add(&mut self, scores: &EstimateScores) {
        self.count += 1;
        let columns = scores
            .intra
            .iter()
            .chain(&scores.invocation)
            .chain(&scores.callsite);
        for (h, &s) in self.hists.iter_mut().zip(columns) {
            h.add(s);
        }
    }

    /// `[p25, p50, p75]` per heuristic column.
    pub fn quantiles(&self) -> Vec<[f64; 3]> {
        self.hists
            .iter()
            .map(|h| [h.quantile(0.25), h.quantile(0.50), h.quantile(0.75)])
            .collect()
    }
}

/// One evaluated seed, as folded by the aggregator. Everything heavy
/// (source, AST, CFGs, bytecode, profile) has already been dropped by
/// the time this record exists; the corpus writes no cache.
struct SeedRecord {
    fingerprint: u128,
    features: StructuralFeatures,
    scores: EstimateScores,
    micros: u64,
    /// The VM rejected the program (never expected from the
    /// generator; counted rather than aborting a long run).
    error: bool,
}

/// Seed-ordered aggregation state.
struct Aggregator {
    features: Vec<Feature>,
    seen: HashSet<u128>,
    buckets: Vec<BucketAgg>,
    total: BucketAgg,
    latencies_us: Vec<u64>,
    duplicates: u64,
    errors: u64,
}

impl Aggregator {
    fn new(features: &[Feature]) -> Aggregator {
        Aggregator {
            features: features.to_vec(),
            seen: HashSet::new(),
            buckets: bucket_labels(features)
                .into_iter()
                .map(BucketAgg::new)
                .collect(),
            total: BucketAgg::new("all".into()),
            latencies_us: Vec::new(),
            duplicates: 0,
            errors: 0,
        }
    }

    fn fold(&mut self, r: &SeedRecord) {
        self.latencies_us.push(r.micros);
        if r.error {
            self.errors += 1;
            return;
        }
        if !self.seen.insert(r.fingerprint) {
            self.duplicates += 1;
            return;
        }
        self.total.add(&r.scores);
        for idx in bucket_indices(&self.features, &r.features) {
            self.buckets[idx].add(&r.scores);
        }
    }
}

/// The report of one corpus run.
pub struct CorpusReport {
    /// Seeds requested.
    pub requested: u64,
    /// Programs folded into the aggregates (requested − duplicates −
    /// errors).
    pub evaluated: u64,
    /// Programs skipped as post-fold-IR duplicates.
    pub duplicates: u64,
    /// Programs the VM rejected.
    pub errors: u64,
    /// Wall-clock for the whole run.
    pub elapsed_s: f64,
    /// Sustained throughput (requested / elapsed).
    pub programs_per_sec: f64,
    /// Median per-program pipeline latency.
    pub p50_ms: f64,
    /// 99th-percentile per-program pipeline latency.
    pub p99_ms: f64,
    /// Peak RSS over the run, where `/proc` reports it.
    pub peak_rss_bytes: Option<u64>,
    /// Threads the run actually used.
    pub jobs: usize,
    /// Per-bucket aggregates, in [`bucket_labels`] order.
    pub buckets: Vec<BucketAgg>,
    /// The unstratified `all` bucket.
    pub total: BucketAgg,
}

impl CorpusReport {
    /// A stable 64-bit digest of every aggregate (bucket counts and
    /// raw histogram bins, including `all`). Two runs over the same
    /// corpus must produce equal digests regardless of `--jobs`;
    /// latency and throughput fields are excluded.
    pub fn aggregate_digest(&self) -> u64 {
        // FNV-1a/64: the first stream of the workspace hash.
        let mut h = Fnv128::with_basis(0);
        for b in self.buckets.iter().chain(std::iter::once(&self.total)) {
            h.word(b.count);
            for hist in &b.hists {
                for &c in &hist.counts {
                    h.word(c);
                }
            }
        }
        h.word(self.duplicates);
        h.word(self.errors);
        h.finish()
    }
}

/// The per-seed task: whole pipeline, small record out.
fn eval_seed(seed: u64) -> SeedRecord {
    let t0 = Instant::now();
    let (features, src) = {
        let _sp = obs::span("corpus.generate");
        let prog = fuzzgen::generate(seed);
        (StructuralFeatures::of(&prog), prog.render())
    };
    let module = minic::compile(&src).expect("generated programs always parse");
    let program = flowgraph::build_program(module);
    // Estimate while the freshly built AST and CFGs are still in cache;
    // the estimates do not depend on the run.
    let estimates = estimators::estimate_all(&program);
    let cp = profiler::compile(&program);
    let fingerprint = cp.ir_fingerprint();
    let config = run_config(seed);
    let out = cp.execute(&config, None);
    let Ok(out) = out else {
        return SeedRecord {
            fingerprint,
            features,
            scores: EstimateScores::default(),
            micros: t0.elapsed().as_micros() as u64,
            error: true,
        };
    };
    let scores = score_estimates(&program, &estimates, &[out.profile]);
    SeedRecord {
        fingerprint,
        features,
        scores,
        micros: t0.elapsed().as_micros() as u64,
        error: false,
    }
}

/// Runs the corpus.
pub fn run_corpus(cfg: &CorpusConfig) -> CorpusReport {
    let owned_pool = cfg.jobs.map(pool::Pool::new);
    let pool = owned_pool.as_ref().unwrap_or_else(|| pool::global());

    let started = Instant::now();
    let mut agg = run_chunked(cfg, pool, CHUNK);
    let elapsed_s = started.elapsed().as_secs_f64();

    agg.latencies_us.sort_unstable();
    let lat = &agg.latencies_us;
    let pct = |q: f64| {
        if lat.is_empty() {
            0.0
        } else {
            lat[((lat.len() - 1) as f64 * q).round() as usize] as f64 / 1e3
        }
    };
    obs::counter_add("corpus.programs", cfg.count);
    obs::counter_add("corpus.duplicates", agg.duplicates);
    obs::counter_add("corpus.errors", agg.errors);
    CorpusReport {
        requested: cfg.count,
        evaluated: agg.total.count,
        duplicates: agg.duplicates,
        errors: agg.errors,
        elapsed_s,
        programs_per_sec: cfg.count as f64 / elapsed_s.max(1e-9),
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        peak_rss_bytes: obs::peak_rss_bytes(),
        jobs: pool.threads(),
        buckets: agg.buckets,
        total: agg.total,
    }
}

/// Evaluates the seeds `chunk` at a time, one pool map per chunk,
/// folding each chunk's records in seed order.
fn run_chunked(cfg: &CorpusConfig, pool: &pool::Pool, chunk: usize) -> Aggregator {
    let mut agg = Aggregator::new(&cfg.features);
    for start in (0..cfg.count).step_by(chunk) {
        let end = cfg.count.min(start + chunk as u64);
        for r in pool.map(cfg.first_seed + start..cfg.first_seed + end, eval_seed) {
            agg.fold(&r);
        }
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_exact_on_point_masses() {
        let mut h = Histogram::new();
        for _ in 0..3 {
            h.add(0.25);
        }
        h.add(1.0);
        assert!((h.quantile(0.5) - 0.25).abs() < 1e-3);
        assert!((h.quantile(0.99) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chunk_boundaries_do_not_change_the_aggregate() {
        let cfg = CorpusConfig {
            count: 40,
            ..CorpusConfig::default()
        };
        let pool = pool::Pool::new(2);
        let chunked = run_chunked(&cfg, &pool, 7);
        let whole = run_chunked(&cfg, &pool, 40);
        let bins = |agg: &Aggregator| -> Vec<(u64, Vec<Vec<u64>>)> {
            let buckets = agg.buckets.iter().chain(std::iter::once(&agg.total));
            buckets
                .map(|b| (b.count, b.hists.iter().map(|h| h.counts.clone()).collect()))
                .collect()
        };
        assert_eq!(bins(&chunked), bins(&whole));
        assert_eq!(
            chunked.total.count + chunked.duplicates + chunked.errors,
            40
        );
        assert_eq!(
            (chunked.duplicates, chunked.errors),
            (whole.duplicates, whole.errors)
        );
        assert_eq!(chunked.latencies_us.len(), 40);
    }
}
