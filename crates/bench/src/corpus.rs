//! # Corpus-scale streaming evaluation
//!
//! Evaluates the paper's weight-matching heuristics over thousands of
//! generated programs instead of the 14-program suite, stratified by
//! the structural features the estimators are sensitive to
//! ([`fuzzgen::corpus`]), at full hardware throughput and bounded
//! memory.
//!
//! ## Engine shape
//!
//! One producer thread walks the seed range under a [`pool::Gate`]
//! sized from the memory budget, so generation can never outrun
//! execution by more than the window. Each seed becomes one pool task
//! that runs the whole per-program pipeline — generate → render →
//! parse → CFG → bytecode → profile → estimate → score — and sends a
//! small (~200 byte) result record back over a channel. The producer
//! folds records **in sequence order** through a reorder buffer, so
//! duplicate detection and aggregation see one canonical order and
//! the aggregate distributions are byte-identical at any `--jobs`.
//! The reorder buffer is explicitly bounded (a straggler seed can
//! otherwise let completed records pile up behind it); when it fills,
//! the producer stops submitting and helps the pool drain.
//!
//! ## Bounded memory
//!
//! Nothing per-program outlives its task except the fold record:
//! scores land in fixed 2048-bin histograms (exact to 1/2048, which
//! is far below the scores' own noise), profiles stream into the
//! artifact cache's batched write tier, and VM buffers live in one
//! thread-local [`profiler::ExecScratch`] per worker. Peak RSS is
//! therefore `O(window)`, not `O(count)` — the corpus bench asserts
//! this against the configured budget.

use cache::codec::Artifact;
use cache::{ArtifactKey, ArtifactKind, Cache};
use estimators::branch::predict_module;
use estimators::eval;
use estimators::inter::{estimate_invocations, InterEstimator};
use estimators::intra::{estimate_function_with, IntraEstimates, IntraEstimator, IntraOptions};
pub use fuzzgen::corpus::parse_buckets;
use fuzzgen::corpus::{bucket_indices, bucket_labels, Feature, StructuralFeatures};
use obs::hash::Fnv128;
use profiler::{ExecScratch, RunConfig};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::hash::Hasher;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

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

/// Estimated transient footprint of one in-flight program (source
/// text, AST, CFGs, bytecode image, profile), with slack. The
/// backpressure window is `mem_budget / SLOT_BYTES`.
pub const SLOT_BYTES: u64 = 4 * 1024 * 1024;

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
    /// Worker threads: `Some(n)` builds a private pool, `None` uses
    /// the global pool (honouring `SFE_POOL_THREADS`).
    pub jobs: Option<usize>,
    /// Memory budget driving the backpressure window.
    pub mem_budget_bytes: u64,
    /// Artifact-cache directory for profile write-through (`None`
    /// disables caching).
    pub cache_dir: Option<PathBuf>,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            count: 1000,
            first_seed: 1,
            features: Feature::ALL.to_vec(),
            jobs: None,
            mem_budget_bytes: 256 * 1024 * 1024,
            cache_dir: None,
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

    fn add(&mut self, scores: &[f64; 10]) {
        self.count += 1;
        for (h, &s) in self.hists.iter_mut().zip(scores) {
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
/// (source, AST, CFGs, bytecode, profile) has already been dropped or
/// streamed to the cache by the time this record exists.
struct SeedRecord {
    seq: u64,
    fingerprint: u128,
    features: StructuralFeatures,
    scores: [f64; 10],
    micros: u64,
    /// The VM rejected the program (never expected from the
    /// generator; counted rather than aborting a long run).
    error: bool,
}

/// Sequence-ordered aggregation state.
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
    /// Backpressure window the engine ran with.
    pub window: usize,
    /// Worker threads the run actually used.
    pub jobs: usize,
    /// `SFE_POOL_THREADS` as seen at run time, if set.
    pub pool_threads_env: Option<String>,
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

/// Computes the ten heuristic score columns for one program. The
/// branch predictions are computed once and shared by all three
/// intra-procedural estimators.
fn score_columns(program: &flowgraph::Program, profiles: &[profiler::Profile]) -> [f64; 10] {
    let predictions = predict_module(&program.module);
    let intra = |which| {
        let _sp = obs::span("estimate.intra");
        let options = IntraOptions::default();
        IntraEstimates {
            estimator: which,
            block_freqs: program
                .module
                .functions
                .iter()
                .map(|f| {
                    if f.is_defined() {
                        estimate_function_with(program, f.id, which, &predictions, &options)
                    } else {
                        Vec::new()
                    }
                })
                .collect(),
            predictions: predictions.clone(),
        }
    };
    let ia_loop = intra(IntraEstimator::Loop);
    let ia_smart = intra(IntraEstimator::Smart);
    let ia_markov = intra(IntraEstimator::Markov);
    let inter = |w| estimate_invocations(program, &ia_smart, w);
    let ie_callsite = inter(InterEstimator::CallSite);
    let ie_direct = inter(InterEstimator::Direct);
    let ie_allrec = inter(InterEstimator::AllRec);
    let ie_allrec2 = inter(InterEstimator::AllRec2);
    let ie_markov = inter(InterEstimator::Markov);
    [
        eval::intra_score(program, &ia_loop, profiles, 0.05),
        eval::intra_score(program, &ia_smart, profiles, 0.05),
        eval::intra_score(program, &ia_markov, profiles, 0.05),
        eval::invocation_score(program, &ie_callsite, profiles, 0.25),
        eval::invocation_score(program, &ie_direct, profiles, 0.25),
        eval::invocation_score(program, &ie_allrec, profiles, 0.25),
        eval::invocation_score(program, &ie_allrec2, profiles, 0.25),
        eval::invocation_score(program, &ie_markov, profiles, 0.25),
        eval::callsite_score(program, &ia_smart, &ie_direct, profiles, 0.25),
        eval::callsite_score(program, &ia_smart, &ie_markov, profiles, 0.25),
    ]
}

thread_local! {
    /// One reusable VM arena per worker thread (and the producer, who
    /// helps when the gate is full).
    static SCRATCH: RefCell<ExecScratch> = RefCell::new(ExecScratch::default());
}

/// The per-seed task: whole pipeline, small record out.
fn eval_seed(seq: u64, seed: u64, cache: Option<&Cache>) -> SeedRecord {
    let t0 = Instant::now();
    let prog = fuzzgen::generate(seed);
    let features = StructuralFeatures::of(&prog);
    let src = prog.render();
    let module = minic::compile(&src).expect("generated programs always parse");
    let program = flowgraph::build_program(module);
    let cp = profiler::compile(&program);
    let fingerprint = cp.ir_fingerprint();
    let config = run_config(seed);
    let out = SCRATCH.with(|s| cp.execute(&config, &mut s.borrow_mut(), None));
    let Ok(out) = out else {
        return SeedRecord {
            seq,
            fingerprint,
            features,
            scores: [0.0; 10],
            micros: t0.elapsed().as_micros() as u64,
            error: true,
        };
    };
    let profiles = [out.profile];
    let scores = score_columns(&program, &profiles);
    if let Some(c) = cache {
        let key = ArtifactKey::derive(ArtifactKind::Profile, &src, &config);
        let [profile] = profiles;
        c.store_batched(key, &Artifact::Profile(profile));
    }
    SeedRecord {
        seq,
        fingerprint,
        features,
        scores,
        micros: t0.elapsed().as_micros() as u64,
        error: false,
    }
}

/// Runs the corpus.
///
/// # Panics
///
/// Panics if the cache directory cannot be opened.
pub fn run_corpus(cfg: &CorpusConfig) -> CorpusReport {
    let owned_pool = cfg.jobs.map(pool::Pool::new);
    let pool = owned_pool.as_ref().unwrap_or_else(|| pool::global());
    let cache = cfg
        .cache_dir
        .as_ref()
        .map(|d| Cache::open(d).expect("corpus cache dir"));

    let started = Instant::now();
    let (agg, window) = run_streaming(cfg, pool, cache.as_ref());
    if let Some(c) = &cache {
        c.flush();
    }
    let elapsed_s = started.elapsed().as_secs_f64();

    let mut lat = agg.latencies_us.clone();
    lat.sort_unstable();
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
        window,
        jobs: pool.workers(),
        pool_threads_env: std::env::var("SFE_POOL_THREADS").ok(),
        buckets: agg.buckets,
        total: agg.total,
    }
}

/// Backpressure window for a memory budget: enough slots to keep
/// every worker busy, never more than the budget allows for.
fn window_for(cfg: &CorpusConfig, workers: usize) -> usize {
    let budget_slots = (cfg.mem_budget_bytes / SLOT_BYTES).max(1) as usize;
    budget_slots.max(workers).min(4096)
}

fn run_streaming(
    cfg: &CorpusConfig,
    pool: &pool::Pool,
    cache: Option<&Cache>,
) -> (Aggregator, usize) {
    let window = window_for(cfg, pool.workers());
    // Completed records waiting behind a straggler are cheap but not
    // free; past this, stop submitting and help the pool instead.
    let reorder_cap = window * 2;
    let gate = pool::Gate::new(window);
    let mut agg = Aggregator::new(&cfg.features);
    let (tx, rx) = mpsc::channel::<SeedRecord>();
    let mut reorder: BTreeMap<u64, SeedRecord> = BTreeMap::new();
    let mut next_seq = 0u64;

    let fold_ready =
        |reorder: &mut BTreeMap<u64, SeedRecord>, next_seq: &mut u64, agg: &mut Aggregator| {
            while let Some(r) = reorder.remove(next_seq) {
                agg.fold(&r);
                *next_seq += 1;
            }
        };

    pool.scope(|s| {
        let gate = &gate;
        for seq in 0..cfg.count {
            for r in rx.try_iter() {
                reorder.insert(r.seq, r);
            }
            fold_ready(&mut reorder, &mut next_seq, &mut agg);
            while reorder.len() >= reorder_cap {
                match rx.recv_timeout(Duration::from_micros(200)) {
                    Ok(r) => {
                        reorder.insert(r.seq, r);
                        fold_ready(&mut reorder, &mut next_seq, &mut agg);
                    }
                    Err(_) => {
                        let _helped = pool.help_one();
                    }
                }
            }
            gate.acquire(pool);
            let seed = cfg.first_seed + seq;
            let tx = tx.clone();
            s.spawn(move |_| {
                let record = eval_seed(seq, seed, cache);
                // The producer owns the receiver for the whole scope.
                let _ = tx.send(record);
                gate.release();
            });
        }
        while next_seq < cfg.count {
            match rx.recv_timeout(Duration::from_micros(200)) {
                Ok(r) => {
                    reorder.insert(r.seq, r);
                    fold_ready(&mut reorder, &mut next_seq, &mut agg);
                }
                Err(_) => {
                    let _helped = pool.help_one();
                }
            }
        }
    });
    (agg, window)
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

    /// The streaming engine scores ten columns with shared branch
    /// predictions; they must equal the matching columns of the full
    /// 18-score evaluation.
    #[test]
    fn score_columns_match_the_full_evaluation() {
        for seed in 1..=24 {
            let src = fuzzgen::generate(seed).render();
            let module = minic::compile(&src).expect("generated programs always parse");
            let program = flowgraph::build_program(module);
            let out = profiler::run(&program, &run_config(seed)).expect("generated programs run");
            let profiles = [out.profile];
            let full = eval::score_program(&program, &profiles);
            let expected = [
                full.intra[0],
                full.intra[1],
                full.intra[2],
                full.invocation_simple[0],
                full.invocation_simple[1],
                full.invocation_simple[2],
                full.invocation_simple[3],
                full.invocation_markov_25[1],
                full.callsites[0],
                full.callsites[1],
            ];
            let got = score_columns(&program, &profiles);
            for (h, (g, e)) in HEURISTICS.iter().zip(got.iter().zip(&expected)) {
                assert_eq!(g.to_bits(), e.to_bits(), "seed {seed} {h}: {g} vs {e}");
            }
        }
    }
}
