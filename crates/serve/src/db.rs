//! The dependency-tracking incremental database behind `sfe serve`.
//!
//! # Invalidation model
//!
//! Derived artifacts form a per-function DAG:
//!
//! ```text
//!   source ──parse──▶ AST ──sema──▶ module ─┬─▶ CFG(f) ──▶ intra(f)
//!                                           │       ╲          │
//!                                           │        ╲         ▼
//!                                           └────────▶ callgraph ──▶ inter
//! ```
//!
//! Parsing, semantic analysis, branch prediction, the call graph, and
//! the five inter-procedural estimators are recomputed on every update
//! — they are linear scans, collectively a few percent of pipeline
//! cost. The expensive per-function stages — lowering to a CFG and the
//! intra-procedural flow solves — are cached per declaration, keyed by:
//!
//! - the function's **content fingerprint**: FNV-1a/128 over its
//!   canonical pretty-printed text plus its node-id namespace base
//!   (`minic::ast::DECL_ID_STRIDE` gives each top-level declaration a
//!   private id range, so unchanged text at an unchanged ordinal
//!   re-parses to identical `NodeId`s — the property that makes a
//!   cached CFG's embedded expression ids valid against the *new*
//!   module's side tables);
//! - the module **context fingerprint**: everything cross-function a
//!   derivation reads — struct layouts, enum constants, globals, every
//!   function signature in order, and the module's error-call set
//!   (the one cross-function input of the branch heuristics).
//!
//! A reused CFG still embeds three kinds of module-global ids assigned
//! densely by sema — `BranchId`, `SwitchId`, and string-table indices —
//! which shift when an *earlier* declaration changes. Those are
//! remapped positionally (the k-th branch of `f` in the old module is
//! the k-th branch of `f` in the new one, because sema registers sites
//! in syntactic order) before the CFG enters the new program. The
//! remap either succeeds completely or the function is re-lowered; a
//! reused function is therefore bit-identical to a freshly lowered one,
//! which is what the differential suite asserts end to end.

use crate::fp::{self, fold_f64s};
use cache::{ArtifactKey, ArtifactKind, Cache};
use estimators::branch::error_functions;
use estimators::inter::{estimate_invocations, InterEstimates, InterEstimator};
use estimators::intra::{estimate_function_with, IntraEstimates, IntraEstimator, IntraOptions};
use estimators::predict_module;
use flowgraph::cfg::{Cfg, Instr, Terminator};
use flowgraph::{CallGraph, Program};
use minic::ast::{Item, Unit};
use minic::pretty::print_item;
use minic::sema::{BranchId, FuncId, Module, SwitchId};
use obs::hash::Fnv128;
use profiler::{CompiledProgram, ExecScratch, Profile, RunConfig};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// The three intra estimators the database materializes, in index
/// order (the paper's loop / smart / Markov).
pub const INTRA_ALL: [IntraEstimator; 3] = [
    IntraEstimator::Loop,
    IntraEstimator::Smart,
    IntraEstimator::Markov,
];

fn intra_idx(which: IntraEstimator) -> usize {
    match which {
        IntraEstimator::Loop => 0,
        IntraEstimator::Smart => 1,
        IntraEstimator::Markov => 2,
    }
}

fn inter_idx(which: InterEstimator) -> usize {
    InterEstimator::ALL
        .iter()
        .position(|&w| w == which)
        .expect("estimator in ALL")
}

/// Recompute-vs-reuse accounting for one update (and, accumulated, for
/// the database lifetime). `total_units` is the scalar the <10%
/// incremental-work acceptance criterion is measured on: blocks
/// lowered + blocks flow-solved + inter-procedural units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Functions lowered to a fresh CFG.
    pub funcs_lowered: u64,
    /// Functions whose CFG was reused (remapped) from the previous
    /// revision.
    pub funcs_reused: u64,
    /// Basic blocks produced by fresh lowering.
    pub blocks_lowered: u64,
    /// Basic blocks carried over by CFG reuse.
    pub blocks_reused: u64,
    /// Basic blocks freshly flow-solved (summed across the three
    /// intra estimators).
    pub blocks_solved: u64,
    /// Basic blocks whose solved frequencies were reused.
    pub solves_reused: u64,
    /// Inter-procedural work units (functions + call sites, summed
    /// across the five estimators) — always recomputed.
    pub inter_units: u64,
}

impl WorkCounters {
    /// The scalar recompute cost of this update.
    pub fn total_units(&self) -> u64 {
        self.blocks_lowered + self.blocks_solved + self.inter_units
    }

    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &WorkCounters) {
        self.funcs_lowered += other.funcs_lowered;
        self.funcs_reused += other.funcs_reused;
        self.blocks_lowered += other.blocks_lowered;
        self.blocks_reused += other.blocks_reused;
        self.blocks_solved += other.blocks_solved;
        self.solves_reused += other.solves_reused;
        self.inter_units += other.inter_units;
    }
}

/// What the database reports back from one `load`/`update`.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// Recompute/reuse accounting for this update alone.
    pub work: WorkCounters,
    /// Defined functions in the program.
    pub funcs: usize,
    /// Total CFG blocks.
    pub blocks: usize,
    /// Monotonic per-program revision (1 on first load).
    pub revision: u64,
    /// Whole-program content fingerprint.
    pub fingerprint: u128,
}

/// Database errors, each mapping onto one protocol error code.
#[derive(Debug, Clone)]
pub enum DbError {
    /// Source failed to parse or analyze (message is pre-rendered with
    /// a line number).
    Compile(String),
    /// No program with that name is loaded.
    UnknownProgram(String),
    /// The program has no function with that name.
    UnknownFunction(String, String),
    /// The program failed at runtime while profiling.
    Runtime(String),
}

impl DbError {
    /// The protocol error code for this error.
    pub fn code(&self) -> &'static str {
        match self {
            DbError::Compile(_) => "compile-error",
            DbError::UnknownProgram(_) => "unknown-program",
            DbError::UnknownFunction(..) => "unknown-function",
            DbError::Runtime(_) => "run-error",
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> String {
        match self {
            DbError::Compile(m) => m.clone(),
            DbError::UnknownProgram(p) => format!("unknown program: {p}"),
            DbError::UnknownFunction(p, f) => {
                format!("unknown function: {f} (program {p})")
            }
            DbError::Runtime(m) => m.clone(),
        }
    }
}

/// Cached per-function derived artifacts (block frequencies per intra
/// estimator). The CFG itself lives in the entry's assembled
/// [`Program`]; reuse lifts it from there.
struct FnArt {
    fp: u128,
    intra: [Vec<f64>; 3],
}

/// One resident program: the assembled pipeline state at its current
/// revision, plus the per-function artifact layer the next update
/// draws from.
pub struct ProgramEntry {
    /// The program's name in the database.
    pub name: String,
    /// Current source text.
    pub source: String,
    /// The assembled module + CFGs + call graph.
    pub program: Arc<Program>,
    /// Whole-program content fingerprint.
    pub fingerprint: u128,
    /// Revision counter (1 on first load).
    pub revision: u64,
    /// Work done by the update that produced this revision.
    pub last_work: WorkCounters,
    ctx_fp: u128,
    fn_arts: HashMap<String, FnArt>,
    intra: [Arc<IntraEstimates>; 3],
    inter: [Arc<InterEstimates>; 5],
    inputs: Vec<Vec<u8>>,
    compiled: OnceLock<Arc<CompiledProgram>>,
    profiles: Mutex<HashMap<Vec<u8>, Arc<Profile>>>,
}

impl ProgramEntry {
    /// The materialized intra estimates for one estimator.
    pub fn intra(&self, which: IntraEstimator) -> &IntraEstimates {
        &self.intra[intra_idx(which)]
    }

    /// The materialized inter estimates (built on smart intra
    /// estimates, as in the paper) for one estimator.
    pub fn inter(&self, which: InterEstimator) -> &InterEstimates {
        &self.inter[inter_idx(which)]
    }

    /// The inputs `score` profiles against (suite inputs for suite
    /// programs, the empty input otherwise).
    pub fn inputs(&self) -> &[Vec<u8>] {
        &self.inputs
    }

    /// Digest of every materialized estimate, bit-exact — the unit the
    /// storm determinism test compares across `--jobs` values.
    pub fn estimates_digest(&self) -> u128 {
        let mut h = fp::hasher();
        h.word(self.fingerprint as u64);
        h.word((self.fingerprint >> 64) as u64);
        for ia in &self.intra {
            for freqs in &ia.block_freqs {
                fold_f64s(&mut h, freqs);
            }
        }
        for ie in &self.inter {
            fold_f64s(&mut h, &ie.func_freqs);
        }
        h.digest()
    }
}

/// The resident incremental database: named programs, a work-stealing
/// pool for per-function fan-out, an optional content-addressed cache
/// backing the profile layer, and a scratch-buffer pool for the VM.
pub struct ServeDb {
    pool: Arc<pool::Pool>,
    cache: Option<Cache>,
    programs: RwLock<BTreeMap<String, Arc<ProgramEntry>>>,
    scratches: Mutex<Vec<ExecScratch>>,
    totals: Mutex<WorkCounters>,
}

/// Cap on recycled VM scratch-buffer capacity (elements): buffers that
/// grew past this in one outlier run are shed when returned to the
/// pool rather than retained for the process lifetime.
const SCRATCH_TRIM_ELEMS: usize = 1 << 20;

impl ServeDb {
    /// A database computing on `jobs` pool workers (`None`: one per
    /// available core), optionally backed by a persistent artifact
    /// cache for profiles.
    pub fn new(jobs: Option<usize>, cache: Option<Cache>) -> ServeDb {
        let threads =
            jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        ServeDb {
            pool: Arc::new(pool::Pool::new(threads)),
            cache,
            programs: RwLock::new(BTreeMap::new()),
            scratches: Mutex::new(Vec::new()),
            totals: Mutex::new(WorkCounters::default()),
        }
    }

    /// Pool workers backing this database.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Names of all loaded programs, sorted.
    pub fn program_names(&self) -> Vec<String> {
        self.lock_programs().keys().cloned().collect()
    }

    /// Work accumulated across every update since the database opened.
    pub fn total_work(&self) -> WorkCounters {
        *self.totals.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_programs(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<ProgramEntry>>> {
        self.programs.read().unwrap_or_else(|e| e.into_inner())
    }

    /// The entry for `name`.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownProgram`] when nothing by that name is loaded.
    pub fn entry(&self, name: &str) -> Result<Arc<ProgramEntry>, DbError> {
        self.lock_programs()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::UnknownProgram(name.to_string()))
    }

    /// Loads or updates a program from source, recomputing only what
    /// the edit invalidated. See the module docs for the invalidation
    /// model.
    ///
    /// # Errors
    ///
    /// [`DbError::Compile`] when the source does not parse or analyze;
    /// the database keeps the previous revision in that case.
    pub fn upsert(&self, name: &str, source: &str) -> Result<UpdateOutcome, DbError> {
        self.upsert_with_inputs(name, source, None)
    }

    /// [`ServeDb::upsert`] with explicit profiling inputs (used by the
    /// suite preloader; `None` keeps the entry's existing inputs, or
    /// the empty input for a fresh entry).
    ///
    /// # Errors
    ///
    /// See [`ServeDb::upsert`].
    pub fn upsert_with_inputs(
        &self,
        name: &str,
        source: &str,
        inputs: Option<Vec<Vec<u8>>>,
    ) -> Result<UpdateOutcome, DbError> {
        let _sp = obs::span("serve.upsert");
        let unit = minic::parser::parse(source).map_err(|e| DbError::Compile(e.render(source)))?;
        let fn_fps = function_fingerprints(&unit);
        let decls = declaration_context(&unit);
        let module = minic::sema::analyze(unit).map_err(|e| DbError::Compile(e.render(source)))?;
        let ctx_fp = context_fingerprint(decls, &module);
        let old = self.lock_programs().get(name).cloned();

        let mut work = WorkCounters::default();

        // Which functions can reuse the previous revision's artifacts.
        let reusable: Vec<bool> = module
            .functions
            .iter()
            .map(|f| {
                f.is_defined()
                    && old.as_ref().is_some_and(|o| {
                        o.ctx_fp == ctx_fp
                            && o.fn_arts.get(&f.name).map(|a| a.fp) == fn_fps.get(&f.name).copied()
                            && o.program
                                .module
                                .function_id(&f.name)
                                .and_then(|of| o.program.cfg_opt(of))
                                .is_some()
                    })
            })
            .collect();

        // Phase 1 — CFGs: reuse + remap where fingerprints allow,
        // lower fresh otherwise, fanning out on the pool. Slots are
        // merged in function order, so counters and results are
        // deterministic for any worker count.
        let mut cfg_slots: Vec<Option<(Cfg, bool)>> =
            (0..module.functions.len()).map(|_| None).collect();
        self.pool.scope(|s| {
            for (f, slot) in module.functions.iter().zip(cfg_slots.iter_mut()) {
                if f.body.is_none() {
                    continue;
                }
                let reuse = reusable[f.id.0 as usize];
                let module = &module;
                let old = &old;
                s.spawn(move |_| {
                    let reused = reuse.then(|| {
                        let o = old.as_ref().expect("reusable implies old entry");
                        let of = o
                            .program
                            .module
                            .function_id(&f.name)
                            .expect("reusable implies old function");
                        remap_cfg(&o.program, of, module, f.id)
                    });
                    *slot = Some(match reused.flatten() {
                        Some(cfg) => (cfg, true),
                        None => (flowgraph::lower::lower_function(module, f), false),
                    });
                });
            }
        });
        let mut cfgs: Vec<Option<Cfg>> = Vec::with_capacity(cfg_slots.len());
        for slot in cfg_slots {
            match slot {
                Some((cfg, reused)) => {
                    let blocks = cfg.blocks.len() as u64;
                    if reused {
                        work.funcs_reused += 1;
                        work.blocks_reused += blocks;
                    } else {
                        work.funcs_lowered += 1;
                        work.blocks_lowered += blocks;
                    }
                    cfgs.push(Some(cfg));
                }
                None => cfgs.push(None),
            }
        }

        // Phase 2 — assemble the program and rebuild the call graph
        // (a linear scan over the CFGs).
        let mut program = Program {
            module,
            cfgs,
            callgraph: CallGraph::default(),
        };
        program.callgraph = CallGraph::build(&program);
        let program = Arc::new(program);

        // Phase 3 — branch predictions (cheap, module-wide) and intra
        // estimates: cached frequencies are reused per (function,
        // estimator); everything else is solved on the pool.
        let predictions = predict_module(&program.module);
        let options = IntraOptions::default();
        let n_funcs = program.module.functions.len();
        let mut intra_slots: Vec<[Option<Vec<f64>>; 3]> =
            (0..n_funcs).map(|_| [None, None, None]).collect();
        self.pool.scope(|s| {
            for (fi, slots) in intra_slots.iter_mut().enumerate() {
                let f = &program.module.functions[fi];
                if f.body.is_none() {
                    continue;
                }
                let reuse = reusable[fi];
                let program = &program;
                let predictions = &predictions;
                let options = &options;
                let old = &old;
                for (ei, slot) in slots.iter_mut().enumerate() {
                    s.spawn(move |_| {
                        if reuse {
                            let o = old.as_ref().expect("reusable implies old entry");
                            *slot = Some(o.fn_arts[&f.name].intra[ei].clone());
                        } else {
                            *slot = Some(estimate_function_with(
                                program,
                                f.id,
                                INTRA_ALL[ei],
                                predictions,
                                options,
                            ));
                        }
                    });
                }
            }
        });
        let mut block_freqs: [Vec<Vec<f64>>; 3] = Default::default();
        for (fi, slots) in intra_slots.into_iter().enumerate() {
            let defined = program.module.functions[fi].is_defined();
            for (ei, slot) in slots.into_iter().enumerate() {
                let freqs = slot.unwrap_or_default();
                if defined {
                    if reusable[fi] {
                        work.solves_reused += freqs.len() as u64;
                    } else {
                        work.blocks_solved += freqs.len() as u64;
                    }
                }
                block_freqs[ei].push(freqs);
            }
        }
        let intra: [Arc<IntraEstimates>; 3] = {
            let mut it = block_freqs.into_iter().enumerate().map(|(ei, freqs)| {
                Arc::new(IntraEstimates {
                    estimator: INTRA_ALL[ei],
                    block_freqs: freqs,
                    predictions: predictions.clone(),
                })
            });
            [
                it.next().expect("three"),
                it.next().expect("three"),
                it.next().expect("three"),
            ]
        };

        // Phase 4 — inter-procedural estimates: always recomputed
        // (they depend on every function's intra estimates), built on
        // smart intra as in the paper.
        let smart = &intra[intra_idx(IntraEstimator::Smart)];
        let inter_unit =
            (program.module.functions.len() + program.module.side.call_sites.len()) as u64;
        let inter: [Arc<InterEstimates>; 5] = {
            let mut it = InterEstimator::ALL
                .iter()
                .map(|&w| Arc::new(estimate_invocations(&program, smart, w)));
            work.inter_units = inter_unit * InterEstimator::ALL.len() as u64;
            [
                it.next().expect("five"),
                it.next().expect("five"),
                it.next().expect("five"),
                it.next().expect("five"),
                it.next().expect("five"),
            ]
        };

        // Phase 5 — refresh the per-function artifact layer for the
        // next update, and publish the new revision.
        let mut fn_arts = HashMap::new();
        for f in &program.module.functions {
            if !f.is_defined() {
                continue;
            }
            let fid = f.id.0 as usize;
            fn_arts.insert(
                f.name.clone(),
                FnArt {
                    fp: fn_fps.get(&f.name).copied().unwrap_or(0),
                    intra: [
                        intra[0].block_freqs[fid].clone(),
                        intra[1].block_freqs[fid].clone(),
                        intra[2].block_freqs[fid].clone(),
                    ],
                },
            );
        }
        let fingerprint = {
            let mut h = fp::hasher();
            h.word(ctx_fp as u64);
            h.word((ctx_fp >> 64) as u64);
            for f in &program.module.functions {
                if let Some(&fp) = fn_fps.get(&f.name) {
                    h.word(fp as u64);
                    h.word((fp >> 64) as u64);
                }
            }
            h.digest()
        };
        let funcs = program.defined_ids().len();
        let blocks = program.total_blocks();
        let revision = old.as_ref().map_or(1, |o| o.revision + 1);
        let inputs = inputs
            .or_else(|| old.as_ref().map(|o| o.inputs.clone()))
            .unwrap_or_else(|| vec![Vec::new()]);

        let entry = Arc::new(ProgramEntry {
            name: name.to_string(),
            source: source.to_string(),
            program,
            fingerprint,
            revision,
            last_work: work,
            ctx_fp,
            fn_arts,
            intra,
            inter,
            inputs,
            compiled: OnceLock::new(),
            profiles: Mutex::new(HashMap::new()),
        });
        self.programs
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), entry);
        self.totals
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .add(&work);
        obs::counter_add("serve.updates", 1);
        obs::counter_add("serve.funcs_lowered", work.funcs_lowered);
        obs::counter_add("serve.funcs_reused", work.funcs_reused);
        obs::counter_add("serve.blocks_lowered", work.blocks_lowered);
        obs::counter_add("serve.blocks_solved", work.blocks_solved);

        Ok(UpdateOutcome {
            work,
            funcs,
            blocks,
            revision,
            fingerprint,
        })
    }

    /// The profile of `name` on `input` — from the in-memory layer,
    /// the content-addressed cache, or a VM run (writing through),
    /// in that order.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownProgram`] / [`DbError::Runtime`].
    pub fn profile(&self, name: &str, input: &[u8]) -> Result<Arc<Profile>, DbError> {
        let _sp = obs::span("serve.profile");
        let entry = self.entry(name)?;
        if let Some(p) = entry
            .profiles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(input)
        {
            return Ok(Arc::clone(p));
        }
        let config = RunConfig::with_input(input.to_vec());
        let key = self
            .cache
            .as_ref()
            .map(|_| ArtifactKey::derive(ArtifactKind::Profile, &entry.source, &config));
        if let (Some(c), Some(k)) = (self.cache.as_ref(), key) {
            if let Some(profile) = c.load_profile(k) {
                let profile = Arc::new(profile);
                entry
                    .profiles
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(input.to_vec(), Arc::clone(&profile));
                return Ok(profile);
            }
        }
        let compiled = entry
            .compiled
            .get_or_init(|| Arc::new(profiler::compile(&entry.program)));
        let mut scratch = self
            .scratches
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default();
        let out = compiled.execute(&config, &mut scratch, None);
        // Return the scratch before error handling so a failing run
        // doesn't leak it; shed outlier capacity either way.
        scratch.trim(SCRATCH_TRIM_ELEMS);
        self.scratches
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(scratch);
        let out = out.map_err(|e| DbError::Runtime(e.to_string()))?;
        let profile = Arc::new(out.profile);
        if let (Some(c), Some(k)) = (self.cache.as_ref(), key) {
            c.store_batched(k, &cache::codec::Artifact::Profile((*profile).clone()));
        }
        entry
            .profiles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(input.to_vec(), Arc::clone(&profile));
        Ok(profile)
    }

    /// Weight-matching scores for `name` against its inputs' profiles:
    /// intra (5% cutoff, three estimators), invocation (25%, five),
    /// call-site (25%, direct + Markov) — the paper's headline tables,
    /// composed from the materialized estimates rather than recomputed.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownProgram`] / [`DbError::Runtime`].
    pub fn score(&self, name: &str) -> Result<Scores, DbError> {
        let _sp = obs::span("serve.score");
        let entry = self.entry(name)?;
        let mut profiles = Vec::new();
        for input in entry.inputs() {
            profiles.push((*self.profile(name, input)?).clone());
        }
        // Batched profile writes from the loop above would otherwise
        // sit in the write tier until the cache drops — which a
        // resident service never does; see `flush_cache`.
        self.flush_cache();
        let program = &entry.program;
        let intra = [
            estimators::eval::intra_score(
                program,
                entry.intra(IntraEstimator::Loop),
                &profiles,
                0.05,
            ),
            estimators::eval::intra_score(
                program,
                entry.intra(IntraEstimator::Smart),
                &profiles,
                0.05,
            ),
            estimators::eval::intra_score(
                program,
                entry.intra(IntraEstimator::Markov),
                &profiles,
                0.05,
            ),
        ];
        let mut invocation = [0.0; 5];
        for (i, &w) in InterEstimator::ALL.iter().enumerate() {
            invocation[i] =
                estimators::eval::invocation_score(program, entry.inter(w), &profiles, 0.25);
        }
        let smart = entry.intra(IntraEstimator::Smart);
        let callsite = [
            estimators::eval::callsite_score(
                program,
                smart,
                entry.inter(InterEstimator::Direct),
                &profiles,
                0.25,
            ),
            estimators::eval::callsite_score(
                program,
                smart,
                entry.inter(InterEstimator::Markov),
                &profiles,
                0.25,
            ),
        ];
        Ok(Scores {
            intra,
            invocation,
            callsite,
        })
    }

    /// Drains the cache's batched write tier to disk. A one-shot run
    /// gets this for free from `Drop`; a resident service must flush
    /// at request boundaries or the entries exist only in memory for
    /// the daemon's lifetime (invisible to other processes, lost on a
    /// crash).
    pub fn flush_cache(&self) {
        if let Some(c) = &self.cache {
            c.flush();
        }
    }

    /// Bit-exact digest of the whole database state — program sources,
    /// fingerprints, and every materialized estimate — independent of
    /// insertion order and worker count. The storm determinism test
    /// compares this across `--jobs` values.
    pub fn state_digest(&self) -> u128 {
        let mut h = fp::hasher();
        for (name, entry) in self.lock_programs().iter() {
            h.field_str(name);
            h.field_str(&entry.source);
            let d = entry.estimates_digest();
            h.word(d as u64);
            h.word((d >> 64) as u64);
        }
        h.digest()
    }
}

impl Drop for ServeDb {
    fn drop(&mut self) {
        self.flush_cache();
    }
}

/// The score bundle `score` responds with.
#[derive(Debug, Clone, Copy)]
pub struct Scores {
    /// Loop / smart / Markov intra scores at the 5% cutoff.
    pub intra: [f64; 3],
    /// The five invocation estimators at the 25% cutoff, in
    /// [`InterEstimator::ALL`] order.
    pub invocation: [f64; 5],
    /// Call-site scores (direct, Markov) at the 25% cutoff.
    pub callsite: [f64; 2],
}

/// Per-declaration content fingerprints for every *defined* function:
/// canonical pretty-printed text plus the declaration's id-namespace
/// witness (its own node id), which changes if stride alignment ever
/// degrades (overflow) or the ordinal moves.
fn function_fingerprints(unit: &Unit) -> HashMap<String, u128> {
    let mut out = HashMap::new();
    for item in &unit.items {
        if let Item::Function(fd) = item {
            if fd.body.is_none() {
                continue;
            }
            let mut h = fp::hasher();
            h.field_str(&print_item(item));
            h.word(u64::from(fd.id.0));
            out.insert(fd.name.clone(), h.digest());
        }
    }
    out
}

/// The first part of the [`context_fingerprint`]: every non-function
/// declaration of `unit`, hashed before sema consumes the unit.
fn declaration_context(unit: &Unit) -> Fnv128 {
    let mut h = fp::hasher();
    for item in &unit.items {
        if !matches!(item, Item::Function(_)) {
            h.field_str(&print_item(item));
        }
    }
    h
}

/// The module-context fingerprint: every cross-function input of
/// per-function derivations. Struct/enum/global declarations feed
/// layouts and types; the ordered function signature list pins callee
/// types, declaration order, and arity; the error-call set is the one
/// whole-module input of the branch heuristics (`ErrorCall` fires on
/// calls to functions that always reach `exit`). Any change here
/// conservatively invalidates every cached function. `decls` is
/// [`declaration_context`] of the unit `module` was analyzed from.
fn context_fingerprint(decls: Fnv128, module: &Module) -> u128 {
    let mut h = decls;
    for f in &module.functions {
        h.field_str(&f.name);
        h.field_str(&format!("{:?}", f.sig));
        h.word(u64::from(f.is_defined()));
    }
    let errs = error_functions(module);
    let mut err_names: Vec<&str> = module
        .functions
        .iter()
        .filter(|f| errs.contains(&f.id))
        .map(|f| f.name.as_str())
        .collect();
    err_names.sort_unstable();
    for n in err_names {
        h.field_str(n);
    }
    h.digest()
}

/// Lifts `old_f`'s CFG out of the previous revision and rewrites the
/// module-global ids it embeds — branch ids, switch ids, string-table
/// indices — into the new module's id space, positionally. Expression
/// node ids need no rewriting: the per-declaration id namespace
/// guarantees an unchanged declaration re-parses to identical ids.
/// Returns `None` (caller re-lowers) if any id fails to map.
fn remap_cfg(old_prog: &Program, old_f: FuncId, new_module: &Module, new_f: FuncId) -> Option<Cfg> {
    let old_cfg = old_prog.cfg_opt(old_f)?;
    let branch_map = site_map(
        old_prog
            .module
            .side
            .branches
            .iter()
            .filter(|b| b.func == old_f)
            .map(|b| b.id),
        new_module
            .side
            .branches
            .iter()
            .filter(|b| b.func == new_f)
            .map(|b| b.id),
    )?;
    let switch_map = site_map(
        old_prog
            .module
            .side
            .switches
            .iter()
            .filter(|s| s.func == old_f)
            .map(|s| s.id),
        new_module
            .side
            .switches
            .iter()
            .filter(|s| s.func == new_f)
            .map(|s| s.id),
    )?;
    let new_strings: HashMap<&str, usize> = new_module
        .strings
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), i))
        .collect();

    let mut cfg = old_cfg.clone();
    cfg.func = new_f;
    for block in &mut cfg.blocks {
        for instr in &mut block.instrs {
            if let Instr::InitStr { str_idx, .. } = instr {
                let s = old_prog.module.strings.get(*str_idx)?;
                *str_idx = *new_strings.get(s.as_str())?;
            }
        }
        match &mut block.term {
            Terminator::Branch {
                branch: Some(b), ..
            } => *b = *branch_map.get(b)?,
            Terminator::Switch { switch, .. } => *switch = *switch_map.get(switch)?,
            _ => {}
        }
    }
    Some(cfg)
}

/// Zips two equally-long id sequences into an old→new map; `None` on a
/// length mismatch (the positional correspondence would be unsound).
fn site_map<I: Copy + Eq + std::hash::Hash>(
    old: impl Iterator<Item = I>,
    new: impl Iterator<Item = I>,
) -> Option<HashMap<I, I>> {
    let old: Vec<I> = old.collect();
    let new: Vec<I> = new.collect();
    if old.len() != new.len() {
        return None;
    }
    Some(old.into_iter().zip(new).collect())
}

// Silence unused-import warnings for id types referenced in docs only.
#[allow(unused)]
fn _id_types(_: BranchId, _: SwitchId) {}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_FN: &str = r#"
int helper(int n) {
    int i, s = 0;
    for (i = 0; i < n; i++) s += i;
    return s;
}
int main(void) {
    int i, s = 0;
    for (i = 0; i < 10; i++) s += helper(i);
    return s & 255;
}
"#;

    #[test]
    fn first_load_lowers_everything() {
        let db = ServeDb::new(Some(2), None);
        let out = db.upsert("p", TWO_FN).unwrap();
        assert_eq!(out.revision, 1);
        assert_eq!(out.work.funcs_lowered, 2);
        assert_eq!(out.work.funcs_reused, 0);
        assert!(out.work.blocks_solved > 0);
    }

    #[test]
    fn unchanged_reload_reuses_everything() {
        let db = ServeDb::new(Some(2), None);
        db.upsert("p", TWO_FN).unwrap();
        let out = db.upsert("p", TWO_FN).unwrap();
        assert_eq!(out.revision, 2);
        assert_eq!(out.work.funcs_lowered, 0);
        assert_eq!(out.work.funcs_reused, 2);
        assert_eq!(out.work.blocks_solved, 0);
    }

    #[test]
    fn single_function_edit_recomputes_only_it() {
        let db = ServeDb::new(Some(2), None);
        db.upsert("p", TWO_FN).unwrap();
        let edited = TWO_FN.replace("s += i;", "s += i * 2;");
        assert_ne!(edited, TWO_FN);
        let out = db.upsert("p", &edited).unwrap();
        assert_eq!(out.work.funcs_lowered, 1);
        assert_eq!(out.work.funcs_reused, 1);
    }

    #[test]
    fn incremental_matches_cold_estimates() {
        let db = ServeDb::new(Some(2), None);
        db.upsert("p", TWO_FN).unwrap();
        let edited = TWO_FN.replace("i < 10", "i < 99");
        db.upsert("p", &edited).unwrap();

        let cold = ServeDb::new(Some(1), None);
        cold.upsert("p", &edited).unwrap();

        let a = db.entry("p").unwrap();
        let b = cold.entry("p").unwrap();
        assert_eq!(a.estimates_digest(), b.estimates_digest());
    }

    #[test]
    fn error_fn_change_invalidates_context() {
        let src0 = r#"
void die(void) { exit(1); }
int f(int p) { if (p < 0) die(); return p; }
int main(void) { return f(3); }
"#;
        // `die` stops reaching exit: the ErrorCall heuristic's input
        // changed, so every cached function must be invalidated even
        // though f's own text is untouched.
        let src1 = src0.replace("exit(1);", "return;");
        let db = ServeDb::new(Some(1), None);
        db.upsert("p", src0).unwrap();
        let out = db.upsert("p", &src1).unwrap();
        assert_eq!(
            out.work.funcs_reused, 0,
            "context change must invalidate all"
        );

        let cold = ServeDb::new(Some(1), None);
        cold.upsert("p", &src1).unwrap();
        assert_eq!(
            db.entry("p").unwrap().estimates_digest(),
            cold.entry("p").unwrap().estimates_digest()
        );
    }

    #[test]
    fn profile_runs_and_caches_in_memory() {
        let db = ServeDb::new(Some(1), None);
        db.upsert("p", TWO_FN).unwrap();
        let p1 = db.profile("p", b"").unwrap();
        let p2 = db.profile("p", b"").unwrap();
        assert!(
            Arc::ptr_eq(&p1, &p2),
            "second lookup must hit the memory layer"
        );
        assert!(p1.total_block_count() > 0);
    }

    #[test]
    fn unknown_program_is_an_error() {
        let db = ServeDb::new(Some(1), None);
        assert!(matches!(db.entry("nope"), Err(DbError::UnknownProgram(_))));
    }
}
