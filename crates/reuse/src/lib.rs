//! # reuse — static reuse-distance estimation
//!
//! The paper's recipe is *predict a runtime distribution statically,
//! then score the prediction against an exact profile*. This crate
//! applies it to memory behavior: it predicts, without executing the
//! program, the **reuse-distance histogram** of every global array —
//! the number of distinct other words touched between consecutive
//! accesses to the same word, the quantity that determines cache hit
//! rates at every capacity simultaneously.
//!
//! The prediction pipeline:
//!
//! 1. **Frequencies** — the Markov intra-procedural estimator gives
//!    per-block execution frequencies (entry = 1) with static trip
//!    counts folded in, and the Markov inter-procedural estimator
//!    gives per-function invocation counts, so accesses behind skewed
//!    branches are weighted exactly as the paper weights instruction
//!    frequencies.
//! 2. **Loop nests** — [`flowgraph::analysis::LoopForest`] organizes
//!    each CFG's natural loops into a nesting forest.
//! 3. **Access sites** — [`minic::access`] classifies global-array
//!    subscripts (`a[i][j]` with per-dimension strides), global
//!    scalars, and string-literal reads by output builtins.
//! 4. **Reuse model** — per site, the innermost enclosing loop whose
//!    iterations revisit the same addresses (index variables either
//!    invariant or driven by deeper loops that replay each iteration)
//!    is the *reuse loop*; the predicted distance is the data
//!    footprint of one iteration of that loop, computed from the same
//!    frequencies. Sites that vary at every level (hash probes,
//!    streaming scans) fall back to the whole-invocation footprint,
//!    first touches are cold, and compound assignments contribute
//!    their write at distance 0.
//!
//! [`score`] compares a prediction against the exact trace collected
//! by a traced `profiler::CompiledProgram::execute` with the same
//! weight-matching metric the frequency estimators use (§6 of the
//! paper).

#![warn(missing_docs)]

use flowgraph::analysis::LoopForest;
use flowgraph::{Block, BlockId, Cfg, Instr, Program, Terminator};
use minic::access::{self, VarRef};
use minic::ast::{Expr, ExprKind, UnOp};
use minic::builtins::Builtin;
use minic::sema::{CalleeKind, FuncId, GlobalId, Module};
use minic::types::Type;
use profiler::reuse::{bin_of, ObjectMap, ReuseTrace};
pub use profiler::reuse::{BINS, COLD_BIN};
use std::collections::{HashMap, HashSet};

use estimators::inter::{estimate_invocations, InterEstimator};
use estimators::intra::{edge_probabilities, estimate_program_with, IntraEstimator, IntraOptions};

/// Guard for divisions by tiny frequencies.
const EPS: f64 = 1e-9;

/// The score cutoff used by [`score`] — the same fraction the CLI's
/// frequency-estimator tables use.
pub const SCORE_CUTOFF: f64 = 0.25;

/// A statically predicted reuse-distance histogram, shaped exactly
/// like [`profiler::reuse::ReuseTrace`]: one histogram per object
/// (globals in declaration order, then the `<str/heap>` catch-all),
/// with fractional expected access counts per distance bin.
#[derive(Debug, Clone)]
pub struct ReuseEstimate {
    /// Object names, parallel to `hists`.
    pub names: Vec<String>,
    /// Per-object expected accesses per bin (see
    /// [`profiler::reuse::bin_of`]; the last bin is cold misses).
    pub hists: Vec<[f64; BINS]>,
}

impl ReuseEstimate {
    fn empty(map: &ObjectMap) -> Self {
        ReuseEstimate {
            names: map.names().to_vec(),
            hists: vec![[0.0; BINS]; map.len()],
        }
    }

    /// Total predicted accesses.
    pub fn total(&self) -> f64 {
        self.hists.iter().flatten().sum()
    }

    /// The flattened `(object × bin)` distribution, normalized to sum
    /// to 1 (all zeros when nothing was predicted). Comparable cell
    /// for cell with [`ReuseTrace::mass`].
    pub fn mass(&self) -> Vec<f64> {
        let total = self.total();
        let scale = if total > 0.0 { 1.0 / total } else { 0.0 };
        self.hists.iter().flatten().map(|&v| v * scale).collect()
    }
}

/// Scores a prediction against an exact trace with the paper's
/// weight-matching metric at the standard cutoff: the fraction of the
/// top quarter of traced mass that the estimate also places in its
/// top quarter (1.0 = perfect agreement on where the mass is).
pub fn score(est: &ReuseEstimate, trace: &ReuseTrace) -> f64 {
    estimators::weight_matching(&est.mass(), &trace.mass(), SCORE_CUTOFF)
}

/// Predicts the reuse-distance histogram of every object in
/// `program` without executing it.
pub fn estimate(program: &Program) -> ReuseEstimate {
    let _sp = obs::span("reuse.estimate");
    let map = ObjectMap::for_module(&program.module);
    let intra = estimate_program_with(
        program,
        IntraEstimator::Markov,
        &IntraOptions {
            trip_counts: true,
            ..IntraOptions::default()
        },
    );
    let inter = estimate_invocations(program, &intra, InterEstimator::Markov);
    let mut est = ReuseEstimate::empty(&map);
    let mut n_sites = 0u64;
    for f in program.defined_ids() {
        let w = inter.of(f);
        if w <= 0.0 || !w.is_finite() {
            continue;
        }
        n_sites += FuncModel::build(
            program,
            f,
            &intra.block_freqs[f.0 as usize],
            &intra.predictions,
            &map,
        )
        .accumulate(w, &mut est);
    }
    if obs::enabled() {
        obs::counter_add("reuse.estimates", 1);
        obs::counter_add("reuse.sites", n_sites);
    }
    est
}

// ----- access sites -----

/// One classified access site: a place in one block that touches a
/// known object with a static index shape.
struct Site {
    block: BlockId,
    /// Object index in [`ObjectMap`] order.
    obj: usize,
    /// Words the whole object can hold (caps every footprint term).
    cap: f64,
    /// Distinct words touched per execution (1 for scalar elements;
    /// `len + 1` for a string literal; half the buffer for a string
    /// builtin scanning a global `char` array).
    width: f64,
    /// Accesses per word per execution: 1, or 2 for read-modify-write.
    mult: f64,
    /// Variables the address depends on.
    vary: HashSet<VarRef>,
}

/// Walks one function's blocks collecting [`Site`]s.
struct Scanner<'p> {
    module: &'p Module,
    catch_all: usize,
    catch_all_cap: f64,
    block: BlockId,
    sites: Vec<Site>,
}

impl<'p> Scanner<'p> {
    fn scan_cfg(module: &'p Module, cfg: &Cfg, map: &ObjectMap) -> Vec<Site> {
        let catch_all_cap = module
            .strings
            .iter()
            .map(|s| s.len() as f64 + 1.0)
            .sum::<f64>()
            .max(1.0);
        let mut scanner = Scanner {
            module,
            catch_all: map.len() - 1,
            catch_all_cap,
            block: cfg.entry,
            sites: Vec::new(),
        };
        for b in &cfg.blocks {
            scanner.block = b.id;
            for e in block_exprs(b) {
                scanner.scan(e);
            }
        }
        scanner.sites
    }

    fn emit_array(&mut self, acc: &access::ArrayAccess<'_>, mult: f64) {
        let g = &self.module.globals[acc.global.0 as usize];
        let mut vary = HashSet::new();
        for i in &acc.indices {
            access::collect_vars(self.module, i, &mut vary);
        }
        self.sites.push(Site {
            block: self.block,
            obj: acc.global.0 as usize,
            cap: g.size as f64,
            width: 1.0,
            mult,
            vary,
        });
    }

    fn emit_scalar(&mut self, gid: GlobalId, mult: f64) {
        self.sites.push(Site {
            block: self.block,
            obj: gid.0 as usize,
            cap: 1.0,
            width: 1.0,
            mult,
            vary: HashSet::new(),
        });
    }

    /// A string builtin touching `arg`: a literal contributes its
    /// `len + 1` words to the catch-all object; a global `char`
    /// buffer contributes an expected half-scan of itself.
    fn emit_string_arg(&mut self, arg: &Expr) {
        match &arg.kind {
            ExprKind::StrLit(_) => {
                let Some(s) = self.module.side.str_index(arg.id) else {
                    return;
                };
                let width = self.module.strings[s].len() as f64 + 1.0;
                self.sites.push(Site {
                    block: self.block,
                    obj: self.catch_all,
                    cap: self.catch_all_cap.min(width),
                    width,
                    mult: 1.0,
                    vary: HashSet::new(),
                });
            }
            ExprKind::Ident(_) => {
                let Some(minic::sema::Resolution::Global(gid)) =
                    self.module.side.resolution(arg.id)
                else {
                    return;
                };
                let g = &self.module.globals[gid.0 as usize];
                if let Type::Array(elem, n) = &g.ty {
                    if matches!(**elem, Type::Char) {
                        self.sites.push(Site {
                            block: self.block,
                            obj: gid.0 as usize,
                            cap: *n as f64,
                            width: (*n as f64 / 2.0).max(1.0),
                            mult: 1.0,
                            vary: HashSet::new(),
                        });
                    }
                }
            }
            _ => {}
        }
    }

    /// Classifies a store target; unclassified places (pointer
    /// stores, members, locals) still have their subscripts scanned.
    fn scan_place(&mut self, lhs: &Expr, mult: f64) {
        if let Some(acc) = access::array_access(self.module, lhs) {
            for i in acc.indices.iter().copied() {
                self.scan(i);
            }
            self.emit_array(&acc, mult);
        } else if let Some(gid) = access::scalar_global(self.module, lhs) {
            self.emit_scalar(gid, mult);
        } else {
            lhs.for_each_child(&mut |c| self.scan(c));
        }
    }

    fn scan(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Assign(op, lhs, rhs) => {
                self.scan(rhs);
                self.scan_place(lhs, if op.is_some() { 2.0 } else { 1.0 });
            }
            ExprKind::Unary(UnOp::PreInc | UnOp::PostInc | UnOp::PreDec | UnOp::PostDec, inner) => {
                self.scan_place(inner, 2.0);
            }
            ExprKind::Index(..) => {
                if let Some(acc) = access::array_access(self.module, e) {
                    for i in acc.indices.iter().copied() {
                        self.scan(i);
                    }
                    self.emit_array(&acc, 1.0);
                } else {
                    e.for_each_child(&mut |c| self.scan(c));
                }
            }
            ExprKind::Ident(_) => {
                if let Some(gid) = access::scalar_global(self.module, e) {
                    self.emit_scalar(gid, 1.0);
                }
            }
            ExprKind::Call(_, args) => {
                if let Some(b) = builtin_of(self.module, e) {
                    for &pos in string_touch_positions(b, args.len()) {
                        if let Some(a) = args.get(pos) {
                            self.emit_string_arg(a);
                        }
                    }
                }
                for a in args {
                    self.scan(a);
                }
            }
            _ => e.for_each_child(&mut |c| self.scan(c)),
        }
    }
}

fn builtin_of(module: &Module, call: &Expr) -> Option<Builtin> {
    let site = module.side.call_site(call.id)?;
    match module.side.call_sites[site.0 as usize].callee {
        CalleeKind::Builtin(b) => Some(b),
        _ => None,
    }
}

/// Argument positions of `b` that reach memory through C strings.
fn string_touch_positions(b: Builtin, nargs: usize) -> &'static [usize] {
    const ALL: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
    match b {
        // Format + every vararg: `%s` operands read their strings.
        Builtin::Printf => &ALL[..nargs.min(ALL.len())],
        Builtin::Sprintf => &ALL[1..nargs.min(ALL.len())],
        Builtin::Puts | Builtin::Strlen | Builtin::Atoi => &ALL[..1],
        Builtin::Strcpy | Builtin::Strcat | Builtin::Strcmp | Builtin::Strncmp => &ALL[..2],
        _ => &[],
    }
}

/// Top-level expressions of a block (instruction and terminator).
fn block_exprs(b: &Block) -> Vec<&Expr> {
    let mut out: Vec<&Expr> = Vec::new();
    for i in &b.instrs {
        match i {
            Instr::Eval(e) | Instr::Init { value: e, .. } => out.push(e),
            Instr::InitStr { .. } | Instr::InitZero { .. } => {}
        }
    }
    match &b.term {
        Terminator::Branch { cond, .. } => out.push(cond),
        Terminator::Switch { scrut, .. } => out.push(scrut),
        Terminator::Return(Some(e)) => out.push(e),
        _ => {}
    }
    out
}

// ----- per-function reuse model -----

struct FuncModel<'p> {
    module: &'p Module,
    map: &'p ObjectMap,
    freqs: &'p [f64],
    forest: LoopForest,
    /// Variables modified anywhere inside each loop's body.
    mods: Vec<HashSet<VarRef>>,
    /// Markov trip estimate per loop: header frequency over
    /// loop-entry frequency.
    trips: Vec<f64>,
    sites: Vec<Site>,
    /// Loop nest of each site's block, innermost first (memoized).
    nests: Vec<Vec<usize>>,
}

impl<'p> FuncModel<'p> {
    fn build(
        program: &'p Program,
        f: FuncId,
        freqs: &'p [f64],
        predictions: &estimators::Predictions,
        map: &'p ObjectMap,
    ) -> Self {
        let module = &program.module;
        let cfg = program.cfg(f);
        let forest = LoopForest::compute(cfg);
        let probs = edge_probabilities(program, cfg, predictions);
        let edge_ids = cfg.edge_ids();
        let preds = cfg.predecessors();

        let mods: Vec<HashSet<VarRef>> = forest
            .loops
            .iter()
            .map(|l| {
                let mut set = HashSet::new();
                for &b in &l.body {
                    collect_mods(module, cfg.block(b), &mut set);
                }
                set
            })
            .collect();

        let freq = |b: BlockId| freqs.get(b.0 as usize).copied().unwrap_or(0.0);
        let trips: Vec<f64> = forest
            .loops
            .iter()
            .map(|l| {
                let head = freq(l.header).max(EPS);
                let enter: f64 = preds[l.header.0 as usize]
                    .iter()
                    .filter(|p| !l.contains(**p))
                    .map(|&p| {
                        let edge = cfg.edge_id(&edge_ids, p, l.header);
                        freq(p) * edge.map_or(0.0, |e| probs[e])
                    })
                    .sum();
                (head / enter.max(EPS)).clamp(1.0, 1e9)
            })
            .collect();

        let sites = Scanner::scan_cfg(module, cfg, map);
        let nests = sites.iter().map(|s| forest.nest_of(s.block)).collect();
        FuncModel {
            module,
            map,
            freqs,
            forest,
            mods,
            trips,
            sites,
            nests,
        }
    }

    fn freq(&self, b: BlockId) -> f64 {
        self.freqs.get(b.0 as usize).copied().unwrap_or(0.0)
    }

    /// Whether `v` replays the same trajectory every iteration of the
    /// loop at nest position `pos`: it is driven by a deeper loop.
    fn replays(&self, nest: &[usize], pos: usize, v: VarRef) -> bool {
        nest[..pos].iter().any(|&li| self.mods[li].contains(&v))
    }

    /// The site's *reuse loop* within the innermost `limit` nest
    /// levels: the innermost loop whose iterations revisit the same
    /// addresses — every index variable is either not modified in the
    /// loop or replayed by a deeper one. `None` = varies everywhere.
    fn reuse_level(&self, s: usize, limit: usize) -> Option<usize> {
        let nest = &self.nests[s];
        let vary = &self.sites[s].vary;
        (0..limit.min(nest.len())).find(|&j| {
            vary.iter()
                .all(|v| !self.mods[nest[j]].contains(v) || self.replays(nest, j, *v))
        })
    }

    /// Expected distinct words the site touches during one iteration
    /// of the loop at nest position `bound` (`bound = nest.len()`
    /// means one whole function invocation). The base rate is the
    /// site's execution count per iteration of its reuse loop; each
    /// enclosing loop (up to the bound) that freshly drives an index
    /// variable multiplies by its trip count; the object caps it.
    fn distinct(&self, s: usize, bound: usize) -> f64 {
        let site = &self.sites[s];
        let nest = &self.nests[s];
        let bound = bound.min(nest.len());
        let m = self.reuse_level(s, bound);
        let base_freq = match m {
            Some(j) => self.freq(self.forest.loops[nest[j]].header).max(EPS),
            None if bound < nest.len() => self.freq(self.forest.loops[nest[bound]].header).max(EPS),
            None => 1.0,
        };
        let mut d = site.width * self.freq(site.block) / base_freq;
        if let Some(j0) = m {
            for (j, &lj) in nest.iter().enumerate().take(bound).skip(j0 + 1) {
                let fresh = site
                    .vary
                    .iter()
                    .any(|v| self.mods[lj].contains(v) && !self.replays(nest, j, *v));
                if fresh {
                    d *= self.trips[lj];
                }
            }
        }
        d.min(site.cap)
    }

    /// Data footprint (expected distinct words across all objects) of
    /// one iteration of loop `li`, or of one whole invocation.
    fn footprint(&self, li: Option<usize>) -> f64 {
        let mut per_obj: HashMap<usize, f64> = HashMap::new();
        for s in 0..self.sites.len() {
            let (inside, bound) = match li {
                Some(li) => {
                    let pos = self.nests[s].iter().position(|&l| l == li);
                    (pos.is_some(), pos.unwrap_or(0))
                }
                None => (true, self.nests[s].len()),
            };
            if !inside {
                continue;
            }
            *per_obj.entry(self.sites[s].obj).or_insert(0.0) += self.distinct(s, bound);
        }
        per_obj
            .into_iter()
            .map(|(obj, words)| words.min(self.obj_cap(obj)))
            .sum()
    }

    fn obj_cap(&self, obj: usize) -> f64 {
        if obj + 1 == self.map.len() {
            // Catch-all: all string literals (heap is unmodeled).
            self.module
                .strings
                .iter()
                .map(|s| s.len() as f64 + 1.0)
                .sum::<f64>()
                .max(1.0)
        } else {
            self.module.globals[obj].size as f64
        }
    }

    /// Adds this function's predicted accesses (scaled by `w`
    /// invocations) into `est`. Returns the number of sites.
    fn accumulate(&self, w: f64, est: &mut ReuseEstimate) -> u64 {
        // Footprints are shared across sites; memoize per reuse level.
        let mut fp: HashMap<Option<usize>, f64> = HashMap::new();
        let mut fp_of = |model: &Self, li: Option<usize>| -> f64 {
            *fp.entry(li).or_insert_with(|| model.footprint(li))
        };
        for s in 0..self.sites.len() {
            let site = &self.sites[s];
            let freq = self.freq(site.block);
            if freq <= 0.0 || !freq.is_finite() {
                continue;
            }
            let nest_len = self.nests[s].len();
            let reads_inv = freq * site.width;
            let writes_inv = reads_inv * (site.mult - 1.0);
            // Distinct words one invocation ever touches.
            let cold_inv = self.distinct(s, nest_len).min(reads_inv);
            let m = self.reuse_level(s, nest_len);
            let d_intra = match m {
                Some(j) => fp_of(self, Some(self.nests[s][j])),
                None => fp_of(self, None),
            };
            let d_cross = fp_of(self, None);
            let hist = &mut est.hists[site.obj];
            // First invocation: cold first touches, then intra reuse.
            hist[COLD_BIN] += cold_inv;
            hist[dist_bin(d_intra)] += (reads_inv - cold_inv).max(0.0) * w;
            // Later invocations re-touch the "cold" set at the
            // whole-invocation footprint.
            hist[dist_bin(d_cross)] += cold_inv * (w - 1.0).max(0.0);
            // The write of a read-modify-write lands at distance 0.
            hist[0] += writes_inv * w;
        }
        self.sites.len() as u64
    }
}

/// Distance → histogram bin, with the self-word discounted.
fn dist_bin(footprint: f64) -> usize {
    let d = (footprint - 1.0).max(0.0).round();
    bin_of(d.min(9e15) as u64)
}

/// Records every variable assigned anywhere in `b` (assignments,
/// `++`/`--`, and declaration initializers).
fn collect_mods(module: &Module, b: &Block, out: &mut HashSet<VarRef>) {
    fn record_ident(module: &Module, e: &Expr, out: &mut HashSet<VarRef>) {
        if let ExprKind::Ident(_) = e.kind {
            match module.side.resolution(e.id) {
                Some(minic::sema::Resolution::Local(l)) => {
                    out.insert(VarRef::Local(l));
                }
                Some(minic::sema::Resolution::Global(g)) => {
                    out.insert(VarRef::Global(g));
                }
                _ => {}
            }
        }
    }
    fn record(module: &Module, e: &Expr, out: &mut HashSet<VarRef>) {
        match &e.kind {
            ExprKind::Assign(_, lhs, _) => record_ident(module, lhs, out),
            ExprKind::Unary(UnOp::PreInc | UnOp::PostInc | UnOp::PreDec | UnOp::PostDec, inner) => {
                record_ident(module, inner, out)
            }
            _ => {}
        }
    }
    for i in &b.instrs {
        match i {
            Instr::Eval(e) => e.walk(&mut |e| record(module, e, out)),
            Instr::Init { local, value, .. } => {
                out.insert(VarRef::Local(*local));
                value.walk(&mut |e| record(module, e, out));
            }
            Instr::InitStr { local, .. } | Instr::InitZero { local, .. } => {
                out.insert(VarRef::Local(*local));
            }
        }
    }
    match &b.term {
        Terminator::Branch { cond, .. } => cond.walk(&mut |e| record(module, e, out)),
        Terminator::Switch { scrut, .. } => scrut.walk(&mut |e| record(module, e, out)),
        Terminator::Return(Some(e)) => e.walk(&mut |e| record(module, e, out)),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use profiler::{ReuseCollector, RunConfig};

    fn program(src: &str) -> Program {
        let module = minic::compile(src).expect("valid MiniC");
        flowgraph::build_program(module)
    }

    #[test]
    fn estimate_is_finite_and_normalized() {
        let p = program(
            r#"
            int a[64]; int sum;
            int main(void) {
                int i, j;
                for (i = 0; i < 16; i++)
                    for (j = 0; j < 64; j++)
                        sum += a[j];
                printf("%d\n", sum);
                return 0;
            }
            "#,
        );
        let est = estimate(&p);
        let mass = est.mass();
        assert!(mass.iter().all(|v| v.is_finite() && *v >= 0.0));
        let total: f64 = mass.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "normalized, got {total}");
    }

    #[test]
    fn invariant_scalar_predicts_short_distances() {
        // `sum` is re-touched every iteration with only `a[j]` in
        // between: nearly all its accesses should be short-distance,
        // and `a`'s accesses mostly cold + streaming.
        let p = program(
            r#"
            int a[64]; int sum;
            int main(void) {
                int j;
                for (j = 0; j < 64; j++) sum += a[j];
                return sum;
            }
            "#,
        );
        let est = estimate(&p);
        let sum_obj = est.names.iter().position(|n| n == "sum").unwrap();
        let h = &est.hists[sum_obj];
        let near: f64 = h[..4].iter().sum();
        let total: f64 = h.iter().sum();
        assert!(total > 0.0);
        assert!(
            near / total > 0.8,
            "sum should reuse at short distance: {h:?}"
        );
        let a_obj = est.names.iter().position(|n| n == "a").unwrap();
        assert!(
            est.hists[a_obj][COLD_BIN] > 32.0,
            "streaming scan of a[] is mostly cold: {:?}",
            est.hists[a_obj]
        );
    }

    #[test]
    fn scores_well_against_exact_trace_on_loop_nest() {
        let p = program(
            r#"
            int a[32][32]; int b[32]; int acc;
            int main(void) {
                int i, j;
                for (i = 0; i < 32; i++)
                    for (j = 0; j < 32; j++)
                        acc += a[i][j] * b[j];
                printf("%d\n", acc);
                return 0;
            }
            "#,
        );
        let est = estimate(&p);
        let mut tap = ReuseCollector::new(ObjectMap::for_module(&p.module));
        profiler::compile(&p)
            .execute(&RunConfig::default(), Some(&mut tap))
            .expect("runs");
        let trace = tap.finish();
        let s = score(&est, &trace);
        assert!(s > 0.5, "weight-matching score too low: {s}");
    }
}
