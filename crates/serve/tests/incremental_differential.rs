//! Incremental-correctness differential suite.
//!
//! For 300 fuzzgen seeds: load the generated program, apply one
//! deterministic single-function mutation, `update` the resident
//! database — then cold-load the mutated source into a fresh database
//! and require the *byte-identical* wire responses for every estimator
//! combination. Reuse is not allowed to change a single bit of any
//! estimate; it is only allowed to skip work, which the aggregate
//! work-counter assertion at the bottom confirms it actually does.

use serve::db::ServeDb;
use serve::edits::mutate;
use serve::session::Session;
use std::sync::Arc;

const SEEDS: u64 = 300;

fn estimate_requests(name: &str) -> Vec<String> {
    let mut out = Vec::new();
    for estimator in ["loop", "smart", "markov"] {
        for inter in ["call-site", "direct", "all-rec", "all-rec2", "markov"] {
            out.push(format!(
                r#"{{"sfe":"serve/v1","id":1,"method":"estimate","params":{{"estimator":"{estimator}","inter":"{inter}","program":"{name}"}}}}"#
            ));
        }
    }
    out
}

#[test]
fn incremental_update_is_byte_identical_to_cold_recompute() {
    let warm_db = Arc::new(ServeDb::new(None));
    let mut mutated = 0u64;
    let mut profiled = 0u64;

    for seed in 0..SEEDS {
        let mut prog = fuzzgen::gen::generate(seed);
        let src0 = prog.render();
        let name = format!("diff/{seed}");
        warm_db
            .upsert(&name, &src0)
            .unwrap_or_else(|e| panic!("seed {seed}: base load failed: {e:?}"));

        let mut rng = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        if !mutate(&mut prog, &mut rng) {
            continue;
        }
        mutated += 1;
        let src1 = prog.render();
        assert_ne!(src0, src1, "seed {seed}: mutation must change the source");
        warm_db
            .upsert(&name, &src1)
            .unwrap_or_else(|e| panic!("seed {seed}: incremental update failed: {e:?}"));

        // Cold recompute in a fresh database.
        let cold_db = Arc::new(ServeDb::new(None));
        cold_db
            .upsert(&name, &src1)
            .unwrap_or_else(|e| panic!("seed {seed}: cold load failed: {e:?}"));

        let warm_entry = warm_db.entry(&name).unwrap();
        let cold_entry = cold_db.entry(&name).unwrap();
        assert_eq!(
            warm_entry.estimates_digest(),
            cold_entry.estimates_digest(),
            "seed {seed}: estimate digests diverge after incremental update"
        );

        // Wire-level: every estimator combination, byte for byte. The
        // `revision` field necessarily differs (2 vs 1), so compare
        // with it normalized.
        let warm = Session::new(Arc::clone(&warm_db));
        let cold = Session::new(Arc::clone(&cold_db));
        for req in estimate_requests(&name) {
            let a = warm
                .handle(&req)
                .response
                .replace("\"revision\":2", "\"revision\":1");
            let b = cold.handle(&req).response;
            assert_eq!(a, b, "seed {seed}: wire response diverges for {req}");
        }

        // Profiles execute the *reused* CFGs on the VM — a remapped
        // string index or branch id would surface here. Sampled: VM
        // runs dominate test time.
        if seed % 10 == 0 {
            profiled += 1;
            let req = format!(
                r#"{{"sfe":"serve/v1","id":1,"method":"profile","params":{{"program":"{name}"}}}}"#
            );
            let a = warm.handle(&req).response;
            let b = cold.handle(&req).response;
            assert_eq!(a, b, "seed {seed}: profile response diverges");
        }
    }

    assert!(
        mutated >= SEEDS * 9 / 10,
        "only {mutated}/{SEEDS} seeds produced a mutation"
    );
    assert!(profiled >= SEEDS / 20, "profile sampling broke: {profiled}");

    // Reuse must actually happen: across all updates, a substantial
    // share of function artifacts must have been carried over rather
    // than recomputed (single-function edits leave the other functions
    // untouched; whole-module invalidations from context changes are
    // the minority).
    let work = warm_db.total_work();
    assert!(
        work.funcs_reused * 3 >= work.funcs_lowered,
        "too little reuse: {work:?}"
    );
}

#[test]
fn suite_program_edit_is_byte_identical_and_cheap() {
    // Same differential on a real suite program (many functions), plus
    // the work-ratio property on a single concrete case: editing one
    // function of `compress` must cost well under half of a cold load
    // of `compress` in work units (the <10% bound against the whole
    // suite is `compress_edit_redoes_under_a_tenth_of_the_suite_load`).
    let program = suite::all()
        .into_iter()
        .find(|p| p.name == "compress")
        .expect("compress in suite");
    let src0 = program.source;
    let src1 = serve::edits::edit_function_source(src0, 3).expect("editable function");

    let warm = Arc::new(ServeDb::new(None));
    let cold_out;
    let warm_out;
    {
        warm.upsert("compress", src0).unwrap();
        warm_out = warm.upsert("compress", &src1).unwrap();
        let cold = Arc::new(ServeDb::new(None));
        cold_out = cold.upsert("compress", &src1).unwrap();
        assert_eq!(
            warm.entry("compress").unwrap().estimates_digest(),
            cold.entry("compress").unwrap().estimates_digest(),
            "suite edit: estimates diverge"
        );
    }
    assert_eq!(warm_out.fingerprint, cold_out.fingerprint);
    assert!(
        warm_out.work.total_units() * 2 < cold_out.work.total_units(),
        "incremental {:?} not cheaper than cold {:?}",
        warm_out.work,
        cold_out.work
    );
    assert!(warm_out.work.funcs_reused > 0);
}

#[test]
fn compress_edit_redoes_under_a_tenth_of_the_suite_load() {
    // The incremental contract at suite scale: after a cold load of all
    // 14 suite programs with their inputs, a single-function edit of
    // `compress` must redo < 10% of that load's work units, reuse the
    // untouched functions, and land on the same database state as a
    // cold load of the edited suite.
    let programs = suite::all();
    let compress = suite::by_name("compress").expect("compress in suite");
    let edited = serve::edits::edit_function_source(compress.source, 3).expect("editable function");

    let db = Arc::new(ServeDb::new(None));
    let mut full_units = 0u64;
    for p in &programs {
        let outcome = db
            .upsert_with_inputs(p.name, p.source, Some(p.inputs()))
            .unwrap_or_else(|e| panic!("cold load of {} failed: {e:?}", p.name));
        full_units += outcome.work.total_units();
    }
    let inc = db
        .upsert("compress", &edited)
        .expect("incremental update of compress");
    let inc_units = inc.work.total_units();
    assert!(
        inc.work.funcs_reused > 0 && inc.work.funcs_lowered < inc.funcs as u64,
        "update re-lowered the whole module: {:?}",
        inc.work
    );
    assert!(
        inc_units * 10 < full_units,
        "single-function update did {inc_units} of {full_units} units \
         ({:.1}% — incremental contract is < 10%)",
        inc_units as f64 / full_units as f64 * 100.0
    );

    let cold = Arc::new(ServeDb::new(None));
    for p in &programs {
        let src = if p.name == "compress" {
            edited.as_str()
        } else {
            p.source
        };
        cold.upsert_with_inputs(p.name, src, Some(p.inputs()))
            .unwrap_or_else(|e| panic!("cold reload of {} failed: {e:?}", p.name));
    }
    assert_eq!(
        db.state_digest(),
        cold.state_digest(),
        "incremental update diverged from a cold load of the edited suite"
    );
}

/// A program whose first function precedes the struct declarations, so
/// a name added to it renumbers every symbol after it — the struct
/// tags, the fields both structs share, and every name in `walk` and
/// `main` — while their text, ordinals and the module context stay
/// unchanged.
const RENUMBERED: &str = r#"
int first(int n) { return n + 1; }
struct node { int key; struct node *next; };
struct pair { int next; int key; };
struct node cells[4];
struct pair pairs[2];
int walk(struct node *p, struct pair *q) {
    int sum = 0;
    while (p) {
        sum = sum + p->key * q->key + q->next;
        p = p->next;
    }
    printf("walked %d\n", sum);
    return sum;
}
int main(void) {
    int i;
    for (i = 0; i < 4; i++) {
        cells[i].key = first(i);
        cells[i].next = i < 3 ? &cells[i + 1] : 0;
    }
    pairs[1].key = 3;
    pairs[1].next = 5;
    printf("%s %d\n", "done", walk(&cells[0], &pairs[1]));
    return 0;
}
"#;

#[test]
fn a_new_name_before_unchanged_functions_renumbers_them_and_they_are_still_reused() {
    // Symbols are per unit, numbered by first appearance: the new local
    // in `first` shifts the symbol of every name first seen after it.
    // `walk` and `main` keep their text and ordinal, so their CFGs are
    // reused from the old revision, whose expressions carry the *old*
    // symbols — any pass that read a name from them would now resolve
    // the wrong spelling. Warm output must still equal cold output.
    let edited = RENUMBERED.replacen(
        "int first(int n) { return n + 1; }",
        "int first(int n) { int fresh = 1; return n + fresh; }",
        1,
    );
    assert_ne!(edited, RENUMBERED);

    let warm_db = Arc::new(ServeDb::new(None));
    warm_db.upsert("renumbered", RENUMBERED).unwrap();
    let before = warm_db.entry("renumbered").unwrap();
    let update = warm_db.upsert("renumbered", &edited).unwrap();
    let after = warm_db.entry("renumbered").unwrap();
    assert_eq!(update.work.funcs_lowered, 1, "{:?}", update.work);
    assert_eq!(update.work.funcs_reused, 2, "{:?}", update.work);
    let (old, new) = (&before.program.module.names, &after.program.module.names);
    for name in ["key", "next", "walk", "sum", "main"] {
        assert_ne!(old.get(name), new.get(name), "`{name}` keeps its symbol");
    }

    let cold_db = Arc::new(ServeDb::new(None));
    cold_db.upsert("renumbered", &edited).unwrap();
    assert_eq!(
        after.estimates_digest(),
        cold_db.entry("renumbered").unwrap().estimates_digest()
    );
    let warm = Session::new(Arc::clone(&warm_db));
    let cold = Session::new(Arc::clone(&cold_db));
    let profile =
        r#"{"sfe":"serve/v1","id":1,"method":"profile","params":{"program":"renumbered"}}"#;
    let mut requests = estimate_requests("renumbered");
    requests.push(profile.to_string());
    for req in requests {
        let a = warm
            .handle(&req)
            .response
            .replace("\"revision\":2", "\"revision\":1");
        let b = cold.handle(&req).response;
        assert_eq!(a, b, "wire response diverges for {req}");
    }
    let run = profiler::run(&after.program, &profiler::RunConfig::default()).unwrap();
    assert_eq!(run.stdout(), "walked 50\ndone 50\n");
}

/// Every side-table fact sema recorded for the ids of namespace `d`,
/// one rendered row per id.
fn side_rows(module: &minic::Module, d: usize) -> Vec<String> {
    let side = &module.side;
    side.index()
        .ids(d)
        .map(|id| {
            format!(
                "{:?}",
                (
                    side.ty(id),
                    side.resolution(id),
                    side.call_site(id),
                    side.branch(id),
                    side.switch(id),
                    side.const_value(id),
                    side.str_index(id),
                    side.local(id),
                    side.field_offset(id),
                )
            )
        })
        .collect()
}

#[test]
fn unchanged_functions_keep_byte_identical_side_table_rows() {
    // The property CFG reuse rests on: after a one-function edit, a
    // function whose text and ordinal are unchanged re-parses to the
    // same node ids, and sema gives those ids the same rows.
    let compress = suite::by_name("compress").expect("compress in suite");
    let edited = serve::edits::edit_function_source(compress.source, 3).expect("editable function");
    let db = Arc::new(ServeDb::new(None));
    db.upsert("compress", compress.source).unwrap();
    let before = db.entry("compress").unwrap();
    db.upsert("compress", &edited).unwrap();
    let after = db.entry("compress").unwrap();
    let (old, new) = (&before.program.module, &after.program.module);

    let namespaces = |m: &minic::Module| -> Vec<usize> {
        m.defined_functions()
            .map(|f| (f.body.as_ref().unwrap().id.0 >> minic::ast::DECL_SHIFT) as usize)
            .collect()
    };
    assert_eq!(namespaces(old), namespaces(new));
    let (mut same, mut changed) = (0, 0);
    for (i, d) in namespaces(old).into_iter().enumerate() {
        if i == 3 {
            assert_ne!(side_rows(old, d), side_rows(new, d), "the edited function");
            changed += 1;
        } else {
            assert_eq!(side_rows(old, d), side_rows(new, d), "function {i}");
            same += 1;
        }
    }
    assert_eq!(changed, 1);
    assert!(same >= 10, "compress has {same} unchanged functions");
}
