//! Cross-request state regression tests for long-lived sessions.
//!
//! The batch pipeline's lifetimes hid two classes of bug that a
//! resident service exposes:
//!
//! - the cache's batched writer only drains on `Drop` or when a batch
//!   fills — a daemon that never drops its `Cache` would keep every
//!   profile write invisible to other processes (and lose them on a
//!   crash). The service must flush at request boundaries.
//! - the VM's `ExecScratch` retains its high-water capacity forever —
//!   fine for a one-shot run, unbounded for a daemon that profiles one
//!   pathological program among thousands of small ones. The service's
//!   scratch pool must shed outlier capacity.
//!
//! Plus the basic residency property: concurrent profile requests
//! against a shared database produce the same bytes as serial ones.

use cache::Cache;
use profiler::{ExecScratch, RunConfig};
use serve::db::ServeDb;
use serve::session::Session;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sfe-serve-itest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SRC: &str =
    "int main(void) { int i, s = 0; for (i = 0; i < 50; i++) s += i; return s & 255; }";

#[test]
fn profile_requests_flush_cache_to_disk() {
    let dir = temp_dir("flush");
    let db = Arc::new(ServeDb::new(Some(1), Some(Cache::open(&dir).unwrap())));
    let session = Session::new(Arc::clone(&db));
    session.handle(&format!(
        r#"{{"sfe":"serve/v1","id":1,"method":"load","params":{{"program":"p","source":"{SRC}"}}}}"#
    ));
    let out =
        session.handle(r#"{"sfe":"serve/v1","id":2,"method":"profile","params":{"program":"p"}}"#);
    assert!(out.response.contains("\"result\""), "{}", out.response);

    // The daemon is still alive (db not dropped) — yet a *separate*
    // cache handle on the same directory must already see the entry.
    let other = Cache::open(&dir).unwrap();
    assert!(
        other.entry_count() > 0,
        "profile write not flushed to disk while the service is resident"
    );

    // And a fresh database over that directory must hit it: profile
    // responses are byte-identical warm (VM) vs cold (cache load).
    let db2 = Arc::new(ServeDb::new(Some(1), Some(other)));
    let session2 = Session::new(db2);
    session2.handle(&format!(
        r#"{{"sfe":"serve/v1","id":1,"method":"load","params":{{"program":"p","source":"{SRC}"}}}}"#
    ));
    let out2 =
        session2.handle(r#"{"sfe":"serve/v1","id":2,"method":"profile","params":{"program":"p"}}"#);
    assert_eq!(out.response, out2.response);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scratch_trim_sheds_outlier_capacity() {
    // Deep recursion grows the frame and data stacks; trim must bring
    // oversized buffers back down while leaving modest ones be.
    let src = r#"
int f(int n) {
    if (n <= 0) return 0;
    return f(n - 1) + 1;
}
int main(void) {
    return f(5000) & 255;
}
"#;
    let unit = minic::parser::parse(src).unwrap();
    let module = minic::sema::analyze(unit).unwrap();
    let program = flowgraph::build_program(module);
    let compiled = profiler::compile(&program);
    let mut scratch = ExecScratch::default();
    compiled
        .execute(&RunConfig::default(), &mut scratch, None)
        .unwrap();
    let grown = scratch.high_water();
    assert!(
        grown > 1024,
        "expected the run to grow the scratch, got {grown}"
    );

    scratch.trim(1024);
    assert!(
        scratch.high_water() <= 1024,
        "trim left capacity {} above the bound",
        scratch.high_water()
    );

    // Trimmed scratch still executes correctly.
    let out = compiled
        .execute(&RunConfig::default(), &mut scratch, None)
        .unwrap();
    assert_eq!(out.exit_code, 5000 & 255);

    // Trim is a no-op for buffers under the bound.
    let mut small = ExecScratch::default();
    compiled
        .execute(&RunConfig::default(), &mut small, None)
        .unwrap();
    let before = small.high_water();
    small.trim(usize::MAX);
    assert_eq!(small.high_water(), before);
}

#[test]
fn concurrent_profiles_match_serial() {
    let programs: Vec<(String, String)> = (0..6)
        .map(|i| (format!("p{i}"), fuzzgen::gen::generate(1000 + i).render()))
        .collect();

    let serial_db = Arc::new(ServeDb::new(Some(1), None));
    let serial = Session::new(Arc::clone(&serial_db));
    let mut expected = Vec::new();
    for (name, src) in &programs {
        let src_esc = src
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        serial.handle(&format!(
            r#"{{"sfe":"serve/v1","id":1,"method":"load","params":{{"program":"{name}","source":"{src_esc}"}}}}"#
        ));
        expected.push(
            serial
                .handle(&format!(
                    r#"{{"sfe":"serve/v1","id":2,"method":"profile","params":{{"program":"{name}"}}}}"#
                ))
                .response,
        );
    }

    let db = Arc::new(ServeDb::new(Some(4), None));
    let setup = Session::new(Arc::clone(&db));
    for (name, src) in &programs {
        let src_esc = src
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        setup.handle(&format!(
            r#"{{"sfe":"serve/v1","id":1,"method":"load","params":{{"program":"{name}","source":"{src_esc}"}}}}"#
        ));
    }
    let got: Vec<String> = thread::scope(|s| {
        let handles: Vec<_> = programs
            .iter()
            .map(|(name, _)| {
                let session = Session::new(Arc::clone(&db));
                let req = format!(
                    r#"{{"sfe":"serve/v1","id":2,"method":"profile","params":{{"program":"{name}"}}}}"#
                );
                s.spawn(move || session.handle(&req).response)
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(got, expected);
}

/// A `load` of pathologically nested source (20k parentheses once
/// overflowed the daemon's stack, killing every session) gets a
/// `compile-error` response, and the session keeps serving.
#[test]
fn deeply_nested_load_is_an_error_response() {
    let db = Arc::new(ServeDb::new(Some(1), None));
    let session = Session::new(db);
    let deep = format!(
        "int main(void) {{ return {}1{}; }}",
        "(".repeat(20_000),
        ")".repeat(20_000)
    );
    let out = session.handle(&format!(
        r#"{{"sfe":"serve/v1","id":1,"method":"load","params":{{"program":"deep","source":"{deep}"}}}}"#
    ));
    assert!(
        out.response.contains("\"compile-error\"") && out.response.contains("nesting too deep"),
        "{}",
        out.response
    );
    let out = session.handle(&format!(
        r#"{{"sfe":"serve/v1","id":2,"method":"load","params":{{"program":"p","source":"{SRC}"}}}}"#
    ));
    assert!(out.response.contains("\"result\""), "{}", out.response);
}
