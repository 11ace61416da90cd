//! Cross-request state regression tests for long-lived sessions.
//!
//! The batch pipeline's lifetimes hid two classes of bug that a
//! resident service exposes:
//!
//! - a daemon never drops its `Cache`, so any write the cache held
//!   back until drop would stay invisible to other processes (and be
//!   lost on a crash). Every profile the service computes must be on
//!   disk by the time its response goes out.
//! - the VM's recycled buffers would keep their high-water capacity
//!   forever — fine for a one-shot run, unbounded for a daemon that
//!   profiles one pathological program among thousands of small ones.
//!   The profiler trims them after every run; its unit tests pin that.
//!
//! Plus the basic residency property: concurrent profile requests
//! against a shared database produce the same bytes as serial ones.

use cache::Cache;
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
    let db = Arc::new(ServeDb::new(Some(Cache::open(&dir).unwrap())));
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
    let db2 = Arc::new(ServeDb::new(Some(other)));
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
fn concurrent_profiles_match_serial() {
    let programs: Vec<(String, String)> = (0..6)
        .map(|i| (format!("p{i}"), fuzzgen::gen::generate(1000 + i).render()))
        .collect();

    let serial_db = Arc::new(ServeDb::new(None));
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

    let db = Arc::new(ServeDb::new(None));
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
    let db = Arc::new(ServeDb::new(None));
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
