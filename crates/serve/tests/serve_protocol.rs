//! Protocol golden transcripts.
//!
//! `goldens/serve_protocol.txt` holds a complete session — every RPC
//! method plus every error shape — as `>>> request` / `<<< response`
//! line pairs. The test replays the requests through a fresh session's
//! line reader and asserts each response byte-for-byte. Requests too
//! long to read in a transcript show their first bytes and length. Because every response
//! embeds the schema tag, bumping `serve::SCHEMA` fails this test
//! until the goldens are regenerated — which is the point: a schema
//! change must be a deliberate, reviewed diff.
//!
//! Regenerate with:
//!
//! ```text
//! SFE_UPDATE_GOLDENS=1 cargo test -p serve --test serve_protocol
//! ```

use serve::db::ServeDb;
use serve::server::{serve_lines, MAX_LINE_BYTES};
use std::path::PathBuf;
use std::sync::Arc;

const SRC: &str = "int add(int a, int b) { return a + b; } int main(void) { int i, s = 0; for (i = 0; i < 6; i++) s = add(s, i); return s; }";
const SRC2: &str = "int add(int a, int b) { return a + b + 1; } int main(void) { int i, s = 0; for (i = 0; i < 6; i++) s = add(s, i); return s; }";
const SRC_REUSE: &str = "int g[8]; int main(void) { int i, j, s = 0; for (j = 0; j < 4; j++) for (i = 0; i < 8; i++) s += g[i]; return s; }";

/// The canonical transcript request list. Each entry exercises either
/// one method's happy path or one error shape.
fn requests() -> Vec<String> {
    let load = |id: u64, method: &str, src: &str| {
        format!(
            r#"{{"sfe":"serve/v1","id":{id},"method":"{method}","params":{{"program":"demo","source":"{src}"}}}}"#
        )
    };
    let load_as = |id: u64, program: &str, src: &str| {
        format!(
            r#"{{"sfe":"serve/v1","id":{id},"method":"load","params":{{"program":"{program}","source":"{src}"}}}}"#
        )
    };
    vec![
        // Methods.
        load(1, "load", SRC),
        r#"{"sfe":"serve/v1","id":2,"method":"estimate","params":{"program":"demo"}}"#.into(),
        r#"{"sfe":"serve/v1","id":3,"method":"estimate","params":{"estimator":"loop","inter":"call-site","program":"demo"}}"#.into(),
        r#"{"sfe":"serve/v1","id":4,"method":"estimate","params":{"estimator":"markov","function":"add","program":"demo"}}"#.into(),
        r#"{"sfe":"serve/v1","id":5,"method":"profile","params":{"program":"demo"}}"#.into(),
        r#"{"sfe":"serve/v1","id":6,"method":"score","params":{"program":"demo"}}"#.into(),
        load(7, "update", SRC2),
        r#"{"sfe":"serve/v1","id":8,"method":"list"}"#.into(),
        // Error shapes.
        r#"{not json"#.into(),
        r#"[1,2,3]"#.into(),
        r#"{"id":20,"method":"estimate"}"#.into(),
        r#"{"sfe":"serve/v0","id":21,"method":"estimate"}"#.into(),
        r#"{"sfe":"serve/v1","id":22}"#.into(),
        r#"{"sfe":"serve/v1","id":23,"method":"frobnicate"}"#.into(),
        r#"{"sfe":"serve/v1","id":24,"method":"estimate"}"#.into(),
        r#"{"sfe":"serve/v1","id":25,"method":"estimate","params":{"program":"ghost"}}"#.into(),
        r#"{"sfe":"serve/v1","id":26,"method":"estimate","params":{"function":"ghost","program":"demo"}}"#.into(),
        r#"{"sfe":"serve/v1","id":27,"method":"estimate","params":{"estimator":"psychic","program":"demo"}}"#.into(),
        r#"{"sfe":"serve/v1","id":28,"method":"estimate","params":{"inter":"psychic","program":"demo"}}"#.into(),
        r#"{"sfe":"serve/v1","id":29,"method":"load","params":{"program":"demo"}}"#.into(),
        r#"{"sfe":"serve/v1","id":30,"method":"load","params":{"program":"bad","source":"int main(void) { return x; }"}}"#.into(),
        r#"{"sfe":"serve/v1","id":31,"method":"profile","params":{"program":"ghost"}}"#.into(),
        // Reuse estimates (an array with an actual reuse loop, so the
        // histograms are non-trivial) plus the method's error shapes.
        load_as(33, "arr", SRC_REUSE),
        r#"{"sfe":"serve/v1","id":34,"method":"reuse","params":{"program":"arr"}}"#.into(),
        r#"{"sfe":"serve/v1","id":35,"method":"reuse"}"#.into(),
        r#"{"sfe":"serve/v1","id":36,"method":"reuse","params":{"program":"ghost"}}"#.into(),
        // Hostile input: JSON nested 100k deep, then a line past the
        // length cap; the session keeps answering after both.
        format!(
            r#"{{"sfe":"serve/v1","id":37,"method":"estimate","params":{}"#,
            "[".repeat(100_000)
        ),
        format!(
            r#"{{"sfe":"serve/v1","id":38,"method":"load","params":{{"program":"big","source":"{}"}}}}"#,
            "x".repeat(MAX_LINE_BYTES)
        ),
        r#"{"sfe":"serve/v1","id":39,"method":"list"}"#.into(),
        // A program over sema's static-size budget (4e9 words of
        // global data) is a compile error, not a daemon abort; the
        // session keeps answering.
        load_as(
            40,
            "huge",
            "int a[4000000000]; int main(void) { return 0; }",
        ),
        r#"{"sfe":"serve/v1","id":41,"method":"estimate","params":{"estimator":"loop","program":"arr"}}"#.into(),
        // A heap request past the run's budget returns NULL instead of
        // aborting the daemon mid-profile; the session keeps answering.
        load_as(
            42,
            "heap",
            "int main(void) { char *p; p = malloc(4000000000); return p == 0; }",
        ),
        r#"{"sfe":"serve/v1","id":43,"method":"profile","params":{"program":"heap"}}"#.into(),
        r#"{"sfe":"serve/v1","id":44,"method":"list"}"#.into(),
        // Frames past the live-stack budget are a run error, not a
        // daemon abort mid-profile; the session keeps answering.
        load_as(
            45,
            "deep",
            "int f(int n) { int a[1000000]; a[0] = n; if (n == 0) return 0; return f(n - 1) + a[0]; } int main(void) { return f(10000); }",
        ),
        r#"{"sfe":"serve/v1","id":46,"method":"profile","params":{"program":"deep"}}"#.into(),
        r#"{"sfe":"serve/v1","id":47,"method":"list"}"#.into(),
        // Shutdown last: it ends the session.
        r#"{"sfe":"serve/v1","id":32,"method":"shutdown"}"#.into(),
    ]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/serve_protocol.txt")
}

fn render_transcript() -> String {
    let requests = requests();
    let input = requests.join("\n") + "\n";
    let mut responses = Vec::new();
    serve_lines(
        &Arc::new(ServeDb::new(None)),
        input.as_bytes(),
        &mut responses,
    )
    .expect("in-memory streams do not fail");
    let responses = String::from_utf8(responses).expect("responses are UTF-8");
    let responses: Vec<&str> = responses.lines().collect();
    assert_eq!(responses.len(), requests.len(), "one response per request");
    let mut out = String::from(
        "# Protocol golden transcript for serve/v1. Regenerate with\n\
         # SFE_UPDATE_GOLDENS=1 cargo test -p serve --test serve_protocol\n",
    );
    for (req, response) in requests.iter().zip(responses) {
        out.push_str(">>> ");
        if req.len() > 1024 {
            out.push_str(&format!("{}… ({} bytes)", &req[..96], req.len()));
        } else {
            out.push_str(req);
        }
        out.push('\n');
        out.push_str("<<< ");
        out.push_str(response);
        out.push('\n');
    }
    out
}

#[test]
fn protocol_transcript_matches_golden() {
    let rendered = render_transcript();
    let path = golden_path();
    if std::env::var_os("SFE_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with SFE_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    if rendered != golden {
        // Pinpoint the first diverging pair for a readable failure.
        for (a, b) in rendered.lines().zip(golden.lines()) {
            assert_eq!(a, b, "transcript diverges from golden; regenerate deliberately with SFE_UPDATE_GOLDENS=1 if the change is intended");
        }
        panic!(
            "transcript length changed: {} vs {} lines",
            rendered.lines().count(),
            golden.lines().count()
        );
    }
}

#[test]
fn golden_covers_every_method_and_error_code() {
    // Guard against the transcript drifting out of coverage: every
    // dispatchable method and every protocol error code must appear.
    // (Checked on the freshly rendered transcript in regen mode — the
    // golden file may not exist yet then.)
    let text = if std::env::var_os("SFE_UPDATE_GOLDENS").is_some() {
        render_transcript()
    } else {
        std::fs::read_to_string(golden_path()).expect("golden present")
    };
    for method in [
        "load", "update", "estimate", "profile", "reuse", "score", "list", "shutdown",
    ] {
        assert!(
            text.contains(&format!("\"method\":\"{method}\"")),
            "golden lacks method {method}"
        );
    }
    for code in [
        "bad-request",
        "version-skew",
        "unknown-method",
        "unknown-program",
        "unknown-function",
        "compile-error",
        "run-error",
    ] {
        assert!(
            text.contains(&format!("\"code\":\"{code}\"")),
            "golden lacks error code {code}"
        );
    }
}
