//! End-to-end tests of the `sfe` binary via `CARGO_BIN_EXE_sfe`.

use std::process::Command;

fn sfe(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sfe"))
        .args(args)
        .output()
        .expect("sfe runs")
}

fn demo_file() -> tempfile::NamedFile {
    let mut f = tempfile::NamedFile::new("demo.c");
    f.write(
        br#"
        int hot(int n) { int i, s = 0; for (i = 0; i < n; i++) s += i; return s; }
        int cold(char *msg) { if (msg == 0) { exit(1); } return msg[0]; }
        int main(void) {
            int i, t = 0;
            for (i = 0; i < 50; i++) t += hot(i);
            t += cold("x");
            return t & 255;
        }
        "#,
    );
    f
}

// A tiny self-cleaning temp file helper (no external crates).
mod tempfile {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Distinguishes files of tests running in parallel in one process.
    static NEXT: AtomicU64 = AtomicU64::new(0);

    pub struct NamedFile {
        path: PathBuf,
    }

    impl NamedFile {
        pub fn new(name: &str) -> Self {
            let mut path = std::env::temp_dir();
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            path.push(format!("sfe-test-{}-{n}-{name}", std::process::id()));
            NamedFile { path }
        }

        pub fn write(&mut self, bytes: &[u8]) {
            std::fs::write(&self.path, bytes).expect("write temp file");
        }

        pub fn path(&self) -> &str {
            self.path.to_str().expect("utf8 path")
        }
    }

    impl Drop for NamedFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[test]
fn report_lists_functions_and_sites() {
    let f = demo_file();
    let out = sfe(&["report", f.path()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hot"), "{text}");
    assert!(text.contains("main -> hot"), "{text}");
}

#[test]
fn branches_show_heuristics() {
    let f = demo_file();
    let out = sfe(&["branches", f.path()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Loop"), "{text}");
    // The `msg == 0` pointer test.
    assert!(text.contains("Pointer"), "{text}");
}

#[test]
fn dot_emits_graphviz() {
    let f = demo_file();
    let out = sfe(&["dot", f.path(), "hot"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph"), "{text}");
    assert!(text.contains("freq="), "{text}");
}

#[test]
fn run_executes_and_scores() {
    let f = demo_file();
    let out = sfe(&["run", f.path()]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("weight-matching"), "{err}");
}

#[test]
fn pretty_round_trips() {
    let f = demo_file();
    let out = sfe(&["pretty", f.path()]);
    assert!(out.status.success());
    let printed = String::from_utf8_lossy(&out.stdout).into_owned();
    // The printed output must itself compile.
    assert!(minic::compile(&printed).is_ok(), "{printed}");
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let mut f = tempfile::NamedFile::new("bad.c");
    f.write(b"int main(void) { return x; }");
    let out = sfe(&["report", f.path()]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown name"), "{err}");
}

#[test]
fn usage_on_missing_args() {
    let out = sfe(&[]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn corpus_rejects_a_memory_budget_that_overflows() {
    // 2^44 MiB is 2^64 bytes.
    let out = sfe(&["corpus", "--count", "1", "--mem-budget", "17592186044416"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--mem-budget"), "{err}");
}

#[test]
fn corpus_rejects_a_seed_range_that_overflows() {
    let out = sfe(&["corpus", "--seed", "18446744073709551615", "--count", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("seed"), "{err}");
}

#[test]
fn corpus_naive_flag_is_gone() {
    let out = sfe(&["corpus", "--count", "1", "--naive"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown corpus flag"), "{err}");
}
