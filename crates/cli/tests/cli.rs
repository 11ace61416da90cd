//! End-to-end tests of the `sfe` binary via `CARGO_BIN_EXE_sfe`.

use std::process::Command;

fn sfe(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sfe"))
        .args(args)
        .output()
        .expect("sfe runs")
}

/// [`sfe`] with `SFE_POOL_THREADS` set to `threads`.
fn sfe_on_threads(threads: &str, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sfe"))
        .args(args)
        .env("SFE_POOL_THREADS", threads)
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
fn run_refuses_frames_past_the_stack_budget() {
    // 17 live frames of 1,000,001 words pass the 2^24-word budget: a
    // rendered runtime error and exit 1, at -O0 and -O3, where this
    // once aborted inside the stack allocation (exit 134).
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/manual_rt_deep-frames.c"
    );
    for level in ["0", "3"] {
        let out = sfe(&["--opt-level", level, "run", path]);
        assert_eq!(out.status.code(), Some(1), "-O{level}");
        assert!(out.stdout.is_empty(), "-O{level}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err, "sfe: runtime error: call would take the live stack past 16777216 words\n",
            "-O{level}"
        );
    }
}

#[test]
fn run_refuses_output_past_the_budget() {
    // A 999,999-byte string printed forever passes the 2^24-byte output
    // budget at its 17th copy: a rendered runtime error and exit 1, at
    // -O0 and -O3, where this once grew the output until an allocation
    // aborted the process (exit 134).
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/manual_rt_big-output.c"
    );
    for level in ["0", "3"] {
        let out = sfe(&["--no-cache", "--opt-level", level, "run", path]);
        assert_eq!(out.status.code(), Some(1), "-O{level}");
        assert!(out.stdout.is_empty(), "-O{level}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err, "sfe: runtime error: program output would pass 16777216 bytes\n",
            "-O{level}"
        );
    }
}

#[test]
fn run_refuses_sprintf_past_its_destination_segment() {
    // 1,200 copies of a 999,999-byte string into a 16-word global stop
    // after the first copy with the error of the first store past the
    // data segment: a rendered runtime error and exit 1, at -O0 and
    // -O3, where formatting the whole result once aborted the process
    // (exit 134).
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/corpus/manual_rt_big-sprintf.c"
    );
    for level in ["0", "3"] {
        let out = sfe(&["--no-cache", "--opt-level", level, "run", path]);
        assert_eq!(out.status.code(), Some(1), "-O{level}");
        assert!(out.stdout.is_empty(), "-O{level}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err, "sfe: runtime error: wild address 0xf4bb2\n",
            "-O{level}"
        );
    }
}

#[test]
fn run_refuses_register_windows_past_the_budget() {
    // A one-word frame that also calls a 400-parameter function holds
    // about 400 registers per activation; recursing 45,000 deep takes
    // the VM's register window past the 2^24 budget near depth 42,000.
    let params: Vec<String> = (0..400).map(|i| format!("int a{i}")).collect();
    let args = vec!["n"; 400].join(", ");
    let src = format!(
        "int wide({}) {{ return a0; }}
         int deep(int n) {{ if (n == 0) return 0; if (n < 0) return wide({args}); return deep(n - 1) + 1; }}
         int main(void) {{ return deep(45000) - 45000; }}",
        params.join(", ")
    );
    let mut f = tempfile::NamedFile::new("wide-regs.c");
    f.write(src.as_bytes());
    for level in ["0", "3"] {
        let out = sfe(&["--opt-level", level, "run", f.path()]);
        assert_eq!(out.status.code(), Some(1), "-O{level}");
        assert!(out.stdout.is_empty(), "-O{level}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err, "sfe: runtime error: call would take the live stack past 16777216 words\n",
            "-O{level}"
        );
    }
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
fn corpus_rejects_a_seed_range_that_overflows() {
    let out = sfe(&["corpus", "--seed", "18446744073709551615", "--count", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("seed"), "{err}");
}

/// The summed `count` of every span whose leaf name is `leaf` in an
/// obs-metrics/v1 document.
fn span_count(metrics: &str, leaf: &str) -> u64 {
    let key = format!("{leaf}\":{{\"count\":");
    metrics
        .match_indices(&key)
        .filter(|&(at, _)| matches!(metrics[..at].chars().last(), Some('"' | '/')))
        .map(|(at, _)| {
            let rest = &metrics[at + key.len()..];
            let digits = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..digits].parse::<u64>().expect("span count")
        })
        .sum()
}

#[test]
fn traced_corpus_reports_program_generation() {
    // Generating, featurizing and rendering each program is its own
    // span, so a traced corpus run leaves no per-program time outside
    // the span tree's layers.
    let metrics = tempfile::NamedFile::new("corpus-metrics.json");
    let out = sfe(&[
        "--metrics-out",
        metrics.path(),
        "corpus",
        "--count",
        "12",
        "--jobs",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(metrics.path()).expect("metrics written");
    assert_eq!(span_count(&doc, "corpus.generate"), 12, "{doc}");
    assert_eq!(span_count(&doc, "estimate.branch"), 12, "{doc}");
}

#[test]
fn removed_corpus_flags_are_unknown() {
    for flag in [&["--naive"][..], &["--mem-budget", "64"]] {
        let out = sfe(&[&["corpus", "--count", "1"], flag].concat());
        assert_eq!(out.status.code(), Some(2), "{flag:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown corpus flag"), "{flag:?}: {err}");
    }
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_sfe"))
        .args(["corpus", "--count", "3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sfe");
    // Close the read end before sfe has written its report.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("sfe exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn serve_and_storm_take_no_worker_count() {
    for cmd in ["serve", "storm"] {
        let out = sfe(&[cmd, "--jobs", "2"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown {cmd} flag `--jobs`")),
            "{cmd}: {err}"
        );
    }
}

#[test]
fn serve_shuts_down_on_request() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_sfe"))
        .args(["serve"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sfe serve starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"{\"sfe\":\"serve/v1\",\"id\":1,\"method\":\"shutdown\"}\n")
        .unwrap();
    let out = child.wait_with_output().expect("sfe serve exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"ok\":true"), "{stdout}");
}

#[test]
fn storm_rejects_zero_clients_by_name() {
    let out = sfe(&["storm", "--clients", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("storm --clients needs a number in 1.."),
        "{err}"
    );
}

#[test]
fn storm_rejects_an_update_share_over_100_by_name() {
    let out = sfe(&["storm", "--update-pct", "101"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("storm --update-pct needs a number in 0..=100"),
        "{err}"
    );
}

#[test]
fn a_one_thread_suite_is_one_trace_tree() {
    // Every pool task runs under the span path of the map that queued
    // it, so each VM run and CFG build sits under the suite load.
    let metrics = tempfile::NamedFile::new("suite-tree.json");
    let args = ["--no-cache", "--metrics-out", metrics.path(), "suite"];
    let out = sfe_on_threads("1", &args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(metrics.path()).expect("metrics written");
    let inputs: u64 = suite::all().iter().map(|b| b.inputs().len() as u64).sum();
    let programs = suite::all().len() as u64;
    assert_eq!((inputs, programs), (56, 14));
    for (leaf, n) in [("profiler.execute", inputs), ("flowgraph.build", programs)] {
        assert_eq!(span_count(&doc, leaf), n, "{doc}");
        let under_load = format!("bench.load_suite/{leaf}");
        assert_eq!(span_count(&doc, &under_load), n, "{doc}");
    }
}

/// The value of `counter` in an obs-metrics/v1 document (0 when the
/// run never bumped it).
fn counter(metrics: &str, counter: &str) -> u64 {
    let key = format!("\"{counter}\":");
    metrics.find(&key).map_or(0, |at| {
        let rest = &metrics[at + key.len()..];
        let digits = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..digits].parse().expect("counter value")
    })
}

#[test]
fn an_unopenable_cache_dir_runs_uncached() {
    // A directory cannot be made under a regular file: every command
    // that takes a cache warns the same way and runs without one, and
    // the corpus, which takes none, ignores it.
    let mut file = tempfile::NamedFile::new("not-a-dir");
    file.write(b"");
    let dir = format!("{}/cache", file.path());
    let mut warnings = Vec::new();
    for args in [
        &["suite"][..],
        &["reuse", "compress"],
        &["corpus", "--count", "5"],
    ] {
        let out = sfe(&[&["--cache-dir", &dir][..], args].concat());
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        warnings.push(err);
    }
    assert!(warnings[0].contains("running uncached"), "{}", warnings[0]);
    assert_eq!(warnings[0], warnings[1]);
    assert!(!warnings[2].contains("cache"), "{}", warnings[2]);
}

/// Runs `sfe --cache-dir <fresh dir> --metrics-out <file> <args>`
/// twice, cold then warm, and returns each run's stdout and metrics
/// document.
fn cold_and_warm(name: &str, args: &[&str]) -> [(Vec<u8>, String); 2] {
    let mut dir = std::env::temp_dir();
    dir.push(format!("sfe-test-{}-{name}-cache", std::process::id()));
    let _fresh = std::fs::remove_dir_all(&dir);
    let dir = dir.to_str().expect("utf8 path").to_string();
    let runs = ["cold", "warm"].map(|side| {
        let metrics = tempfile::NamedFile::new(&format!("{name}-{side}.json"));
        let flags = ["--cache-dir", &dir, "--metrics-out", metrics.path()];
        let out = sfe(&[&flags[..], args].concat());
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = std::fs::read_to_string(metrics.path()).expect("metrics written");
        (out.stdout, doc)
    });
    let _cleanup = std::fs::remove_dir_all(&dir);
    runs
}

#[test]
fn a_warm_suite_compiles_nothing() {
    // Every profile of a warm run is a cache hit, so no program is
    // compiled to bytecode: the trace has no `profiler.compile` span.
    let [(cold, cold_doc), (warm, warm_doc)] = cold_and_warm("suite", &["suite"]);
    let inputs: u64 = suite::all().iter().map(|b| b.inputs().len() as u64).sum();
    assert!(cold_doc.contains("profiler.compile"), "{cold_doc}");
    assert_eq!(counter(&warm_doc, "cache.hits"), inputs, "{warm_doc}");
    assert!(!warm_doc.contains("profiler.compile"), "{warm_doc}");
    assert_eq!(cold, warm);
}

#[test]
fn reuse_traces_replay_from_the_cache() {
    let [(cold, cold_doc), (warm, warm_doc)] = cold_and_warm("reuse", &["reuse", "compress"]);
    let inputs = suite::by_name("compress")
        .expect("suite program")
        .inputs()
        .len() as u64;
    assert_eq!(counter(&cold_doc, "cache.writes"), inputs, "{cold_doc}");
    assert_eq!(counter(&warm_doc, "cache.hits"), inputs, "{warm_doc}");
    assert_eq!(counter(&warm_doc, "cache.writes"), 0, "{warm_doc}");
    assert_eq!(
        String::from_utf8_lossy(&cold),
        String::from_utf8_lossy(&warm)
    );
}
