#!/usr/bin/env python3
"""End-to-end benchmark for the `sfe` pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 10 --trace 0

The script builds `sfe` and `fuzzgen` in release mode (into
$CARGO_TARGET_DIR, default `.bench_build`), sets the workload up,
drives the release binaries in rounds for `--seconds` seconds, checks
every output it got, and prints one JSON object as the last line of
stdout:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (tracing off),
each the median over rounds: `op_ms` (one operation's wall time, or
the daemon's wall time per request), `cpu_ms` (CPU per operation over
all threads), `peak_rss_mib`, and `setup_s`. The set-up of `serve` is
starting the daemon until it has preloaded the suite and answers,
done nine times (`setup_s` is their median); the one-shot workloads
have no set-up beyond a warm-up operation before measuring, and
`setup_s` is its time. Times are rescaled to a reference host speed
measured around every round (see `calibrate`). With `--trace 1` every `sfe`
process also writes its obs-metrics/v1 document, and the metrics are
per-layer self times and work counts per operation, plus the median
raw calibration time; the benchmark's own spans (set-up, each round
with its raw latency, checks) go to
`<target dir>/perfbench/trace-<workload>-<seed>.json`.

Workloads (one round each):

- suite:  `sfe suite` into an empty artifact cache, then `sfe suite`
          again replaying it: the first run and re-run a user sees.
- corpus: `sfe corpus` over the next 1000 generated programs from a
          seed-derived first generator seed.
- serve:  280 requests to a resident `sfe serve --suite` daemon over
          stdio, pipelined by one client, in the request mix of the
          repo's load generator `sfe storm`.
- fig10:  `sfe fig10 --json`: optimize and re-run the four Fig 10
          programs under three rankings at eight budgets.

Every output is checked, but not the estimators' scores or the
optimizer's speedups, which later changes are meant to move. suite:
the warm table equals the cold one, and each program's functions,
blocks and VM steps equal `perfbench/expected/suite.txt`. fig10: the
programs, budgets and baseline steps equal `expected/fig10.json`, and
every speedup is finite and at least 1 (`sfe fig10` itself exits
non-zero when optimized code behaves differently). corpus: its own
invariants, its schedule-independence and the fuzzgen differential
oracles (VM vs AST walker). serve: a cold reload of each edited
program and the one-shot `sfe blocks` pipeline. A wrong output counts
as a failed operation and makes `correct` false; a failed build or
set-up exits non-zero without a result.
"""

import argparse
import contextlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected")
SUITE_DIR = os.path.join("crates", "suite", "programs")
SUITE_PROGRAMS = 14
MIN_ROUNDS = 3
CORPUS_BATCH = 1000
# Pinned so a run measures the same parallelism on any host.
POOL_THREADS = "2"
# Times are reported at the host speed at which `calibrate()` takes
# this long.
REF_CALIB_S = 0.06
CALIB_LOOPS = 1_000_000


# One round of a run: a one-shot `sfe` operation, or a batch of `ops`
# requests to the daemon. `latency_s` is the operation's wall time, or
# the round's wall time per request.
Round = namedtuple("Round", "latency_s cpu_s rss_kib ops")


class BenchError(Exception):
    """A wrong or missing output."""


def check(cond, what):
    if not cond:
        raise BenchError(what)


# ---------------------------------------------------------------- spans

class Tracer:
    """The benchmark's own spans, kept in memory and written at exit."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []
        self.stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {"name": name, "parent": self.stack[-1] if self.stack else None,
               "start_s": time.perf_counter() - self.t0, **attrs}
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self.stack.pop()
            rec["end_s"] = time.perf_counter() - self.t0


# ---------------------------------------------------------- host speed

def spin():
    """Seconds a fixed branchy pure-Python loop takes now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIB_LOOPS):
        if i & 3:
            x += i
        else:
            x ^= i
    return time.perf_counter() - t0


def calibrate(cpus):
    """Mean seconds of `spin()` run on `cpus` (1 or 2) CPUs at once.

    A shared host's speed swings by as much as 1.7x within a minute as
    other tenants come and go (no steal time shows; the cores themselves
    are slower). This interpreter loop slows with them much as `sfe`'s
    VM and passes do, so each round's times are rescaled by the loop's
    time around that round: a round measured while the loop took twice
    REF_CALIB_S is reported at half its wall time. It runs on as many
    CPUs as the workload keeps busy."""
    if cpus == 1:
        return spin()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        os.write(wfd, repr(spin()).encode())
        os._exit(0)
    os.close(wfd)
    mine = spin()
    with os.fdopen(rfd) as f:
        theirs = f.read()
    _, status = os.waitpid(pid, 0)
    check(os.waitstatus_to_exitcode(status) == 0 and theirs, "calibration child failed")
    return (mine + float(theirs)) / 2


def speed_scale(before_s, after_s):
    return REF_CALIB_S / ((before_s + after_s) / 2)


# ------------------------------------------------------------ processes

# One finished child process: exit code, output and own rusage.
Proc = namedtuple("Proc", "code out err wall_s cpu_s maxrss_kib")


def child_env():
    return dict(os.environ, SFE_POOL_THREADS=POOL_THREADS)


def run_proc(argv, work):
    """Runs `argv` to completion. `os.wait4` gives this child's own CPU
    time and peak RSS (RUSAGE_CHILDREN would mix in the cargo build)."""
    err_path = os.path.join(work, "stderr.txt")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                             stderr=err, env=child_env())
        out = p.stdout.read()
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as f:
        err_text = f.read().decode("utf-8", "replace")
    return Proc(p.returncode, out.decode("utf-8", "replace"), err_text, wall,
                ru.ru_utime + ru.ru_stime, ru.ru_maxrss)


# ----------------------------------------------------------------- obs

# Layers are named by the leading segment of `sfe`'s span and counter
# names (crates minic, flowgraph, linsolve, estimators, metric,
# profiler, opt, reuse, serve, cache, pool). Times are self time: a
# span minus its child spans, summed across threads.
LAYER_TIMES = [
    ("minic_busy_ms", ("minic.",)),
    ("flowgraph_busy_ms", ("flowgraph.",)),
    ("linsolve_busy_ms", ("linsolve.",)),
    ("estimators_busy_ms", ("estimate.",)),
    ("metric_busy_ms", ("metric.",)),
    ("profiler_compile_busy_ms", ("profiler.compile",)),
    ("profiler_execute_busy_ms", ("profiler.execute",)),
    ("opt_busy_ms", ("opt.",)),
    ("reuse_busy_ms", ("reuse.",)),
    # The daemon's own request handling; an upsert's parse and lowering
    # run inside it without spans of their own.
    ("serve_busy_ms", ("serve.",)),
]
LAYER_COUNTS = [
    ("vm_steps", ("profiler.steps",)),
    ("cfg_blocks", ("flowgraph.blocks", "serve.blocks_lowered")),
    ("flow_solves", ("linsolve.solves",)),
    ("weight_matches", ("metric.weight_matches",)),
    ("opt_rewrites", ("opt.inlined_calls", "opt.folded", "opt.dce_ops", "opt.fused",
                      "opt.mined")),
    ("cache_hits", ("cache.hits",)),
    ("cache_writes", ("cache.writes",)),
    ("pool_tasks", ("pool.tasks",)),
]
# Useful outcomes over attempts: (name, useful counters, wasted counters).
LAYER_RATIOS = [
    ("cache_hit_ratio", ("cache.hits",), ("cache.misses",)),
    ("serve_func_reuse_ratio", ("serve.funcs_reused",), ("serve.funcs_lowered",)),
]


def read_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    check(doc.get("schema") == "obs-metrics/v1", f"{path}: unexpected metrics schema")
    return doc


def add_layers(acc, doc, weight=1.0):
    """Adds `weight` times one obs-metrics/v1 document's per-layer self
    times (ns) and its counters into `acc`."""
    spans = doc.get("spans", {})
    child_ns = {}
    for path, s in spans.items():
        parent = path.rpartition("/")[0]
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + s["total_ns"]
    for name, prefixes in LAYER_TIMES:
        self_ns = sum(s["total_ns"] - child_ns.get(path, 0) for path, s in spans.items()
                      if path.rpartition("/")[2].startswith(prefixes))
        acc[name] = acc.get(name, 0) + weight * self_ns
    counters = acc.setdefault("counters", {})
    for k, v in doc.get("counters", {}).items():
        counters[k] = counters.get(k, 0) + weight * v


def per_layer_metrics(acc, ops, scale):
    """Per-operation layer times (rescaled by `scale` to the reference
    host speed) and counts, and whole-run ratios."""
    counters = acc.get("counters", {})

    def total(keys):
        return sum(counters.get(k, 0) for k in keys)

    ms = scale / 1e6 / ops
    metrics = {name: {"value": acc.get(name, 0) * ms, "unit": "ms"} for name, _ in LAYER_TIMES}
    # Time the pool's workers sat waiting for work.
    metrics["pool_idle_ms"] = {"value": total(["pool.idle_ns"]) * ms, "unit": "ms"}
    metrics.update({name: {"value": total(keys) / ops, "unit": "count"}
                    for name, keys in LAYER_COUNTS})
    for name, useful, wasted in LAYER_RATIOS:
        attempts = total(useful) + total(wasted)
        metrics[name] = {"value": total(useful) / attempts if attempts else 0.0,
                         "unit": "ratio"}
    return metrics


# ------------------------------------------------------------ workloads

class CliWorkload:
    """A workload whose round is one operation of one or more one-shot
    `sfe` runs."""

    # CPUs a round keeps busy: the pool's threads.
    CPUS = 2
    # A one-shot command has nothing to set up; its set-up is one
    # warm-up operation.
    SETUP_REPEATS = 1

    def __init__(self, bench):
        self.b = bench
        self.recording = False
        self.layers = {}

    def sfe(self, *args):
        """Runs `sfe args`; while recording a traced run, adds its
        per-layer totals."""
        argv = [self.b.sfe]
        mpath = os.path.join(self.b.work, "metrics.json")
        traced = self.b.trace and self.recording
        if traced:
            argv += ["--metrics-out", mpath]
        p = run_proc(argv + list(args), self.b.work)
        check(p.code == 0, f"sfe {' '.join(args)} exited {p.code}: {p.err.strip()[-400:]}")
        if traced:
            add_layers(self.layers, read_metrics(mpath))
        return p

    def setup_once(self, i):
        self.round()

    def verify(self):
        pass

    def layer_totals(self):
        return self.layers

    def stop(self):
        pass


class Suite(CliWorkload):
    """Cold `sfe suite` filling a fresh artifact cache, then a warm re-run
    replaying it. The input is the fixed 14-program suite."""

    @staticmethod
    def shape(table):
        """The program, funcs, blocks and steps columns of a suite table:
        what no estimator or optimizer change may move (the other columns
        are the estimators' scores)."""
        return [line.split()[:4] for line in table.splitlines() if line.strip()]

    def round(self):
        cache_dir = os.path.join(self.b.work, "cache")
        try:
            cold = self.sfe("--cache-dir", cache_dir, "suite")
            warm = self.sfe("--cache-dir", cache_dir, "suite")
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        check(warm.out == cold.out, "warm suite table differs from the cold one")
        check(self.shape(cold.out) == self.shape(self.b.expected("suite.txt")),
              "suite funcs/blocks/steps differ from expected/suite.txt")
        wall = cold.wall_s + warm.wall_s
        return Round(wall, cold.cpu_s + warm.cpu_s,
                     max(cold.maxrss_kib, warm.maxrss_kib), 1)


class Corpus(CliWorkload):
    """`sfe corpus` over consecutive 1000-program batches from a
    seed-derived first generator seed."""

    COUNTS = re.compile(r"evaluated (\d+) \| duplicates (\d+) \| vm errors (\d+)")
    DIGEST = re.compile(r"aggregate digest ([0-9a-f]{16})")

    def __init__(self, bench):
        super().__init__(bench)
        self.next_first = 1 + (bench.seed % 100_000) * 1_000_000
        self.checked = None

    def batch(self, first, *extra):
        p = self.sfe("corpus", "--count", str(CORPUS_BATCH), "--seed", str(first), *extra)
        counts, digest = self.COUNTS.search(p.out), self.DIGEST.search(p.out)
        check(counts and digest, "corpus report lacks its counts or digest")
        evaluated, dups, errors = map(int, counts.groups())
        # A generated program may, rarely, run into a VM limit on its
        # seed-derived input; the engine reports it and folds it into the
        # digest.
        check(errors <= CORPUS_BATCH // 100,
              f"corpus batch from seed {first}: {errors} VM errors")
        check(evaluated > 0 and evaluated + dups + errors == CORPUS_BATCH,
              f"corpus batch from seed {first}: {evaluated} evaluated + {dups} duplicates "
              f"+ {errors} VM errors")
        return p, digest.group(1)

    def round(self):
        first = self.next_first
        self.next_first += CORPUS_BATCH
        p, digest = self.batch(first)
        if self.recording and self.checked is None:
            self.checked = (first, digest)
        return Round(p.wall_s, p.cpu_s, p.maxrss_kib, 1)

    def verify(self):
        first, digest = self.checked
        # The aggregate must not depend on the pool schedule.
        check(self.batch(first, "--jobs", "1")[1] == digest,
              f"corpus digest from seed {first} differs between 1 and 2 workers")
        # VM vs AST walker, sparse vs dense solver and the other
        # generator oracles on the first programs of that batch.
        p = run_proc([self.b.fuzzgen, "--seed", str(first), "--count", "25", "--quiet"],
                     self.b.work)
        check(p.code == 0, f"fuzzgen oracles failed from seed {first}: {p.out[-400:]}")


class Fig10(CliWorkload):
    """`sfe fig10 --json` over its four fixed programs."""

    CPUS = 1

    def round(self):
        p = self.sfe("fig10", "--json")
        doc = json.loads(p.out)
        want = json.loads(self.b.expected("fig10.json"))
        check(doc.get("schema") == want["schema"], f"fig10 schema {doc.get('schema')!r}")
        got = [{k: prog[k] for k in ("name", "baseline_steps", "ks")} for prog in doc["programs"]]
        check(got == want["programs"],
              "fig10 programs, budgets or baseline steps differ from expected/fig10.json")
        for prog in doc["programs"]:
            check([c["ranking"] for c in prog["curves"]] == want["rankings"],
                  f"fig10 {prog['name']}: rankings differ from expected/fig10.json")
            for c in prog["curves"]:
                s = c["speedups"]
                check(len(s) == len(prog["ks"]) and s[0] == 1
                      and all(math.isfinite(x) and x >= 1 for x in s),
                      f"fig10 {prog['name']} {c['ranking']}: speedups {s}")
                check(all(w > 0 for w in c["wall_ms"]), "fig10 wall time not positive")
        return Round(p.wall_s, p.cpu_s, p.maxrss_kib, 1)


class Serve:
    """A resident `sfe serve --suite` daemon: the 14 suite programs,
    preloaded with their standard inputs. Each program gets the request
    mix of the repo's load generator (`serve::storm::client_script`,
    `sfe storm`): 60% estimate, 20% update, 15% profile and 5% score,
    the estimator and inter-procedural method cycling with the program's
    request count, `profile` with no input. `score` profiles the suite
    inputs, so after an update it re-runs the VM on all of them. The
    requests come in cycles of 20 per program that hold exactly that
    mix, the score last and the rest in seed-shuffled order, so every
    round does the same work; the seed picks the order and the edits."""

    ESTIMATORS = ["smart", "loop", "markov"]
    INTERS = ["markov", "call-site", "direct", "all-rec", "all-rec2"]
    CYCLE = ["estimate"] * 12 + ["update"] * 4 + ["profile"] * 3 + ["score"]
    # Cycles per program in a round: 20 * 14 = 280 requests.
    ROUND_CYCLES = 1
    # A function definition's header line, ending in its body's `{`.
    HEADER = re.compile(r"^[A-Za-z_][^;{}()\n]*\([^;{}\n]*\)\s*\{[ \t]*$", re.M)
    # Read back after the run and compared with a cold load.
    QUERIES = [("estimate", {"estimator": "smart", "inter": "markov"}),
               ("estimate", {"estimator": "loop", "inter": "direct"}),
               ("estimate", {"estimator": "markov", "inter": "all-rec2"}),
               ("profile", {})]

    # Requests run one at a time and most of their time is one VM run
    # on the daemon's request thread; the client mostly waits.
    CPUS = 1
    SETUP_REPEATS = 9

    def __init__(self, bench):
        self.b = bench
        self.rng = random.Random(bench.seed)
        self.sources = {}
        for f in sorted(os.listdir(SUITE_DIR)):
            if f.endswith(".c"):
                with open(os.path.join(SUITE_DIR, f)) as fh:
                    self.sources[f[:-2]] = fh.read()
        check(len(self.sources) == SUITE_PROGRAMS,
              f"expected {SUITE_PROGRAMS} suite programs in {SUITE_DIR}")
        self.bodies = {n: [m.end() for m in self.HEADER.finditer(s)]
                       for n, s in self.sources.items()}
        self.names = sorted(self.sources)
        self.current = dict(self.sources)
        self.cut = {}
        self.steps = dict.fromkeys(self.names, 0)
        self.daemon = None
        self.next_id = 0
        self.setup_docs = []
        self.final_doc = None

    # -- protocol

    def start(self, tag, *flags):
        argv = [self.b.sfe]
        self.mpath = None
        if self.b.trace:
            self.mpath = os.path.join(self.b.work, f"serve-{tag}.json")
            argv += ["--metrics-out", self.mpath]
        self.err = open(os.path.join(self.b.work, f"serve-{tag}.err"), "wb")
        self.daemon = subprocess.Popen(argv + ["serve", *flags], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, stderr=self.err,
                                       env=child_env(), text=True, bufsize=1)

    def request_line(self, method, params):
        self.next_id += 1
        return json.dumps({"sfe": "serve/v1", "id": self.next_id, "method": method,
                           "params": params}, separators=(",", ":")) + "\n"

    @staticmethod
    def check_response(resp, req_id, method):
        check(resp.startswith('{"id":%d,"result":' % req_id),
              f"serve {method} failed: {resp.strip()[:400]}")

    def result(self, method, params):
        """Sends one request and waits for its result."""
        self.daemon.stdin.write(self.request_line(method, params))
        self.daemon.stdin.flush()
        resp = self.daemon.stdout.readline()
        self.check_response(resp, self.next_id, method)
        return json.loads(resp)["result"]

    def stop(self):
        """Shuts the daemon down, waits for it, returns its metrics."""
        d, self.daemon = self.daemon, None
        if d is None:
            return None
        try:
            self.call_shutdown(d)
            code = d.wait(timeout=30)
        finally:
            if d.poll() is None:
                d.kill()
                d.wait()
            d.stdout.close()
            self.err.close()
        check(code == 0, f"sfe serve exited {code}")
        return read_metrics(self.mpath) if self.mpath else None

    def call_shutdown(self, d):
        try:
            d.stdin.write('{"sfe":"serve/v1","id":0,"method":"shutdown"}\n')
            d.stdin.close()
        except OSError:
            pass

    def proc_stat(self):
        """(CPU seconds over all threads, peak RSS KiB) of the daemon."""
        pid = self.daemon.pid
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rpartition(")")[2].split()
        cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        with open(f"/proc/{pid}/status") as f:
            hwm = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
        return cpu, hwm

    # -- workload

    def setup_once(self, i):
        """Starts `sfe serve --suite` and waits for its first answer,
        which comes once the suite is preloaded; every daemon but the
        last is shut down again."""
        self.start(f"setup-{i}", "--suite")
        check(sorted(self.result("list", {})["programs"]) == self.names,
              "sfe serve --suite does not hold the suite programs")
        if i + 1 < self.SETUP_REPEATS:
            doc = self.stop()
            if doc:
                self.setup_docs.append(doc)

    def edited(self, name):
        """The source with a no-op statement at the top of one function
        body, another one than in the current source: changes two
        functions' fingerprints, not the program's behaviour."""
        src = self.sources[name]
        k = self.rng.choice([c for c in self.bodies[name] if c != self.cut.get(name)])
        self.cut[name] = k
        return src[:k] + " 0;" + src[k:]

    def request(self, method, name):
        step = self.steps[name]
        self.steps[name] += 1
        if method == "estimate":
            return method, {"program": name, "estimator": self.ESTIMATORS[step % 3],
                            "inter": self.INTERS[step % 5]}
        if method == "update":
            self.current[name] = self.edited(name)
            return method, {"program": name, "source": self.current[name]}
        return method, {"program": name}

    def script(self):
        """One round's requests, the programs taking turns."""
        methods = {}
        for n in self.names:
            methods[n] = []
            for _ in range(self.ROUND_CYCLES):
                cycle = self.CYCLE[:-1]
                self.rng.shuffle(cycle)
                methods[n] += cycle + self.CYCLE[-1:]
        return [self.request(methods[n][i], n)
                for i in range(len(self.CYCLE) * self.ROUND_CYCLES) for n in self.names]

    def round(self):
        """A round's requests written back to back by a second thread
        while this one reads the responses, so the daemon always has the
        next request queued: the round times the daemon's work, not the
        wake-ups a one-at-a-time ping-pong over pipes waits for (those
        swing with the host's load far more than its CPU speed does). A
        failed request is counted and the round goes on."""
        reqs = self.script()
        first = self.next_id + 1
        data = "".join(self.request_line(method, params) for method, params in reqs)
        write_errors = []

        def write():
            try:
                self.daemon.stdin.write(data)
                self.daemon.stdin.flush()
            except OSError as e:
                write_errors.append(e)

        cpu0, _ = self.proc_stat()
        t0 = time.perf_counter()
        writer = threading.Thread(target=write)
        writer.start()
        ok = 0
        try:
            for i, (method, _) in enumerate(reqs):
                resp = self.daemon.stdout.readline()
                check(resp, "sfe serve closed its output")
                try:
                    self.check_response(resp, first + i, method)
                    ok += 1
                except BenchError as e:
                    self.b.fail(e)
        finally:
            writer.join()
        wall = time.perf_counter() - t0
        cpu1, hwm = self.proc_stat()
        check(not write_errors, f"writing to sfe serve failed: {write_errors}")
        check(ok, "no serve request succeeded")
        return Round(wall / ok, cpu1 - cpu0, hwm, ok)

    def layer_totals(self):
        """The measuring daemon's layers, less the mean of the set-up-only
        daemons' (its document also holds its own set-up). The final
        read-back in `verify` stays in: 56 requests against thousands."""
        acc = {}
        if self.final_doc:
            add_layers(acc, self.final_doc)
            for doc in self.setup_docs:
                add_layers(acc, doc, -1.0 / len(self.setup_docs))
        return acc

    def verify(self):
        """Reads the final state back, then checks it against a cold load
        of the same sources and against one-shot `sfe blocks`."""
        def strip(r):
            return {k: v for k, v in r.items() if k not in ("program", "revision")}

        hot = {(n, i): strip(self.result(method, dict(program=n, **params)))
               for n in self.names for i, (method, params) in enumerate(self.QUERIES)}
        self.final_doc = self.stop()
        self.start("verify")
        try:
            for n in self.names:
                self.result("load", {"program": n, "source": self.current[n]})
                for i, (method, params) in enumerate(self.QUERIES):
                    cold = strip(self.result(method, dict(program=n, **params)))
                    check(cold == hot[n, i], f"serve {method} {params} on {n}: incremental "
                          "state differs from a cold load")
        finally:
            self.stop()
        for n in self.names:
            self.check_blocks(n, hot[n, 0])

    def check_blocks(self, name, smart):
        """`sfe blocks` prints smart estimates to three decimals; the
        daemon's must round to the same digits."""
        path = os.path.join(self.b.work, f"{name}.c")
        with open(path, "w") as f:
            f.write(self.current[name])
        p = run_proc([self.b.sfe, "blocks", path], self.b.work)
        check(p.code == 0, f"sfe blocks {name} exited {p.code}")
        want, func = {}, None
        for line in p.out.splitlines():
            if line.startswith("== "):
                func = line[3:-3]
                want[func] = []
            elif func and line.split()[0].startswith("B"):
                want[func].append(line.split()[2])
        got = {f["name"]: [f"{v:.3f}" for v in f["blocks"]] for f in smart["funcs"]}
        check(got == want, f"serve smart estimates for {name} differ from sfe blocks")


WORKLOADS = {"suite": Suite, "corpus": Corpus, "serve": Serve, "fig10": Fig10}


# --------------------------------------------------------------- runner

class Bench:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace == 1
        self.tracer = Tracer()
        self.target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        self.sfe = os.path.join(self.target, "release", "sfe")
        self.fuzzgen = os.path.join(self.target, "release", "fuzzgen")
        self.work = os.path.join(self.target, "perfbench", f"work-{os.getpid()}")
        self.failed = 0
        self._expected = {}

    def expected(self, name):
        if name not in self._expected:
            with open(os.path.join(EXPECTED, name)) as f:
                self._expected[name] = f.read()
        return self._expected[name]

    def fail(self, err):
        self.failed += 1
        print(f"perfbench: {err}", file=sys.stderr)

    def build(self):
        check(os.path.isfile("Cargo.toml") and os.path.isdir(SUITE_DIR),
              "run from the root of a source checkout (no Cargo.toml or suite here)")
        p = subprocess.run(["cargo", "build", "--release", "--offline", "--manifest-path",
                            "Cargo.toml", "-p", "sfe", "-p", "fuzzgen"],
                           stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT,
                           env=dict(os.environ, CARGO_TARGET_DIR=self.target))
        check(p.returncode == 0,
              "cargo build failed:\n" + p.stdout.decode("utf-8", "replace")[-2000:])

    def run(self):
        """Set-up, measurement and checks; returns the result object."""
        os.makedirs(self.work, exist_ok=True)
        w = WORKLOADS[self.workload](self)
        if w.CPUS == 1:
            # One CPU for `sfe` and `calibrate()` alike: the host's CPUs
            # slow down independently of each other.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        try:
            return self.measure(w)
        finally:
            w.stop()
            shutil.rmtree(self.work, ignore_errors=True)

    def measure(self, w):
        """Every set-up and round sits between two `calibrate()` calls;
        its times are rescaled to the reference host speed."""
        t = self.tracer
        calib = [calibrate(w.CPUS)]
        setups = []
        for i in range(w.SETUP_REPEATS):
            with t.span("setup", repeat=i) as rec:
                t0 = time.perf_counter()
                w.setup_once(i)
                rec["raw_s"] = time.perf_counter() - t0
            calib.append(calibrate(w.CPUS))
            setups.append(rec["raw_s"] * speed_scale(*calib[-2:]))

        rounds, scales = [], []
        with t.span("measure"):
            w.recording = True
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < self.seconds or len(rounds) < MIN_ROUNDS:
                with t.span("round", index=len(rounds)) as rec:
                    try:
                        r = w.round()
                    except BenchError as e:
                        self.fail(e)
                        if self.failed > 10 * MIN_ROUNDS:
                            break
                        continue
                    finally:
                        calib.append(calibrate(w.CPUS))
                k = speed_scale(*calib[-2:])
                rec.update(raw_latency_s=r.latency_s, calib_s=calib[-1])
                scales.append(k)
                rounds.append(r._replace(latency_s=r.latency_s * k, cpu_s=r.cpu_s * k))
            w.recording = False
        check(rounds, "no round succeeded")

        correct = self.failed == 0
        with t.span("verify"):
            try:
                w.verify()
            except BenchError as e:
                print(f"perfbench: {e}", file=sys.stderr)
                correct = False

        ops = sum(r.ops for r in rounds)
        op_ms = statistics.median(r.latency_s for r in rounds) * 1e3
        if self.trace:
            metrics = per_layer_metrics(w.layer_totals(), ops, statistics.median(scales))
            metrics["traced_op_ms"] = {"value": op_ms, "unit": "ms"}
            metrics["host_calib_ms"] = {"value": statistics.median(calib) * 1e3, "unit": "ms"}
            self.write_trace()
        else:
            metrics = {
                "op_ms": {"value": op_ms, "unit": "ms"},
                "cpu_ms": {"value": statistics.median(r.cpu_s / r.ops for r in rounds) * 1e3,
                           "unit": "ms"},
                "peak_rss_mib": {"value": statistics.median(r.rss_kib for r in rounds) / 1024,
                                 "unit": "MiB"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
            }
        return {"correct": correct, "attempted": ops + self.failed, "failed": self.failed,
                "metrics": metrics}

    def write_trace(self):
        path = os.path.join(self.target, "perfbench", f"trace-{self.workload}-{self.seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": self.workload, "seed": self.seed,
                       "spans": self.tracer.spans}, f, indent=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    bench = Bench(ap.parse_args())
    try:
        bench.build()
        result = bench.run()
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
