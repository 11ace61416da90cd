//! `stormgen` — the synthetic-client load driver for `sfe serve`.
//!
//! N concurrent clients each own one fuzzgen program in a private
//! namespace (`storm/c{i}`) and replay a seed-deterministic mix of
//! `estimate` / `profile` / `score` / `update` requests against the
//! shared database. Because every client's request *sequence* is
//! pregenerated from `(seed, client)` alone — mutations never depend
//! on responses — the full workload is a pure function of the config,
//! and the response stream must be too: the report carries an
//! order-insensitive digest (per-client FNV over response bytes,
//! XOR-combined across clients) plus the database's state digest, and
//! both must be identical for any interleaving of the client threads.
//! That is the storm determinism contract the tests and the CI smoke
//! step assert.
//!
//! Latency is measured per request in nanoseconds around the
//! send/receive pair; the report aggregates sustained q/s and p50/p99.

use crate::db::{ServeDb, WorkCounters};
use crate::edits::{mutate, xorshift};
use crate::proto::{num_u64, obj};
use crate::session::Session;
use obs::hash::Fnv128;
use obs::json::Value;
use std::hash::Hasher;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Workload shape for one storm run.
#[derive(Debug, Clone, Copy)]
pub struct StormConfig {
    /// Concurrent clients.
    pub clients: usize,
    /// Requests per client after the initial `load`.
    pub requests: usize,
    /// Workload seed; same seed ⇒ same requests, byte for byte.
    pub seed: u64,
    /// Percentage of requests that are source `update`s (the rest are
    /// reads: ~70% of the remainder `estimate`, then `profile`, with
    /// an occasional `score`).
    pub update_pct: u32,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            clients: 4,
            requests: 100,
            seed: 1,
            update_pct: 20,
        }
    }
}

/// What a storm run measured.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// Total requests answered (including the per-client loads).
    pub total_requests: u64,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Sustained requests per second.
    pub qps: f64,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Order-insensitive digest of every response byte.
    pub digest: u64,
    /// [`ServeDb::state_digest`] after the run (`None` over TCP, where
    /// the driver has no database handle).
    pub db_digest: Option<u128>,
    /// Work the database did during the run (`None` over TCP).
    pub work: Option<WorkCounters>,
    /// Responses that carried an `error` object.
    pub errors: u64,
}

impl StormReport {
    /// The report as a JSON value, for the CLI.
    pub fn to_value(&self, config: &StormConfig) -> Value {
        let mut pairs = vec![
            ("clients", num_u64(config.clients as u64)),
            ("digest", Value::Str(format!("{:016x}", self.digest))),
            ("errors", num_u64(self.errors)),
            ("p50_us", num_u64(self.p50_us)),
            ("p99_us", num_u64(self.p99_us)),
            ("qps", Value::Num(round2(self.qps))),
            ("requests", num_u64(self.total_requests)),
            ("seed", num_u64(config.seed)),
            ("update_pct", num_u64(config.update_pct as u64)),
            ("wall_s", Value::Num(round2(self.wall_s))),
        ];
        if let Some(d) = self.db_digest {
            pairs.push(("db_digest", Value::Str(format!("{d:032x}"))));
        }
        obj(pairs)
    }
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Pregenerates client `i`'s full request list: one `load`, then
/// `requests` mixed operations. Pure in `(config, i)`.
pub fn client_script(config: &StormConfig, i: usize) -> Vec<String> {
    let name = format!("storm/c{i}");
    let mut prog = fuzzgen::gen::generate(config.seed.wrapping_mul(1571).wrapping_add(i as u64));
    let mut rng = (config.seed ^ 0x5bf0_3635_0aef_7787 ^ (i as u64).wrapping_mul(0x9e37_79b9)) | 1;
    let mut out = Vec::with_capacity(config.requests + 1);
    let mut id = 0u64;
    out.push(load_request(&mut id, "load", &name, &prog.render()));
    for step in 0..config.requests {
        let roll = (xorshift(&mut rng) % 100) as u32;
        if roll < config.update_pct {
            if mutate(&mut prog, &mut rng) {
                out.push(load_request(&mut id, "update", &name, &prog.render()));
            } else {
                // No editable expression: fall back to a read so the
                // request count stays exact.
                out.push(estimate_request(&mut id, &name, step));
            }
        } else if roll < config.update_pct + 20 {
            let method = if roll < config.update_pct + 15 {
                "profile"
            } else {
                "score"
            };
            out.push(request(&mut id, method, vec![("program", str_val(&name))]));
        } else {
            out.push(estimate_request(&mut id, &name, step));
        }
    }
    out
}

/// One request line with the next id.
fn request(id: &mut u64, method: &str, params: Vec<(&str, Value)>) -> String {
    *id += 1;
    obj(vec![
        ("sfe", str_val("serve/v1")),
        ("id", num_u64(*id)),
        ("method", str_val(method)),
        ("params", obj(params)),
    ])
    .to_string()
}

fn str_val(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn load_request(id: &mut u64, method: &str, name: &str, source: &str) -> String {
    let params = vec![("program", str_val(name)), ("source", str_val(source))];
    request(id, method, params)
}

fn estimate_request(id: &mut u64, name: &str, step: usize) -> String {
    let estimator = ["smart", "loop", "markov"][step % 3];
    let inter = ["markov", "call-site", "direct", "all-rec", "all-rec2"][step % 5];
    let params = vec![
        ("estimator", str_val(estimator)),
        ("inter", str_val(inter)),
        ("program", str_val(name)),
    ];
    request(id, "estimate", params)
}

/// FNV-1a/64 over one client's concatenated response lines.
fn response_digest(digest: &mut Fnv128, response: &str) {
    digest.update(response.as_bytes());
    digest.update(b"\n");
}

struct ClientResult {
    digest: u64,
    latencies_ns: Vec<u64>,
    errors: u64,
}

fn run_client(script: &[String], mut transport: impl FnMut(&str) -> String) -> ClientResult {
    let mut digest = Fnv128::with_basis(0);
    let mut latencies_ns = Vec::with_capacity(script.len());
    let mut errors = 0;
    for req in script {
        let t0 = Instant::now();
        let resp = transport(req);
        latencies_ns.push(t0.elapsed().as_nanos() as u64);
        if resp.contains("\"error\":{") {
            errors += 1;
        }
        response_digest(&mut digest, &resp);
    }
    ClientResult {
        digest: digest.finish(),
        latencies_ns,
        errors,
    }
}

fn aggregate(
    results: Vec<ClientResult>,
    wall_s: f64,
    db: Option<&ServeDb>,
    work_before: Option<WorkCounters>,
) -> StormReport {
    let mut digest = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut errors = 0;
    for r in results {
        digest ^= r.digest;
        latencies.extend(r.latencies_ns);
        errors += r.errors;
    }
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
        latencies[idx] / 1000
    };
    let total_requests = latencies.len() as u64;
    let work = match (db, work_before) {
        (Some(db), Some(before)) => Some(db.total_work().since(&before)),
        _ => None,
    };
    StormReport {
        total_requests,
        wall_s,
        qps: if wall_s > 0.0 {
            total_requests as f64 / wall_s
        } else {
            0.0
        },
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        digest,
        db_digest: db.map(ServeDb::state_digest),
        work,
        errors,
    }
}

/// Runs the storm in-process against `db`: one OS thread per client,
/// all sharing the database, each request running on its client's
/// thread. This is the mode the determinism and soak tests use — it
/// can read back [`ServeDb::state_digest`].
pub fn run_in_process(config: &StormConfig, db: &Arc<ServeDb>) -> StormReport {
    let work_before = db.total_work();
    let scripts: Vec<Vec<String>> = (0..config.clients)
        .map(|i| client_script(config, i))
        .collect();
    let t0 = Instant::now();
    let results: Vec<ClientResult> = thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let session = Session::new(Arc::clone(db));
                s.spawn(move || run_client(script, |req| session.handle(req).response))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    aggregate(results, wall_s, Some(db), Some(work_before))
}

/// Runs the storm against a live `sfe serve` daemon at `addr`: one
/// connection per client. The response digest is comparable with
/// [`run_in_process`] for the same config, but the database digest is
/// unavailable from outside the server process.
///
/// # Errors
///
/// Fails if any client cannot connect or a connection drops mid-run.
pub fn run_tcp(config: &StormConfig, addr: &str) -> std::io::Result<StormReport> {
    let scripts: Vec<Vec<String>> = (0..config.clients)
        .map(|i| client_script(config, i))
        .collect();
    let t0 = Instant::now();
    let results: std::io::Result<Vec<ClientResult>> = thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                let addr = addr.to_string();
                s.spawn(move || -> std::io::Result<ClientResult> {
                    let stream = TcpStream::connect(&addr)?;
                    stream.set_nodelay(true)?;
                    let mut reader = BufReader::new(stream.try_clone()?);
                    let mut writer = stream;
                    let mut line = String::new();
                    Ok(run_client(script, move |req| {
                        line.clear();
                        if writeln!(writer, "{req}").is_err() {
                            return String::from("<send failed>");
                        }
                        match reader.read_line(&mut line) {
                            Ok(_) => line.trim_end().to_string(),
                            Err(_) => String::from("<recv failed>"),
                        }
                    }))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(aggregate(results?, wall_s, None, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic() {
        let config = StormConfig {
            clients: 3,
            requests: 25,
            ..StormConfig::default()
        };
        for i in 0..3 {
            assert_eq!(client_script(&config, i), client_script(&config, i));
        }
        assert_ne!(client_script(&config, 0), client_script(&config, 1));
    }

    #[test]
    fn small_storm_runs_clean() {
        let config = StormConfig {
            clients: 2,
            requests: 15,
            ..StormConfig::default()
        };
        let db = Arc::new(ServeDb::new(None));
        let report = run_in_process(&config, &db);
        assert_eq!(report.total_requests, 2 * 16);
        assert_eq!(report.errors, 0, "storm scripts must not produce errors");
        assert!(report.qps > 0.0);
    }

    #[test]
    fn digests_agree_across_fresh_databases() {
        let config = StormConfig {
            clients: 3,
            requests: 20,
            ..StormConfig::default()
        };
        let digests: Vec<_> = (0..2)
            .map(|_| {
                let report = run_in_process(&config, &Arc::new(ServeDb::new(None)));
                (report.digest, report.db_digest)
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
    }
}
