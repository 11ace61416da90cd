//! Request dispatch: one [`Session`] per client connection, mapping
//! protocol methods onto [`ServeDb`] operations.
//!
//! Methods (all under the [`crate::SCHEMA`] envelope):
//!
//! | method     | params                                        | result |
//! |------------|-----------------------------------------------|--------|
//! | `load`     | `program`, `source`                           | revision, funcs, blocks, fingerprint, work counters |
//! | `update`   | `program`, `source`                           | same as `load` (alias; the DB upserts either way) |
//! | `estimate` | `program`, `estimator?`, `inter?`, `function?`| per-function block frequencies + invocation estimates |
//! | `profile`  | `program`, `input?`                           | per-function call counts and costs from a (cached) VM run |
//! | `reuse`    | `program`                                     | predicted per-object reuse-distance histograms |
//! | `score`    | `program`                                     | paper score tables composed from materialized estimates |
//! | `list`     | —                                             | loaded program names |
//! | `shutdown` | —                                             | `{"ok":true}`; the server drains and exits |
//!
//! The session is stateless apart from the shared database: responses
//! depend only on the database contents, never on connection history,
//! which is what makes the storm driver's determinism check across
//! client interleavings meaningful.

use crate::db::{DbError, ServeDb, WorkCounters};
use crate::proto::{error_response, fp_str, num_u64, obj, ok_response, parse_request, Request};
use estimators::inter::InterEstimator;
use estimators::intra::IntraEstimator;
use obs::json::Value;
use std::sync::Arc;

/// One client's view of the shared database.
pub struct Session {
    db: Arc<ServeDb>,
}

/// The result of handling one request line.
pub struct Outcome {
    /// The response line to send back (no trailing newline).
    pub response: String,
    /// Whether the client asked the server to shut down.
    pub shutdown: bool,
}

impl Session {
    /// A session over the shared database.
    pub fn new(db: Arc<ServeDb>) -> Session {
        Session { db }
    }

    /// The shared database.
    pub fn db(&self) -> &Arc<ServeDb> {
        &self.db
    }

    /// Handles one request line, producing exactly one response line.
    pub fn handle(&self, line: &str) -> Outcome {
        let req = match parse_request(line) {
            Ok(r) => r,
            Err(response) => {
                return Outcome {
                    response,
                    shutdown: false,
                }
            }
        };
        let mut shutdown = false;
        let response = match req.method.as_str() {
            "load" | "update" => self.upsert(&req),
            "estimate" => self.estimate(&req),
            "profile" => self.profile(&req),
            "reuse" => self.reuse(&req),
            "score" => self.score(&req),
            "list" => self.list(&req),
            "shutdown" => {
                shutdown = true;
                Ok(obj(vec![("ok", Value::Bool(true))]))
            }
            other => Err(ErrorShape::new(
                "unknown-method",
                format!("unknown method: {other}"),
            )),
        };
        let response = match response {
            Ok(result) => ok_response(&req.id, result),
            Err(e) => error_response(&req.id, e.code, &e.message),
        };
        Outcome { response, shutdown }
    }
}

struct ErrorShape {
    code: &'static str,
    message: String,
}

impl ErrorShape {
    fn new(code: &'static str, message: String) -> ErrorShape {
        ErrorShape { code, message }
    }

    fn missing(param: &str) -> ErrorShape {
        ErrorShape::new("bad-request", format!("missing {param:?} parameter"))
    }
}

impl From<DbError> for ErrorShape {
    fn from(e: DbError) -> ErrorShape {
        ErrorShape::new(e.code(), e.message())
    }
}

type MethodResult = Result<Value, ErrorShape>;

impl Session {
    fn upsert(&self, req: &Request) -> MethodResult {
        let program = req
            .param_str("program")
            .ok_or_else(|| ErrorShape::missing("program"))?;
        let source = req
            .param_str("source")
            .ok_or_else(|| ErrorShape::missing("source"))?;
        let out = self.db.upsert(program, source)?;
        Ok(obj(vec![
            ("blocks", num_u64(out.blocks as u64)),
            ("fingerprint", fp_str(out.fingerprint)),
            ("funcs", num_u64(out.funcs as u64)),
            ("program", Value::Str(program.to_string())),
            ("revision", num_u64(out.revision)),
            ("work", work_value(&out.work)),
        ]))
    }

    fn estimate(&self, req: &Request) -> MethodResult {
        let program = req
            .param_str("program")
            .ok_or_else(|| ErrorShape::missing("program"))?;
        let intra = parse_intra(req.param_str("estimator").unwrap_or("smart"))?;
        let inter = parse_inter(req.param_str("inter").unwrap_or("markov"))?;
        let entry = self.db.entry(program)?;
        let only = match req.param_str("function") {
            Some(name) => Some(
                entry
                    .program
                    .module
                    .function_id(name)
                    .filter(|&f| entry.program.cfg_opt(f).is_some())
                    .ok_or_else(|| {
                        DbError::UnknownFunction(program.to_string(), name.to_string())
                    })?,
            ),
            None => None,
        };
        let ia = entry.estimates.intra(intra);
        let ie = entry.estimates.inter(inter);
        // Defined functions in name order, so the response is a
        // deterministic function of the database state alone.
        let mut funcs: Vec<&minic::sema::Function> = entry
            .program
            .module
            .functions
            .iter()
            .filter(|f| f.is_defined() && only.is_none_or(|o| f.id == o))
            .collect();
        funcs.sort_by(|a, b| a.name.cmp(&b.name));
        let funcs: Vec<Value> = funcs
            .into_iter()
            .map(|f| {
                let blocks: Vec<Value> =
                    ia.blocks_of(f.id).iter().map(|&x| Value::Num(x)).collect();
                obj(vec![
                    ("blocks", Value::Arr(blocks)),
                    ("invocations", Value::Num(ie.func_freqs[f.id.0 as usize])),
                    ("name", Value::Str(f.name.clone())),
                ])
            })
            .collect();
        Ok(obj(vec![
            ("estimator", Value::Str(intra.name().to_string())),
            ("funcs", Value::Arr(funcs)),
            ("inter", Value::Str(inter.name().to_string())),
            ("program", Value::Str(program.to_string())),
            ("revision", num_u64(entry.revision)),
        ]))
    }

    fn profile(&self, req: &Request) -> MethodResult {
        let program = req
            .param_str("program")
            .ok_or_else(|| ErrorShape::missing("program"))?;
        let input = req.param_str("input").unwrap_or("");
        let profile = self.db.profile(program, input.as_bytes())?;
        let entry = self.db.entry(program)?;
        let mut funcs: Vec<&minic::sema::Function> = entry
            .program
            .module
            .functions
            .iter()
            .filter(|f| f.is_defined())
            .collect();
        funcs.sort_by(|a, b| a.name.cmp(&b.name));
        let funcs: Vec<Value> = funcs
            .into_iter()
            .map(|f| {
                obj(vec![
                    ("calls", num_u64(profile.calls_of(f.id))),
                    ("cost", num_u64(profile.func_cost[f.id.0 as usize])),
                    ("name", Value::Str(f.name.clone())),
                ])
            })
            .collect();
        Ok(obj(vec![
            ("funcs", Value::Arr(funcs)),
            ("program", Value::Str(program.to_string())),
            ("total_blocks", num_u64(profile.total_block_count())),
            ("total_branches", num_u64(profile.total_branches())),
        ]))
    }

    fn reuse(&self, req: &Request) -> MethodResult {
        let program = req
            .param_str("program")
            .ok_or_else(|| ErrorShape::missing("program"))?;
        let entry = self.db.entry(program)?;
        let est = reuse::estimate(&entry.program);
        let objects: Vec<Value> = est
            .names
            .iter()
            .zip(&est.hists)
            .map(|(name, hist)| {
                let bins: Vec<Value> = hist.iter().map(|&v| Value::Num(v)).collect();
                obj(vec![
                    ("hist", Value::Arr(bins)),
                    ("name", Value::Str(name.clone())),
                    ("total", Value::Num(hist.iter().sum())),
                ])
            })
            .collect();
        Ok(obj(vec![
            ("bins", num_u64(reuse::BINS as u64)),
            ("objects", Value::Arr(objects)),
            ("program", Value::Str(program.to_string())),
            ("revision", num_u64(entry.revision)),
            ("total", Value::Num(est.total())),
        ]))
    }

    fn score(&self, req: &Request) -> MethodResult {
        let program = req
            .param_str("program")
            .ok_or_else(|| ErrorShape::missing("program"))?;
        let scores = self.db.score(program)?;
        let intra = obj(IntraEstimator::ALL
            .iter()
            .enumerate()
            .map(|(i, &w)| (w.name(), Value::Num(scores.intra[i])))
            .collect());
        let invocation = obj(InterEstimator::ALL
            .iter()
            .enumerate()
            .map(|(i, &w)| (w.name(), Value::Num(scores.invocation[i])))
            .collect());
        let callsite = obj(vec![
            ("direct", Value::Num(scores.callsite[0])),
            ("markov", Value::Num(scores.callsite[1])),
        ]);
        Ok(obj(vec![
            ("callsite", callsite),
            ("intra", intra),
            ("invocation", invocation),
            ("program", Value::Str(program.to_string())),
        ]))
    }

    fn list(&self, _req: &Request) -> MethodResult {
        let programs: Vec<Value> = self
            .db
            .program_names()
            .into_iter()
            .map(Value::Str)
            .collect();
        Ok(obj(vec![("programs", Value::Arr(programs))]))
    }
}

fn work_value(w: &WorkCounters) -> Value {
    obj(vec![
        ("blocks_lowered", num_u64(w.blocks_lowered)),
        ("blocks_reused", num_u64(w.blocks_reused)),
        ("blocks_solved", num_u64(w.blocks_solved)),
        ("funcs_lowered", num_u64(w.funcs_lowered)),
        ("funcs_reused", num_u64(w.funcs_reused)),
        ("inter_units", num_u64(w.inter_units)),
        ("solves_reused", num_u64(w.solves_reused)),
        ("total_units", num_u64(w.total_units())),
    ])
}

fn parse_intra(name: &str) -> Result<IntraEstimator, ErrorShape> {
    IntraEstimator::ALL
        .iter()
        .copied()
        .find(|w| w.name() == name)
        .ok_or_else(|| {
            ErrorShape::new(
                "bad-request",
                format!("unknown estimator {name:?} (expected loop, smart, or markov)"),
            )
        })
}

fn parse_inter(name: &str) -> Result<InterEstimator, ErrorShape> {
    InterEstimator::ALL
        .iter()
        .copied()
        .find(|w| w.name() == name)
        .ok_or_else(|| {
            ErrorShape::new(
                "bad-request",
                format!(
                    "unknown inter estimator {name:?} (expected call-site, direct, all-rec, all-rec2, or markov)"
                ),
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "int main(void) { int i, s = 0; for (i = 0; i < 8; i++) s += i; return s; }";

    fn session() -> Session {
        Session::new(Arc::new(ServeDb::new(None)))
    }

    fn load_req(name: &str, src: &str) -> String {
        let src = src.replace('"', "\\\"").replace('\n', "\\n");
        format!(
            r#"{{"sfe":"serve/v1","id":1,"method":"load","params":{{"program":"{name}","source":"{src}"}}}}"#
        )
    }

    #[test]
    fn load_then_estimate_roundtrip() {
        let s = session();
        let out = s.handle(&load_req("p", SRC));
        assert!(out.response.contains("\"revision\":1"), "{}", out.response);
        let out =
            s.handle(r#"{"sfe":"serve/v1","id":2,"method":"estimate","params":{"program":"p"}}"#);
        assert!(
            out.response.contains("\"estimator\":\"smart\""),
            "{}",
            out.response
        );
        assert!(
            out.response.contains("\"name\":\"main\""),
            "{}",
            out.response
        );
        assert!(!out.shutdown);
    }

    #[test]
    fn unknown_method_has_its_own_code() {
        let s = session();
        let out = s.handle(r#"{"sfe":"serve/v1","id":9,"method":"frobnicate"}"#);
        assert!(
            out.response.contains("\"code\":\"unknown-method\""),
            "{}",
            out.response
        );
    }

    #[test]
    fn unknown_function_filter_is_reported() {
        let s = session();
        s.handle(&load_req("p", SRC));
        let out = s.handle(
            r#"{"sfe":"serve/v1","id":3,"method":"estimate","params":{"program":"p","function":"nope"}}"#,
        );
        assert!(
            out.response.contains("\"code\":\"unknown-function\""),
            "{}",
            out.response
        );
    }

    #[test]
    fn shutdown_sets_the_flag() {
        let s = session();
        let out = s.handle(r#"{"sfe":"serve/v1","id":4,"method":"shutdown"}"#);
        assert!(out.shutdown);
        assert!(out.response.contains("\"ok\":true"), "{}", out.response);
    }

    #[test]
    fn responses_are_replay_stable() {
        // The same request against the same database state must yield
        // the same bytes — the property the protocol goldens pin.
        let s1 = session();
        let s2 = session();
        let req = load_req("p", SRC);
        assert_eq!(s1.handle(&req).response, s2.handle(&req).response);
        let est = r#"{"sfe":"serve/v1","id":2,"method":"estimate","params":{"program":"p","estimator":"markov"}}"#;
        assert_eq!(s1.handle(est).response, s2.handle(est).response);
    }
}
