//! # serve — resident estimator service with incremental recomputation
//!
//! The batch pipeline re-parses, re-lowers, and re-solves the world on
//! every invocation; this crate keeps it resident. [`db::ServeDb`] is a
//! dependency-tracking incremental database: each top-level declaration
//! is fingerprinted over its canonical pretty-printed text (plus its
//! id-namespace base — see `minic::ast::DECL_ID_STRIDE`), and derived
//! artifacts (CFG → flow solve → intra estimates → inter estimates) are
//! keyed by that fingerprint together with a module-context fingerprint
//! covering everything cross-function the derivation reads (struct
//! layouts, globals, signatures, the error-call set). An `update` that
//! edits one function re-lowers and re-solves *only* that function;
//! every other function's CFG and block frequencies are reused from the
//! in-memory layer, with the handful of module-global ids embedded in a
//! CFG (branch ids, switch ids, string-table indices) remapped
//! positionally into the new module's id space.
//!
//! On top of the database sit:
//!
//! - [`proto`]/[`session`]: a versioned, schema-stable JSON-RPC-style
//!   protocol (one request and one response per line, envelope tagged
//!   [`SCHEMA`]) with `load`/`update`/`estimate`/`profile`/`score`/
//!   `shutdown` methods, encoded with the in-tree `obs::json` codec;
//! - [`server`]: the `sfe serve` daemon loop over stdin/stdout or a
//!   local TCP socket, one session and one thread per connection.
//!   Every request runs on its connection's thread: `load` and
//!   `update` lower and solve their changed functions one after
//!   another, `estimate` reads materialized results, and `profile`
//!   and `score` run the VM — `score` profiles its inputs one after
//!   another;
//! - [`storm`]: the `stormgen` synthetic-client driver — N concurrent
//!   clients replaying a seed-deterministic mixed read/update workload,
//!   reporting sustained q/s, p50/p99 latency, and the incremental
//!   work ratio;
//! - [`edits`]: deterministic single-function mutations for fuzzgen
//!   programs and suite sources, used by the storm driver and the
//!   incremental-correctness differential suite.

#![warn(missing_docs)]

pub mod db;
pub mod edits;
pub mod fp;
pub mod proto;
pub mod server;
pub mod session;
pub mod storm;

/// The protocol schema tag. Every request must carry it in the `sfe`
/// envelope field and every response echoes it; a mismatch is rejected
/// with a `version-skew` error before the method is even looked at.
/// Bump only together with regenerating the protocol goldens — the
/// replay test fails until they agree.
pub const SCHEMA: &str = "serve/v1";
