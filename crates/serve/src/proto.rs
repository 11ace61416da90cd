//! Wire protocol for `sfe serve`: envelope parsing and response
//! encoding, built on the in-tree `obs::json` codec.
//!
//! One request per line, one response per line (NDJSON). Every request
//! carries the schema tag in the `sfe` field:
//!
//! ```text
//! {"sfe":"serve/v1","id":1,"method":"estimate","params":{"program":"p"}}
//! ```
//!
//! Responses echo the `id` and the schema tag and carry either a
//! `result` or an `error` object:
//!
//! ```text
//! {"id":1,"result":{...},"sfe":"serve/v1"}
//! {"error":{"code":"unknown-program","message":"..."},"id":1,"sfe":"serve/v1"}
//! ```
//!
//! Output is schema-stable by construction: `obs::json` objects are
//! `BTreeMap`s serialized with sorted keys and no whitespace, and
//! numbers have one canonical rendering — the protocol golden
//! transcripts assert responses byte-for-byte.
//!
//! Envelope validation happens in a fixed order, each failure with its
//! own error code: not parseable / not an object → `bad-request`;
//! `sfe` missing or not equal to [`crate::SCHEMA`] → `version-skew`;
//! `method` missing or not a string → `bad-request`. Method dispatch
//! (and `unknown-method`) belongs to [`crate::session`].

use crate::SCHEMA;
use obs::json::{parse, Value};
use std::collections::BTreeMap;

/// A validated request envelope.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request id, echoed verbatim in the response ([`Value::Null`]
    /// when absent).
    pub id: Value,
    /// The method name.
    pub method: String,
    /// The `params` object ([`Value::Null`] when absent).
    pub params: Value,
}

impl Request {
    /// A string parameter.
    pub fn param_str(&self, key: &str) -> Option<&str> {
        self.params.get(key).and_then(Value::as_str)
    }
}

/// Parses and validates one request line. On failure returns the
/// complete error-response line to send back (the envelope is damaged,
/// so there is nothing further to dispatch).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = match parse(line) {
        Ok(v @ Value::Obj(_)) => v,
        Ok(_) => {
            return Err(error_response(
                &Value::Null,
                "bad-request",
                "request must be a JSON object",
            ))
        }
        Err(e) => {
            return Err(error_response(
                &Value::Null,
                "bad-request",
                &format!("invalid JSON: {e}"),
            ))
        }
    };
    let id = value.get("id").cloned().unwrap_or(Value::Null);
    match value.get("sfe").and_then(Value::as_str) {
        Some(tag) if tag == SCHEMA => {}
        Some(tag) => {
            return Err(error_response(
                &id,
                "version-skew",
                &format!("schema mismatch: client speaks {tag:?}, server speaks {SCHEMA:?}"),
            ))
        }
        None => {
            return Err(error_response(
                &id,
                "version-skew",
                &format!("missing \"sfe\" envelope field (expected {SCHEMA:?})"),
            ))
        }
    }
    let method = match value.get("method").and_then(Value::as_str) {
        Some(m) => m.to_string(),
        None => {
            return Err(error_response(
                &id,
                "bad-request",
                "missing \"method\" string field",
            ))
        }
    };
    let params = value.get("params").cloned().unwrap_or(Value::Null);
    Ok(Request { id, method, params })
}

/// Builds an object value from key/value pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

/// A `u64` as a JSON number (exact below 2^53; work counters and
/// revisions stay far under that).
pub fn num_u64(n: u64) -> Value {
    Value::Num(n as f64)
}

/// A 128-bit fingerprint as its canonical 32-digit hex string (JSON
/// numbers are doubles; hex keeps all bits).
pub fn fp_str(fp: u128) -> Value {
    Value::Str(format!("{fp:032x}"))
}

/// The success response line for `id`.
pub fn ok_response(id: &Value, result: Value) -> String {
    envelope(id, "result", result)
}

/// The error response line for `id`.
pub fn error_response(id: &Value, code: &str, message: &str) -> String {
    envelope(
        id,
        "error",
        obj(vec![
            ("code", Value::Str(code.to_string())),
            ("message", Value::Str(message.to_string())),
        ]),
    )
}

fn envelope(id: &Value, key: &str, body: Value) -> String {
    obj(vec![
        ("id", id.clone()),
        (key, body),
        ("sfe", Value::Str(SCHEMA.to_string())),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_envelope_parses() {
        let r = parse_request(
            r#"{"sfe":"serve/v1","id":7,"method":"estimate","params":{"program":"p"}}"#,
        )
        .unwrap();
        assert_eq!(r.method, "estimate");
        assert_eq!(r.id, Value::Num(7.0));
        assert_eq!(r.param_str("program"), Some("p"));
    }

    #[test]
    fn garbage_is_bad_request_with_null_id() {
        let e = parse_request("{not json").unwrap_err();
        assert!(e.contains("\"code\":\"bad-request\""), "{e}");
        assert!(e.contains("\"id\":null"), "{e}");
    }

    #[test]
    fn wrong_schema_is_version_skew_with_echoed_id() {
        let e = parse_request(r#"{"sfe":"serve/v0","id":3,"method":"estimate"}"#).unwrap_err();
        assert!(e.contains("\"code\":\"version-skew\""), "{e}");
        assert!(e.contains("\"id\":3"), "{e}");
    }

    #[test]
    fn missing_method_is_bad_request() {
        let e = parse_request(r#"{"sfe":"serve/v1","id":4}"#).unwrap_err();
        assert!(e.contains("\"code\":\"bad-request\""), "{e}");
    }

    #[test]
    fn responses_have_sorted_stable_keys() {
        let line = ok_response(&Value::Num(1.0), obj(vec![("ok", Value::Bool(true))]));
        assert_eq!(line, r#"{"id":1,"result":{"ok":true},"sfe":"serve/v1"}"#);
    }
}
