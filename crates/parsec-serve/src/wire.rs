//! The serve line protocol (`parsec-wire/2`): requests in, exactly one
//! status line out.
//!
//! On accept the server sends one greeting line — the protocol version
//! tag [`PROTOCOL_VERSION`] — before reading anything, so clients can
//! fail fast on version skew. Requests (one per line, `\n`-terminated):
//!
//! ```text
//! PING
//! STATS
//! SHUTDOWN
//! PARSE [key=value ...] -- <sentence text>
//! ```
//!
//! `PARSE` options are exactly the keys of the unified
//! [`cdg_core::config::KEYS`] table — `budget=`, `class=`, `faults=`,
//! `transient=`, `parses=`, `engine=`, `filter=`, `eval=`, `batch=`,
//! `threads=`, `packed=` — parsed by [`cdg_core::EngineConfigBuilder`],
//! the same path the CLI flags take, so a config key is defined exactly
//! once. Unknown keys are a *typed* error: `ERR cause=unknown-key
//! key=<k>` (since wire/2; wire/1 rendered an untyped `proto=` message).
//!
//! Responses are `<STATUS> key=value ...` — the same shape as
//! [`cdg_core::wire`] error lines, parsed by the same
//! [`cdg_core::wire::split_fields`]:
//!
//! | status     | meaning                                                |
//! |------------|--------------------------------------------------------|
//! | `OK`       | parsed within budget                                   |
//! | `DEGRADED` | budget cut the parse short (`cause=`), or the owning shard died mid-flight (`cause=shard shard=<k>`) |
//! | `SHED`     | rejected by admission control, `reason=`               |
//! | `TIMEOUT`  | queue deadline expired before a worker got to it       |
//! | `FAULT`    | transient fault survived every retry, `cause=`         |
//! | `ERR`      | typed non-transient error (`cause=`) or protocol error (`proto=`) |
//! | `PONG` / `STATS` / `DRAINING` | verb acknowledgements               |
//!
//! `cause=` values are a percent-escaped [`cdg_core::wire::encode`] line;
//! [`decode_cause`] recovers the typed [`EngineError`]. One request, one
//! response, in order — the connection handler owns that invariant.

use cdg_core::{ConfigError, EngineConfig, EngineError};

// Kept as a re-export for callers that used the old wire-local constant;
// the value itself now lives on the shared config table.
pub use cdg_core::config::FAULT_HORIZON_OPS;

/// The greeting line every accepted connection receives before its first
/// request is read. Bump the suffix on any wire-visible change.
pub const PROTOCOL_VERSION: &str = "parsec-wire/2";

/// A request line that could not become a request, split by how the
/// response must be rendered: unknown config keys get the typed
/// `cause=unknown-key key=<k>` shape, everything else an untyped
/// `proto=<msg>` field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// `PARSE` carried a `k=v` whose key is not in the shared table.
    UnknownKey { key: String },
    /// The line ran past [`MAX_LINE_BYTES`]; it was skipped unbuffered.
    LineTooLong,
    /// Anything else: unknown verb, bad option value, not key=value.
    Malformed(String),
}

/// The longest request line the server reads, its `\n` or `\r\n` ending
/// excluded. A longer
/// line is answered with `ERR cause=line-too-long` and skipped to its
/// newline without being buffered.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

impl WireError {
    /// Render the one `ERR` line this error owes the client.
    pub fn render(&self) -> String {
        match self {
            WireError::UnknownKey { key } => render_fields(
                "ERR",
                &[("cause", "unknown-key".into()), ("key", key.clone())],
            ),
            WireError::LineTooLong => render_fields(
                "ERR",
                &[
                    ("cause", "line-too-long".into()),
                    ("max_bytes", MAX_LINE_BYTES.to_string()),
                ],
            ),
            WireError::Malformed(msg) => render_fields("ERR", &[("proto", msg.clone())]),
        }
    }
}

impl From<ConfigError> for WireError {
    fn from(e: ConfigError) -> Self {
        match e {
            ConfigError::UnknownKey { key } => WireError::UnknownKey { key },
            other => WireError::Malformed(other.to_string()),
        }
    }
}

/// One protocol verb.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Ping,
    Stats,
    Shutdown,
    // Boxed: an `EngineConfig` dwarfs the dataless verbs, and every
    // request line allocates anyway.
    Parse {
        text: String,
        config: Box<EngineConfig>,
    },
}

/// Parse one request line through the shared [`cdg_core::config`] table.
/// `phys_pes` bounds fault-plan PE ids (the configured machine's array
/// size).
pub fn parse_request(line: &str, phys_pes: usize) -> Result<Request, WireError> {
    let line = line.trim();
    match line {
        "PING" => return Ok(Request::Ping),
        "STATS" => return Ok(Request::Stats),
        "SHUTDOWN" => return Ok(Request::Shutdown),
        _ => {}
    }
    let Some(rest) = line.strip_prefix("PARSE") else {
        let verb = line.split_ascii_whitespace().next().unwrap_or("");
        return Err(WireError::Malformed(format!("unknown verb `{verb}`")));
    };
    let rest = rest.trim_start();
    let (opt_part, text) = match rest.split_once("--") {
        Some((opts, text)) => (opts.trim(), text.trim()),
        // No separator: the whole remainder is the sentence.
        None => ("", rest),
    };
    // Empty sentence text is NOT a protocol error: it parses as a Parse
    // request so the worker's lexicon answers with the typed
    // `ERR cause=` EmptySentence encoding — the same vocabulary the CLI's
    // empty `--batch` uses, instead of an untyped `proto=` line.
    let mut builder = EngineConfig::builder().fault_context(phys_pes, FAULT_HORIZON_OPS);
    for part in opt_part.split_ascii_whitespace() {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| WireError::Malformed(format!("option `{part}` is not key=value")))?;
        builder.set(key, value)?;
    }
    let config = builder.build()?;
    Ok(Request::Parse {
        text: text.to_string(),
        config: Box::new(config),
    })
}

/// Render a response line: `<STATUS> key=value ...`. Values are escaped.
pub fn render_fields(status: &str, fields: &[(&str, String)]) -> String {
    let mut out = String::from(status);
    for (key, value) in fields {
        out.push(' ');
        out.push_str(key);
        out.push('=');
        out.push_str(&cdg_core::wire::escape(value));
    }
    out
}

/// Split a response line into status and unescaped `key=value` fields.
pub fn split_response(line: &str) -> Result<(String, Vec<(String, String)>), String> {
    let (status, raw) = cdg_core::wire::split_fields(line.trim())?;
    let mut fields = Vec::with_capacity(raw.len());
    for (k, v) in raw {
        fields.push((k.to_string(), cdg_core::wire::unescape(v)?));
    }
    Ok((status.to_string(), fields))
}

/// The `cause=` field for a typed engine error.
pub fn cause_field(err: &EngineError) -> (&'static str, String) {
    ("cause", cdg_core::wire::encode(err))
}

/// Recover the typed error from an unescaped `cause=` value.
pub fn decode_cause(value: &str) -> Result<EngineError, String> {
    cdg_core::wire::decode(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_core::error::BudgetResource;
    use cdg_core::{EvalStrategy, FilterStrategy, ParseBudget, SloClass};
    use std::time::Duration;

    #[test]
    fn verbs_parse() {
        assert_eq!(parse_request("PING", 16).unwrap(), Request::Ping);
        assert_eq!(parse_request(" STATS \n", 16).unwrap(), Request::Stats);
        assert_eq!(parse_request("SHUTDOWN", 16).unwrap(), Request::Shutdown);
        assert!(parse_request("EHLO example.com", 16).is_err());
        assert!(parse_request("", 16).is_err());
    }

    #[test]
    fn bare_parse_line() {
        match parse_request("PARSE the dog runs", 16).unwrap() {
            Request::Parse { text, config } => {
                assert_eq!(text, "the dog runs");
                assert_eq!(*config, EngineConfig::default());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn full_option_set_parses() {
        let line =
            "PARSE budget=ms=50,iters=3 class=batch faults=7 transient=1 parses=2 engine=maspar \
             filter=incremental eval=naive packed=false -- the program runs";
        match parse_request(line, 16).unwrap() {
            Request::Parse { text, config } => {
                assert_eq!(text, "the program runs");
                assert_eq!(config.budget.max_wall_time, Some(Duration::from_millis(50)));
                assert_eq!(config.budget.max_filter_iterations, Some(3));
                assert_eq!(config.budget_spec, "ms=50,iters=3");
                assert_eq!(config.class, Some(SloClass::Batch));
                assert!(config.faults.is_some());
                assert_eq!(config.transient, Some(1));
                assert_eq!(config.max_parses, 2);
                assert_eq!(config.engine.as_deref(), Some("maspar"));
                assert_eq!(config.filter, FilterStrategy::Incremental);
                assert_eq!(config.eval, EvalStrategy::Naive);
                assert!(!config.packed);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_sentence_text_is_a_parse_request_not_a_proto_error() {
        // The worker turns it into the typed EmptySentence lexicon error;
        // rejecting it here would leave "no input" without a `cause=`.
        for line in ["PARSE --", "PARSE", "PARSE parses=2 --"] {
            match parse_request(line, 16).unwrap() {
                Request::Parse { text, .. } => assert!(text.is_empty(), "line: {line}"),
                other => panic!("{line}: {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_parse_lines_are_typed_errors() {
        assert!(
            parse_request("PARSE budget -- x", 16).is_err(),
            "bare option"
        );
        assert!(parse_request("PARSE budget=ms=oops -- x", 16).is_err());
        assert!(parse_request("PARSE class=gold -- x", 16).is_err());
        assert!(parse_request("PARSE parses=0 -- x", 16).is_err());
        assert!(parse_request("PARSE filter=fast -- x", 16).is_err());
        // `auto` is not a strategy: a bad value of a known key.
        match parse_request("PARSE filter=auto -- x", 16) {
            Err(WireError::Malformed(msg)) => assert!(msg.contains("filter"), "{msg}"),
            other => panic!("filter=auto: {other:?}"),
        }
        // Fault PE ids are checked against the configured machine.
        assert!(parse_request("PARSE faults=dead=99 -- x", 16).is_err());
    }

    #[test]
    fn unknown_keys_are_their_own_typed_shape() {
        let err = parse_request("PARSE hats=3 -- x", 16).unwrap_err();
        assert_eq!(err, WireError::UnknownKey { key: "hats".into() });
        let line = err.render();
        let (status, fields) = split_response(&line).unwrap();
        assert_eq!(status, "ERR");
        assert!(fields.contains(&("cause".into(), "unknown-key".into())));
        assert!(fields.contains(&("key".into(), "hats".into())));
        // `batch=` is not a key: it gets the typed shape, not silence.
        let err = parse_request("PARSE batch=mega -- x", 16).unwrap_err();
        assert_eq!(
            err,
            WireError::UnknownKey {
                key: "batch".into()
            }
        );
        assert_eq!(err.render(), "ERR cause=unknown-key key=batch");
        // Malformed values stay on the untyped proto= shape.
        let err = parse_request("FROB", 16).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)));
        assert!(err.render().starts_with("ERR proto="));
    }

    #[test]
    fn response_lines_round_trip() {
        let line = render_fields(
            "OK",
            &[
                ("accepted", "true".into()),
                ("parses", "2".into()),
                ("note", "has spaces = and %".into()),
            ],
        );
        assert!(!line.contains('\n'));
        let (status, fields) = split_response(&line).unwrap();
        assert_eq!(status, "OK");
        assert_eq!(fields[0], ("accepted".into(), "true".into()));
        assert_eq!(fields[2], ("note".into(), "has spaces = and %".into()));
    }

    #[test]
    fn cause_field_round_trips_typed_errors() {
        let err = ParseBudget::exceeded(BudgetResource::WallTime, "50ms", "63ms");
        let (key, value) = cause_field(&err);
        let line = render_fields("FAULT", &[(key, value)]);
        let (_, fields) = split_response(&line).unwrap();
        let (k, v) = &fields[0];
        assert_eq!(k, "cause");
        assert_eq!(decode_cause(v).unwrap(), err);
    }
}
