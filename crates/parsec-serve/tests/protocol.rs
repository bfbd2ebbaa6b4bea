//! Protocol-level integration tests: a real in-process server on a real
//! TCP socket, exercised verb by verb. Counter-accounting under load lives
//! in `chaos.rs`; this file pins the response *shapes* — every status, the
//! typed `cause=` round trip, cache markers, per-request engine overrides,
//! and the one-request-one-response ordering invariant.

mod util;

use maspar_sim::MachineConfig;
use parsec_maspar::RetryPolicy;
use parsec_serve::server::Server;
use parsec_serve::wire::decode_cause;
use parsec_serve::ServeConfig;
use std::time::Duration;
use util::{field, Client};

/// A small english-grammar server; tests tweak the base as needed.
fn english_config() -> ServeConfig {
    ServeConfig {
        grammar: "english".into(),
        workers: 2,
        ..Default::default()
    }
}

/// A paper-grammar server on a 4-PE machine: small enough that a fault
/// plan can kill the whole array, with fast deterministic backoff.
fn tiny_maspar_config() -> ServeConfig {
    ServeConfig {
        grammar: "paper".into(),
        workers: 1,
        machine: MachineConfig {
            phys_pes: 4,
            ..Default::default()
        },
        retry: RetryPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn verbs_parse_and_drain_round_trip() {
    let handle = Server::start(english_config()).unwrap();
    let mut client = Client::connect(handle.addr());

    assert_eq!(client.request("PING"), "PONG");

    let (status, fields) = client.roundtrip("PARSE the dog runs");
    assert_eq!(status, "OK");
    assert_eq!(field(&fields, "accepted"), "true");
    assert_eq!(field(&fields, "engine"), "serial");
    assert_eq!(field(&fields, "class"), "batch");
    assert_eq!(field(&fields, "cached"), "false");
    assert_eq!(field(&fields, "retries"), "0");

    let (status, fields) = client.roundtrip("STATS");
    assert_eq!(status, "STATS");
    assert_eq!(field(&fields, "requests"), "1");
    assert_eq!(field(&fields, "ok"), "1");
    assert_eq!(field(&fields, "draining"), "false");

    assert_eq!(client.request("SHUTDOWN"), "DRAINING");
    // The existing connection stays up, but new work is shed.
    let (status, fields) = client.roundtrip("PARSE the dog runs");
    assert_eq!(status, "SHED");
    assert_eq!(field(&fields, "reason"), "draining");

    let stats = handle.join();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.ok, 1);
    assert_eq!(stats.shed_draining, 1);
    assert_eq!(stats.parse_responses(), stats.requests);
}

#[test]
fn identical_requests_hit_the_cache() {
    let handle = Server::start(english_config()).unwrap();
    let mut client = Client::connect(handle.addr());

    let (status, first) = client.roundtrip("PARSE parses=2 -- the dog runs");
    assert_eq!(status, "OK");
    assert_eq!(field(&first, "cached"), "false");

    let (status, second) = client.roundtrip("PARSE parses=2 -- the dog runs");
    assert_eq!(status, "OK");
    assert_eq!(field(&second, "cached"), "true");
    assert_eq!(field(&second, "wall_us"), "0");
    // The cached core fields are byte-identical to the first answer.
    assert_eq!(field(&first, "accepted"), field(&second, "accepted"));
    assert_eq!(field(&first, "parses"), field(&second, "parses"));

    // A different option set is a different digest, not a hit.
    let (_, third) = client.roundtrip("PARSE parses=1 -- the dog runs");
    assert_eq!(field(&third, "cached"), "false");

    let stats = handle.shutdown();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 2);
    assert_eq!(stats.parse_responses(), stats.requests);
}

#[test]
fn lexicon_and_protocol_errors_are_typed() {
    let handle = Server::start(english_config()).unwrap();
    let mut client = Client::connect(handle.addr());

    // Unknown word: a typed engine error on the wire, decodable by the
    // same codec the CLI's --batch stderr uses.
    let (status, fields) = client.roundtrip("PARSE the zyzzyva runs");
    assert_eq!(status, "ERR");
    let cause = decode_cause(field(&fields, "cause")).unwrap();
    assert_eq!(cause.code(), "LEXICON");
    assert!(cause.to_string().contains("zyzzyva"));

    // Protocol violations answer with proto= and keep the connection.
    let (status, fields) = client.roundtrip("FROB the knob");
    assert_eq!(status, "ERR");
    assert!(field(&fields, "proto").contains("unknown verb"));

    let (status, _) = client.roundtrip("PARSE parses=0 -- the dog runs");
    assert_eq!(status, "ERR");

    let (status, fields) = client.roundtrip("PARSE engine=abacus -- the dog runs");
    assert_eq!(status, "ERR");
    assert!(field(&fields, "proto").contains("unknown engine"));

    // wire/2: an unknown config key is its own typed error shape, naming
    // the offending key, rather than a free-text proto= message.
    let (status, fields) = client.roundtrip("PARSE retries=9 -- the dog runs");
    assert_eq!(status, "ERR");
    assert_eq!(field(&fields, "cause"), "unknown-key");
    assert_eq!(field(&fields, "key"), "retries");
    let (status, fields) = client.roundtrip("PARSE batch=mega -- the dog runs");
    assert_eq!(status, "ERR");
    assert_eq!(field(&fields, "cause"), "unknown-key");
    assert_eq!(field(&fields, "key"), "batch");

    let stats = handle.shutdown();
    // Engine-level errors (unknown word, unknown engine) are admitted
    // requests; malformed lines (bad verb, parses=0, unknown keys) never
    // became one.
    assert_eq!(stats.errors, 2);
    assert_eq!(stats.proto_errors, 4);
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.parse_responses(), stats.requests);
}

#[test]
fn oversized_lines_are_refused_and_the_connection_keeps_serving() {
    let handle = Server::start(english_config()).unwrap();
    let mut client = Client::connect(handle.addr());
    // A 1 MiB line: far past the 64 KiB bound, so the server must skip
    // it to its newline rather than buffer it.
    let long = format!("PARSE {}", "dog ".repeat(256 * 1024));
    let (status, fields) = client.roundtrip(&long);
    assert_eq!(status, "ERR");
    assert_eq!(field(&fields, "cause"), "line-too-long");
    assert_eq!(
        field(&fields, "max_bytes"),
        parsec_serve::wire::MAX_LINE_BYTES.to_string()
    );
    assert_eq!(client.request("PING"), "PONG");
    // A line at the bound is still read whole.
    let at_bound = format!(
        "PARSE -- {}",
        "x".repeat(parsec_serve::wire::MAX_LINE_BYTES - 9)
    );
    assert_eq!(at_bound.len(), parsec_serve::wire::MAX_LINE_BYTES);
    let (status, fields) = client.roundtrip(&at_bound);
    assert_eq!(status, "ERR");
    assert_eq!(
        decode_cause(field(&fields, "cause")).unwrap().code(),
        "LEXICON"
    );
    // The bound excludes the line ending, so the same line sent with a
    // CRLF ending is read whole too; one byte more is refused.
    let (status, fields) = client.roundtrip(&format!("{at_bound}\r"));
    assert_eq!(status, "ERR");
    assert_eq!(
        decode_cause(field(&fields, "cause")).unwrap().code(),
        "LEXICON"
    );
    let (status, fields) = client.roundtrip(&format!("{at_bound}x\r"));
    assert_eq!(status, "ERR");
    assert_eq!(field(&fields, "cause"), "line-too-long");
    assert_eq!(client.request("PING"), "PONG");

    let stats = handle.shutdown();
    assert_eq!(stats.proto_errors, 2);
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.parse_responses(), stats.requests);
}

#[test]
fn empty_sentence_is_a_typed_lexicon_error_not_a_proto_error() {
    // `PARSE --` used to be rejected at the protocol layer with an
    // untyped proto= line, while the CLI's empty --batch exited silently:
    // "no input" took inconsistent paths. Both now speak the same typed
    // vocabulary — the wire-encoded EmptySentence lexicon error.
    let handle = Server::start(english_config()).unwrap();
    let mut client = Client::connect(handle.addr());
    for line in ["PARSE --", "PARSE", "PARSE parses=2 --"] {
        let (status, fields) = client.roundtrip(line);
        assert_eq!(status, "ERR", "line `{line}`");
        let cause = decode_cause(field(&fields, "cause")).unwrap();
        assert_eq!(cause.code(), "LEXICON", "line `{line}`");
        assert!(
            cause.to_string().contains("at least one word"),
            "line `{line}`: {cause}"
        );
    }
    let stats = handle.shutdown();
    // All three were admitted requests that errored — none were protocol
    // errors, and each got exactly one response.
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.errors, 3);
    assert_eq!(stats.proto_errors, 0);
    assert_eq!(stats.parse_responses(), stats.requests);
}

#[test]
fn queued_bursts_answer_every_request_identically() {
    // One slow worker + a concurrent burst: the worker's first pop leaves
    // the rest of the burst queued behind it. Every request must still get
    // its own correct, fully-accounted response.
    let handle = Server::start(ServeConfig {
        workers: 1,
        cache_capacity: 0,
        service_delay: Duration::from_millis(25),
        ..english_config()
    })
    .unwrap();
    let addr = handle.addr();
    let texts = [
        "the dog runs",
        "dog the runs",
        "she sleeps",
        "the dog runs in the park",
        "runs sees",
        "the watch runs",
    ];
    let threads: Vec<_> = texts
        .iter()
        .map(|&text| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let (status, fields) = client.roundtrip(&format!("PARSE {text}"));
                (text, status, field(&fields, "accepted").to_string())
            })
        })
        .collect();
    for t in threads {
        let (text, status, accepted) = t.join().unwrap();
        assert_eq!(status, "OK", "`{text}`");
        let expect = !matches!(text, "dog the runs" | "runs sees");
        assert_eq!(accepted, expect.to_string(), "`{text}`");
    }
    let stats = handle.shutdown();
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.ok, 6);
    assert_eq!(stats.parse_responses(), stats.requests);
}

#[test]
fn budget_exhaustion_degrades_with_cause() {
    let handle = Server::start(english_config()).unwrap();
    let mut client = Client::connect(handle.addr());

    let (status, fields) =
        client.roundtrip("PARSE budget=cells=1 -- the dog sees the cat in the park");
    assert_eq!(status, "DEGRADED");
    assert_eq!(field(&fields, "class"), "standard");
    let cause = decode_cause(field(&fields, "cause")).unwrap();
    assert_eq!(cause.code(), "BUDGET");

    let stats = handle.shutdown();
    assert_eq!(stats.degraded, 1);
    assert_eq!(stats.ok, 0);
}

#[test]
fn faults_retry_then_recover_or_exhaust() {
    let handle = Server::start(tiny_maspar_config()).unwrap();
    let mut client = Client::connect(handle.addr());

    // The plan clears after one attempt: the retry path recovers.
    let (status, fields) = client
        .roundtrip("PARSE faults=dead=0,dead=1,dead=2,dead=3 transient=1 -- the program runs");
    assert_eq!(status, "OK");
    assert_eq!(field(&fields, "engine"), "maspar");
    assert_eq!(field(&fields, "accepted"), "true");
    assert_eq!(field(&fields, "retries"), "1");

    // A persistent dead-array plan exhausts every attempt.
    let (status, fields) =
        client.roundtrip("PARSE faults=dead=0,dead=1,dead=2,dead=3 -- the program runs");
    assert_eq!(status, "FAULT");
    assert_eq!(field(&fields, "retries"), "2");
    let cause = decode_cause(field(&fields, "cause")).unwrap();
    assert_eq!(cause.code(), "PE_FAILURE");
    assert!(cause.is_transient());

    let stats = handle.shutdown();
    assert_eq!(stats.ok, 1);
    assert_eq!(stats.faults, 1);
    assert_eq!(stats.retries, 3);
    assert_eq!(stats.parse_responses(), stats.requests);
}

#[test]
fn per_request_engine_override() {
    let handle = Server::start(english_config()).unwrap();
    let mut client = Client::connect(handle.addr());

    for engine in ["serial", "pram", "maspar"] {
        let (status, fields) = client.roundtrip(&format!("PARSE engine={engine} -- the dog runs"));
        assert_eq!(status, "OK", "engine {engine}");
        assert_eq!(field(&fields, "engine"), engine);
        assert_eq!(field(&fields, "accepted"), "true");
    }

    let stats = handle.shutdown();
    assert_eq!(stats.ok, 3);
    // Three engines, three digests: no accidental cross-engine cache hits.
    assert_eq!(stats.cache_misses, 3);
    assert_eq!(stats.cache_hits, 0);
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let handle = Server::start(ServeConfig {
        cache_capacity: 0, // answers must come from the engine every time
        ..english_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr());

    // Write the whole burst before reading anything: responses must come
    // back one per request, in request order.
    let texts = [
        "the dog runs",
        "dog the runs",
        "the dog runs",
        "dog the runs",
    ];
    for text in texts {
        client.send(&format!("PARSE {text}"));
    }
    for (i, text) in texts.iter().enumerate() {
        let line = client.read_line();
        let (status, fields) = parsec_serve::split_response(&line).unwrap();
        assert_eq!(status, "OK", "response {i}");
        let expect_accept = !text.starts_with("dog");
        assert_eq!(
            field(&fields, "accepted"),
            if expect_accept { "true" } else { "false" },
            "response {i} must answer request {i} (`{text}`)"
        );
    }

    let stats = handle.shutdown();
    assert_eq!(stats.ok, 4);
}

#[test]
fn fleet_mode_parses_and_reports_shards() {
    let handle = Server::start(ServeConfig {
        shards: 2,
        ..english_config()
    })
    .unwrap();
    let mut client = Client::connect(handle.addr());

    let (status, fields) = client.roundtrip("PARSE the dog runs");
    assert_eq!(status, "OK");
    assert_eq!(field(&fields, "accepted"), "true");

    // STATS exposes the fleet shape: shard count and the band plan.
    let (status, fields) = client.roundtrip("STATS");
    assert_eq!(status, "STATS");
    assert_eq!(field(&fields, "shards"), "2");
    assert!(field(&fields, "bands").contains(".."));

    // The per-shard ledger saw exactly the one serviced request.
    let fleet = handle.fleet_stats();
    assert_eq!(fleet.len(), 2);
    assert!(fleet.iter().all(|s| s.alive));
    assert_eq!(fleet.iter().map(|s| s.serviced).sum::<u64>(), 1);
    for snap in &fleet {
        assert!(snap
            .render()
            .starts_with(&format!("serve.shard[{}]:", snap.id)));
    }

    let stats = handle.shutdown();
    assert_eq!(stats.ok, 1);
    assert_eq!(stats.parse_responses(), stats.requests);
}

#[test]
fn connection_cap_sheds_with_a_typed_line() {
    let handle = Server::start(ServeConfig {
        max_connections: 1,
        ..english_config()
    })
    .unwrap();

    let mut first = Client::connect(handle.addr());
    // Round-trip once so the accept loop has definitely registered it.
    assert_eq!(first.request("PING"), "PONG");

    // A refused connection gets no greeting: its whole conversation is
    // the SHED line, so connect raw.
    let mut second = Client::connect_raw(handle.addr());
    let line = second.read_line();
    let (status, fields) = parsec_serve::split_response(&line).unwrap();
    assert_eq!(status, "SHED");
    assert_eq!(field(&fields, "reason"), "connections");

    // The surviving connection still works.
    assert_eq!(first.request("PING"), "PONG");

    let stats = handle.shutdown();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.shed_connections, 1);
    // Connection sheds are not parse responses; no parse ran at all.
    assert_eq!(stats.requests, 0);
    assert_eq!(stats.parse_responses(), 0);
}
