//! Observability must be inert: arming the trace/metrics layer must not
//! change one bit of any engine's parse output.
//!
//! For 32 corpus seeds and every bundled grammar, each engine parses the
//! same request twice — tracing and metrics off, then on — and the full
//! output digest (alive sets, flags, extracted parses) must be identical.
//! Sentences an engine cannot take (the MasPar layout rejects lexically
//! ambiguous input) must fail identically on both runs.

use bench::report::fnv1a;
use cdg_core::api::{Engine, ParseRequest, Sequential};
use cdg_core::EngineError;
use cdg_grammar::grammars::{english, formal, paper};
use cdg_grammar::{Grammar, Sentence};
use cdg_parallel::Pram;
use parsec_maspar::Maspar;
use std::sync::Mutex;

// The obsv layer is process-global; every test in this binary serializes
// on one lock so a traced run never overlaps an untraced one.
static OBSV_LOCK: Mutex<()> = Mutex::new(());

/// Digest of everything an engine reports that parsing determines.
fn digest(report: &cdg_core::api::ParseReport<'_>) -> u64 {
    let mut buf = String::new();
    for slot in report.network.slots() {
        buf.push_str(&format!("{:?};", slot.alive_indices()));
    }
    buf.push_str(&format!(
        "|{}|{}|{}|{}|{}|{:?}",
        report.accepted,
        report.ambiguous,
        report.roles_nonempty,
        report.locally_consistent,
        report.filter_passes,
        report.parses
    ));
    fnv1a(buf.as_bytes())
}

/// Parse with observability off and on; the outputs must be identical —
/// same digest on success, same typed error on failure.
fn assert_inert(engine: &dyn Engine, grammar: &Grammar, sentence: &Sentence, what: &str) {
    let plain = ParseRequest::new(grammar).sentence(sentence.clone());
    let armed = ParseRequest::new(grammar)
        .sentence(sentence.clone())
        .trace(true)
        .metrics(true);
    let off = engine.parse(&plain);
    let on = engine.parse(&armed);
    match (off, on) {
        (Ok(off), Ok(on)) => {
            assert_eq!(
                digest(&off),
                digest(&on),
                "{}/{what}: tracing changed the parse output",
                engine.name()
            );
            assert!(on.trace.is_some() && on.metrics.is_some());
            assert!(off.trace.is_none() && off.metrics.is_none());
        }
        (Err(off), Err(on)) => {
            assert_eq!(
                format!("{off}"),
                format!("{on}"),
                "{}/{what}: tracing changed the error",
                engine.name()
            );
        }
        (off, on) => panic!(
            "{}/{what}: tracing flipped the outcome: off={off:?}, on={on:?}",
            engine.name()
        ),
    }
    assert!(!obsv::tracing_enabled() && !obsv::metrics_enabled());
}

#[test]
fn tracing_is_inert_across_seeds_and_engines() {
    let _l = OBSV_LOCK.lock().unwrap();
    let g = english::grammar();
    let lex = english::lexicon(&g);
    let engines: [&dyn Engine; 3] = [&Sequential, &Pram, &Maspar::default()];
    for seed in 0..32u64 {
        let n = 4 + (seed % 4) as usize;
        let s = corpus::english_sentence(&g, &lex, n, seed);
        for engine in engines {
            assert_inert(engine, &g, &s, &format!("english seed {seed}"));
        }
    }
}

#[test]
fn tracing_is_inert_on_every_bundled_grammar() {
    let _l = OBSV_LOCK.lock().unwrap();
    let engines: [&dyn Engine; 3] = [&Sequential, &Pram, &Maspar::default()];

    let g = paper::grammar();
    let lex = paper::lexicon(&g);
    let paper_sentences = [
        paper::example_sentence(&g),
        lex.sentence("program the runs").unwrap(),
        lex.sentence("the program the runs").unwrap(),
    ];
    for (i, s) in paper_sentences.iter().enumerate() {
        for engine in engines {
            assert_inert(engine, &g, s, &format!("paper #{i}"));
        }
    }

    let formal_cases: Vec<(&str, Grammar, Vec<Sentence>)> = {
        let anbn = formal::anbn_grammar();
        let brackets = formal::brackets_grammar();
        let ww = formal::ww_grammar();
        let www = formal::www_grammar();
        let anbn_ss = ["aabb", "aab"]
            .iter()
            .map(|t| formal::anbn_sentence(&anbn, t))
            .collect();
        let br_ss = ["(())", "([)]"]
            .iter()
            .map(|t| formal::brackets_sentence(&brackets, t))
            .collect();
        let ww_ss = ["0101", "011"]
            .iter()
            .map(|t| formal::ww_sentence(&ww, t))
            .collect();
        let www_ss = ["010101"]
            .iter()
            .map(|t| formal::ww_sentence(&www, t))
            .collect();
        vec![
            ("anbn", anbn, anbn_ss),
            ("brackets", brackets, br_ss),
            ("ww", ww, ww_ss),
            ("www", www, www_ss),
        ]
    };
    for (name, g, sentences) in &formal_cases {
        for (i, s) in sentences.iter().enumerate() {
            for engine in engines {
                assert_inert(engine, g, s, &format!("{name} #{i}"));
            }
        }
    }
}

#[test]
fn batch_tracing_is_inert() {
    let _l = OBSV_LOCK.lock().unwrap();
    let g = english::grammar();
    let lex = english::lexicon(&g);
    let sentences: Vec<Sentence> = (0..8u64)
        .map(|seed| corpus::english_sentence(&g, &lex, 5, seed))
        .collect();
    for engine in [&Sequential as &dyn Engine, &Pram, &Maspar::default()] {
        let plain = engine
            .parse_batch(&sentences, &ParseRequest::new(&g))
            .unwrap();
        let armed = engine
            .parse_batch(&sentences, &ParseRequest::new(&g).trace(true).metrics(true))
            .unwrap();
        assert_eq!(
            plain.outcomes,
            armed.outcomes,
            "{}: tracing changed batch outcomes",
            engine.name()
        );
        // One `parse` root per sentence: no per-sentence scope may take
        // the batch trace or leave a root out of it.
        let roots = &armed.trace.as_ref().expect("trace requested").roots;
        assert_eq!(
            roots.len(),
            sentences.len(),
            "{}: batch trace roots",
            engine.name()
        );
        assert!(roots.iter().all(|r| r.name == "parse"), "{}", engine.name());
        let metrics = armed.metrics.as_ref().unwrap();
        assert_eq!(
            metrics.counter("batch.sentences"),
            Some(sentences.len() as u64)
        );
        // Every report is recycled inside the batch, so its arc matrices
        // count as released there. The host engines release all they
        // acquired; MasPar builds its networks outside the pool.
        let releases = metrics.counter("pool.releases");
        assert!(releases > Some(0), "{}: no releases", engine.name());
        if let Some(acquires) = metrics.counter("pool.acquires") {
            assert_eq!(releases, Some(acquires), "{}", engine.name());
        }
    }
    assert!(!obsv::tracing_enabled() && !obsv::metrics_enabled());
}

/// The layer's own failure mode: a request that errors out must still
/// disarm tracing (the ObsvScope RAII guarantee), process-globally.
#[test]
fn errors_disarm_the_layer() {
    let _l = OBSV_LOCK.lock().unwrap();
    let g = paper::grammar();
    let req = ParseRequest::new(&g).trace(true).metrics(true);
    for engine in [&Sequential as &dyn Engine, &Pram, &Maspar::default()] {
        let err = engine.parse(&req);
        assert!(matches!(err, Err(EngineError::GrammarError(_))));
        assert!(
            !obsv::tracing_enabled() && !obsv::metrics_enabled(),
            "{} left the obsv layer armed after an error",
            engine.name()
        );
    }
}
