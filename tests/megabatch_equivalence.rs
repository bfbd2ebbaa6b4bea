//! Batch ≡ solo parity on the paper grammar: every engine's
//! `Engine::parse_batch` must report, slot by slot, the summary each
//! sentence's solo `Engine::parse` gives, for a batch with a rejected
//! line, for faulted batches, and for the empty batch. The file and test
//! names date from when a second, cross-sentence batch strategy existed;
//! per-sentence batching is now the only path, checked against solo
//! parses.

mod common;

use cdg_core::api::ParseRequest;
use cdg_grammar::grammars::{english, paper};

const ENGINES: [&str; 3] = ["serial", "pram", "maspar"];

#[test]
fn maspar_engine_batch_parity_with_mid_batch_unsupported_sentences() {
    // A paper-grammar batch with a rejected line between two parseable
    // ones: every row must be that sentence's solo summary.
    let grammar = paper::grammar();
    let lexicon = paper::lexicon(&grammar);
    let batch = vec![
        paper::example_sentence(&grammar),
        lexicon.sentence("program the runs").unwrap(),
        paper::example_sentence(&grammar),
    ];
    let req = ParseRequest::new(&grammar).max_parses(16);
    for name in ENGINES {
        let engine = parsec::engine_by_name(name).unwrap();
        common::assert_batch_matches_solo(name, engine.as_ref(), &batch, &req);
    }
}

#[test]
fn fault_recovery_is_identical_because_faulted_requests_never_coalesce() {
    // A seeded transient plan: the MasPar recovers (or degrades) each
    // sentence exactly as it does solo; the host engines refuse the plan
    // with a typed error, batched and solo alike.
    let grammar = paper::grammar();
    let batch = vec![
        paper::example_sentence(&grammar),
        paper::example_sentence(&grammar),
    ];
    for name in ENGINES {
        let engine = parsec::engine_by_name(name).unwrap();
        for seed in 0..4u64 {
            let plan = maspar_sim::FaultPlan::seeded(seed, 16, 2_000);
            let req = ParseRequest::new(&grammar).max_parses(8).faults(plan);
            let label = format!("{name} seed {seed}");
            common::assert_batch_matches_solo(&label, engine.as_ref(), &batch, &req);
        }
    }
}

#[test]
fn empty_batches_agree_across_strategies() {
    let grammar = english::grammar();
    let req = ParseRequest::new(&grammar).max_parses(16);
    for name in ENGINES {
        let engine = parsec::engine_by_name(name).unwrap();
        let report = engine.parse_batch(&[], &req).expect("an empty batch runs");
        assert!(report.outcomes.is_empty(), "{name}: empty batch has rows");
    }
}
