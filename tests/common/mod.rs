//! Test support shared by the batch-parity suites.

use cdg_core::api::{Engine, ParseRequest};
use cdg_core::BatchOutcome;
use cdg_grammar::Sentence;

/// `Engine::parse_batch` must summarize every sentence exactly as that
/// sentence's solo `Engine::parse` does. A batch the engine refuses
/// outright (a fault plan on a host engine) must be refused solo too.
pub fn assert_batch_matches_solo(
    name: &str,
    engine: &dyn Engine,
    sentences: &[Sentence],
    req: &ParseRequest<'_>,
) {
    let solo = |s: &Sentence| engine.parse(&req.clone().sentence(s.clone()));
    let report = match engine.parse_batch(sentences, req) {
        Ok(report) => report,
        Err(e) => {
            assert!(!sentences.is_empty(), "{name}: empty batch refused: {e}");
            for s in sentences {
                assert!(solo(s).is_err(), "{name}: batch refused `{s}` but solo ran");
            }
            return;
        }
    };
    assert_eq!(report.outcomes.len(), sentences.len(), "{name}");
    for (s, row) in sentences.iter().zip(&report.outcomes) {
        let expected = solo(s).map_or_else(|_| BatchOutcome::refused(), |r| r.summary());
        assert_eq!(
            row, &expected,
            "{name}: batch row diverged from solo parse of `{s}`"
        );
    }
}
