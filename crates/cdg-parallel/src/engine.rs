//! The [`Engine`] implementation for the P-RAM backend.

use crate::pram::parse_pram_compiled;
use cdg_core::api::{record_net_stats, BatchReport, Engine, ObsvScope, ParseReport, ParseRequest};
use cdg_core::consistency::is_locally_consistent;
use cdg_core::EngineError;
use cdg_grammar::Sentence;
use std::time::Instant;

/// The CRCW-P-RAM engine (§2.1): intra-sentence parallelism for single
/// parses, sentence-parallel fan-out for batches.
///
/// `ParseRequest::threads` resizes the global rayon pool (like the CLI's
/// `--threads`); `ParseRequest::budget` is not enforced by this engine —
/// the P-RAM pipeline has no budget checkpoints — so reports never come
/// back degraded.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pram;

impl Engine for Pram {
    fn name(&self) -> &'static str {
        "pram"
    }

    fn parse<'g>(&self, req: &ParseRequest<'g>) -> Result<ParseReport<'g>, EngineError> {
        let sentence = req.require_sentence()?;
        req.reject_faults(self.name())?;
        if let Some(threads) = req.threads {
            rayon::set_num_threads(threads);
        }
        let scope = ObsvScope::begin(req);
        let start = Instant::now();
        let (outcome, parses) = {
            let _root = obsv::span("parse");
            let outcome =
                parse_pram_compiled(req.grammar, sentence, req.options, req.compiled.clone());
            let parses = outcome.parses(req.max_parses);
            (outcome, parses)
        };
        record_net_stats(&outcome.network.stats);
        obsv::counter_add("pram.steps", outcome.stats.steps as u64);
        obsv::gauge_set("pram.max_width", outcome.stats.max_width as f64);
        obsv::histogram_record("filter.passes", outcome.filter_passes as f64);
        let locally_consistent = is_locally_consistent(&outcome.network);
        let (trace, metrics) = scope.finish();
        Ok(ParseReport {
            engine: self.name(),
            accepted: outcome.accepted(),
            ambiguous: outcome.network.slots().iter().any(|s| s.alive_count() > 1),
            roles_nonempty: outcome.roles_nonempty,
            locally_consistent,
            filter_passes: outcome.filter_passes,
            degraded: None,
            fault_recovered: false,
            parses,
            wall: start.elapsed(),
            machine_stats: None,
            estimated_seconds: None,
            trace,
            metrics,
            network: outcome.network,
        })
    }

    fn parse_batch(
        &self,
        sentences: &[Sentence],
        req: &ParseRequest<'_>,
    ) -> Result<BatchReport, EngineError> {
        req.reject_faults(self.name())?;
        if let Some(threads) = req.threads {
            rayon::set_num_threads(threads);
        }
        let scope = ObsvScope::begin(req);
        let start = Instant::now();
        let outcomes =
            crate::batch::parse_batch(req.grammar, sentences, req.options, req.max_parses);
        obsv::counter_add("batch.sentences", sentences.len() as u64);
        let (trace, metrics) = scope.finish();
        Ok(BatchReport {
            engine: self.name(),
            outcomes,
            wall: start.elapsed(),
            trace,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_core::api::Sequential;
    use cdg_core::parser::ParseOptions;
    use cdg_grammar::grammars::{english, paper};
    use std::sync::Mutex;

    static OBSV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn report_matches_the_sequential_engine() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = lex.sentence("the dog runs in the park").unwrap();
        let req = ParseRequest::new(&g).sentence(s).max_parses(50);
        let serial = Sequential.parse(&req).unwrap();
        let pram = Pram.parse(&req).unwrap();
        assert_eq!(pram.engine, "pram");
        assert_eq!(pram.accepted, serial.accepted);
        assert_eq!(pram.ambiguous, serial.ambiguous);
        assert_eq!(pram.parses, serial.parses);
        assert_eq!(pram.network.total_alive(), serial.network.total_alive());
    }

    #[test]
    fn trace_covers_the_paper_phases_in_parallel() {
        let _l = OBSV_LOCK.lock().unwrap();
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let report = Pram
            .parse(&ParseRequest::new(&g).sentence(s).trace(true).metrics(true))
            .unwrap();
        let names = report.trace.as_ref().unwrap().names();
        for phase in [
            "parse",
            "network_build",
            "unary_propagation",
            "arc_init",
            "binary_propagation",
            "filtering",
            "maintain",
            "extraction",
        ] {
            assert!(names.iter().any(|n| n == phase), "missing span `{phase}`");
        }
        let snap = report.metrics.unwrap();
        assert!(snap.counter("pram.steps").unwrap() > 0);
    }

    #[test]
    fn batch_via_trait_matches_free_function() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let sentences: Vec<_> = ["the dog runs", "dog the runs", "she sleeps"]
            .iter()
            .map(|t| lex.sentence(t).unwrap())
            .collect();
        let free = crate::batch::parse_batch(&g, &sentences, ParseOptions::default(), 10);
        let report = Pram
            .parse_batch(&sentences, &ParseRequest::new(&g).max_parses(10))
            .unwrap();
        assert_eq!(report.outcomes, free);
        assert_eq!(report.accepted(), 2);
    }
}
