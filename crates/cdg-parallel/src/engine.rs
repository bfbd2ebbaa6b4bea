//! The [`Engine`] implementation for the P-RAM backend.

use crate::pram::parse_pram_compiled;
use cdg_core::api::{
    record_net_stats, run_batch, summarize_warm, BatchReport, Engine, ObsvScope, ParseReport,
    ParseRequest, Sequential, WarmState,
};
use cdg_core::consistency::is_locally_consistent;
use cdg_core::EngineError;
use cdg_grammar::Sentence;
use rayon::prelude::*;
use std::time::Instant;

/// The CRCW-P-RAM engine (§2.1): intra-sentence parallelism for single
/// parses, sentence-parallel fan-out for batches.
///
/// `ParseRequest::threads` resizes the global rayon pool (like the CLI's
/// `--threads`). A single parse runs the P-RAM pipeline, which keeps its
/// own per-call state (the [`WarmState`] goes unused) and has no budget
/// checkpoints, so those reports never come back degraded.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pram;

impl Engine for Pram {
    fn name(&self) -> &'static str {
        "pram"
    }

    fn parse_warm<'g>(
        &self,
        req: &ParseRequest<'g>,
        _warm: &mut WarmState,
    ) -> Result<ParseReport<'g>, EngineError> {
        let sentence = req.admit(self)?;
        if let Some(threads) = req.threads {
            rayon::set_num_threads(threads);
        }
        let scope = ObsvScope::begin(req);
        let start = Instant::now();
        let (outcome, parses, accepted) = {
            let _root = obsv::span("parse");
            let outcome =
                parse_pram_compiled(req.grammar, sentence, req.options, req.compiled.clone());
            let parses = outcome.parses(req.max_parses);
            let accepted = outcome.accepted();
            (outcome, parses, accepted)
        };
        record_net_stats(&outcome.network.stats);
        obsv::counter_add("pram.steps", outcome.stats.steps as u64);
        obsv::gauge_set("pram.max_width", outcome.stats.max_width as f64);
        obsv::histogram_record("filter.passes", outcome.filter_passes as f64);
        let locally_consistent = is_locally_consistent(&outcome.network);
        let (trace, metrics) = scope.finish();
        Ok(ParseReport {
            engine: self.name(),
            accepted,
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

    /// Sentence-parallel: each worker runs the sequential pipeline on its
    /// own [`WarmState`]. Chunk boundaries depend only on the batch length
    /// (the shim-rayon contract), so the rows are byte-identical to
    /// [`Sequential`]'s batch at any thread count.
    fn parse_batch(
        &self,
        sentences: &[Sentence],
        req: &ParseRequest<'_>,
    ) -> Result<BatchReport, EngineError> {
        run_batch(self, req, || {
            if let Some(threads) = req.threads {
                rayon::set_num_threads(threads);
            }
            // Each worker's per-sentence `parse` roots merge into the
            // global trace buffer on drop (see `obsv::span`).
            sentences
                .par_iter()
                .map_init(WarmState::new, |warm, s| {
                    summarize_warm(&Sequential, &req.batch_item(s), warm)
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn parallel_batch_matches_sequential_batch() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let sentences: Vec<Sentence> = [
            "the dog runs",
            "dog the runs",
            "the dog runs in the park",
            "the watch runs",
            "she sleeps",
            "the big red dog sees a small cat",
            "they often watch dogs near the table",
            "runs sees",
        ]
        .iter()
        .map(|t| lex.sentence(t).unwrap())
        .collect();

        let req = ParseRequest::new(&g).max_parses(50);
        let seq = Sequential.parse_batch(&sentences, &req).unwrap().outcomes;
        assert_eq!(seq.iter().filter(|o| o.accepted).count(), 6);
        for threads in [1usize, 2, 8] {
            let par = Pram
                .parse_batch(&sentences, &req.clone().threads(threads))
                .unwrap()
                .outcomes;
            assert_eq!(seq, par, "batch diverged at {threads} threads");
        }
        rayon::set_num_threads(0);
    }
}
