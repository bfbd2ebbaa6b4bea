//! The [`Engine`] implementation for the simulated MasPar MP-1 backend.

use crate::engine::{parse_maspar_compiled, MasparOptions};
use cdg_core::api::{Engine, ObsvScope, ParseReport, ParseRequest, WarmState};
use cdg_core::consistency::is_locally_consistent;
use cdg_core::extract::precedence_graphs;
use cdg_core::parser::FilterMode;
use cdg_core::EngineError;
use std::time::Instant;

/// The MasPar MP-1 engine (§2.2): one SIMD parse per sentence on the
/// simulated PE array, with fault detection/recovery and budget
/// enforcement.
///
/// The per-request [`ParseRequest`] fields override the embedded
/// [`MasparOptions`]: `options.budget` and `faults` are taken from the
/// request, and [`FilterMode`] maps onto the machine's bounded filtering
/// (`None` → 0 iterations, `Bounded(k)` → k, `Fixpoint` → the configured
/// iteration cap — design decision 5 has no true fixpoint mode).
/// `ParseRequest::threads` is ignored: the simulated array's shape comes
/// from [`MasparOptions::machine`], not the host's core count. An
/// attached `ParseRequest::compiled` artifact supplies the constraint
/// programs; without one they are compiled per parse.
#[derive(Debug, Clone, Default)]
pub struct Maspar {
    /// Machine shape, trace flag, recovery retries, and the filter
    /// iteration cap used for `FilterMode::Fixpoint` requests.
    pub options: MasparOptions,
}

impl Maspar {
    /// An engine around specific machine options.
    pub fn with_options(options: MasparOptions) -> Self {
        Maspar { options }
    }

    /// The unpacked `Plural<bool>` oracle engine (bit-sliced execution
    /// off): identical outcomes and simulated costs, slower host wall —
    /// the differential baseline for the packed path.
    pub fn scalar_oracle() -> Self {
        Maspar {
            options: MasparOptions {
                packed: false,
                ..Default::default()
            },
        }
    }

    fn options_for(&self, req: &ParseRequest<'_>) -> MasparOptions {
        let mut opts = self.options.clone();
        opts.budget = req.options.budget;
        opts.faults = req.faults.clone();
        match req.options.filter {
            FilterMode::None => opts.filter_iterations = 0,
            FilterMode::Bounded(k) => opts.filter_iterations = k,
            // The machine has no fixpoint detector; keep the configured
            // bounded cap ("typically fewer than 10 are required").
            FilterMode::Fixpoint => {}
        }
        opts
    }
}

impl Engine for Maspar {
    fn name(&self) -> &'static str {
        "maspar"
    }

    fn fault_model(&self) -> bool {
        true
    }

    /// One checked SIMD parse plus host readback; the simulator keeps its
    /// own per-call state, so the [`WarmState`] goes unused. In a batch, a
    /// sentence the machine cannot take (unsupported layout, blown budget
    /// pre-check, unrecoverable faults) becomes a refused row.
    fn parse_warm<'g>(
        &self,
        req: &ParseRequest<'g>,
        _warm: &mut WarmState,
    ) -> Result<ParseReport<'g>, EngineError> {
        let sentence = req.admit(self)?;
        let scope = ObsvScope::begin(req);
        let opts = self.options_for(req);
        let start = Instant::now();
        let (out, network, parses) = {
            let _root = obsv::span("parse");
            let out = parse_maspar_compiled(req.grammar, sentence, &opts, req.compiled.as_deref())?;
            let network = {
                // Rebuilding the host network re-enters the sequential
                // primitives, so their spans nest under `readback`.
                let _rb = obsv::span("readback");
                out.to_network(req.grammar, sentence)
            };
            let parses = precedence_graphs(&network, req.max_parses);
            (out, network, parses)
        };
        obsv::counter_add("maspar.probes", out.recovery.probes as u64);
        obsv::counter_add("maspar.retired_pes", out.recovery.retired_pes.len() as u64);
        obsv::counter_add(
            "maspar.verified_phases",
            out.recovery.verified_phases as u64,
        );
        obsv::counter_add(
            "faults.detected",
            out.recovery.retired_pes.len() as u64 + out.recovery.phase_retries,
        );
        obsv::counter_add(
            "faults.recovered",
            u64::from(out.recovery.intervened() && out.degraded.is_none()),
        );
        obsv::counter_add("maspar.phase_retries", out.recovery.phase_retries);
        obsv::counter_add("maspar.fault_events", out.stats.fault_events());
        obsv::counter_add("maspar.plural_ops", out.stats.plural_ops);
        obsv::counter_add("maspar.router_ops", out.stats.router_ops);
        obsv::counter_add("maspar.scan_calls", out.stats.scan_calls);
        obsv::histogram_record("filter.passes", out.filter_iterations_run as f64);
        obsv::gauge_set("maspar.estimated_seconds", out.estimated_seconds);
        obsv::gauge_set("maspar.virt_factor", out.virt_factor as f64);
        obsv::gauge_set("maspar.virt_pes", out.layout.virt_pes() as f64);
        let locally_consistent = is_locally_consistent(&network);
        let (trace, metrics) = scope.finish();
        Ok(ParseReport {
            engine: self.name(),
            accepted: !parses.is_empty(),
            ambiguous: network.slots().iter().any(|s| s.alive_count() > 1),
            roles_nonempty: out.roles_nonempty(),
            locally_consistent,
            filter_passes: out.filter_iterations_run,
            degraded: out.degraded,
            fault_recovered: out.recovery.intervened(),
            parses,
            wall: start.elapsed(),
            machine_stats: Some(out.stats),
            estimated_seconds: Some(out.estimated_seconds),
            trace,
            metrics,
            network,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::parse_maspar;
    use cdg_grammar::grammars::paper;
    use maspar_sim::FaultPlan;
    use std::sync::Mutex;

    static OBSV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn report_matches_the_checked_entry_point() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let out = parse_maspar(&g, &s, &MasparOptions::default());
        let report = Maspar::default()
            .parse(&ParseRequest::new(&g).sentence(s.clone()).max_parses(10))
            .unwrap();
        assert_eq!(report.engine, "maspar");
        assert!(report.accepted);
        assert!(!report.fault_recovered);
        assert_eq!(report.roles_nonempty, out.roles_nonempty());
        assert_eq!(report.filter_passes, out.filter_iterations_run);
        assert_eq!(
            report.network.total_alive(),
            out.to_network(&g, &s).total_alive()
        );
    }

    #[test]
    fn scalar_oracle_engine_reports_identically() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let req = ParseRequest::new(&g).sentence(s).max_parses(10);
        let packed = Maspar::default().parse(&req).unwrap();
        let oracle = Maspar::scalar_oracle().parse(&req).unwrap();
        assert_eq!(packed.accepted, oracle.accepted);
        assert_eq!(packed.roles_nonempty, oracle.roles_nonempty);
        assert_eq!(packed.filter_passes, oracle.filter_passes);
        assert_eq!(packed.parses, oracle.parses);
        assert_eq!(
            packed.network.total_alive(),
            oracle.network.total_alive(),
            "packed and oracle engines must read back the same network"
        );
    }

    #[test]
    fn trace_covers_the_paper_phases_and_recovery() {
        let _l = OBSV_LOCK.lock().unwrap();
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let report = Maspar::default()
            .parse(
                &ParseRequest::new(&g)
                    .sentence(s)
                    .faults(FaultPlan::new().with_dead_pe(3))
                    .trace(true)
                    .metrics(true),
            )
            .unwrap();
        assert!(report.fault_recovered);
        let names = report.trace.as_ref().unwrap().names();
        for phase in [
            "parse",
            "network_build",
            "fault_probe",
            "arc_init",
            "unary_propagation",
            "binary_propagation",
            "filtering",
            "maintain",
            "verify",
            "readback",
            "extraction",
        ] {
            assert!(names.iter().any(|n| n == phase), "missing span `{phase}`");
        }
        let snap = report.metrics.unwrap();
        assert!(snap.counter("maspar.retired_pes").unwrap() > 0);
        assert!(snap.counter("maspar.verified_phases").unwrap() > 0);
        assert_eq!(snap.counter("faults.recovered"), Some(1));
        assert!(!obsv::tracing_enabled() && !obsv::metrics_enabled());
    }

    #[test]
    fn filter_mode_maps_onto_bounded_iterations() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let none = Maspar::default()
            .parse(
                &ParseRequest::new(&g)
                    .sentence(s.clone())
                    .filter(FilterMode::None),
            )
            .unwrap();
        assert_eq!(none.filter_passes, 0);
        let bounded = Maspar::default()
            .parse(
                &ParseRequest::new(&g)
                    .sentence(s)
                    .filter(FilterMode::Bounded(1)),
            )
            .unwrap();
        assert_eq!(bounded.filter_passes, 1);
    }

    #[test]
    fn batch_degrades_unsupported_sentences_instead_of_failing() {
        let g = paper::grammar();
        let lex = paper::lexicon(&g);
        let sentences = vec![
            paper::example_sentence(&g),
            lex.sentence("program the runs").unwrap(),
        ];
        let report = Maspar::default()
            .parse_batch(&sentences, &ParseRequest::new(&g).max_parses(10))
            .unwrap();
        assert_eq!(report.outcomes.len(), 2);
        assert!(report.outcomes[0].accepted);
        assert!(!report.outcomes[1].accepted);
    }
}
