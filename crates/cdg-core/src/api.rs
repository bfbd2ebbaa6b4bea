//! The engine API: one request type, one report type, one trait.
//!
//! ```text
//! ParseRequest (builder) ──> Engine::parse_warm(&mut WarmState) ──> ParseReport
//!                       \──> Engine::parse        (fresh WarmState)
//!                       \──> Engine::parse_batch  (one WarmState, one loop) ──> BatchReport
//! ```
//!
//! [`ParseRequest`] carries everything any backend needs — grammar,
//! sentence, [`ParseOptions`] (filter mode, eval strategy, budget), an
//! optional [`FaultPlan`] (MasPar engine only), a thread count hint, and
//! the observability toggles. [`ParseReport`] is the union of what the
//! backends know: acceptance flags, the settled [`Network`], extracted
//! parses, budget/fault flags, and — when requested — the phase trace and
//! metrics snapshot from the `obsv` layer.
//!
//! Each engine writes exactly one parse body, [`Engine::parse_warm`].
//! A cold [`Engine::parse`] is that body on a fresh [`WarmState`] (which
//! allocates nothing until used), and [`Engine::parse_batch`] is a loop
//! over it sharing one `WarmState` and one [`ObsvScope`]. The free
//! function [`crate::parse`] remains as the bare pipeline the oracles and
//! tests compare against.

use crate::consistency::BmmScratch;
use crate::error::EngineError;
use crate::extract::PrecedenceGraph;
use crate::kernel::KernelScratch;
use crate::network::{NetSlab, Network};
use crate::parser::{parse_with_state, FilterMode, ParseOptions};
use crate::pool::{ArcPool, PoolStats};
use crate::stats::NetStats;
use cdg_grammar::{compiled, CompiledGrammar, Grammar, Sentence};
use maspar_sim::{FaultPlan, MachineStats};
use obsv::{MetricsSnapshot, Trace};
use std::sync::Arc;
use std::time::{Duration, Instant};

// The unified configuration surface lives in [`crate::config`]; it is
// re-exported here because `EngineConfig` is part of the engine API.
pub use crate::config::{
    ConfigError, EngineConfig, EngineConfigBuilder, SloClass, FAULT_HORIZON_OPS,
};

/// Everything needed to run one parse (or one batch) on any engine.
///
/// Build with the fluent methods:
///
/// ```
/// use cdg_core::api::{Engine, ParseRequest, Sequential};
/// use cdg_grammar::grammars::paper;
///
/// let grammar = paper::grammar();
/// let sentence = paper::example_sentence(&grammar);
/// let request = ParseRequest::new(&grammar)
///     .sentence(sentence)
///     .trace(true)
///     .max_parses(10);
/// let report = Sequential.parse(&request).unwrap();
/// assert!(report.accepted);
/// assert_eq!(report.parses.len(), 1);
/// let trace = report.trace.as_ref().unwrap();
/// assert!(trace.names().iter().any(|n| n == "binary_propagation"));
/// ```
#[derive(Debug, Clone)]
pub struct ParseRequest<'g> {
    pub grammar: &'g Grammar,
    /// The sentence for [`Engine::parse`]; [`Engine::parse_batch`] takes
    /// its sentences separately and ignores this field.
    pub sentence: Option<Sentence>,
    /// Pipeline options shared by all engines (filter mode, evaluation
    /// strategy, budget).
    pub options: ParseOptions,
    /// Fault schedule for the MasPar engine's detect-and-recover protocol.
    /// The host engines have no fault model and reject a request carrying
    /// one with [`EngineError::GrammarError`] rather than ignore it.
    pub faults: Option<FaultPlan>,
    /// Worker thread hint for batch parsing (`None` = all cores).
    pub threads: Option<usize>,
    /// Collect a phase trace ([`ParseReport::trace`]).
    pub trace: bool,
    /// Collect a metrics registry snapshot ([`ParseReport::metrics`]).
    pub metrics: bool,
    /// Cap on extracted precedence graphs per sentence.
    pub max_parses: usize,
    /// The grammar's compiled artifact (see
    /// [`cdg_grammar::compiled::CompiledGrammar`]). `None` (the default)
    /// makes every engine compile constraints per call — the oracle path.
    /// Attach one with [`ParseRequest::compiled`] (usually via
    /// [`resolve_compiled`]) and engines look programs up instead of
    /// recompiling; results are bit-identical either way.
    pub compiled: Option<Arc<CompiledGrammar>>,
}

impl<'g> ParseRequest<'g> {
    pub fn new(grammar: &'g Grammar) -> Self {
        ParseRequest {
            grammar,
            sentence: None,
            options: ParseOptions::default(),
            faults: None,
            threads: None,
            trace: false,
            metrics: false,
            max_parses: 10,
            compiled: None,
        }
    }

    /// Construct from the unified [`EngineConfig`] — the one shared path
    /// the CLI, the serve wire decoder, and programmatic callers use, so
    /// a config key is interpreted exactly once (in [`crate::config`]).
    pub fn with_config(grammar: &'g Grammar, config: &EngineConfig) -> Self {
        ParseRequest {
            options: config.parse_options(),
            faults: config.faults.clone(),
            threads: config.threads,
            max_parses: config.max_parses,
            ..ParseRequest::new(grammar)
        }
    }

    pub fn sentence(mut self, sentence: Sentence) -> Self {
        self.sentence = Some(sentence);
        self
    }

    pub fn options(mut self, options: ParseOptions) -> Self {
        self.options = options;
        self
    }

    pub fn filter(mut self, filter: FilterMode) -> Self {
        self.options.filter = filter;
        self
    }

    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    pub fn metrics(mut self, metrics: bool) -> Self {
        self.metrics = metrics;
        self
    }

    pub fn max_parses(mut self, max_parses: usize) -> Self {
        self.max_parses = max_parses;
        self
    }

    /// Attach the grammar's compiled artifact so engines skip per-call
    /// constraint compilation (see [`resolve_compiled`]).
    pub fn compiled(mut self, compiled: Arc<CompiledGrammar>) -> Self {
        self.compiled = Some(compiled);
        self
    }

    /// The sentence of a single-parse request on `engine`, after the
    /// checks every engine shares: a sentence is present, and a fault
    /// plan only reaches an engine with a fault model. Each
    /// [`Engine::parse_warm`] starts here.
    pub fn admit<E: Engine + ?Sized>(&self, engine: &E) -> Result<&Sentence, EngineError> {
        let sentence = self.sentence.as_ref().ok_or_else(|| {
            EngineError::GrammarError(
                "ParseRequest has no sentence; call .sentence(...) or use parse_batch".into(),
            )
        })?;
        self.reject_faults(engine)?;
        Ok(sentence)
    }

    /// The typed rejection an engine without a fault model
    /// ([`Engine::fault_model`]) gives a fault-carrying request.
    pub fn reject_faults<E: Engine + ?Sized>(&self, engine: &E) -> Result<(), EngineError> {
        if self.faults.is_some() && !engine.fault_model() {
            return Err(EngineError::GrammarError(format!(
                "engine `{}` has no fault model; fault injection requires the maspar engine",
                engine.name()
            )));
        }
        Ok(())
    }

    /// This request for one sentence of a batch: the batch owns the obsv
    /// scope, so the per-sentence request arms nothing that could take
    /// the batch's trace or reset its metrics.
    pub fn batch_item(&self, sentence: &Sentence) -> Self {
        let mut item = self.clone();
        item.sentence = Some(sentence.clone());
        item.trace = false;
        item.metrics = false;
        item
    }
}

/// Unified result of [`Engine::parse`] — the union of the old
/// `ParseOutcome`, `PramOutcome`, and `MasparOutcome` surfaces.
#[derive(Debug)]
pub struct ParseReport<'g> {
    /// Which engine produced this report (`"serial"`, `"pram"`, `"maspar"`).
    pub engine: &'static str,
    /// The settled network (for the MasPar engine: the host readback).
    pub network: Network<'g>,
    /// Constructive acceptance: at least one complete parse exists.
    pub accepted: bool,
    /// Some role kept more than one value.
    pub ambiguous: bool,
    /// The paper's necessary acceptance condition.
    pub roles_nonempty: bool,
    /// Whether filtering reached the fixpoint.
    pub locally_consistent: bool,
    /// Filtering passes (consistency-maintenance iterations) run.
    pub filter_passes: usize,
    /// `Some` when a [`crate::ParseBudget`] limit cut the parse short; the
    /// network is then a usable partial result.
    pub degraded: Option<EngineError>,
    /// Whether fault detection/recovery had to intervene (MasPar engine;
    /// always `false` on the host engines).
    pub fault_recovered: bool,
    /// Up to [`ParseRequest::max_parses`] precedence graphs.
    pub parses: Vec<PrecedenceGraph>,
    /// Host wall time for the whole request.
    pub wall: Duration,
    /// Simulated-machine operation counters (MasPar engine only): what
    /// the fleet aggregates per shard. `None` on the host engines.
    pub machine_stats: Option<MachineStats>,
    /// Deterministic estimated MP-1 seconds (MasPar engine only).
    pub estimated_seconds: Option<f64>,
    /// Phase trace, when [`ParseRequest::trace`] was set.
    pub trace: Option<Trace>,
    /// Metrics snapshot, when [`ParseRequest::metrics`] was set.
    pub metrics: Option<MetricsSnapshot>,
}

impl ParseReport<'_> {
    /// The abstract-operation counters of the settled network.
    pub fn stats(&self) -> &NetStats {
        &self.network.stats
    }

    /// Compact owned summary (the batch row type).
    pub fn summary(&self) -> BatchOutcome {
        BatchOutcome {
            accepted: self.accepted,
            ambiguous: self.ambiguous,
            roles_nonempty: self.roles_nonempty,
            locally_consistent: self.locally_consistent,
            filter_passes: self.filter_passes,
            degraded: self.degraded.is_some(),
            total_alive: self.network.total_alive(),
            parses: self.parses.clone(),
        }
    }
}

/// Owned per-sentence row of a batch — everything the batch callers (CLI,
/// bench harness, tests) consume, detached from the network so it can
/// cross threads and outlive the [`WarmState`] the network came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Constructive acceptance: at least one complete parse exists.
    pub accepted: bool,
    /// More than one role value survived somewhere.
    pub ambiguous: bool,
    /// The paper's necessary acceptance condition.
    pub roles_nonempty: bool,
    /// Whether filtering reached the fixpoint.
    pub locally_consistent: bool,
    /// Filtering passes run.
    pub filter_passes: usize,
    /// Whether a [`crate::ParseBudget`] limit cut the parse short, or the
    /// engine refused the sentence ([`BatchOutcome::refused`]).
    pub degraded: bool,
    /// Total alive role values in the settled network — a cheap digest of
    /// the full network state, used by the determinism suite.
    pub total_alive: usize,
    /// Up to `max_parses` precedence graphs, in extraction order.
    pub parses: Vec<PrecedenceGraph>,
}

impl BatchOutcome {
    /// The row for a sentence its engine refused with an error (the
    /// MasPar layout rejects lexical ambiguity, for one): not accepted,
    /// degraded, nothing alive.
    pub fn refused() -> Self {
        BatchOutcome {
            accepted: false,
            ambiguous: false,
            roles_nonempty: false,
            locally_consistent: false,
            filter_passes: 0,
            degraded: true,
            total_alive: 0,
            parses: Vec::new(),
        }
    }
}

/// Result of [`Engine::parse_batch`]: per-sentence summaries plus
/// batch-level observability.
#[derive(Debug)]
pub struct BatchReport {
    pub engine: &'static str,
    /// Per-sentence outcomes, in input order.
    pub outcomes: Vec<BatchOutcome>,
    /// Host wall time for the whole batch.
    pub wall: Duration,
    /// Phase trace over the whole batch (one `parse` root per sentence;
    /// worker-thread roots merge on drop), when requested.
    pub trace: Option<Trace>,
    /// Metrics snapshot over the whole batch, when requested.
    pub metrics: Option<MetricsSnapshot>,
}

impl BatchReport {
    pub fn accepted(&self) -> usize {
        self.outcomes.iter().filter(|o| o.accepted).count()
    }

    /// Per-phase `(name, total dur_ns, count)` aggregated over every
    /// sentence of the batch, from the trace — empty when the batch ran
    /// untraced. Concurrent workers sum, so totals may exceed `wall`.
    pub fn phase_totals(&self) -> Vec<(String, u64, u64)> {
        self.trace
            .as_ref()
            .map_or_else(Vec::new, Trace::phase_totals)
    }
}

/// One parsing backend. Implemented by [`Sequential`] (this crate),
/// `cdg_parallel::Pram`, and `parsec_maspar::Maspar`, each of which writes
/// only [`Engine::parse_warm`]; cold parses and batches are provided.
///
/// Span names are shared across implementations so traces are comparable
/// engine-to-engine (see DESIGN.md §11): `parse` (root), `network_build`,
/// `fault_probe` (maspar), `arc_init`, `unary_propagation`,
/// `binary_propagation`, `filtering` with `maintain` children, `verify`
/// (maspar, under faults), `extraction`.
pub trait Engine {
    /// Short stable name, also the `engine` field of trace documents.
    fn name(&self) -> &'static str;

    /// Whether the engine runs under a [`FaultPlan`]. Engines without a
    /// fault model refuse a fault-carrying request with one typed
    /// [`EngineError::GrammarError`] (see [`ParseRequest::reject_faults`]).
    fn fault_model(&self) -> bool {
        false
    }

    /// Parse `req.sentence` reusing the caller's [`WarmState`] — pooled
    /// arc matrices, the generation-stamped kernel scratch, and the BMM
    /// tile scratch survive from the previous request on this state
    /// (engines with per-call state of their own may ignore it). Results
    /// are bit-identical whatever the state has served before. The
    /// report's network keeps its allocations until the caller hands it
    /// back with [`WarmState::recycle_report`].
    fn parse_warm<'g>(
        &self,
        req: &ParseRequest<'g>,
        warm: &mut WarmState,
    ) -> Result<ParseReport<'g>, EngineError>;

    /// Parse `req.sentence` cold: [`Engine::parse_warm`] on a fresh
    /// [`WarmState`].
    fn parse<'g>(&self, req: &ParseRequest<'g>) -> Result<ParseReport<'g>, EngineError> {
        self.parse_warm(req, &mut WarmState::new())
    }

    /// Parse a slice of sentences under one request (`req.sentence` is
    /// ignored), returning per-sentence summaries plus batch
    /// observability. The sentences run in order through
    /// [`Engine::parse_warm`] on one [`WarmState`] under one
    /// [`ObsvScope`]; a sentence the engine refuses becomes
    /// [`BatchOutcome::refused`] rather than failing its siblings. A fault
    /// plan on an engine without a fault model refuses the whole batch.
    fn parse_batch(
        &self,
        sentences: &[Sentence],
        req: &ParseRequest<'_>,
    ) -> Result<BatchReport, EngineError> {
        run_batch(self, req, || {
            let mut warm = WarmState::new();
            sentences
                .iter()
                .map(|s| summarize_warm(self, &req.batch_item(s), &mut warm))
                .collect()
        })
    }
}

/// The shell around every batch: the fault-model check (once, for the
/// whole batch), one [`ObsvScope`], the wall clock, and the
/// `batch.sentences` counter, around `rows`, which produces one
/// [`BatchOutcome`] per sentence in input order.
pub fn run_batch<E: Engine + ?Sized>(
    engine: &E,
    req: &ParseRequest<'_>,
    rows: impl FnOnce() -> Vec<BatchOutcome>,
) -> Result<BatchReport, EngineError> {
    req.reject_faults(engine)?;
    let scope = ObsvScope::begin(req);
    let start = Instant::now();
    let outcomes = rows();
    obsv::counter_add("batch.sentences", outcomes.len() as u64);
    let (trace, metrics) = scope.finish();
    Ok(BatchReport {
        engine: engine.name(),
        outcomes,
        wall: start.elapsed(),
        trace,
        metrics,
    })
}

/// One batch row: parse `req` on `warm`, summarize the report, and hand its
/// allocations back to `warm` for the next sentence.
pub fn summarize_warm<E: Engine + ?Sized>(
    engine: &E,
    req: &ParseRequest<'_>,
    warm: &mut WarmState,
) -> BatchOutcome {
    match engine.parse_warm(req, warm) {
        Ok(mut report) => {
            let row = report.summary();
            warm.recycle_report(&mut report);
            row
        }
        Err(_) => BatchOutcome::refused(),
    }
}

/// Per-worker state that survives across requests in warm serving: the
/// [`ArcPool`] of recycled arc matrices, the generation-stamped
/// [`KernelScratch`], and the [`BmmScratch`] tile buffers. A request's
/// buffers become the next request's free list once its report is handed
/// back with [`WarmState::recycle_report`] — steady-state serving
/// allocates nothing per parse. Reset is by generation stamp (kernel) and
/// explicit zeroing on acquire (pool), so reuse cannot leak state between
/// requests and results stay bit-identical to a cold parse. A new state
/// allocates nothing, so a cold parse is a warm parse on a fresh state.
#[derive(Default)]
pub struct WarmState {
    pool: ArcPool,
    scratch: KernelScratch,
    bmm: BmmScratch,
    slab: NetSlab,
    parses: u64,
}

impl WarmState {
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests served on this state so far.
    pub fn parses(&self) -> u64 {
        self.parses
    }

    /// The warm pool's acquire/reuse/release ledger.
    pub fn pool_stats(&self) -> &PoolStats {
        &self.pool.stats
    }

    /// BMM count-buffer reuses on this state so far.
    pub fn bmm_reuses(&self) -> u64 {
        self.bmm.reuses()
    }

    /// Networks built out of recycled slot/pair storage so far.
    pub fn slab_reuses(&self) -> u64 {
        self.slab.reuses()
    }

    /// Hand a consumed report's network allocations back to this warm
    /// state: arc matrices to the pool, slot/pair storage to the slab.
    /// Call once the response has been rendered — the report's network is
    /// left empty (in particular [`ParseReport::summary`] would read
    /// zero alive values afterwards).
    ///
    /// Counts the matrices handed back as `pool.releases` (a no-op while
    /// metrics are disabled; inside a batch, the batch's metrics).
    pub fn recycle_report(&mut self, report: &mut ParseReport<'_>) {
        let before = self.pool.stats.releases;
        report.network.reclaim(&mut self.pool, &mut self.slab);
        obsv::counter_add("pool.releases", (self.pool.stats.releases - before) as u64);
    }
}

/// Resolve the process-wide compiled artifact for `grammar` (building it
/// on first sight of this content hash) and record the outcome in the
/// metrics registry: `compile.cache.hits`, `compile.cache.misses`, and
/// `compile.cache.build_ns` (build time, misses only). Attach the result
/// to requests with [`ParseRequest::compiled`].
pub fn resolve_compiled(grammar: &Grammar) -> Arc<CompiledGrammar> {
    let resolved = compiled::resolve(grammar);
    if resolved.cache_hit {
        obsv::counter_add("compile.cache.hits", 1);
    } else {
        obsv::counter_add("compile.cache.misses", 1);
        obsv::counter_add("compile.cache.build_ns", resolved.build_ns);
    }
    resolved.artifact
}

/// RAII scope that arms the `obsv` layer per [`ParseRequest`] and restores
/// it on the way out — including on early error returns, so a failed parse
/// never leaves tracing enabled process-wide. Engine implementations call
/// [`ObsvScope::begin`] first and [`ObsvScope::finish`] last.
#[derive(Debug)]
pub struct ObsvScope {
    trace: bool,
    metrics: bool,
    finished: bool,
}

impl ObsvScope {
    pub fn begin(req: &ParseRequest<'_>) -> Self {
        if req.trace {
            // Drop any stale roots so the collected trace is this parse's.
            let _ = obsv::take_trace();
            obsv::set_tracing(true);
        }
        if req.metrics {
            obsv::reset_metrics();
            obsv::set_metrics(true);
        }
        ObsvScope {
            trace: req.trace,
            metrics: req.metrics,
            finished: false,
        }
    }

    /// Disarm and collect. Call after the parse body completes.
    pub fn finish(mut self) -> (Option<Trace>, Option<MetricsSnapshot>) {
        self.finished = true;
        let trace = if self.trace {
            obsv::set_tracing(false);
            Some(obsv::take_trace())
        } else {
            None
        };
        let metrics = if self.metrics {
            obsv::set_metrics(false);
            Some(obsv::snapshot())
        } else {
            None
        };
        (trace, metrics)
    }
}

impl Drop for ObsvScope {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        if self.trace {
            obsv::set_tracing(false);
            let _ = obsv::take_trace();
        }
        if self.metrics {
            obsv::set_metrics(false);
        }
    }
}

/// Feed one parse's [`NetStats`] into the metrics registry (no-op while
/// metrics are disabled). The names are the registry's stable vocabulary.
pub fn record_net_stats(stats: &NetStats) {
    obsv::counter_add("checks.unary", stats.unary_checks as u64);
    obsv::counter_add("checks.binary", stats.binary_checks as u64);
    obsv::counter_add("checks.support", stats.support_checks as u64);
    obsv::counter_add("removals", stats.removals as u64);
    obsv::counter_add("entries.zeroed", stats.entries_zeroed as u64);
    obsv::counter_add("kernel.masks", stats.kernel_masks as u64);
    obsv::counter_add("kernel.memo_hits", stats.kernel_memo_hits as u64);
    obsv::counter_add("filter.iterations", stats.maintain_passes as u64);
    obsv::counter_add("bmm.tiles", stats.bmm_tiles as u64);
    obsv::counter_add("bmm.words", stats.bmm_words as u64);
}

/// The sequential engine (the paper's §1.4 pipeline).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sequential;

impl Engine for Sequential {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn parse_warm<'g>(
        &self,
        req: &ParseRequest<'g>,
        warm: &mut WarmState,
    ) -> Result<ParseReport<'g>, EngineError> {
        let sentence = req.admit(self)?;
        let scope = ObsvScope::begin(req);
        let start = Instant::now();
        let pool_before = warm.pool.stats;
        let bmm_reuses_before = warm.bmm.reuses();
        let slab_reuses_before = warm.slab.reuses();
        let (outcome, parses, accepted) = {
            let _root = obsv::span("parse");
            let outcome = parse_with_state(
                req.grammar,
                sentence,
                req.options,
                req.compiled.clone(),
                &mut warm.pool,
                &mut warm.scratch,
                &mut warm.bmm,
                &mut warm.slab,
            );
            let parses = outcome.parses(req.max_parses);
            // The acceptance search is extraction work: keep its span
            // under this request's root.
            let accepted = outcome.accepted();
            (outcome, parses, accepted)
        };
        let pool = warm.pool.stats.since(&pool_before);
        if warm.parses > 0 {
            obsv::counter_add("warm.pool.reuses", pool.reuses as u64);
            obsv::counter_add("warm.bmm.reuses", warm.bmm.reuses() - bmm_reuses_before);
            obsv::counter_add("warm.slab.reuses", warm.slab.reuses() - slab_reuses_before);
            obsv::counter_add("warm.scratch.reuses", 1);
        }
        warm.parses += 1;
        record_net_stats(&outcome.network.stats);
        obsv::counter_add("pool.acquires", pool.acquires as u64);
        obsv::counter_add("pool.recycles", pool.reuses as u64);
        obsv::histogram_record("filter.passes", outcome.filter_passes as f64);
        let (trace, metrics) = scope.finish();
        Ok(ParseReport {
            engine: self.name(),
            accepted,
            ambiguous: outcome.ambiguous(),
            roles_nonempty: outcome.roles_nonempty,
            locally_consistent: outcome.locally_consistent,
            filter_passes: outcome.filter_passes,
            degraded: outcome.degraded,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_grammar::grammars::{english, paper};
    use std::sync::Mutex;

    // The obsv layer is process-global; tests that arm it, or that parse
    // through an engine (which records into it while armed), serialize.
    static OBSV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn request_without_sentence_is_a_typed_error() {
        let g = paper::grammar();
        let req = ParseRequest::new(&g);
        match Sequential.parse(&req) {
            Err(EngineError::GrammarError(msg)) => assert!(msg.contains("no sentence")),
            other => panic!("expected GrammarError, got {other:?}"),
        }
    }

    #[test]
    fn faults_are_rejected_by_the_host_engine() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let req = ParseRequest::new(&g)
            .sentence(s)
            .faults(FaultPlan::new().with_dead_pe(3));
        match Sequential.parse(&req) {
            Err(EngineError::GrammarError(msg)) => assert!(msg.contains("fault")),
            other => panic!("expected GrammarError, got {other:?}"),
        }
    }

    #[test]
    fn report_matches_the_legacy_entry_point() {
        let _l = OBSV_LOCK.lock().unwrap();
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = lex.sentence("the dog runs in the park").unwrap();
        let legacy = crate::parse(&g, &s, ParseOptions::default());
        let report = Sequential
            .parse(&ParseRequest::new(&g).sentence(s).max_parses(100))
            .unwrap();
        assert_eq!(report.accepted, legacy.accepted());
        assert_eq!(report.ambiguous, legacy.ambiguous());
        assert_eq!(report.filter_passes, legacy.filter_passes);
        assert_eq!(report.parses, legacy.parses(100));
        assert_eq!(report.network.total_alive(), legacy.network.total_alive());
        assert!(report.trace.is_none() && report.metrics.is_none());
    }

    #[test]
    fn trace_covers_the_paper_phases() {
        let _l = OBSV_LOCK.lock().unwrap();
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let report = Sequential
            .parse(&ParseRequest::new(&g).sentence(s).trace(true))
            .unwrap();
        let trace = report.trace.expect("trace requested");
        let names = trace.names();
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
        // Tracing must be disarmed afterwards.
        assert!(!obsv::tracing_enabled());
    }

    #[test]
    fn metrics_snapshot_reports_work_counters() {
        let _l = OBSV_LOCK.lock().unwrap();
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let report = Sequential
            .parse(&ParseRequest::new(&g).sentence(s).metrics(true))
            .unwrap();
        let snap = report.metrics.expect("metrics requested");
        assert!(snap.counter("checks.unary").unwrap() > 0);
        assert!(snap.counter("checks.binary").unwrap() > 0);
        assert!(snap.counter("removals").unwrap() > 0);
        assert!(!obsv::metrics_enabled());
    }

    #[test]
    fn warm_parse_matches_cold_and_reuses_buffers() {
        let _l = OBSV_LOCK.lock().unwrap();
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let compiled = resolve_compiled(&g);
        let mut warm = WarmState::new();
        for text in ["the dog runs", "she sleeps", "the dog runs in the park"] {
            let s = lex.sentence(text).unwrap();
            let cold = Sequential
                .parse(&ParseRequest::new(&g).sentence(s.clone()).max_parses(10))
                .unwrap();
            let req = ParseRequest::new(&g)
                .sentence(s)
                .max_parses(10)
                .compiled(Arc::clone(&compiled));
            let mut hot = Sequential.parse_warm(&req, &mut warm).unwrap();
            assert_eq!(cold.accepted, hot.accepted);
            assert_eq!(cold.ambiguous, hot.ambiguous);
            assert_eq!(cold.filter_passes, hot.filter_passes);
            assert_eq!(cold.parses, hot.parses);
            assert_eq!(
                cold.network.total_alive(),
                hot.network.total_alive(),
                "warm reuse must be bit-identical to a cold parse"
            );
            // A report keeps its arcs until handed back; only then can the
            // next request on this state reuse them.
            assert!(hot.network.arcs_ready());
            warm.recycle_report(&mut hot);
        }
        assert_eq!(warm.parses(), 3);
        assert!(
            warm.pool_stats().reuses > 0,
            "second request should re-acquire the first request's arcs"
        );
    }

    #[test]
    fn warm_request_metrics_count_only_that_request() {
        let _l = OBSV_LOCK.lock().unwrap();
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = lex.sentence("the big dog sees a cat in the park").unwrap();
        let req = ParseRequest::new(&g).sentence(s).metrics(true);
        let cold = Sequential.parse(&req).unwrap().metrics.unwrap();
        let cold_acquires = cold.counter("pool.acquires").unwrap();
        assert!(cold_acquires > 0);
        let mut warm = WarmState::new();
        for i in 0..3 {
            let mut report = Sequential.parse_warm(&req, &mut warm).unwrap();
            let snap = report.metrics.take().unwrap();
            assert_eq!(
                snap.counter("pool.acquires"),
                Some(cold_acquires),
                "request {i} on a warm state must count its own acquires only"
            );
            if i > 0 {
                assert_eq!(snap.counter("warm.pool.reuses"), Some(cold_acquires));
            }
            warm.recycle_report(&mut report);
        }
    }

    fn corpus(texts: &[&str]) -> (Grammar, Vec<Sentence>) {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let sentences = texts.iter().map(|t| lex.sentence(t).unwrap()).collect();
        (g, sentences)
    }

    #[test]
    fn batch_matches_per_sentence_parses() {
        let _l = OBSV_LOCK.lock().unwrap();
        let (g, sentences) = corpus(&[
            "the dog runs",
            "dog the runs",
            "the dog runs in the park",
            "the watch runs",
            "she sleeps",
        ]);
        let req = ParseRequest::new(&g).max_parses(100);
        let batch = Sequential.parse_batch(&sentences, &req).unwrap();
        assert_eq!(batch.outcomes.len(), sentences.len());
        for (s, b) in sentences.iter().zip(&batch.outcomes) {
            let solo = Sequential.parse(&req.batch_item(s)).unwrap();
            assert_eq!(b, &solo.summary());
        }
    }

    #[test]
    fn pool_actually_recycles_across_the_batch() {
        let _l = OBSV_LOCK.lock().unwrap();
        let (g, sentences) = corpus(&["the dog runs", "the dog sees the cat", "she sleeps"]);
        let req = ParseRequest::new(&g).max_parses(0);
        let mut warm = WarmState::new();
        for s in &sentences {
            summarize_warm(&Sequential, &req.batch_item(s), &mut warm);
        }
        // Sentence 1 fills the pool; sentences 2..n draw from it.
        let pool = warm.pool_stats();
        assert!(pool.reuses > 0, "no buffers were reused");
        assert_eq!(pool.acquires, pool.releases);
        assert!(warm.pool.idle_buffers() > 0);
    }

    #[test]
    fn empty_batch() {
        let (g, _) = corpus(&[]);
        let report = Sequential.parse_batch(&[], &ParseRequest::new(&g)).unwrap();
        assert!(report.outcomes.is_empty());
    }

    #[test]
    fn batch_report_summarizes_and_totals_phases() {
        let _l = OBSV_LOCK.lock().unwrap();
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let sentences = vec![
            lex.sentence("the dog runs").unwrap(),
            lex.sentence("dog the runs").unwrap(),
            lex.sentence("she sleeps").unwrap(),
        ];
        let req = ParseRequest::new(&g).trace(true).max_parses(10);
        let report = Sequential.parse_batch(&sentences, &req).unwrap();
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.accepted(), 2);
        let totals = report.phase_totals();
        let parse_row = totals.iter().find(|(n, _, _)| n == "parse").unwrap();
        assert_eq!(parse_row.2, 3, "one parse root per sentence");
        assert!(totals.iter().any(|(n, _, _)| n == "binary_propagation"));
    }
}
