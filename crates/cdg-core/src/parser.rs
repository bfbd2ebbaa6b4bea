//! The high-level sequential parse driver.

use crate::consistency::{
    filter, filter_bmm, filter_incremental, is_locally_consistent, BmmFilter, BmmScratch,
    IncrementalFilter,
};
use crate::error::{BudgetResource, EngineError, ParseBudget};
use crate::extract::{has_parse, precedence_graphs, PrecedenceGraph};
use crate::kernel::KernelScratch;
use crate::network::{EvalStrategy, FilterStrategy, NetSlab, Network};
use crate::pool::ArcPool;
use crate::propagate::{apply_all_binary_with, apply_all_unary, apply_binary, apply_unary};
use cdg_grammar::{Arity, CompiledGrammar, Constraint, Grammar, Sentence};
use std::sync::Arc;
use std::time::Instant;

/// How much filtering to run after propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterMode {
    /// No consistency maintenance at all (propagation only).
    None,
    /// At most this many passes — the MasPar design decision 5.
    Bounded(usize),
    /// Iterate to the fixpoint — the paper's sequential filtering.
    Fixpoint,
}

/// Options controlling the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Build arc matrices before unary propagation (the MasPar order,
    /// design decision 1) instead of after (the paper's sequential order).
    /// The final network is the same; the work differs.
    pub arcs_before_unary: bool,
    pub filter: FilterMode,
    /// Resource limits; when one is hit the parse returns a partial,
    /// clearly flagged outcome (`degraded` set) instead of running on.
    pub budget: ParseBudget,
    /// Constraint evaluator: the kernel engine (default) or the naive
    /// tree-walk oracle. Outcomes are bit-identical; only the work differs.
    pub eval: EvalStrategy,
    /// Filtering implementation: blocked BMM (the default), or the
    /// full-scan and AC-4 incremental oracles. All produce bit-identical
    /// removal schedules and networks.
    pub filter_strategy: FilterStrategy,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            arcs_before_unary: false,
            filter: FilterMode::Fixpoint,
            budget: ParseBudget::UNLIMITED,
            eval: EvalStrategy::default(),
            filter_strategy: FilterStrategy::default(),
        }
    }
}

/// The result of running the pipeline.
#[derive(Debug)]
pub struct ParseOutcome<'g> {
    /// The settled network (inspect alive sets, arc matrices, stats).
    pub network: Network<'g>,
    /// The paper's acceptance condition: every role kept ≥ 1 value.
    pub roles_nonempty: bool,
    /// Whether the network reached the filtering fixpoint.
    pub locally_consistent: bool,
    /// Filtering passes actually run.
    pub filter_passes: usize,
    /// `Some` when a [`ParseBudget`] limit cut the pipeline short: the
    /// network is a usable partial result (filtering incomplete, or — for
    /// an arc-cell budget — unary-only with no arcs at all), and this
    /// records exactly which limit bound. `None` for a full parse.
    pub degraded: Option<EngineError>,
}

impl<'g> ParseOutcome<'g> {
    /// Constructive acceptance: at least one complete parse exists. A
    /// degraded outcome whose arcs were never built cannot certify a
    /// parse and reports `false`.
    pub fn accepted(&self) -> bool {
        self.roles_nonempty && self.network.arcs_ready() && has_parse(&self.network)
    }

    /// Is the settled network still ambiguous (some role with > 1 value)?
    pub fn ambiguous(&self) -> bool {
        self.network.slots().iter().any(|s| s.alive_count() > 1)
    }

    /// Enumerate up to `limit` parses (empty for an arc-less degraded
    /// outcome — extraction needs the arc matrices).
    pub fn parses(&self, limit: usize) -> Vec<PrecedenceGraph> {
        if !self.network.arcs_ready() {
            return Vec::new();
        }
        precedence_graphs(&self.network, limit)
    }

    /// Propagate additional constraints (the paper §1.5: apply
    /// contextually-determined constraint sets to refine an ambiguous
    /// network), then re-filter.
    pub fn propagate_extra(&mut self, constraints: &[Constraint]) {
        for c in constraints {
            match c.arity {
                Arity::Unary => {
                    apply_unary(&mut self.network, c);
                }
                Arity::Binary => {
                    apply_binary(&mut self.network, c);
                }
            }
        }
        // Same pass/removal sequence whichever strategy is in force; the
        // counter-based paths rebuild support once instead of rescanning
        // every pass.
        let _filtering = obsv::span("filtering");
        let step = match self.network.filter_strategy {
            FilterStrategy::Incremental if self.network.arcs_ready() => {
                filter_incremental(&mut self.network, usize::MAX)
            }
            FilterStrategy::Bmm if self.network.arcs_ready() => {
                filter_bmm(&mut self.network, usize::MAX)
            }
            _ => Ok(filter(&mut self.network, usize::MAX)),
        };
        drop(_filtering);
        let (_, passes, fixpoint) = match step {
            Ok(v) => v,
            Err(e) => {
                self.degraded = Some(e);
                (0, 0, false)
            }
        };
        self.filter_passes += passes;
        self.locally_consistent = fixpoint;
        self.roles_nonempty = self.network.all_roles_nonempty();
    }
}

/// Run the full sequential pipeline: build, unary propagation, arcs, binary
/// propagation, filtering per `options`.
///
/// ```
/// use cdg_core::parser::{parse, ParseOptions};
/// use cdg_grammar::grammars::paper;
///
/// let grammar = paper::grammar();
/// let sentence = paper::example_sentence(&grammar); // "The program runs"
/// let outcome = parse(&grammar, &sentence, ParseOptions::default());
/// assert!(outcome.accepted());
/// assert!(!outcome.ambiguous());
/// let graphs = outcome.parses(10);
/// assert_eq!(graphs.len(), 1);
/// assert!(graphs[0].render(&grammar, &sentence).contains("G = SUBJ-3"));
/// ```
pub fn parse<'g>(
    grammar: &'g Grammar,
    sentence: &Sentence,
    options: ParseOptions,
) -> ParseOutcome<'g> {
    parse_with_state(
        grammar,
        sentence,
        options,
        None,
        &mut ArcPool::new(),
        &mut KernelScratch::new(),
        &mut BmmScratch::default(),
        &mut NetSlab::default(),
    )
}

/// [`parse`] that resolves constraint programs from a pre-built
/// [`CompiledGrammar`] artifact (`None` = the compile-per-call oracle)
/// and draws arc matrices, kernel and BMM scratch, and slot storage from
/// caller-owned state that survives across parses — the body of
/// [`crate::Sequential`]'s `parse_warm`. Every piece of reused state is
/// generation-stamped or re-zeroed on adoption, so results are
/// byte-identical to a cold [`parse`] — only allocation and compile
/// traffic differ.
#[allow(clippy::too_many_arguments)]
pub(crate) fn parse_with_state<'g>(
    grammar: &'g Grammar,
    sentence: &Sentence,
    options: ParseOptions,
    compiled: Option<Arc<CompiledGrammar>>,
    pool: &mut ArcPool,
    scratch: &mut KernelScratch,
    bmm_scratch: &mut BmmScratch,
    slab: &mut NetSlab,
) -> ParseOutcome<'g> {
    let start = Instant::now();
    let budget = options.budget;
    let mut degraded: Option<EngineError> = None;
    let over_time = |start: &Instant| -> Option<EngineError> {
        let cap = budget.max_wall_time?;
        let spent = start.elapsed();
        (spent > cap).then(|| {
            ParseBudget::exceeded(
                BudgetResource::WallTime,
                format!("{cap:?}"),
                format!("{spent:?}"),
            )
        })
    };

    let mut net = Network::build_in(grammar, sentence, slab);
    net.eval = options.eval;
    net.filter_strategy = options.filter_strategy;
    net.compiled = compiled;

    // An arc-cell budget is checked *before* materializing the O(n⁴)
    // matrices: if they would not fit, the parse degrades to the unary
    // (O(n²)) pipeline — role alive-sets only, no extraction.
    let arc_cells = predicted_arc_cells(&net);
    let build_arcs = match budget.max_arc_cells {
        Some(cap) if arc_cells > cap => {
            degraded = Some(ParseBudget::exceeded(
                BudgetResource::ArcCells,
                cap,
                arc_cells,
            ));
            false
        }
        _ => true,
    };

    if build_arcs && options.arcs_before_unary {
        net.init_arcs_with(pool);
        apply_all_unary(&mut net);
    } else {
        apply_all_unary(&mut net);
        if build_arcs && degraded.is_none() {
            if let Some(e) = over_time(&start) {
                degraded = Some(e);
            } else {
                net.init_arcs_with(pool);
            }
        }
    }
    if net.arcs_ready() {
        apply_all_binary_with(&mut net, scratch);
    }

    // Filtering runs one pass at a time so both the iteration and the
    // wall-time budget can bind *between* passes (a pass in progress
    // always completes — the network is never left mid-maintenance).
    let mode_max = match options.filter {
        FilterMode::None => 0,
        FilterMode::Bounded(max) => max,
        FilterMode::Fixpoint => usize::MAX,
    };
    let mut passes = 0usize;
    let mut fixpoint = false;
    let _filtering = obsv::span("filtering");
    // The counter-based strategies (incremental, BMM) build support state
    // once, each generation touching only disturbed rows. Built lazily so
    // a FilterMode::None run pays nothing.
    let mut incremental: Option<IncrementalFilter> = None;
    let mut bmm: Option<BmmFilter> = None;
    while net.arcs_ready() && passes < mode_max {
        if degraded.is_none() {
            if let Some(cap) = budget.max_filter_iterations {
                if passes >= cap {
                    degraded = Some(ParseBudget::exceeded(
                        BudgetResource::FilterIterations,
                        cap,
                        passes + 1,
                    ));
                    break;
                }
            }
            if let Some(e) = over_time(&start) {
                degraded = Some(e);
                break;
            }
        } else {
            break;
        }
        let step = match options.filter_strategy {
            FilterStrategy::Incremental => {
                let inc = incremental.get_or_insert_with(|| IncrementalFilter::build(&mut net));
                inc.pass(&mut net).map(|(_, fx)| (1, fx))
            }
            FilterStrategy::Bmm => {
                let f = bmm.get_or_insert_with(|| BmmFilter::build_warm(&mut net, bmm_scratch));
                f.pass(&mut net).map(|(_, fx)| (1, fx))
            }
            FilterStrategy::Naive => {
                let (_, p, fx) = filter(&mut net, 1);
                Ok((p, fx))
            }
        };
        let (p, fx) = match step {
            Ok(v) => v,
            Err(e) => {
                degraded = Some(e);
                break;
            }
        };
        passes += p;
        if fx || p == 0 {
            fixpoint = fx;
            break;
        }
    }
    drop(_filtering);
    if let Some(f) = bmm {
        f.recycle(bmm_scratch);
    }

    let locally_consistent = if fixpoint {
        true
    } else if net.arcs_ready() {
        is_locally_consistent(&net)
    } else {
        false
    };
    ParseOutcome {
        roles_nonempty: net.all_roles_nonempty(),
        locally_consistent,
        filter_passes: passes,
        degraded,
        network: net,
    }
}

/// Arc-matrix cells `init_arcs` would allocate: Σ_{i<j} |dom i|·|dom j|.
fn predicted_arc_cells(net: &Network<'_>) -> u64 {
    let sizes: Vec<u64> = net.slots().iter().map(|s| s.domain.len() as u64).collect();
    let total: u64 = sizes.iter().sum();
    let squares: u64 = sizes.iter().map(|d| d * d).sum();
    (total * total - squares) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_grammar::grammars::{english, paper};

    #[test]
    fn example_sentence_parses_uniquely() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let outcome = parse(&g, &s, ParseOptions::default());
        assert!(outcome.roles_nonempty);
        assert!(outcome.accepted());
        assert!(!outcome.ambiguous());
        assert!(outcome.locally_consistent);
        assert_eq!(outcome.parses(10).len(), 1);
    }

    #[test]
    fn both_pipeline_orders_agree() {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        let a = parse(&g, &s, ParseOptions::default());
        let b = parse(
            &g,
            &s,
            ParseOptions {
                arcs_before_unary: true,
                ..Default::default()
            },
        );
        assert_eq!(a.parses(100), b.parses(100));
        assert_eq!(a.network.total_alive(), b.network.total_alive());
    }

    #[test]
    fn filter_modes() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = lex.sentence("the big dog sees a cat in the park").unwrap();
        let none = parse(
            &g,
            &s,
            ParseOptions {
                filter: FilterMode::None,
                ..Default::default()
            },
        );
        let bounded = parse(
            &g,
            &s,
            ParseOptions {
                filter: FilterMode::Bounded(2),
                ..Default::default()
            },
        );
        let full = parse(&g, &s, ParseOptions::default());
        // Filtering only ever shrinks alive sets, never changes the parses.
        assert!(none.network.total_alive() >= bounded.network.total_alive());
        assert!(bounded.network.total_alive() >= full.network.total_alive());
        assert_eq!(none.parses(100), full.parses(100));
        assert!(full.locally_consistent);
        assert!(full.accepted());
    }

    #[test]
    fn ambiguity_detected_and_refined_by_extra_constraints() {
        // PP attachment: "the dog runs in the park" has two parses. A
        // contextual constraint pinning PP to the verb resolves it — the
        // paper's §1.5 workflow.
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = lex.sentence("the dog runs in the park").unwrap();
        let mut outcome = parse(&g, &s, ParseOptions::default());
        assert!(outcome.ambiguous());
        assert_eq!(outcome.parses(10).len(), 2);

        let pin = g
            .compile_extra_constraint(
                "pp-attaches-to-verb",
                "(if (eq (lab x) PP) (eq (cat (word (mod x))) verb))",
            )
            .unwrap();
        outcome.propagate_extra(&[pin]);
        assert!(!outcome.ambiguous());
        assert_eq!(outcome.parses(10).len(), 1);
        assert!(outcome.accepted());
    }

    #[test]
    fn lexically_ambiguous_word_resolved_by_context() {
        // "the watch runs": `watch` is noun-or-verb; `unique-root` and the
        // subject requirements force the noun reading.
        let g = english::grammar();
        let lex = english::lexicon(&g);
        let s = lex.sentence("the watch runs").unwrap();
        let outcome = parse(&g, &s, ParseOptions::default());
        assert!(outcome.accepted());
        let parses = outcome.parses(10);
        assert_eq!(parses.len(), 1);
        let nouns = g.cat_id("nouns").unwrap();
        assert_eq!(parses[0].assignment[2].cat, nouns); // watch/governor
    }

    #[test]
    fn rejection() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        for bad in ["dog the runs", "the dog the", "runs sees"] {
            let s = lex.sentence(bad).unwrap();
            let outcome = parse(&g, &s, ParseOptions::default());
            assert!(!outcome.accepted(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn english_acceptance_suite() {
        let g = english::grammar();
        let lex = english::lexicon(&g);
        for good in [
            "the dog runs",
            "dogs run",
            "she sleeps",
            "the big red dog sees a small cat",
            "john likes mary",
            "the dog sees the cat in the park",
            "they often watch dogs near the table",
            "every child runs quickly",
        ] {
            // Skip words missing from the lexicon gracefully: the suite
            // only uses lexicon words.
            let s = match lex.sentence(good) {
                Ok(s) => s,
                Err(e) => panic!("lexicon gap for `{good}`: {e}"),
            };
            let outcome = parse(&g, &s, ParseOptions::default());
            assert!(outcome.accepted(), "`{good}` should be accepted");
        }
    }
}
