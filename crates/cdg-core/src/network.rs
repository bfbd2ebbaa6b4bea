//! The constraint network (CN): nodes, roles, role values, and arc matrices.

use crate::pool::ArcPool;
use crate::stats::NetStats;
use bitmat::{BitMatrix, BitVec};
use cdg_grammar::expr::Binding;
use cdg_grammar::{CompiledGrammar, Grammar, Modifiee, RoleId, RoleValue, Sentence};
use std::sync::Arc;

/// Index of a role slot in the network: slots are numbered word-major
/// (`word * q + role`), 0-based.
pub type SlotId = usize;

/// Which constraint evaluator the propagation functions use.
///
/// Both strategies produce bit-identical networks (same removal sets, same
/// surviving arcs); they differ only in how each verdict is computed. The
/// kernel path is the default; the naive path is kept as the differential
/// oracle (`tests/kernel_equivalence.rs`) and for `--naive-eval` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalStrategy {
    /// Compile each constraint to flat bytecode, memoize pair verdicts by
    /// feature signature, and apply them as word-parallel row masks.
    #[default]
    Kernel,
    /// Walk the boxed `CExpr` tree once per pair — the paper's literal
    /// per-cell formulation.
    Naive,
}

/// Which filtering implementation the parse drivers run after binary
/// propagation. All strategies produce bit-identical removal schedules,
/// alive sets, and arc matrices (the generation-g invariant of
/// `cdg_core::consistency`); they differ in how support is recomputed —
/// and therefore in wall-clock and in the incremental-vs-full-scan split
/// of `support_checks`/`support_inits`.
///
/// [`FilterStrategy::Bmm`] is the production filter on every engine;
/// `Naive` and `Incremental` are differential oracles, run only when a
/// caller asks for them by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterStrategy {
    /// Full rescan every pass ([`crate::consistency::filter`]).
    Naive,
    /// AC-4 support counters ([`crate::consistency::IncrementalFilter`]).
    Incremental,
    /// Blocked boolean-matrix-multiplication core
    /// ([`crate::consistency::BmmFilter`]): the incremental counter
    /// semantics, recomputed with 64×64 tile kernels. Stats-identical to
    /// [`FilterStrategy::Incremental`] except for the purely
    /// observational `bmm_tiles`/`bmm_words` counters.
    #[default]
    Bmm,
}

impl FilterStrategy {
    /// The strategy to run under `eval`: always `self`, since no variant
    /// depends on the evaluator. `perfbench` still calls it; it goes with
    /// the next change to the benchmark.
    pub fn resolve(self, _eval: EvalStrategy) -> FilterStrategy {
        self
    }

    /// The CLI/wire name ([`FilterStrategy::parse`]'s inverse).
    pub fn name(self) -> &'static str {
        match self {
            FilterStrategy::Naive => "naive",
            FilterStrategy::Incremental => "incremental",
            FilterStrategy::Bmm => "bmm",
        }
    }

    /// Parse a CLI/wire name (`naive`, `incremental`, `bmm`).
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "naive" => Ok(FilterStrategy::Naive),
            "incremental" => Ok(FilterStrategy::Incremental),
            "bmm" => Ok(FilterStrategy::Bmm),
            other => Err(format!(
                "unknown filter strategy `{other}` (expected naive, incremental or bmm)"
            )),
        }
    }
}

/// Split borrow of a network for the parallel engines: immutable slots,
/// sentence, and arc-pair list alongside mutable arc matrices and stats,
/// so workers can evaluate constraints while each mutates its own arc
/// matrix (arcs are distributed one-per-worker — race-free).
pub struct NetParts<'a> {
    pub slots: &'a [RoleSlot],
    pub arcs: &'a mut [BitMatrix],
    pub sentence: &'a Sentence,
    /// Every arc as (slot i, slot j, triangular index), i < j, in storage
    /// order (parallel to `arcs`).
    pub pairs: &'a [(SlotId, SlotId, usize)],
    pub stats: &'a mut NetStats,
}

/// One role of one word: its fixed initial domain of role values and the
/// alive-set over that domain.
#[derive(Debug, Clone)]
pub struct RoleSlot {
    /// 0-based word index.
    pub word: u16,
    pub role: RoleId,
    /// The initial domain, fixed at construction (the paper's "exhaustive
    /// list of all possible role values given the table T and the fact that
    /// no word ever modifies itself").
    pub domain: Vec<RoleValue>,
    /// Which domain entries are still candidates.
    pub alive: BitVec,
}

impl RoleSlot {
    /// 1-based position of the word, as used by the constraint language.
    pub fn pos(&self) -> u16 {
        self.word + 1
    }

    /// The binding handed to constraint evaluation for domain entry `idx`.
    pub fn binding(&self, idx: usize) -> Binding {
        Binding {
            pos: self.pos(),
            role: self.role,
            value: self.domain[idx],
        }
    }

    /// Indices of alive domain entries.
    pub fn alive_indices(&self) -> Vec<usize> {
        self.alive.iter_ones().collect()
    }

    /// Number of alive role values.
    pub fn alive_count(&self) -> usize {
        self.alive.count_ones()
    }
}

/// Recycled [`Network`] allocations for a warm worker: slot storage
/// (domain vectors and alive bitsets), the pair index, and the arc-matrix
/// container, reclaimed from a finished parse's network via
/// [`Network::reclaim`] and reused by the next
/// [`Network::build_in`]. Every buffer is cleared and refilled on reuse,
/// so networks built through a slab are byte-identical to fresh ones —
/// only allocation traffic differs.
#[derive(Default)]
pub struct NetSlab {
    slots: Vec<RoleSlot>,
    pairs: Vec<(SlotId, SlotId, usize)>,
    arcs: Vec<BitMatrix>,
    reuses: u64,
}

impl NetSlab {
    pub fn new() -> Self {
        NetSlab::default()
    }

    /// How many networks were built out of recycled storage.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

/// The constraint network for one sentence under one grammar.
///
/// Arcs connect every pair of distinct role slots; arc `(i, j)` for `i < j`
/// carries a `|domain_i| × |domain_j|` bit matrix whose `(a, b)` entry is 1
/// while role values `a` and `b` may coexist. Arc matrices exist only after
/// [`Network::init_arcs`] — the sequential pipeline of the paper builds them
/// after unary propagation (Figure 3), while the MasPar pipeline builds them
/// first (design decision 1); both orders are supported and produce the same
/// final network.
#[derive(Debug, Clone)]
pub struct Network<'g> {
    grammar: &'g Grammar,
    sentence: Sentence,
    slots: Vec<RoleSlot>,
    /// Upper-triangular arc matrices; empty until `init_arcs`.
    arcs: Vec<BitMatrix>,
    /// (i, j, triangular index) per arc, i < j — precomputed once at
    /// `init_arcs` time so the propagation and consistency loops iterate a
    /// slice instead of rebuilding a `Vec` per constraint.
    pairs: Vec<(SlotId, SlotId, usize)>,
    arcs_ready: bool,
    /// How propagation evaluates constraints (see [`EvalStrategy`]).
    pub eval: EvalStrategy,
    /// Which filtering implementation the drivers run (see
    /// [`FilterStrategy`]); carried on the network so re-filtering entry
    /// points (`propagate_extra`) use the same strategy as the parse.
    pub filter_strategy: FilterStrategy,
    /// The grammar's compiled artifact, when the caller resolved one.
    /// Propagation looks constraints up here before falling back to an
    /// inline [`cdg_grammar::kernel::KernelProgram::compile`]; `None`
    /// (the default) is the compile-per-call oracle path.
    pub compiled: Option<Arc<CompiledGrammar>>,
    pub stats: NetStats,
}

impl<'g> Network<'g> {
    /// Build the initial network: generate every role value each slot may
    /// take. Role values are ordered category-major, then label (in table-T
    /// order), then modifiee (`nil` first, then ascending positions,
    /// skipping the word itself) — the order the paper's figures list them.
    pub fn build(grammar: &'g Grammar, sentence: &Sentence) -> Self {
        Network::build_in(grammar, sentence, &mut NetSlab::default())
    }

    /// [`Network::build`] drawing slot, pair, and arc-container storage
    /// from `slab` — the warm-worker path. Recycled buffers are cleared
    /// and refilled in the exact order a fresh build produces, so the
    /// resulting network is byte-identical; only allocation traffic
    /// differs. Hand the network back with [`Network::reclaim`]
    /// once its report has been fully consumed.
    pub fn build_in(grammar: &'g Grammar, sentence: &Sentence, slab: &mut NetSlab) -> Self {
        let _phase = obsv::span("network_build");
        let n = sentence.len();
        let q = grammar.num_roles();
        assert!(n >= 1, "a sentence must contain at least one word");
        assert!(n < u16::MAX as usize, "sentence too long");
        let mut stats = NetStats::default();
        let mut recycled = std::mem::take(&mut slab.slots);
        if !recycled.is_empty() {
            slab.reuses += 1;
        }
        let mut slots = Vec::with_capacity(n * q);
        for w in 0..n as u16 {
            for r in 0..q as u16 {
                let role = RoleId(r);
                let word = sentence.word(w as usize);
                // Reuse a reclaimed slot's domain vector and alive bitset
                // when one is available; capacity is retained, contents
                // are rebuilt from scratch.
                let (mut domain, mut alive) = match recycled.pop() {
                    Some(slot) => (slot.domain, slot.alive),
                    None => (Vec::new(), BitVec::zeros(0)),
                };
                domain.clear();
                // Exact count: per category × allowed label, one `Nil`
                // plus one entry per other word — n total.
                domain.reserve_exact(word.cats.len() * grammar.allowed_labels(role).len() * n);
                for &cat in &word.cats {
                    for &label in grammar.allowed_labels(role) {
                        domain.push(RoleValue::new(cat, label, Modifiee::Nil));
                        for m in 1..=n as u16 {
                            if m != w + 1 {
                                domain.push(RoleValue::new(cat, label, Modifiee::Word(m)));
                            }
                        }
                    }
                }
                stats.role_values_generated += domain.len();
                alive.reset_ones(domain.len());
                slots.push(RoleSlot {
                    word: w,
                    role,
                    domain,
                    alive,
                });
            }
        }
        let mut pairs = std::mem::take(&mut slab.pairs);
        pairs.clear();
        let mut arcs = std::mem::take(&mut slab.arcs);
        arcs.clear();
        Network {
            grammar,
            sentence: sentence.clone(),
            slots,
            arcs,
            pairs,
            arcs_ready: false,
            eval: EvalStrategy::default(),
            filter_strategy: FilterStrategy::default(),
            compiled: None,
            stats,
        }
    }

    pub fn grammar(&self) -> &'g Grammar {
        self.grammar
    }

    pub fn sentence(&self) -> &Sentence {
        &self.sentence
    }

    /// n — number of words.
    pub fn num_words(&self) -> usize {
        self.sentence.len()
    }

    /// q — roles per word.
    pub fn num_roles(&self) -> usize {
        self.grammar.num_roles()
    }

    /// Total number of role slots, n·q.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    pub fn slot(&self, id: SlotId) -> &RoleSlot {
        &self.slots[id]
    }

    pub fn slots(&self) -> &[RoleSlot] {
        &self.slots
    }

    /// Slot id for (0-based word, role).
    pub fn slot_id(&self, word: u16, role: RoleId) -> SlotId {
        word as usize * self.num_roles() + role.0 as usize
    }

    /// Index of arc (i, j), i < j, in the triangular arc vector (the order
    /// of [`Network::arc_pairs`] and [`Network::arcs_raw`]).
    pub fn arc_index(&self, i: SlotId, j: SlotId) -> usize {
        debug_assert!(i < j && j < self.num_slots());
        let n = self.num_slots();
        i * n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Whether arcs have been constructed yet.
    pub fn arcs_ready(&self) -> bool {
        self.arcs_ready
    }

    /// Construct every arc matrix. Entries start at 1 for pairs of alive
    /// role values, with two structural exceptions zeroed immediately:
    /// dead values (rows/columns of values already eliminated stay 0), and
    /// differing category hypotheses for two roles of the same word (each
    /// word has one part of speech per reading).
    pub fn init_arcs(&mut self) {
        self.init_arcs_with(&mut ArcPool::new());
    }

    /// [`Network::init_arcs`] drawing matrix storage from `pool` — the
    /// batched-parsing path. Identical results; recycled buffers start
    /// all-zero just like fresh ones.
    pub fn init_arcs_with(&mut self, pool: &mut ArcPool) {
        let _phase = obsv::span("arc_init");
        assert!(!self.arcs_ready, "arcs already initialized");
        let num = self.num_slots();
        // Reuse the containers installed by `build_in` (empty, but with
        // a recycled slab's capacity) instead of allocating fresh ones.
        let mut arcs = std::mem::take(&mut self.arcs);
        arcs.clear();
        arcs.reserve(num * (num - 1) / 2);
        let mut pairs = std::mem::take(&mut self.pairs);
        pairs.clear();
        pairs.reserve(num * (num - 1) / 2);
        for i in 0..num {
            for j in (i + 1)..num {
                pairs.push((i, j, arcs.len()));
                let (si, sj) = (&self.slots[i], &self.slots[j]);
                let mut m = pool.acquire(si.domain.len(), sj.domain.len());
                self.stats.arc_entries_initialized += si.domain.len() * sj.domain.len();
                for a in si.alive.iter_ones() {
                    for b in sj.alive.iter_ones() {
                        let compatible = si.word != sj.word || si.domain[a].cat == sj.domain[b].cat;
                        if compatible {
                            m.set(a, b, true);
                        }
                    }
                }
                arcs.push(m);
            }
        }
        self.arcs = arcs;
        self.pairs = pairs;
        self.arcs_ready = true;
    }

    /// The arc matrix between slots `i` and `j` (`i != j`), together with a
    /// flag telling whether the caller's `(i, j)` orientation matches the
    /// stored row/column orientation.
    pub fn arc(&self, i: SlotId, j: SlotId) -> (&BitMatrix, bool) {
        assert!(self.arcs_ready, "arcs not initialized");
        if i < j {
            (&self.arcs[self.arc_index(i, j)], true)
        } else {
            (&self.arcs[self.arc_index(j, i)], false)
        }
    }

    /// Entry of the arc matrix for (slot i, value a) × (slot j, value b).
    pub fn arc_entry(&self, i: SlotId, a: usize, j: SlotId, b: usize) -> bool {
        let (m, straight) = self.arc(i, j);
        if straight {
            m.get(a, b)
        } else {
            m.get(b, a)
        }
    }

    /// Zero one arc entry (both orientations handled).
    pub fn zero_arc_entry(&mut self, i: SlotId, a: usize, j: SlotId, b: usize) {
        assert!(self.arcs_ready, "arcs not initialized");
        let idx = if i < j {
            self.arc_index(i, j)
        } else {
            self.arc_index(j, i)
        };
        let m = &mut self.arcs[idx];
        let was = if i < j { m.get(a, b) } else { m.get(b, a) };
        if was {
            self.stats.entries_zeroed += 1;
            if i < j {
                m.set(a, b, false);
            } else {
                m.set(b, a, false);
            }
        }
    }

    /// Mutable access to the raw triangular arc storage — for the parallel
    /// engines, which split the arcs across workers (each arc is touched by
    /// exactly one worker, so `par_iter_mut` is race-free). `arc_pairs`
    /// lists (i, j, arc_index) in storage order.
    pub fn arcs_mut(&mut self) -> &mut [BitMatrix] {
        assert!(self.arcs_ready, "arcs not initialized");
        &mut self.arcs
    }

    /// Read access to the raw triangular arc storage (same order as
    /// [`Network::arc_pairs`]).
    pub fn arcs_raw(&self) -> &[BitMatrix] {
        assert!(self.arcs_ready, "arcs not initialized");
        &self.arcs
    }

    /// Split borrow for the parallel engines (see [`NetParts`]).
    pub fn parts_mut(&mut self) -> NetParts<'_> {
        assert!(self.arcs_ready, "arcs not initialized");
        NetParts {
            slots: &self.slots,
            arcs: &mut self.arcs,
            sentence: &self.sentence,
            pairs: &self.pairs,
            stats: &mut self.stats,
        }
    }

    /// Every arc as (slot i, slot j, triangular index), i < j — the list
    /// is built once by [`Network::init_arcs`] and borrowed thereafter.
    pub fn arc_pairs(&self) -> &[(SlotId, SlotId, usize)] {
        assert!(self.arcs_ready, "arcs not initialized");
        &self.pairs
    }

    /// Remove role value `idx` of slot `slot`: clear its alive bit and zero
    /// its row/column in every incident arc matrix (if arcs exist).
    pub fn remove_value(&mut self, slot: SlotId, idx: usize) {
        if !self.slots[slot].alive.get(idx) {
            return;
        }
        self.slots[slot].alive.set(idx, false);
        self.stats.removals += 1;
        if self.arcs_ready {
            let num = self.num_slots();
            for other in 0..num {
                if other == slot {
                    continue;
                }
                let (i, j) = if slot < other {
                    (slot, other)
                } else {
                    (other, slot)
                };
                let a_idx = self.arc_index(i, j);
                let m = &mut self.arcs[a_idx];
                if slot < other {
                    self.stats.entries_zeroed += m.row_count_ones(idx);
                    m.zero_row(idx);
                } else {
                    // Column zeroing: count first for the stats.
                    let cnt = (0..m.rows()).filter(|&r| m.get(r, idx)).count();
                    self.stats.entries_zeroed += cnt;
                    m.zero_col(idx);
                }
            }
        }
    }

    /// Clear one alive bit *without* touching arc matrices — for parallel
    /// engines that zero rows/columns themselves in an arc-parallel sweep.
    pub fn clear_alive(&mut self, slot: SlotId, idx: usize) {
        if self.slots[slot].alive.get(idx) {
            self.slots[slot].alive.set(idx, false);
            self.stats.removals += 1;
        }
    }

    /// Hand this network's allocations back for the next parse: arc
    /// matrices to `pool`, slot storage, pair index, and arc container to
    /// `slab` (for the next [`Network::build_in`]). The network is left
    /// empty — call only once every reader of the report is done with it
    /// (in particular, [`crate::ParseReport::summary`] reads the alive
    /// sets). [`crate::WarmState::recycle_report`] is the caller.
    pub fn reclaim(&mut self, pool: &mut ArcPool, slab: &mut NetSlab) {
        for m in self.arcs.drain(..) {
            pool.release(m);
        }
        slab.slots = std::mem::take(&mut self.slots);
        slab.pairs = std::mem::take(&mut self.pairs);
        slab.arcs = std::mem::take(&mut self.arcs);
        self.arcs_ready = false;
    }

    /// True while every role slot still has at least one candidate — the
    /// paper's acceptance condition ("each role contains at least one role
    /// value which satisfies all the constraints"). Necessary for a parse
    /// to exist; [`crate::extract`] provides the constructive check.
    pub fn all_roles_nonempty(&self) -> bool {
        self.slots.iter().all(|s| s.alive.any())
    }

    /// Total alive role values across all slots.
    pub fn total_alive(&self) -> usize {
        self.slots.iter().map(|s| s.alive_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_grammar::grammars::paper;

    fn setup() -> (Grammar, Sentence) {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        (g, s)
    }

    #[test]
    fn figure1_domain_sizes() {
        // Figure 1: each of the 6 roles initially holds 9 role values
        // (3 labels × {nil + 2 other positions}).
        let (g, s) = setup();
        let net = Network::build(&g, &s);
        assert_eq!(net.num_slots(), 6);
        for slot in net.slots() {
            assert_eq!(slot.domain.len(), 9);
            assert_eq!(slot.alive_count(), 9);
        }
        assert_eq!(net.stats.role_values_generated, 54);
        assert_eq!(net.total_alive(), 54);
    }

    #[test]
    fn no_word_modifies_itself() {
        let (g, s) = setup();
        let net = Network::build(&g, &s);
        for slot in net.slots() {
            for rv in &slot.domain {
                assert_ne!(rv.modifiee, Modifiee::Word(slot.pos()));
            }
        }
    }

    #[test]
    fn domain_respects_table_t() {
        let (g, s) = setup();
        let net = Network::build(&g, &s);
        let governor = g.role_id("governor").unwrap();
        let slot = net.slot(net.slot_id(0, governor));
        let allowed = g.allowed_labels(governor);
        assert!(slot.domain.iter().all(|rv| allowed.contains(&rv.label)));
    }

    #[test]
    fn domain_order_is_nil_first_ascending() {
        let (g, s) = setup();
        let net = Network::build(&g, &s);
        let governor = g.role_id("governor").unwrap();
        // Word 2 (0-based index 1): modifiees nil, 1, 3.
        let slot = net.slot(net.slot_id(1, governor));
        let mods: Vec<Modifiee> = slot.domain.iter().take(3).map(|rv| rv.modifiee).collect();
        assert_eq!(
            mods,
            vec![Modifiee::Nil, Modifiee::Word(1), Modifiee::Word(3)]
        );
    }

    #[test]
    fn arc_count_and_sizes() {
        let (g, s) = setup();
        let mut net = Network::build(&g, &s);
        net.init_arcs();
        assert_eq!(net.arc_pairs().len(), 15); // C(6,2)
        let (m, straight) = net.arc(0, 5);
        assert!(straight);
        assert_eq!((m.rows(), m.cols()), (9, 9));
        assert_eq!(net.stats.arc_entries_initialized, 15 * 81);
        // Initially every entry is 1 (unambiguous words).
        assert_eq!(m.count_ones(), 81);
    }

    #[test]
    fn arc_orientation_is_consistent() {
        let (g, s) = setup();
        let mut net = Network::build(&g, &s);
        net.init_arcs();
        net.zero_arc_entry(5, 3, 0, 7);
        assert!(!net.arc_entry(5, 3, 0, 7));
        assert!(!net.arc_entry(0, 7, 5, 3));
        assert!(net.arc_entry(0, 3, 5, 7));
        // Re-zeroing is idempotent in the stats.
        let zeroed = net.stats.entries_zeroed;
        net.zero_arc_entry(0, 7, 5, 3);
        assert_eq!(net.stats.entries_zeroed, zeroed);
    }

    #[test]
    fn removal_zeroes_rows_and_cols_everywhere() {
        let (g, s) = setup();
        let mut net = Network::build(&g, &s);
        net.init_arcs();
        net.remove_value(2, 4);
        assert!(!net.slot(2).alive.get(4));
        for other in [0usize, 1, 3, 4, 5] {
            for b in 0..9 {
                assert!(!net.arc_entry(2, 4, other, b));
            }
        }
        assert_eq!(net.stats.removals, 1);
        // Removing again is a no-op.
        net.remove_value(2, 4);
        assert_eq!(net.stats.removals, 1);
    }

    #[test]
    fn removal_before_arcs_masks_initial_matrices() {
        let (g, s) = setup();
        let mut net = Network::build(&g, &s);
        net.remove_value(0, 0);
        net.init_arcs();
        for other in 1..6 {
            for b in 0..9 {
                assert!(!net.arc_entry(0, 0, other, b));
            }
        }
    }

    #[test]
    fn same_word_roles_require_same_cat_hypothesis() {
        let g = paper::grammar();
        let noun = g.cat_id("noun").unwrap();
        let verb = g.cat_id("verb").unwrap();
        let s = Sentence::new(vec![
            cdg_grammar::SentenceWord {
                text: "runs".into(),
                cats: vec![noun, verb],
            },
            cdg_grammar::SentenceWord {
                text: "halts".into(),
                cats: vec![verb],
            },
        ]);
        let mut net = Network::build(&g, &s);
        // Ambiguous word: domain doubles.
        assert_eq!(net.slot(0).domain.len(), 12); // 2 cats × 3 labels × 2 mods
        net.init_arcs();
        let (i, j) = (net.slot_id(0, RoleId(0)), net.slot_id(0, RoleId(1)));
        for a in 0..net.slot(i).domain.len() {
            for b in 0..net.slot(j).domain.len() {
                let same = net.slot(i).domain[a].cat == net.slot(j).domain[b].cat;
                assert_eq!(net.arc_entry(i, a, j, b), same);
            }
        }
        // Roles of *different* words are unconstrained by category.
        let k = net.slot_id(1, RoleId(0));
        assert!(net.arc_entry(i, 0, k, 0));
    }

    #[test]
    fn acceptance_flag_tracks_empty_slots() {
        let (g, s) = setup();
        let mut net = Network::build(&g, &s);
        assert!(net.all_roles_nonempty());
        for idx in 0..9 {
            net.remove_value(3, idx);
        }
        assert!(!net.all_roles_nonempty());
    }

    #[test]
    fn single_word_sentence() {
        let g = paper::grammar();
        let lex = paper::lexicon(&g);
        let s = lex.sentence("runs").unwrap();
        let mut net = Network::build(&g, &s);
        // Only modifiee is nil: 3 labels × 1.
        assert_eq!(net.slot(0).domain.len(), 3);
        net.init_arcs();
        assert_eq!(net.arc_pairs().len(), 1); // governor—needs arc
    }

    #[test]
    #[should_panic(expected = "arcs not initialized")]
    fn arc_access_before_init_panics() {
        let (g, s) = setup();
        let net = Network::build(&g, &s);
        net.arc(0, 1);
    }
}
