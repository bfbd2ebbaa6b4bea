//! The SIMD parsing kernels and host driver.
//!
//! Two entry points: [`parse_maspar`] is the paper's fault-free engine;
//! [`parse_maspar_checked`] additionally runs under an optional injected
//! [`FaultPlan`] and a [`ParseBudget`], detecting corruption and either
//! *recovering* (retiring dead PEs, re-executing corrupted phases) or
//! returning a typed [`EngineError`] — never a silently wrong network.
//!
//! The recovery protocol (see DESIGN.md, "Failure model & budgets"):
//!
//! 1. **Probe & retire** — before any data is laid out, every PE writes a
//!    nonce-derived self-test pattern; PEs whose writes never land are
//!    retired and the virtual→physical map is rebuilt over the healthy
//!    array. Repeat until a probe comes back clean (bounded). Persistent
//!    faults are thereby removed *up front*, which time redundancy alone
//!    cannot do.
//! 2. **Verified phases** — every mutating phase (each constraint, each
//!    maintenance iteration) is executed **twice** from a host-held golden
//!    checkpoint of the machine state; the two readbacks (and scalar
//!    results) must agree bit-for-bit or the phase is rolled back and
//!    retried, up to `max_recovery_retries`. A transient fault is keyed to
//!    the machine's monotonically increasing instruction counter and so
//!    fires in at most one of the executions — detection is guaranteed,
//!    and retries execute past the fault. The redundancy is charged
//!    honestly: under faults every phase costs double.
//!
//! Fault-free runs take none of these paths and their instruction counts
//! are bit-identical to the original engine.

use crate::layout::Layout;
use bitmat::BitVec;
use cdg_core::error::{BudgetResource, EngineError, ParseBudget};
use cdg_core::network::{FilterStrategy, NetParts, Network};
use cdg_grammar::{Constraint, Grammar, Sentence};
use maspar_sim::{FaultPlan, Machine, MachineConfig, MachineStats, Plural, PluralBits, SegmentMap};

/// Conservative peak working set per virtual-PE layer, bytes (all plurals
/// the driver ever holds at once). Used to reject programs that would
/// overflow the 16 KB PE memory with a typed error instead of a panic.
const WORKING_SET_BYTES: usize = 96;

/// Options for a MasPar parse.
#[derive(Debug, Clone)]
pub struct MasparOptions {
    /// Machine parameters (physical PEs, memory, cost model).
    pub machine: MachineConfig,
    /// Maximum consistency-maintenance iterations (design decision 5;
    /// the paper: "typically fewer than 10 are required").
    pub filter_iterations: usize,
    /// Stop early when an iteration removes nothing (the ACU can see the
    /// global "changed" flag via a reduction). Disable to reproduce the
    /// strict constant-iteration schedule.
    pub early_exit: bool,
    /// Record a machine instruction trace (op kind + active PE count per
    /// broadcast) — the simulator's answer to the MP-1's debugging tools.
    pub trace: bool,
    /// Inject this fault schedule and run the detect-and-recover protocol
    /// ([`parse_maspar_checked`] only; [`parse_maspar`] refuses it).
    pub faults: Option<FaultPlan>,
    /// Resource limits; `max_wall_time` compares against the deterministic
    /// estimated MP-1 seconds, so budgeted runs reproduce exactly.
    pub budget: ParseBudget,
    /// How many times a verified phase may be re-executed after a
    /// detected corruption before giving up with
    /// [`EngineError::Inconsistent`].
    pub max_recovery_retries: usize,
    /// Run the boolean plurals bit-sliced ([`maspar_sim::PluralBits`],
    /// 64 PEs per host word). `false` keeps the original unpacked
    /// `Plural<bool>` path — the differential oracle, exactly like PR 3's
    /// kernel-vs-naive split. Both issue identical broadcast instructions
    /// and produce bit-identical outcomes and [`MachineStats`]; only host
    /// wall time differs.
    pub packed: bool,
    /// Host-side realization of the readback that reconstructs the
    /// [`Network`] from the machine's packed submatrices.
    /// [`FilterStrategy::Bmm`] assembles whole arc-matrix rows a machine
    /// word at a time; anything else keeps the per-entry scalar walk.
    /// Like [`MasparOptions::packed`], the choice never reaches the
    /// simulated machine: instruction stream, [`MachineStats`], and
    /// estimated seconds are bit-identical either way.
    pub filter_strategy: FilterStrategy,
}

impl Default for MasparOptions {
    fn default() -> Self {
        MasparOptions {
            machine: MachineConfig::default(),
            filter_iterations: 10,
            early_exit: true,
            trace: false,
            faults: None,
            budget: ParseBudget::UNLIMITED,
            max_recovery_retries: 4,
            packed: true,
            filter_strategy: FilterStrategy::default(),
        }
    }
}

impl MasparOptions {
    /// Thin compatibility constructor from the unified
    /// [`cdg_core::EngineConfig`]: everything the machine reads off the
    /// shared surface (budget, faults, packing, filter strategy), with the
    /// machine shape supplied by the owner of the simulated array.
    pub fn from_engine_config(config: &cdg_core::EngineConfig, machine: MachineConfig) -> Self {
        MasparOptions {
            machine,
            faults: config.faults.clone(),
            budget: config.budget,
            packed: config.packed,
            filter_strategy: config.filter,
            ..Default::default()
        }
    }
}

/// What the detect-and-recover machinery did during a checked parse.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// PE self-test probes issued.
    pub probes: usize,
    /// Physical PEs detected dead and retired (virtual PEs remapped).
    pub retired_pes: Vec<usize>,
    /// Phases executed under double-execution verification.
    pub verified_phases: usize,
    /// Verified phases that disagreed and were rolled back and re-run.
    pub phase_retries: u64,
}

impl RecoveryReport {
    /// Did recovery actually have to intervene?
    pub fn intervened(&self) -> bool {
        !self.retired_pes.is_empty() || self.phase_retries > 0
    }
}

/// Per-phase operation counts (for the paper's per-constraint time trials).
#[derive(Debug, Clone)]
pub struct PhaseStats {
    pub name: String,
    pub stats: MachineStats,
}

/// The result of a MasPar parse.
#[derive(Debug)]
pub struct MasparOutcome {
    pub layout: Layout,
    /// Final alive mask per group (readback of the boundary PEs).
    pub alive: Vec<u64>,
    /// Final submatrices, one u64 per virtual PE (readback).
    pub bits: Vec<u64>,
    /// Machine counters for the whole run.
    pub stats: MachineStats,
    /// Estimated MP-1 wall time for the whole run, seconds.
    pub estimated_seconds: f64,
    /// Per-phase attribution (network init, each constraint, maintenance).
    pub phases: Vec<PhaseStats>,
    /// Maintenance iterations actually executed.
    pub filter_iterations_run: usize,
    /// Role values removed by each maintenance iteration, counted on the
    /// machine itself (popcount diff of the alive masks, summed with a
    /// global scanAdd-style reduction).
    pub removals_per_iteration: Vec<u64>,
    /// The virtualization multiplier ⌈q²n⁴ / phys⌉.
    pub virt_factor: u64,
    /// Machine instruction trace (empty unless `MasparOptions::trace`).
    pub trace: Vec<maspar_sim::TraceEntry>,
    /// What fault detection and recovery did (all zero for fault-free runs).
    pub recovery: RecoveryReport,
    /// `Some` when a [`ParseBudget`] limit cut filtering or propagation
    /// short: the readback is a usable partial network and this records
    /// which limit bound. `None` for a complete parse.
    pub degraded: Option<EngineError>,
    /// The host readback realization [`MasparOutcome::to_network`] picks
    /// (recorded from [`MasparOptions::filter_strategy`]).
    pub filter_strategy: FilterStrategy,
}

impl MasparOutcome {
    /// Is role value (group, label idx) still alive?
    pub fn is_alive(&self, group: usize, li: usize) -> bool {
        self.alive[group] >> li & 1 == 1
    }

    /// The paper's acceptance condition: every (word, role) slot retains
    /// at least one role value.
    pub fn roles_nonempty(&self) -> bool {
        let lay = &self.layout;
        (0..lay.n * lay.q).all(|slot| (0..lay.m).any(|m_idx| self.alive[slot * lay.m + m_idx] != 0))
    }

    /// Submatrix entry readback: may role values (cg, ci) and (rg, rj)
    /// coexist?
    pub fn entry(&self, cg: usize, ci: usize, rg: usize, rj: usize) -> bool {
        let pe = self.layout.pe(cg, rg);
        self.bits[pe] >> self.layout.bit(ci, rj) & 1 == 1
    }

    /// Estimated MP-1 seconds for one named phase.
    pub fn phase_seconds(&self, name: &str, cost: &maspar_sim::CostModel) -> Option<f64> {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.stats.estimated_seconds(cost))
    }

    /// Mean estimated seconds per constraint-propagation phase — the
    /// quantity the paper reports as "less than 10 milliseconds".
    pub fn mean_constraint_seconds(&self, cost: &maspar_sim::CostModel) -> f64 {
        let phases: Vec<&PhaseStats> = self
            .phases
            .iter()
            .filter(|p| p.name.starts_with("unary:") || p.name.starts_with("binary:"))
            .collect();
        if phases.is_empty() {
            return 0.0;
        }
        phases
            .iter()
            .map(|p| p.stats.estimated_seconds(cost))
            .sum::<f64>()
            / phases.len() as f64
    }

    /// Reconstruct a host-side [`Network`] with exactly this outcome's
    /// state (alive sets and arc entries), so the standard extraction and
    /// rendering machinery applies.
    ///
    /// Two host realizations produce bit-identical networks: the
    /// per-entry [`MasparOutcome::readback_scalar`] walk (the oracle) and
    /// the word-parallel [`MasparOutcome::readback_tiled`] path used when
    /// the run was configured with [`FilterStrategy::Bmm`]. Either way the
    /// simulated instruction stream and [`MachineStats`] are untouched —
    /// the strategy only changes how the *host* materializes the result.
    pub fn to_network<'g>(&self, grammar: &'g Grammar, sentence: &Sentence) -> Network<'g> {
        if self.filter_strategy == FilterStrategy::Bmm {
            self.readback_tiled(grammar, sentence)
        } else {
            self.readback_scalar(grammar, sentence)
        }
    }

    /// Per-entry readback: probe every (value, value) submatrix bit and
    /// zero the host entry when the machine zeroed it. The differential
    /// oracle for [`MasparOutcome::readback_tiled`].
    pub fn readback_scalar<'g>(&self, grammar: &'g Grammar, sentence: &Sentence) -> Network<'g> {
        let lay = &self.layout;
        let mut net = Network::build(grammar, sentence);
        net.init_arcs();
        // Remove dead role values. Core domain index = li·n + m_idx.
        for g in 0..lay.groups {
            let (w, r, m_idx) = lay.decode_group(g);
            let slot = w * lay.q + r;
            for li in 0..lay.labels_of_role(r) {
                if !self.is_alive(g, li) {
                    net.remove_value(slot, li * lay.m + m_idx);
                }
            }
        }
        // Zero arc entries the machine zeroed.
        let nslots = lay.n * lay.q;
        for si in 0..nslots {
            for sj in (si + 1)..nslots {
                let (wi, ri) = (si / lay.q, si % lay.q);
                let (wj, rj) = (sj / lay.q, sj % lay.q);
                for mi in 0..lay.m {
                    let cg = lay.group(wi, ri, mi);
                    for li in 0..lay.labels_of_role(ri) {
                        if !self.is_alive(cg, li) {
                            continue;
                        }
                        for mj in 0..lay.m {
                            let rg = lay.group(wj, rj, mj);
                            for lj in 0..lay.labels_of_role(rj) {
                                if self.is_alive(rg, lj) && !self.entry(cg, li, rg, lj) {
                                    net.zero_arc_entry(si, li * lay.m + mi, sj, lj * lay.m + mj);
                                }
                            }
                        }
                    }
                }
            }
        }
        net
    }

    /// Word-parallel readback: for each alive arc row, gather one l-bit
    /// label chunk per modifiee straight out of the packed PE submatrix
    /// word, spread it to host column positions lj·m + mj through a
    /// precomputed per-label-count table, and apply the assembled mask
    /// with a single word-wise row AND. Bits the machine zeroed for pairs
    /// with a dead endpoint are already zero on the host (rows/columns of
    /// removed values), so masking with the raw machine row is exact.
    /// Charges the same `entries_zeroed` as the scalar walk plus the
    /// observational `bmm_words` counter.
    pub fn readback_tiled<'g>(&self, grammar: &'g Grammar, sentence: &Sentence) -> Network<'g> {
        let lay = &self.layout;
        let mut net = Network::build(grammar, sentence);
        net.init_arcs();
        for g in 0..lay.groups {
            let (w, r, m_idx) = lay.decode_group(g);
            let slot = w * lay.q + r;
            for li in 0..lay.labels_of_role(r) {
                if !self.is_alive(g, li) {
                    net.remove_value(slot, li * lay.m + m_idx);
                }
            }
        }
        let m = lay.m;
        let l = lay.l;
        let NetParts {
            slots,
            arcs,
            pairs,
            stats,
            ..
        } = net.parts_mut();
        let mut mask = BitVec::zeros(0);
        let mut buf: Vec<u64> = Vec::new();
        // spread[chunk] has bit lj·m set for every label bit lj of
        // `chunk`; shifting the whole pattern left by mj lands each label
        // at its host column lj·m + mj. Rebuilt only when the column
        // role's label count changes.
        let mut spread: Vec<Vec<u64>> = Vec::new();
        let mut spread_labels = usize::MAX;
        for &(si, sj, idx) in pairs {
            let (wi, ri) = (si / lay.q, si % lay.q);
            let (wj, rj) = (sj / lay.q, sj % lay.q);
            let labels_j = lay.labels_of_role(rj);
            let dom_j = slots[sj].domain.len();
            debug_assert_eq!(dom_j, labels_j * m);
            let row_words = dom_j.div_ceil(64);
            if spread_labels != labels_j {
                spread_labels = labels_j;
                spread = vec![vec![0u64; row_words]; 1 << labels_j];
                for chunk in 1usize..1 << labels_j {
                    let lj = chunk.trailing_zeros() as usize;
                    let mut pat = spread[chunk & (chunk - 1)].clone();
                    pat[(lj * m) / 64] |= 1u64 << ((lj * m) % 64);
                    spread[chunk] = pat;
                }
            }
            for a in slots[si].alive.iter_ones() {
                let (li, mi) = (a / m, a % m);
                let cg = lay.group(wi, ri, mi);
                buf.clear();
                buf.resize(row_words, 0);
                for mj in 0..m {
                    let rg = lay.group(wj, rj, mj);
                    let word = self.bits[lay.pe(cg, rg)] >> (li * l);
                    let chunk = word as usize & ((1usize << labels_j) - 1);
                    if chunk == 0 {
                        continue;
                    }
                    // OR in spread[chunk] << mj. Any nonzero piece lands
                    // below bit dom_j, so the guarded indices are in
                    // range even when the word shift straddles or the
                    // modifiee offset exceeds one word.
                    let (wo, bo) = (mj / 64, mj % 64);
                    for (w, &pat) in spread[chunk].iter().enumerate() {
                        if pat == 0 {
                            continue;
                        }
                        let lo = pat << bo;
                        if lo != 0 {
                            buf[w + wo] |= lo;
                        }
                        if bo != 0 {
                            let hi = pat >> (64 - bo);
                            if hi != 0 {
                                buf[w + wo + 1] |= hi;
                            }
                        }
                    }
                }
                mask.reset(dom_j);
                mask.or_assign_raw(&buf);
                stats.entries_zeroed += arcs[idx].row_and_count(a, &mask);
                stats.bmm_words += m + row_words;
            }
        }
        net
    }
}

/// Run PARSEC on the simulated MP-1.
///
/// ```
/// use parsec_maspar::{parse_maspar, MasparOptions};
/// use cdg_grammar::grammars::paper;
///
/// let grammar = paper::grammar();
/// let sentence = paper::example_sentence(&grammar);
/// let out = parse_maspar(&grammar, &sentence, &MasparOptions::default());
/// assert!(out.roles_nonempty());
/// assert_eq!(out.layout.virt_pes(), 324); // the paper's Figure 11
/// assert_eq!(out.virt_factor, 1);         // fits the 16K array
/// // Estimated MP-1 time lands on the paper's ~0.15 s.
/// assert!((0.08..0.25).contains(&out.estimated_seconds));
/// ```
pub fn parse_maspar(grammar: &Grammar, sentence: &Sentence, opts: &MasparOptions) -> MasparOutcome {
    assert!(
        opts.faults.is_none(),
        "parse_maspar cannot recover from injected faults; call parse_maspar_checked"
    );
    match parse_maspar_checked(grammar, sentence, opts) {
        Ok(out) => out,
        Err(e) => panic!("MasPar parse failed: {e} (parse_maspar_checked returns this as a value)"),
    }
}

/// [`parse_maspar`] with fault detection/recovery and budget enforcement.
///
/// With `opts.faults` armed, the engine probes and retires dead PEs,
/// double-executes every phase against golden checkpoints, and retries
/// corrupted phases — a recovered parse is **bit-identical** to the
/// fault-free one (property-tested in `tests/fault_injection.rs`). When
/// recovery is impossible the result is a typed [`EngineError`]; there is
/// no third outcome.
pub fn parse_maspar_checked(
    grammar: &Grammar,
    sentence: &Sentence,
    opts: &MasparOptions,
) -> Result<MasparOutcome, EngineError> {
    let _build = obsv::span("network_build");
    let lay = precheck(grammar, sentence, opts)?;

    let mut machine = Machine::new(opts.machine.clone(), lay.virt_pes());
    if let Some(plan) = &opts.faults {
        machine.arm_faults(plan.clone());
    }
    if opts.trace {
        machine.enable_trace();
    }
    let mut recovery = RecoveryReport::default();
    drop(_build);

    // --- Probe & retire: clear persistent faults before laying out data.
    if machine.faults_armed() {
        let _probe = obsv::span("fault_probe");
        let mut nonce = 0x5EED_C0DE_0000_0001u64;
        loop {
            recovery.probes += 1;
            let dead = machine.probe_pes(nonce);
            nonce = nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            if dead.is_empty() {
                break;
            }
            if recovery.probes > 16 {
                return Err(EngineError::PeFailure {
                    dead,
                    detail: "probing kept finding dead PEs after 16 rounds".into(),
                });
            }
            if machine.retire_pes(&dead) == 0 {
                return Err(EngineError::PeFailure {
                    dead,
                    detail: "no healthy physical PEs remain".into(),
                });
            }
            recovery.retired_pes.extend(dead);
        }
    }

    if opts.packed {
        drive::<PluralBits>(machine, lay, grammar, sentence, opts, recovery)
    } else {
        drive::<Plural<bool>>(machine, lay, grammar, sentence, opts, recovery)
    }
}

/// The typed pre-flight checks every MasPar parse runs before touching a
/// machine: layout construction (rejecting lexically ambiguous input),
/// the arc-cell budget, and the PE-memory working set.
fn precheck(
    grammar: &Grammar,
    sentence: &Sentence,
    opts: &MasparOptions,
) -> Result<Layout, EngineError> {
    let lay = Layout::try_new(grammar, sentence).map_err(EngineError::GrammarError)?;

    // The engine's data layout IS the arc matrix set (one l×l submatrix
    // per virtual PE), so an arc-cell budget it cannot meet is a hard
    // typed error — there is no arc-less partial mode here.
    if let Some(cap) = opts.budget.max_arc_cells {
        let cells = lay.virt_pes() as u64 * (lay.l * lay.l) as u64;
        if cells > cap {
            return Err(ParseBudget::exceeded(BudgetResource::ArcCells, cap, cells));
        }
    }
    // Reject programs that would blow the 16 KB PE memory with a typed
    // error before touching the machine.
    let factor = lay.virt_pes().div_ceil(opts.machine.phys_pes.max(1));
    if factor * WORKING_SET_BYTES > opts.machine.pe_memory_bytes {
        return Err(EngineError::GrammarError(format!(
            "sentence needs {} virtual PEs (×{factor} virtualization): working set \
             exceeds the {} B PE memory",
            lay.virt_pes(),
            opts.machine.pe_memory_bytes
        )));
    }
    Ok(lay)
}

/// The engine body, generic over the boolean-plural representation `B`
/// (packed bit-sliced or unpacked oracle). Everything from data layout to
/// readback; both instantiations issue identical broadcast instructions.
fn drive<B: BoolRepr>(
    mut machine: Machine,
    lay: Layout,
    grammar: &Grammar,
    sentence: &Sentence,
    opts: &MasparOptions,
    mut recovery: RecoveryReport,
) -> Result<MasparOutcome, EngineError> {
    let over_time = |machine: &Machine| -> Option<EngineError> {
        let cap = opts.budget.max_wall_time?;
        let spent = machine.estimated_seconds();
        (spent > cap.as_secs_f64()).then(|| {
            ParseBudget::exceeded(
                BudgetResource::WallTime,
                format!("{cap:?}"),
                format!("{spent:.4}s estimated MP-1 time"),
            )
        })
    };

    let mut phases: Vec<PhaseStats> = Vec::new();
    let mut mark = machine.stats;
    let phase =
        |machine: &Machine, phases: &mut Vec<PhaseStats>, mark: &mut MachineStats, name: String| {
            phases.push(PhaseStats {
                name,
                stats: machine.stats.delta_since(mark),
            });
            *mark = machine.stats;
        };

    // --- Init: every plural is a pure function of the PE id, so the host
    // verifies it directly against expected values (no double execution
    // needed). Fault-free, init_exact is exactly alloc + one par_map —
    // the same instructions as the original engine.
    //
    // Validity mask: everything but the self-arc diagonal (Figure 11's
    // disabled PEs). Computed once from PE ids — design decision 2: no
    // broadcast needed.
    let retries = opts.max_recovery_retries.max(1);
    let n_virt = lay.virt_pes();
    let expect = |f: &dyn Fn(usize) -> u64| -> Vec<u64> { (0..n_virt).map(f).collect() };
    let _init = obsv::span("arc_init");
    let valid = B::init_exact(
        &mut machine,
        "valid",
        retries,
        &mut recovery,
        &(0..n_virt)
            .map(|pe| !lay.is_diagonal(pe))
            .collect::<Vec<_>>(),
    )?;
    let block_boundary = B::init_exact(
        &mut machine,
        "block-boundary",
        retries,
        &mut recovery,
        &(0..n_virt)
            .map(|pe| !lay.is_diagonal(pe) && pe % lay.m == 0)
            .collect::<Vec<_>>(),
    )?;

    // Design decision 1: arc matrices first, all ones (Figure 9).
    let mut bits: Plural<u64> = init_exact(
        &mut machine,
        "bits",
        retries,
        &mut recovery,
        &expect(&|pe| lay.init_bits(pe)),
    )?;
    let mut alive: Plural<u64> = init_exact(
        &mut machine,
        "alive",
        retries,
        &mut recovery,
        &expect(&|pe| lay.init_alive(pe)),
    )?;

    // Router index plurals for the alive-mask gathers (phase D).
    let col_boundary_idx: Plural<usize> = init_exact(
        &mut machine,
        "col-idx",
        retries,
        &mut recovery,
        &(0..n_virt)
            .map(|pe| lay.decode_pe(pe).0 * lay.groups)
            .collect::<Vec<_>>(),
    )?;
    let row_boundary_idx: Plural<usize> = init_exact(
        &mut machine,
        "row-idx",
        retries,
        &mut recovery,
        &(0..n_virt)
            .map(|pe| lay.decode_pe(pe).1 * lay.groups)
            .collect::<Vec<_>>(),
    )?;
    phase(&machine, &mut phases, &mut mark, "init".into());
    drop(_init);

    let mut degraded: Option<EngineError> = over_time(&machine);

    // --- Unary propagation on the matrices (design decisions 1 & 4) ---
    let _unary = obsv::span("unary_propagation");
    for c in grammar.unary_constraints() {
        if degraded.is_some() {
            break;
        }
        let _c = obsv::span_with(|| format!("unary:{}", c.name));
        run_phase(
            &mut machine,
            retries,
            &mut recovery,
            &format!("unary:{}", c.name),
            &mut bits,
            &mut alive,
            |m, bits, alive| {
                B::apply_unary(m, &lay, sentence, c, &valid, bits, alive);
                0
            },
        )?;
        phase(
            &machine,
            &mut phases,
            &mut mark,
            format!("unary:{}", c.name),
        );
        degraded = over_time(&machine);
    }
    // Immediately zero rows/cols of values the unary pass killed, so the
    // matrices agree with the alive masks before binary propagation.
    if degraded.is_none() {
        let _c = obsv::span("unary:mask");
        run_phase(
            &mut machine,
            retries,
            &mut recovery,
            "unary:mask",
            &mut bits,
            &mut alive,
            |m, bits, alive| {
                mask_dead(
                    m,
                    &lay,
                    &valid,
                    bits,
                    alive,
                    &col_boundary_idx,
                    &row_boundary_idx,
                );
                0
            },
        )?;
        phase(&machine, &mut phases, &mut mark, "unary:mask".into());
    }
    drop(_unary);

    // --- Binary propagation ---
    let _binary = obsv::span("binary_propagation");
    for c in grammar.binary_constraints() {
        if degraded.is_some() {
            break;
        }
        let _c = obsv::span_with(|| format!("binary:{}", c.name));
        run_phase(
            &mut machine,
            retries,
            &mut recovery,
            &format!("binary:{}", c.name),
            &mut bits,
            &mut alive,
            |m, bits, _alive| {
                apply_binary(m, &lay, sentence, c, &valid, bits);
                0
            },
        )?;
        phase(
            &machine,
            &mut phases,
            &mut mark,
            format!("binary:{}", c.name),
        );
        degraded = over_time(&machine);
    }

    drop(_binary);

    // --- Consistency maintenance + bounded filtering (decisions 3 & 5) ---
    let _filtering = obsv::span("filtering");
    let mut iterations = 0;
    let mut removals_per_iteration: Vec<u64> = Vec::new();
    for _ in 0..opts.filter_iterations {
        if degraded.is_some() {
            break;
        }
        if let Some(cap) = opts.budget.max_filter_iterations {
            if iterations >= cap {
                // Only a degradation if filtering had not already settled.
                if removals_per_iteration.last().is_none_or(|&r| r > 0) {
                    degraded = Some(ParseBudget::exceeded(
                        BudgetResource::FilterIterations,
                        cap,
                        iterations + 1,
                    ));
                }
                break;
            }
        }
        iterations += 1;
        let _m = obsv::span("maintain");
        let removed = run_phase(
            &mut machine,
            retries,
            &mut recovery,
            &format!("maintain:{iterations}"),
            &mut bits,
            &mut alive,
            |m, bits, alive| {
                maintain(
                    m,
                    &lay,
                    &valid,
                    &block_boundary,
                    bits,
                    alive,
                    &col_boundary_idx,
                    &row_boundary_idx,
                )
            },
        )?;
        removals_per_iteration.push(removed);
        phase(
            &machine,
            &mut phases,
            &mut mark,
            format!("maintain:{iterations}"),
        );
        if opts.early_exit && removed == 0 {
            break;
        }
        degraded = over_time(&machine);
    }
    drop(_filtering);

    let estimated_seconds = machine.estimated_seconds();
    let trace = machine.trace().to_vec();
    Ok(MasparOutcome {
        alive: alive.as_slice()[..]
            .iter()
            .step_by(lay.groups)
            .copied()
            .collect(),
        bits: bits.as_slice().to_vec(),
        stats: machine.stats,
        estimated_seconds,
        phases,
        filter_iterations_run: iterations,
        removals_per_iteration,
        virt_factor: machine.virt_factor(),
        trace,
        recovery,
        degraded,
        layout: lay,
        filter_strategy: opts.filter_strategy,
    })
}

/// Allocate a plural and write `expected` into it, re-issuing the write
/// until the readback matches (the values are pure functions of the PE id,
/// so the host can verify them directly). Fault-free this is exactly one
/// alloc + one broadcast, identical to the original `par_init`.
fn init_exact<T>(
    machine: &mut Machine,
    name: &str,
    max_retries: usize,
    recovery: &mut RecoveryReport,
    expected: &[T],
) -> Result<Plural<T>, EngineError>
where
    T: Copy + Default + PartialEq + Send + Sync + maspar_sim::FaultWord,
{
    let mut p = machine.alloc(T::default());
    let mut attempts = 0;
    loop {
        attempts += 1;
        machine.par_map(&mut p, |pe, v| *v = expected[pe]);
        if !machine.faults_armed() || p.as_slice() == expected {
            return Ok(p);
        }
        recovery.phase_retries += 1;
        if attempts > max_retries {
            return Err(EngineError::Inconsistent {
                phase: format!("init:{name}"),
                attempts,
            });
        }
    }
}

/// Execute one mutating phase. Fault-free: run it once. Under faults:
/// checkpoint `bits`/`alive` on the host, run the phase **twice** (rolling
/// back in between), and accept only two bit-identical executions; retry
/// from the checkpoint otherwise. Returns the phase's scalar result.
#[allow(clippy::too_many_arguments)]
fn run_phase<F>(
    machine: &mut Machine,
    max_retries: usize,
    recovery: &mut RecoveryReport,
    name: &str,
    bits: &mut Plural<u64>,
    alive: &mut Plural<u64>,
    f: F,
) -> Result<u64, EngineError>
where
    F: Fn(&mut Machine, &mut Plural<u64>, &mut Plural<u64>) -> u64,
{
    if !machine.faults_armed() {
        return Ok(f(machine, bits, alive));
    }
    let _verify = obsv::span("verify");
    recovery.verified_phases += 1;
    let golden_bits = bits.as_slice().to_vec();
    let golden_alive = alive.as_slice().to_vec();
    let mut attempts = 0;
    loop {
        attempts += 1;
        let r1 = f(machine, bits, alive);
        let run1_bits = bits.as_slice().to_vec();
        let run1_alive = alive.as_slice().to_vec();
        restore(machine, bits, &golden_bits);
        restore(machine, alive, &golden_alive);
        let r2 = f(machine, bits, alive);
        if r1 == r2 && run1_bits == bits.as_slice() && run1_alive == alive.as_slice() {
            return Ok(r2);
        }
        recovery.phase_retries += 1;
        if attempts >= max_retries {
            return Err(EngineError::Inconsistent {
                phase: name.to_string(),
                attempts,
            });
        }
        restore(machine, bits, &golden_bits);
        restore(machine, alive, &golden_alive);
    }
}

/// Roll a plural back to a host-held golden copy (one broadcast).
fn restore(machine: &mut Machine, p: &mut Plural<u64>, golden: &[u64]) {
    machine.par_map(p, |pe, v| *v = golden[pe]);
}

/// The boolean-plural representation the engine runs on: bit-sliced
/// [`PluralBits`] (64 PEs per host word) or the unpacked [`Plural<bool>`]
/// scalar oracle. Every method issues exactly the same broadcast
/// instructions in both implementations — the differential suite
/// (`tests/packed_equivalence.rs`) holds the two to bit-identical
/// outcomes, typed errors and [`MachineStats`].
trait BoolRepr: Sized {
    /// Allocate and write a host-verified boolean plural (the boolean
    /// counterpart of [`init_exact`]): one alloc + one broadcast when
    /// fault-free, re-issued until the readback matches otherwise.
    fn init_exact(
        machine: &mut Machine,
        name: &str,
        max_retries: usize,
        recovery: &mut RecoveryReport,
        expected: &[bool],
    ) -> Result<Self, EngineError>;
    fn alloc_false(machine: &mut Machine) -> Self;
    fn free(self, machine: &mut Machine);
    /// MPL's plural `if` over this mask.
    fn with_activity<R>(&self, machine: &mut Machine, body: impl FnOnce(&mut Machine) -> R) -> R;
    /// Maintenance phase A: each PE ORs its submatrix row for column
    /// label `li` into `dst` (one broadcast).
    fn row_or(machine: &mut Machine, dst: &mut Self, bits: &Plural<u64>, lay: &Layout, li: usize);
    fn scan_or(&self, machine: &mut Machine, segs: &SegmentMap) -> Self;
    fn scan_and(&self, machine: &mut Machine, segs: &SegmentMap) -> Self;
    /// Maintenance phase D: boundary PEs record the supported bit `li`
    /// into the accumulating `support` masks (one broadcast).
    fn accumulate_support(
        &self,
        machine: &mut Machine,
        support: &mut Plural<u64>,
        groups: usize,
        li: usize,
    );
    /// One unary constraint: every PE zeroes the submatrix columns/rows of
    /// its violating role values; boundary PEs update the alive masks. The
    /// violation test is pure PE-local computation from the PE id plus the
    /// ACU-broadcast constraint (design decision 2). Three broadcasts.
    fn apply_unary(
        machine: &mut Machine,
        lay: &Layout,
        sentence: &Sentence,
        c: &Constraint,
        valid: &Self,
        bits: &mut Plural<u64>,
        alive: &mut Plural<u64>,
    );
}

impl BoolRepr for Plural<bool> {
    fn init_exact(
        machine: &mut Machine,
        name: &str,
        max_retries: usize,
        recovery: &mut RecoveryReport,
        expected: &[bool],
    ) -> Result<Self, EngineError> {
        init_exact(machine, name, max_retries, recovery, expected)
    }

    fn alloc_false(machine: &mut Machine) -> Self {
        machine.alloc(false)
    }

    fn free(self, machine: &mut Machine) {
        machine.free(self);
    }

    fn with_activity<R>(&self, machine: &mut Machine, body: impl FnOnce(&mut Machine) -> R) -> R {
        machine.with_activity(self, body)
    }

    fn row_or(machine: &mut Machine, dst: &mut Self, bits: &Plural<u64>, lay: &Layout, li: usize) {
        machine.par_zip(dst, bits, |_, out, &b| {
            let mut any = false;
            for j in 0..lay.l {
                if b >> lay.bit(li, j) & 1 == 1 {
                    any = true;
                    break;
                }
            }
            *out = any;
        });
    }

    fn scan_or(&self, machine: &mut Machine, segs: &SegmentMap) -> Self {
        machine.scan_or(self, segs)
    }

    fn scan_and(&self, machine: &mut Machine, segs: &SegmentMap) -> Self {
        machine.scan_and(self, segs)
    }

    fn accumulate_support(
        &self,
        machine: &mut Machine,
        support: &mut Plural<u64>,
        groups: usize,
        li: usize,
    ) {
        machine.par_zip(support, self, move |pe, s, &ok| {
            if pe % groups == 0 && ok {
                *s |= 1u64 << li;
            }
        });
    }

    fn apply_unary(
        machine: &mut Machine,
        lay: &Layout,
        sentence: &Sentence,
        c: &Constraint,
        valid: &Self,
        bits: &mut Plural<u64>,
        alive: &mut Plural<u64>,
    ) {
        // The oracle stays deliberately naive: every PE re-evaluates the
        // constraint for its own labels, exactly as first written.
        let violates = |g: usize, li: usize| -> bool {
            match lay.binding(g, li) {
                Some(b) => !c.check_unary(sentence, b),
                None => false,
            }
        };
        machine.with_activity(valid, |m| {
            m.par_map(bits, |pe, b| {
                let (cg, rg) = lay.decode_pe(pe);
                for i in 0..lay.l {
                    if violates(cg, i) {
                        for j in 0..lay.l {
                            *b &= !(1u64 << lay.bit(i, j));
                        }
                    }
                }
                for j in 0..lay.l {
                    if violates(rg, j) {
                        for i in 0..lay.l {
                            *b &= !(1u64 << lay.bit(i, j));
                        }
                    }
                }
            });
        });
        machine.par_map(alive, |pe, a| {
            if pe % lay.groups == 0 {
                let g = pe / lay.groups;
                for li in 0..lay.l {
                    if violates(g, li) {
                        *a &= !(1u64 << li);
                    }
                }
            }
        });
    }
}

impl BoolRepr for PluralBits {
    fn init_exact(
        machine: &mut Machine,
        name: &str,
        max_retries: usize,
        recovery: &mut RecoveryReport,
        expected: &[bool],
    ) -> Result<Self, EngineError> {
        let mut p = machine.alloc_bits(false);
        let mut attempts = 0;
        loop {
            attempts += 1;
            machine.par_write_bits(&mut p, expected);
            if !machine.faults_armed() || (0..expected.len()).all(|pe| p.get(pe) == expected[pe]) {
                return Ok(p);
            }
            recovery.phase_retries += 1;
            if attempts > max_retries {
                return Err(EngineError::Inconsistent {
                    phase: format!("init:{name}"),
                    attempts,
                });
            }
        }
    }

    fn alloc_false(machine: &mut Machine) -> Self {
        machine.alloc_bits(false)
    }

    fn free(self, machine: &mut Machine) {
        machine.free_bits(self);
    }

    fn with_activity<R>(&self, machine: &mut Machine, body: impl FnOnce(&mut Machine) -> R) -> R {
        machine.with_activity_bits(self, body)
    }

    fn row_or(machine: &mut Machine, dst: &mut Self, bits: &Plural<u64>, lay: &Layout, li: usize) {
        // One masked test replaces the per-label inner loop: the submatrix
        // row for label li is a contiguous bit run (Layout::row_mask).
        let row = lay.row_mask(li);
        machine.par_map_bits(dst, bits, move |_, b| b & row != 0);
    }

    fn scan_or(&self, machine: &mut Machine, segs: &SegmentMap) -> Self {
        machine.scan_or_bits(self, segs)
    }

    fn scan_and(&self, machine: &mut Machine, segs: &SegmentMap) -> Self {
        machine.scan_and_bits(self, segs)
    }

    fn accumulate_support(
        &self,
        machine: &mut Machine,
        support: &mut Plural<u64>,
        groups: usize,
        li: usize,
    ) {
        machine.par_zip_bits(support, self, move |pe, s, ok| {
            if pe % groups == 0 && ok {
                *s |= 1u64 << li;
            }
        });
    }

    fn apply_unary(
        machine: &mut Machine,
        lay: &Layout,
        sentence: &Sentence,
        c: &Constraint,
        valid: &Self,
        bits: &mut Plural<u64>,
        alive: &mut Plural<u64>,
    ) {
        // The unary test depends only on (group, label), so the ACU can
        // evaluate it once per group on the host and broadcast keep masks
        // — the PEs apply two ANDs instead of re-evaluating the constraint
        // l times each. Same three broadcasts, bit-identical results.
        let viol: Vec<u64> = (0..lay.groups)
            .map(|g| {
                let mut v = 0u64;
                for li in 0..lay.l {
                    if let Some(b) = lay.binding(g, li) {
                        if !c.check_unary(sentence, b) {
                            v |= 1u64 << li;
                        }
                    }
                }
                v
            })
            .collect();
        let keep_cols: Vec<u64> = viol
            .iter()
            .map(|&v| {
                let mut kill = 0u64;
                for i in 0..lay.l {
                    if v >> i & 1 == 1 {
                        kill |= lay.row_mask(i);
                    }
                }
                !kill
            })
            .collect();
        let keep_rows: Vec<u64> = viol
            .iter()
            .map(|&v| {
                let mut kill = 0u64;
                for j in 0..lay.l {
                    if v >> j & 1 == 1 {
                        kill |= lay.col_mask(j);
                    }
                }
                !kill
            })
            .collect();
        machine.with_activity_bits(valid, |m| {
            m.par_map(bits, |pe, b| {
                let (cg, rg) = lay.decode_pe(pe);
                *b &= keep_cols[cg] & keep_rows[rg];
            });
        });
        machine.par_map(alive, |pe, a| {
            if pe % lay.groups == 0 {
                *a &= !viol[pe / lay.groups];
            }
        });
    }
}

/// One binary constraint: every PE checks its l×l pairs (both orderings).
fn apply_binary<B: BoolRepr>(
    machine: &mut Machine,
    lay: &Layout,
    sentence: &Sentence,
    c: &Constraint,
    valid: &B,
    bits: &mut Plural<u64>,
) {
    valid.with_activity(machine, |m| {
        m.par_map(bits, |pe, b| {
            if *b == 0 {
                return;
            }
            let (cg, rg) = lay.decode_pe(pe);
            for i in 0..lay.l {
                let Some(bx) = lay.binding(cg, i) else {
                    continue;
                };
                for j in 0..lay.l {
                    let mask = 1u64 << lay.bit(i, j);
                    if *b & mask == 0 {
                        continue;
                    }
                    let Some(by) = lay.binding(rg, j) else {
                        continue;
                    };
                    if !c.check_pair(sentence, bx, by) {
                        *b &= !mask;
                    }
                }
            }
        });
    });
}

/// Zero every submatrix column/row belonging to a dead role value: two
/// router gathers fetch the column's and row's alive masks from the
/// boundary PEs, then one broadcast instruction applies them.
fn mask_dead<B: BoolRepr>(
    machine: &mut Machine,
    lay: &Layout,
    valid: &B,
    bits: &mut Plural<u64>,
    alive: &Plural<u64>,
    col_idx: &Plural<usize>,
    row_idx: &Plural<usize>,
) {
    let mut col_alive = machine.alloc(0u64);
    let mut row_alive = machine.alloc(0u64);
    machine.gather(alive, col_idx, &mut col_alive);
    machine.gather(alive, row_idx, &mut row_alive);
    valid.with_activity(machine, |m| {
        m.par_zip(bits, &col_alive, |pe, b, &ca| {
            let _ = pe;
            let mut keep = 0u64;
            for i in 0..lay.l {
                if ca >> i & 1 == 1 {
                    for j in 0..lay.l {
                        keep |= 1u64 << lay.bit(i, j);
                    }
                }
            }
            *b &= keep;
        });
        m.par_zip(bits, &row_alive, |pe, b, &ra| {
            let _ = pe;
            let mut keep = 0u64;
            for j in 0..lay.l {
                if ra >> j & 1 == 1 {
                    for i in 0..lay.l {
                        keep |= 1u64 << lay.bit(i, j);
                    }
                }
            }
            *b &= keep;
        });
    });
    machine.free(col_alive);
    machine.free(row_alive);
}

/// One consistency-maintenance iteration — Figure 12's scan choreography,
/// repeated once per label (Figure 13). Returns how many role values were
/// removed (counted on the machine: per-boundary popcount diff, then a
/// global sum reduction).
#[allow(clippy::too_many_arguments)]
fn maintain<B: BoolRepr>(
    machine: &mut Machine,
    lay: &Layout,
    valid: &B,
    block_boundary: &B,
    bits: &mut Plural<u64>,
    alive: &mut Plural<u64>,
    col_idx: &Plural<usize>,
    row_idx: &Plural<usize>,
) -> u64 {
    let blocks = lay.block_segments();
    let columns = lay.column_segments();
    let mut support = machine.alloc(0u64);

    for li in 0..lay.l {
        // Phase A: each PE ORs its submatrix row for column label li.
        let mut loc = B::alloc_false(machine);
        valid.with_activity(machine, |m| B::row_or(m, &mut loc, bits, lay, li));
        // Phase B: scanOr within each (column, row word-role) block; the
        // block's OR lands on its boundary PE.
        let block_or = valid.with_activity(machine, |m| loc.scan_or(m, &blocks));
        loc.free(machine);
        // Phase C: scanAnd across the block-boundary PEs of each column
        // (self-arc blocks are invalid, hence skipped — the figure's
        // "disabled only during the scanAnd").
        let col_support = block_boundary.with_activity(machine, |m| block_or.scan_and(m, &columns));
        block_or.free(machine);
        // Phase D (accumulate): boundary PEs record the supported bit.
        col_support.accumulate_support(machine, &mut support, lay.groups, li);
        col_support.free(machine);
    }

    // New alive = old ∧ supported; removal counting is PE-local (popcount
    // of the bits each boundary PE loses), then one global sum tells the
    // ACU how much this iteration removed (0 = fixpoint reached).
    let mut lost = machine.alloc(0u64);
    machine.par_zip2(&mut lost, alive, &support, |pe, out, &a, &s| {
        if pe % lay.groups == 0 {
            *out = (a & !s).count_ones() as u64;
        }
    });
    let removed = machine.reduce_sum(&lost);
    machine.free(lost);
    machine.par_zip(alive, &support, |pe, a, &s| {
        if pe % lay.groups == 0 {
            *a &= s;
        }
    });
    machine.free(support);

    if removed > 0 {
        mask_dead(machine, lay, valid, bits, alive, col_idx, row_idx);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdg_core::parser::{parse, FilterMode, ParseOptions};
    use cdg_grammar::grammars::paper;
    use cdg_grammar::Modifiee;

    fn example() -> (Grammar, Sentence) {
        let g = paper::grammar();
        let s = paper::example_sentence(&g);
        (g, s)
    }

    #[test]
    fn figure6_final_state_on_the_machine() {
        let (g, s) = example();
        let out = parse_maspar(&g, &s, &MasparOptions::default());
        assert!(out.roles_nonempty());
        let lay = &out.layout;
        let governor = 0usize;
        let needs = 1usize;
        // the/governor: only DET-2 alive.
        let det = lay
            .label_index(governor, g.label_id("DET").unwrap())
            .unwrap();
        let m2 = lay.modifiee_index(0, Modifiee::Word(2));
        assert!(out.is_alive(lay.group(0, governor, m2), det));
        let m3 = lay.modifiee_index(0, Modifiee::Word(3));
        assert!(!out.is_alive(lay.group(0, governor, m3), det));
        // program/governor: only SUBJ-3.
        let subj = lay
            .label_index(governor, g.label_id("SUBJ").unwrap())
            .unwrap();
        let pm3 = lay.modifiee_index(1, Modifiee::Word(3));
        assert!(out.is_alive(lay.group(1, governor, pm3), subj));
        let pm1 = lay.modifiee_index(1, Modifiee::Word(1));
        assert!(!out.is_alive(lay.group(1, governor, pm1), subj));
        // runs/needs: only S-2.
        let s_label = lay.label_index(needs, g.label_id("S").unwrap()).unwrap();
        let rm2 = lay.modifiee_index(2, Modifiee::Word(2));
        assert!(out.is_alive(lay.group(2, needs, rm2), s_label));
    }

    #[test]
    fn equivalent_to_sequential_engine() {
        let (g, s) = example();
        let serial = parse(&g, &s, ParseOptions::default());
        let out = parse_maspar(&g, &s, &MasparOptions::default());
        let net = out.to_network(&g, &s);
        for (a, b) in serial.network.slots().iter().zip(net.slots()) {
            assert_eq!(a.alive, b.alive, "alive sets diverge");
        }
        assert_eq!(
            cdg_core::extract::precedence_graphs(&serial.network, 100),
            cdg_core::extract::precedence_graphs(&net, 100),
        );
    }

    #[test]
    fn equivalent_on_rejected_sentence() {
        let g = paper::grammar();
        let lex = paper::lexicon(&g);
        let s = lex.sentence("program the runs").unwrap();
        let serial = parse(&g, &s, ParseOptions::default());
        let out = parse_maspar(&g, &s, &MasparOptions::default());
        assert_eq!(serial.roles_nonempty, out.roles_nonempty());
        assert!(!out.roles_nonempty());
    }

    #[test]
    fn bounded_filtering_matches_bounded_serial() {
        // With the same pass budget and no early exit, the scan-based
        // maintenance must remove exactly what the serial passes remove.
        let (g, s) = example();
        for passes in 1..=3 {
            let serial = parse(
                &g,
                &s,
                ParseOptions {
                    filter: FilterMode::Bounded(passes),
                    ..Default::default()
                },
            );
            let out = parse_maspar(
                &g,
                &s,
                &MasparOptions {
                    filter_iterations: passes,
                    early_exit: false,
                    ..Default::default()
                },
            );
            let net = out.to_network(&g, &s);
            for (a, b) in serial.network.slots().iter().zip(net.slots()) {
                assert_eq!(a.alive, b.alive, "pass budget {passes}");
            }
        }
    }

    #[test]
    fn figure12_subj1_eliminated_by_scans() {
        // SUBJ-1 of program/governor survives unary propagation but is
        // eliminated by the first scan-based consistency iteration.
        let (g, s) = example();
        let one = parse_maspar(
            &g,
            &s,
            &MasparOptions {
                filter_iterations: 1,
                early_exit: false,
                ..Default::default()
            },
        );
        let lay = &one.layout;
        let subj = lay.label_index(0, g.label_id("SUBJ").unwrap()).unwrap();
        let pm1 = lay.modifiee_index(1, Modifiee::Word(1));
        assert!(!one.is_alive(lay.group(1, 0, pm1), subj));
    }

    #[test]
    fn virtualization_staircase() {
        // n ≤ 7 words fit the 16K array (q²n⁴ ≤ 9604); 10 words need
        // 40,000 virtual PEs → factor 3. The paper: 0.15 s vs 0.45 s.
        let g = paper::grammar();
        let small = parse_maspar(
            &g,
            &paper::cost_sweep_sentence(&g, 7),
            &MasparOptions::default(),
        );
        assert_eq!(small.virt_factor, 1);
        let big = parse_maspar(
            &g,
            &paper::cost_sweep_sentence(&g, 10),
            &MasparOptions::default(),
        );
        assert_eq!(big.virt_factor, 3);
    }

    #[test]
    fn phase_attribution_covers_all_constraints() {
        let (g, s) = example();
        let out = parse_maspar(&g, &s, &MasparOptions::default());
        let unary = out
            .phases
            .iter()
            .filter(|p| p.name.starts_with("unary:") && !p.name.ends_with(":mask"))
            .count();
        let binary = out
            .phases
            .iter()
            .filter(|p| p.name.starts_with("binary:"))
            .count();
        assert_eq!(unary, 6);
        assert_eq!(binary, 4);
        assert!(out.estimated_seconds > 0.0);
        assert!(out.mean_constraint_seconds(&out.stats_cost()) > 0.0);
    }

    impl MasparOutcome {
        fn stats_cost(&self) -> maspar_sim::CostModel {
            maspar_sim::CostModel::default()
        }
    }

    /// A small physical array so the paper example (324 virtual PEs)
    /// actually lands multiple virtual PEs per physical PE and injected
    /// faults hit occupied hardware.
    fn small_machine() -> MachineConfig {
        MachineConfig {
            phys_pes: 64,
            ..Default::default()
        }
    }

    #[test]
    fn packed_engine_is_bit_identical_to_scalar_oracle() {
        let (g, s) = example();
        let packed = parse_maspar(&g, &s, &MasparOptions::default());
        let scalar = parse_maspar(
            &g,
            &s,
            &MasparOptions {
                packed: false,
                ..Default::default()
            },
        );
        assert_eq!(packed.bits, scalar.bits);
        assert_eq!(packed.alive, scalar.alive);
        assert_eq!(
            packed.stats, scalar.stats,
            "both representations must issue identical instruction charges"
        );
        assert_eq!(packed.estimated_seconds, scalar.estimated_seconds);
        assert_eq!(packed.removals_per_iteration, scalar.removals_per_iteration);
        assert_eq!(packed.phases.len(), scalar.phases.len());
        for (a, b) in packed.phases.iter().zip(&scalar.phases) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.stats, b.stats, "phase {} diverges", a.name);
        }
    }

    #[test]
    fn tiled_readback_matches_scalar_oracle() {
        let g = paper::grammar();
        let lex = paper::lexicon(&g);
        let sentences = vec![
            paper::example_sentence(&g),
            lex.sentence("program the runs").unwrap(),
            paper::cost_sweep_sentence(&g, 3),
            paper::cost_sweep_sentence(&g, 5),
        ];
        for s in &sentences {
            let scalar = parse_maspar(&g, s, &MasparOptions::default());
            let tiled = parse_maspar(
                &g,
                s,
                &MasparOptions {
                    filter_strategy: FilterStrategy::Bmm,
                    ..Default::default()
                },
            );
            // The strategy is host-side only: the machine run must be
            // bit-identical, instruction charges included.
            assert_eq!(scalar.bits, tiled.bits);
            assert_eq!(scalar.alive, tiled.alive);
            assert_eq!(scalar.stats, tiled.stats);
            let a = scalar.to_network(&g, s);
            let b = tiled.to_network(&g, s);
            for (sa, sb) in a.slots().iter().zip(b.slots()) {
                assert_eq!(sa.alive, sb.alive);
            }
            assert_eq!(a.arcs_raw(), b.arcs_raw());
            let mut masked = b.stats;
            // A fully rejected sentence has no alive rows left to mask.
            assert_eq!(masked.bmm_words > 0, b.total_alive() > 0);
            masked.bmm_words = a.stats.bmm_words;
            masked.bmm_tiles = a.stats.bmm_tiles;
            assert_eq!(a.stats, masked, "host stats must agree up to bmm_*");
        }
    }

    #[test]
    fn packed_engine_matches_oracle_under_faults() {
        let (g, s) = example();
        let plan = FaultPlan::new()
            .with_dead_pe(3)
            .with_memory_flip(20, 7, 3)
            .with_router_corrupt(60, 11, 0xFF)
            .with_memory_flip(150, 30, 60);
        let run = |packed: bool| {
            parse_maspar_checked(
                &g,
                &s,
                &MasparOptions {
                    machine: small_machine(),
                    faults: Some(plan.clone()),
                    packed,
                    ..Default::default()
                },
            )
            .expect("recoverable plan")
        };
        let p = run(true);
        let o = run(false);
        assert_eq!(p.bits, o.bits);
        assert_eq!(p.alive, o.alive);
        assert_eq!(p.stats, o.stats);
        assert_eq!(p.recovery, o.recovery);
    }

    #[test]
    fn checked_equals_unchecked_without_faults() {
        let (g, s) = example();
        let plain = parse_maspar(&g, &s, &MasparOptions::default());
        let checked = parse_maspar_checked(&g, &s, &MasparOptions::default()).unwrap();
        assert_eq!(plain.bits, checked.bits);
        assert_eq!(plain.alive, checked.alive);
        assert_eq!(
            plain.stats, checked.stats,
            "checked path must cost nothing extra"
        );
        assert!(checked.degraded.is_none());
        assert!(!checked.recovery.intervened());
    }

    #[test]
    fn dead_pes_are_probed_retired_and_recovered_from() {
        let (g, s) = example();
        let clean = parse_maspar(
            &g,
            &s,
            &MasparOptions {
                machine: small_machine(),
                ..Default::default()
            },
        );
        let opts = MasparOptions {
            machine: small_machine(),
            faults: Some(FaultPlan::new().with_dead_pe(3).with_dead_pe(40)),
            ..Default::default()
        };
        let out = parse_maspar_checked(&g, &s, &opts).expect("dead PEs must be recoverable");
        assert_eq!(out.recovery.retired_pes, vec![3, 40]);
        assert!(
            out.recovery.probes >= 2,
            "a clean probe must confirm retirement"
        );
        assert_eq!(
            out.alive, clean.alive,
            "recovered parse must be bit-identical"
        );
        assert_eq!(out.bits, clean.bits);
        assert!(out.roles_nonempty());
    }

    #[test]
    fn transient_corruption_is_detected_and_retried() {
        let (g, s) = example();
        let clean = parse_maspar(
            &g,
            &s,
            &MasparOptions {
                machine: small_machine(),
                ..Default::default()
            },
        );
        // Several transients spread across the run; each fires once, so
        // the double-execution protocol must catch and out-run them all.
        let plan = FaultPlan::new()
            .with_memory_flip(20, 7, 3)
            .with_router_corrupt(60, 11, 0xFF)
            .with_memory_flip(150, 30, 60)
            .with_router_corrupt(300, 5, 1);
        let opts = MasparOptions {
            machine: small_machine(),
            faults: Some(plan),
            ..Default::default()
        };
        let out = parse_maspar_checked(&g, &s, &opts).expect("transients must be recoverable");
        assert_eq!(
            out.alive, clean.alive,
            "recovered parse must be bit-identical"
        );
        assert_eq!(out.bits, clean.bits);
        assert!(out.degraded.is_none());
    }

    #[test]
    fn all_pes_dead_is_a_typed_error() {
        let (g, s) = example();
        let mut plan = FaultPlan::new();
        for pe in 0..4 {
            plan = plan.with_dead_pe(pe);
        }
        let opts = MasparOptions {
            machine: MachineConfig {
                phys_pes: 4,
                ..Default::default()
            },
            faults: Some(plan),
            ..Default::default()
        };
        match parse_maspar_checked(&g, &s, &opts) {
            Err(EngineError::PeFailure { dead, .. }) => assert_eq!(dead, vec![0, 1, 2, 3]),
            other => panic!("expected PeFailure, got {other:?}"),
        }
    }

    #[test]
    fn filter_iteration_budget_degrades_partially() {
        let (g, s) = example();
        let opts = MasparOptions {
            budget: ParseBudget {
                max_filter_iterations: Some(1),
                ..Default::default()
            },
            early_exit: false,
            ..Default::default()
        };
        let out = parse_maspar_checked(&g, &s, &opts).unwrap();
        assert_eq!(out.filter_iterations_run, 1);
        match &out.degraded {
            Some(EngineError::BudgetExceeded { resource, .. }) => {
                assert_eq!(*resource, BudgetResource::FilterIterations)
            }
            other => panic!("expected FilterIterations degradation, got {other:?}"),
        }
        // The partial network is still a usable superset of the settled one.
        assert!(out.roles_nonempty());
    }

    #[test]
    fn wall_time_budget_degrades_deterministically() {
        use std::time::Duration;
        let (g, s) = example();
        let opts = MasparOptions {
            budget: ParseBudget {
                max_wall_time: Some(Duration::from_millis(20)),
                ..Default::default()
            },
            ..Default::default()
        };
        let out = parse_maspar_checked(&g, &s, &opts).unwrap();
        match &out.degraded {
            Some(EngineError::BudgetExceeded { resource, .. }) => {
                assert_eq!(*resource, BudgetResource::WallTime)
            }
            other => panic!("expected WallTime degradation, got {other:?}"),
        }
        // Estimated time is deterministic, so the cut point is too.
        let again = parse_maspar_checked(&g, &s, &opts).unwrap();
        assert_eq!(out.alive, again.alive);
        assert_eq!(out.phases.len(), again.phases.len());
    }

    #[test]
    fn arc_cell_budget_is_a_hard_error_on_this_engine() {
        let (g, s) = example();
        let opts = MasparOptions {
            budget: ParseBudget {
                max_arc_cells: Some(100),
                ..Default::default()
            },
            ..Default::default()
        };
        match parse_maspar_checked(&g, &s, &opts) {
            Err(EngineError::BudgetExceeded { resource, .. }) => {
                assert_eq!(resource, BudgetResource::ArcCells)
            }
            other => panic!("expected ArcCells error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_sentences_get_a_typed_grammar_error() {
        // 40 words → q²n⁴ ≈ 10.2M virtual PEs: the working set cannot fit
        // 16 KB per PE. Previously an allocator panic; now a typed error.
        let g = paper::grammar();
        let s = paper::cost_sweep_sentence(&g, 40);
        match parse_maspar_checked(&g, &s, &MasparOptions::default()) {
            Err(EngineError::GrammarError(msg)) => assert!(msg.contains("virtual PEs")),
            other => panic!("expected GrammarError, got {other:?}"),
        }
    }
}
