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
use cdg_core::error::{BudgetResource, EngineError, ParseBudget};
use cdg_core::network::Network;
use cdg_grammar::expr::{Binding, EvalCtx};
use cdg_grammar::kernel::KernelProgram;
use cdg_grammar::{CompiledGrammar, Constraint, Grammar, Sentence, Value};
use maspar_sim::{FaultPlan, Machine, MachineConfig, MachineStats, Plural, PluralBits, SegmentMap};
use std::borrow::Cow;

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
        }
    }
}

impl MasparOptions {
    /// Thin compatibility constructor from the unified
    /// [`cdg_core::EngineConfig`]: everything the machine reads off the
    /// shared surface (budget, faults, packing), with the
    /// machine shape supplied by the owner of the simulated array.
    pub fn from_engine_config(config: &cdg_core::EngineConfig, machine: MachineConfig) -> Self {
        MasparOptions {
            machine,
            faults: config.faults.clone(),
            budget: config.budget,
            packed: config.packed,
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
    /// rendering machinery applies. Host-side only — the simulated
    /// instruction stream and [`MachineStats`] are untouched.
    ///
    /// Dead role values are removed before the arcs are built, so the
    /// rebuild sets only alive × alive entries; then each PE above the
    /// diagonal zeroes the alive × alive pairs its submatrix lost.
    pub fn to_network<'g>(&self, grammar: &'g Grammar, sentence: &Sentence) -> Network<'g> {
        let lay = &self.layout;
        let mut net = Network::build(grammar, sentence);
        // Core domain index = li·m + m_idx.
        let live: Vec<u64> = (0..lay.groups)
            .map(|g| self.alive[g] & lay.label_mask(lay.slot_of(g) % lay.q))
            .collect();
        for (g, &alive) in live.iter().enumerate() {
            let (slot, m_idx) = (lay.slot_of(g), g % lay.m);
            for li in 0..lay.labels_of_role(slot % lay.q) {
                if alive >> li & 1 == 0 {
                    net.remove_value(slot, li * lay.m + m_idx);
                }
            }
        }
        net.init_arcs();
        // Zero the arc entries the machine zeroed: (column group, row
        // group) pairs with the column's slot first, as the host stores
        // them.
        for (cg, &cols) in live.iter().enumerate() {
            let (si, mi) = (lay.slot_of(cg), cg % lay.m);
            if cols == 0 {
                continue;
            }
            for (rg, &rows) in live.iter().enumerate().skip((si + 1) * lay.m) {
                let (sj, mj) = (lay.slot_of(rg), rg % lay.m);
                let pairs = ones(cols).fold(0u64, |p, li| p | rows << (li * lay.l));
                for bit in ones(pairs & !self.bits[lay.pe(cg, rg)]) {
                    let (li, lj) = (bit / lay.l, bit % lay.l);
                    net.zero_arc_entry(si, li * lay.m + mi, sj, lj * lay.m + mj);
                }
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
    parse_maspar_compiled(grammar, sentence, opts, None)
}

/// [`parse_maspar_checked`] looking constraint programs up in the
/// grammar's compiled artifact when one is attached; without one, each
/// constraint is compiled once per parse. Identical results and charges
/// either way.
pub(crate) fn parse_maspar_compiled(
    grammar: &Grammar,
    sentence: &Sentence,
    opts: &MasparOptions,
    compiled: Option<&CompiledGrammar>,
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
        drive::<PluralBits>(machine, lay, grammar, sentence, compiled, opts, recovery)
    } else {
        drive::<Plural<bool>>(machine, lay, grammar, sentence, compiled, opts, recovery)
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
    compiled: Option<&CompiledGrammar>,
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
    // the same instructions as the original engine. The host lays each
    // expected plural out row by row from per-group tables (`per_pe`).
    let retries = opts.max_recovery_retries.max(1);
    let _init = obsv::span("arc_init");
    let tables = HostTables::new(&lay);
    // Validity mask: everything but the self-arc diagonal (Figure 11's
    // disabled PEs). Computed once from PE ids — design decision 2: no
    // broadcast needed.
    let valid = B::init_exact(
        &mut machine,
        "valid",
        retries,
        &mut recovery,
        &per_pe(&lay, |cg, rg| !tables.diagonal(cg, rg)),
    )?;
    let block_boundary = B::init_exact(
        &mut machine,
        "block-boundary",
        retries,
        &mut recovery,
        &per_pe(&lay, |cg, rg| tables.block_boundary(cg, rg)),
    )?;

    // Design decision 1: arc matrices first, all ones (Figure 9).
    let mut bits: Plural<u64> = init_exact(
        &mut machine,
        "bits",
        retries,
        &mut recovery,
        &per_pe(&lay, |cg, rg| tables.init_bits(cg, rg)),
    )?;
    let mut alive: Plural<u64> = init_exact(
        &mut machine,
        "alive",
        retries,
        &mut recovery,
        &per_pe(&lay, |cg, rg| tables.init_alive(&lay, cg, rg)),
    )?;

    // Router index plurals for the alive-mask gathers (phase D).
    let col_boundary_idx: Plural<usize> = init_exact(
        &mut machine,
        "col-idx",
        retries,
        &mut recovery,
        &per_pe(&lay, |cg, _| cg * lay.groups),
    )?;
    let row_boundary_idx: Plural<usize> = init_exact(
        &mut machine,
        "row-idx",
        retries,
        &mut recovery,
        &per_pe(&lay, |_, rg| rg * lay.groups),
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
        let prog = program(compiled, grammar, c);
        run_phase(
            &mut machine,
            retries,
            &mut recovery,
            &format!("unary:{}", c.name),
            &mut bits,
            &mut alive,
            |m, bits, alive| {
                B::apply_unary(m, &lay, &tables, sentence, c, &prog, &valid, bits, alive);
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
                    &tables,
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
        let prog = program(compiled, grammar, c);
        run_phase(
            &mut machine,
            retries,
            &mut recovery,
            &format!("binary:{}", c.name),
            &mut bits,
            &mut alive,
            |m, bits, _alive| {
                apply_binary(m, &lay, &tables, sentence, &prog, &valid, bits);
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
                    &tables,
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

/// The bytecode of constraint `c`: looked up in the grammar's compiled
/// artifact when one is attached, compiled here otherwise.
fn program<'a>(
    compiled: Option<&'a CompiledGrammar>,
    grammar: &Grammar,
    c: &Constraint,
) -> Cow<'a, KernelProgram> {
    match compiled.and_then(|cg| cg.program_for(grammar, c)) {
        Some(p) => Cow::Borrowed(p),
        None => Cow::Owned(KernelProgram::compile(&c.expr)),
    }
}

/// One host value per virtual PE, in PE order, from the PE's (column
/// group, row group): nested loops over the groups instead of decoding
/// every PE id.
fn per_pe<T>(lay: &Layout, f: impl Fn(usize, usize) -> T) -> Vec<T> {
    let mut out = Vec::with_capacity(lay.virt_pes());
    for cg in 0..lay.groups {
        out.extend((0..lay.groups).map(|rg| f(cg, rg)));
    }
    out
}

/// The set bit positions of `mask`, ascending.
fn ones(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// Per-parse host tables for the kernels and the init plurals. They
/// change how the host computes a broadcast, never what the simulated
/// machine executes.
struct HostTables {
    /// The layout's roles per word, labels per submatrix side and
    /// modifiee choices per role.
    q: usize,
    l: usize,
    m: usize,
    /// The (word, role) slot and the role index of each group.
    slot: Vec<usize>,
    role: Vec<usize>,
    /// The initial off-diagonal submatrix of each (column role, row
    /// role) pair, at `cr · q + rr`.
    submatrix: Vec<u64>,
    /// Constraint binding of role value (group, label index), at
    /// `g · l + li`; `None` for a padded label slot.
    bindings: Vec<Option<Binding>>,
    /// `col_keep[a]`: the submatrix bits of every column label in
    /// label mask `a < 2^l`; `row_keep[a]` likewise for row labels.
    col_keep: Vec<u64>,
    row_keep: Vec<u64>,
}

impl HostTables {
    fn new(lay: &Layout) -> Self {
        let slot: Vec<usize> = (0..lay.groups).map(|g| lay.slot_of(g)).collect();
        let role = slot.iter().map(|s| s % lay.q).collect();
        let q = lay.q;
        let submatrix = (0..q * q)
            .map(|k| lay.init_submatrix(k / q, k % q))
            .collect();
        let bindings = (0..lay.groups * lay.l)
            .map(|k| lay.binding(k / lay.l, k % lay.l))
            .collect();
        let keep = |line: &dyn Fn(usize) -> u64| -> Vec<u64> {
            (0..1u64 << lay.l)
                .map(|a| ones(a).fold(0, |keep, li| keep | line(li)))
                .collect()
        };
        HostTables {
            q,
            l: lay.l,
            m: lay.m,
            slot,
            role,
            submatrix,
            bindings,
            col_keep: keep(&|i| lay.row_mask(i)),
            row_keep: keep(&|j| lay.col_mask(j)),
        }
    }

    fn binding(&self, g: usize, li: usize) -> Option<Binding> {
        self.bindings[g * self.l + li]
    }

    /// Is PE (cg, rg) on the invalid self-arc diagonal (one slot)?
    fn diagonal(&self, cg: usize, rg: usize) -> bool {
        self.slot[cg] == self.slot[rg]
    }

    /// Is PE (cg, rg) the first valid PE of its (column, row slot)
    /// block — where Figure 12's scanOr deposits?
    fn block_boundary(&self, cg: usize, rg: usize) -> bool {
        !self.diagonal(cg, rg) && rg == self.slot[rg] * self.m
    }

    /// The initial submatrix of PE (cg, rg): every valid label pair,
    /// empty on the diagonal.
    fn init_bits(&self, cg: usize, rg: usize) -> u64 {
        if self.diagonal(cg, rg) {
            return 0;
        }
        self.submatrix[self.role[cg] * self.q + self.role[rg]]
    }

    /// The initial alive mask: every valid label, held by each
    /// column's boundary PE (row group 0).
    fn init_alive(&self, lay: &Layout, cg: usize, rg: usize) -> u64 {
        if rg == 0 {
            lay.label_mask(self.role[cg])
        } else {
            0
        }
    }
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
    #[allow(clippy::too_many_arguments)]
    fn apply_unary(
        machine: &mut Machine,
        lay: &Layout,
        tables: &HostTables,
        sentence: &Sentence,
        c: &Constraint,
        prog: &KernelProgram,
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
        _tables: &HostTables,
        sentence: &Sentence,
        c: &Constraint,
        _prog: &KernelProgram,
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
        // Only the column boundary PEs act: a strided broadcast.
        machine.par_map_strided(support, groups, |pe, s| {
            if self.get(pe) {
                *s |= 1u64 << li;
            }
        });
    }

    fn apply_unary(
        machine: &mut Machine,
        lay: &Layout,
        tables: &HostTables,
        sentence: &Sentence,
        _c: &Constraint,
        prog: &KernelProgram,
        valid: &Self,
        bits: &mut Plural<u64>,
        alive: &mut Plural<u64>,
    ) {
        // The unary test depends only on (group, label), so the ACU can
        // evaluate it once per group on the host and broadcast keep masks
        // — the PEs apply two ANDs instead of re-evaluating the constraint
        // l times each. Same three broadcasts, bit-identical results.
        let mut stack = Vec::new();
        let mut violates = |b: Binding| {
            !prog
                .eval_with(&EvalCtx::unary(sentence, b), &mut stack)
                .truth()
                .not_false()
        };
        let viol: Vec<u64> = (0..lay.groups)
            .map(|g| {
                (0..lay.l)
                    .filter(|&li| tables.binding(g, li).is_some_and(&mut violates))
                    .fold(0, |v, li| v | 1u64 << li)
            })
            .collect();
        let keep_cols: Vec<u64> = viol.iter().map(|&v| !tables.col_keep[v as usize]).collect();
        let keep_rows: Vec<u64> = viol.iter().map(|&v| !tables.row_keep[v as usize]).collect();
        machine.with_activity_bits(valid, |m| {
            m.par_map_grid(
                bits,
                lay.groups,
                || (),
                |_, cg, rg, b| *b &= keep_cols[cg] & keep_rows[rg],
            );
        });
        machine.par_map_strided(alive, lay.groups, |pe, a| {
            *a &= !viol[pe / lay.groups];
        });
    }
}

/// One binary constraint: every PE checks the set pairs of its l×l
/// submatrix, in both orderings, by running the constraint's bytecode.
fn apply_binary<B: BoolRepr>(
    machine: &mut Machine,
    lay: &Layout,
    tables: &HostTables,
    sentence: &Sentence,
    prog: &KernelProgram,
    valid: &B,
    bits: &mut Plural<u64>,
) {
    let l = lay.l;
    let labels = (1u64 << l) - 1;
    let holds = |x: Binding, y: Binding, stack: &mut Vec<Value>| {
        prog.eval_with(&EvalCtx::binary(sentence, x, y), stack)
            .truth()
            .not_false()
    };
    valid.with_activity(machine, |m| {
        m.par_map_grid(bits, lay.groups, Vec::new, |stack, cg, rg, b| {
            // Visit only the submatrix rows that still hold a pair.
            let mut rest = *b;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize / l;
                let row = rest >> (i * l) & labels;
                rest &= !(labels << (i * l));
                let Some(x) = tables.binding(cg, i) else {
                    continue;
                };
                for j in ones(row) {
                    let Some(y) = tables.binding(rg, j) else {
                        continue;
                    };
                    if !(holds(x, y, stack) && holds(y, x, stack)) {
                        *b &= !(1u64 << (i * l + j));
                    }
                }
            }
        });
    });
}

/// Zero every submatrix column/row belonging to a dead role value: two
/// router gathers fetch the column's and row's alive masks from the
/// boundary PEs, then one broadcast instruction applies each as a keep
/// mask looked up by alive-label mask.
#[allow(clippy::too_many_arguments)]
fn mask_dead<B: BoolRepr>(
    machine: &mut Machine,
    lay: &Layout,
    tables: &HostTables,
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
    let labels = (1u64 << lay.l) - 1;
    valid.with_activity(machine, |m| {
        m.par_zip(bits, &col_alive, |_, b, &ca| {
            *b &= tables.col_keep[(ca & labels) as usize];
        });
        m.par_zip(bits, &row_alive, |_, b, &ra| {
            *b &= tables.row_keep[(ra & labels) as usize];
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
    tables: &HostTables,
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
    // ACU how much this iteration removed (0 = fixpoint reached). Only the
    // column boundary PEs act, so both updates are strided broadcasts.
    let mut lost = machine.alloc(0u64);
    let (a, s) = (alive.as_slice(), support.as_slice());
    machine.par_map_strided(&mut lost, lay.groups, |pe, out| {
        *out = (a[pe] & !s[pe]).count_ones() as u64;
    });
    let removed = machine.reduce_sum(&lost);
    machine.free(lost);
    machine.par_map_strided(alive, lay.groups, |pe, a| *a &= s[pe]);
    machine.free(support);

    if removed > 0 {
        mask_dead(machine, lay, tables, valid, bits, alive, col_idx, row_idx);
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
    fn init_tables_match_the_per_pe_layout_oracles() {
        let eg = cdg_grammar::grammars::english::grammar();
        let lex = cdg_grammar::grammars::english::lexicon(&eg);
        let es = lex.sentence("the dog sees a cat").unwrap();
        let (pg, ps) = example();
        for (g, s) in [(&pg, &ps), (&eg, &es)] {
            let lay = Layout::new(g, s);
            let t = HostTables::new(&lay);
            let oracle = |f: &dyn Fn(usize) -> u64| (0..lay.virt_pes()).map(f).collect::<Vec<_>>();
            let diag = |pe| u64::from(lay.is_diagonal(pe));
            let head = |pe| u64::from(!lay.is_diagonal(pe) && pe % lay.m == 0);
            assert_eq!(
                per_pe(&lay, |c, r| u64::from(t.diagonal(c, r))),
                oracle(&diag)
            );
            assert_eq!(
                per_pe(&lay, |c, r| u64::from(t.block_boundary(c, r))),
                oracle(&head)
            );
            assert_eq!(
                per_pe(&lay, |c, r| t.init_bits(c, r)),
                oracle(&|pe| lay.init_bits(pe))
            );
            assert_eq!(
                per_pe(&lay, |c, r| t.init_alive(&lay, c, r)),
                oracle(&|pe| lay.init_alive(pe))
            );
        }
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
