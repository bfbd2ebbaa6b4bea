//! The Machine: PE array, ACU activity control, plural operations, scans,
//! and the global router.

use crate::bits::{self, PluralBits};
use crate::fault::{FaultPlan, FaultWord};
use crate::plural::Plural;
use crate::scan::SegmentMap;
use crate::stats::{CostModel, MachineStats};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Static machine parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Physical PEs (the full MP-1: 16,384).
    pub phys_pes: usize,
    /// PE-local memory, bytes (MP-1: 16 KB).
    pub pe_memory_bytes: usize,
    /// Cost weights for the time estimate.
    pub cost: CostModel,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            phys_pes: 16_384,
            pe_memory_bytes: 16 * 1024,
            cost: CostModel::default(),
        }
    }
}

/// The simulated machine, sized for one program's virtual PE count.
///
/// When a program needs more virtual PEs than the machine has physical
/// ones, every broadcast instruction is executed ⌈virt/phys⌉ times — the
/// paper's processor virtualization (design decision 6), and the origin of
/// the 0.15 s → 0.45 s staircase in its time trials.
///
/// # Fault injection
///
/// Arming a [`FaultPlan`] (see [`Machine::arm_faults`]) switches the
/// machine onto a fault-checked execution path:
///
/// * every broadcast instruction advances a global instruction counter
///   ([`Machine::op_count`]) that transient faults are keyed to;
/// * virtual PEs are explicitly mapped onto physical PEs
///   (`phys = healthy[virt mod healthy.len()]`); a virtual PE whose
///   physical home is dead silently skips broadcast instructions — its
///   local memory goes stale, exactly the failure the paper's machine
///   could suffer;
/// * router/X-Net/scan payloads and freshly written memory words can be
///   corrupted per the plan; out-of-range router targets (possible once
///   an index plural has been corrupted) are *dropped and counted*
///   instead of killing the program;
/// * [`Machine::probe_pes`] is the PE self-test programs use to detect
///   dead PEs, and [`Machine::retire_pes`] remaps virtual PEs onto the
///   remaining healthy physical PEs.
///
/// Without an armed plan none of this costs anything and the instruction
/// counts are bit-identical to the pre-fault-injection simulator.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    n_virt: usize,
    virt_factor: u64,
    /// Activity flags per virtual PE, packed 64 to a word (bit `pe % 64`
    /// of word `pe / 64`); the stack implements MPL's plural if. Packed
    /// because the word-parallel kernels below mask activity with single
    /// bitwise ops; scalar per-PE operations test individual bits.
    enabled: Vec<u64>,
    activity_stack: Vec<Vec<u64>>,
    /// Simulated PE-local memory in use (bytes per physical PE).
    pe_memory_used: usize,
    /// Optional instruction trace (the paper singles out the MP-1's
    /// "extensive debugging support"; this is ours).
    trace: Option<Vec<TraceEntry>>,
    /// Armed fault schedule (`None` = fault-free fast path).
    faults: Option<FaultPlan>,
    /// Global broadcast-instruction counter; transient faults key on it.
    op_count: u64,
    /// Physical PEs the program has retired (detected dead and remapped
    /// away from). Only populated while faults are armed.
    retired: Vec<bool>,
    /// Healthy (non-retired) physical PEs, ascending; the virtual→physical
    /// map is `healthy[virt mod healthy.len()]`. Empty when unarmed.
    healthy: Vec<usize>,
    /// Cached per-virtual-PE deadness under the current mapping, packed
    /// like `enabled`. Empty when unarmed (so the fault-free path never
    /// consults it).
    virt_dead: Vec<u64>,
    pub stats: MachineStats,
}

/// One traced machine operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Operation kind: `plural`, `scan_or`, `scan_and`, `scan_add`,
    /// `reduce`, `gather`, `scatter`, `xnet`, `activity`.
    pub op: &'static str,
    /// PEs active when the operation was broadcast.
    pub active: usize,
}

impl Machine {
    /// A machine executing a program of `n_virt` virtual PEs.
    ///
    /// ```
    /// use maspar_sim::{Machine, SegmentMap};
    ///
    /// // 8 virtual PEs; each computes its id, then a segmented scanOr
    /// // reduces each half to its boundary PE.
    /// let mut m = Machine::mp1(8);
    /// let flags = m.par_init(false, |pe| pe == 6);
    /// let segs = SegmentMap::uniform(8, 4);
    /// let reduced = m.scan_or(&flags, &segs);
    /// assert!(!reduced.get(0));     // first half: no flag
    /// assert!(*reduced.get(4));     // second half: PE 6 flagged
    /// assert_eq!(m.stats.scan_calls, 1);
    /// ```
    pub fn new(config: MachineConfig, n_virt: usize) -> Self {
        assert!(n_virt > 0, "a program needs at least one virtual PE");
        assert!(config.phys_pes > 0);
        let virt_factor = n_virt.div_ceil(config.phys_pes) as u64;
        let mut enabled = vec![!0u64; bits::word_count(n_virt)];
        if let Some(last) = enabled.last_mut() {
            *last &= bits::tail_mask(n_virt);
        }
        Machine {
            config,
            n_virt,
            virt_factor,
            enabled,
            activity_stack: Vec::new(),
            pe_memory_used: 0,
            trace: None,
            faults: None,
            op_count: 0,
            retired: Vec::new(),
            healthy: Vec::new(),
            virt_dead: Vec::new(),
            stats: MachineStats::default(),
        }
    }

    /// Full-size MP-1 with default cost model.
    pub fn mp1(n_virt: usize) -> Self {
        Machine::new(MachineConfig::default(), n_virt)
    }

    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    pub fn n_virt(&self) -> usize {
        self.n_virt
    }

    /// ⌈virtual PEs / physical PEs⌉ — the paper's virtualization multiplier.
    pub fn virt_factor(&self) -> u64 {
        self.virt_factor
    }

    /// PEs currently executing broadcast instructions.
    pub fn active_count(&self) -> usize {
        self.enabled.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_enabled(&self, pe: usize) -> bool {
        self.enabled[pe / 64] >> (pe % 64) & 1 == 1
    }

    /// Estimated MP-1 seconds for everything executed so far.
    pub fn estimated_seconds(&self) -> f64 {
        self.stats.estimated_seconds(&self.config.cost)
    }

    /// Turn on instruction tracing; each subsequent operation records its
    /// kind and the active PE count.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The trace so far (empty when tracing is off).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    fn record(&mut self, op: &'static str) {
        if self.trace.is_some() {
            let active = self.active_count();
            if let Some(trace) = &mut self.trace {
                trace.push(TraceEntry { op, active });
            }
        }
    }

    /// Permanently disable specific PEs (used for layout diagonals and for
    /// failure-injection tests). Applies to the *current* activity frame
    /// and, by construction, everything nested within it.
    pub fn disable_pes(&mut self, pes: &[usize]) {
        for &pe in pes {
            self.enabled[pe / 64] &= !(1u64 << (pe % 64));
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Arm a fault schedule. From here on, broadcast instructions consult
    /// the plan: dead physical PEs freeze their virtual PEs' memory, and
    /// transient faults fire at their scheduled instruction counts.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.retired = vec![false; self.config.phys_pes];
        self.healthy = (0..self.config.phys_pes).collect();
        self.faults = Some(plan);
        self.recompute_virt_dead();
    }

    /// Is a fault plan armed (even an empty one)?
    pub fn faults_armed(&self) -> bool {
        self.faults.is_some()
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Broadcast instructions executed so far (plural ops, activity
    /// narrowings, scans, router and X-Net operations all count).
    pub fn op_count(&self) -> u64 {
        self.op_count
    }

    /// The physical PE hosting virtual PE `virt` (first virtualization
    /// layer) under the current mapping.
    pub fn phys_of(&self, virt: usize) -> usize {
        if self.healthy.is_empty() {
            virt % self.config.phys_pes
        } else {
            self.healthy[virt % self.healthy.len()]
        }
    }

    /// Physical PEs not yet retired.
    pub fn healthy_count(&self) -> usize {
        if self.healthy.is_empty() {
            self.config.phys_pes
        } else {
            self.healthy.len()
        }
    }

    fn recompute_virt_dead(&mut self) {
        match &self.faults {
            Some(plan) => {
                let mut dead = vec![0u64; bits::word_count(self.n_virt)];
                for v in 0..self.n_virt {
                    let phys = self.healthy[v % self.healthy.len()];
                    if plan.is_dead(phys) {
                        dead[v / 64] |= 1u64 << (v % 64);
                    }
                }
                self.virt_dead = dead;
            }
            None => self.virt_dead.clear(),
        }
    }

    /// Retire physical PEs (detected dead): remap every virtual PE onto
    /// the remaining healthy physical array. Returns the new healthy
    /// count; returns 0 — and changes nothing — if retiring would leave no
    /// healthy PE. The remap itself is charged as one routed copy.
    pub fn retire_pes(&mut self, pes: &[usize]) -> usize {
        assert!(
            self.faults.is_some(),
            "retire_pes requires an armed fault plan"
        );
        let mut retired = self.retired.clone();
        for &p in pes {
            if p < retired.len() {
                retired[p] = true;
            }
        }
        let healthy: Vec<usize> = (0..self.config.phys_pes).filter(|&p| !retired[p]).collect();
        if healthy.is_empty() {
            return 0;
        }
        self.retired = retired;
        self.healthy = healthy;
        // Moving each virtual PE's state to its new physical home costs
        // one routed permutation.
        self.charge_router();
        self.recompute_virt_dead();
        self.healthy.len()
    }

    /// PE self-test: every active PE writes a nonce-derived pattern into a
    /// scratch word; the host reads the array back and reports, by
    /// *physical* id, every PE whose write did not land. One broadcast
    /// instruction. Use a fresh `nonce` per probe so a PE that died between
    /// probes cannot alias a stale pattern. Detects persistent (dead-PE)
    /// faults, which time redundancy cannot; a transient fault striking
    /// the probe itself at worst yields a false positive, and retiring a
    /// healthy PE is conservative, never incorrect.
    pub fn probe_pes(&mut self, nonce: u64) -> Vec<usize> {
        let expected =
            move |pe: usize| (nonce ^ (pe as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
        let mut scratch = self.alloc(0u64);
        self.par_map(&mut scratch, move |pe, w| *w = expected(pe));
        let values = scratch.as_slice().to_vec();
        self.free(scratch);
        let mut dead = std::collections::BTreeSet::new();
        for (pe, &v) in values.iter().enumerate() {
            if self.is_enabled(pe) && v != expected(pe) {
                dead.insert(self.phys_of(pe));
            }
        }
        dead.into_iter().collect()
    }

    /// Does virtual PE `pe` execute broadcast instructions right now
    /// (active *and* physically alive)?
    pub(crate) fn is_live(&self, pe: usize) -> bool {
        bits::live_at(&self.enabled, &self.virt_dead, pe)
    }

    /// Is virtual PE `pe` hosted on a dead physical PE (false when no
    /// plan is armed)?
    fn virt_is_dead(&self, pe: usize) -> bool {
        !self.virt_dead.is_empty() && self.virt_dead[pe / 64] >> (pe % 64) & 1 == 1
    }

    /// Live-PE mask for packed word `w`: enabled minus dead.
    #[inline]
    fn live_word(&self, w: usize) -> u64 {
        let e = self.enabled[w];
        if self.virt_dead.is_empty() {
            e
        } else {
            e & !self.virt_dead[w]
        }
    }

    /// Count the enabled-but-dead slots one data-carrying broadcast
    /// instruction skipped (no-op on the fault-free path).
    pub(crate) fn count_dead_skips(&mut self) {
        if self.virt_dead.is_empty() {
            return;
        }
        let skips: u64 = self
            .enabled
            .iter()
            .zip(&self.virt_dead)
            .map(|(&e, &d)| (e & d).count_ones() as u64)
            .sum();
        self.stats.dead_pe_skips += skips;
    }

    /// Apply the memory flips scheduled for instruction `op` to the plural
    /// the instruction just wrote.
    fn apply_memory_flips<T: FaultWord>(&mut self, op: u64, data: &mut [T]) {
        let hits: Vec<(usize, u32)> = match &self.faults {
            Some(plan) => plan
                .memory_faults_at(op)
                .filter(|&(phys, _)| !plan.is_dead(phys)) // dead memory is inert
                .collect(),
            None => return,
        };
        for (phys, bit) in hits {
            if let Some(v) = self.lowest_virt_on(phys) {
                if v < data.len() {
                    data[v] = data[v].fault_flip(bit);
                    self.stats.memory_flips += 1;
                }
            }
        }
    }

    /// Apply the router-payload corruptions scheduled for instruction `op`
    /// to a communication result.
    pub(crate) fn apply_router_corruption<T: FaultWord>(&mut self, op: u64, data: &mut [T]) {
        let hits: Vec<(usize, u64)> = match &self.faults {
            Some(plan) => plan
                .router_faults_at(op)
                .filter(|&(phys, _)| !plan.is_dead(phys))
                .collect(),
            None => return,
        };
        for (phys, mask) in hits {
            if let Some(v) = self.lowest_virt_on(phys) {
                if v < data.len() {
                    data[v] = data[v].fault_xor(mask);
                    self.stats.router_corruptions += 1;
                }
            }
        }
    }

    /// [`Machine::apply_memory_flips`] for a packed boolean plural: the
    /// flip lands on the same virtual PE's 1-bit word, and a 1-bit word
    /// always flips (`bool::fault_flip` reduces the bit index modulo 1).
    fn apply_memory_flips_bits(&mut self, op: u64, data: &mut PluralBits) {
        let hits: Vec<(usize, u32)> = match &self.faults {
            Some(plan) => plan
                .memory_faults_at(op)
                .filter(|&(phys, _)| !plan.is_dead(phys))
                .collect(),
            None => return,
        };
        for (phys, _bit) in hits {
            if let Some(v) = self.lowest_virt_on(phys) {
                if v < data.len() {
                    data.flip(v);
                    self.stats.memory_flips += 1;
                }
            }
        }
    }

    /// [`Machine::apply_router_corruption`] for a packed boolean plural.
    /// `bool::fault_xor` flips iff the mask is odd, but the event is
    /// counted either way — mirrored exactly so packed and unpacked runs
    /// report identical fault statistics.
    pub(crate) fn apply_router_corruption_bits(&mut self, op: u64, data: &mut PluralBits) {
        let hits: Vec<(usize, u64)> = match &self.faults {
            Some(plan) => plan
                .router_faults_at(op)
                .filter(|&(phys, _)| !plan.is_dead(phys))
                .collect(),
            None => return,
        };
        for (phys, mask) in hits {
            if let Some(v) = self.lowest_virt_on(phys) {
                if v < data.len() {
                    if mask & 1 == 1 {
                        data.flip(v);
                    }
                    self.stats.router_corruptions += 1;
                }
            }
        }
    }

    /// Corrupt a scalar reduction result if a router fault fires on this
    /// instruction (the reduction's single payload travels to the ACU).
    fn corrupt_reduction<T: FaultWord>(&mut self, op: u64, value: T) -> T {
        let masks: Vec<u64> = match &self.faults {
            Some(plan) => plan.router_faults_at(op).map(|(_, mask)| mask).collect(),
            None => return value,
        };
        let mut value = value;
        for mask in masks {
            value = value.fault_xor(mask);
            self.stats.router_corruptions += 1;
        }
        value
    }

    /// The lowest virtual PE currently mapped onto physical PE `phys`.
    fn lowest_virt_on(&self, phys: usize) -> Option<usize> {
        let idx = if self.healthy.is_empty() {
            if phys < self.config.phys_pes {
                phys
            } else {
                return None;
            }
        } else {
            self.healthy.iter().position(|&h| h == phys)?
        };
        (idx < self.n_virt).then_some(idx)
    }

    // ------------------------------------------------------------------
    // Memory
    // ------------------------------------------------------------------

    /// Charge an allocation of `bytes_per_elem` simulated bytes per
    /// virtual PE against the 16 KB-per-PE budget (each physical PE holds
    /// `virt_factor` layers). Shared by [`Machine::alloc`] and
    /// [`Machine::alloc_bits`] so both representations are charged — and
    /// fail — identically: the simulated footprint is a property of the
    /// program, not of the host representation.
    fn charge_alloc(&mut self, bytes_per_elem: usize) {
        let per_phys = bytes_per_elem * self.virt_factor as usize;
        self.pe_memory_used += per_phys;
        assert!(
            self.pe_memory_used <= self.config.pe_memory_bytes,
            "PE-local memory exhausted: {} of {} bytes (the MP-1 had 16 KB per PE)",
            self.pe_memory_used,
            self.config.pe_memory_bytes
        );
        self.stats.peak_pe_memory_bytes = self.stats.peak_pe_memory_bytes.max(self.pe_memory_used);
    }

    fn release_alloc(&mut self, bytes_per_elem: usize) {
        let per_phys = bytes_per_elem * self.virt_factor as usize;
        self.pe_memory_used = self.pe_memory_used.saturating_sub(per_phys);
    }

    /// Allocate a plural value, one `T` per virtual PE, charged against the
    /// 16 KB-per-PE budget (each physical PE holds `virt_factor` layers).
    pub fn alloc<T: Clone + Send + Sync>(&mut self, init: T) -> Plural<T> {
        self.charge_alloc(std::mem::size_of::<T>());
        Plural::from_vec(vec![init; self.n_virt])
    }

    /// Release a plural's memory (host keeps the data; the budget shrinks).
    pub fn free<T>(&mut self, plural: Plural<T>) {
        self.release_alloc(std::mem::size_of::<T>());
        drop(plural);
    }

    /// Allocate a packed boolean plural, charged exactly like
    /// `alloc::<bool>` — one simulated byte per PE — so packed and
    /// unpacked programs hit the 16 KB budget at the same instruction.
    pub fn alloc_bits(&mut self, init: bool) -> PluralBits {
        self.charge_alloc(std::mem::size_of::<bool>());
        PluralBits::filled(self.n_virt, init)
    }

    /// Release a packed boolean plural's memory.
    pub fn free_bits(&mut self, plural: PluralBits) {
        self.release_alloc(std::mem::size_of::<bool>());
        drop(plural);
    }

    // ------------------------------------------------------------------
    // Broadcast plural instructions
    // ------------------------------------------------------------------

    fn charge_plural_op(&mut self) -> u64 {
        self.record("plural");
        self.stats.plural_ops += 1;
        self.stats.plural_slices += self.virt_factor;
        self.op_count += 1;
        self.op_count
    }

    /// One broadcast instruction: every active PE updates its slot of `p`
    /// from its PE id. Runs data-parallel on the host.
    pub fn par_map<T: Send + FaultWord>(
        &mut self,
        p: &mut Plural<T>,
        f: impl Fn(usize, &mut T) + Sync,
    ) {
        assert_eq!(p.len(), self.n_virt, "plural size mismatch");
        let op = self.charge_plural_op();
        self.count_dead_skips();
        let enabled: &[u64] = &self.enabled;
        let dead: &[u64] = &self.virt_dead;
        p.as_mut_slice()
            .par_iter_mut()
            .enumerate()
            .for_each(|(pe, slot)| {
                if bits::live_at(enabled, dead, pe) {
                    f(pe, slot);
                }
            });
        self.apply_memory_flips(op, p.as_mut_slice());
    }

    /// One broadcast instruction reading a second plural: `dst[pe] =
    /// f(pe, dst[pe], src[pe])` on active PEs.
    pub fn par_zip<T: Send + FaultWord, U: Sync>(
        &mut self,
        dst: &mut Plural<T>,
        src: &Plural<U>,
        f: impl Fn(usize, &mut T, &U) + Sync,
    ) {
        assert_eq!(dst.len(), self.n_virt, "plural size mismatch");
        assert_eq!(src.len(), self.n_virt, "plural size mismatch");
        let op = self.charge_plural_op();
        self.count_dead_skips();
        let enabled: &[u64] = &self.enabled;
        let dead: &[u64] = &self.virt_dead;
        let src = src.as_slice();
        dst.as_mut_slice()
            .par_iter_mut()
            .enumerate()
            .for_each(|(pe, slot)| {
                if bits::live_at(enabled, dead, pe) {
                    f(pe, slot, &src[pe]);
                }
            });
        self.apply_memory_flips(op, dst.as_mut_slice());
    }

    /// One broadcast instruction that only every `stride`-th PE acts on
    /// (PEs `0, stride, 2·stride, …`, the boundary PEs of `stride`-long
    /// segments): each live one runs `f(pe, slot)`, and every other PE
    /// executes the instruction as a no-op.
    ///
    /// The simulated machine cannot tell this apart from the predicated
    /// `par_map(p, |pe, v| if pe % stride == 0 { f(pe, v) })` it stands
    /// for: the same plural op and slices are charged, the same dead-PE
    /// skips counted and the same memory flips applied. Only the host
    /// does less, visiting `n / stride` PEs without a division each.
    pub fn par_map_strided<T: FaultWord>(
        &mut self,
        p: &mut Plural<T>,
        stride: usize,
        mut f: impl FnMut(usize, &mut T),
    ) {
        assert_eq!(p.len(), self.n_virt, "plural size mismatch");
        assert!(stride > 0, "a stride must be positive");
        let op = self.charge_plural_op();
        self.count_dead_skips();
        let slots = p.as_mut_slice();
        for pe in (0..slots.len()).step_by(stride) {
            if bits::live_at(&self.enabled, &self.virt_dead, pe) {
                f(pe, &mut slots[pe]);
            }
        }
        self.apply_memory_flips(op, p.as_mut_slice());
    }

    /// One broadcast instruction over a plural laid out as a row-major
    /// grid `width` PEs wide (PE = `row · width + col`): every live PE
    /// runs `f(state, row, col, slot)`. The host splits the rows across
    /// rayon workers; `init` builds each chunk's scratch `state`.
    ///
    /// Charged exactly like the [`Machine::par_map`] it stands for; it
    /// exists so that kernels computing from a PE's (row, column) get the
    /// coordinates without dividing every PE id.
    pub fn par_map_grid<T: Send + FaultWord, S>(
        &mut self,
        p: &mut Plural<T>,
        width: usize,
        init: impl Fn() -> S + Send + Sync,
        f: impl Fn(&mut S, usize, usize, &mut T) + Send + Sync,
    ) {
        assert_eq!(p.len(), self.n_virt, "plural size mismatch");
        assert!(
            width > 0 && p.len() % width == 0,
            "grid width {width} does not tile {} PEs",
            p.len()
        );
        let op = self.charge_plural_op();
        self.count_dead_skips();
        let enabled: &[u64] = &self.enabled;
        let dead: &[u64] = &self.virt_dead;
        let rows: Vec<&mut [T]> = p.as_mut_slice().chunks_mut(width).collect();
        rows.into_par_iter()
            .enumerate()
            .map_init(init, |state, (row, slots)| {
                let base = row * width;
                for (col, slot) in slots.iter_mut().enumerate() {
                    if bits::live_at(enabled, dead, base + col) {
                        f(state, row, col, slot);
                    }
                }
            })
            .for_each(|()| {});
        self.apply_memory_flips(op, p.as_mut_slice());
    }

    /// Build a fresh plural from PE ids in one instruction (active PEs run
    /// `f`; inactive PEs hold `fill`).
    pub fn par_init<T: Clone + Send + Sync + FaultWord>(
        &mut self,
        fill: T,
        f: impl Fn(usize) -> T + Sync,
    ) -> Plural<T> {
        let mut p = self.alloc(fill);
        self.par_map(&mut p, |pe, slot| *slot = f(pe));
        p
    }

    // ------------------------------------------------------------------
    // Activity control (MPL plural if)
    // ------------------------------------------------------------------

    /// Run `body` with activity narrowed to PEs where `mask` holds (and
    /// that were already active). Restores the previous activity set after.
    pub fn with_activity<R>(
        &mut self,
        mask: &Plural<bool>,
        body: impl FnOnce(&mut Machine) -> R,
    ) -> R {
        assert_eq!(mask.len(), self.n_virt, "mask size mismatch");
        let saved = self.enabled.clone();
        self.activity_stack.push(saved);
        let mask = mask.as_slice();
        for (w, e) in self.enabled.iter_mut().enumerate() {
            let base = w * 64;
            let mut mw = 0u64;
            for (i, &b) in mask[base..(base + 64).min(mask.len())].iter().enumerate() {
                if b {
                    mw |= 1u64 << i;
                }
            }
            *e &= mw;
        }
        // Narrowing activity is itself one broadcast test.
        self.charge_plural_op();
        let result = body(self);
        self.enabled = self.activity_stack.pop().expect("activity stack underflow");
        result
    }

    /// [`Machine::with_activity`] for a packed mask: the narrowing is one
    /// bitwise AND per 64 PEs.
    pub fn with_activity_bits<R>(
        &mut self,
        mask: &PluralBits,
        body: impl FnOnce(&mut Machine) -> R,
    ) -> R {
        assert_eq!(mask.len(), self.n_virt, "mask size mismatch");
        let saved = self.enabled.clone();
        self.activity_stack.push(saved);
        for (w, e) in self.enabled.iter_mut().enumerate() {
            *e &= mask.words()[w];
        }
        self.charge_plural_op();
        let result = body(self);
        self.enabled = self.activity_stack.pop().expect("activity stack underflow");
        result
    }

    // ------------------------------------------------------------------
    // Reductions and scans
    // ------------------------------------------------------------------

    fn charge_scan(&mut self) -> u64 {
        self.record("scan");
        self.stats.scan_calls += 1;
        // ⌈log₂ (PEs in use)⌉ router passes — the paper's logarithmic
        // primitive — plus one local pass per extra virtualization layer
        // once the program outgrows the physical array.
        let in_use = self.n_virt.min(self.config.phys_pes).max(2);
        let log = (in_use as f64).log2().ceil() as u64;
        self.stats.scan_passes += log + (self.virt_factor - 1);
        self.op_count += 1;
        self.op_count
    }

    /// Global OR over active PEs (the MP-1's `globalor`).
    pub fn reduce_or(&mut self, p: &Plural<bool>) -> bool {
        assert_eq!(p.len(), self.n_virt);
        let op = self.charge_scan();
        self.count_dead_skips();
        let result = p
            .as_slice()
            .par_iter()
            .enumerate()
            .any(|(pe, &v)| self.is_live(pe) && v);
        self.corrupt_reduction(op, result)
    }

    /// Global AND over active PEs (identity `true` when none active).
    pub fn reduce_and(&mut self, p: &Plural<bool>) -> bool {
        assert_eq!(p.len(), self.n_virt);
        let op = self.charge_scan();
        self.count_dead_skips();
        let result = p
            .as_slice()
            .par_iter()
            .enumerate()
            .all(|(pe, &v)| !self.is_live(pe) || v);
        self.corrupt_reduction(op, result)
    }

    /// Global sum of a u64 plural over active PEs.
    pub fn reduce_sum(&mut self, p: &Plural<u64>) -> u64 {
        assert_eq!(p.len(), self.n_virt);
        let op = self.charge_scan();
        self.count_dead_skips();
        let result = p
            .as_slice()
            .par_iter()
            .enumerate()
            .map(|(pe, &v)| if self.is_live(pe) { v } else { 0 })
            .sum();
        self.corrupt_reduction(op, result)
    }

    /// Segmented `scanOr`: OR of each segment's *active* PEs, deposited at
    /// the segment's boundary (first) PE; all other slots of the result are
    /// `false`. Inactive PEs contribute the identity, matching the MP-1's
    /// behaviour of skipping disabled PEs in a scan.
    pub fn scan_or(&mut self, p: &Plural<bool>, segs: &SegmentMap) -> Plural<bool> {
        self.seg_reduce(p, segs, false, |a, b| a || b)
    }

    /// Segmented `scanAnd`: AND of each segment's active PEs at the
    /// boundary PE (identity `true` for empty/inactive segments).
    pub fn scan_and(&mut self, p: &Plural<bool>, segs: &SegmentMap) -> Plural<bool> {
        self.seg_reduce(p, segs, true, |a, b| a && b)
    }

    /// Segmented `scanAdd` as an *inclusive prefix sum*: each active PE
    /// receives the sum of active values from its segment's start through
    /// itself (inactive PEs keep 0 and contribute 0). The MP-1 exposed
    /// exactly this family of prefix primitives; PARSEC itself only needs
    /// the reductions, but enumeration-style kernels (e.g. compacting the
    /// surviving role values) are built on scanAdd.
    pub fn scan_add(&mut self, p: &Plural<u64>, segs: &SegmentMap) -> Plural<u64> {
        assert_eq!(p.len(), self.n_virt, "plural size mismatch");
        assert_eq!(segs.len(), self.n_virt, "segment map size mismatch");
        let op = self.charge_scan();
        self.count_dead_skips();
        let mut out = self.alloc(0u64);
        let src = p.as_slice();
        let results: Vec<(usize, Vec<u64>)> = (0..segs.num_segments())
            .into_par_iter()
            .map(|s| {
                let range = segs.range_of(s);
                let mut acc = 0u64;
                let prefix: Vec<u64> = range
                    .clone()
                    .map(|pe| {
                        if self.is_live(pe) {
                            acc += src[pe];
                        }
                        acc
                    })
                    .collect();
                (range.start, prefix)
            })
            .collect();
        let slice = out.as_mut_slice();
        for (start, prefix) in results {
            for (offset, v) in prefix.into_iter().enumerate() {
                if self.is_live(start + offset) {
                    slice[start + offset] = v;
                }
            }
        }
        self.apply_router_corruption(op, out.as_mut_slice());
        out
    }

    fn seg_reduce(
        &mut self,
        p: &Plural<bool>,
        segs: &SegmentMap,
        identity: bool,
        op: impl Fn(bool, bool) -> bool + Sync,
    ) -> Plural<bool> {
        assert_eq!(p.len(), self.n_virt, "plural size mismatch");
        assert_eq!(segs.len(), self.n_virt, "segment map size mismatch");
        let op_id = self.charge_scan();
        self.count_dead_skips();
        let mut out = self.alloc(identity);
        let src = p.as_slice();
        let results: Vec<(usize, bool)> = (0..segs.num_segments())
            .into_par_iter()
            .map(|s| {
                let mut acc = identity;
                for pe in segs.range_of(s) {
                    if self.is_live(pe) {
                        acc = op(acc, src[pe]);
                    }
                }
                (segs.start_of(s), acc)
            })
            .collect();
        let mut dead_boundaries = 0u64;
        for (boundary, value) in results {
            // A dead boundary PE cannot receive the deposit: its slot
            // keeps the identity and the loss is counted.
            if self.virt_is_dead(boundary) {
                dead_boundaries += 1;
            } else {
                out.as_mut_slice()[boundary] = value;
            }
        }
        self.stats.dead_pe_skips += dead_boundaries;
        self.apply_router_corruption(op_id, out.as_mut_slice());
        out
    }

    /// `selectFirst`: the lowest-numbered *active* PE whose flag is set
    /// (MPL's enumeration primitive — the ACU uses it to pick a
    /// representative PE). Costs one scan.
    pub fn select_first(&mut self, p: &Plural<bool>) -> Option<usize> {
        assert_eq!(p.len(), self.n_virt, "plural size mismatch");
        self.charge_scan();
        self.count_dead_skips();
        // Explicit early-exit loop: return at the first live hit, testing
        // the cheap flag before the liveness bits. The packed variant
        // ([`Machine::select_first_bits`]) goes further and skips 64 PEs
        // per word via `trailing_zeros`.
        for (pe, &v) in p.as_slice().iter().enumerate() {
            if v && self.is_live(pe) {
                return Some(pe);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Global router
    // ------------------------------------------------------------------

    pub(crate) fn charge_xnet(&mut self, hops: usize) -> u64 {
        self.record("xnet");
        self.stats.xnet_shifts += hops as u64 * self.virt_factor;
        self.stats.plural_ops += 1;
        self.stats.plural_slices += self.virt_factor;
        self.op_count += 1;
        self.op_count
    }

    fn charge_router(&mut self) -> u64 {
        self.record("router");
        self.stats.router_ops += 1;
        self.stats.router_slices += self.virt_factor;
        self.op_count += 1;
        self.op_count
    }

    /// Routed gather: every active PE fetches `src[index[pe]]`. One router
    /// operation (the MP-1 router resolves an arbitrary permutation;
    /// many-to-one reads are fine — common read). With faults armed, an
    /// out-of-range index (a corrupted index plural) drops that PE's fetch
    /// and counts it in [`MachineStats::oob_routes`]; without faults it is
    /// a program bug and asserts.
    pub fn gather<T: Copy + Send + Sync + FaultWord>(
        &mut self,
        src: &Plural<T>,
        index: &Plural<usize>,
        dst: &mut Plural<T>,
    ) {
        assert_eq!(src.len(), self.n_virt);
        assert_eq!(index.len(), self.n_virt);
        assert_eq!(dst.len(), self.n_virt);
        let op = self.charge_router();
        self.count_dead_skips();
        let armed = self.faults.is_some();
        let oob = AtomicU64::new(0);
        {
            let s = src.as_slice();
            let idx = index.as_slice();
            dst.as_mut_slice()
                .par_iter_mut()
                .enumerate()
                .for_each(|(pe, slot)| {
                    if self.is_live(pe) {
                        let target = idx[pe];
                        if target >= s.len() {
                            assert!(armed, "router gather out of range: PE {pe} -> {target}");
                            oob.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        *slot = s[target];
                    }
                });
        }
        self.stats.oob_routes += oob.into_inner();
        self.apply_router_corruption(op, dst.as_mut_slice());
    }

    /// Routed scatter: every active PE sends its value to `dst[index[pe]]`.
    /// Write conflicts resolve deterministically: the lowest-numbered
    /// sending PE wins (the CRCW "a single processor succeeds" rule made
    /// reproducible). Out-of-range targets behave as in [`Machine::gather`].
    pub fn scatter<T: Copy + Send + Sync + FaultWord>(
        &mut self,
        src: &Plural<T>,
        index: &Plural<usize>,
        dst: &mut Plural<T>,
    ) {
        assert_eq!(src.len(), self.n_virt);
        assert_eq!(index.len(), self.n_virt);
        assert_eq!(dst.len(), self.n_virt);
        let op = self.charge_router();
        self.count_dead_skips();
        let armed = self.faults.is_some();
        // Deterministic serial application in ascending PE order; the
        // lowest sender's write lands last... no: lowest wins means apply
        // in descending order so the lowest overwrites.
        let mut oob = 0u64;
        {
            let idx = index.as_slice();
            let s = src.as_slice();
            let d = dst.as_mut_slice();
            for pe in (0..s.len()).rev() {
                if self.is_live(pe) {
                    let target = idx[pe];
                    if target >= d.len() {
                        assert!(armed, "router scatter out of range: PE {pe} -> {target}");
                        oob += 1;
                        continue;
                    }
                    // A dead receiving PE's memory cannot be written.
                    if self.virt_is_dead(target) {
                        continue;
                    }
                    d[target] = s[pe];
                }
            }
        }
        self.stats.oob_routes += oob;
        self.apply_router_corruption(op, dst.as_mut_slice());
    }

    // ------------------------------------------------------------------
    // Packed (bit-sliced) boolean kernels: 64 PEs per host word-op
    // ------------------------------------------------------------------
    //
    // Each kernel issues exactly the broadcast instructions its unpacked
    // counterpart issues — same `charge_*` calls, same `count_dead_skips`,
    // same fault application points — so a program ported from
    // `Plural<bool>` to `PluralBits` produces bit-identical
    // [`MachineStats`], instruction counts and cycle estimates. Only the
    // host representation (and host wall time) changes.

    /// One broadcast instruction: every live PE writes its slot of `dst`
    /// from the per-PE `want` table. The packed counterpart of
    /// `par_map(&mut p, |pe, v| *v = want[pe])`, executed as a masked
    /// word merge per 64 PEs.
    pub fn par_write_bits(&mut self, dst: &mut PluralBits, want: &[bool]) {
        assert_eq!(dst.len(), self.n_virt, "plural size mismatch");
        assert_eq!(want.len(), self.n_virt, "plural size mismatch");
        let op = self.charge_plural_op();
        self.count_dead_skips();
        for w in 0..dst.words().len() {
            let live = self.live_word(w);
            if live == 0 {
                continue;
            }
            let base = w * 64;
            let mut value = 0u64;
            for (i, &b) in want[base..(base + 64).min(want.len())].iter().enumerate() {
                if b {
                    value |= 1u64 << i;
                }
            }
            let word = &mut dst.words_mut()[w];
            *word = (*word & !live) | (value & live);
        }
        self.apply_memory_flips_bits(op, dst);
    }

    /// One broadcast instruction: every live PE computes its bit of `dst`
    /// from its word of `src` (the packed counterpart of a
    /// `par_zip(&mut bool_dst, &u64_src, ...)`).
    pub fn par_map_bits(
        &mut self,
        dst: &mut PluralBits,
        src: &Plural<u64>,
        f: impl Fn(usize, u64) -> bool,
    ) {
        assert_eq!(dst.len(), self.n_virt, "plural size mismatch");
        assert_eq!(src.len(), self.n_virt, "plural size mismatch");
        let op = self.charge_plural_op();
        self.count_dead_skips();
        let s = src.as_slice();
        for w in 0..dst.words().len() {
            let mut m = self.live_word(w);
            if m == 0 {
                continue;
            }
            let mut word = dst.words()[w];
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                let pe = w * 64 + b;
                if f(pe, s[pe]) {
                    word |= 1u64 << b;
                } else {
                    word &= !(1u64 << b);
                }
                m &= m - 1;
            }
            dst.words_mut()[w] = word;
        }
        self.apply_memory_flips_bits(op, dst);
    }

    /// Build a fresh packed plural in one instruction (live PEs run `f`;
    /// the rest hold `fill`) — the packed [`Machine::par_init`].
    pub fn par_init_bits(&mut self, fill: bool, f: impl Fn(usize) -> bool) -> PluralBits {
        let want: Vec<bool> = (0..self.n_virt).map(f).collect();
        let mut p = self.alloc_bits(fill);
        self.par_write_bits(&mut p, &want);
        p
    }

    /// Global OR over active PEs of a packed plural: a word scan with
    /// early exit — 64 PEs per iteration instead of one.
    pub fn reduce_or_bits(&mut self, p: &PluralBits) -> bool {
        assert_eq!(p.len(), self.n_virt, "plural size mismatch");
        let op = self.charge_scan();
        self.count_dead_skips();
        let mut result = false;
        for (w, &word) in p.words().iter().enumerate() {
            if word & self.live_word(w) != 0 {
                result = true;
                break;
            }
        }
        self.corrupt_reduction(op, result)
    }

    /// Global AND over active PEs of a packed plural (identity `true`
    /// when none active): early-exits on the first live zero bit.
    pub fn reduce_and_bits(&mut self, p: &PluralBits) -> bool {
        assert_eq!(p.len(), self.n_virt, "plural size mismatch");
        let op = self.charge_scan();
        self.count_dead_skips();
        let mut result = true;
        for (w, &word) in p.words().iter().enumerate() {
            if !word & self.live_word(w) != 0 {
                result = false;
                break;
            }
        }
        self.corrupt_reduction(op, result)
    }

    /// `selectFirst` over a packed plural: the first nonzero live word
    /// plus a `trailing_zeros` pinpoints the lowest flagged PE.
    pub fn select_first_bits(&mut self, p: &PluralBits) -> Option<usize> {
        assert_eq!(p.len(), self.n_virt, "plural size mismatch");
        self.charge_scan();
        self.count_dead_skips();
        for (w, &word) in p.words().iter().enumerate() {
            let hit = word & self.live_word(w);
            if hit != 0 {
                return Some(w * 64 + hit.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Segmented `scanOr` over a packed plural — word-at-a-time over each
    /// segment's precomputed word span (see [`SegmentMap`]), with early
    /// exit on the first live hit.
    pub fn scan_or_bits(&mut self, p: &PluralBits, segs: &SegmentMap) -> PluralBits {
        self.seg_reduce_bits(p, segs, false)
    }

    /// Segmented `scanAnd` over a packed plural (identity `true`).
    pub fn scan_and_bits(&mut self, p: &PluralBits, segs: &SegmentMap) -> PluralBits {
        self.seg_reduce_bits(p, segs, true)
    }

    fn seg_reduce_bits(&mut self, p: &PluralBits, segs: &SegmentMap, identity: bool) -> PluralBits {
        assert_eq!(p.len(), self.n_virt, "plural size mismatch");
        assert_eq!(segs.len(), self.n_virt, "segment map size mismatch");
        let op_id = self.charge_scan();
        self.count_dead_skips();
        let mut out = self.alloc_bits(identity);
        let mut dead_boundaries = 0u64;
        for s in 0..segs.num_segments() {
            let span = segs.span_of(s);
            let value = if identity {
                // AND: true unless some live active PE holds a zero bit.
                (span.first_word..=span.last_word)
                    .all(|w| !p.words()[w] & self.live_word(w) & span.mask_for(w) == 0)
            } else {
                // OR: true once any live active PE holds a set bit.
                (span.first_word..=span.last_word)
                    .any(|w| p.words()[w] & self.live_word(w) & span.mask_for(w) != 0)
            };
            let boundary = segs.start_of(s);
            if self.virt_is_dead(boundary) {
                dead_boundaries += 1;
            } else {
                out.set(boundary, value);
            }
        }
        self.stats.dead_pe_skips += dead_boundaries;
        self.apply_router_corruption_bits(op_id, &mut out);
        out
    }

    /// Routed gather of a packed boolean plural (see [`Machine::gather`]):
    /// senders and receivers are iterated via word masks, fetching one bit
    /// per live PE.
    pub fn gather_bits(&mut self, src: &PluralBits, index: &Plural<usize>, dst: &mut PluralBits) {
        assert_eq!(src.len(), self.n_virt);
        assert_eq!(index.len(), self.n_virt);
        assert_eq!(dst.len(), self.n_virt);
        let op = self.charge_router();
        self.count_dead_skips();
        let armed = self.faults.is_some();
        let mut oob = 0u64;
        let idx = index.as_slice();
        for w in 0..bits::word_count(self.n_virt) {
            let mut m = self.live_word(w);
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                let pe = w * 64 + b;
                m &= m - 1;
                let target = idx[pe];
                if target >= src.len() {
                    assert!(armed, "router gather out of range: PE {pe} -> {target}");
                    oob += 1;
                    continue;
                }
                dst.set(pe, src.get(target));
            }
        }
        self.stats.oob_routes += oob;
        self.apply_router_corruption_bits(op, dst);
    }

    /// Routed scatter of a packed boolean plural (see
    /// [`Machine::scatter`]): applied in descending PE order so the
    /// lowest-numbered sender wins write conflicts, exactly as unpacked.
    pub fn scatter_bits(&mut self, src: &PluralBits, index: &Plural<usize>, dst: &mut PluralBits) {
        assert_eq!(src.len(), self.n_virt);
        assert_eq!(index.len(), self.n_virt);
        assert_eq!(dst.len(), self.n_virt);
        let op = self.charge_router();
        self.count_dead_skips();
        let armed = self.faults.is_some();
        let mut oob = 0u64;
        let idx = index.as_slice();
        for w in (0..bits::word_count(self.n_virt)).rev() {
            let mut m = self.live_word(w);
            while m != 0 {
                let b = 63 - m.leading_zeros() as usize;
                let pe = w * 64 + b;
                m &= !(1u64 << b);
                let target = idx[pe];
                if target >= dst.len() {
                    assert!(armed, "router scatter out of range: PE {pe} -> {target}");
                    oob += 1;
                    continue;
                }
                // A dead receiving PE's memory cannot be written.
                if self.virt_is_dead(target) {
                    continue;
                }
                dst.set(target, src.get(pe));
            }
        }
        self.stats.oob_routes += oob;
        self.apply_router_corruption_bits(op, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtualization_factor() {
        assert_eq!(Machine::mp1(1).virt_factor(), 1);
        assert_eq!(Machine::mp1(16_384).virt_factor(), 1);
        assert_eq!(Machine::mp1(16_385).virt_factor(), 2);
        assert_eq!(Machine::mp1(40_000).virt_factor(), 3);
        // The paper's 10-word network: q²n⁴ = 4·10⁴ = 40,000 → factor 3.
    }

    #[test]
    fn par_map_runs_on_active_pes_only() {
        let mut m = Machine::mp1(8);
        m.disable_pes(&[3, 5]);
        let mut p = m.alloc(0u32);
        m.par_map(&mut p, |pe, v| *v = pe as u32 + 1);
        assert_eq!(p.as_slice(), &[1, 2, 3, 0, 5, 0, 7, 8]);
        assert_eq!(m.stats.plural_ops, 1);
        assert_eq!(m.active_count(), 6);
    }

    #[test]
    fn par_zip_and_init() {
        let mut m = Machine::mp1(4);
        let a = m.par_init(0u32, |pe| pe as u32);
        let mut b = m.alloc(100u32);
        m.par_zip(&mut b, &a, |_, dst, src| *dst += *src);
        assert_eq!(b.as_slice(), &[100, 101, 102, 103]);
    }

    #[test]
    fn activity_stack_nesting() {
        let mut m = Machine::mp1(6);
        let even = m.par_init(false, |pe| pe % 2 == 0);
        let low = m.par_init(false, |pe| pe < 4);
        let mut hits = m.alloc(0u32);
        m.with_activity(&even, |m| {
            m.with_activity(&low, |m| {
                m.par_map(&mut hits, |_, v| *v = 1);
            });
            assert_eq!(m.active_count(), 3); // 0, 2, 4
        });
        assert_eq!(m.active_count(), 6);
        assert_eq!(hits.as_slice(), &[1, 0, 1, 0, 0, 0]);
    }

    #[test]
    fn reductions_respect_activity() {
        let mut m = Machine::mp1(4);
        let p = m.par_init(false, |pe| pe == 3);
        assert!(m.reduce_or(&p));
        let mask = m.par_init(false, |pe| pe < 3);
        let inside = m.with_activity(&mask, |m| m.reduce_or(&p));
        assert!(!inside);
        let all_true = m.par_init(false, |_| true);
        assert!(m.reduce_and(&all_true));
        let sums = m.par_init(0u64, |pe| pe as u64);
        assert_eq!(m.reduce_sum(&sums), 6);
    }

    #[test]
    fn reduce_and_identity_when_none_active() {
        let mut m = Machine::mp1(4);
        let none = m.alloc(false);
        let p = m.par_init(true, |_| false);
        let r = m.with_activity(&none, |m| m.reduce_and(&p));
        assert!(r, "AND over an empty active set is the identity true");
    }

    #[test]
    fn scan_or_deposits_at_boundaries() {
        let mut m = Machine::mp1(9);
        let segs = SegmentMap::uniform(9, 3);
        let p = m.par_init(false, |pe| pe == 4 || pe == 8);
        let r = m.scan_or(&p, &segs);
        assert_eq!(
            r.as_slice(),
            &[false, false, false, true, false, false, true, false, false]
        );
        assert_eq!(m.stats.scan_calls, 1);
    }

    #[test]
    fn scan_and_skips_disabled_pes() {
        let mut m = Machine::mp1(6);
        let segs = SegmentMap::uniform(6, 3);
        // Segment 0: values T,F,T with PE 1 disabled → AND = T.
        // Segment 1: values T,T,F all enabled → AND = F.
        m.disable_pes(&[1]);
        let p = m.par_init(false, |pe| matches!(pe, 0 | 2 | 3 | 4));
        let r = m.scan_and(&p, &segs);
        assert!(r.as_slice()[0]);
        assert!(!r.as_slice()[3]);
    }

    #[test]
    fn gather_and_scatter() {
        let mut m = Machine::mp1(5);
        let src = m.par_init(0u32, |pe| pe as u32 * 10);
        let reverse = m.par_init(0usize, |pe| 4 - pe);
        let mut dst = m.alloc(0u32);
        m.gather(&src, &reverse, &mut dst);
        assert_eq!(dst.as_slice(), &[40, 30, 20, 10, 0]);
        // Scatter with a conflict: PEs 0, 1 and 2 all send to slot 0; the
        // lowest sender (PE 0) wins.
        let idx = m.par_init(0usize, |pe| if pe <= 2 { 0 } else { pe });
        let vals = m.par_init(0u32, |pe| pe as u32 + 1);
        let mut out = m.alloc(99u32);
        m.scatter(&vals, &idx, &mut out);
        assert_eq!(out.as_slice()[0], 1); // PE 0's value (pe+1 = 1)
        assert_eq!(out.as_slice()[3], 4);
        assert_eq!(m.stats.router_ops, 2);
    }

    #[test]
    fn select_first_respects_activity() {
        let mut m = Machine::mp1(6);
        let p = m.par_init(false, |pe| pe == 2 || pe == 4);
        assert_eq!(m.select_first(&p), Some(2));
        let mask = m.par_init(false, |pe| pe > 2);
        let inside = m.with_activity(&mask, |m| m.select_first(&p));
        assert_eq!(inside, Some(4));
        let none = m.alloc(false);
        assert_eq!(m.select_first(&none), None);
    }

    #[test]
    fn tracing_records_operations() {
        let mut m = Machine::mp1(8);
        assert!(m.trace().is_empty());
        m.enable_trace();
        let mut p = m.alloc(false);
        m.par_map(&mut p, |_, v| *v = true);
        let segs = SegmentMap::global(8);
        let _ = m.scan_or(&p, &segs);
        let mask = m.par_init(false, |pe| pe < 4);
        m.with_activity(&mask, |m| {
            m.par_map(&mut p, |_, v| *v = false);
        });
        let ops: Vec<&str> = m.trace().iter().map(|t| t.op).collect();
        assert!(ops.contains(&"plural"));
        assert!(ops.contains(&"scan"));
        // The op inside the narrowed activity frame saw 4 active PEs.
        let narrowed = m.trace().iter().rev().find(|t| t.op == "plural").unwrap();
        assert_eq!(narrowed.active, 4);
        // Enabling twice is idempotent.
        let len = m.trace().len();
        m.enable_trace();
        assert_eq!(m.trace().len(), len);
    }

    #[test]
    fn memory_budget_enforced() {
        let mut m = Machine::mp1(4);
        // 16 KB per PE: two 8 KB allocations fit, a third does not.
        let a = m.alloc([0u8; 8192]);
        let _b = m.alloc([0u8; 8000]);
        assert!(m.stats.peak_pe_memory_bytes >= 16192);
        m.free(a);
        let _c = m.alloc([0u8; 8192]); // fits again after free
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _d = m.alloc([0u8; 8192]);
        }));
        assert!(result.is_err(), "exceeding 16 KB per PE must fail loudly");
    }

    #[test]
    fn virtualized_ops_cost_more() {
        let mut small = Machine::mp1(100);
        let mut big = Machine::mp1(40_000); // factor 3
        let mut ps = small.alloc(0u8);
        let mut pb = big.alloc(0u8);
        small.par_map(&mut ps, |_, _| {});
        big.par_map(&mut pb, |_, _| {});
        assert_eq!(small.stats.plural_slices, 1);
        assert_eq!(big.stats.plural_slices, 3);
        assert!(big.estimated_seconds() > small.estimated_seconds());
    }

    #[test]
    fn scan_cost_is_logarithmic_in_phys_pes() {
        let mut m = Machine::mp1(16);
        let p = m.alloc(false);
        let segs = SegmentMap::global(16);
        let before = m.stats.scan_passes;
        let _ = m.scan_or(&p, &segs);
        assert_eq!(m.stats.scan_passes - before, 4); // log2(16 PEs in use)
                                                     // A program spanning the whole array pays log2(16384) per scan.
        let mut full = Machine::mp1(16_384);
        let pf = full.alloc(false);
        let sf = SegmentMap::global(16_384);
        let _ = full.scan_or(&pf, &sf);
        assert_eq!(full.stats.scan_passes, 14);
        // A virtualized program additionally pays local passes.
        let mut virt = Machine::mp1(40_000);
        let pv = virt.alloc(false);
        let sv = SegmentMap::global(40_000);
        let _ = virt.scan_or(&pv, &sv);
        assert_eq!(virt.stats.scan_passes, 16); // 14 + (3 - 1)
    }

    // --------------------------------------------------------------
    // Fault injection
    // --------------------------------------------------------------

    /// A small machine with an armed plan, for fault tests.
    fn faulty(n_virt: usize, phys: usize, plan: FaultPlan) -> Machine {
        let mut m = Machine::new(
            MachineConfig {
                phys_pes: phys,
                ..Default::default()
            },
            n_virt,
        );
        m.arm_faults(plan);
        m
    }

    #[test]
    fn op_counter_advances_on_every_broadcast() {
        let mut m = Machine::mp1(4);
        assert_eq!(m.op_count(), 0);
        let mut p = m.alloc(0u32);
        m.par_map(&mut p, |_, _| {}); // 1
        let b = m.alloc(false);
        let _ = m.reduce_or(&b); // 2
        let segs = SegmentMap::global(4);
        let _ = m.scan_or(&b, &segs); // 3
        let idx = m.par_init(0usize, |pe| pe); // 4
        let mut dst = m.alloc(0u32);
        m.gather(&p, &idx, &mut dst); // 5
        assert_eq!(m.op_count(), 5);
    }

    #[test]
    fn dead_pe_freezes_its_slot() {
        // 8 virtual PEs on 4 physical: phys 1 hosts virts 1 and 5.
        let mut m = faulty(8, 4, FaultPlan::new().with_dead_pe(1));
        let mut p = m.alloc(0u32);
        m.par_map(&mut p, |pe, v| *v = pe as u32 + 10);
        assert_eq!(p.as_slice(), &[10, 0, 12, 13, 14, 0, 16, 17]);
        assert_eq!(m.stats.dead_pe_skips, 2);
    }

    #[test]
    fn dead_pe_contributes_identity_to_scans() {
        let mut m = faulty(4, 4, FaultPlan::new().with_dead_pe(3));
        let p = m.par_init(false, |pe| pe == 3);
        // The only set flag lives on the dead PE: the OR must miss it.
        assert!(!m.reduce_or(&p));
        let sums = m.par_init(0u64, |_| 1);
        assert_eq!(m.reduce_sum(&sums), 3);
    }

    #[test]
    fn probe_detects_dead_pes_and_retire_remaps() {
        let mut m = faulty(8, 4, FaultPlan::new().with_dead_pe(1).with_dead_pe(2));
        assert_eq!(m.probe_pes(0xDEAD), vec![1, 2]);
        assert_eq!(m.retire_pes(&[1, 2]), 2);
        // All virtual PEs now live on phys {0, 3}.
        assert!(m.probe_pes(0xBEEF).is_empty());
        assert_eq!(m.phys_of(0), 0);
        assert_eq!(m.phys_of(1), 3);
        assert_eq!(m.phys_of(2), 0);
        let mut p = m.alloc(0u32);
        m.par_map(&mut p, |pe, v| *v = pe as u32 + 1);
        assert_eq!(p.as_slice(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn retire_refuses_to_empty_the_array() {
        let mut m = faulty(2, 2, FaultPlan::new().with_dead_pe(0).with_dead_pe(1));
        assert_eq!(m.retire_pes(&[0, 1]), 0);
        assert_eq!(m.healthy_count(), 2, "mapping unchanged after refusal");
    }

    #[test]
    fn memory_flip_fires_once_at_its_op() {
        // Flip bit 0 of phys 2's write during op 2.
        let mut m = faulty(4, 4, FaultPlan::new().with_memory_flip(2, 2, 0));
        let mut p = m.alloc(0u64);
        m.par_map(&mut p, |_, v| *v = 8); // op 1: untouched
        assert_eq!(p.as_slice(), &[8, 8, 8, 8]);
        m.par_map(&mut p, |_, v| *v = 8); // op 2: flip hits virt 2
        assert_eq!(p.as_slice(), &[8, 8, 9, 8]);
        assert_eq!(m.stats.memory_flips, 1);
        m.par_map(&mut p, |_, v| *v = 8); // op 3: transient is spent
        assert_eq!(p.as_slice(), &[8, 8, 8, 8]);
    }

    #[test]
    fn router_corruption_hits_gather_payload() {
        // Ops: alloc'd plurals cost nothing; par_init ×2 = ops 1-2;
        // gather = op 3.
        let mut m = faulty(4, 4, FaultPlan::new().with_router_corrupt(3, 1, 0xF0));
        let src = m.par_init(0u64, |pe| pe as u64);
        let idx = m.par_init(0usize, |pe| pe);
        let mut dst = m.alloc(0u64);
        m.gather(&src, &idx, &mut dst);
        assert_eq!(dst.as_slice(), &[0, 1 ^ 0xF0, 2, 3]);
        assert_eq!(m.stats.router_corruptions, 1);
    }

    #[test]
    fn oob_routes_drop_gracefully_under_faults() {
        let mut m = faulty(4, 4, FaultPlan::new());
        let src = m.par_init(0u64, |pe| pe as u64 + 1);
        let idx = m.par_init(0usize, |pe| if pe == 2 { 999 } else { pe });
        let mut dst = m.alloc(0u64);
        m.gather(&src, &idx, &mut dst);
        assert_eq!(dst.as_slice(), &[1, 2, 0, 4], "PE 2's fetch dropped");
        assert_eq!(m.stats.oob_routes, 1);
        let mut out = m.alloc(0u64);
        m.scatter(&src, &idx, &mut out);
        assert_eq!(m.stats.oob_routes, 2);
    }

    #[test]
    fn oob_routes_still_assert_without_faults() {
        let mut m = Machine::mp1(4);
        let src = m.par_init(0u64, |pe| pe as u64);
        let idx = m.par_init(0usize, |_| 999);
        let mut dst = m.alloc(0u64);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.gather(&src, &idx, &mut dst);
        }));
        assert!(r.is_err(), "fault-free OOB gather is a program bug");
    }

    #[test]
    fn empty_armed_plan_changes_no_results() {
        let run = |m: &mut Machine| {
            let p = m.par_init(0u64, |pe| pe as u64);
            let segs = SegmentMap::uniform(8, 4);
            let f = m.par_init(false, |pe| pe % 3 == 0);
            let or = m.scan_or(&f, &segs);
            let sum = m.reduce_sum(&p);
            (p.as_slice().to_vec(), or.as_slice().to_vec(), sum)
        };
        let mut plain = Machine::mp1(8);
        let mut armed = Machine::mp1(8);
        armed.arm_faults(FaultPlan::new());
        let a = run(&mut plain);
        let b = run(&mut armed);
        assert_eq!(a, b);
        assert_eq!(plain.stats, armed.stats, "an empty plan costs nothing");
    }

    #[test]
    fn fault_counters_flow_into_delta() {
        let mut m = faulty(4, 4, FaultPlan::new().with_dead_pe(0));
        let before = m.stats;
        let mut p = m.alloc(0u32);
        m.par_map(&mut p, |_, v| *v = 1);
        let d = m.stats.delta_since(&before);
        assert_eq!(d.dead_pe_skips, 1);
    }

    // --------------------------------------------------------------
    // Packed (bit-sliced) kernels
    // --------------------------------------------------------------

    /// Run the same broadcast program through the unpacked and the packed
    /// boolean kernels and demand identical per-PE results *and* identical
    /// [`MachineStats`] — the bit-identity bar every packed kernel must
    /// clear, with and without an armed fault plan.
    fn packed_differential(n: usize, plan: Option<FaultPlan>) {
        let fresh = |plan: &Option<FaultPlan>| {
            let mut m = Machine::new(
                MachineConfig {
                    phys_pes: 4,
                    ..Default::default()
                },
                n,
            );
            if let Some(p) = plan.clone() {
                m.arm_faults(p);
            }
            m
        };
        let mut sm = fresh(&plan);
        let mut pm = fresh(&plan);
        let want: Vec<bool> = (0..n).map(|pe| pe % 3 == 0).collect();
        let idx: Vec<usize> = (0..n).map(|pe| (pe * 7 + 1) % n).collect();
        let seg_len = (1..=n).rev().find(|l| n % l == 0 && *l <= 70).unwrap();
        let segs = SegmentMap::uniform(n, seg_len);

        // Scalar program.
        let su = sm.par_init(0u64, |pe| pe as u64);
        let mut sflags = sm.alloc(false);
        sm.par_map(&mut sflags, |pe, v| *v = want[pe]);
        let smask = sm.par_init(false, |pe| pe % 2 == 0);
        let mut sderived = sm.alloc(false);
        let mut sacc = sm.alloc(0u64);
        let (s_or, s_and, s_first) = sm.with_activity(&smask, |m| {
            m.par_zip(&mut sderived, &su, |_, d, &s| *d = s & 2 != 0);
            m.par_zip(&mut sacc, &sflags, |pe, a, &f| {
                if f {
                    *a |= 1 << (pe % 60)
                }
            });
            (
                m.reduce_or(&sflags),
                m.reduce_and(&sflags),
                m.select_first(&sflags),
            )
        });
        let s_scan_or = sm.scan_or(&sflags, &segs);
        let s_scan_and = sm.scan_and(&sderived, &segs);
        let sidx = sm.par_init(0usize, |pe| idx[pe]);
        let mut s_gath = sm.alloc(false);
        sm.gather(&sflags, &sidx, &mut s_gath);
        let mut s_scat = sm.alloc(false);
        sm.scatter(&sflags, &sidx, &mut s_scat);

        // The same program through the packed kernels.
        let pu = pm.par_init(0u64, |pe| pe as u64);
        let mut pflags = pm.alloc_bits(false);
        pm.par_write_bits(&mut pflags, &want);
        let pmask = pm.par_init_bits(false, |pe| pe % 2 == 0);
        let mut pderived = pm.alloc_bits(false);
        let mut pacc = pm.alloc(0u64);
        let (p_or, p_and, p_first) = pm.with_activity_bits(&pmask, |m| {
            m.par_map_bits(&mut pderived, &pu, |_, s| s & 2 != 0);
            m.par_map(&mut pacc, |pe, a| {
                if pflags.get(pe) {
                    *a |= 1 << (pe % 60)
                }
            });
            (
                m.reduce_or_bits(&pflags),
                m.reduce_and_bits(&pflags),
                m.select_first_bits(&pflags),
            )
        });
        let p_scan_or = pm.scan_or_bits(&pflags, &segs);
        let p_scan_and = pm.scan_and_bits(&pderived, &segs);
        let pidx = pm.par_init(0usize, |pe| idx[pe]);
        let mut p_gath = pm.alloc_bits(false);
        pm.gather_bits(&pflags, &pidx, &mut p_gath);
        let mut p_scat = pm.alloc_bits(false);
        pm.scatter_bits(&pflags, &pidx, &mut p_scat);

        let ctx = format!("n={n} faults={}", plan.is_some());
        assert_eq!(pflags.to_bools(), sflags.as_slice().to_vec(), "{ctx}");
        assert_eq!(pderived.to_bools(), sderived.as_slice().to_vec(), "{ctx}");
        assert_eq!(pacc.as_slice(), sacc.as_slice(), "{ctx}");
        assert_eq!((p_or, p_and, p_first), (s_or, s_and, s_first), "{ctx}");
        assert_eq!(p_scan_or.to_bools(), s_scan_or.as_slice().to_vec(), "{ctx}");
        assert_eq!(
            p_scan_and.to_bools(),
            s_scan_and.as_slice().to_vec(),
            "{ctx}"
        );
        assert_eq!(p_gath.to_bools(), s_gath.as_slice().to_vec(), "{ctx}");
        assert_eq!(p_scat.to_bools(), s_scat.as_slice().to_vec(), "{ctx}");
        assert_eq!(sm.stats, pm.stats, "{ctx}");
        assert_eq!(sm.op_count(), pm.op_count(), "{ctx}");
    }

    #[test]
    fn packed_kernels_match_scalar_fault_free() {
        for n in [1usize, 5, 64, 65, 130] {
            packed_differential(n, None);
        }
    }

    #[test]
    fn packed_kernels_match_scalar_under_faults() {
        for n in [5usize, 64, 65, 130] {
            for seed in [1u64, 7, 42, 1234] {
                packed_differential(n, Some(FaultPlan::seeded(seed, 4, 40)));
            }
        }
    }

    /// Run one program twice — once through the strided and grid
    /// broadcasts, once through the predicated `par_map` / `par_zip`
    /// they stand for — and demand identical plural contents and
    /// identical [`MachineStats`], inside a narrowed activity frame and
    /// outside it. Returns the stats for further checks.
    fn strided_and_grid_differential(
        n: usize,
        width: usize,
        plan: Option<FaultPlan>,
    ) -> MachineStats {
        let fresh = |plan: &Option<FaultPlan>| {
            let mut m = Machine::new(
                MachineConfig {
                    phys_pes: 16,
                    ..Default::default()
                },
                n,
            );
            if let Some(p) = plan.clone() {
                m.arm_faults(p);
            }
            m
        };
        let (mut rm, mut nm) = (fresh(&plan), fresh(&plan));
        let setup = |m: &mut Machine| {
            let mask = m.par_init_bits(false, |pe| pe % 3 != 1);
            let a = m.par_init(0u64, |pe| pe as u64 * 7 + 1);
            let src = m.par_init(0u64, |pe| pe as u64 * 13);
            let b = m.alloc(5u64);
            (mask, a, src, b)
        };
        let (rmask, mut ra, rsrc, mut rb) = setup(&mut rm);
        let (nmask, mut na, nsrc, mut nb) = setup(&mut nm);

        // Reference: the predicated broadcasts.
        rm.with_activity_bits(&rmask, |m| {
            m.par_map(&mut ra, |pe, v| {
                if pe % width == 0 {
                    *v ^= pe as u64 + 1;
                }
            });
            m.par_zip(&mut rb, &rsrc, |pe, v, &s| {
                if pe % width == 0 {
                    *v += s;
                }
            });
            m.par_map(&mut ra, |pe, v| {
                *v = v.rotate_left(3) ^ ((pe / width) * 1000 + pe % width) as u64;
            });
        });
        rm.par_map(&mut rb, |pe, v| {
            if pe % width == 0 {
                *v = v.wrapping_mul(3);
            }
        });
        rm.par_map(&mut rb, |pe, v| *v += (pe / width + pe % width) as u64);

        // The same program through the strided and grid broadcasts.
        nm.with_activity_bits(&nmask, |m| {
            m.par_map_strided(&mut na, width, |pe, v| *v ^= pe as u64 + 1);
            let s = nsrc.as_slice();
            m.par_map_strided(&mut nb, width, |pe, v| *v += s[pe]);
            m.par_map_grid(
                &mut na,
                width,
                || 0usize,
                |visits, row, col, v| {
                    *visits += 1;
                    *v = v.rotate_left(3) ^ (row * 1000 + col) as u64;
                },
            );
        });
        nm.par_map_strided(&mut nb, width, |_, v| *v = v.wrapping_mul(3));
        nm.par_map_grid(&mut nb, width, Vec::<u64>::new, |scratch, row, col, v| {
            scratch.push(*v);
            *v += (row + col) as u64;
        });

        let ctx = format!("n={n} width={width} faults={plan:?}");
        assert_eq!(na.as_slice(), ra.as_slice(), "{ctx}");
        assert_eq!(nb.as_slice(), rb.as_slice(), "{ctx}");
        assert_eq!(nm.stats, rm.stats, "{ctx}");
        assert_eq!(nm.op_count(), rm.op_count(), "{ctx}");
        nm.stats
    }

    const GRIDS: [(usize, usize); 5] = [(6, 3), (64, 8), (130, 13), (200, 10), (324, 18)];

    #[test]
    fn strided_and_grid_broadcasts_match_predicated_par_map_fault_free() {
        for (n, width) in GRIDS {
            let stats = strided_and_grid_differential(n, width, None);
            assert_eq!(stats.plural_ops, 9, "n={n}: one op per broadcast");
        }
    }

    #[test]
    fn strided_and_grid_broadcasts_match_predicated_par_map_under_faults() {
        // Dead PEs that are never retired, and memory flips scheduled on
        // the strided (ops 5, 6, 8) and grid (ops 7, 9) broadcasts, some
        // landing on stride boundaries (virtual PE 0 sits on phys 0).
        let plan = FaultPlan::new()
            .with_dead_pe(2)
            .with_dead_pe(9)
            .with_memory_flip(5, 0, 3)
            .with_memory_flip(6, 5, 17)
            .with_memory_flip(7, 7, 1)
            .with_memory_flip(8, 0, 9)
            .with_memory_flip(9, 12, 40);
        for (n, width) in GRIDS {
            let stats = strided_and_grid_differential(n, width, Some(plan.clone()));
            assert!(stats.dead_pe_skips > 0, "n={n}: dead PEs must be skipped");
            assert!(stats.memory_flips > 0, "n={n}: flips must land");
            for seed in [1u64, 7, 42, 1234] {
                strided_and_grid_differential(n, width, Some(FaultPlan::seeded(seed, 16, 10)));
            }
        }
    }

    #[test]
    fn packed_alloc_charges_the_same_budget() {
        // A packed plural still occupies one simulated byte per PE: the
        // 16 KB budget is a property of the MP-1 program, not of the host
        // representation.
        let mut unpacked = Machine::mp1(4);
        let mut packed = Machine::mp1(4);
        let a = unpacked.alloc(false);
        let b = packed.alloc_bits(false);
        assert_eq!(
            unpacked.stats.peak_pe_memory_bytes,
            packed.stats.peak_pe_memory_bytes
        );
        unpacked.free(a);
        packed.free_bits(b);

        // Fill the budget to one byte short with plain bytes, then both
        // representations must fail identically on the next bool.
        let budget = unpacked.config().pe_memory_bytes;
        let _pad_u = unpacked.alloc([0u8; 16 * 1024 - 1]);
        let _pad_p = packed.alloc([0u8; 16 * 1024 - 1]);
        let _last_u = unpacked.alloc(false); // exactly fits
        let _last_p = packed.alloc_bits(false);
        assert_eq!(unpacked.stats.peak_pe_memory_bytes, budget);
        assert_eq!(packed.stats.peak_pe_memory_bytes, budget);
        let grab = |r: std::thread::Result<()>| {
            let e = r.expect_err("allocation beyond 16 KB must fail");
            e.downcast_ref::<String>().unwrap().clone()
        };
        let msg_u = grab(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || {
                let _ = unpacked.alloc(false);
            },
        )));
        let msg_p = grab(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || {
                let _ = packed.alloc_bits(false);
            },
        )));
        assert_eq!(msg_u, msg_p, "identical budget error for both layouts");
        assert!(msg_u.contains("16 KB per PE"), "got: {msg_u}");
    }

    #[test]
    fn select_first_stops_at_the_lowest_live_hit() {
        let mut m = Machine::mp1(100);
        let p = m.par_init(false, |pe| pe >= 37); // many hits after the first
        assert_eq!(m.select_first(&p), Some(37));
        let none = m.alloc(false);
        assert_eq!(m.select_first(&none), None);
        // Narrowed activity moves the first hit.
        let mask = m.par_init(false, |pe| pe >= 50);
        let inside = m.with_activity(&mask, |m| m.select_first(&p));
        assert_eq!(inside, Some(50));
        // A dead PE can't raise its flag.
        let mut f = faulty(8, 4, FaultPlan::new().with_dead_pe(1));
        let pf = f.par_init(false, |pe| pe == 1 || pe == 5 || pe == 6);
        assert_eq!(f.select_first(&pf), Some(6), "virts 1 and 5 are dead");
        let mut fp = faulty(8, 4, FaultPlan::new().with_dead_pe(1));
        let pp = fp.par_init_bits(false, |pe| pe == 1 || pe == 5 || pe == 6);
        assert_eq!(fp.select_first_bits(&pp), Some(6));
        assert_eq!(f.stats, fp.stats);
    }

    #[test]
    fn with_activity_bits_nests_like_unpacked() {
        let mut m = Machine::mp1(6);
        let even = m.par_init_bits(false, |pe| pe % 2 == 0);
        let low = m.par_init_bits(false, |pe| pe < 4);
        let mut hits = m.alloc(0u32);
        m.with_activity_bits(&even, |m| {
            m.with_activity_bits(&low, |m| {
                m.par_map(&mut hits, |_, v| *v = 1);
            });
            assert_eq!(m.active_count(), 3); // 0, 2, 4
        });
        assert_eq!(m.active_count(), 6);
        assert_eq!(hits.as_slice(), &[1, 0, 1, 0, 0, 0]);
    }

    #[test]
    fn packed_dead_pe_freezes_its_bit() {
        // 8 virtual PEs on 4 physical: phys 1 hosts virts 1 and 5.
        let mut m = faulty(8, 4, FaultPlan::new().with_dead_pe(1));
        let mut p = m.alloc_bits(false);
        let want = vec![true; 8];
        m.par_write_bits(&mut p, &want);
        assert_eq!(
            p.to_bools(),
            [true, false, true, true, true, false, true, true]
        );
        assert_eq!(m.stats.dead_pe_skips, 2);
        // ...and a dead boundary PE swallows its segment's scan deposit:
        // segment 1 starts at virt 1, which lives on dead phys 1.
        let segs = SegmentMap::from_lengths(&[1, 3, 4]);
        let or = m.scan_or_bits(&p, &segs);
        assert!(or.get(0), "segment 0's boundary (virt 0) is healthy");
        assert!(!or.get(1), "segment 1 ORs to true but its boundary is dead");
        assert!(or.get(4), "segment 2's boundary (virt 4) is healthy");
    }

    #[test]
    fn packed_memory_flip_always_flips_the_bit() {
        // Flip during op 2 on phys 2: a 1-bit simulated word always flips
        // regardless of which bit index the plan drew.
        for bit in [0u32, 3, 63] {
            let mut m = faulty(4, 4, FaultPlan::new().with_memory_flip(2, 2, bit));
            let mut p = m.alloc_bits(false);
            let want = vec![true; 4];
            m.par_write_bits(&mut p, &want); // op 1: untouched
            assert_eq!(p.to_bools(), [true; 4]);
            m.par_write_bits(&mut p, &want); // op 2: flip hits virt 2
            assert_eq!(p.to_bools(), [true, true, false, true], "bit={bit}");
            assert_eq!(m.stats.memory_flips, 1);
            m.par_write_bits(&mut p, &want); // op 3: transient is spent
            assert_eq!(p.to_bools(), [true; 4]);
        }
    }

    #[test]
    fn packed_router_corruption_flips_on_odd_masks_only() {
        // A boolean payload XORs with the mask's low bit (FaultWord for
        // bool), but the corruption event is counted either way.
        for (mask, flipped) in [(0x01u64, true), (0xF0, false)] {
            let mut m = faulty(4, 4, FaultPlan::new().with_router_corrupt(3, 1, mask));
            let src = m.par_init_bits(false, |_| false);
            let idx = m.par_init(0usize, |pe| pe);
            let mut dst = m.alloc_bits(false);
            m.gather_bits(&src, &idx, &mut dst); // op 3
            assert_eq!(dst.get(1), flipped, "mask={mask:#x}");
            assert_eq!(m.stats.router_corruptions, 1);
        }
    }

    #[test]
    fn packed_scatter_lowest_sender_wins_and_oob_drops() {
        let mut m = faulty(4, 4, FaultPlan::new());
        // PEs 0 and 2 both target slot 1: the lowest sender's value wins.
        let src = m.par_init_bits(false, |pe| pe == 0);
        let idx = m.par_init(0usize, |pe| if pe == 3 { 999 } else { 1 });
        let mut dst = m.alloc_bits(false);
        m.scatter_bits(&src, &idx, &mut dst);
        assert!(dst.get(1), "PE 0's true beats PE 2's false");
        assert_eq!(m.stats.oob_routes, 1, "PE 3's route dropped");
        let mut out = m.alloc_bits(false);
        let idx_oob = m.par_init(0usize, |_| 999);
        m.gather_bits(&src, &idx_oob, &mut out);
        assert_eq!(m.stats.oob_routes, 5);
        assert_eq!(out.count_ones(), 0);
    }

    #[test]
    fn packed_oob_routes_still_assert_without_faults() {
        let mut m = Machine::mp1(4);
        let src = m.par_init_bits(false, |_| true);
        let idx = m.par_init(0usize, |_| 999);
        let mut dst = m.alloc_bits(false);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.gather_bits(&src, &idx, &mut dst);
        }));
        assert!(r.is_err(), "fault-free OOB gather is a program bug");
    }
}
