//! Differential property for the bit-sliced simulator: the packed
//! `PluralBits` engine must be **bit-identical** to the unpacked
//! `Plural<bool>` oracle — same readback, same `MachineStats` op counts,
//! same estimated MP-1 seconds, and (under faults) the same typed error
//! or the same recovered result. Packing is a host-side representation
//! change; nothing the simulated machine can observe is allowed to move.

use cdg_grammar::grammars::{english, formal, paper};
use cdg_grammar::{Grammar, Sentence};
use maspar_sim::{FaultPlan, MachineConfig};
use parsec_maspar::{parse_maspar, parse_maspar_checked, MasparOptions, MasparOutcome};

/// Physical array small enough that every bundled input virtualizes —
/// injected faults land on occupied hardware.
const PHYS_PES: usize = 64;
/// Instruction-count horizon for scheduled transients; a verified run of
/// the bundled examples spans a few hundred broadcast instructions.
const HORIZON_OPS: u64 = 600;
const SEEDS: u64 = 64;

/// The bundled grammars the engine sweep exercises: the paper's worked
/// example, a generated English sentence, and both formal languages.
fn inputs() -> Vec<(&'static str, Grammar, Sentence)> {
    let pg = paper::grammar();
    let ps = paper::example_sentence(&pg);
    let eg = english::grammar();
    let lex = english::lexicon(&eg);
    let es = corpus::english_sentence(&eg, &lex, 7, 11);
    let ag = formal::anbn_grammar();
    let as_ = formal::anbn_sentence(&ag, "aaabbb");
    let wg = formal::ww_grammar();
    let ws = formal::ww_sentence(&wg, "0101");
    vec![
        ("paper", pg, ps),
        ("english", eg, es),
        ("anbn", ag, as_),
        ("ww", wg, ws),
    ]
}

fn options(packed: bool, faults: Option<FaultPlan>) -> MasparOptions {
    MasparOptions {
        machine: MachineConfig {
            phys_pes: PHYS_PES,
            ..Default::default()
        },
        faults,
        packed,
        ..Default::default()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One digest over everything the simulated machine produced: readback
/// masks, submatrices, the full stat sheet, and the cost-model estimate.
fn digest(out: &MasparOutcome) -> u64 {
    fnv1a(
        format!(
            "{:?};{:?};{:?};{:016x}",
            out.alive,
            out.bits,
            out.stats,
            out.estimated_seconds.to_bits()
        )
        .as_bytes(),
    )
}

fn assert_identical(name: &str, ctx: &str, packed: &MasparOutcome, oracle: &MasparOutcome) {
    assert_eq!(
        packed.alive, oracle.alive,
        "{name} {ctx}: alive readback diverged"
    );
    assert_eq!(
        packed.bits, oracle.bits,
        "{name} {ctx}: submatrix readback diverged"
    );
    assert_eq!(
        packed.stats, oracle.stats,
        "{name} {ctx}: machine op counts diverged — the packed path issued \
         different broadcast instructions than the oracle"
    );
    assert_eq!(
        packed.estimated_seconds.to_bits(),
        oracle.estimated_seconds.to_bits(),
        "{name} {ctx}: cost-model estimate diverged"
    );
    assert_eq!(
        packed.filter_iterations_run, oracle.filter_iterations_run,
        "{name} {ctx}: filter iteration count diverged"
    );
    assert_eq!(
        packed.removals_per_iteration, oracle.removals_per_iteration,
        "{name} {ctx}: per-iteration removal counts diverged"
    );
    assert_eq!(
        packed.recovery, oracle.recovery,
        "{name} {ctx}: recovery bookkeeping diverged"
    );
    assert_eq!(
        digest(packed),
        digest(oracle),
        "{name} {ctx}: digests diverged"
    );
}

#[test]
fn packed_engine_is_bit_identical_fault_free() {
    for (name, g, s) in inputs() {
        let packed = parse_maspar(&g, &s, &options(true, None));
        let oracle = parse_maspar(&g, &s, &options(false, None));
        assert_identical(name, "fault-free", &packed, &oracle);
        assert!(
            packed.roles_nonempty(),
            "{name}: bundled example should parse"
        );

        let pc = parse_maspar_checked(&g, &s, &options(true, None)).unwrap();
        let oc = parse_maspar_checked(&g, &s, &options(false, None)).unwrap();
        assert_identical(name, "checked fault-free", &pc, &oc);
    }
}

/// Fault plan seed for the virtualized English differential: two dead
/// PEs, router corruptions and a memory flip within its horizon.
const VIRTUALIZED_FAULT_SEED: u64 = 5;
const VIRTUALIZED_HORIZON_OPS: u64 = 400;

/// English at n = 9 on the full 16,384-PE array — virtualization factor
/// 2, where column boundaries and submatrix rows no longer line up with
/// 64-PE words — fault-free and under one seeded fault plan.
#[test]
fn packed_engine_matches_oracle_on_virtualized_english() {
    let g = english::grammar();
    let lex = english::lexicon(&g);
    let s = (0..)
        .map(|seed| corpus::english_sentence(&g, &lex, 9, seed))
        .find(|s| !s.has_lexical_ambiguity())
        .expect("the generator yields unambiguous sentences");
    let full = |packed: bool, faults: Option<FaultPlan>| MasparOptions {
        faults,
        packed,
        ..Default::default()
    };
    let name = "english n=9";
    let packed = parse_maspar(&g, &s, &full(true, None));
    let oracle = parse_maspar(&g, &s, &full(false, None));
    assert_eq!(packed.virt_factor, 2, "{name}: must virtualize");
    assert_identical(name, "fault-free", &packed, &oracle);

    let phys = MachineConfig::default().phys_pes;
    let plan = FaultPlan::seeded(VIRTUALIZED_FAULT_SEED, phys, VIRTUALIZED_HORIZON_OPS);
    let ctx = format!("seed {VIRTUALIZED_FAULT_SEED} (plan: {plan})");
    let p = parse_maspar_checked(&g, &s, &full(true, Some(plan.clone())))
        .unwrap_or_else(|e| panic!("{name} {ctx}: packed failed: {e}"));
    let o = parse_maspar_checked(&g, &s, &full(false, Some(plan)))
        .unwrap_or_else(|e| panic!("{name} {ctx}: oracle failed: {e}"));
    assert!(p.stats.fault_events() > 0, "{name} {ctx}: no fault fired");
    assert_identical(name, &ctx, &p, &o);
    assert_eq!(p.alive, packed.alive, "{name} {ctx}: recovery diverged");
    assert_eq!(p.bits, packed.bits, "{name} {ctx}: recovery diverged");
}

#[test]
fn packed_engine_matches_oracle_across_seeded_fault_plans() {
    let mut agreements = 0usize;
    let mut typed_errors = 0usize;
    let mut fault_events = 0u64;
    for (name, g, s) in inputs() {
        for seed in 0..SEEDS {
            let plan = FaultPlan::seeded(seed, PHYS_PES, HORIZON_OPS);
            let ctx = format!("seed {seed} (plan: {plan})");
            let packed = parse_maspar_checked(&g, &s, &options(true, Some(plan.clone())));
            let oracle = parse_maspar_checked(&g, &s, &options(false, Some(plan.clone())));
            match (packed, oracle) {
                (Ok(p), Ok(o)) => {
                    fault_events += p.stats.fault_events();
                    assert_identical(name, &ctx, &p, &o);
                    agreements += 1;
                }
                // The same typed error is an agreement too: the packed
                // path must detect what the oracle detects, no more, no
                // less.
                (Err(pe), Err(oe)) => {
                    assert_eq!(pe, oe, "{name} {ctx}: typed errors diverged");
                    typed_errors += 1;
                }
                (Ok(_), Err(e)) => {
                    panic!("{name} {ctx}: oracle failed ({e}) but packed succeeded")
                }
                (Err(e), Ok(_)) => {
                    panic!("{name} {ctx}: packed failed ({e}) but oracle succeeded")
                }
            }
        }
    }
    // The sweep has to exercise the machinery, not coast on fault-free
    // seeds. Seeded plans at this array size always prove recoverable
    // (that is the point of retirement), so typed errors are provoked
    // separately below.
    assert!(agreements > 0, "sweep produced no recovered agreements");
    let _ = typed_errors; // seeded plans may or may not defeat recovery
    assert!(
        fault_events > 0,
        "at least one recovered run must have observed fault events"
    );
}

#[test]
fn packed_and_oracle_fail_with_the_same_typed_error() {
    // Kill every physical PE: probing can retire nothing, so recovery is
    // impossible and both representations must return the *same* typed
    // `EngineError` — not panic, not silently produce garbage.
    let g = paper::grammar();
    let s = paper::example_sentence(&g);
    let mut plan = FaultPlan::new();
    for pe in 0..PHYS_PES {
        plan = plan.with_dead_pe(pe);
    }
    let packed = parse_maspar_checked(&g, &s, &options(true, Some(plan.clone())))
        .expect_err("an all-dead array cannot parse");
    let oracle = parse_maspar_checked(&g, &s, &options(false, Some(plan)))
        .expect_err("an all-dead array cannot parse");
    assert_eq!(
        packed, oracle,
        "typed errors diverged between representations"
    );
}
