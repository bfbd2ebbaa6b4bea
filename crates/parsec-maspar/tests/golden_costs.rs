//! Golden cost pin: the simulated MP-1 charges of whole English parses,
//! phase by phase, fixed in `golden_costs.txt`.
//!
//! The host kernels are free to change *how* the simulator computes each
//! broadcast instruction, never *what* the simulated machine executes.
//! The packed ≡ scalar differential cannot police that on its own: both
//! representations share `maintain`, `mask_dead` and `apply_binary`, so a
//! charge that moves in shared code moves in both. This test compares
//! every phase's [`MachineStats`] and estimated MP-1 seconds against the
//! recorded figures instead.
//!
//! The inputs cover virtualization factors 1, 2 and 10 (English n = 3, 9
//! and 14 on the full 16,384-PE array), plus the n = 9 parse under a
//! seeded fault plan so dead-PE skips and memory flips are pinned too.
//!
//! If a change is *meant* to alter the simulated program, regenerate the
//! fixture from `render_all()` and say why in the change description.

use cdg_grammar::grammars::english;
use cdg_grammar::{Grammar, Sentence};
use maspar_sim::{CostModel, FaultPlan, MachineStats};
use parsec_maspar::{parse_maspar_checked, MasparOptions, MasparOutcome};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden_costs.txt");

/// Seed of the fault plan for the faulted n = 9 run, and the instruction
/// horizon its transients are scheduled within.
const FAULT_SEED: u64 = 5;
const FAULT_HORIZON_OPS: u64 = 400;

/// The first lexically unambiguous generated English sentence of length
/// `n` (the MasPar engine rejects category-ambiguous input).
fn english_sentence(g: &Grammar, n: usize) -> Sentence {
    let lex = english::lexicon(g);
    (0..)
        .map(|seed| corpus::english_sentence(g, &lex, n, seed))
        .find(|s| !s.has_lexical_ambiguity())
        .expect("the generator yields unambiguous sentences")
}

fn stats_line(s: &MachineStats, cost: &CostModel) -> String {
    format!(
        "ops={} slices={} scans={} passes={} router={} rslices={} xnet={} peak={} \
         dead={} rcorrupt={} flips={} oob={} secs={:016x}",
        s.plural_ops,
        s.plural_slices,
        s.scan_calls,
        s.scan_passes,
        s.router_ops,
        s.router_slices,
        s.xnet_shifts,
        s.peak_pe_memory_bytes,
        s.dead_pe_skips,
        s.router_corruptions,
        s.memory_flips,
        s.oob_routes,
        s.estimated_seconds(cost).to_bits(),
    )
}

fn render(label: &str, out: &MasparOutcome) -> String {
    let cost = CostModel::default();
    let mut text = String::new();
    for p in &out.phases {
        writeln!(text, "{label} {} {}", p.name, stats_line(&p.stats, &cost)).unwrap();
    }
    writeln!(
        text,
        "{label} total {} est={:016x} virt={} iters={} removed={:?} recovery={}/{}/{}",
        stats_line(&out.stats, &cost),
        out.estimated_seconds.to_bits(),
        out.virt_factor,
        out.filter_iterations_run,
        out.removals_per_iteration,
        out.recovery.probes,
        out.recovery.verified_phases,
        out.recovery.phase_retries,
    )
    .unwrap();
    text
}

/// Every pinned run, rendered one line per phase.
fn render_all() -> String {
    let g = english::grammar();
    let mut text = String::new();
    for n in [3usize, 9, 14] {
        let s = english_sentence(&g, n);
        let out = parse_maspar_checked(&g, &s, &MasparOptions::default()).expect("parses");
        text.push_str(&render(&format!("n={n}"), &out));
    }
    let s = english_sentence(&g, 9);
    let phys = MasparOptions::default().machine.phys_pes;
    let opts = MasparOptions {
        faults: Some(FaultPlan::seeded(FAULT_SEED, phys, FAULT_HORIZON_OPS)),
        ..Default::default()
    };
    let out = parse_maspar_checked(&g, &s, &opts).expect("the seeded plan is recoverable");
    text.push_str(&render("n=9+faults", &out));
    text
}

#[test]
fn simulated_costs_match_the_golden_figures() {
    let actual = render_all();
    let want: Vec<&str> = GOLDEN.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    for (i, (w, a)) in want.iter().zip(&got).enumerate() {
        assert_eq!(a, w, "golden line {} differs", i + 1);
    }
    assert_eq!(
        got.len(),
        want.len(),
        "phase count changed; first extra line: {:?}",
        got.get(want.len()).or(want.get(got.len()))
    );
}

#[test]
fn the_fixture_covers_three_virtualization_factors_and_faults() {
    for needle in ["virt=1 ", "virt=2 ", "virt=10 "] {
        assert!(GOLDEN.contains(needle), "no pinned run with {needle}");
    }
    let faulted = GOLDEN
        .lines()
        .find(|l| l.starts_with("n=9+faults total"))
        .expect("faulted run pinned");
    assert!(
        !faulted.contains(" dead=0 ") && !faulted.contains(" flips=0 "),
        "the faulted run must exercise dead-PE skips and memory flips: {faulted}"
    );
}
