//! The default filter is the blocked-BMM core, and it is bit-identical to
//! the two oracle filters on long inputs: English n=16–28 and aⁿbⁿ /
//! brackets n=24–48, plus scrambled rejects — the shapes where filtering
//! dominates the parse. Every engine that runs the default filter is
//! covered: Sequential cold and warm, and PRAM at 1 and 2 threads.
//!
//! Checked per input: alive-set digests, acceptance of every role, and
//! filter pass counts agree across `default` ≡ `Incremental` ≡ `Naive`;
//! the default's `NetStats` equal the incremental oracle's field for field
//! except the observational `bmm_tiles`/`bmm_words` (on PRAM, whose
//! oracle is a per-pass support scan with no counter build, also except
//! `support_inits`).

use cdg_core::parser::{parse, ParseOptions};
use cdg_core::{
    Engine, FilterStrategy, NetStats, Network, ParseOutcome, ParseRequest, Sequential, WarmState,
};
use cdg_grammar::grammars::formal;
use cdg_grammar::{Grammar, Lexicon, Sentence};
use cdg_parallel::parse_pram;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Long inputs for one grammar, each rejected scramble marked.
struct Case {
    grammar: Grammar,
    sentences: Vec<(Sentence, &'static str)>,
}

/// The first of `scramble(0)`, `scramble(1)`, … whose settled network
/// empties some role. Rejects whose roles all survive would send
/// extraction into exhaustive backtracking; an emptied role keeps the
/// engine API's extraction step trivial.
fn refuted(grammar: &Grammar, scramble: impl Fn(u64) -> Sentence) -> Sentence {
    (0..64)
        .map(scramble)
        .find(|s| !parse(grammar, s, ParseOptions::default()).roles_nonempty)
        .expect("some scramble empties a role")
}

fn english_case() -> Case {
    let (grammar, lex): (Grammar, Lexicon) = corpus::standard_setup();
    let mut sentences = Vec::new();
    for (k, n) in [16usize, 22, 28].into_iter().enumerate() {
        let s = corpus::english_sentence(&grammar, &lex, n, 0xB47C + k as u64);
        let reject = refuted(&grammar, |j| corpus::scrambled(&lex, &s, 31 * k as u64 + j));
        sentences.push((s, "english"));
        sentences.push((reject, "english scramble"));
    }
    Case { grammar, sentences }
}

fn formal_case(
    grammar: Grammar,
    text: fn(usize) -> String,
    sentence: fn(&Grammar, &str) -> Sentence,
    name: &'static str,
) -> Case {
    let mut sentences = Vec::new();
    for len in [24usize, 48] {
        sentences.push((sentence(&grammar, &text(len / 2)), name));
    }
    let chars: Vec<char> = text(16).chars().collect();
    let reject = refuted(&grammar, |j| {
        let mut c = chars.clone();
        c.shuffle(&mut SmallRng::seed_from_u64(j));
        sentence(&grammar, &c.into_iter().collect::<String>())
    });
    sentences.push((reject, "formal scramble"));
    Case { grammar, sentences }
}

fn cases() -> Vec<Case> {
    vec![
        english_case(),
        formal_case(
            formal::anbn_grammar(),
            corpus::formal::anbn,
            formal::anbn_sentence,
            "anbn",
        ),
        formal_case(
            formal::brackets_grammar(),
            corpus::formal::nested_brackets,
            formal::brackets_sentence,
            "brackets",
        ),
    ]
}

fn with_strategy(filter_strategy: FilterStrategy) -> ParseOptions {
    ParseOptions {
        filter_strategy,
        ..ParseOptions::default()
    }
}

/// FNV-1a over every slot's alive role-value indices.
fn alive_digest(net: &Network<'_>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for slot in net.slots() {
        for i in slot.alive_indices() {
            eat(i as u64);
        }
        eat(u64::MAX);
    }
    h
}

/// `stats` with the two observational BMM counters zeroed.
fn without_bmm(mut stats: NetStats) -> NetStats {
    stats.bmm_tiles = 0;
    stats.bmm_words = 0;
    stats
}

/// What every engine and strategy must agree on.
#[derive(Debug, PartialEq, Eq)]
struct Settled {
    digest: u64,
    roles_nonempty: bool,
    filter_passes: usize,
}

fn settled(outcome: &ParseOutcome<'_>) -> Settled {
    Settled {
        digest: alive_digest(&outcome.network),
        roles_nonempty: outcome.roles_nonempty,
        filter_passes: outcome.filter_passes,
    }
}

#[test]
fn the_default_filter_is_bmm() {
    assert_eq!(FilterStrategy::default(), FilterStrategy::Bmm);
    assert_eq!(ParseOptions::default().filter_strategy, FilterStrategy::Bmm);
    assert_eq!(
        cdg_core::EngineConfig::default().filter,
        FilterStrategy::Bmm
    );
    // A default Sequential parse runs the tile kernels: a long English
    // sentence's dense arcs cross the tile threshold.
    let (g, lex) = corpus::standard_setup();
    let s = corpus::english_sentence(&g, &lex, 28, 0xB47C);
    let report = Sequential
        .parse(&ParseRequest::new(&g).sentence(s))
        .expect("default parse");
    assert!(
        report.network.stats.bmm_tiles > 0,
        "default Sequential parse ran no BMM tiles: {:?}",
        report.network.stats
    );
}

#[test]
fn sequential_cold_and_warm_default_matches_both_oracles() {
    for case in cases() {
        let g = &case.grammar;
        let mut warm = WarmState::new();
        for (s, kind) in &case.sentences {
            let label = format!("{kind} n={} `{s}`", s.len());
            let default = parse(g, s, ParseOptions::default());
            let incremental = parse(g, s, with_strategy(FilterStrategy::Incremental));
            let naive = parse(g, s, with_strategy(FilterStrategy::Naive));
            assert_eq!(settled(&default), settled(&incremental), "{label}");
            assert_eq!(settled(&default), settled(&naive), "{label}");
            assert_eq!(
                without_bmm(default.network.stats),
                without_bmm(incremental.network.stats),
                "default stats diverged from incremental: {label}"
            );
            assert!(default.network.stats.bmm_words > 0, "{label}");
            assert_eq!(incremental.network.stats.bmm_words, 0, "{label}");

            // Warm: one state carried across the grammar's inputs.
            let req = ParseRequest::new(g).sentence(s.clone());
            let mut hot = Sequential.parse_warm(&req, &mut warm).expect("warm parse");
            assert_eq!(
                alive_digest(&hot.network),
                settled(&default).digest,
                "{label}"
            );
            assert_eq!(hot.roles_nonempty, default.roles_nonempty, "{label}");
            assert_eq!(hot.filter_passes, default.filter_passes, "{label}");
            assert_eq!(
                hot.network.stats, default.network.stats,
                "warm stats diverged from cold: {label}"
            );
            warm.recycle_report(&mut hot);
        }
        assert!(warm.bmm_reuses() > 0, "no warm BMM buffer reuse");
    }
}

#[test]
fn pram_default_matches_the_oracles_at_one_and_two_threads() {
    // The only test in this binary that sets the process-global rayon
    // thread count.
    for case in cases() {
        let g = &case.grammar;
        for (s, kind) in &case.sentences {
            let label = format!("{kind} n={} `{s}`", s.len());
            let want = settled(&parse(g, s, with_strategy(FilterStrategy::Incremental)));
            for threads in [1usize, 2] {
                rayon::set_num_threads(threads);
                // PRAM's oracle strategies both run the per-pass support
                // scan, which builds no counters.
                let got = parse_pram(g, s, ParseOptions::default());
                let scan = parse_pram(g, s, with_strategy(FilterStrategy::Incremental));
                for (engine, out) in [("pram bmm", &got), ("pram scan", &scan)] {
                    let seen = Settled {
                        digest: alive_digest(&out.network),
                        roles_nonempty: out.roles_nonempty,
                        filter_passes: out.filter_passes,
                    };
                    assert_eq!(seen, want, "{engine} at {threads} threads: {label}");
                }
                // Beyond the bmm_* counters, only the counter build's
                // `support_inits` may differ.
                assert!(got.network.stats.bmm_words > 0, "{label}");
                let mut stats = without_bmm(got.network.stats);
                assert!(stats.support_inits > 0, "{label}");
                stats.support_inits = scan.network.stats.support_inits;
                assert_eq!(stats, scan.network.stats, "pram stats: {label}");
            }
        }
    }
}
