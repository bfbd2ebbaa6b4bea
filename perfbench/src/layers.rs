//! The traced run: per-layer numbers taken by timing calls into each
//! module's public functions from outside, with a span recorded around
//! every call. Nothing inside the program is instrumented.
//!
//! Every workload probes every layer on its own inputs, so each per-layer
//! timing is a measurement on every workload; counts of a layer the
//! workload never reaches are 0.

use crate::inputs::{self, Expect, Grammars, Item, Lang, ENGINE_MAX_PARSES, SERVE_MAX_PARSES};
use crate::measure::{median, median_us, ms, quantile, us, Outcome, Spans};
use crate::serve;
use crate::workloads::{self, rounds, Run, Session};
use crate::PER_LAYER;
use cdg_core::api::{Engine, ParseRequest, Sequential, WarmState};
use cdg_core::extract::{has_parse, precedence_graphs};
use cdg_core::{consistency, propagate, EvalStrategy, FilterStrategy, NetStats, Network};
use cdg_grammar::CompiledGrammar;
use maspar_sim::CostModel;
use parsec_maspar::{parse_maspar_checked, MasparOptions, MasparOutcome};
use parsec_serve::ServerHandle;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sentences a probe samples from a workload's inputs, and how long a
/// time-bounded probe runs.
pub const PROBE_SENTENCES: usize = 48;
const PROBE_TIME: Duration = Duration::from_millis(800);

/// The simulated figures of one MasPar parse (the outcome itself holds a
/// word per virtual PE, too much to keep a round of).
struct Simulated {
    seconds: f64,
    /// MP-1 seconds of the init, unary, binary and maintenance phases.
    phases: [f64; 4],
    plural_slices: u64,
    scan_passes: u64,
    router_slices: u64,
    virt_factor: u64,
    peak_pe_bytes: usize,
}

impl Simulated {
    fn of(out: &MasparOutcome, cost: &CostModel) -> Self {
        let phase = |prefix: &str| -> f64 {
            out.phases
                .iter()
                .filter(|p| p.name.starts_with(prefix))
                .map(|p| p.stats.estimated_seconds(cost))
                .sum()
        };
        Simulated {
            seconds: out.estimated_seconds,
            phases: [
                phase("init"),
                phase("unary"),
                phase("binary"),
                phase("maintain"),
            ],
            plural_slices: out.stats.plural_slices,
            scan_passes: out.stats.scan_passes,
            router_slices: out.stats.router_slices,
            virt_factor: out.virt_factor,
            peak_pe_bytes: out.stats.peak_pe_memory_bytes,
        }
    }
}

pub struct Layers {
    /// Abstract work of the workload's input set (oracle cold parses).
    work: NetStats,
    values: BTreeMap<&'static str, f64>,
    /// Answers checked by the probes themselves.
    pub attempted: u64,
    pub failed: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    pub fn new(work: NetStats) -> Self {
        Layers {
            work,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn absorb(&mut self, run: &Run) {
        self.attempted += run.attempted;
        self.failed += run.failed;
    }

    /// `trace.overhead_pct`: how much slower the traced loop ran than the
    /// untraced one, in percent of the traced throughput.
    pub fn overhead(&mut self, plain: f64, traced: f64) {
        self.set("trace.overhead_pct", (plain / traced - 1.0) * 100.0);
    }

    /// `grammar.*`: loading the workload's grammars and lexicon, and a
    /// cold `CompiledGrammar::build` of each.
    pub fn grammar(&mut self, with_formal: bool) {
        let load = median_us(5, || drop(Grammars::load(with_formal)));
        let gs = Grammars::load(with_formal);
        let compile = median_us(5, || {
            for g in gs.all() {
                drop(CompiledGrammar::build(g));
            }
        });
        self.set("grammar.load_ms", load / 1e3);
        self.set("grammar.compile_ms", compile / 1e3);
    }

    /// `core.*` phase times: the sequential pipeline called step by step
    /// (build, unary, arc init, binary, default-strategy filter, extract)
    /// in whole rounds over `items` for `budget`. Returns the loop's run.
    pub fn core_rounds(
        &mut self,
        gs: &Grammars,
        items: &[Item],
        compiled: impl Fn(Lang) -> Arc<CompiledGrammar>,
        budget: Duration,
        spans: &mut Spans,
    ) -> Run {
        const PHASES: [&str; 6] = [
            "core.build",
            "core.unary",
            "core.arc_init",
            "core.binary",
            "core.filter",
            "core.extract",
        ];
        let strategy = FilterStrategy::default().resolve(EvalStrategy::default());
        let mut totals = [Duration::ZERO; 6];
        let run = rounds(items, budget, 1, true, |item, run| {
            let g = gs.get(item.lang);
            let mut t = [Instant::now(); 7];
            let mut net = Network::build(g, &item.sentence);
            net.compiled = Some(compiled(item.lang));
            t[1] = Instant::now();
            propagate::apply_all_unary(&mut net);
            t[2] = Instant::now();
            net.init_arcs();
            t[3] = Instant::now();
            propagate::apply_all_binary(&mut net);
            t[4] = Instant::now();
            let filtered = match strategy {
                FilterStrategy::Bmm => consistency::filter_bmm(&mut net, usize::MAX).map(drop),
                FilterStrategy::Incremental => {
                    consistency::filter_incremental(&mut net, usize::MAX).map(drop)
                }
                _ => {
                    consistency::filter(&mut net, usize::MAX);
                    Ok(())
                }
            };
            t[5] = Instant::now();
            let parses = precedence_graphs(&net, ENGINE_MAX_PARSES);
            t[6] = Instant::now();
            let root = spans.record("core.sentence", None, t[0], t[6]);
            for (k, name) in PHASES.iter().enumerate() {
                totals[k] += t[k + 1] - t[k];
                spans.record(name, root, t[k], t[k + 1]);
            }
            let got = filtered.map(|()| {
                let accepted = net.all_roles_nonempty() && has_parse(&net);
                inputs::observe(&net, accepted, parses.len())
            });
            run.verify(got, &item.expect, "stepwise pipeline");
            t[6] - t[0]
        });
        let per = |d: Duration| ms(d) / run.attempted as f64;
        self.set("core.build_ms", per(totals[0]));
        self.set("core.unary_ms", per(totals[1]));
        self.set("core.arc_init_ms", per(totals[2]));
        self.set("core.binary_ms", per(totals[3]));
        self.set("core.filter_ms", per(totals[4]));
        self.set("core.extract_ms", per(totals[5]));
        run
    }

    /// [`Self::core_rounds`] as a short probe on a workload whose timed
    /// loop is elsewhere.
    pub fn core_probe(
        &mut self,
        gs: &Grammars,
        items: &[Item],
        compiled: impl Fn(Lang) -> Arc<CompiledGrammar>,
        spans: &mut Spans,
    ) {
        let run = self.core_rounds(gs, items, compiled, PROBE_TIME, spans);
        self.absorb(&run);
    }

    /// `core.warm_pool_reuse_ratio`: arc matrices re-acquired from the
    /// warm pool per acquire, over one warm pass of `items` on a fresh
    /// `WarmState`.
    pub fn warm_reuse(
        &mut self,
        gs: &Grammars,
        items: &[Item],
        compiled: impl Fn(Lang) -> Arc<CompiledGrammar>,
    ) {
        let mut warm = WarmState::new();
        for item in items {
            let req = ParseRequest::new(gs.get(item.lang))
                .sentence(item.sentence.clone())
                .compiled(compiled(item.lang));
            self.attempted += 1;
            match Sequential.parse_warm(&req, &mut warm) {
                Ok(mut rep)
                    if inputs::observe(&rep.network, rep.accepted, rep.parses.len())
                        == item.expect =>
                {
                    warm.recycle_report(&mut rep);
                }
                _ => self.failed += 1,
            }
        }
        let pool = warm.pool_stats();
        self.set(
            "core.warm_pool_reuse_ratio",
            ratio(pool.reuses as f64, pool.acquires as f64),
        );
    }

    /// `mp1.*` and `sim.*`: `parse_maspar_checked`, the host readback and
    /// extraction, timed separately, in whole rounds over `items` for
    /// `budget`. Simulated figures come from the first round.
    pub fn maspar_rounds(
        &mut self,
        gs: &Grammars,
        items: &[Item],
        budget: Duration,
        spans: &mut Spans,
    ) -> Run {
        let opts = MasparOptions::default();
        let cost = &opts.machine.cost;
        let mut sim_ns = 0u128;
        let mut slices = 0u64;
        let mut first: Vec<Simulated> = Vec::new();
        let run = rounds(items, budget, 1, true, |item, run| {
            let g = gs.get(item.lang);
            let t0 = Instant::now();
            let got = parse_maspar_checked(g, &item.sentence, &opts).map(|out| {
                let t1 = Instant::now();
                let net = out.to_network(g, &item.sentence);
                let t2 = Instant::now();
                let parses = precedence_graphs(&net, ENGINE_MAX_PARSES);
                let t3 = Instant::now();
                let root = spans.record("maspar.parse", None, t0, t3);
                spans.record("maspar.simulate", root, t0, t1);
                spans.record("maspar.readback", root, t1, t2);
                spans.record("core.extract", root, t2, t3);
                sim_ns += (t1 - t0).as_nanos();
                slices += out.stats.plural_slices;
                if first.len() < items.len() {
                    first.push(Simulated::of(&out, cost));
                }
                inputs::observe(&net, !parses.is_empty(), parses.len())
            });
            run.verify(got, &item.expect, "maspar");
            t0.elapsed()
        });
        let n = first.len().max(1) as f64;
        let mean = |f: fn(&Simulated) -> f64| first.iter().map(f).sum::<f64>() / n;
        let total = |f: fn(&Simulated) -> u64| first.iter().map(f).sum::<u64>() as f64;
        self.set("mp1.s_per_sentence", mean(|s| s.seconds));
        self.set("mp1.init_s", mean(|s| s.phases[0]));
        self.set("mp1.unary_s", mean(|s| s.phases[1]));
        self.set("mp1.binary_s", mean(|s| s.phases[2]));
        self.set("mp1.maintain_s", mean(|s| s.phases[3]));
        self.set("sim.plural_slices", total(|s| s.plural_slices));
        self.set("sim.scan_passes", total(|s| s.scan_passes));
        self.set("sim.router_slices", total(|s| s.router_slices));
        self.set("sim.virt_factor", mean(|s| s.virt_factor as f64));
        let peak = first.iter().map(|s| s.peak_pe_bytes).max().unwrap_or(0);
        self.set("sim.peak_pe_bytes", peak as f64);
        self.set("sim.host_ns_per_slice", ratio(sim_ns as f64, slices as f64));
        run
    }

    /// [`Self::maspar_rounds`], one round, as a probe.
    pub fn maspar(&mut self, gs: &Grammars, items: &[Item], spans: &mut Spans) {
        let run = self.maspar_rounds(gs, items, Duration::ZERO, spans);
        self.absorb(&run);
    }

    /// `serve.decode_us` (`wire::parse_request`) and `serve.render_us`
    /// (`render_fields` of an `OK` line), per call, on `texts`.
    pub fn wire(&mut self, texts: &[String]) {
        let lines: Vec<String> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let class = if i % 5 == 0 { "class=interactive " } else { "" };
                format!("PARSE {class}-- {t}")
            })
            .collect();
        let phys = maspar_sim::MachineConfig::default().phys_pes;
        let reps = 21;
        let decode = median_us(reps, || {
            for line in &lines {
                std::hint::black_box(parsec_serve::parse_request(line, phys).is_ok());
            }
        });
        let render = median_us(reps, || {
            for (i, _) in lines.iter().enumerate() {
                let fields = [
                    ("accepted", "true".to_string()),
                    ("ambiguous", (i % 2 == 0).to_string()),
                    ("parses", (i % 4).to_string()),
                    ("passes", "3".to_string()),
                    ("engine", "serial".to_string()),
                    ("class", "standard".to_string()),
                ];
                std::hint::black_box(parsec_serve::render_fields("OK", &fields));
            }
        });
        self.set("serve.decode_us", decode / lines.len() as f64);
        self.set("serve.render_us", render / lines.len() as f64);
    }

    /// `serve.*` from one open+closed session on a running server: service
    /// time from each reply's `wall_us`, queue and wire wait as client
    /// latency minus `wall_us`, PING round trips, and the `STATS` ledger
    /// deltas across the session.
    pub fn serve_session(
        &mut self,
        handle: &ServerHandle,
        requests: &Arc<Vec<inputs::Request>>,
        expects: &Arc<Vec<Expect>>,
        rate: f64,
        phase: Duration,
        spans: &mut Spans,
    ) -> Session {
        let addr = handle.addr();
        let before = serve::stats(addr).expect("STATS");
        let s = workloads::session(handle, requests, expects, rate, phase);
        let after = serve::stats(addr).expect("STATS");
        let delta = |k: &str| -> f64 {
            let get = |f: &[(String, String)]| {
                f.iter()
                    .find(|(key, _)| key == k)
                    .and_then(|(_, v)| v.parse::<f64>().ok())
                    .unwrap_or(0.0)
            };
            get(&after) - get(&before)
        };
        let mut service = Vec::new();
        let mut wait = Vec::new();
        for x in &s.open.samples {
            let end = x.start + x.latency;
            let root = spans.record("serve.request", None, x.start, end);
            if let Some(wall) = x.wall_us {
                let wall = Duration::from_micros(wall);
                service.push(ms(wall));
                wait.push(ms(x.latency.saturating_sub(wall)));
                spans.record("serve.service", root, end - wall.min(x.latency), end);
            }
        }
        let interactive: Vec<f64> = s
            .open
            .samples
            .iter()
            .filter(|x| x.interactive)
            .map(|x| ms(x.latency))
            .collect();
        let pings: Vec<f64> = serve::ping_rtts(addr, 200)
            .expect("PING")
            .into_iter()
            .map(us)
            .collect();
        self.set("serve.service_ms.p50", quantile(&service, 0.5));
        self.set("serve.service_ms.p99", quantile(&service, 0.99));
        self.set("serve.wait_ms.p50", quantile(&wait, 0.5));
        self.set("serve.wait_ms.p99", quantile(&wait, 0.99));
        self.set("serve.ping_us.p50", median(&pings));
        let hits = delta("cache_hits");
        self.set(
            "serve.cache_hit_ratio",
            ratio(hits, hits + delta("cache_misses")),
        );
        self.set("serve.shed", delta("shed"));
        self.set("serve.timeouts", delta("timeouts"));
        self.set("serve.warm_reuses", delta("warm_reuses"));
        self.set("serve.gen_lag_ms.p99", ms(s.gen_lag_p99()));
        self.set("serve.interactive_p99_ms", quantile(&interactive, 0.99));
        self.attempted += s.open.attempted + s.closed.attempted;
        self.failed += s.open.failed + s.closed.failed;
        s
    }

    /// The serve layer on a batch workload's English inputs: a server on
    /// `engine`, a short closed loop to find its capacity, then a session
    /// on a fresh server with the open loop at half that rate.
    pub fn serve_probe(
        &mut self,
        gs: &Grammars,
        sentences: Vec<cdg_grammar::Sentence>,
        engine: &str,
        spans: &mut Spans,
    ) {
        let expects: Vec<Expect> = sentences
            .iter()
            .map(|s| inputs::oracle(&gs.english, s, SERVE_MAX_PARSES).0)
            .collect();
        let requests: Vec<inputs::Request> = sentences
            .iter()
            .enumerate()
            .map(|(i, s)| inputs::Request {
                text: inputs::text_of(s),
                interactive: i % 5 == 0,
                expect: i,
            })
            .collect();
        let (requests, expects) = (Arc::new(requests), Arc::new(expects));
        let handle = workloads::start_server(engine);
        let capacity = serve::closed_loop(
            handle.addr(),
            Arc::clone(&requests),
            Arc::clone(&expects),
            0,
            PROBE_TIME / 2,
            2,
        )
        .expect("probe connections");
        handle.shutdown();
        self.attempted += capacity.attempted;
        self.failed += capacity.failed;
        // Cache hits cost nothing, so capacity counts the parsed replies.
        let parsed = capacity
            .samples
            .iter()
            .filter(|s| s.wall_us.is_some())
            .count();
        let rate = (0.5 * parsed as f64 / capacity.elapsed.as_secs_f64()).max(1.0);
        // A fresh server, so the session starts with a cold response cache.
        let handle = workloads::start_server(engine);
        let s = self.serve_session(&handle, &requests, &expects, rate, PROBE_TIME, spans);
        handle.shutdown();
        s.assert_valid();
    }

    /// `rayon.*`: a no-op `join` and a 64-element map/collect, at the
    /// pinned thread count.
    pub fn rayon(&mut self) {
        let join = median_us(2001, || {
            std::hint::black_box(rayon::join(|| 1u64, || 2u64));
        });
        let data: Vec<u64> = (0..64).collect();
        let map = median_us(501, || {
            let v: Vec<u64> = data
                .par_iter()
                .map(|x| x.wrapping_mul(2_654_435_761))
                .collect();
            std::hint::black_box(v);
        });
        self.set("rayon.join_us", join);
        self.set("rayon.par_iter_us", map);
    }

    /// Push every per-layer metric, in `PER_LAYER` order.
    pub fn emit(mut self, out: &mut Outcome) {
        let w = self.work;
        let counts = [
            ("core.unary_checks", w.unary_checks),
            ("core.binary_checks", w.binary_checks),
            ("core.support_checks", w.support_checks),
            ("core.filter_passes", w.maintain_passes),
            ("core.arc_entries", w.arc_entries_initialized),
            ("core.removals", w.removals),
            ("bitmat.bmm_tiles", w.bmm_tiles),
            ("bitmat.bmm_words", w.bmm_words),
        ];
        for (name, v) in counts {
            self.set(name, v as f64);
        }
        let memo = w.kernel_memo_hits as f64;
        self.set(
            "core.memo_hit_ratio",
            ratio(memo, memo + w.binary_checks as f64),
        );
        for &(name, unit) in PER_LAYER {
            let value = self.values.get(name).copied().unwrap_or_else(|| {
                eprintln!("perfbench: per-layer metric `{name}` was not measured");
                out.failed += 1;
                0.0
            });
            out.push(name, value, unit);
        }
    }
}
