//! The three workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics).
//!
//! Production defaults throughout: default filter strategy, batch
//! strategy, packed MasPar, serve coalescing and response cache. Only the
//! thread, worker and shard counts are pinned (see `main.rs`).

use crate::inputs::{self, Expect, Grammars, Item, Lang, ENGINE_MAX_PARSES, SERVE_MAX_PARSES};
use crate::layers::{self, Layers};
use crate::measure::{affinity, median, ms, peak_rss_mb, quantile, Outcome, Spans};
use crate::serve;
use crate::{SERVE_WORKERS, SHARDS};
use cdg_core::api::{Engine, ParseRequest, Sequential, WarmState};
use cdg_core::EngineError;
use cdg_grammar::CompiledGrammar;
use parsec_maspar::Maspar;
use parsec_serve::{ServeConfig, Server, ServerHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Fewest rounds a timed loop runs, so every per-input median has
/// company.
const MIN_ROUNDS: usize = 5;

/// serve-short open-loop rate, requests/s: about half the closed-loop
/// throughput measured on the committed seed (about 4400/s on 2 shared
/// vCPUs, 2 workers).
const OPEN_LOOP_RATE: f64 = 2200.0;
/// Pipelined connections of the open-loop generator, and closed-loop
/// clients.
const OPEN_LOOP_CONNS: usize = 2;
const CLOSED_LOOP_CONNS: usize = 2;
/// An open-loop run is invalid when the generator's p99 send lag exceeds
/// this: its due-time latencies would then describe the client, not the
/// server.
const MAX_GEN_LAG_P99: Duration = Duration::from_millis(20);
/// Window of the serve-short medians (see [`Session::latency`]).
const SERVE_WINDOW: Duration = Duration::from_secs(1);

/// Run `setup` `SETUP_REPS` times from a cold compiled-grammar registry,
/// tearing down each previous result first; returns the set-up time in
/// seconds — the median, or with `rotate` the mean over CPUs of per-CPU
/// medians (see [`rounds`]) — and the last result.
fn timed_setup<T>(
    rotate: bool,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (f64, T) {
    let allowed = affinity::allowed();
    let slots = rotation(rotate, &allowed);
    let mut times = vec![Vec::new(); slots.len()];
    let mut last = None;
    for rep in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let slot = rep % slots.len();
        if let Some(cpu) = slots[slot] {
            affinity::set(&[cpu]);
        }
        cdg_grammar::compiled::evict_all();
        let t = Instant::now();
        let v = setup();
        times[slot].push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    if slots.len() > 1 {
        affinity::set(&allowed);
    }
    (per_input(&times), last.expect("at least one set-up"))
}

/// Loaded grammars plus their compiled artifacts (one per language).
struct Loaded {
    gs: Grammars,
    compiled: Vec<(Lang, Arc<CompiledGrammar>)>,
}

impl Loaded {
    fn load(with_formal: bool) -> Self {
        let gs = Grammars::load(with_formal);
        let mut langs = vec![Lang::English];
        if with_formal {
            langs.extend([Lang::Anbn, Lang::Brackets]);
        }
        let compiled = langs
            .into_iter()
            .map(|l| (l, cdg_core::resolve_compiled(gs.get(l))))
            .collect();
        Loaded { gs, compiled }
    }

    fn compiled(&self, lang: Lang) -> Arc<CompiledGrammar> {
        let (_, c) = self
            .compiled
            .iter()
            .find(|(l, _)| *l == lang)
            .expect("compiled");
        Arc::clone(c)
    }
}

/// Most CPUs a rotation visits, so that a many-core host does not
/// multiply the rounds a run needs.
const MAX_ROTATION: usize = 4;

/// The CPU each rotation slot pins to: up to `MAX_ROTATION` allowed CPUs,
/// or one unpinned slot when `rotate` is off or only one CPU is allowed.
fn rotation(rotate: bool, allowed: &[usize]) -> Vec<Option<usize>> {
    if rotate && allowed.len() > 1 {
        allowed
            .iter()
            .take(MAX_ROTATION)
            .copied()
            .map(Some)
            .collect()
    } else {
        vec![None]
    }
}

/// Answers and per-input timings of one timed loop.
///
/// This benchmark runs on shared vCPUs whose speed drifts and stalls from
/// second to second, so each input's figures are medians over the rounds
/// that repeated it: a stall inflates one repetition, not the figure.
/// When the loop rotates over CPUs (see [`affinity`]), an input's figure
/// is the mean over CPUs of its per-CPU medians.
#[derive(Default)]
pub struct Run {
    /// Per input, per CPU slot: engine-call latency of each round, ms.
    latency: Vec<Vec<Vec<f64>>>,
    /// Per input, per CPU slot: host time of each round's full step
    /// (call, oracle check, recycling), s.
    cost: Vec<Vec<Vec<f64>>>,
    pub attempted: u64,
    pub failed: u64,
}

/// Mean over CPU slots of the per-slot median.
fn per_input(slots: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = slots
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

impl Run {
    /// Inputs answered and verified per host second: the set's size over
    /// the sum of its inputs' step times.
    pub fn throughput(&self) -> f64 {
        let total: f64 = self.cost.iter().map(|c| per_input(c)).sum();
        self.cost.len() as f64 / total
    }

    /// The `q` quantile, over inputs, of each input's latency.
    pub fn latency(&self, q: f64) -> f64 {
        let per: Vec<f64> = self.latency.iter().map(|l| per_input(l)).collect();
        quantile(&per, q)
    }

    pub fn samples(&self) -> usize {
        self.latency.iter().flatten().map(Vec::len).sum()
    }

    /// Count one answer, wrong if it differs from the oracle's or the
    /// engine returned an error.
    pub fn verify(&mut self, got: Result<Expect, EngineError>, want: &Expect, what: &str) {
        self.attempted += 1;
        match got {
            Ok(got) if got == *want => {}
            Ok(got) => {
                self.failed += 1;
                eprintln!("perfbench: oracle mismatch on {what}: got {got:?}, expected {want:?}");
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
            }
        }
    }
}

/// Cycle through `items` in whole rounds until `budget` is spent (at
/// least `min_rounds`), calling `one` per item; `one` returns the
/// engine-call latency it measured. With `rotate`, round `r` runs pinned
/// to the `r`-th allowed CPU (cyclically). Threads spawned inside inherit
/// the pin: maspar-cliffs' two rayon threads share one CPU per round, so
/// its figures carry the fan-out's cost but no parallel speed-up. On a
/// shared 2-vCPU host a fork-join across vCPUs waits on the slower one,
/// and one noisy neighbour halved maspar-cliffs throughput for minutes.
pub fn rounds(
    items: &[Item],
    budget: Duration,
    min_rounds: usize,
    rotate: bool,
    mut one: impl FnMut(&Item, &mut Run) -> Duration,
) -> Run {
    let allowed = affinity::allowed();
    let slots = rotation(rotate, &allowed);
    let mut run = Run {
        latency: vec![vec![Vec::new(); slots.len()]; items.len()],
        cost: vec![vec![Vec::new(); slots.len()]; items.len()],
        ..Run::default()
    };
    let start = Instant::now();
    let mut done = 0;
    while done < min_rounds.max(slots.len()) || start.elapsed() < budget {
        let slot = done % slots.len();
        if let Some(cpu) = slots[slot] {
            affinity::set(&[cpu]);
        }
        for (i, item) in items.iter().enumerate() {
            let t = Instant::now();
            let latency = one(item, &mut run);
            run.cost[i][slot].push(t.elapsed().as_secs_f64());
            run.latency[i][slot].push(ms(latency));
        }
        done += 1;
    }
    if slots.len() > 1 {
        affinity::set(&allowed);
    }
    run
}

fn end_to_end(out: &mut Outcome, setup_s: f64, throughput: f64, p50: f64, p99: f64) {
    out.push("setup_s", setup_s, "s");
    out.push("throughput_sps", throughput, "sentences/s");
    out.push("latency_p50_ms", p50, "ms");
    out.push("latency_p99_ms", p99, "ms");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
}

fn outcome(attempted: u64, failed: u64) -> Outcome {
    Outcome {
        attempted,
        failed,
        metrics: Vec::new(),
    }
}

// ---------------------------------------------------------------- batch-long

fn batch_call(loaded: &Loaded, warm: &mut WarmState, item: &Item, run: &mut Run) -> Duration {
    let req = ParseRequest::new(loaded.gs.get(item.lang))
        .sentence(item.sentence.clone())
        .compiled(loaded.compiled(item.lang));
    let t = Instant::now();
    let report = Sequential.parse_warm(&req, warm);
    let latency = t.elapsed();
    let got = report.map(|mut rep| {
        let got = inputs::observe(&rep.network, rep.accepted, rep.parses.len());
        warm.recycle_report(&mut rep);
        got
    });
    run.verify(got, &item.expect, "batch-long");
    latency
}

pub fn batch_long(seed: u64, seconds: f64, trace: bool, spans: &mut Spans) -> Outcome {
    let (setup_s, (loaded, mut warm)) =
        timed_setup(true, || (Loaded::load(true), WarmState::new()), drop);
    let (items, work) = inputs::with_oracle(
        &loaded.gs,
        inputs::batch_long(&loaded.gs, seed),
        ENGINE_MAX_PARSES,
    );
    let budget = Duration::from_secs_f64(seconds);
    if !trace {
        let run = rounds(&items, budget, MIN_ROUNDS, true, |item, run| {
            batch_call(&loaded, &mut warm, item, run)
        });
        eprintln!(
            "batch-long: {} inputs, {} latency samples",
            items.len(),
            run.samples()
        );
        let mut out = outcome(run.attempted, run.failed);
        end_to_end(
            &mut out,
            setup_s,
            run.throughput(),
            run.latency(0.5),
            run.latency(0.99),
        );
        return out;
    }
    let half = budget / 2;
    let plain = rounds(&items, half, MIN_ROUNDS, true, |item, run| {
        batch_call(&loaded, &mut warm, item, run)
    });
    let mut layers = Layers::new(work);
    let traced = layers.core_rounds(&loaded.gs, &items, |l| loaded.compiled(l), half, spans);
    layers.overhead(plain.throughput(), traced.throughput());
    layers.grammar(true);
    layers.warm_reuse(&loaded.gs, &items, |l| loaded.compiled(l));
    let english: Vec<_> = items.iter().filter(|i| i.lang == Lang::English).collect();
    let maspar_probe: Vec<_> = [16, 18]
        .iter()
        .map(|&n| {
            (
                Lang::English,
                inputs::unambiguous_english(&loaded.gs, n, seed),
            )
        })
        .collect();
    layers.maspar(
        &loaded.gs,
        &inputs::with_oracle(&loaded.gs, maspar_probe, ENGINE_MAX_PARSES).0,
        spans,
    );
    let probe_texts: Vec<String> = items.iter().map(|i| inputs::text_of(&i.sentence)).collect();
    layers.wire(&probe_texts);
    layers.serve_probe(
        &loaded.gs,
        english.iter().map(|i| i.sentence.clone()).collect(),
        "serial",
        spans,
    );
    layers.rayon();
    let mut out = outcome(
        plain.attempted + traced.attempted + layers.attempted,
        plain.failed + traced.failed + layers.failed,
    );
    layers.emit(&mut out);
    out
}

// ------------------------------------------------------------- maspar-cliffs

fn maspar_call(engine: &Maspar, gs: &Grammars, item: &Item, run: &mut Run) -> Duration {
    let req = ParseRequest::new(gs.get(item.lang)).sentence(item.sentence.clone());
    let t = Instant::now();
    let report = engine.parse(&req);
    let latency = t.elapsed();
    let got = report.map(|rep| inputs::observe(&rep.network, rep.accepted, rep.parses.len()));
    run.verify(got, &item.expect, "maspar-cliffs");
    latency
}

pub fn maspar_cliffs(seed: u64, seconds: f64, trace: bool, spans: &mut Spans) -> Outcome {
    let (setup_s, (loaded, engine)) =
        timed_setup(true, || (Loaded::load(false), Maspar::default()), drop);
    let gs = &loaded.gs;
    let (items, work) = inputs::with_oracle(gs, inputs::maspar_cliffs(gs, seed), ENGINE_MAX_PARSES);
    let budget = Duration::from_secs_f64(seconds);
    if !trace {
        let run = rounds(&items, budget, MIN_ROUNDS, true, |item, run| {
            maspar_call(&engine, gs, item, run)
        });
        eprintln!(
            "maspar-cliffs: {} inputs, {} latency samples",
            items.len(),
            run.samples()
        );
        let mut out = outcome(run.attempted, run.failed);
        end_to_end(
            &mut out,
            setup_s,
            run.throughput(),
            run.latency(0.5),
            run.latency(0.99),
        );
        return out;
    }
    let half = budget / 2;
    let plain = rounds(&items, half, MIN_ROUNDS, true, |item, run| {
        maspar_call(&engine, gs, item, run)
    });
    let mut layers = Layers::new(work);
    let traced = layers.maspar_rounds(gs, &items, half, spans);
    layers.overhead(plain.throughput(), traced.throughput());
    layers.grammar(false);
    layers.warm_reuse(gs, &items, |l| loaded.compiled(l));
    layers.core_probe(gs, &items, |l| loaded.compiled(l), spans);
    let texts: Vec<String> = items.iter().map(|i| inputs::text_of(&i.sentence)).collect();
    layers.wire(&texts);
    layers.serve_probe(
        gs,
        items.iter().map(|i| i.sentence.clone()).collect(),
        "maspar",
        spans,
    );
    layers.rayon();
    let mut out = outcome(
        plain.attempted + traced.attempted + layers.attempted,
        plain.failed + traced.failed + layers.failed,
    );
    layers.emit(&mut out);
    out
}

// --------------------------------------------------------------- serve-short

fn serve_config(engine: &str) -> ServeConfig {
    ServeConfig {
        grammar: "english".into(),
        engine: engine.into(),
        workers: SERVE_WORKERS,
        shards: SHARDS,
        ..ServeConfig::default()
    }
}

/// Start a server and wait for its first `PONG`.
pub fn start_server(engine: &str) -> ServerHandle {
    let handle = Server::start(serve_config(engine)).expect("serve binds loopback");
    serve::ping_rtts(handle.addr(), 1).expect("first PING");
    handle
}

/// One open-loop then one closed-loop phase, each `phase` long.
pub struct Session {
    pub open: serve::Phase,
    pub closed: serve::Phase,
}

pub fn session(
    handle: &ServerHandle,
    requests: &Arc<Vec<inputs::Request>>,
    expects: &Arc<Vec<Expect>>,
    rate: f64,
    phase: Duration,
) -> Session {
    let addr = handle.addr();
    let open = serve::open_loop(
        addr,
        Arc::clone(requests),
        Arc::clone(expects),
        0,
        rate,
        phase,
        OPEN_LOOP_CONNS,
    )
    .expect("open-loop connections");
    let first = open.attempted as usize;
    let closed = serve::closed_loop(
        addr,
        Arc::clone(requests),
        Arc::clone(expects),
        first,
        phase,
        CLOSED_LOOP_CONNS,
    )
    .expect("closed-loop connections");
    Session { open, closed }
}

/// Group `(at, value)` pairs into consecutive `SERVE_WINDOW` windows of
/// `at`, dropping a trailing partial window.
fn by_window(points: impl Iterator<Item = (Instant, f64)>, span: Duration) -> Vec<Vec<f64>> {
    let points: Vec<(Instant, f64)> = points.collect();
    let Some(t0) = points.iter().map(|p| p.0).min() else {
        return Vec::new();
    };
    let full = (span.as_secs_f64() / SERVE_WINDOW.as_secs_f64())
        .floor()
        .max(1.0) as usize;
    let mut windows = vec![Vec::new(); full];
    for (at, v) in points {
        let w = ((at - t0).as_secs_f64() / SERVE_WINDOW.as_secs_f64()) as usize;
        if let Some(window) = windows.get_mut(w) {
            window.push(v);
        }
    }
    windows
}

impl Session {
    /// Open-loop latency quantile `q`: per `SERVE_WINDOW` window of due
    /// time, then the median over windows — a host stall inflates the
    /// windows it falls in, not the figure.
    pub fn latency(&self, q: f64) -> f64 {
        let windows = by_window(
            self.open.samples.iter().map(|s| (s.start, ms(s.latency))),
            self.open.elapsed,
        );
        let per: Vec<f64> = windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(w, q))
            .collect();
        median(&per)
    }

    /// Closed-loop answers per second: the median over `SERVE_WINDOW`
    /// windows of completion time.
    pub fn throughput(&self) -> f64 {
        let windows = by_window(
            self.closed
                .samples
                .iter()
                .map(|s| (s.start + s.latency, 0.0)),
            self.closed.elapsed,
        );
        let rates: Vec<f64> = windows
            .iter()
            .map(|w| w.len() as f64 / SERVE_WINDOW.as_secs_f64())
            .collect();
        median(&rates)
    }

    pub fn gen_lag_p99(&self) -> Duration {
        let lags: Vec<f64> = self.open.gen_lag.iter().map(|d| d.as_secs_f64()).collect();
        Duration::from_secs_f64(quantile(&lags, 0.99))
    }

    /// Refuse to report figures from a generator that fell behind.
    pub fn assert_valid(&self) {
        let lag = self.gen_lag_p99();
        if !self.open.on_schedule || lag > MAX_GEN_LAG_P99 {
            eprintln!(
                "perfbench: invalid run: open-loop generator fell behind its schedule \
                 (p99 lag {:.3} ms, finished on schedule: {})",
                ms(lag),
                self.open.on_schedule
            );
            std::process::exit(3);
        }
    }
}

pub fn serve_short(seed: u64, seconds: f64, trace: bool, spans: &mut Spans) -> Outcome {
    let (setup_s, handle) = timed_setup(
        false,
        || start_server("serial"),
        |h| {
            h.shutdown();
        },
    );
    let gs = Grammars::load(false);
    let (requests, distinct) = inputs::serve_short(&gs, seed);
    let oracles: Vec<_> = distinct
        .iter()
        .map(|s| inputs::oracle(&gs.english, s, SERVE_MAX_PARSES))
        .collect();
    let expects: Vec<Expect> = oracles.iter().map(|(e, _)| *e).collect();
    let (requests, expects) = (Arc::new(requests), Arc::new(expects));
    let phase = Duration::from_secs_f64(seconds / 2.0);
    if !trace {
        let s = session(&handle, &requests, &expects, OPEN_LOOP_RATE, phase);
        handle.shutdown();
        s.assert_valid();
        let interactive: Vec<f64> = s
            .open
            .samples
            .iter()
            .filter(|x| x.interactive)
            .map(|x| ms(x.latency))
            .collect();
        eprintln!(
            "serve-short: open loop {} requests at {OPEN_LOOP_RATE}/s ({} interactive, \
             interactive p99 {:.3} ms, generator p99 lag {:.3} ms); closed loop {} requests in {:.2}s",
            s.open.attempted,
            interactive.len(),
            quantile(&interactive, 0.99),
            ms(s.gen_lag_p99()),
            s.closed.attempted,
            s.closed.elapsed.as_secs_f64()
        );
        let mut out = outcome(
            s.open.attempted + s.closed.attempted,
            s.open.failed + s.closed.failed,
        );
        end_to_end(
            &mut out,
            setup_s,
            s.throughput(),
            s.latency(0.5),
            s.latency(0.99),
        );
        return out;
    }
    // Traced: the same session untraced (reference throughput), then the
    // traced one feeding the serve-layer metrics.
    let half = phase / 2;
    let plain = session(&handle, &requests, &expects, OPEN_LOOP_RATE, half);
    // Deterministic work counts: the oracle's cold parses of the distinct
    // sentences.
    let work = oracles
        .iter()
        .fold(cdg_core::NetStats::default(), |mut acc, (_, stats)| {
            acc.absorb(stats);
            acc
        });
    let mut layers = Layers::new(work);
    let traced = layers.serve_session(&handle, &requests, &expects, OPEN_LOOP_RATE, half, spans);
    handle.shutdown();
    plain.assert_valid();
    traced.assert_valid();
    layers.overhead(plain.throughput(), traced.throughput());
    // The core phases over a fixed sample of the distinct sentences.
    let sample: Vec<_> = distinct
        .iter()
        .take(layers::PROBE_SENTENCES)
        .map(|s| (Lang::English, s.clone()))
        .collect();
    let (sample, _) = inputs::with_oracle(&gs, sample, ENGINE_MAX_PARSES);
    let loaded = Loaded::load(false);
    layers.grammar(false);
    layers.warm_reuse(&gs, &sample, |l| loaded.compiled(l));
    layers.core_probe(&gs, &sample, |l| loaded.compiled(l), spans);
    let maspar_probe: Vec<_> = (3..=10)
        .map(|n| (Lang::English, inputs::unambiguous_english(&gs, n, seed)))
        .collect();
    layers.maspar(
        &gs,
        &inputs::with_oracle(&gs, maspar_probe, ENGINE_MAX_PARSES).0,
        spans,
    );
    let texts: Vec<String> = requests
        .iter()
        .take(layers::PROBE_SENTENCES)
        .map(|r| r.text.clone())
        .collect();
    layers.wire(&texts);
    layers.rayon();
    let attempted = plain.open.attempted + plain.closed.attempted + layers.attempted;
    let failed = plain.open.failed + plain.closed.failed + layers.failed;
    let mut out = outcome(attempted, failed);
    layers.emit(&mut out);
    out
}
