//! The serving workload, `score_shared_template`.
//!
//! One process drives a [`Server`] over a two-replica [`ZiGongEngine`]
//! from a single thread: an open-loop Poisson phase at a fixed offered
//! rate (latency is timed from each request's *due* time, so a stall that
//! delays later submissions counts against them), cut into segments, each
//! followed by a closed-loop saturation probe that keeps
//! [`config::CLOSED_CLIENTS`] requests outstanding (capacity) and by a
//! stretch of single-caller requests (end-to-end latency). The traced
//! run repeats the same schedule with a tracer and an execute-timing engine
//! adapter, replays every request through the public layer calls, and
//! checks every reply against the offline evaluator.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use zg_model::{CausalLm, ModelConfig, PrefixStats};
use zg_serve::{
    Completion, Engine, EngineConfig, QueuedRequest, Reply, Request, RequestId, Server,
    ZiGongEngine,
};
use zg_trace::{Clock, Tracer};
use zg_zigong::{train_tokenizer, ZiGongModel, ZiGongSpec};

use crate::config::{self, WORKERS};
use crate::gen::{self, ScoreGen, PREAMBLES};
use crate::replay::{same_reply, LayerTimes, Replayer};
use crate::report::Outcome;
use crate::stats;

/// Request `i` of the run, as sent to the server.
fn request(g: &mut ScoreGen, i: usize) -> Request {
    let s = g.input(i);
    Request::score(s.prompt, s.negative, s.positive).with_template(s.template)
}

/// The offline evaluator's reply to request `i`.
fn oracle(g: &mut ScoreGen, model: &mut ZiGongModel, i: usize) -> Reply {
    let (_, item) = g.item(i);
    let (answer, p_positive) = model.evaluate_item(&item);
    Reply::Scored { answer, p_positive }
}

/// The offline evaluator's replies to the requests with input indices
/// `inputs`, in order. Untimed, so it runs on [`WORKERS`] threads, each
/// with its own replica and request generator.
fn oracle_replies(seed: u64, spec: &ZiGongSpec, inputs: &[usize]) -> Vec<Reply> {
    let part = inputs.len().div_ceil(WORKERS).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .chunks(part)
            .map(|ids| {
                s.spawn(move || {
                    let mut g = ScoreGen::new(seed);
                    let mut model = spec.build();
                    ids.iter()
                        .map(|&i| oracle(&mut g, &mut model, i))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread finishes"))
            .collect()
    })
}

/// The served model: a BPE tokenizer trained on preamble-prefixed credit
/// prompts and a miniature Mistral-style LM. Both are fixed artifacts.
fn serve_model() -> ZiGongModel {
    let ds = zg_data::german(64, config::TOKENIZER_DATA_SEED);
    let examples: Vec<_> = ds
        .records
        .iter()
        .take(48)
        .enumerate()
        .map(|(i, r)| {
            let mut e = zg_instruct::render_classification(&ds, r);
            e.prompt = format!("{}{}", PREAMBLES[i % PREAMBLES.len()], e.prompt);
            e
        })
        .collect();
    let tokenizer = train_tokenizer(&examples, config::VOCAB);
    let mut cfg = ModelConfig::mistral_miniature(tokenizer.vocab_size());
    cfg.max_seq_len = config::SERVE_MAX_SEQ;
    let lm = CausalLm::new(cfg, &mut StdRng::seed_from_u64(config::SERVE_MODEL_SEED));
    ZiGongModel::new(lm, tokenizer, config::SERVE_MAX_SEQ, "perfbench")
}

/// Spawn the engine and wait until every replica is built (the audit
/// round-trips through each worker after its replica exists).
fn spawn_engine(spec: ZiGongSpec) -> ZiGongEngine {
    let mut engine = ZiGongEngine::new(
        spec,
        EngineConfig {
            workers: WORKERS,
            pool_budget_tokens: config::POOL_BUDGET_TOKENS,
            ..EngineConfig::default()
        },
    );
    let (audit, _) = engine.audit();
    audit.expect("fresh engine passes its leak audit");
    engine
}

/// One `execute` call seen by [`Probe`].
struct Exec {
    start: f64,
    end: f64,
    /// `(id, arrived)` of each request in the batch.
    batch: Vec<(RequestId, f64)>,
}

/// Engine adapter of the traced run: times each `execute` and reads each
/// request's admission time. With no clock it only forwards.
struct Probe {
    inner: ZiGongEngine,
    clock: Option<Clock>,
    execs: Vec<Exec>,
}

impl Engine for Probe {
    fn execute(&mut self, batch: &[QueuedRequest]) -> Vec<(RequestId, Reply)> {
        let Some(clock) = &self.clock else {
            return self.inner.execute(batch);
        };
        let start = clock();
        let out = self.inner.execute(batch);
        self.execs.push(Exec {
            start,
            end: clock(),
            batch: batch.iter().map(|r| (r.id, r.arrived)).collect(),
        });
        out
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }

    fn install_stage_clock(&mut self, clock: Clock) {
        self.inner.install_stage_clock(clock);
    }

    fn drain_obs(&mut self) -> Vec<zg_serve::RequestObs> {
        self.inner.drain_obs()
    }
}

/// The phase a request was sent in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Open loop at the offered rate.
    Open,
    /// Closed loop, one request outstanding.
    Single,
    /// Closed-loop capacity probe.
    Saturate,
}

/// A submitted request.
struct Sent {
    input: usize,
    /// When it was due (open loop) or sent (closed loop).
    due: f64,
    phase: Phase,
}

/// One `tick` that served a batch.
struct Tick {
    start: f64,
    end: f64,
}

/// Everything the drive loops record; request ids index `sent`/`done`.
#[derive(Default)]
struct Log {
    sent: Vec<Sent>,
    done: Vec<Option<Completion>>,
    ticks: Vec<Tick>,
    refused: u64,
    next_input: usize,
}

struct Driver {
    server: Server<Probe>,
    clock: Clock,
    log: Log,
}

impl Driver {
    fn submit(&mut self, g: &mut ScoreGen, due: f64, phase: Phase) {
        let input = self.log.next_input;
        self.log.next_input += 1;
        match self.server.submit(request(g, input)) {
            Ok(id) => {
                assert_eq!(
                    id as usize,
                    self.log.sent.len(),
                    "ids follow submission order"
                );
                self.log.sent.push(Sent { input, due, phase });
                self.log.done.push(None);
            }
            Err(_) => self.log.refused += 1,
        }
    }

    /// One scheduler step; returns how many requests it resolved.
    fn tick(&mut self) -> usize {
        let start = (self.clock)();
        let done = self.server.tick();
        let end = (self.clock)();
        if !done.is_empty() {
            self.log.ticks.push(Tick { start, end });
        }
        let n = done.len();
        for c in done {
            let id = c.id as usize;
            self.log.done[id] = Some(c);
        }
        n
    }

    /// Open loop: submit each request once due, tick while work is queued.
    fn open_loop(&mut self, g: &mut ScoreGen, arrivals: &[f64]) {
        let start = (self.clock)();
        let mut next = 0;
        loop {
            let now = (self.clock)();
            while next < arrivals.len() && start + arrivals[next] <= now {
                self.submit(g, start + arrivals[next], Phase::Open);
                next += 1;
            }
            if self.server.queue_len() > 0 {
                self.tick();
            } else if next < arrivals.len() {
                let wait = start + arrivals[next] - (self.clock)();
                if wait > 0.002 {
                    std::thread::sleep(Duration::from_secs_f64(wait - 0.001));
                } else {
                    std::thread::yield_now();
                }
            } else {
                break;
            }
        }
    }

    /// Closed loop: keep `clients` requests outstanding for `seconds`,
    /// then drain. Returns the completion rate (requests/s).
    fn closed_loop(&mut self, g: &mut ScoreGen, clients: usize, seconds: f64) -> f64 {
        let start = (self.clock)();
        for _ in 0..clients {
            self.submit(g, start, Phase::Saturate);
        }
        let mut completed = 0;
        while self.server.queue_len() > 0 {
            let n = self.tick();
            completed += n;
            let now = (self.clock)();
            if now - start < seconds {
                for _ in 0..n {
                    self.submit(g, now, Phase::Saturate);
                }
            }
        }
        completed as f64 / ((self.clock)() - start)
    }

    /// Single caller: `n` requests one after another, each sent when the
    /// previous reply arrives.
    fn single_caller(&mut self, g: &mut ScoreGen, n: usize) {
        for _ in 0..n {
            let now = (self.clock)();
            self.submit(g, now, Phase::Single);
            while self.server.queue_len() > 0 {
                self.tick();
            }
        }
    }
}

/// A clock reading seconds since its creation.
fn fresh_clock() -> Clock {
    let base = Instant::now();
    Arc::new(move || base.elapsed().as_secs_f64())
}

fn driver(engine: ZiGongEngine, probe: bool) -> Driver {
    let clock = fresh_clock();
    let probe = Probe {
        inner: engine,
        clock: probe.then(|| clock.clone()),
        execs: Vec::new(),
    };
    let mut server = Server::new(probe, config::serve_config(), clock.clone());
    server.enable_ops(config::ops_config());
    Driver {
        server,
        clock,
        log: Log::default(),
    }
}

/// Closed-loop seconds per request on a fresh engine, traced or not; the
/// same requests on every call.
fn overhead_phase(spec: &ZiGongSpec, seed: u64, traced: bool) -> f64 {
    let tracer = traced.then(|| Tracer::with_clock(zg_trace::wall_clock()));
    let guard = tracer.as_ref().map(|t| t.install("overhead"));
    let mut d = driver(spawn_engine(spec.clone()), false);
    let rate = d.closed_loop(
        &mut ScoreGen::new(seed),
        config::CLOSED_CLIENTS,
        config::OVERHEAD_PHASE_S,
    );
    d.server.shutdown();
    drop(guard);
    drop(tracer);
    1.0 / rate
}

/// Run the scoring workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut g = ScoreGen::new(seed);
    // A request count fixed by the run length, so every seed reports the
    // same tail percentile.
    let open_s = (seconds - config::CLOSED_S - config::SINGLE_S).max(1.0);
    let rate = config::SCORE_RATE;
    let arrivals = gen::arrivals(rate, (rate * open_s).round() as usize);

    // Set up several times; keep the last. The traced run installs its
    // tracer first so the engine's worker streams are captured.
    let mut setup = Vec::new();
    let mut tracer = None;
    let mut guard = None;
    let mut kept = None;
    for r in 0..config::SETUP_REPEATS {
        if trace && r + 1 == config::SETUP_REPEATS {
            let t = Tracer::with_clock(zg_trace::wall_clock());
            guard = Some(t.install("perfbench"));
            tracer = Some(t);
        }
        let t0 = Instant::now();
        let model = serve_model();
        let engine = spawn_engine(model.spec());
        setup.push(t0.elapsed().as_secs_f64());
        kept = Some((model, engine));
    }
    let (model, engine) = kept.expect("at least one set-up");
    let spec = model.spec();

    // The open-loop trace runs in rounds, each followed by a closed-loop
    // capacity probe and a single-caller stretch; spreading them over the
    // run keeps one slow stretch of a shared host from deciding a reading.
    let mut d = driver(engine, trace);
    let rounds = config::ROUNDS;
    let mut probe_rates = Vec::with_capacity(rounds);
    let mut prev = 0.0;
    for r in 0..rounds {
        let part = &arrivals[r * arrivals.len() / rounds..(r + 1) * arrivals.len() / rounds];
        let offsets: Vec<f64> = part.iter().map(|t| t - prev).collect();
        prev = part.last().copied().unwrap_or(prev);
        d.open_loop(&mut g, &offsets);
        probe_rates.push(d.closed_loop(
            &mut g,
            config::CLOSED_CLIENTS,
            config::CLOSED_S / rounds as f64,
        ));
        d.single_caller(&mut g, config::SINGLE_REQUESTS / rounds);
    }
    let (audit, prefix) = d.server.engine_mut().inner.audit();
    let now = (d.clock)();
    let alerts = d.server.ops_mut().map_or(0, |ops| {
        ops.finish(now);
        ops.alerts().len()
    });
    let probe_execs = std::mem::take(&mut d.server.engine_mut().execs);
    let stats = d.server.shutdown();
    drop(guard);
    let trace_data = tracer.map(Tracer::finish);
    let log = d.log;

    let mut out = Outcome::default();
    if let Err(e) = audit {
        out.problems.push(format!("prefix lease audit: {e}"));
    }
    out.attempted = log.sent.len() as u64 + log.refused;
    let mut failed = vec![false; log.sent.len()];
    for (id, c) in log.done.iter().enumerate() {
        if !matches!(c, Some(Completion { result: Ok(_), .. })) {
            failed[id] = true;
        }
    }

    // Correctness: a seeded sample of replies (every reply when traced)
    // against the offline evaluator on fresh replicas.
    let mut check: Vec<usize> = (0..log.sent.len()).filter(|&i| !failed[i]).collect();
    if !trace {
        check.shuffle(&mut StdRng::seed_from_u64(gen::mix(seed, 0xC4EC)));
        check.truncate(config::CHECK_SAMPLE);
        check.sort_unstable();
    }
    let inputs: Vec<usize> = check.iter().map(|&id| log.sent[id].input).collect();
    let wanted = oracle_replies(seed, &spec, &inputs);
    let mut mismatches = 0u64;
    for (&id, want) in check.iter().zip(&wanted) {
        let served = served_reply(&log, id);
        if !same_reply(served, want) {
            failed[id] = true;
            mismatches += 1;
            println!("MISMATCH request {id}: served {served:?} vs offline {want:?}");
        }
    }

    // End-to-end metrics. A refused, expired or wrong reply misses every
    // latency limit.
    let latencies = |phase: Phase| -> Vec<f64> {
        log.sent
            .iter()
            .enumerate()
            .filter(|(_, s)| s.phase == phase)
            .map(|(id, s)| match (&log.done[id], failed[id]) {
                (Some(c), false) => c.finished - s.due,
                _ => f64::INFINITY,
            })
            .collect()
    };
    let open = latencies(Phase::Open);
    let single = latencies(Phase::Single);
    let p50 = stats::median(&open);
    let tail = stats::tail(&open, 0.99).expect("open-loop phase sends enough requests");
    let single_p50 = stats::median(&single);
    let single_tail = stats::tail(&single, 0.99).expect("enough single-caller requests");
    let single_p95 = stats::tail(&single, 0.95).expect("enough single-caller requests");
    let capacity = stats::median(&probe_rates);
    out.set("setup_s", stats::median(&setup));
    out.set("latency_p50_ms", single_p50 * 1e3);
    out.set("latency_p95_ms", single_p95.value * 1e3);
    out.set("latency_p99_ms", single_tail.value * 1e3);
    out.set("capacity_rps", capacity);
    out.set("server.open_loop_ms.p50", p50 * 1e3);
    out.set("server.open_loop_ms.p99", tail.value * 1e3);
    out.failed = failed.iter().filter(|&&f| f).count() as u64 + log.refused;

    let prompt_bytes: Vec<f64> = (0..log.sent.len().min(512))
        .map(|i| g.input(log.sent[i].input).prompt.len() as f64)
        .collect();
    println!(
        "open loop: {} requests offered at {}/s over {:.1}s; latency from due time p50 {:.2} ms, \
         p{:.2} {:.2} ms (n={}, 10+ samples beyond)",
        open.len(),
        rate,
        open_s,
        p50 * 1e3,
        tail.q * 100.0,
        tail.value * 1e3,
        tail.n,
    );
    let round_p50: Vec<f64> = single
        .chunks(config::SINGLE_REQUESTS / rounds)
        .map(|c| stats::median(c) * 1e3)
        .collect();
    println!(
        "single caller: latency p50 {:.2} ms, p{:.2} {:.2} ms, p{:.2} {:.2} ms (n={}); round \
         medians {:.2}..{:.2} ms",
        single_p50 * 1e3,
        single_p95.q * 100.0,
        single_p95.value * 1e3,
        single_tail.q * 100.0,
        single_tail.value * 1e3,
        single_tail.n,
        round_p50.iter().copied().fold(f64::INFINITY, f64::min),
        round_p50.iter().copied().fold(0.0, f64::max),
    );
    println!(
        "closed loop: {} probes of {:.2}s with {} outstanding: median {capacity:.1} req/s \
         (min {:.1}, max {:.1})",
        rounds,
        config::CLOSED_S / rounds as f64,
        config::CLOSED_CLIENTS,
        probe_rates.iter().copied().fold(f64::INFINITY, f64::min),
        probe_rates.iter().copied().fold(0.0, f64::max),
    );
    println!(
        "server: admitted {} refused {} completed {} timed_out {} batches {}; slo alerts {alerts}",
        stats.admitted, log.refused, stats.completed, stats.timed_out, stats.batches
    );
    println!(
        "checks: {} replies compared with the offline evaluator, {mismatches} mismatched; \
         leak audit {}",
        check.len(),
        if out.problems.is_empty() {
            "clean"
        } else {
            "FAILED"
        }
    );
    println!(
        "workload: mean prompt {:.0} bytes; prompt tokens served from cache {:.1}% \
         ({} of {}); prefix inserts {} evictions {}",
        stats::mean(&prompt_bytes),
        100.0 * prefix.hit_token_rate(),
        prefix.hit_tokens,
        prefix.lookup_tokens,
        prefix.inserts,
        prefix.evictions,
    );

    let Some(trace_data) = trace_data else {
        return out;
    };
    let replay_failed = layer_metrics(
        &mut out,
        &log,
        &probe_execs,
        &trace_data,
        &prefix,
        &mut g,
        &spec,
        &prompt_bytes,
    );
    for id in replay_failed {
        failed[id] = true;
    }
    out.failed = failed.iter().filter(|&&f| f).count() as u64 + log.refused;

    // Tracing overhead: untraced and traced closed-loop repetitions in
    // ABBA order, so warm-up and drift fall on both sides equally.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for traced_first in [false, true] {
        for traced_now in [traced_first, !traced_first] {
            let per_req = overhead_phase(&spec, seed, traced_now);
            if traced_now {
                traced.push(per_req);
            } else {
                plain.push(per_req);
            }
        }
    }
    let overhead = stats::median(&traced) / stats::median(&plain) - 1.0;
    out.set("trace_overhead_frac", overhead);
    for name in crate::report::PIPELINE_ONLY {
        out.set(name, 0.0);
    }
    println!(
        "trace overhead: closed-loop {:.3} ms/req traced vs {:.3} untraced ({:+.1}%, ABBA order)",
        stats::median(&traced) * 1e3,
        stats::median(&plain) * 1e3,
        100.0 * overhead
    );
    out
}

/// Per-layer metrics of a traced run: scheduler and engine timings from
/// the adapter, counters from the trace, and layer times from a replay of
/// every request. Returns the ids whose replayed reply differs from the
/// served one.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut Outcome,
    log: &Log,
    execs: &[Exec],
    trace: &zg_trace::Trace,
    prefix: &PrefixStats,
    g: &mut ScoreGen,
    spec: &ZiGongSpec,
    prompt_bytes: &[f64],
) -> Vec<usize> {
    let served = log.sent.len() as f64;
    let mut waits = Vec::new();
    let mut lag = Vec::new();
    let mut exec_ms = Vec::new();
    let mut batch_sizes = Vec::new();
    let mut exec_total = 0.0;
    for e in execs {
        exec_ms.push((e.end - e.start) * 1e3);
        exec_total += e.end - e.start;
        batch_sizes.push(e.batch.len() as f64);
        for &(id, arrived) in &e.batch {
            let s = &log.sent[id as usize];
            if s.phase == Phase::Open {
                waits.push((e.start - s.due) * 1e3);
                lag.push((arrived - s.due) * 1e3);
            }
        }
    }
    // Each tick that served requests ran exactly one execute, in order.
    let tick_self: Vec<f64> = log
        .ticks
        .iter()
        .zip(execs)
        .map(|(t, e)| (t.end - t.start - (e.end - e.start)) * 1e6)
        .collect();

    // Replay every request single-threaded through the layer calls.
    let mut replayer = Replayer::new(spec.build(), config::POOL_BUDGET_TOKENS);
    let pool0 = zg_tensor::pool_stats();
    let mut mismatched = Vec::new();
    for (id, sent) in log.sent.iter().enumerate() {
        let input = g.input(sent.input);
        let reply = replayer.score(&input.prompt, &input.negative, &input.positive);
        if let Some(Completion { result: Ok(s), .. }) = &log.done[id] {
            if !same_reply(s, &reply) {
                mismatched.push(id);
                println!("REPLAY MISMATCH request {id}: served {s:?} vs replayed {reply:?}");
            }
        }
    }
    let pool1 = zg_tensor::pool_stats();
    let t: LayerTimes = replayer.times;

    let counters = trace.counters();
    let c = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    let gemm_calls: f64 = counters
        .iter()
        .filter(|(k, _)| k.starts_with("gemm.dispatch."))
        .map(|(_, v)| v)
        .sum();
    let gemm_flop = 2.0 * trace.hists().get("gemm.mnk").map_or(0.0, |h| h.sum);
    let tail = |v: &[f64]| stats::tail(v, 0.99).map_or(0.0, |t| t.value);
    let per_req = |v: f64| stats::ratio(v, t.requests as f64);
    let share = |v: f64| stats::ratio(v, t.total_s);

    out.set("server.queue_wait_ms.p50", stats::median(&waits));
    out.set("server.queue_wait_ms.p99", tail(&waits));
    out.set("server.batch_size.mean", stats::mean(&batch_sizes));
    out.set("server.tick_self_us.p50", stats::median(&tick_self));
    out.set("loadgen.lag_ms.p99", tail(&lag));
    out.set("engine.execute_ms.p50", stats::median(&exec_ms));
    out.set(
        "engine.replica_utilization",
        stats::ratio(t.total_s, exec_total * WORKERS as f64),
    );
    out.set("tokenizer.encode_ms_per_req", per_req(t.encode_s) * 1e3);
    out.set(
        "tokenizer.encode_bytes_per_req",
        per_req(t.encode_bytes as f64),
    );
    out.set("prefix.hit_token_rate", prefix.hit_token_rate());
    out.set(
        "prefix.inserts_per_req",
        stats::ratio(prefix.inserts as f64, served),
    );
    out.set(
        "prefix.evictions_per_req",
        stats::ratio(prefix.evictions as f64, served),
    );
    out.set("prefix.resident_tokens", prefix.resident_tokens as f64);
    out.set(
        "prefix.acquire_us",
        stats::ratio(t.acquire_s, t.acquire_calls as f64) * 1e6,
    );
    out.set(
        "prefix.insert_us",
        stats::ratio(t.insert_s, t.insert_calls as f64) * 1e6,
    );
    out.set(
        "model.prefill_tokens_per_req",
        c("model.prefill_tokens") / served,
    );
    out.set("model.prefill_ms_per_req", per_req(t.prefill_s) * 1e3);
    out.set("model.score_ms_per_req", per_req(t.score_s) * 1e3);
    out.set(
        "model.decode_steps_per_req",
        c("model.decode_steps") / served,
    );
    out.set(
        "model.decode_us_per_step",
        stats::ratio(t.decode_s, t.decode_steps as f64) * 1e6,
    );
    out.set("tensor.gemm_calls_per_req", gemm_calls / served);
    out.set("tensor.gemm_mflop_per_req", gemm_flop / 1e6 / served);
    out.set(
        "tensor.gemm_naive_frac",
        stats::ratio(c("gemm.dispatch.naive"), gemm_calls),
    );
    out.set(
        "tensor.pool_hit_rate",
        stats::ratio(
            (pool1.hits - pool0.hits) as f64,
            (pool1.takes - pool0.takes) as f64,
        ),
    );
    out.set("workload.prompt_bytes_mean", stats::mean(prompt_bytes));
    out.set(
        "workload.prompt_tokens_mean",
        per_req(t.prompt_tokens as f64),
    );
    out.set(
        "workload.output_tokens_per_req",
        per_req(t.decode_steps as f64),
    );
    out.set("share.tokenizer", share(t.encode_s + t.detokenize_s));
    out.set("share.prefix", share(t.prefix_s()));
    out.set("share.prefill", share(t.prefill_s));
    out.set("share.decode", share(t.decode_s));
    out.set("share.score", share(t.score_s));
    out.set("unattributed_frac", share(t.total_s - t.attributed_s()));
    println!(
        "replay: {} requests, {} differ from the served reply; service time {:.2} ms/req: \
         tokenizer {:.1}%, prefix {:.1}%, prefill {:.1}%, decode {:.1}%, score {:.1}%, \
         unattributed {:.1}%",
        t.requests,
        mismatched.len(),
        per_req(t.total_s) * 1e3,
        100.0 * share(t.encode_s + t.detokenize_s),
        100.0 * share(t.prefix_s()),
        100.0 * share(t.prefill_s),
        100.0 * share(t.decode_s),
        100.0 * share(t.score_s),
        100.0 * share(t.total_s - t.attributed_s()),
    );
    mismatched
}

fn served_reply(log: &Log, id: usize) -> &Reply {
    match &log.done[id] {
        Some(Completion { result: Ok(r), .. }) => r,
        _ => unreachable!("only served requests are checked"),
    }
}
