//! The `prune_and_tune` workload: the paper's batch pipeline (§3.1–3.2),
//! run closed-loop — each step starts when the previous one ends.
//!
//! 1. LoRA SFT on a candidate pool, storing checkpoints;
//! 2. LM-gradient TracSeq of the pool against a validation set
//!    (`lm_checkpoint_grads_with`, then `influence_scores_with`);
//! 3. the 70/30 hybrid selection;
//! 4. LoRA SFT on the selected set;
//! 5. `evaluate_zigong` on held-out borrowers.
//!
//! The pipeline repeats on the same inputs ([`iterations`] times for a run
//! of `--seconds`); throughputs are medians over the repetitions. After
//! each evaluation, the tuned model answers every held-out borrower once
//! more, one `evaluate_item` call at a time: those calls give the decision
//! latency and must reproduce `evaluate_zigong`'s metrics bit for bit.

use std::process::Command;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use zg_data::{behavior_sequences, BehaviorConfig, Record};
use zg_eval::{evaluate_binary, ks_statistic, roc_auc};
use zg_influence::{
    hybrid_mix, influence_scores_with, lm_checkpoint_grads_with, select_top_k, MixConfig,
    ParallelConfig, TracConfig,
};
use zg_instruct::{parse_binary, render_classification, InstructExample};
use zg_model::{CausalLm, LmSpec};
use zg_tokenizer::BpeTokenizer;
use zg_trace::Tracer;
use zg_zigong::{
    evaluate_zigong, lm_tracseq_scores, split_behavior_by_user, tokenize_all, train_sft_profiled,
    train_tokenizer, CellResult, EvalItem, Profile, Sample, TrainConfig, TrainOrder, ZiGongConfig,
    ZiGongModel,
};

use crate::config::{self, WORKERS};
use crate::gen::mix;
use crate::report::{Outcome, SERVING_ONLY};
use crate::stats;

/// Target length of one pipeline repetition; a run of `seconds` makes
/// `round(seconds / ITERATION_S)` of them (at least two).
const ITERATION_S: f64 = 6.0;

/// Repetitions of the pipeline in a run of `seconds`.
pub fn iterations(seconds: f64) -> usize {
    ((seconds / ITERATION_S).round() as usize).max(2)
}

/// The run's inputs: candidate pool, validation set and held-out set.
struct Inputs {
    pool: Vec<InstructExample>,
    val: Vec<InstructExample>,
    held_out: Vec<Record>,
    held_examples: Vec<InstructExample>,
}

fn inputs(seed: u64) -> Inputs {
    let ds = behavior_sequences(
        &BehaviorConfig {
            n_users: config::PIPE_USERS,
            periods: config::PIPE_PERIODS,
            ..BehaviorConfig::default()
        },
        mix(seed, 0xDA7A),
    );
    let (train, test) = split_behavior_by_user(&ds, 0.2);
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x9001));
    let mut pool = train;
    pool.shuffle(&mut rng);
    pool.truncate(config::PIPE_POOL);
    // Chronological order aligns checkpoints with data periods (TracSeq).
    pool.sort_by_key(|r| (r.time, r.id));
    let mut test = test;
    test.shuffle(&mut rng);
    assert!(
        test.len() >= config::PIPE_VAL + config::PIPE_HELD_OUT,
        "behavior dataset has too few test users"
    );
    let (val, held) = test.split_at(config::PIPE_VAL);
    let held = &held[..config::PIPE_HELD_OUT];
    Inputs {
        pool: pool.iter().map(|r| render_classification(&ds, r)).collect(),
        val: val.iter().map(|r| render_classification(&ds, r)).collect(),
        held_out: held.iter().map(|r| (*r).clone()).collect(),
        held_examples: held.iter().map(|r| render_classification(&ds, r)).collect(),
    }
}

/// The base model: a BPE tokenizer trained on fixed behavior records and a
/// LoRA-attached miniature LM. A fixed artifact, independent of the seed.
fn base_model() -> (BpeTokenizer, LmSpec) {
    let ds = behavior_sequences(
        &BehaviorConfig {
            n_users: 16,
            ..BehaviorConfig::default()
        },
        config::TOKENIZER_DATA_SEED,
    );
    let corpus: Vec<InstructExample> = ds
        .records
        .iter()
        .take(64)
        .map(|r| render_classification(&ds, r))
        .collect();
    let tokenizer = train_tokenizer(&corpus, config::VOCAB);
    let zcfg = ZiGongConfig::miniature(config::PIPE_MODEL_SEED);
    let mut mcfg = zcfg.model.clone();
    mcfg.vocab_size = tokenizer.vocab_size();
    let mut rng = StdRng::seed_from_u64(config::PIPE_MODEL_SEED);
    let mut lm = CausalLm::new(mcfg, &mut rng);
    zg_lora::attach(&mut lm, &zcfg.lora, &mut rng);
    (tokenizer, LmSpec::snapshot(&lm))
}

fn train_config(checkpoint_every: usize) -> TrainConfig {
    let mut cfg = ZiGongConfig::miniature(config::PIPE_MODEL_SEED).train;
    cfg.epochs = 2;
    cfg.max_seq_len = config::PIPE_MAX_SEQ;
    cfg.checkpoint_every = checkpoint_every;
    cfg.train_workers = WORKERS;
    cfg
}

fn token_pairs(samples: &[Sample]) -> Vec<(Vec<u32>, Vec<u32>)> {
    samples
        .iter()
        .map(|s| (s.tokens.clone(), s.labels.clone()))
        .collect()
}

fn same_cell(a: &CellResult, b: &CellResult) -> bool {
    a.eval.acc.to_bits() == b.eval.acc.to_bits()
        && a.eval.f1.to_bits() == b.eval.f1.to_bits()
        && a.eval.miss.to_bits() == b.eval.miss.to_bits()
        && a.eval.n == b.eval.n
        && a.ks.to_bits() == b.ks.to_bits()
        && a.auc.to_bits() == b.auc.to_bits()
}

/// Timings and outputs of one pipeline repetition.
struct Iteration {
    /// Wall time of the five steps, including the model builds and
    /// copies between them.
    wall_s: f64,
    sft_s: f64,
    sft_samples: usize,
    grad_s: f64,
    score_s: f64,
    select_s: f64,
    eval_s: f64,
    profile: Profile,
    grad_dim: usize,
    checkpoints: usize,
    scores: Vec<f32>,
    selection: Vec<usize>,
    cell: CellResult,
    /// Per-item `evaluate_item` seconds (after the timed steps).
    item_s: Vec<f64>,
    /// The serial items' metrics equal `evaluate_zigong`'s bit for bit.
    eval_parity: bool,
    /// Serial TracSeq of a seeded pool subset equals the parallel scores.
    tracseq_mismatches: u64,
}

impl Iteration {
    /// Time inside the timed library calls of the five steps.
    fn steps_s(&self) -> f64 {
        self.sft_s + self.grad_s + self.score_s + self.select_s + self.eval_s
    }
}

fn add_profile(a: &mut Profile, b: &Profile) {
    a.collate_s += b.collate_s;
    a.sync_s += b.sync_s;
    a.forward_s += b.forward_s;
    a.backward_s += b.backward_s;
    a.reduce_s += b.reduce_s;
    a.optimizer_s += b.optimizer_s;
    a.pool_takes += b.pool_takes;
    a.pool_hits += b.pool_hits;
}

struct Prepared {
    tokenizer: BpeTokenizer,
    base: LmSpec,
    pool: Vec<Sample>,
    pool_tok: Vec<(Vec<u32>, Vec<u32>)>,
    times: Vec<u32>,
    val_tok: Vec<(Vec<u32>, Vec<u32>)>,
}

/// The tuned model decides every item one `evaluate_item` call at a
/// time: per-item seconds, and the metrics of those decisions. One
/// untimed call first warms the caller's buffers, as a serving model is
/// warm; greedy decoding leaves the model's state untouched.
fn serial_decisions(model: &mut ZiGongModel, items: &[EvalItem]) -> (Vec<f64>, CellResult) {
    model.evaluate_item(&items[0]);
    let mut item_s = Vec::with_capacity(items.len());
    let mut preds = Vec::with_capacity(items.len());
    let mut labels = Vec::with_capacity(items.len());
    let mut item_scores = Vec::with_capacity(items.len());
    for item in items {
        let t = Instant::now();
        let (text, score) = model.evaluate_item(item);
        item_s.push(t.elapsed().as_secs_f64());
        let e = &item.example;
        preds.push(parse_binary(&text, &e.candidates[0], &e.candidates[1]));
        labels.push(item.record.label);
        item_scores.push(score);
    }
    let cell = CellResult {
        eval: evaluate_binary(&preds, &labels),
        ks: ks_statistic(&item_scores, &labels),
        auc: roc_auc(&item_scores, &labels),
    };
    (item_s, cell)
}

fn run_iteration(
    p: &Prepared,
    inp: &Inputs,
    seed: u64,
    serial: bool,
    check_tracseq: bool,
) -> Iteration {
    let par = ParallelConfig::serial().with_workers(WORKERS);

    // 1. SFT on the candidate pool, storing checkpoints.
    let start = Instant::now();
    let lm = p.base.build();
    let t = Instant::now();
    let first = train_sft_profiled(
        &lm,
        &p.pool,
        &train_config(4),
        TrainOrder::Chronological,
        seed,
        None,
    );
    let mut sft_s = t.elapsed().as_secs_f64();
    let mut profile = first.profile;

    // 2. TracSeq: per-checkpoint LM gradients, then decayed scoring.
    let tuned = LmSpec::snapshot(&lm);
    let t = Instant::now();
    let grads = lm_checkpoint_grads_with(
        || tuned.build(),
        &first.checkpoints,
        &p.pool_tok,
        &p.val_tok,
        &par,
    );
    let grad_s = t.elapsed().as_secs_f64();
    let trac = TracConfig {
        gamma: config::PIPE_GAMMA,
        current_time: p.times.iter().copied().max().unwrap_or(0),
        decay_samples: false,
    };
    let t = Instant::now();
    let scores = influence_scores_with(&grads, &trac, Some(&p.times), &par);
    let score_s = t.elapsed().as_secs_f64();
    let grad_dim = grads
        .first()
        .map_or(0, |g| g.train.first().map_or(0, Vec::len));
    drop(grads);

    // 3. The 70/30 hybrid selection.
    let t = Instant::now();
    let ranked = select_top_k(&scores, scores.len());
    let selection = hybrid_mix(
        &MixConfig::paper_default(config::PIPE_SELECT),
        &ranked,
        scores.len(),
        &mut StdRng::seed_from_u64(mix(seed, 0x5E1E)),
    );
    let select_s = t.elapsed().as_secs_f64();

    // 4. SFT on the selected set, from the base model.
    let chosen: Vec<Sample> = selection.iter().map(|&i| p.pool[i].clone()).collect();
    let lm2 = p.base.build();
    let t = Instant::now();
    let second = train_sft_profiled(
        &lm2,
        &chosen,
        &train_config(0),
        TrainOrder::Shuffled,
        seed,
        None,
    );
    sft_s += t.elapsed().as_secs_f64();
    add_profile(&mut profile, &second.profile);
    let sft_samples = (p.pool.len() + chosen.len()) * train_config(0).epochs;

    // 5. Held-out evaluation with the evaluator's worker pool.
    let mut model = ZiGongModel::new(lm2, p.tokenizer.clone(), config::PIPE_MAX_SEQ, "tuned");
    let items: Vec<EvalItem> = inp
        .held_out
        .iter()
        .zip(&inp.held_examples)
        .map(|(record, e)| EvalItem {
            record,
            example: e.clone(),
        })
        .collect();
    let t = Instant::now();
    let cell = evaluate_zigong(&model, &items, WORKERS);
    let eval_s = t.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();

    // Checks, outside every timed step. Single-caller decisions: latency
    // samples, and the serial reference for the parallel evaluator.
    let (item_s, eval_parity) = if serial {
        let (item_s, reference) = serial_decisions(&mut model, &items);
        (item_s, same_cell(&reference, &cell))
    } else {
        (Vec::new(), true)
    };

    let mut tracseq_mismatches = 0;
    if check_tracseq {
        // A seeded subset, always holding a sample of the latest period
        // so the serial reference sees the same current time.
        let mut idx: Vec<usize> = (0..p.pool_tok.len()).collect();
        idx.shuffle(&mut StdRng::seed_from_u64(mix(seed, 0x7AC5)));
        idx.truncate(config::PIPE_PARITY_SUBSET);
        let latest = (0..p.times.len())
            .max_by_key(|&i| (p.times[i], std::cmp::Reverse(i)))
            .expect("non-empty pool");
        if !idx.contains(&latest) {
            idx.push(latest);
        }
        let sub: Vec<_> = idx.iter().map(|&i| p.pool_tok[i].clone()).collect();
        let sub_times: Vec<u32> = idx.iter().map(|&i| p.times[i]).collect();
        let serial = lm_tracseq_scores(
            &lm,
            &first.checkpoints,
            &sub,
            &sub_times,
            &p.val_tok,
            config::PIPE_GAMMA,
        );
        for (k, &i) in idx.iter().enumerate() {
            if serial[k].to_bits() != scores[i].to_bits() {
                tracseq_mismatches += 1;
                println!(
                    "MISMATCH TracSeq pool sample {i}: parallel {} vs serial {}",
                    scores[i], serial[k]
                );
            }
        }
    }

    Iteration {
        wall_s,
        sft_s,
        sft_samples,
        grad_s,
        score_s,
        select_s,
        eval_s,
        profile,
        grad_dim,
        checkpoints: first.checkpoints.len(),
        scores,
        selection,
        cell,
        item_s,
        eval_parity,
        tracseq_mismatches,
    }
}

/// Tokenize the run's pool and validation set for the base model.
fn prepare(inp: &Inputs, tokenizer: BpeTokenizer, base: LmSpec) -> Prepared {
    let pool = tokenize_all(&tokenizer, &inp.pool, config::PIPE_MAX_SEQ);
    let val = tokenize_all(&tokenizer, &inp.val, config::PIPE_MAX_SEQ);
    Prepared {
        pool_tok: token_pairs(&pool),
        times: pool.iter().map(|s| s.time.unwrap_or(0)).collect(),
        val_tok: token_pairs(&val),
        pool,
        tokenizer,
        base,
    }
}

/// Flag that makes this binary run [`memory_probe`] instead of a workload.
pub const MEMORY_PROBE_FLAG: &str = "--memory-probe";
const MEMORY_PROBE_LINE: &str = "memory probe: peak_rss_mb ";

/// Set-up plus one pipeline repetition (the five steps, no checks) in
/// this process, then its peak RSS in MiB, printed for
/// [`fresh_process_peak_rss`].
pub fn memory_probe(seed: u64) -> Result<(), String> {
    let inp = inputs(seed);
    let (tokenizer, base) = base_model();
    let prepared = prepare(&inp, tokenizer, base);
    run_iteration(&prepared, &inp, seed, false, false);
    let mb = crate::host::peak_rss_mb().ok_or("peak RSS unavailable (no /proc)")?;
    println!("{MEMORY_PROBE_LINE}{mb}");
    Ok(())
}

/// Peak RSS of set-up plus one pipeline repetition on the inputs of
/// `seed`, as a user running the pipeline once sees it, measured in a
/// fresh process of this binary with glibc held to one heap
/// (`MALLOC_ARENA_MAX=1`). With a heap per thread, one input peaked
/// anywhere from 125 to 212 MiB, depending on which short-lived worker
/// thread exited first and so whose heap the next call reused; timed
/// repetitions keep glibc's default.
fn fresh_process_peak_rss(seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("memory probe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", "prune_and_tune", "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "0", MEMORY_PROBE_FLAG, "1"])
        .env("MALLOC_ARENA_MAX", "1")
        .output()
        .map_err(|e| format!("memory probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("memory probe exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix(MEMORY_PROBE_LINE))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "memory probe printed no reading".to_string())
}

/// Run the pipeline workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let inp = inputs(seed);

    let mut setup = Vec::new();
    let mut kept = None;
    for _ in 0..config::SETUP_REPEATS {
        let t = Instant::now();
        kept = Some(base_model());
        setup.push(t.elapsed().as_secs_f64());
    }
    let (tokenizer, base) = kept.expect("at least one set-up");
    let prepared = prepare(&inp, tokenizer, base);
    let probe_rss = fresh_process_peak_rss(config::PIPE_MEMORY_SEED);

    // Traced runs alternate traced and untraced repetitions (ABBA), so the
    // overhead estimate carries no order or warm-up bias.
    let n = iterations(seconds);
    let traced_at = |k: usize| trace && matches!(k % 4, 0 | 3);
    let mut its = Vec::with_capacity(n.max(4));
    let mut traces = Vec::new();
    let reps = if trace { n.max(4) } else { n };
    for k in 0..reps {
        let tracer = traced_at(k).then(|| Tracer::with_clock(zg_trace::wall_clock()));
        let guard = tracer.as_ref().map(|t| t.install("perfbench"));
        let it = run_iteration(&prepared, &inp, seed, true, k == 0);
        drop(guard);
        if let Some(t) = tracer {
            traces.push((k, t.finish()));
        }
        its.push(it);
    }

    let mut out = Outcome::default();
    match probe_rss {
        Ok(mb) => out.set("peak_rss_mb", mb),
        Err(e) => out.problems.push(e),
    }
    let first = &its[0];
    for (k, it) in its.iter().enumerate() {
        out.attempted += (prepared.pool.len() + it.item_s.len()) as u64;
        if !it.eval_parity {
            out.failed += it.item_s.len() as u64;
            println!("MISMATCH repetition {k}: evaluate_zigong differs from serial evaluate_item");
        }
        out.failed += it.tracseq_mismatches;
        let same = it.selection == first.selection
            && it.scores.len() == first.scores.len()
            && it
                .scores
                .iter()
                .zip(&first.scores)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && same_cell(&it.cell, &first.cell);
        if !same {
            out.problems.push(format!(
                "repetition {k} is not bit-identical to repetition 0 (same inputs)"
            ));
        }
    }

    let untraced: Vec<&Iteration> = its
        .iter()
        .enumerate()
        .filter(|(k, _)| !traced_at(*k))
        .map(|(_, it)| it)
        .collect();
    let med = |f: &dyn Fn(&Iteration) -> f64| {
        stats::median(&untraced.iter().map(|it| f(it)).collect::<Vec<_>>())
    };
    let pool_n = prepared.pool.len() as f64;
    let sft_rate = med(&|it| it.sft_samples as f64 / it.sft_s);
    let tracseq_rate = med(&|it| pool_n / (it.grad_s + it.score_s));
    let eval_rate = med(&|it| it.item_s.len() as f64 / it.eval_s);
    let capacity = med(&|it| pool_n / it.wall_s);
    let latencies: Vec<f64> = untraced.iter().flat_map(|it| it.item_s.clone()).collect();
    let p50 = stats::median(&latencies);
    let p95 = stats::tail(&latencies, 0.95).expect("enough held-out decisions");
    let p99 = stats::tail(&latencies, 0.99).expect("enough held-out decisions");
    out.set("setup_s", stats::median(&setup));
    out.set("latency_p50_ms", p50 * 1e3);
    out.set("latency_p95_ms", p95.value * 1e3);
    out.set("latency_p99_ms", p99.value * 1e3);
    out.set("capacity_rps", capacity);

    println!(
        "pipeline: pool {} samples, validation {}, held-out {}, selection {} (70/30); \
         {} repetitions{}",
        prepared.pool.len(),
        prepared.val_tok.len(),
        inp.held_out.len(),
        config::PIPE_SELECT,
        untraced.len(),
        if trace { " untraced + traced ones" } else { "" },
    );
    println!(
        "throughput (medians): pipeline {capacity:.2} pool samples/s; SFT {sft_rate:.1} \
         samples/s; TracSeq {tracseq_rate:.1} pool samples/s; evaluate_zigong {eval_rate:.1} \
         items/s"
    );
    println!(
        "decision latency (evaluate_item, one caller): p50 {:.2} ms, p{:.2} {:.2} ms, p{:.2} \
         {:.2} ms (n={})",
        p50 * 1e3,
        p95.q * 100.0,
        p95.value * 1e3,
        p99.q * 100.0,
        p99.value * 1e3,
        p99.n
    );
    println!(
        "checks: TracSeq subset of {} vs serial lm_tracseq_scores; evaluate_zigong vs serial \
         evaluate_item on all {} held-out items per repetition; tuned acc {:.3} auc {:.3}",
        config::PIPE_PARITY_SUBSET,
        inp.held_out.len(),
        first.cell.eval.acc,
        first.cell.auc,
    );
    if !trace {
        return out;
    }

    // ---- Traced repetitions: per-layer metrics ----
    let traced: Vec<(&Iteration, &zg_trace::Trace)> =
        traces.iter().map(|(k, t)| (&its[*k], t)).collect();
    let tmed = |f: &dyn Fn(&Iteration, &zg_trace::Trace) -> f64| {
        stats::median(&traced.iter().map(|(it, t)| f(it, t)).collect::<Vec<_>>())
    };
    let per_sample_grads = (prepared.pool_tok.len() + prepared.val_tok.len()) as f64;
    out.set("train.collate_s", tmed(&|it, _| it.profile.collate_s));
    out.set("train.forward_s", tmed(&|it, _| it.profile.forward_s));
    out.set("train.backward_s", tmed(&|it, _| it.profile.backward_s));
    out.set("train.sync_s", tmed(&|it, _| it.profile.sync_s));
    out.set("train.reduce_s", tmed(&|it, _| it.profile.reduce_s));
    out.set("train.optimizer_s", tmed(&|it, _| it.profile.optimizer_s));
    out.set("train.sft_samples_per_s", sft_rate);
    out.set(
        "influence.grad_ms_per_sample",
        tmed(&|it, _| it.grad_s / (per_sample_grads * it.checkpoints as f64)) * 1e3,
    );
    out.set("influence.score_ms", tmed(&|it, _| it.score_s) * 1e3);
    out.set("influence.grad_dim", first.grad_dim as f64);
    out.set("influence.tracseq_samples_per_s", tracseq_rate);
    out.set(
        "eval.item_ms",
        tmed(&|it, _| stats::median(&it.item_s)) * 1e3,
    );
    out.set(
        "eval.worker_utilization",
        tmed(&|it, _| it.item_s.iter().sum::<f64>() / (it.eval_s * WORKERS as f64)),
    );
    out.set("eval.items_per_s", eval_rate);
    let held = inp.held_out.len() as f64;
    let counter = |t: &zg_trace::Trace, name: &str| t.counters().get(name).copied().unwrap_or(0.0);
    // The model serves prompts only in the evaluation step, and the serial
    // decisions run untraced, so model counters are per held-out item.
    out.set(
        "model.prefill_tokens_per_req",
        tmed(&|_, t| counter(t, "model.prefill_tokens") / held),
    );
    out.set(
        "model.decode_steps_per_req",
        tmed(&|_, t| counter(t, "model.decode_steps") / held),
    );
    out.set(
        "model.prefill_ms_per_req",
        tmed(&|_, t| {
            t.span_totals()
                .get("model.prefill")
                .map_or(0.0, |s| s.total_s)
                / held
        }) * 1e3,
    );
    // GEMM work of the whole pipeline, per pool sample.
    out.set(
        "tensor.gemm_calls_per_req",
        tmed(&|_, t| {
            t.counters()
                .iter()
                .filter(|(k, _)| k.starts_with("gemm.dispatch."))
                .map(|(_, v)| v)
                .sum::<f64>()
                / pool_n
        }),
    );
    out.set(
        "tensor.gemm_mflop_per_req",
        tmed(&|_, t| 2.0 * t.hists().get("gemm.mnk").map_or(0.0, |h| h.sum) / 1e6 / pool_n),
    );
    out.set(
        "tensor.gemm_naive_frac",
        tmed(&|_, t| {
            let all: f64 = t
                .counters()
                .iter()
                .filter(|(k, _)| k.starts_with("gemm.dispatch."))
                .map(|(_, v)| v)
                .sum();
            stats::ratio(counter(t, "gemm.dispatch.naive"), all)
        }),
    );
    out.set(
        "tensor.pool_hit_rate",
        tmed(&|it, _| it.profile.pool_hit_rate()),
    );
    let prompts = &inp.held_examples;
    let bytes: Vec<f64> = prompts.iter().map(|e| e.prompt.len() as f64).collect();
    // Prompt tokens as the evaluator feeds them: BOS plus the encoding.
    let tokens: Vec<f64> = prompts
        .iter()
        .map(|e| (prepared.tokenizer.encode(&e.prompt).len() + 1) as f64)
        .collect();
    out.set("workload.prompt_bytes_mean", stats::mean(&bytes));
    out.set("workload.prompt_tokens_mean", stats::mean(&tokens));
    out.set(
        "unattributed_frac",
        tmed(&|it, _| 1.0 - it.steps_s() / it.wall_s),
    );
    let plain: Vec<f64> = untraced.iter().map(|it| it.wall_s).collect();
    let traced_s: Vec<f64> = traced.iter().map(|(it, _)| it.wall_s).collect();
    let overhead = stats::median(&traced_s) / stats::median(&plain) - 1.0;
    out.set("trace_overhead_frac", overhead);
    for name in SERVING_ONLY {
        out.set(name, 0.0);
    }
    println!(
        "trace overhead: pipeline {:.3} s traced vs {:.3} s untraced ({:+.1}%, ABBA order)",
        stats::median(&traced_s),
        stats::median(&plain),
        100.0 * overhead
    );
    out
}
