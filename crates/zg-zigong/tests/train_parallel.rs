//! Property tests for the training fast path:
//!
//! - For arbitrary sample counts, batch shapes, accumulation depths, and
//!   seeds, the parallel engine is **bit-identical** to serial for any
//!   worker count (losses and final trainable weights).
//! - Gradient accumulation depth `k` vs `1` is structurally equivalent:
//!   same number of micro-batches consumed, finite converging losses,
//!   and identical checkpoint cadence semantics — for both engines.
//! - A profiled run and an unprofiled run produce identical training
//!   results (the injected clock must be an observer, not a participant).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use zg_instruct::InstructExample;
use zg_lora::{attach, LoraConfig};
use zg_model::{CausalLm, ModelConfig};
use zg_zigong::{
    tokenize_all, train_sft, train_sft_profiled, train_tokenizer, TrainConfig, TrainOrder,
};

fn toy_examples(n: usize) -> Vec<InstructExample> {
    (0..n)
        .map(|i| {
            let positive = i % 2 == 0;
            InstructExample {
                prompt: format!(
                    "risk {}\nQuestion: default? Answer:",
                    if positive { "high" } else { "low" }
                ),
                answer: if positive { "Yes" } else { "No" }.to_string(),
                candidates: vec!["No".into(), "Yes".into()],
                dataset: "toy".into(),
                record_id: i,
                label: Some(positive),
                time: Some((i % 4) as u32),
                user: Some(i),
            }
        })
        .collect()
}

fn toy_lm(vocab: usize, seed: u64) -> CausalLm {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cfg = ModelConfig::mistral_miniature(vocab);
    cfg.n_layers = 1;
    cfg.d_model = 16;
    cfg.n_heads = 2;
    cfg.n_kv_heads = 1;
    cfg.d_ff = 32;
    let mut lm = CausalLm::new(cfg, &mut rng);
    attach(&mut lm, &LoraConfig::default(), &mut rng);
    lm
}

fn cfg_with(batch_size: usize, grad_accum: usize, workers: usize) -> TrainConfig {
    TrainConfig {
        max_lr: 5e-3,
        min_lr: 5e-4,
        batch_size,
        grad_accum,
        epochs: 1,
        warmup_steps: 1,
        clip_norm: 1.0,
        weight_decay: 0.0,
        max_seq_len: 48,
        checkpoint_every: 0,
        pretrain_epochs: 0,
        pretrain_lr: 0.0,
        train_workers: workers,
    }
}

/// Train on a fresh model and return (per-step losses as exact f64 bits,
/// final trainable weights).
fn run(
    samples: &[zg_zigong::Sample],
    vocab: usize,
    cfg: &TrainConfig,
    seed: u64,
) -> (Vec<u64>, Vec<Vec<f32>>) {
    let lm = toy_lm(vocab, 21);
    let report = train_sft(&lm, samples, cfg, TrainOrder::Shuffled, seed);
    let losses = report
        .losses
        .iter()
        .map(|&l| (l as f64).to_bits())
        .collect();
    let weights = lm
        .trainable_params()
        .into_iter()
        .map(|(_, p)| p.data().to_vec())
        .collect();
    (losses, weights)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole reduction guarantee, property-tested: any sample
    /// count / batch size / accumulation depth / seed, any worker count —
    /// losses and final weights match the serial run bit-for-bit.
    #[test]
    fn parallel_engine_bit_identical_for_any_shape(
        n_samples in 9..24usize,
        batch_size in 2..5usize,
        grad_accum in 1..4usize,
        workers in 2..5usize,
        seed in 0u64..1000,
    ) {
        let examples = toy_examples(n_samples);
        let tok = train_tokenizer(&examples, 300);
        let samples = tokenize_all(&tok, &examples, 48);
        let vocab = tok.vocab_size();

        let serial = run(&samples, vocab, &cfg_with(batch_size, grad_accum, 1), seed);
        let parallel = run(&samples, vocab, &cfg_with(batch_size, grad_accum, workers), seed);
        prop_assert_eq!(serial.0, parallel.0);
        prop_assert_eq!(serial.1, parallel.1);
    }

    /// Accumulation depth k vs 1 is structurally equivalent under both
    /// engines: same total micro-batch consumption, k-fold fewer steps
    /// (up to the final ragged window), and finite losses throughout.
    #[test]
    fn grad_accum_structurally_equivalent_serial_and_parallel(
        grad_accum in 2..4usize,
        workers in 1..4usize,
        seed in 0u64..1000,
    ) {
        let examples = toy_examples(16);
        let tok = train_tokenizer(&examples, 300);
        let samples = tokenize_all(&tok, &examples, 48);

        let base = {
            let lm = toy_lm(tok.vocab_size(), 21);
            train_sft(&lm, &samples, &cfg_with(4, 1, workers), TrainOrder::Shuffled, seed)
        };
        let accum = {
            let lm = toy_lm(tok.vocab_size(), 21);
            train_sft(&lm, &samples, &cfg_with(4, grad_accum, workers), TrainOrder::Shuffled, seed)
        };
        // 16 samples / batch 4 = 4 micro-batches per epoch in both runs.
        prop_assert_eq!(base.profile.microbatches, accum.profile.microbatches);
        prop_assert_eq!(base.steps, 4);
        prop_assert_eq!(accum.steps as usize, 4usize.div_ceil(grad_accum));
        prop_assert!(base.losses.iter().all(|l| l.is_finite()));
        prop_assert!(accum.losses.iter().all(|l| l.is_finite()));
    }
}

#[test]
fn profiled_run_matches_unprofiled_bitwise() {
    let examples = toy_examples(12);
    let tok = train_tokenizer(&examples, 300);
    let samples = tokenize_all(&tok, &examples, 48);
    let cfg = cfg_with(4, 2, 2);

    let lm_a = toy_lm(tok.vocab_size(), 21);
    let plain = train_sft(&lm_a, &samples, &cfg, TrainOrder::Shuffled, 33);

    let lm_b = toy_lm(tok.vocab_size(), 21);
    let profiled = train_sft_profiled(
        &lm_b,
        &samples,
        &cfg,
        TrainOrder::Shuffled,
        33,
        Some(zg_trace::tick_clock()),
    );

    assert_eq!(plain.losses, profiled.losses);
    assert!(profiled.profile.total_s() > 0.0);
    let wa: Vec<Vec<f32>> = lm_a
        .trainable_params()
        .into_iter()
        .map(|(_, p)| p.data().to_vec())
        .collect();
    let wb: Vec<Vec<f32>> = lm_b
        .trainable_params()
        .into_iter()
        .map(|(_, p)| p.data().to_vec())
        .collect();
    assert_eq!(wa, wb, "clock injection changed training results");
}
