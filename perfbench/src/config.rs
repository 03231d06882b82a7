//! The pinned benchmark configuration. Nothing here is derived from the
//! host: worker counts, rates and budgets are constants, so a run on any
//! machine measures the same configuration, and every run prints them
//! (see [`describe`]).

use zg_serve::{OpsConfig, ServeConfig, Slo, SloObjective};

/// Engine replicas and trainer / evaluator / influence workers.
pub const WORKERS: usize = 2;
/// Largest engine batch: two requests per replica.
pub const MAX_BATCH: usize = 2 * WORKERS;
/// Queue positions scanned for same-template pulls (one extra batch).
pub const REORDER_WINDOW: usize = 2 * MAX_BATCH;
/// Token budget of each replica's radix prefix pool. A borrower-suffix
/// entry costs about one prompt length, so the pool holds a few dozen
/// entries and evicts steadily under fresh-borrower traffic.
pub const POOL_BUDGET_TOKENS: usize = 4096;
/// Admission queue bound; far above any backlog the open loop can build.
pub const QUEUE_CAPACITY: usize = 1 << 16;

/// Offered rate of the scoring workload's open-loop phase (requests/s):
/// about a third of its capacity, so queueing does not multiply the
/// swings of a shared host into the latency readings.
pub const SCORE_RATE: f64 = 25.0;
/// Total length of the closed-loop saturation probes, seconds; the
/// open-loop trace gets what the probes and single caller leave of
/// `--seconds`.
pub const CLOSED_S: f64 = 12.0;
/// Requests kept outstanding in the closed-loop phase: two full batches.
pub const CLOSED_CLIENTS: usize = 2 * MAX_BATCH;
/// Rounds of the scoring run. Each round offers its share of the
/// open-loop trace, then runs one closed-loop capacity probe (an equal
/// share of [`CLOSED_S`]) and an equal share of [`SINGLE_REQUESTS`];
/// capacity is the median probe rate.
pub const ROUNDS: usize = 16;
/// Requests sent one at a time (each when the previous reply arrives):
/// enough for a true p99 of the single-caller latency.
pub const SINGLE_REQUESTS: usize = 1600;
/// Time budgeted for the single-caller requests, seconds (about 12.5 ms
/// each on an unloaded 2-core host); the open loop gets what remains.
pub const SINGLE_S: f64 = 20.0;
/// Served replies checked against the offline evaluator in an untraced
/// run (the traced run checks every reply).
pub const CHECK_SAMPLE: usize = 32;
/// Closed-loop phase length of each tracing-overhead repetition, seconds.
pub const OVERHEAD_PHASE_S: f64 = 2.5;

/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPEATS: usize = 5;

/// Vocabulary of the served model's BPE tokenizer.
pub const VOCAB: usize = 768;
/// Prompt budget of the served model: every preamble plus borrower record
/// fits untruncated, so scoring takes the shared-prefill path.
pub const SERVE_MAX_SEQ: usize = 768;
/// Seed of the served model's weights. The model is a fixed artifact; the
/// run seed varies only the traffic.
pub const SERVE_MODEL_SEED: u64 = 0xBE7C;
/// Seed of the tokenizer's training records (fixed, like the weights).
pub const TOKENIZER_DATA_SEED: u64 = 0x2F;

/// Users of the pipeline's behavior dataset; the pool, the validation set
/// and the held-out set are drawn from them.
pub const PIPE_USERS: usize = 4200;
/// Periods per user in the pipeline's behavior dataset.
pub const PIPE_PERIODS: usize = 6;
/// Candidate pool size (training records scored by TracSeq).
pub const PIPE_POOL: usize = 192;
/// Validation records TracSeq scores the pool against.
pub const PIPE_VAL: usize = 16;
/// Held-out records of the final evaluation.
pub const PIPE_HELD_OUT: usize = 800;
/// Size of the 70/30 hybrid training set.
pub const PIPE_SELECT: usize = 96;
/// TracSeq decay γ.
pub const PIPE_GAMMA: f32 = 0.9;
/// Pool samples whose TracSeq scores are re-derived serially and
/// compared bit for bit with the parallel scores.
pub const PIPE_PARITY_SUBSET: usize = 8;
/// Prompt budget of the pipeline model (and its SFT sequence length).
pub const PIPE_MAX_SEQ: usize = 128;
/// Seed of the pipeline inputs whose peak memory `peak_rss_mb` reports.
/// Peak memory is measured on this one fixed input, like the scoring
/// workload's request trace: inputs of one size, drawn from different
/// seeds, peaked from 112 to 153 MiB (every reading repeatable within
/// 1 MiB), so a per-seed reading would measure the draw.
pub const PIPE_MEMORY_SEED: u64 = 0x3E30;
/// Seed of the pipeline model's initial weights and LoRA adapters.
pub const PIPE_MODEL_SEED: u64 = 0x7A5E;

/// Server configuration of the scoring workload.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: QUEUE_CAPACITY,
        max_batch: MAX_BATCH,
        default_timeout: None,
        reorder_window: REORDER_WINDOW,
    }
}

/// The ops plane a deployed server runs with: windowed series plus one
/// latency SLO (the representative configuration of `serve_load`).
pub fn ops_config() -> OpsConfig {
    OpsConfig {
        slos: vec![Slo {
            name: "p99-latency".into(),
            objective: SloObjective::LatencyAbove(0.25),
            budget: 0.01,
            short_windows: 4,
            long_windows: 16,
            burn_threshold: 2.0,
        }],
        ..OpsConfig::default()
    }
}

/// One line naming every pinned setting, printed by every run.
pub fn describe() -> String {
    format!(
        "config: workers={WORKERS} max_batch={MAX_BATCH} reorder_window={REORDER_WINDOW} \
         pool_budget_tokens={POOL_BUDGET_TOKENS} score_rate={SCORE_RATE}/s \
         closed_s={CLOSED_S} rounds={ROUNDS} single_requests={SINGLE_REQUESTS} closed_clients={CLOSED_CLIENTS} \
         ops=window_1s+slo(p99-latency>0.25s,budget=0.01,4/16,burn=2) \
         setup_repeats={SETUP_REPEATS} pipe_pool={PIPE_POOL} pipe_val={PIPE_VAL} \
         pipe_held_out={PIPE_HELD_OUT} pipe_select={PIPE_SELECT} gamma={PIPE_GAMMA}"
    )
}
