//! Metric names, units and the one-line JSON result.
//!
//! Every workload reports every metric of the list its mode prints, so the
//! lists below must match `BENCHMARK.json` (a test checks they do). A
//! per-layer metric of a layer the workload never calls reads `0`.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("capacity_rps", "1/s"),
];

/// Per-layer metrics: `(name, unit)`, printed by traced runs.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("latency_p95_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("server.open_loop_ms.p50", "ms"),
    ("server.open_loop_ms.p99", "ms"),
    ("server.queue_wait_ms.p50", "ms"),
    ("server.queue_wait_ms.p99", "ms"),
    ("server.batch_size.mean", "count"),
    ("server.tick_self_us.p50", "us"),
    ("loadgen.lag_ms.p99", "ms"),
    ("engine.execute_ms.p50", "ms"),
    ("engine.replica_utilization", "ratio"),
    ("tokenizer.encode_ms_per_req", "ms"),
    ("tokenizer.encode_bytes_per_req", "bytes"),
    ("prefix.hit_token_rate", "ratio"),
    ("prefix.inserts_per_req", "count"),
    ("prefix.evictions_per_req", "count"),
    ("prefix.resident_tokens", "count"),
    ("prefix.acquire_us", "us"),
    ("prefix.insert_us", "us"),
    ("model.prefill_tokens_per_req", "count"),
    ("model.prefill_ms_per_req", "ms"),
    ("model.score_ms_per_req", "ms"),
    ("model.decode_steps_per_req", "count"),
    ("model.decode_us_per_step", "us"),
    ("tensor.gemm_calls_per_req", "count"),
    ("tensor.gemm_mflop_per_req", "MFLOP"),
    ("tensor.gemm_naive_frac", "ratio"),
    ("tensor.pool_hit_rate", "ratio"),
    ("train.collate_s", "s"),
    ("train.forward_s", "s"),
    ("train.backward_s", "s"),
    ("train.sync_s", "s"),
    ("train.reduce_s", "s"),
    ("train.optimizer_s", "s"),
    ("train.sft_samples_per_s", "1/s"),
    ("influence.grad_ms_per_sample", "ms"),
    ("influence.score_ms", "ms"),
    ("influence.grad_dim", "count"),
    ("influence.tracseq_samples_per_s", "1/s"),
    ("eval.item_ms", "ms"),
    ("eval.worker_utilization", "ratio"),
    ("eval.items_per_s", "1/s"),
    ("workload.prompt_bytes_mean", "bytes"),
    ("workload.prompt_tokens_mean", "count"),
    ("workload.output_tokens_per_req", "count"),
    ("workload.peak_rss_end_mb", "MB"),
    ("share.tokenizer", "ratio"),
    ("share.prefix", "ratio"),
    ("share.prefill", "ratio"),
    ("share.decode", "ratio"),
    ("share.score", "ratio"),
    ("unattributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

/// Per-layer metrics of the pipeline's layers (trainer, influence,
/// evaluator); the scoring workload never calls them.
pub const PIPELINE_ONLY: [&str; 14] = [
    "train.collate_s",
    "train.forward_s",
    "train.backward_s",
    "train.sync_s",
    "train.reduce_s",
    "train.optimizer_s",
    "train.sft_samples_per_s",
    "influence.grad_ms_per_sample",
    "influence.score_ms",
    "influence.grad_dim",
    "influence.tracseq_samples_per_s",
    "eval.item_ms",
    "eval.worker_utilization",
    "eval.items_per_s",
];

/// Per-layer metrics of the serving layers (scheduler, engine, tokenizer
/// on the request path, prefix cache) and of the request replay; the
/// pipeline never calls them.
pub const SERVING_ONLY: [&str; 25] = [
    "server.open_loop_ms.p50",
    "server.open_loop_ms.p99",
    "server.queue_wait_ms.p50",
    "server.queue_wait_ms.p99",
    "server.batch_size.mean",
    "server.tick_self_us.p50",
    "loadgen.lag_ms.p99",
    "engine.execute_ms.p50",
    "engine.replica_utilization",
    "tokenizer.encode_ms_per_req",
    "tokenizer.encode_bytes_per_req",
    "prefix.hit_token_rate",
    "prefix.inserts_per_req",
    "prefix.evictions_per_req",
    "prefix.resident_tokens",
    "prefix.acquire_us",
    "prefix.insert_us",
    "model.score_ms_per_req",
    "model.decode_us_per_step",
    "share.tokenizer",
    "share.prefix",
    "share.prefill",
    "share.decode",
    "share.score",
    "workload.output_tokens_per_req",
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests, or pipeline items).
    pub attempted: u64,
    /// Operations that failed: refused, expired, or with a wrong output.
    pub failed: u64,
    /// Check failures that are not single operations (leak audit, etc.).
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line over `names`. Errors when a listed metric is
    /// missing or not finite (the run then prints no result).
    pub fn result_line(&self, names: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut metrics = serde_json::Map::new();
        for &(name, unit) in names {
            let v = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            metrics.insert(
                name.to_string(),
                serde_json::json!({ "value": v, "unit": unit }),
            );
        }
        let line = serde_json::json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": serde_json::Value::Object(metrics),
        });
        Ok(line.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn listed(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        json[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("setup_s", 1.25);
        assert!(o.result_line(&END_TO_END).is_err());
        for (name, _) in END_TO_END {
            o.set(name, 2.5);
        }
        let line = o.result_line(&END_TO_END).unwrap();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["correct"], true);
        assert_eq!(v["attempted"], 3);
        assert_eq!(v["metrics"]["setup_s"]["unit"], "s");
        o.set("capacity_rps", f64::NAN);
        assert!(o.result_line(&END_TO_END).is_err());
    }
}
