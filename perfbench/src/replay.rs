//! Single-thread replay of served requests through the public layer calls,
//! timing each call. The replay performs the float-op sequence of the
//! serving engine (prompt encoding, radix-pool lookup, chunked prefill,
//! greedy decode, cached candidate scoring), so each replayed reply must
//! be bit-equal to the served one; a mismatch is a failed operation.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use zg_model::{KvCache, PrefixBlock, PrefixPool};
use zg_serve::Reply;
use zg_tokenizer::Special;
use zg_zigong::{two_way_probability, ZiGongModel, ANSWER_TOKENS, SCORE_RESERVE};

/// Seconds and counts accumulated per layer over a replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Requests replayed.
    pub requests: u64,
    /// Whole-request time.
    pub total_s: f64,
    /// Prompt tokens (BOS included) of the replayed requests.
    pub prompt_tokens: u64,
    /// `prompt_ids` / `encode` calls.
    pub encode_s: f64,
    /// Bytes handed to the encoder.
    pub encode_bytes: u64,
    /// `decode` of the generated ids back to text.
    pub detokenize_s: f64,
    /// `PrefixPool::acquire` plus forking the leased block.
    pub acquire_s: f64,
    /// `acquire` calls.
    pub acquire_calls: u64,
    /// `PrefixPool::shared_prefix_len`.
    pub shared_len_s: f64,
    /// `PrefixPool::insert` (including the cache fork it stores).
    pub insert_s: f64,
    /// `insert` calls.
    pub insert_calls: u64,
    /// `CausalLm::prefill` of prompt chunks.
    pub prefill_s: f64,
    /// Greedy decode: sampling plus `CausalLm::step`.
    pub decode_s: f64,
    /// Decode steps taken.
    pub decode_steps: u64,
    /// `CausalLm::score_continuations_with_cache`.
    pub score_s: f64,
}

impl LayerTimes {
    /// Time covered by timed layer calls.
    pub fn attributed_s(&self) -> f64 {
        self.encode_s
            + self.detokenize_s
            + self.prefix_s()
            + self.prefill_s
            + self.decode_s
            + self.score_s
    }

    /// All prefix-pool time.
    pub fn prefix_s(&self) -> f64 {
        self.acquire_s + self.shared_len_s + self.insert_s
    }
}

/// Runs `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// A replica of the served model with its own prefix pool.
pub struct Replayer {
    model: ZiGongModel,
    pool: PrefixPool,
    /// Greedy decoding never draws from it; `sample_logits` needs one.
    rng: StdRng,
    /// Accumulated layer times.
    pub times: LayerTimes,
}

impl Replayer {
    /// A replayer over `model` with a pool of `pool_budget_tokens`.
    pub fn new(model: ZiGongModel, pool_budget_tokens: usize) -> Replayer {
        Replayer {
            model,
            pool: PrefixPool::new(pool_budget_tokens),
            rng: StdRng::seed_from_u64(0xD1D1),
            times: LayerTimes::default(),
        }
    }

    /// Encode `text` (no BOS) through the tokenizer, timed.
    fn encode(&mut self, text: &str) -> Vec<u32> {
        self.times.encode_bytes += text.len() as u64;
        let tok = &self.model.tokenizer;
        timed(&mut self.times.encode_s, || tok.encode(text))
    }

    /// `prompt_ids` with `reserve` tokens of headroom, timed.
    fn prompt_ids(&mut self, prompt: &str, reserve: usize) -> Vec<u32> {
        self.times.encode_bytes += prompt.len() as u64;
        let model = &self.model;
        timed(&mut self.times.encode_s, || {
            model.prompt_ids(prompt, reserve)
        })
    }

    /// Greedy decode of up to `max_new` tokens from `logits` on `cache`.
    fn decode(&mut self, mut row: Vec<f32>, cache: &mut KvCache, max_new: usize) -> String {
        let lm = &self.model.lm;
        let rng = &mut self.rng;
        let t = &mut self.times;
        let out = timed(&mut t.decode_s, || {
            let mut out = Vec::new();
            for _ in 0..max_new {
                let next = zg_model::sample_logits(&row, 0.0, rng);
                if next == Special::Eos.id() {
                    break;
                }
                out.push(next);
                row = lm.step(next, cache);
            }
            out
        });
        t.decode_steps += out.len() as u64;
        let tok = &self.model.tokenizer;
        timed(&mut t.detokenize_s, || tok.decode(&out))
    }

    /// Prefill `ids` through the radix pool the way the serving engine
    /// does: lease the longest cached prefix, prefill the rest in chunks
    /// split at the divergence point and at the last prompt token, and
    /// insert an entry at each split.
    fn prefill_shared(&mut self, ids: &[u32]) -> (KvCache, Vec<f32>, Vec<PrefixBlock>) {
        let mut leases = Vec::new();
        let lm = &self.model.lm;
        let pool = &self.pool;
        let t = &mut self.times;
        t.acquire_calls += 1;
        let (mut cache, mut from) = timed(&mut t.acquire_s, || match pool.acquire(ids) {
            Some((block, len)) => {
                let (cache, _) = block.fork();
                leases.push(block);
                (cache, len)
            }
            None => (lm.new_cache(), 0),
        });
        let seed = timed(&mut t.shared_len_s, || pool.shared_prefix_len(ids));
        for b in [seed, ids.len().saturating_sub(1)] {
            if b <= from || b >= ids.len() {
                continue;
            }
            let row = timed(&mut t.prefill_s, || lm.prefill(&ids[from..b], &mut cache));
            t.insert_calls += 1;
            leases.push(timed(&mut t.insert_s, || {
                pool.insert(&ids[..b], cache.fork(), row)
            }));
            from = b;
        }
        let logits = timed(&mut t.prefill_s, || lm.prefill(&ids[from..], &mut cache));
        (cache, logits, leases)
    }

    /// Replay one scoring request.
    pub fn score(&mut self, prompt: &str, negative: &str, positive: &str) -> Reply {
        let start = Instant::now();
        let p_ans = self.prompt_ids(prompt, ANSWER_TOKENS);
        let p_score = self.prompt_ids(prompt, SCORE_RESERVE);
        self.times.prompt_tokens += p_ans.len() as u64;
        let reply = if p_ans != p_score {
            // Truncated prompts take the evaluator's independent paths;
            // the configured prompt budget keeps every workload prompt
            // off this branch.
            let answer = self.model.generate_answer(prompt, ANSWER_TOKENS);
            let neg = self.encode(&format!(" {negative}"));
            let pos = self.encode(&format!(" {positive}"));
            let scores = self.model.lm.score_continuations(&p_score, &[&neg, &pos]);
            let p = two_way_probability(scores[0] as f64, scores[1] as f64, neg.len(), pos.len());
            Reply::Scored {
                answer,
                p_positive: p,
            }
        } else {
            let neg = self.encode(&format!(" {negative}"));
            let pos = self.encode(&format!(" {positive}"));
            let (cache, logits, leases) = self.prefill_shared(&p_ans);
            let mut fork = cache.fork();
            let answer = self.decode(logits.clone(), &mut fork, ANSWER_TOKENS);
            let lm = &self.model.lm;
            let scores = timed(&mut self.times.score_s, || {
                lm.score_continuations_with_cache(&cache, &logits, &[&neg, &pos])
            });
            drop(leases);
            let p = two_way_probability(scores[0] as f64, scores[1] as f64, neg.len(), pos.len());
            Reply::Scored {
                answer,
                p_positive: p,
            }
        };
        self.times.requests += 1;
        self.times.total_s += start.elapsed().as_secs_f64();
        reply
    }
}

/// Bitwise reply equality: same text, and the same `f64` bits for a score.
pub fn same_reply(a: &Reply, b: &Reply) -> bool {
    match (a, b) {
        (
            Reply::Scored {
                answer: x,
                p_positive: p,
            },
            Reply::Scored {
                answer: y,
                p_positive: q,
            },
        ) => x == y && p.to_bits() == q.to_bits(),
        (Reply::Generated { text: x }, Reply::Generated { text: y }) => x == y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scored(answer: &str, p: f64) -> Reply {
        Reply::Scored {
            answer: answer.into(),
            p_positive: p,
        }
    }

    #[test]
    fn parity_check_catches_a_one_ulp_perturbation() {
        let served = scored("good", 0.625);
        assert!(same_reply(&served, &scored("good", 0.625)));
        let nudged = f64::from_bits(0.625f64.to_bits() + 1);
        assert!(!same_reply(&served, &scored("good", nudged)));
        assert!(!same_reply(&served, &scored("bad", 0.625)));
        // Signed zero compares equal under `==` but not bit for bit.
        assert!(!same_reply(&scored("x", 0.0), &scored("x", -0.0)));
    }

    fn tiny_model() -> ZiGongModel {
        let mut cfg = zg_model::ModelConfig::mistral_miniature(280);
        cfg.n_layers = 1;
        cfg.d_model = 16;
        cfg.n_heads = 2;
        cfg.n_kv_heads = 1;
        cfg.d_ff = 32;
        let lm = zg_model::CausalLm::new(cfg, &mut StdRng::seed_from_u64(1));
        ZiGongModel::new(lm, zg_tokenizer::BpeTokenizer::byte_level(), 256, "tiny")
    }

    #[test]
    fn replay_reproduces_served_replies_and_catches_a_perturbed_one() {
        use zg_serve::{EngineConfig, Request, ServeConfig, Server, ZiGongEngine};
        let model = tiny_model();
        let engine = ZiGongEngine::new(
            model.spec(),
            EngineConfig {
                workers: 1,
                pool_budget_tokens: 4096,
                ..EngineConfig::default()
            },
        );
        let cfg = ServeConfig {
            queue_capacity: 16,
            max_batch: 2,
            default_timeout: None,
            reorder_window: 2,
        };
        let mut server = Server::new(engine, cfg, zg_trace::wall_clock());
        let header = "Shared template header for every borrower. ";
        let prompts: Vec<String> = (0..4)
            .map(|i| format!("{header}borrower {i} owes {} units. Answer:", 100 + 7 * i))
            .collect();
        for p in &prompts {
            server
                .submit(Request::score(p.clone(), "bad", "good").with_template(1))
                .unwrap();
        }
        let mut done = server.run_until_idle();
        server.shutdown();
        done.sort_by_key(|c| c.id);

        let mut replayer = Replayer::new(model.spec().build(), 4096);
        for (c, p) in done.iter().zip(&prompts) {
            let served = c.result.as_ref().unwrap();
            let replayed = replayer.score(p, "bad", "good");
            assert!(same_reply(served, &replayed), "{served:?} vs {replayed:?}");
            if let Reply::Scored { answer, p_positive } = served {
                let perturbed = scored(answer, f64::from_bits(p_positive.to_bits() ^ 1));
                assert!(!same_reply(&perturbed, &replayed));
            }
        }
        // The shared header was served from the replay's prefix pool.
        assert_eq!(replayer.times.acquire_calls, 4);
        assert!(replayer.times.insert_calls >= 4);
        assert_eq!(replayer.times.requests, 4);
    }

    #[test]
    fn parity_check_separates_reply_kinds() {
        let g = Reply::Generated { text: "a".into() };
        assert!(same_reply(&g, &Reply::Generated { text: "a".into() }));
        assert!(!same_reply(&g, &Reply::Generated { text: "b".into() }));
        assert!(!same_reply(&g, &scored("a", 0.5)));
    }
}
