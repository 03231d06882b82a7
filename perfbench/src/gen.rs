//! Seeded workload inputs. Every request is a pure function of the run
//! seed and its index, so two runs with one seed send the same prompts on
//! the same arrival schedule; the program only ever sees the generated
//! strings.

use zg_data::Dataset;
use zg_instruct::render_classification;
use zg_zigong::EvalItem;

/// Template preambles of the scoring workload: product flows that render
/// the same borrower record behind different fixed instructions. The
/// shared header is what the radix prefix cache reuses; the borrower
/// record after it is new on every request.
pub const PREAMBLES: [&str; 4] = [
    "Retail lending desk, automated first review. Assess the applicant below against the \
     standard consumer credit policy and answer with the risk class only.\n\n",
    "Branch escalation queue. A loan officer has asked for a second opinion on this \
     applicant before the committee meets; weigh repayment history and current \
     obligations.\n\n",
    "Portfolio backfill re-score. This application was approved under an earlier policy \
     version; re-assess it under the current lending rules for the quarterly risk \
     report.\n\n",
    "Partner channel pre-screen. The broker submitted the profile below through the \
     partner API; screen it before it enters the underwriting pipeline.\n\n",
];

/// Seed of the request trace: the arrival times and the template key of
/// each request. The trace is one fixed draw for every run, so a run's
/// tail latency measures the server rather than how bursty or how
/// template-mixed its own draw happened to be; the run seed draws the
/// borrowers.
const TRACE_SEED: u64 = 0xA771_7A15;

/// Borrowers generated per `zg_data::german` call; request `i` takes
/// borrower `i % CHUNK` of chunk `i / CHUNK`.
const CHUNK: usize = 256;

/// SplitMix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One scoring request: template key, full prompt and the two answers.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreInput {
    /// Index into [`PREAMBLES`]; sent as the request's template key.
    pub template: u64,
    /// Preamble followed by the rendered borrower record.
    pub prompt: String,
    /// Negative-class answer.
    pub negative: String,
    /// Positive-class answer.
    pub positive: String,
}

/// Stream of scoring requests with a fresh German Credit borrower each.
pub struct ScoreGen {
    seed: u64,
    chunk: Option<(usize, Dataset)>,
}

impl ScoreGen {
    /// Requests of the run with `seed`.
    pub fn new(seed: u64) -> ScoreGen {
        ScoreGen { seed, chunk: None }
    }

    /// Request `i` as an evaluation item (its template key, and the
    /// borrower record with the preamble-prefixed prompt), the form the
    /// offline evaluator takes.
    pub fn item(&mut self, i: usize) -> (u64, EvalItem<'_>) {
        let c = i / CHUNK;
        if self.chunk.as_ref().is_none_or(|(have, _)| *have != c) {
            let ds = zg_data::german(CHUNK, mix(self.seed, 0x5C0E_0000 + c as u64));
            self.chunk = Some((c, ds));
        }
        let (_, ds) = self.chunk.as_ref().expect("chunk generated above");
        let record = &ds.records[i % CHUNK];
        let mut example = render_classification(ds, record);
        let template = mix(TRACE_SEED, i as u64) % PREAMBLES.len() as u64;
        example.prompt = format!("{}{}", PREAMBLES[template as usize], example.prompt);
        (template, EvalItem { record, example })
    }

    /// Request `i`.
    pub fn input(&mut self, i: usize) -> ScoreInput {
        let (template, item) = self.item(i);
        let mut candidates = item.example.candidates.into_iter();
        ScoreInput {
            template,
            prompt: item.example.prompt,
            negative: candidates.next().expect("binary template"),
            positive: candidates.next().expect("binary template"),
        }
    }
}

/// Open-loop arrival offsets (seconds from phase start) of `n` requests
/// from a Poisson process at `rate`.
pub fn arrivals(rate: f64, n: usize) -> Vec<f64> {
    zg_serve::poisson_arrivals(TRACE_SEED, rate, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_prompts() {
        assert_eq!(arrivals(60.0, 300), arrivals(60.0, 300));
        let (mut a, mut b) = (ScoreGen::new(7), ScoreGen::new(7));
        for i in [0, 1, 255, 256, 700] {
            assert_eq!(a.input(i), b.input(i));
        }
        // Out-of-order access regenerates the same borrower.
        let first = a.input(3);
        let _ = a.input(900);
        assert_eq!(a.input(3), first);
    }

    #[test]
    fn different_seeds_give_different_prompts() {
        let (mut a, mut b) = (ScoreGen::new(7), ScoreGen::new(8));
        let differ = (0..32).filter(|&i| a.input(i) != b.input(i)).count();
        assert!(differ >= 30, "only {differ} of 32 scoring prompts differ");
        // The trace half of a request (its template key) is seed-free.
        assert!((0..32).all(|i| a.input(i).template == b.input(i).template));
    }

    #[test]
    fn borrowers_are_fresh_and_templates_mixed() {
        let mut g = ScoreGen::new(1);
        let inputs: Vec<ScoreInput> = (0..300).map(|i| g.input(i)).collect();
        let mut prompts: Vec<&str> = inputs.iter().map(|s| s.prompt.as_str()).collect();
        prompts.sort_unstable();
        prompts.dedup();
        assert!(prompts.len() >= 295, "{} distinct of 300", prompts.len());
        for t in 0..PREAMBLES.len() as u64 {
            assert!(inputs.iter().any(|s| s.template == t));
        }
        for s in &inputs {
            assert!(s.prompt.starts_with(PREAMBLES[s.template as usize]));
        }
    }
}
