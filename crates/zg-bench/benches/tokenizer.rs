//! Tokenizer throughput: BPE training, encoding, and decoding over the
//! financial-credit instruction corpus, plus the served shape: a vocab-768
//! tokenizer trained on 48 preamble-prefixed scoring prompts, encoding one
//! such prompt (about 860 bytes).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zg_data::german;
use zg_instruct::{render_classification, InstructExample};
use zg_tokenizer::BpeTokenizer;

/// Policy headers in front of the borrower record in served scoring
/// prompts: every prompt shares one header and carries a fresh record.
const PREAMBLES: [&str; 4] = [
    "Consumer lending desk, automated first review. Assess the applicant below \
     against the standard consumer credit policy and answer with the risk class.\n\n",
    "Second-opinion queue. A loan officer wants another view on this applicant \
     before the credit committee meets; weigh repayment history and obligations.\n\n",
    "Quarterly portfolio re-score. This application was approved under an older \
     policy version; re-assess it under the current lending rules for the report.\n\n",
    "Broker channel pre-screen. The profile below arrived through the partner \
     interface; screen it before it enters the underwriting pipeline.\n\n",
];

fn corpus() -> Vec<String> {
    let ds = german(200, 1);
    ds.records
        .iter()
        .map(|r| render_classification(&ds, r).full_text())
        .collect()
}

fn bench_train(c: &mut Criterion) {
    let texts = corpus();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    c.bench_function("bpe_train_200docs_vocab500", |b| {
        b.iter(|| black_box(BpeTokenizer::train(&refs, 500)))
    });
}

fn bench_encode_decode(c: &mut Criterion) {
    let texts = corpus();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let tok = BpeTokenizer::train(&refs, 600);
    let doc = &texts[0];
    c.bench_function("bpe_encode_one_prompt", |b| {
        b.iter(|| black_box(tok.encode(doc)))
    });
    let ids = tok.encode(doc);
    c.bench_function("bpe_decode_one_prompt", |b| {
        b.iter(|| black_box(tok.decode(&ids)))
    });
}

/// Scoring prompts in the served shape: a preamble, then a borrower.
fn served_examples(n: usize) -> Vec<InstructExample> {
    let ds = german(n, 5);
    ds.records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mut e = render_classification(&ds, r);
            e.prompt = format!("{}{}", PREAMBLES[i % PREAMBLES.len()], e.prompt);
            e
        })
        .collect()
}

fn bench_served_shape(c: &mut Criterion) {
    let examples = served_examples(49);
    // Train on 48; the last is a fresh borrower behind a known header, as
    // each served request is.
    let (train, fresh) = examples.split_at(48);
    let texts: Vec<String> = train.iter().map(InstructExample::full_text).collect();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    c.bench_function("bpe_train_48_served_prompts_vocab768", |b| {
        b.iter(|| black_box(BpeTokenizer::train(&refs, 768)))
    });
    let tok = BpeTokenizer::train(&refs, 768);
    let prompt = &fresh[0].prompt;
    c.bench_function("bpe_encode_served_prompt", |b| {
        b.iter(|| black_box(tok.encode(prompt)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_train, bench_encode_decode, bench_served_shape
}
criterion_main!(benches);
