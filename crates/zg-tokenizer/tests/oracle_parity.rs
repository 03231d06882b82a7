//! The library's training and encoding against the rank-by-rank reference
//! in `common/`: equal merge lists, equal token ids, lossless round trips.
//! Corpora cover runs (`aaaa`), alternations (`abab`), multibyte UTF-8 and
//! vocabulary sizes past the point where no pair repeats.

mod common;

use proptest::prelude::*;
use proptest::TestCaseError;
use zg_tokenizer::BpeTokenizer;

/// Train both ways; assert equal merges, then equal ids and a lossless
/// round trip on every corpus line and probe.
fn check(corpus: &[String], vocab: usize, probes: &[&str]) -> Result<(), TestCaseError> {
    let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
    let tok = BpeTokenizer::train(&refs, vocab);
    let oracle = common::train(&refs, vocab);
    prop_assert_eq!(tok.merges(), &oracle[..]);
    for text in refs.iter().chain(probes) {
        let ids = tok.encode(text);
        prop_assert_eq!(&ids, &common::encode(&oracle, text));
        prop_assert_eq!(tok.decode(&ids), *text);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn alternations_match_oracle(corpus in prop::collection::vec("[ab]{0,40}", 1..6),
                                 vocab in 256usize..340,
                                 probe in "[abc]{0,60}") {
        check(&corpus, vocab, &[&probe])?;
    }

    #[test]
    fn runs_match_oracle(corpus in prop::collection::vec("[a]{0,30}[b]{0,3}[a]{0,30}", 1..5),
                         vocab in 260usize..300,
                         probe in "[a]{0,70}") {
        check(&corpus, vocab, &[&probe])?;
    }

    #[test]
    fn multibyte_matches_oracle(corpus in prop::collection::vec("[aé€😀 ]{0,24}", 1..6),
                                vocab in 260usize..400,
                                probe in "\\PC{0,40}") {
        check(&corpus, vocab, &[&probe])?;
    }

    #[test]
    fn printable_text_matches_oracle(corpus in prop::collection::vec("\\PC{0,60}", 1..5),
                                     vocab in 260usize..500,
                                     probe in "\\PC{0,80}") {
        check(&corpus, vocab, &[&probe])?;
    }
}

/// The served shape: one shared preamble on many records, where the
/// merges run deep (merged tokens merging again) and training stops on
/// its vocabulary target rather than on exhaustion.
#[test]
fn templated_prompts_match_oracle() {
    let corpus: Vec<String> = (0..12)
        .map(|i| {
            format!(
                "Retail lending desk, first review. Assess the applicant below. \
                 Applicant {i}: checking account {} DM, duration {} months, \
                 purpose {}. Answer: {}",
                (i * 37) % 200,
                6 + (i * 7) % 30,
                ["car", "radio/TV", "furniture", "business"][i % 4],
                if i % 3 == 0 { "bad" } else { "good" },
            )
        })
        .collect();
    let probe = "Retail lending desk, first review. Applicant 99: duration 48 months.";
    check(&corpus, 560, &[probe]).unwrap();
}

#[test]
fn merge_in_place_basic() {
    let mut seq = vec![1, 2, 1, 2, 3, 1];
    common::merge_in_place(&mut seq, (1, 2), 9);
    assert_eq!(seq, vec![9, 9, 3, 1]);
}

#[test]
fn merge_in_place_overlapping_left_to_right() {
    let mut seq = vec![1, 1, 1];
    common::merge_in_place(&mut seq, (1, 1), 9);
    assert_eq!(seq, vec![9, 1]);
}
