//! Loading untrusted tokenizer JSON: `from_json` never panics, and a
//! tokenizer it accepts round-trips through `to_json`, encodes exactly
//! like the reference encoder and decodes what it encodes, for any text.

mod common;

use proptest::prelude::*;
use proptest::TestCaseError;
use zg_tokenizer::{byte_token, first_merge_id, BpeTokenizer};

/// Properties every accepted tokenizer must have.
fn check_accepted(tok: &BpeTokenizer, probes: &[&str], ids: &[u32]) -> Result<(), TestCaseError> {
    let back = BpeTokenizer::from_json(&tok.to_json());
    prop_assert!(back.is_ok(), "to_json output rejected: {:?}", back.err());
    let back = back.unwrap();
    prop_assert_eq!(back.merges(), tok.merges());
    for text in probes {
        let encoded = tok.encode(text);
        prop_assert_eq!(&encoded, &common::encode(tok.merges(), text));
        prop_assert_eq!(&back.encode(text), &encoded);
        prop_assert_eq!(tok.decode(&encoded), *text);
    }
    // Any in-vocabulary id decodes.
    let vocab = tok.vocab_size() as u32;
    let in_vocab: Vec<u32> = ids.iter().map(|&id| id % vocab).collect();
    let _ = tok.decode(&in_vocab);
    Ok(())
}

/// A merge list built from raw draws: a third of the draws pick one of
/// the bytes `a`..`d`, the rest an earlier merge (when there is one), so
/// merges build on each other. Draws from 980 up are kept as raw ids and
/// usually reference ids that do not exist yet; repeated pairs happen too.
fn merges_from(draws: &[u32]) -> Vec<(u32, u32)> {
    let pick = |x: u32, rank: u32| -> u32 {
        if x >= 980 {
            x
        } else if x.is_multiple_of(3) || rank == 0 {
            byte_token(b'a' + (x / 3 % 4) as u8)
        } else {
            first_merge_id() + (x / 3) % rank
        }
    };
    draws
        .chunks_exact(2)
        .enumerate()
        .map(|(rank, w)| (pick(w[0], rank as u32), pick(w[1], rank as u32)))
        .collect()
}

/// Characters of JSON merge lists, plus a few that break them.
const JSON_CHARS: &[u8] = b"[[[]]]{},,,:\"\" 0123456789-.e+merges";

fn merges_json(merges: &[(u32, u32)]) -> String {
    let body: Vec<String> = merges.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
    format!("{{\"merges\":[{}]}}", body.join(","))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(tok) = BpeTokenizer::from_json(&text) {
            check_accepted(&tok, &["abcabc", &text], &[])?;
        }
    }

    #[test]
    fn json_like_text_never_panics(picks in prop::collection::vec(0..JSON_CHARS.len(), 0..60)) {
        let body: String = picks.iter().map(|&i| JSON_CHARS[i] as char).collect();
        for text in [body.clone(), format!("{{\"merges\":{body}}}"),
                     format!("{{\"merges\":[{body}]}}")] {
            if let Ok(tok) = BpeTokenizer::from_json(&text) {
                check_accepted(&tok, &["abcabc", "ab"], &[])?;
            }
        }
    }

    #[test]
    fn arbitrary_merge_lists(draws in prop::collection::vec(0u32..1000, 0..64),
                             probe in "[abcd]{0,60}",
                             text in "\\PC{0,40}",
                             ids in prop::collection::vec(any::<u32>(), 0..32)) {
        let merges = merges_from(&draws);
        let valid = merges.iter().enumerate().all(|(rank, &(a, b))| {
            let id = first_merge_id() + rank as u32;
            a < id && b < id && !merges[..rank].contains(&(a, b))
        });
        match BpeTokenizer::from_json(&merges_json(&merges)) {
            Ok(tok) => {
                prop_assert!(valid, "accepted an invalid list {:?}", merges);
                prop_assert_eq!(tok.merges(), &merges[..]);
                check_accepted(&tok, &[&probe, &text], &ids)?;
            }
            Err(_) => prop_assert!(!valid, "rejected a valid list {:?}", merges),
        }
    }
}
