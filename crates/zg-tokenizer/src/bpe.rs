//! Byte-level BPE: merge training, encoding, and decoding.
//!
//! Merge `rank` produces token `first_merge_id() + rank`, and every merge
//! `(a, b) -> id` has `a, b < id`: training only merges tokens that
//! already exist, and loading rejects any other list. Both fast loops
//! below rest on this id-ordering invariant. Everything round-trips
//! losslessly because the base alphabet is all 256 bytes.
//!
//! **Training** follows the classic algorithm: start from raw bytes and
//! repeatedly merge the most frequent adjacent pair (count ≥ 2; ties go to
//! the smallest pair) until the target vocabulary size is reached. The
//! windows are counted once. Each merge then applies only the count
//! changes at its sites: the window to the left, the pair itself and the
//! window to the right leave, `(left, new)` and `(new, right)` arrive. The
//! left neighbour is read from the output already written, so adjacent
//! sites (`abab`) and overlapping runs (`aaa`) stay exact. A lazy max-heap
//! over `(count, pair)` finds the next merge; an entry whose count is no
//! longer current is skipped.
//!
//! **Encoding** keeps the bytes in a linked list and a min-heap of
//! candidate merges keyed by `(merged id, position)`. A popped entry is
//! applied if its pair still sits at that position; after a merge only
//! the two new neighbour pairs are pushed. A merge creates only pairs
//! that contain its own id, and those merge into larger ids, so popping
//! by `(id, position)` applies the lowest-rank merge first and each rank
//! left to right without overlaps: the same ids as replaying the merge
//! list rank by rank over the whole sequence.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::vocab::{byte_token, first_merge_id, Special};

/// A trained byte-level BPE tokenizer.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "MergeList")]
pub struct BpeTokenizer {
    /// Learned merges in rank order: merging `(a, b)` yields token
    /// `first_merge_id() + rank`.
    merges: Vec<(u32, u32)>,
    /// Pair -> merged id, built from `merges`. Lookup only, never iterated.
    #[serde(skip)]
    merge_ids: HashMap<(u32, u32), u32>,
}

/// The serialized form of a tokenizer: its merge list.
#[derive(Deserialize)]
struct MergeList {
    merges: Vec<(u32, u32)>,
}

/// Why a merge list is not a valid tokenizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// Merge `rank` uses a token id that does not exist before it (an id
    /// at or above its own).
    ForwardReference {
        /// Position of the merge in the list.
        rank: usize,
        /// The offending pair.
        pair: (u32, u32),
    },
    /// Merge `rank` repeats the pair of an earlier merge.
    Duplicate {
        /// Position of the merge in the list.
        rank: usize,
        /// The repeated pair.
        pair: (u32, u32),
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MergeError::ForwardReference { rank, pair } => write!(
                f,
                "merge {rank} {pair:?} uses a token id not below its own id {}",
                first_merge_id() as u64 + rank as u64
            ),
            MergeError::Duplicate { rank, pair } => {
                write!(f, "merge {rank} {pair:?} repeats an earlier merge")
            }
        }
    }
}

impl std::error::Error for MergeError {}

impl TryFrom<MergeList> for BpeTokenizer {
    type Error = MergeError;

    fn try_from(list: MergeList) -> Result<Self, MergeError> {
        BpeTokenizer::from_merges(list.merges)
    }
}

/// Marks an encode position merged into its left neighbour. No valid
/// merge pair contains it (pairs hold ids below their own merged id).
const DEAD: u32 = u32::MAX;

/// End of the encode linked list.
const NONE: usize = usize::MAX;

impl BpeTokenizer {
    /// Tokenizer with no merges: pure byte-level encoding.
    pub fn byte_level() -> Self {
        BpeTokenizer::with_merges(Vec::new())
    }

    /// Tokenizer over an explicit merge list, checked: every merge must
    /// use only ids below its own, and no pair may repeat.
    pub fn from_merges(merges: Vec<(u32, u32)>) -> Result<Self, MergeError> {
        let mut tok = BpeTokenizer::with_merges(Vec::new());
        for (rank, &pair) in merges.iter().enumerate() {
            let id = first_merge_id() as u64 + rank as u64;
            if pair.0 as u64 >= id || pair.1 as u64 >= id {
                return Err(MergeError::ForwardReference { rank, pair });
            }
            if tok.merge_ids.insert(pair, id as u32).is_some() {
                return Err(MergeError::Duplicate { rank, pair });
            }
        }
        tok.merges = merges;
        Ok(tok)
    }

    /// Tokenizer over a merge list that is valid by construction.
    fn with_merges(merges: Vec<(u32, u32)>) -> Self {
        let merge_ids = merges
            .iter()
            .enumerate()
            .map(|(rank, &pair)| (pair, first_merge_id() + rank as u32))
            .collect();
        BpeTokenizer { merges, merge_ids }
    }

    /// Train merges from a corpus until the vocabulary reaches `vocab_size`
    /// (specials + 256 bytes + merges), or no pair repeats.
    pub fn train(corpus: &[&str], vocab_size: usize) -> Self {
        let target_merges = vocab_size.saturating_sub(first_merge_id() as usize);
        let mut seqs: Vec<Vec<u32>> = corpus
            .iter()
            .map(|s| s.bytes().map(byte_token).collect())
            .collect();
        let mut counts: HashMap<(u32, u32), usize> = HashMap::new();
        for seq in &seqs {
            for w in seq.windows(2) {
                *counts.entry((w[0], w[1])).or_insert(0) += 1;
            }
        }
        // Max-heap on count, then on the smallest pair. Pairs are distinct,
        // so the pop order does not depend on the map's iteration order.
        let mut heap: BinaryHeap<(usize, Reverse<(u32, u32)>)> =
            counts.iter().map(|(&p, &c)| (c, Reverse(p))).collect();
        let mut merges = Vec::with_capacity(target_merges);
        let mut touched = Vec::new();
        while merges.len() < target_merges {
            let Some(pair) = pop_best(&mut heap, &counts) else {
                break;
            };
            let new_id = first_merge_id() + merges.len() as u32;
            merges.push(pair);
            let mut delta = CountDelta {
                counts: &mut counts,
                touched: &mut touched,
            };
            for seq in &mut seqs {
                merge_counting(seq, pair, new_id, &mut delta);
            }
            touched.sort_unstable();
            touched.dedup();
            for p in touched.drain(..) {
                if let Some(&c) = counts.get(&p) {
                    heap.push((c, Reverse(p)));
                }
            }
        }
        BpeTokenizer::with_merges(merges)
    }

    /// Learned merges in rank order.
    pub fn merges(&self) -> &[(u32, u32)] {
        &self.merges
    }

    /// Total vocabulary size: specials + bytes + merges.
    pub fn vocab_size(&self) -> usize {
        first_merge_id() as usize + self.merges.len()
    }

    /// Number of learned merges.
    pub fn num_merges(&self) -> usize {
        self.merges.len()
    }

    /// Encode text to token ids (no specials added).
    pub fn encode(&self, text: &str) -> Vec<u32> {
        let mut seq: Vec<u32> = text.bytes().map(byte_token).collect();
        let n = seq.len();
        if self.merges.is_empty() || n < 2 {
            return seq;
        }
        let mut prev: Vec<usize> = [NONE].into_iter().chain(0..n - 1).collect();
        let mut next: Vec<usize> = (1..n).chain([NONE]).collect();
        let mut heap: BinaryHeap<Reverse<(u32, usize)>> = seq
            .windows(2)
            .enumerate()
            .filter_map(|(i, w)| {
                self.merge_ids
                    .get(&(w[0], w[1]))
                    .map(|&id| Reverse((id, i)))
            })
            .collect();
        while let Some(Reverse((id, i))) = heap.pop() {
            let j = next[i];
            // Stale entry: position `i` was merged away or its pair changed.
            if j == NONE || self.merges[(id - first_merge_id()) as usize] != (seq[i], seq[j]) {
                continue;
            }
            seq[i] = id;
            seq[j] = DEAD;
            let k = next[j];
            next[i] = k;
            if k != NONE {
                prev[k] = i;
                if let Some(&m) = self.merge_ids.get(&(id, seq[k])) {
                    heap.push(Reverse((m, i)));
                }
            }
            let h = prev[i];
            if h != NONE {
                if let Some(&m) = self.merge_ids.get(&(seq[h], id)) {
                    heap.push(Reverse((m, h)));
                }
            }
        }
        seq.retain(|&t| t != DEAD);
        seq
    }

    /// Encode and wrap with BOS/EOS.
    pub fn encode_with_specials(&self, text: &str) -> Vec<u32> {
        let mut out = vec![Special::Bos.id()];
        out.extend(self.encode(text));
        out.push(Special::Eos.id());
        out
    }

    /// Byte expansion of a single token id. Specials expand to their text.
    pub fn token_bytes(&self, id: u32) -> Vec<u8> {
        if id < 4 {
            return Special::ALL[id as usize].text().as_bytes().to_vec();
        }
        if id < first_merge_id() {
            return vec![(id - 4) as u8];
        }
        let rank = (id - first_merge_id()) as usize;
        assert!(rank < self.merges.len(), "token id {id} out of vocab");
        let (a, b) = self.merges[rank];
        let mut out = self.token_bytes(a);
        out.extend(self.token_bytes(b));
        out
    }

    /// Decode ids back to text. Special tokens are skipped (except `<unk>`,
    /// which renders as its text so parse failures stay visible).
    pub fn decode(&self, ids: &[u32]) -> String {
        let mut bytes = Vec::new();
        for &id in ids {
            match id {
                x if x == Special::Pad.id() || x == Special::Bos.id() || x == Special::Eos.id() => {
                }
                _ => bytes.extend(self.token_bytes(id)),
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        // INVARIANT: BpeTokenizer is a plain data struct (Vec of u32
        // pairs); serialization cannot fail.
        serde_json::to_string(self).expect("tokenizer serializes")
    }

    /// Deserialize from JSON. A merge list that breaks the id-ordering
    /// invariant or repeats a pair is an error (see [`MergeError`]).
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

/// The highest pair count still current in `heap`, if it is at least 2.
/// Entries whose count has changed since they were pushed are dropped.
fn pop_best(
    heap: &mut BinaryHeap<(usize, Reverse<(u32, u32)>)>,
    counts: &HashMap<(u32, u32), usize>,
) -> Option<(u32, u32)> {
    while let Some((c, Reverse(pair))) = heap.pop() {
        if counts.get(&pair) == Some(&c) {
            return (c >= 2).then_some(pair);
        }
    }
    None
}

/// Window counts being updated by one merge, and the pairs it touched.
struct CountDelta<'a> {
    counts: &'a mut HashMap<(u32, u32), usize>,
    touched: &'a mut Vec<(u32, u32)>,
}

impl CountDelta<'_> {
    fn add(&mut self, pair: (u32, u32)) {
        *self.counts.entry(pair).or_insert(0) += 1;
        self.touched.push(pair);
    }

    fn sub(&mut self, pair: (u32, u32)) {
        if let Entry::Occupied(mut e) = self.counts.entry(pair) {
            *e.get_mut() -= 1;
            if *e.get() == 0 {
                e.remove();
            }
        }
        self.touched.push(pair);
    }
}

/// Replace every occurrence of `pair` in `seq` with `new_id`, left to
/// right without overlaps, applying the window-count changes of each site
/// to `delta`.
fn merge_counting(seq: &mut Vec<u32>, pair: (u32, u32), new_id: u32, delta: &mut CountDelta) {
    let (a, b) = pair;
    let n = seq.len();
    let mut write = 0usize;
    let mut read = 0usize;
    while read < n {
        if read + 1 < n && seq[read] == a && seq[read + 1] == b {
            if write > 0 {
                // Already rewritten: an earlier site here reads as `new_id`.
                let left = seq[write - 1];
                delta.sub((left, a));
                delta.add((left, new_id));
            }
            delta.sub(pair);
            if read + 2 < n {
                let right = seq[read + 2];
                delta.sub((b, right));
                delta.add((new_id, right));
            }
            seq[write] = new_id;
            read += 2;
        } else {
            seq[write] = seq[read];
            read += 1;
        }
        write += 1;
    }
    seq.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_level_roundtrip() {
        let tok = BpeTokenizer::byte_level();
        let text = "hello, 世界! 0.42";
        assert_eq!(tok.decode(&tok.encode(text)), text);
    }

    #[test]
    fn training_learns_frequent_pairs() {
        let corpus = ["ababababab", "ababab"]; // "ab" dominates
        let refs: Vec<&str> = corpus.iter().map(|s| &**s).collect();
        let tok = BpeTokenizer::train(&refs, first_merge_id() as usize + 4);
        assert!(tok.num_merges() >= 1);
        // First merge should be ('a','b').
        let encoded = tok.encode("ab");
        assert_eq!(encoded.len(), 1, "'ab' should compress to one token");
    }

    #[test]
    fn trained_roundtrip_lossless() {
        let corpus = vec![
            "Question: what is the sentiment? Answer: good",
            "Question: is this application fraudulent? Answer: No",
            "credit amount 2500, duration 12 months",
        ];
        let refs: Vec<&str> = corpus.iter().map(|s| &**s).collect();
        let tok = BpeTokenizer::train(&refs, 400);
        for text in &corpus {
            assert_eq!(tok.decode(&tok.encode(text)), *text);
        }
        // Unseen text must also round-trip (byte fallback).
        let unseen = "zebra ~~ €42";
        assert_eq!(tok.decode(&tok.encode(unseen)), unseen);
    }

    #[test]
    fn compression_reduces_token_count() {
        let corpus: Vec<String> = (0..50).map(|i| format!("Answer: Yes number {i}")).collect();
        let refs: Vec<&str> = corpus.iter().map(|s| &**s).collect();
        let tok = BpeTokenizer::train(&refs, 500);
        let text = "Answer: Yes number 7";
        assert!(tok.encode(text).len() < text.len());
    }

    #[test]
    fn encode_with_specials_brackets() {
        let tok = BpeTokenizer::byte_level();
        let ids = tok.encode_with_specials("hi");
        assert_eq!(ids[0], Special::Bos.id());
        assert_eq!(*ids.last().unwrap(), Special::Eos.id());
        assert_eq!(tok.decode(&ids), "hi");
    }

    #[test]
    fn json_roundtrip_preserves_encoding() {
        let corpus = ["the quick brown fox", "the lazy dog", "the the the"];
        let refs: Vec<&str> = corpus.iter().map(|s| &**s).collect();
        let tok = BpeTokenizer::train(&refs, 320);
        let json = tok.to_json();
        let back = BpeTokenizer::from_json(&json).unwrap();
        assert_eq!(tok.encode("the quick"), back.encode("the quick"));
        assert_eq!(tok.vocab_size(), back.vocab_size());
    }

    #[test]
    fn loading_rejects_merges_that_reference_missing_ids() {
        // Merge 0 (id 260) would merge itself; 9000 does not exist yet.
        let err = BpeTokenizer::from_json(r#"{"merges":[[260,5],[9000,7]]}"#).unwrap_err();
        assert!(err.to_string().contains("merge 0 (260, 5)"), "{err}");
        assert_eq!(
            BpeTokenizer::from_merges(vec![(5, 6), (9000, 7)]).unwrap_err(),
            MergeError::ForwardReference {
                rank: 1,
                pair: (9000, 7)
            }
        );
        assert_eq!(
            BpeTokenizer::from_merges(vec![(5, 6), (5, 6)]).unwrap_err(),
            MergeError::Duplicate {
                rank: 1,
                pair: (5, 6)
            }
        );
        let ok = BpeTokenizer::from_merges(vec![(5, 6), (260, 260)]).unwrap();
        assert_eq!(ok.decode(&[261]), "\u{1}\u{2}\u{1}\u{2}");
    }

    #[test]
    fn deserializing_inside_another_struct_builds_the_lookup() {
        #[derive(Deserialize)]
        struct Holder {
            tok: BpeTokenizer,
        }
        let h: Holder = serde_json::from_str(r#"{"tok":{"merges":[[5,6]]}}"#).unwrap();
        assert_eq!(h.tok.encode("\u{1}\u{2}"), vec![first_merge_id()]);
        assert!(serde_json::from_str::<Holder>(r#"{"tok":{"merges":[[5,260]]}}"#).is_err());
    }

    #[test]
    fn encode_merges_runs_left_to_right() {
        // a=5 (byte 1). Merges: (a,a)->260, (260,a)->261.
        let tok = BpeTokenizer::from_merges(vec![(5, 5), (260, 5)]).unwrap();
        let run = |n: usize| "\u{1}".repeat(n);
        assert_eq!(tok.encode(&run(3)), vec![261]);
        assert_eq!(tok.encode(&run(4)), vec![260, 260]);
        assert_eq!(tok.encode(&run(5)), vec![260, 261]);
    }

    #[test]
    fn vocab_size_accounts_for_merges() {
        let tok = BpeTokenizer::byte_level();
        assert_eq!(tok.vocab_size(), 260);
    }

    #[test]
    fn empty_and_single_byte_inputs() {
        let tok = BpeTokenizer::byte_level();
        assert!(tok.encode("").is_empty());
        assert_eq!(tok.encode("a").len(), 1);
        assert_eq!(tok.decode(&[]), "");
    }
}
