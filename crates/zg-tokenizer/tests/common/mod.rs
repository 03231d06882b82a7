//! Reference BPE: the straightforward rank-by-rank algorithms that the
//! library's heap encode and delta-count training must reproduce id for
//! id. Training recounts every window of the corpus for each rank;
//! encoding rescans the whole sequence for the lowest-rank pair after
//! each merge.

#![allow(dead_code)]

use std::collections::BTreeMap;

use zg_tokenizer::{byte_token, first_merge_id};

/// Merge list learned by full recounting: most frequent pair (count ≥ 2),
/// ties to the smallest pair, until `vocab_size` or no pair repeats.
pub fn train(corpus: &[&str], vocab_size: usize) -> Vec<(u32, u32)> {
    let base = first_merge_id() as usize;
    let target_merges = vocab_size.saturating_sub(base);
    let mut seqs: Vec<Vec<u32>> = corpus
        .iter()
        .map(|s| s.bytes().map(byte_token).collect())
        .collect();
    let mut merges = Vec::with_capacity(target_merges);
    for rank in 0..target_merges {
        let mut counts: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        for seq in &seqs {
            for w in seq.windows(2) {
                *counts.entry((w[0], w[1])).or_insert(0) += 1;
            }
        }
        let best = counts
            .into_iter()
            .filter(|&(_, c)| c >= 2)
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
        let Some((pair, _)) = best else { break };
        let new_id = (base + rank) as u32;
        merges.push(pair);
        for seq in &mut seqs {
            merge_in_place(seq, pair, new_id);
        }
    }
    merges
}

/// Encoding by rescanning: apply the lowest-rank applicable merge to every
/// occurrence, left to right, until none applies.
pub fn encode(merges: &[(u32, u32)], text: &str) -> Vec<u32> {
    let merge_ids: BTreeMap<(u32, u32), u32> = merges
        .iter()
        .enumerate()
        .map(|(rank, &pair)| (pair, first_merge_id() + rank as u32))
        .collect();
    let mut seq: Vec<u32> = text.bytes().map(byte_token).collect();
    loop {
        let mut best: Option<u32> = None;
        for w in seq.windows(2) {
            if let Some(&id) = merge_ids.get(&(w[0], w[1])) {
                if best.is_none_or(|b| id < b) {
                    best = Some(id);
                }
            }
        }
        let Some(id) = best else { break };
        let pair = merges[(id - first_merge_id()) as usize];
        merge_in_place(&mut seq, pair, id);
    }
    seq
}

/// Replace every adjacent occurrence of `pair` with `new_id`, in place,
/// left to right without overlaps.
pub fn merge_in_place(seq: &mut Vec<u32>, pair: (u32, u32), new_id: u32) {
    let mut write = 0usize;
    let mut read = 0usize;
    while read < seq.len() {
        if read + 1 < seq.len() && seq[read] == pair.0 && seq[read + 1] == pair.1 {
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
