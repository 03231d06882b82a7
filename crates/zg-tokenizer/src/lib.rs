//! # zg-tokenizer
//!
//! Byte-level BPE tokenizer for the ZiGong reproduction. Mistral uses a
//! 32k SentencePiece vocabulary; at miniature scale we train a few hundred
//! byte-level BPE merges over the financial-credit instruction corpus,
//! which preserves the property that matters for the experiments: label
//! words ("Yes", "No", "good", "bad") compress to few, stable tokens that
//! the model can learn to emit.
//!
//! ```
//! use zg_tokenizer::BpeTokenizer;
//! let corpus = ["Answer: Yes", "Answer: No", "Answer: Yes"];
//! let tok = BpeTokenizer::train(&corpus, 300);
//! let ids = tok.encode("Answer: Yes");
//! assert_eq!(tok.decode(&ids), "Answer: Yes");
//! ```

mod bpe;
mod vocab;

pub use bpe::{BpeTokenizer, MergeError};
pub use vocab::{byte_token, first_merge_id, Special, NUM_SPECIALS};
