//! The [`Tagger`] trait: the train-independent face of every sequence
//! tagger in the workspace.
//!
//! GraphNER juggles three tagger families — the BANNER-style CRF
//! (`graphner-banner`), the bi-LSTM-CRF baseline (`graphner-neural`),
//! and GraphNER's own graph-augmented decode (`graphner-core`). They
//! train very differently but are *consumed* identically: hand them a
//! sentence, get back BIO tags and per-token label distributions. This
//! trait captures exactly that consumption surface so evaluation
//! helpers and experiment binaries can be written once against
//! `impl Tagger` instead of duplicating per-model glue.

use crate::sentence::Sentence;
use crate::tag::{BioTag, NUM_TAGS};

/// Hard cap on the tokens a single sentence may carry through
/// [`Tagger::try_tag_batch`]. The trained models are all linear in
/// sentence length, but serving-path memory is not unbounded: a request
/// carrying a megabyte on one line would otherwise allocate lattices
/// and posterior rows to match. Biomedical sentences run a few dozen
/// tokens; 512 is far above anything a real corpus produces.
pub const MAX_SENTENCE_TOKENS: usize = 512;

/// A rejected [`Tagger::try_tag_batch`] call: which sentence of the
/// batch was unusable and why. This type is how the models refuse
/// *adversarial* input (an empty request line, a pathologically long
/// sentence, a numerically broken posterior) at the API boundary
/// instead of deep inside a decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TagError {
    /// Sentence `index` of the batch has zero tokens. `predict` maps an
    /// empty sentence to an empty output, but a serving request with an
    /// empty line is almost always a malformed payload, so the batch
    /// path surfaces it instead of silently returning nothing.
    EmptySentence {
        /// Batch position of the offending sentence.
        index: usize,
    },
    /// Sentence `index` exceeds [`MAX_SENTENCE_TOKENS`].
    SentenceTooLong {
        /// Batch position of the offending sentence.
        index: usize,
        /// Its token count.
        tokens: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The model produced a non-finite posterior entry for token
    /// `token` of sentence `index` — numerically broken weights or
    /// input, detected before it can poison a decode.
    NonFinitePosterior {
        /// Batch position of the offending sentence.
        index: usize,
        /// Token position within the sentence.
        token: usize,
    },
}

impl std::fmt::Display for TagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TagError::EmptySentence { index } => {
                write!(f, "sentence {index} is empty")
            }
            TagError::SentenceTooLong { index, tokens, max } => {
                write!(f, "sentence {index} has {tokens} tokens (cap {max})")
            }
            TagError::NonFinitePosterior { index, token } => {
                write!(f, "non-finite posterior at sentence {index}, token {token}")
            }
        }
    }
}

impl std::error::Error for TagError {}

/// Shape-validate a batch for the fallible tagging path: every sentence
/// non-empty and within [`MAX_SENTENCE_TOKENS`]. Returns the error of
/// the lowest offending batch index, so the outcome is deterministic
/// regardless of how a tagger parallelizes the work that follows.
pub fn validate_sentences(sentences: &[Sentence]) -> Result<(), TagError> {
    for (index, sentence) in sentences.iter().enumerate() {
        if sentence.is_empty() {
            return Err(TagError::EmptySentence { index });
        }
        if sentence.len() > MAX_SENTENCE_TOKENS {
            return Err(TagError::SentenceTooLong {
                index,
                tokens: sentence.len(),
                max: MAX_SENTENCE_TOKENS,
            });
        }
    }
    Ok(())
}

/// Scan one sentence's posterior rows for a non-finite entry; `index`
/// names the sentence's batch position in the error.
pub fn check_posteriors_finite(index: usize, rows: &[[f64; NUM_TAGS]]) -> Result<(), TagError> {
    for (token, row) in rows.iter().enumerate() {
        if row.iter().any(|p| !p.is_finite()) {
            return Err(TagError::NonFinitePosterior { index, token });
        }
    }
    Ok(())
}

/// A trained sequence tagger over the BIO tag set.
///
/// Implementations must satisfy two invariants for non-empty sentences:
/// `predict` and `posteriors` return one entry per token, and each
/// posterior row is a probability distribution over
/// [`tag_count`](Tagger::tag_count) labels. Empty sentences map to
/// empty outputs.
pub trait Tagger {
    /// Most-likely BIO tag sequence for a sentence.
    fn predict(&self, sentence: &Sentence) -> Vec<BioTag>;

    /// Per-token label distributions (marginal beliefs) for a sentence.
    fn posteriors(&self, sentence: &Sentence) -> Vec<[f64; NUM_TAGS]>;

    /// Number of labels the tagger scores — the BIO scheme's
    /// [`NUM_TAGS`] for every tagger in this workspace.
    fn tag_count(&self) -> usize {
        NUM_TAGS
    }

    /// Predict a batch of sentences, in input order — the one batch
    /// entry point for serving and evaluation. The batch is treated as
    /// untrusted input: every sentence is shape-validated
    /// ([`validate_sentences`]) and its posteriors checked for
    /// non-finite entries ([`check_posteriors_finite`]) before its
    /// prediction is trusted, so a bad batch returns a typed
    /// [`TagError`] instead of panicking or silently degenerating.
    ///
    /// On a batch that passes the checks the result is **identical**
    /// to sentence-by-sentence [`predict`](Tagger::predict).
    /// Implementations may override this with a parallel or genuinely
    /// batched pass as long as they preserve that, and report the error
    /// of the lowest offending batch index.
    fn try_tag_batch(&self, sentences: &[Sentence]) -> Result<Vec<Vec<BioTag>>, TagError> {
        validate_sentences(sentences)?;
        sentences
            .iter()
            .enumerate()
            .map(|(index, s)| {
                check_posteriors_finite(index, &self.posteriors(s))?;
                Ok(self.predict(s))
            })
            .collect()
    }
}

impl<T: Tagger + ?Sized> Tagger for &T {
    fn predict(&self, sentence: &Sentence) -> Vec<BioTag> {
        (**self).predict(sentence)
    }

    fn posteriors(&self, sentence: &Sentence) -> Vec<[f64; NUM_TAGS]> {
        (**self).posteriors(sentence)
    }

    fn tag_count(&self) -> usize {
        (**self).tag_count()
    }

    fn try_tag_batch(&self, sentences: &[Sentence]) -> Result<Vec<Vec<BioTag>>, TagError> {
        (**self).try_tag_batch(sentences)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::BioTag::*;

    /// A toy tagger: everything is O except tokens that contain a digit.
    /// Its posteriors are NaN on sentences whose id starts with `nan`.
    struct DigitTagger;

    impl Tagger for DigitTagger {
        fn predict(&self, sentence: &Sentence) -> Vec<BioTag> {
            sentence
                .tokens
                .iter()
                .map(|t| if t.chars().any(|c| c.is_ascii_digit()) { B } else { O })
                .collect()
        }

        fn posteriors(&self, sentence: &Sentence) -> Vec<[f64; NUM_TAGS]> {
            self.predict(sentence)
                .into_iter()
                .map(|t| {
                    let mut d = [0.0; NUM_TAGS];
                    d[t.index()] = if sentence.id.starts_with("nan") { f64::NAN } else { 1.0 };
                    d
                })
                .collect()
        }
    }

    #[test]
    fn try_tag_batch_matches_per_sentence_predict() {
        let tagger = DigitTagger;
        assert_eq!(tagger.tag_count(), NUM_TAGS);
        let batch = vec![
            Sentence::unlabelled("a", vec!["the".into(), "WT1".into()]),
            Sentence::unlabelled("b", vec!["no".into()]),
        ];
        let per_sentence: Vec<Vec<BioTag>> = batch.iter().map(|s| tagger.predict(s)).collect();
        assert_eq!(tagger.try_tag_batch(&batch).unwrap(), per_sentence);
        assert_eq!(per_sentence, vec![vec![O, B], vec![O]]);
    }

    #[test]
    fn try_tag_batch_reports_the_first_non_finite_posterior() {
        let batch: Vec<Sentence> = (0..7)
            .map(|i| {
                let id = if i == 2 || i == 5 { format!("nan{i}") } else { format!("s{i}") };
                Sentence::unlabelled(id, vec!["WT1".into()])
            })
            .collect();
        assert_eq!(
            DigitTagger.try_tag_batch(&batch),
            Err(TagError::NonFinitePosterior { index: 2, token: 0 })
        );
        assert!(DigitTagger.try_tag_batch(&batch[..2]).is_ok());
    }

    #[test]
    fn try_tag_batch_rejects_empty_and_oversized_sentences() {
        let tagger = DigitTagger;
        let batch = vec![
            Sentence::unlabelled("ok", vec!["fine".into()]),
            Sentence::unlabelled("empty", vec![]),
        ];
        assert_eq!(tagger.try_tag_batch(&batch), Err(TagError::EmptySentence { index: 1 }));

        let long = Sentence::unlabelled("long", vec!["t".to_string(); MAX_SENTENCE_TOKENS + 1]);
        assert_eq!(
            tagger.try_tag_batch(&[long]),
            Err(TagError::SentenceTooLong {
                index: 0,
                tokens: MAX_SENTENCE_TOKENS + 1,
                max: MAX_SENTENCE_TOKENS,
            })
        );
        // exactly at the cap is fine
        let at_cap = Sentence::unlabelled("cap", vec!["t".to_string(); MAX_SENTENCE_TOKENS]);
        assert!(tagger.try_tag_batch(&[at_cap]).is_ok());
    }

    #[test]
    fn validation_reports_the_lowest_offending_index() {
        let batch = vec![
            Sentence::unlabelled("ok", vec!["fine".into()]),
            Sentence::unlabelled("e1", vec![]),
            Sentence::unlabelled("e2", vec![]),
        ];
        assert_eq!(validate_sentences(&batch), Err(TagError::EmptySentence { index: 1 }));
    }

    #[test]
    fn posterior_finiteness_check_names_the_token() {
        let mut rows = vec![[0.5, 0.25, 0.25]; 3];
        assert!(check_posteriors_finite(7, &rows).is_ok());
        rows[2][1] = f64::NAN;
        assert_eq!(
            check_posteriors_finite(7, &rows),
            Err(TagError::NonFinitePosterior { index: 7, token: 2 })
        );
        rows[2][1] = f64::INFINITY;
        assert!(check_posteriors_finite(7, &rows).is_err());
    }

    #[test]
    fn tag_error_messages_name_the_sentence() {
        assert!(TagError::EmptySentence { index: 3 }.to_string().contains('3'));
        let long = TagError::SentenceTooLong { index: 0, tokens: 600, max: 512 };
        assert!(long.to_string().contains("600"));
        assert!(long.to_string().contains("512"));
        let nf = TagError::NonFinitePosterior { index: 1, token: 4 }.to_string();
        assert!(nf.contains("non-finite"));
    }

    #[test]
    fn trait_objects_and_references_work() {
        let tagger = DigitTagger;
        let by_ref: &dyn Tagger = &tagger;
        let s = Sentence::unlabelled("s", vec!["IDH2".into()]);
        assert_eq!(by_ref.predict(&s), vec![B]);
        assert_eq!((&&tagger).posteriors(&s)[0][B.index()], 1.0);
    }
}
