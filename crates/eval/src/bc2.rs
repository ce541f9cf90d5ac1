//! The BioCreative II gene-mention evaluation.
//!
//! Reimplements the shared task's scoring rule as the paper states it:
//! "The script compares detections with primary gene mentions and their
//! alternatives, and counts exact matches as true positives. ... The
//! number of false negatives will be the number of primary gene
//! mentions minus the number of true positives; and the number of false
//! positives will be the number of detections minus the number of true
//! positives."
//!
//! Alternatives are grouped with the primary mention they overlap (in
//! space-free character coordinates); a detection matching the primary
//! or any grouped alternative consumes that gold mention exactly once.

use graphner_text::bc2::{AnnotationSet, Bc2Annotation};
use graphner_text::sentence::tags_to_mentions;
use graphner_text::{is_zero, Corpus, TagError, Tagger};
use rustc_hash::FxHashMap;

/// Aggregate counts of an evaluation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// True positives.
    pub tp: usize,
    /// Total detections made by the system.
    pub detections: usize,
    /// Total primary gold mentions.
    pub gold: usize,
}

impl Counts {
    /// False positives: `detections − tp`.
    pub fn fp(&self) -> usize {
        self.detections - self.tp
    }

    /// False negatives: `gold − tp`.
    pub fn fn_(&self) -> usize {
        self.gold - self.tp
    }

    /// Precision (1 when there are no detections).
    pub fn precision(&self) -> f64 {
        if self.detections == 0 {
            1.0
        } else {
            self.tp as f64 / self.detections as f64
        }
    }

    /// Recall (1 when there is no gold).
    pub fn recall(&self) -> f64 {
        if self.gold == 0 {
            1.0
        } else {
            self.tp as f64 / self.gold as f64
        }
    }

    /// F-score: harmonic mean of precision and recall.
    pub fn f_score(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if is_zero(p + r) {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Merge two counts (e.g. accumulate over sentences).
    pub fn merge(&mut self, other: &Counts) {
        self.tp += other.tp;
        self.detections += other.detections;
        self.gold += other.gold;
    }
}

/// One gold mention with its acceptable alternative spans.
#[derive(Clone, Debug)]
struct GoldGroup {
    primary: (usize, usize),
    alternatives: Vec<(usize, usize)>,
    consumed: bool,
}

impl GoldGroup {
    fn matches(&self, span: (usize, usize)) -> bool {
        self.primary == span || self.alternatives.contains(&span)
    }
}

fn overlaps(a: (usize, usize), b: (usize, usize)) -> bool {
    a.0 <= b.1 && b.0 <= a.1
}

/// Score one sentence's detections against its gold groups.
fn score_sentence(
    detections: &[(usize, usize)],
    primaries: &[&Bc2Annotation],
    alternatives: &[&Bc2Annotation],
) -> Counts {
    let mut groups: Vec<GoldGroup> = primaries
        .iter()
        .map(|p| GoldGroup { primary: p.span(), alternatives: Vec::new(), consumed: false })
        .collect();
    for alt in alternatives {
        for g in groups.iter_mut() {
            if overlaps(g.primary, alt.span()) {
                g.alternatives.push(alt.span());
            }
        }
    }
    let mut tp = 0;
    for &det in detections {
        if let Some(g) = groups.iter_mut().find(|g| !g.consumed && g.matches(det)) {
            g.consumed = true;
            tp += 1;
        }
    }
    Counts { tp, detections: detections.len(), gold: primaries.len() }
}

/// Per-sentence evaluation results, keyed by sentence id — the unit the
/// sigf randomization shuffles.
#[derive(Clone, Debug, Default)]
pub struct Evaluation {
    /// Per-sentence counts.
    pub per_sentence: FxHashMap<String, Counts>,
    /// Aggregate counts.
    pub totals: Counts,
}

impl Evaluation {
    /// Precision over the whole run.
    pub fn precision(&self) -> f64 {
        self.totals.precision()
    }

    /// Recall over the whole run.
    pub fn recall(&self) -> f64 {
        self.totals.recall()
    }

    /// F-score over the whole run.
    pub fn f_score(&self) -> f64 {
        self.totals.f_score()
    }
}

/// Evaluate a system's detections against a gold annotation set.
///
/// Detections use the same space-free inclusive-offset convention as the
/// gold annotations.
pub fn evaluate(system: &AnnotationSet, gold: &AnnotationSet) -> Evaluation {
    let mut eval = Evaluation::default();
    let empty: Vec<Bc2Annotation> = Vec::new();
    // union of sentence ids appearing in either set
    let mut ids: Vec<&String> = system.primary.keys().chain(gold.primary.keys()).collect();
    ids.sort_unstable();
    ids.dedup();
    for id in ids {
        let dets: Vec<(usize, usize)> =
            system.primary.get(id).unwrap_or(&empty).iter().map(Bc2Annotation::span).collect();
        let prim: Vec<&Bc2Annotation> = gold.primary.get(id).unwrap_or(&empty).iter().collect();
        let alts: Vec<&Bc2Annotation> =
            gold.alternatives.get(id).unwrap_or(&empty).iter().collect();
        let counts = score_sentence(&dets, &prim, &alts);
        eval.totals.merge(&counts);
        eval.per_sentence.insert(id.clone(), counts);
    }
    eval
}

/// Predict every sentence of `test` with a [`Tagger`], convert the
/// predictions to BC2 annotations, and score them against `gold`.
///
/// This is the one-call evaluation path for anything implementing the
/// trait — the base CRF, the LSTM-CRF baseline, or a GraphNER decode —
/// replacing the per-model predict/convert/evaluate glue the experiment
/// binaries used to duplicate. A batch the tagger refuses (an empty or
/// over-long sentence, a non-finite posterior) returns its [`TagError`].
pub fn evaluate_tagger(
    tagger: &impl Tagger,
    test: &Corpus,
    gold: &AnnotationSet,
) -> Result<(Evaluation, AnnotationSet), TagError> {
    // one try_tag_batch call, so taggers with a parallel or batched
    // override get it on the evaluation path for free
    let tags = tagger.try_tag_batch(&test.sentences)?;
    let mut detections = AnnotationSet::new();
    for (sentence, tags) in test.sentences.iter().zip(&tags) {
        for m in tags_to_mentions(tags) {
            detections.add_primary(Bc2Annotation::from_mention(sentence, &m));
        }
    }
    Ok((evaluate(&detections, gold), detections))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ann(id: &str, f: usize, l: usize) -> Bc2Annotation {
        Bc2Annotation { sentence_id: id.to_string(), first: f, last: l, text: String::new() }
    }

    fn set(primary: &[(&str, usize, usize)], alts: &[(&str, usize, usize)]) -> AnnotationSet {
        let mut s = AnnotationSet::new();
        for &(id, f, l) in primary {
            s.add_primary(ann(id, f, l));
        }
        for &(id, f, l) in alts {
            s.add_alternative(ann(id, f, l));
        }
        s
    }

    #[test]
    fn exact_match_counts() {
        let gold = set(&[("s1", 0, 4), ("s1", 10, 14), ("s2", 3, 6)], &[]);
        let sys = set(&[("s1", 0, 4), ("s1", 20, 25), ("s2", 3, 6)], &[]);
        let e = evaluate(&sys, &gold);
        assert_eq!(e.totals, Counts { tp: 2, detections: 3, gold: 3 });
        assert!((e.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((e.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((e.f_score() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn alternative_spans_accepted() {
        // gold primary 0..=11 ("wilms tumor 1"), alternative 0..=4
        let gold = set(&[("s1", 0, 11)], &[("s1", 0, 4)]);
        let sys = set(&[("s1", 0, 4)], &[]);
        let e = evaluate(&sys, &gold);
        assert_eq!(e.totals.tp, 1);
        assert_eq!(e.totals.fp(), 0);
        assert_eq!(e.totals.fn_(), 0);
    }

    #[test]
    fn gold_mention_credited_once() {
        // both the primary and its alternative detected: only one TP,
        // the extra detection is a FP
        let gold = set(&[("s1", 0, 11)], &[("s1", 0, 4)]);
        let sys = set(&[("s1", 0, 11), ("s1", 0, 4)], &[]);
        let e = evaluate(&sys, &gold);
        assert_eq!(e.totals.tp, 1);
        assert_eq!(e.totals.fp(), 1);
    }

    #[test]
    fn alternatives_group_by_overlap() {
        // alternative (20, 24) overlaps only the second primary
        let gold = set(&[("s1", 0, 4), ("s1", 20, 30)], &[("s1", 20, 24)]);
        let sys = set(&[("s1", 20, 24)], &[]);
        let e = evaluate(&sys, &gold);
        assert_eq!(e.totals.tp, 1);
        assert_eq!(e.totals.fn_(), 1); // the first primary was missed
    }

    #[test]
    fn partial_overlap_is_not_a_match() {
        let gold = set(&[("s1", 0, 9)], &[]);
        let sys = set(&[("s1", 0, 5)], &[]);
        let e = evaluate(&sys, &gold);
        assert_eq!(e.totals.tp, 0);
        assert_eq!(e.totals.fp(), 1);
        assert_eq!(e.totals.fn_(), 1);
    }

    #[test]
    fn empty_system_and_empty_gold() {
        let gold = set(&[("s1", 0, 4)], &[]);
        let sys = AnnotationSet::new();
        let e = evaluate(&sys, &gold);
        assert_eq!(e.totals.tp, 0);
        assert_eq!(e.precision(), 1.0); // no detections
        assert_eq!(e.recall(), 0.0);
        assert_eq!(e.f_score(), 0.0);

        let e2 = evaluate(&AnnotationSet::new(), &AnnotationSet::new());
        assert_eq!(e2.f_score(), 1.0);
    }

    #[test]
    fn per_sentence_counts_sum_to_totals() {
        let gold = set(&[("s1", 0, 4), ("s2", 5, 9), ("s3", 1, 2)], &[]);
        let sys = set(&[("s1", 0, 4), ("s2", 0, 2), ("s4", 7, 8)], &[]);
        let e = evaluate(&sys, &gold);
        let mut sum = Counts::default();
        for c in e.per_sentence.values() {
            sum.merge(c);
        }
        assert_eq!(sum, e.totals);
        assert_eq!(e.per_sentence.len(), 4);
    }

    #[test]
    fn fscore_is_harmonic_mean() {
        let c = Counts { tp: 3, detections: 4, gold: 6 };
        let p = 0.75;
        let r = 0.5;
        assert!((c.f_score() - 2.0 * p * r / (p + r)).abs() < 1e-12);
    }

    #[test]
    fn evaluate_tagger_matches_manual_path() {
        use graphner_text::{BioTag, Sentence, NUM_TAGS};

        /// Tags every token that contains a digit as B.
        struct DigitTagger;
        impl Tagger for DigitTagger {
            fn predict(&self, s: &Sentence) -> Vec<BioTag> {
                s.tokens
                    .iter()
                    .map(
                        |t| {
                            if t.chars().any(|c| c.is_ascii_digit()) {
                                BioTag::B
                            } else {
                                BioTag::O
                            }
                        },
                    )
                    .collect()
            }
            fn posteriors(&self, s: &Sentence) -> Vec<[f64; NUM_TAGS]> {
                self.predict(s)
                    .into_iter()
                    .map(|t| {
                        let mut d = [0.0; NUM_TAGS];
                        d[t.index()] = 1.0;
                        d
                    })
                    .collect()
            }
        }

        let tokens = |ws: &[&str]| ws.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        let test = Corpus::from_sentences(vec![
            Sentence::unlabelled("s1", tokens(&["the", "WT1", "gene"])),
            Sentence::unlabelled("s2", tokens(&["no", "genes", "here"])),
        ]);
        // gold: WT1 at space-free offsets 3..=5 in s1
        let gold = set(&[("s1", 3, 5)], &[]);
        let (e, detections) = evaluate_tagger(&DigitTagger, &test, &gold).unwrap();
        assert_eq!(e.totals, Counts { tp: 1, detections: 1, gold: 1 });
        assert_eq!(detections.primary["s1"][0].text, "WT1");
    }
}
