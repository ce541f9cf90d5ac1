//! Synthetic corpus assembly: profiles, templates, annotation noise.
//!
//! Each generated corpus mimics the *statistics* the paper's analysis
//! turns on rather than the surface text of the originals:
//!
//! * the BC2GM profile mixes gene notation styles, injects ~6 %
//!   annotation noise (the paper found "a higher proportion of incorrect
//!   annotations in the gold standard corpus" for BC2GM), provides
//!   alternative annotations, and has a high gene density;
//! * the AML profile uses standardized HGNC-like symbols, near-zero
//!   annotation noise, no alternatives, and a much lower gene density —
//!   reproducing the lower positively-labelled-vertex rate (1.75 % vs
//!   8.5 %) that the paper credits for GraphNER's precision behaviour.

use crate::lexicon::{GeneLexicon, NomenclatureStyle};
use crate::pick;
use graphner_text::bc2::{AnnotationSet, Bc2Annotation};
use graphner_text::sentence::{mentions_to_tags, Mention};
use graphner_text::{Corpus, Sentence};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Generation profile for one corpus.
#[derive(Clone, Debug)]
pub struct CorpusProfile {
    /// Corpus name ("BC2GM" / "AML").
    pub name: String,
    /// Number of training sentences.
    pub train_sentences: usize,
    /// Number of test sentences.
    pub test_sentences: usize,
    /// Gene notation style mix.
    pub style: NomenclatureStyle,
    /// Probability that a gold mention is corrupted (dropped or
    /// boundary-shifted) in the released annotations.
    pub annotation_noise: f64,
    /// Whether an ALTGENE-style alternatives set is produced.
    pub with_alternatives: bool,
    /// Template category mix `(gene, ambiguous, non-gene)`; must sum
    /// to 1.
    pub template_mix: (f64, f64, f64),
    /// Symbol-gene inventory size.
    pub num_symbols: usize,
    /// Multiword-gene inventory size.
    pub num_multiword: usize,
    /// Fraction of the gene inventory available to training sentences
    /// (the remainder appears only at test time).
    pub train_gene_fraction: f64,
    /// Fraction of the spurious-entity inventory available to training
    /// sentences. Kept lower than the gene fraction: novel identifiers,
    /// venues, and codes keep appearing in new documents, and they are
    /// the raw material of the spurious-FP category GraphNER corrects.
    pub train_spurious_fraction: f64,
    /// Master seed.
    pub seed: u64,
}

impl CorpusProfile {
    /// The BC2GM stand-in at the paper's size (15 000 / 5 000
    /// sentences).
    pub fn bc2gm() -> CorpusProfile {
        CorpusProfile {
            name: "BC2GM".to_string(),
            train_sentences: 15_000,
            test_sentences: 5_000,
            style: NomenclatureStyle::Mixed,
            annotation_noise: 0.06,
            with_alternatives: true,
            template_mix: (0.30, 0.28, 0.42),
            num_symbols: 300,
            num_multiword: 80,
            train_gene_fraction: 0.50,
            train_spurious_fraction: 0.5,
            seed: 0xBC2,
        }
    }

    /// The AML stand-in at the paper's size (10 504 / 3 952 sentences).
    pub fn aml() -> CorpusProfile {
        CorpusProfile {
            name: "AML".to_string(),
            train_sentences: 10_504,
            test_sentences: 3_952,
            style: NomenclatureStyle::Standardized,
            annotation_noise: 0.005,
            with_alternatives: false,
            template_mix: (0.16, 0.14, 0.70),
            num_symbols: 300,
            num_multiword: 30,
            train_gene_fraction: 0.70,
            train_spurious_fraction: 0.45,
            seed: 0xA31,
        }
    }

    /// Scale the corpus size by `factor` (for fast experiment runs).
    /// Lexicon sizes scale with the square root of the factor so that the
    /// *recurrence rate* of gene and spurious surface forms — the
    /// statistic graph propagation feeds on — stays healthy across
    /// scales.
    pub fn scaled(mut self, factor: f64) -> CorpusProfile {
        assert!(factor > 0.0);
        self.train_sentences = ((self.train_sentences as f64 * factor) as usize).max(20);
        self.test_sentences = ((self.test_sentences as f64 * factor) as usize).max(10);
        let lex = factor.sqrt();
        self.num_symbols = ((self.num_symbols as f64 * lex) as usize).max(20);
        self.num_multiword = ((self.num_multiword as f64 * lex) as usize).max(8);
        self
    }
}

/// A generated corpus pair with its evaluation gold and oracle.
#[derive(Clone, Debug)]
pub struct GeneratedCorpus {
    /// Labelled training sentences (`D_l`), annotations already noisy.
    pub train: Corpus,
    /// Labelled test sentences (kept labelled for evaluation; strip tags
    /// before prediction).
    pub test: Corpus,
    /// BC2-format gold for the test set: primaries from the (noisy) test
    /// tags plus alternatives when the profile provides them.
    pub test_gold: AnnotationSet,
    /// The nomenclature, which doubles as the §III-E categorization
    /// oracle.
    pub lexicon: GeneLexicon,
    /// The profile that produced this corpus.
    pub profile: CorpusProfile,
}

const VERBS: [&str; 8] = [
    "mutated",
    "overexpressed",
    "silenced",
    "amplified",
    "deleted",
    "detected",
    "sequenced",
    "downregulated",
];
const ADJS: [&str; 6] = ["low", "high", "elevated", "reduced", "significant", "absent"];
const DISEASES: [&str; 8] =
    ["AML", "MPN", "leukemia", "lymphoma", "myeloma", "carcinoma", "sarcoma", "glioma"];

/// Template categories.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Category {
    Gene,
    Ambiguous,
    NonGene,
}

/// Templates as token strings; `{g}` = gold gene, `{gp}` = gene with
/// parenthesized symbol, `{e}` = ambiguous entity, `{sp}` = spurious
/// entity, `{d}` disease, `{v}` verb, `{a}` adjective, `{n}` digit.
const GENE_TEMPLATES: [&str; 9] = [
    "the {g} gene was {v} in {d} patients .",
    "mutation of {g} was detected in the {d} cohort .",
    "we observed recurrent mutations in {g} .",
    "expression of {g} and {g} was {a} .",
    "{gp} was highly expressed in {d} samples .",
    "drug response was {a} in {g} positive patients .",
    "the {g} locus was {v} in all samples .",
    "activation of {g} may contribute to {d} progression .",
    "recently , the mutation of {g} was detected in {d} .",
];

const AMBIGUOUS_TEMPLATES: [&str; 4] = [
    "{e} was associated with poor outcome .",
    "samples positive for {e} were excluded from analysis .",
    "this study focused on {e} in {d} .",
    "levels of {e} were {a} across subtypes .",
];

const NONGENE_TEMPLATES: [&str; 16] = [
    "patients were recruited at {sp} between 1998 and 2004 .",
    "{sp} staging criteria were applied to all cases .",
    "we did not observe this mutation in the patient ' s tumor - {n} subclone .",
    "clinical data were reviewed by two independent experts .",
    "treatment outcomes were compared across {d} subtypes .",
    "the median follow - up was {n} years .",
    "informed consent was obtained from all participants .",
    "bone marrow samples were collected at diagnosis .",
    "response rates were {a} among patients with relapsed {d} .",
    "a total of {n} patients met the inclusion criteria for this analysis .",
    "survival analysis was performed using standard statistical methods .",
    "adverse events were graded according to {sp} criteria .",
    "demographic characteristics were balanced between the two treatment arms .",
    "samples were processed within {n} hours of collection at each site .",
    "specimens from site {sp} were shipped to the central laboratory .",
    "enrolment at {sp} closed after the interim analysis .",
];

/// Optional filler clauses diluting gene density, so the positively
/// labelled vertex rate lands near the paper's (8.5 % BC2GM, 1.75 %
/// AML) rather than the raw template rate.
const FILLER_PRE: [&str; 6] = [
    "in this retrospective study ,",
    "as previously reported ,",
    "notably ,",
    "in a subset of cases ,",
    "according to consensus guidelines ,",
    "taken together ,",
];

const FILLER_POST: [&str; 6] = [
    "during the follow - up period",
    "in the validation cohort",
    "after adjustment for age and sex",
    "across all subgroups",
    "at the time of diagnosis",
    "in the majority of cases",
];

struct Generator<'a> {
    lexicon: &'a GeneLexicon,
    profile: &'a CorpusProfile,
    rng: ChaCha8Rng,
    /// Index bounds into the gene/spurious inventories for the current
    /// partition (training sentences only draw from a prefix, so the
    /// test set contains unseen genes *and* unseen spurious entities).
    symbol_limit: usize,
    multiword_limit: usize,
    spurious_limit: usize,
    lowercase_limit: usize,
}

impl<'a> Generator<'a> {
    /// Pick a spurious entity from the partition's slice of the pool.
    fn spurious_tokens(&mut self) -> Vec<String> {
        let idx = self.rng.gen_range(0..self.spurious_limit);
        self.lexicon.spurious[idx].clone()
    }

    /// Pick a gene surface form per the profile's notation style.
    /// Returns the tokens of the mention.
    fn gene_tokens(&mut self) -> Vec<String> {
        let style_roll = self.rng.gen::<f64>();
        match self.profile.style {
            NomenclatureStyle::Standardized => {
                let idx = self.rng.gen_range(0..self.symbol_limit);
                vec![self.lexicon.symbols[idx].clone()]
            }
            NomenclatureStyle::Mixed => {
                if style_roll < 0.40 {
                    let idx = self.rng.gen_range(0..self.symbol_limit);
                    vec![self.lexicon.symbols[idx].clone()]
                } else if style_roll < 0.60 {
                    // lowercase common-noun style
                    let idx = self.rng.gen_range(0..self.lowercase_limit);
                    vec![self.lexicon.lowercase[idx].clone()]
                } else if style_roll < 0.92 {
                    let idx = self.rng.gen_range(0..self.multiword_limit);
                    let g = &self.lexicon.multiword[idx];
                    // primary form 60 %, a variant spelling otherwise
                    if self.rng.gen::<f64>() < 0.6 {
                        g.primary.clone()
                    } else {
                        g.variants[self.rng.gen_range(0..g.variants.len())].clone()
                    }
                } else {
                    // hyphenated symbol style: "KDR - 2"
                    let idx = self.rng.gen_range(0..self.symbol_limit);
                    vec![
                        self.lexicon.symbols[idx].clone(),
                        "-".to_string(),
                        self.rng.gen_range(1..=4u32).to_string(),
                    ]
                }
            }
        }
    }

    /// Generate one sentence: tokens plus *true* gene mentions.
    fn sentence(&mut self, category: Category) -> (Vec<String>, Vec<Mention>) {
        let template = match category {
            Category::Gene => pick(&mut self.rng, &GENE_TEMPLATES),
            Category::Ambiguous => pick(&mut self.rng, &AMBIGUOUS_TEMPLATES),
            Category::NonGene => pick(&mut self.rng, &NONGENE_TEMPLATES),
        };
        let mut tokens: Vec<String> = Vec::new();
        let mut mentions = Vec::new();
        for part in template.split(' ') {
            match part {
                "{g}" => {
                    let g = self.gene_tokens();
                    let start = tokens.len();
                    tokens.extend(g);
                    mentions.push(Mention::new(start, tokens.len()));
                }
                "{gp}" => {
                    // multiword gene followed by its parenthesized symbol,
                    // both gold — the "wilm 's tumor - 1 ( wt1 )" pattern.
                    // The standardized (AML) nomenclature has no multiword
                    // names, so there the slot degrades to a plain symbol.
                    if self.profile.style == NomenclatureStyle::Standardized {
                        let g = self.gene_tokens();
                        let start = tokens.len();
                        tokens.extend(g);
                        mentions.push(Mention::new(start, tokens.len()));
                    } else {
                        let idx = self.rng.gen_range(0..self.multiword_limit);
                        let g = self.lexicon.multiword[idx].clone();
                        let start = tokens.len();
                        tokens.extend(g.primary.iter().cloned());
                        mentions.push(Mention::new(start, tokens.len()));
                        tokens.push("(".to_string());
                        let s = tokens.len();
                        tokens.push(g.symbol.clone());
                        mentions.push(Mention::new(s, s + 1));
                        tokens.push(")".to_string());
                    }
                }
                "{e}" => {
                    // ambiguous: gene 55 %, gene-related non-gold 10 %,
                    // spurious 35 %
                    let roll = self.rng.gen::<f64>();
                    if roll < 0.55 {
                        let g = self.gene_tokens();
                        let start = tokens.len();
                        tokens.extend(g);
                        mentions.push(Mention::new(start, tokens.len()));
                    } else if roll < 0.65 {
                        let pool = if self.rng.gen::<bool>() {
                            &self.lexicon.families
                        } else {
                            &self.lexicon.domains
                        };
                        let f = pick(&mut self.rng, pool);
                        tokens.extend(f.iter().cloned());
                    } else {
                        let sp = self.spurious_tokens();
                        tokens.extend(sp);
                    }
                }
                "{sp}" => {
                    let sp = self.spurious_tokens();
                    tokens.extend(sp);
                }
                "{d}" => tokens.push(pick(&mut self.rng, &DISEASES).to_string()),
                "{v}" => tokens.push(pick(&mut self.rng, &VERBS).to_string()),
                "{a}" => tokens.push(pick(&mut self.rng, &ADJS).to_string()),
                "{n}" => tokens.push(self.rng.gen_range(1..=9u32).to_string()),
                literal => tokens.push(literal.to_string()),
            }
        }
        // dilute with filler clauses: optional preamble and a clause
        // inserted before the final period
        if self.rng.gen::<f64>() < 0.45 {
            let pre: Vec<String> =
                pick(&mut self.rng, &FILLER_PRE).split(' ').map(str::to_string).collect();
            let shift = pre.len();
            for m in mentions.iter_mut() {
                *m = Mention::new(m.start + shift, m.end + shift);
            }
            let mut with_pre = pre;
            with_pre.extend(tokens);
            tokens = with_pre;
        }
        if self.rng.gen::<f64>() < 0.45 && tokens.last().map(String::as_str) == Some(".") {
            let post = pick(&mut self.rng, &FILLER_POST).split(' ');
            if let Some(dot) = tokens.pop() {
                tokens.extend(post.map(str::to_string));
                tokens.push(dot);
            }
        }
        (tokens, mentions)
    }

    /// Apply annotation noise to true mentions, producing the released
    /// (gold) mentions.
    fn noisy_mentions(&mut self, mentions: &[Mention], len: usize) -> Vec<Mention> {
        let mut out = Vec::with_capacity(mentions.len());
        for &m in mentions {
            if self.rng.gen::<f64>() >= self.profile.annotation_noise {
                out.push(m);
                continue;
            }
            let roll = self.rng.gen::<f64>();
            if roll < 0.7 {
                // drop the annotation entirely (the "GRK6" failure mode)
            } else if roll < 0.9 && m.len() > 1 {
                // shrink: lose the final token
                out.push(Mention::new(m.start, m.end - 1));
            } else if m.end < len {
                // extend into the following token
                out.push(Mention::new(m.start, m.end + 1));
            } else {
                out.push(m);
            }
        }
        out
    }

    fn category(&mut self) -> Category {
        let (g, a, _) = self.profile.template_mix;
        let roll = self.rng.gen::<f64>();
        if roll < g {
            Category::Gene
        } else if roll < g + a {
            Category::Ambiguous
        } else {
            Category::NonGene
        }
    }
}

/// Generate alternative spans for a gold mention: progressively drop
/// trailing tokens of multiword mentions, the dominant pattern in real
/// ALTGENE files.
fn alternatives_for(sentence: &Sentence, m: &Mention) -> Vec<Mention> {
    let mut alts = Vec::new();
    if m.len() >= 3 {
        alts.push(Mention::new(m.start, m.end - 1));
    }
    if m.len() >= 4 {
        alts.push(Mention::new(m.start, m.end - 2));
    }
    let _ = sentence;
    alts
}

/// Generate a standalone unlabelled corpus from a profile: same
/// templates and lexicon, full (test-side) inventories, tags stripped.
/// This is the "abundant unlabelled data" BANNER-ChemDNER learns its
/// Brown clusters and embeddings from.
pub fn generate_unlabelled(profile: &CorpusProfile, n_sentences: usize, seed: u64) -> Corpus {
    let mut seed_rng = ChaCha8Rng::seed_from_u64(profile.seed);
    let lexicon = GeneLexicon::generate(&mut seed_rng, profile.num_symbols, profile.num_multiword);
    let mut gen = Generator {
        lexicon: &lexicon,
        profile,
        rng: ChaCha8Rng::seed_from_u64(seed),
        symbol_limit: lexicon.symbols.len(),
        multiword_limit: lexicon.multiword.len(),
        spurious_limit: lexicon.spurious.len(),
        lowercase_limit: lexicon.lowercase.len(),
    };
    let sentences = (0..n_sentences)
        .map(|i| {
            let category = gen.category();
            let (tokens, _) = gen.sentence(category);
            Sentence::unlabelled(format!("UL{i:05}"), tokens)
        })
        .collect();
    Corpus::from_sentences(sentences)
}

/// Generate a corpus pair from a profile.
pub fn generate(profile: &CorpusProfile) -> GeneratedCorpus {
    let mut seed_rng = ChaCha8Rng::seed_from_u64(profile.seed);
    let lexicon = GeneLexicon::generate(&mut seed_rng, profile.num_symbols, profile.num_multiword);

    let build = |lexicon: &GeneLexicon,
                 count: usize,
                 id_prefix: &str,
                 train_partition: bool,
                 seed: u64|
     -> Corpus {
        let mut gen = Generator {
            lexicon,
            profile,
            rng: ChaCha8Rng::seed_from_u64(seed),
            symbol_limit: if train_partition {
                ((lexicon.symbols.len() as f64 * profile.train_gene_fraction) as usize).max(1)
            } else {
                lexicon.symbols.len()
            },
            // multiword genes are fully shared between partitions: the
            // unseen-gene effect is carried by symbols and spurious
            // entities, so the graph is not asked to invent multiword
            // boundaries unsupported by the (noisy) gold
            multiword_limit: lexicon.multiword.len(),
            lowercase_limit: if train_partition {
                ((lexicon.lowercase.len() as f64 * profile.train_gene_fraction) as usize).max(1)
            } else {
                lexicon.lowercase.len()
            },
            spurious_limit: if train_partition {
                ((lexicon.spurious.len() as f64 * profile.train_spurious_fraction) as usize).max(1)
            } else {
                lexicon.spurious.len()
            },
        };
        let sentences = (0..count)
            .map(|i| {
                let category = gen.category();
                let (tokens, true_mentions) = gen.sentence(category);
                let gold = gen.noisy_mentions(&true_mentions, tokens.len());
                let tags = mentions_to_tags(&gold, tokens.len());
                Sentence::labelled(format!("{id_prefix}{i:05}"), tokens, tags)
            })
            .collect();
        Corpus::from_sentences(sentences)
    };

    let train = build(&lexicon, profile.train_sentences, "TR", true, profile.seed ^ 0x1111);
    let test = build(&lexicon, profile.test_sentences, "TE", false, profile.seed ^ 0x2222);

    // Evaluation gold from the (noisy) test tags.
    let mut test_gold = AnnotationSet::from_corpus(&test);
    if profile.with_alternatives {
        for sentence in &test.sentences {
            if let Some(mentions) = sentence.gold_mentions() {
                for m in &mentions {
                    for alt in alternatives_for(sentence, m) {
                        test_gold.add_alternative(Bc2Annotation::from_mention(sentence, &alt));
                    }
                }
            }
        }
    }

    GeneratedCorpus { train, test, test_gold, lexicon, profile: clone_profile(profile) }
}

fn clone_profile(p: &CorpusProfile) -> CorpusProfile {
    p.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphner_text::BioTag;

    fn small_bc2gm() -> GeneratedCorpus {
        generate(&CorpusProfile::bc2gm().scaled(0.02))
    }

    fn small_aml() -> GeneratedCorpus {
        generate(&CorpusProfile::aml().scaled(0.02))
    }

    #[test]
    fn sizes_match_profile() {
        let c = small_bc2gm();
        assert_eq!(c.train.len(), 300);
        assert_eq!(c.test.len(), 100);
        assert!(c.train.fully_labelled());
        assert!(c.test.fully_labelled());
    }

    #[test]
    fn deterministic_under_seed() {
        let a = small_bc2gm();
        let b = small_bc2gm();
        assert_eq!(a.train.sentences[7], b.train.sentences[7]);
        assert_eq!(a.test.sentences[3], b.test.sentences[3]);
    }

    #[test]
    fn bc2gm_has_alternatives_aml_does_not() {
        let bc = small_bc2gm();
        let aml = small_aml();
        let n_alts: usize = bc.test_gold.alternatives.values().map(Vec::len).sum();
        assert!(n_alts > 0, "BC2GM profile should emit alternatives");
        assert!(aml.test_gold.alternatives.is_empty());
    }

    #[test]
    fn aml_is_sparser_in_genes() {
        let bc = generate(&CorpusProfile::bc2gm().scaled(0.05));
        let aml = generate(&CorpusProfile::aml().scaled(0.05));
        let density = |c: &Corpus| c.num_gold_mentions() as f64 / c.len() as f64;
        assert!(
            density(&aml.train) < density(&bc.train),
            "AML {} vs BC2GM {}",
            density(&aml.train),
            density(&bc.train)
        );
    }

    #[test]
    fn aml_uses_single_token_symbols() {
        let c = small_aml();
        for s in &c.train.sentences {
            for m in s.gold_mentions().unwrap() {
                // standardized style: single-token mentions only (noise
                // can extend by one token)
                assert!(m.len() <= 2, "unexpected long mention {:?}", s.mention_text(&m));
            }
        }
    }

    #[test]
    fn bc2gm_has_multiword_mentions() {
        let c = small_bc2gm();
        let has_multi =
            c.train.sentences.iter().flat_map(|s| s.gold_mentions().unwrap()).any(|m| m.len() >= 3);
        assert!(has_multi);
    }

    #[test]
    fn tags_are_well_formed_bio() {
        let c = small_bc2gm();
        for s in c.train.sentences.iter().chain(&c.test.sentences) {
            let tags = s.tags.as_ref().unwrap();
            let mut prev = None;
            for &t in tags {
                assert!(t.may_follow(prev), "ill-formed BIO in {}", s.id);
                prev = Some(t);
            }
        }
    }

    #[test]
    fn gold_annotation_set_counts_match_corpus() {
        let c = small_aml();
        assert_eq!(c.test_gold.num_primary(), c.test.num_gold_mentions());
    }

    #[test]
    fn noise_rate_reflected_in_annotations() {
        // high-noise variant drops ~3 % of mentions (half of 6 %)
        let clean = generate(&CorpusProfile {
            annotation_noise: 0.0,
            ..CorpusProfile::bc2gm().scaled(0.05)
        });
        let noisy = generate(&CorpusProfile {
            annotation_noise: 0.5,
            ..CorpusProfile::bc2gm().scaled(0.05)
        });
        assert!(noisy.train.num_gold_mentions() < clean.train.num_gold_mentions());
    }

    #[test]
    fn oracle_accepts_generated_genes() {
        let c = small_bc2gm();
        let mut checked = 0;
        for s in &c.test.sentences {
            for m in s.gold_mentions().unwrap() {
                // boundary noise can attach a filler token, so only check
                // mentions whose text is a pure lexicon form
                let text = s.mention_text(&m);
                if c.lexicon.is_gene_related(&text) {
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn test_set_contains_unseen_genes() {
        let c = generate(&CorpusProfile::bc2gm().scaled(0.1));
        let train_tokens: std::collections::BTreeSet<&str> =
            c.train.sentences.iter().flat_map(|s| s.tokens.iter().map(String::as_str)).collect();
        let unseen_mentions =
            c.test
                .sentences
                .iter()
                .flat_map(|s| {
                    let toks = &s.tokens;
                    s.gold_mentions().unwrap().into_iter().map(move |m| {
                        (m.start..m.end).map(|i| toks[i].as_str()).collect::<Vec<_>>()
                    })
                })
                .filter(|toks| toks.iter().any(|t| !train_tokens.contains(t)))
                .count();
        assert!(unseen_mentions > 0, "test set should contain unseen gene tokens");
    }

    #[test]
    fn some_sentences_have_no_genes() {
        let c = small_aml();
        let empty = c
            .train
            .sentences
            .iter()
            .filter(|s| s.tags.as_ref().unwrap().iter().all(|&t| t == BioTag::O))
            .count();
        assert!(empty > c.train.len() / 3);
    }
}

#[cfg(test)]
mod alignment_tests {
    use super::*;

    /// With noise off, every gold mention must be a surface form from
    /// the lexicon — this catches any mention-index drift introduced by
    /// the filler-clause insertion.
    #[test]
    fn zero_noise_mentions_align_with_lexicon_forms() {
        let profile =
            CorpusProfile { annotation_noise: 0.0, ..CorpusProfile::bc2gm().scaled(0.05) };
        let c = generate(&profile);
        let mut checked = 0;
        for s in c.train.sentences.iter().chain(&c.test.sentences) {
            for m in s.gold_mentions().unwrap() {
                let text = s.mention_text(&m);
                assert!(
                    c.lexicon.is_gene_related(&text),
                    "gold mention {text:?} in {} is not a lexicon gene form",
                    s.id
                );
                checked += 1;
            }
        }
        assert!(checked > 100, "only {checked} mentions checked");
    }

    #[test]
    fn lowercase_gene_class_appears_in_mixed_corpora() {
        let c = generate(&CorpusProfile::bc2gm().scaled(0.05));
        let lowercase_mentions = c
            .train
            .sentences
            .iter()
            .flat_map(|s| s.gold_mentions().unwrap().into_iter().map(move |m| s.mention_text(&m)))
            .filter(|t| t.len() > 1 && t.chars().all(|ch| ch.is_ascii_lowercase()))
            .count();
        assert!(lowercase_mentions > 10, "found {lowercase_mentions}");
    }

    #[test]
    fn test_set_contains_unseen_spurious_entities() {
        let profile = CorpusProfile::bc2gm().scaled(0.1);
        let c = generate(&profile);
        let train_tokens: std::collections::BTreeSet<&str> =
            c.train.sentences.iter().flat_map(|s| s.tokens.iter().map(String::as_str)).collect();
        let unseen_spurious = c
            .lexicon
            .spurious
            .iter()
            .filter(|sp| sp.iter().any(|t| !train_tokens.contains(t.as_str())))
            .count();
        assert!(unseen_spurious > 0, "no spurious entity is test-only");
    }

    #[test]
    fn unlabelled_generator_produces_tag_free_text() {
        let profile = CorpusProfile::bc2gm().scaled(0.02);
        let u = generate_unlabelled(&profile, 50, 99);
        assert_eq!(u.len(), 50);
        assert!(u.sentences.iter().all(|s| s.tags.is_none()));
        assert!(u.num_tokens() > 200);
        // deterministic under seed
        let u2 = generate_unlabelled(&profile, 50, 99);
        assert_eq!(u.sentences[7], u2.sentences[7]);
    }
}
