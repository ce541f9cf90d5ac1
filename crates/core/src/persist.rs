//! Versioned binary persistence for trained [`GraphNer`] models.
//!
//! The workspace carries no serialization dependency, so the format is
//! hand-rolled: little-endian integers, `f64` via [`f64::to_bits`]
//! (bit-exact round trips, NaN-safe), length-prefixed UTF-8 strings.
//!
//! ```text
//! magic    b"GNER"
//! version  u32 (currently 2; version 1 files are refused)
//! config   α, (μ, ν, #iterations, self-anchor), K, feature set,
//!          τ, add-k, ratio cap
//! base     CRF order + BANNER feature strings (id order) + CRF weights
//! corpus   the fully labelled training corpus `D_l`
//! ```
//!
//! The file holds only what was learned or configured, plus `D_l`.
//! Everything derived from them — the train feature table, the train
//! 3-gram interner, the reference distributions `X_ref` and the decode
//! transitions — is rebuilt on load by the same code that builds a
//! freshly trained model, so no stored byte can contradict the corpus
//! next to it. Everything is written in deterministic order, so saving
//! the same model twice produces identical bytes. Models whose base
//! system uses distributional resources (BANNER-ChemDNER) are rejected:
//! the Brown clustering and embedding clusters are not persisted.

use crate::config::{GraphFeatureSet, GraphNerConfig};
use crate::model::GraphNer;
use graphner_banner::{BaseSystem, FeatureIndex, FeatureSet, NerModel, TokenFeatures};
use graphner_crf::{ChainCrf, Order};
use graphner_graph::PropagationParams;
use graphner_text::{BioTag, Corpus, Sentence};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"GNER";
const VERSION: u32 = 2;

/// Why a save or load failed.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The bytes are not a model this version can read, or the model is
    /// not persistable (distributional resources).
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

fn bad(msg: impl Into<String>) -> PersistError {
    PersistError::Format(msg.into())
}

// ---- primitive writers/readers -------------------------------------

fn put_u8<W: Write>(w: &mut W, v: u8) -> io::Result<()> {
    w.write_all(&[v])
}

fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    put_u64(w, v.to_bits())
}

fn put_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    put_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

fn get_u8<R: Read>(r: &mut R) -> Result<u8, PersistError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn get_u32<R: Read>(r: &mut R) -> Result<u32, PersistError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn get_u64<R: Read>(r: &mut R) -> Result<u64, PersistError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_f64<R: Read>(r: &mut R) -> Result<f64, PersistError> {
    Ok(f64::from_bits(get_u64(r)?))
}

/// Read a length prefix. Lengths come off an untrusted file, so readers
/// never pre-size from them: every buffer grows only as its bytes
/// actually arrive, and a lying prefix ends in a truncation error.
fn get_len<R: Read>(r: &mut R, what: &str) -> Result<usize, PersistError> {
    let n = get_u64(r)?;
    // an absurd length means a corrupt stream
    if n > (1 << 40) {
        return Err(bad(format!("implausible {what} length {n}")));
    }
    Ok(n as usize)
}

fn get_str<R: Read>(r: &mut R) -> Result<String, PersistError> {
    let n = get_len(r, "string")?;
    let mut buf = Vec::new();
    if r.take(n as u64).read_to_end(&mut buf)? != n {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    String::from_utf8(buf).map_err(|_| bad("string is not valid UTF-8"))
}

// ---- sections ------------------------------------------------------

fn put_config<W: Write>(w: &mut W, cfg: &GraphNerConfig) -> io::Result<()> {
    put_f64(w, cfg.alpha)?;
    put_f64(w, cfg.propagation.mu)?;
    put_f64(w, cfg.propagation.nu)?;
    put_u64(w, cfg.propagation.iterations as u64)?;
    put_f64(w, cfg.propagation.self_anchor)?;
    put_u64(w, cfg.k as u64)?;
    let (tag, bits) = cfg.feature_set.cache_key();
    put_u8(w, tag)?;
    put_u64(w, bits)?;
    put_f64(w, cfg.trans_power)?;
    put_f64(w, cfg.trans_add_k)?;
    put_f64(w, cfg.trans_ratio_cap)
}

fn get_config<R: Read>(r: &mut R) -> Result<GraphNerConfig, PersistError> {
    let alpha = get_f64(r)?;
    let mu = get_f64(r)?;
    let nu = get_f64(r)?;
    let iterations = get_u64(r)? as usize;
    let self_anchor = get_f64(r)?;
    let k = get_u64(r)? as usize;
    let fs_tag = get_u8(r)?;
    let fs_bits = get_u64(r)?;
    let feature_set = match fs_tag {
        0 => GraphFeatureSet::All,
        1 => GraphFeatureSet::Lexical,
        2 => GraphFeatureSet::MiThreshold(f64::from_bits(fs_bits)),
        t => return Err(bad(format!("unknown feature-set tag {t}"))),
    };
    Ok(GraphNerConfig {
        alpha,
        propagation: PropagationParams { mu, nu, iterations, self_anchor },
        k,
        feature_set,
        trans_power: get_f64(r)?,
        trans_add_k: get_f64(r)?,
        trans_ratio_cap: get_f64(r)?,
        // the sweep schedule and the serve section are runtime
        // execution knobs, not learned quantities: they are never
        // serialized, and a loaded model runs under the defaults
        schedule: Default::default(),
        serve: Default::default(),
    })
}

fn put_base<W: Write>(w: &mut W, base: &NerModel) -> io::Result<()> {
    let crf = base.crf();
    put_u8(
        w,
        match crf.space().order() {
            Order::One => 1,
            Order::Two => 2,
        },
    )?;
    let features = base.feature_index().strings_in_id_order();
    put_u64(w, features.len() as u64)?;
    for f in &features {
        put_str(w, f)?;
    }
    put_u64(w, crf.params().len() as u64)?;
    for &p in crf.params() {
        put_f64(w, p)?;
    }
    Ok(())
}

fn get_base<R: Read>(r: &mut R) -> Result<NerModel, PersistError> {
    let order = match get_u8(r)? {
        1 => Order::One,
        2 => Order::Two,
        o => return Err(bad(format!("unknown CRF order tag {o}"))),
    };
    let num_features = get_len(r, "feature index")?;
    let mut features = Vec::new();
    for _ in 0..num_features {
        features.push(get_str(r)?);
    }
    let num_params = get_len(r, "parameter vector")?;
    let mut params = Vec::new();
    for _ in 0..num_params {
        params.push(get_f64(r)?);
    }
    let expected = ChainCrf::new(order, num_features).params().len();
    if num_params != expected {
        return Err(bad(format!("parameter vector has {num_params} entries, expected {expected}")));
    }
    let crf = ChainCrf::from_parts(order, num_features, params);
    Ok(NerModel::from_parts(FeatureIndex::from_strings(features), crf))
}

fn put_corpus<W: Write>(w: &mut W, corpus: &Corpus) -> io::Result<()> {
    put_u64(w, corpus.len() as u64)?;
    for sentence in &corpus.sentences {
        put_str(w, &sentence.id)?;
        put_u64(w, sentence.tokens.len() as u64)?;
        for token in &sentence.tokens {
            put_str(w, token)?;
        }
        match &sentence.tags {
            Some(tags) => {
                put_u8(w, 1)?;
                for &tag in tags {
                    put_u8(w, tag.index() as u8)?;
                }
            }
            None => put_u8(w, 0)?,
        }
    }
    Ok(())
}

fn get_corpus<R: Read>(r: &mut R) -> Result<Corpus, PersistError> {
    let num_sentences = get_len(r, "corpus")?;
    let mut sentences = Vec::new();
    for _ in 0..num_sentences {
        let id = get_str(r)?;
        let num_tokens = get_len(r, "sentence")?;
        let mut tokens = Vec::new();
        for _ in 0..num_tokens {
            tokens.push(get_str(r)?);
        }
        let sentence = match get_u8(r)? {
            0 => Sentence::unlabelled(id, tokens),
            1 => {
                let mut tags = Vec::new();
                for _ in 0..num_tokens {
                    let idx = get_u8(r)? as usize;
                    let tag = BioTag::try_from_index(idx)
                        .ok_or_else(|| bad(format!("invalid BIO tag index {idx}")))?;
                    tags.push(tag);
                }
                Sentence::labelled(id, tokens, tags)
            }
            t => return Err(bad(format!("unknown tag-presence marker {t}"))),
        };
        sentences.push(sentence);
    }
    Ok(Corpus::from_sentences(sentences))
}

// ---- public API ----------------------------------------------------

/// Serialize a trained model into a writer.
///
/// Fails with [`PersistError::Format`] for BANNER-ChemDNER base models,
/// whose distributional resources are not persistable.
pub fn write_model<W: Write>(model: &GraphNer, w: &mut W) -> Result<(), PersistError> {
    if model.base.system() == BaseSystem::BannerChemDner {
        return Err(bad("BANNER-ChemDNER base models carry distributional resources, \
             which this format does not persist"));
    }
    w.write_all(MAGIC)?;
    put_u32(w, VERSION)?;
    put_config(w, &model.cfg)?;
    put_base(w, &model.base)?;
    put_corpus(w, &model.train_corpus)?;
    Ok(())
}

/// Deserialize a model from a reader.
pub fn read_model<R: Read>(r: &mut R) -> Result<GraphNer, PersistError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a GraphNER model file (bad magic)"));
    }
    let version = get_u32(r)?;
    if version != VERSION {
        return Err(bad(format!("unsupported format version {version} (expected {VERSION})")));
    }
    let cfg = get_config(r)?;
    cfg.validate().map_err(|e| bad(format!("invalid configuration: {e}")))?;
    let base = get_base(r)?;
    let train_corpus = get_corpus(r)?;
    if let Some(s) = train_corpus.sentences.iter().find(|s| s.tags.is_none()) {
        return Err(bad(format!("train sentence {:?} carries no gold tags", s.id)));
    }
    // everything else is derived data: rebuilt, not stored
    let sentences: Vec<&Sentence> = train_corpus.sentences.iter().collect();
    let train_features = TokenFeatures::build(&sentences, FeatureSet::All, base.distributional());
    Ok(GraphNer::assemble(base, cfg, Arc::new(train_corpus), Arc::new(train_features)))
}

/// Save a trained model to a file.
pub fn save_model(model: &GraphNer, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_model(model, &mut w)?;
    w.flush()?;
    Ok(())
}

/// Load a trained model from a file.
pub fn load_model(path: impl AsRef<Path>) -> Result<GraphNer, PersistError> {
    let mut r = BufReader::new(File::open(path)?);
    let model = read_model(&mut r)?;
    // trailing garbage means the file is not what it claims to be
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(bad("trailing bytes after model payload"));
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::{toy_model, toy_test};
    use graphner_banner::NerConfig;
    use graphner_crf::TrainConfig;
    use graphner_text::tokenize;

    #[test]
    fn round_trip_preserves_predictions_and_state() {
        let model = toy_model();
        let mut bytes = Vec::new();
        write_model(&model, &mut bytes).unwrap();
        let loaded = read_model(&mut bytes.as_slice()).unwrap();

        assert_eq!(loaded.transitions(), model.transitions());
        assert_eq!(loaded.x_ref, model.x_ref);
        assert_eq!(loaded.interner.trigrams(), model.interner.trigrams());
        assert_eq!(loaded.cfg.alpha, model.cfg.alpha);
        assert_eq!(loaded.cfg.k, model.cfg.k);
        assert_eq!(loaded.base.crf().params(), model.base.crf().params());
        assert_eq!(loaded.train_corpus.len(), model.train_corpus.len());

        let test = toy_test();
        let out = model.test(&test);
        let out2 = loaded.test(&test);
        assert_eq!(out.predictions, out2.predictions);
        assert_eq!(out.base_predictions, out2.base_predictions);
    }

    #[test]
    fn serialization_is_deterministic() {
        let model = toy_model();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_model(&model, &mut a).unwrap();
        write_model(&model, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_magic_and_truncation_are_rejected() {
        let model = toy_model();
        let mut bytes = Vec::new();
        write_model(&model, &mut bytes).unwrap();

        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(read_model(&mut wrong.as_slice()), Err(PersistError::Format(_))));

        let truncated = &bytes[..bytes.len() / 2];
        assert!(matches!(read_model(&mut &truncated[..]), Err(PersistError::Io(_))));

        let mut future = bytes.clone();
        future[4] = 99; // version
        assert!(matches!(read_model(&mut future.as_slice()), Err(PersistError::Format(_))));

        // format 1 stored derived sections this reader no longer parses
        let mut v1 = bytes.clone();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        match read_model(&mut v1.as_slice()) {
            Err(PersistError::Format(msg)) => assert!(msg.contains("version 1"), "{msg}"),
            other => panic!("a version 1 header loaded: {:?}", other.err()),
        }
    }

    #[test]
    fn lying_length_prefixes_are_rejected_without_preallocating() {
        // a valid header, then a feature index claiming 2^40 strings:
        // the reader must hit end of stream, not allocate for the claim
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        put_u32(&mut bytes, VERSION).unwrap();
        put_config(&mut bytes, &GraphNerConfig::default()).unwrap();
        put_u8(&mut bytes, 1).unwrap(); // CRF order
        let header = bytes.len();
        put_u64(&mut bytes, 1 << 40).unwrap(); // feature-index length
        assert!(read_model(&mut bytes.as_slice()).is_err());

        // the same lie on a single string's length
        bytes.truncate(header);
        put_u64(&mut bytes, 1).unwrap();
        put_u64(&mut bytes, 1 << 40).unwrap();
        bytes.extend_from_slice(b"WT1");
        assert!(matches!(read_model(&mut bytes.as_slice()), Err(PersistError::Io(_))));
    }

    /// The [`PersistError::Format`] message loading `model`'s bytes gives.
    fn format_error(model: &GraphNer) -> String {
        let mut bytes = Vec::new();
        write_model(model, &mut bytes).unwrap();
        match read_model(&mut bytes.as_slice()) {
            Err(PersistError::Format(msg)) => msg,
            other => panic!("expected a format error, got {:?}", other.err()),
        }
    }

    #[test]
    fn partially_labelled_train_corpora_are_rejected() {
        // the unlabelled sentence is written with tag-presence marker 0,
        // and X_ref cannot be derived from it
        let mut model = toy_model();
        let mut corpus = (*model.train_corpus).clone();
        corpus.sentences[2] = Sentence::unlabelled("s2", corpus.sentences[2].tokens.clone());
        model.train_corpus = Arc::new(corpus);
        let msg = format_error(&model);
        assert!(msg.contains("no gold tags"), "{msg}");
    }

    #[test]
    fn configs_that_fail_validation_are_rejected() {
        let model = toy_model();
        let defaults = GraphNerConfig::default();
        // propagation has no early exit: a file must not stall test()
        let unbounded = PropagationParams { iterations: 1 << 40, ..defaults.propagation };
        for (cfg, expect) in [
            (GraphNerConfig { k: 0, ..defaults.clone() }, "k must be"),
            (GraphNerConfig { propagation: unbounded, ..defaults.clone() }, "sanity cap"),
        ] {
            let msg = format_error(&model.reconfigured(cfg));
            assert!(msg.contains(expect), "{msg}");
        }
    }

    #[test]
    fn chemdner_models_are_refused() {
        use graphner_banner::{DistributionalConfig, DistributionalResources};
        use graphner_text::BioTag::*;
        let mk =
            |id: &str, text: &str, tags: Vec<BioTag>| Sentence::labelled(id, tokenize(text), tags);
        let train = Corpus::from_sentences(vec![
            mk("s0", "the WT1 gene was expressed", vec![O, B, O, O, O]),
            mk("s1", "no mutation was found", vec![O, O, O, O]),
        ]);
        let dist = DistributionalResources::train(&train, &DistributionalConfig::default());
        let cfg = NerConfig {
            order: Order::One,
            train: TrainConfig { max_iterations: 20, ..Default::default() },
            min_feature_count: 1,
        };
        let (gner, _) = GraphNer::train(&train, &cfg, Some(dist), GraphNerConfig::default());
        let mut bytes = Vec::new();
        assert!(matches!(write_model(&gner, &mut bytes), Err(PersistError::Format(_))));
    }

    #[test]
    fn file_round_trip_and_trailing_bytes() {
        let model = toy_model();
        let dir = std::env::temp_dir();
        let path = dir.join("graphner-persist-test.gner");
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.transitions(), model.transitions());

        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_model(&path), Err(PersistError::Format(_))));
        let _ = std::fs::remove_file(&path);
    }
}
