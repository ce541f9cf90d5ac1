//! 3-gram extraction and interning.
//!
//! GraphNER's similarity graph has one vertex per *unique* token 3-gram.
//! Following Subramanya et al. (2010), every token of every sentence
//! contributes one 3-gram token, centred on it, with sentence-boundary
//! padding; the distribution attached to the vertex `(w₋₁, w, w₊₁)` is a
//! belief about the label of the *centre* word `w`.

use crate::sentence::Sentence;
use crate::vocab::Vocab;
use rustc_hash::FxHashMap;

/// Pseudo-token padding the left sentence boundary.
pub const BOUNDARY_LEFT: &str = "<s>";
/// Pseudo-token padding the right sentence boundary.
pub const BOUNDARY_RIGHT: &str = "</s>";

/// A 3-gram as interned word ids `(left, centre, right)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Trigram(pub [u32; 3]);

impl Trigram {
    /// The centre word id — the word whose label the vertex describes.
    #[inline]
    pub fn centre(&self) -> u32 {
        self.0[1]
    }
}

/// Interner mapping unique 3-grams to dense vertex ids, sharing a word
/// [`Vocab`].
#[derive(Clone, Debug, Default)]
pub struct TrigramInterner {
    /// Word-level vocabulary (includes the boundary pseudo-tokens).
    pub words: Vocab,
    by_trigram: FxHashMap<Trigram, u32>,
    by_id: Vec<Trigram>,
}

impl TrigramInterner {
    /// Create an empty interner.
    pub fn new() -> TrigramInterner {
        TrigramInterner::default()
    }

    /// Intern the 3-gram centred on token `i` of `sentence`, padding with
    /// the boundary pseudo-tokens, and return its vertex id.
    pub fn intern_at(&mut self, sentence: &Sentence, i: usize) -> u32 {
        let tg = self.trigram_at(sentence, i);
        self.intern(tg)
    }

    /// The (non-interned) 3-gram centred on token `i`, interning the
    /// individual words.
    pub fn trigram_at(&mut self, sentence: &Sentence, i: usize) -> Trigram {
        let left = if i == 0 { BOUNDARY_LEFT } else { &sentence.tokens[i - 1] };
        let right = if i + 1 >= sentence.len() { BOUNDARY_RIGHT } else { &sentence.tokens[i + 1] };
        let l = self.words.intern(left);
        let c = self.words.intern(&sentence.tokens[i]);
        let r = self.words.intern(right);
        Trigram([l, c, r])
    }

    /// Intern a 3-gram, returning its dense vertex id.
    pub fn intern(&mut self, tg: Trigram) -> u32 {
        if let Some(&id) = self.by_trigram.get(&tg) {
            return id;
        }
        let id = self.by_id.len() as u32;
        self.by_id.push(tg);
        self.by_trigram.insert(tg, id);
        id
    }

    /// Vertex id of a 3-gram, if it has been interned.
    pub fn get(&self, tg: Trigram) -> Option<u32> {
        self.by_trigram.get(&tg).copied()
    }

    /// Look up the vertex id of the 3-gram at `(sentence, i)` without
    /// interning anything new. Returns `None` if any word or the 3-gram
    /// itself is unseen.
    pub fn lookup_at(&self, sentence: &Sentence, i: usize) -> Option<u32> {
        let left = if i == 0 { BOUNDARY_LEFT } else { &sentence.tokens[i - 1] };
        let right = if i + 1 >= sentence.len() { BOUNDARY_RIGHT } else { &sentence.tokens[i + 1] };
        let l = self.words.get(left)?;
        let c = self.words.get(&sentence.tokens[i])?;
        let r = self.words.get(right)?;
        self.by_trigram.get(&Trigram([l, c, r])).copied()
    }

    /// The 3-gram for a vertex id.
    pub fn resolve(&self, id: u32) -> Trigram {
        self.by_id[id as usize]
    }

    /// Render a vertex id as `[left centre right]` (the paper's notation,
    /// e.g. `[tumor - 1]`).
    pub fn render(&self, id: u32) -> String {
        let tg = self.resolve(id);
        format!(
            "[{} {} {}]",
            self.words.resolve(tg.0[0]),
            self.words.resolve(tg.0[1]),
            self.words.resolve(tg.0[2])
        )
    }

    /// All interned 3-grams in vertex-id order (index `i` is vertex `i`).
    pub fn trigrams(&self) -> &[Trigram] {
        &self.by_id
    }

    /// Number of unique 3-grams (graph vertices).
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether no 3-grams have been interned.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(words: &[&str]) -> Sentence {
        Sentence::unlabelled("s", words.iter().map(|w| w.to_string()).collect())
    }

    #[test]
    fn boundary_padding() {
        let mut it = TrigramInterner::new();
        let s = sent(&["a", "b"]);
        let t0 = it.trigram_at(&s, 0);
        let t1 = it.trigram_at(&s, 1);
        assert_eq!(it.words.resolve(t0.0[0]), BOUNDARY_LEFT);
        assert_eq!(it.words.resolve(t0.0[1]), "a");
        assert_eq!(it.words.resolve(t0.0[2]), "b");
        assert_eq!(it.words.resolve(t1.0[2]), BOUNDARY_RIGHT);
    }

    #[test]
    fn single_token_sentence_padded_both_sides() {
        let mut it = TrigramInterner::new();
        let s = sent(&["x"]);
        let t = it.trigram_at(&s, 0);
        assert_eq!(it.words.resolve(t.0[0]), BOUNDARY_LEFT);
        assert_eq!(it.words.resolve(t.0[2]), BOUNDARY_RIGHT);
    }

    #[test]
    fn unique_trigrams_share_vertex() {
        let mut it = TrigramInterner::new();
        let s1 = sent(&["wilms", "tumor", "-", "1", "positive"]);
        let s2 = sent(&["in", "wilms", "tumor", "-", "1", "."]);
        // "tumor - 1" occurs centred on "-" in both sentences
        let v1 = it.intern_at(&s1, 2);
        let v2 = it.intern_at(&s2, 3);
        assert_eq!(v1, v2);
        assert_eq!(it.render(v1), "[tumor - 1]");
    }

    #[test]
    fn lookup_without_interning() {
        let mut it = TrigramInterner::new();
        let s = sent(&["a", "b", "c"]);
        let v = it.intern_at(&s, 1);
        assert_eq!(it.lookup_at(&s, 1), Some(v));
        let s2 = sent(&["a", "b", "z"]);
        assert_eq!(it.lookup_at(&s2, 1), None);
    }

    #[test]
    fn centre_word() {
        let mut it = TrigramInterner::new();
        let s = sent(&["p", "q", "r"]);
        let tg = it.trigram_at(&s, 1);
        assert_eq!(it.words.resolve(tg.centre()), "q");
    }
}
