//! String interning.
//!
//! Hot paths throughout the workspace (feature extraction, n-gram
//! handling, graph construction) key maps by words. Interning maps each
//! distinct string to a dense `u32` id so those maps can be keyed by
//! integers instead (see the hashing guidance in the perf book).

use rustc_hash::FxHashMap;

/// Dense string interner: `&str -> u32` and back.
#[derive(Clone, Debug, Default)]
pub struct Vocab {
    by_str: FxHashMap<String, u32>,
    by_id: Vec<String>,
}

impl Vocab {
    /// Create an empty vocabulary.
    pub fn new() -> Vocab {
        Vocab::default()
    }

    /// Intern `s`, returning its id (existing or fresh).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.by_str.get(s) {
            return id;
        }
        let id = self.by_id.len() as u32;
        self.by_id.push(s.to_string());
        self.by_str.insert(s.to_string(), id);
        id
    }

    /// Look up an already-interned string.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.by_str.get(s).copied()
    }

    /// The string for an id.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this vocabulary.
    pub fn resolve(&self, id: u32) -> &str {
        &self.by_id[id as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Iterate over `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.by_id.iter().enumerate().map(|(i, s)| (i as u32, s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.intern("gene");
        let b = v.intern("gene");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_resolvable() {
        let mut v = Vocab::new();
        let ids: Vec<u32> = ["a", "b", "c"].iter().map(|s| v.intern(s)).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(v.resolve(1), "b");
        assert_eq!(v.get("c"), Some(2));
        assert_eq!(v.get("d"), None);
    }

    #[test]
    fn iter_in_id_order() {
        let mut v = Vocab::new();
        v.intern("x");
        v.intern("y");
        let pairs: Vec<(u32, &str)> = v.iter().collect();
        assert_eq!(pairs, vec![(0, "x"), (1, "y")]);
    }
}
