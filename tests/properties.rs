//! Cross-crate property-based tests on the core invariants.

use graphner::core::check;
use graphner::crf::{viterbi_tags, ChainCrf, Order, SentenceFeatures};
use graphner::graph::{knn_inverted_index, SparseVec};
use graphner::obs::SpanName;
use graphner::text::sentence::{mentions_to_tags, tags_to_mentions};
use graphner::text::{tokenize, BioTag, Mention, Sentence};
use proptest::prelude::*;

fn arb_tags(max_len: usize) -> impl Strategy<Value = Vec<BioTag>> {
    prop::collection::vec(0usize..3, 1..max_len).prop_map(|v| {
        // repair into a well-formed sequence
        let mut tags: Vec<BioTag> = v.into_iter().map(BioTag::from_index).collect();
        graphner::text::tag::repair_bio(&mut tags);
        tags
    })
}

proptest! {
    #[test]
    fn bio_mention_round_trip(tags in arb_tags(24)) {
        let mentions = tags_to_mentions(&tags);
        let rebuilt = mentions_to_tags(&mentions, tags.len());
        prop_assert_eq!(tags_to_mentions(&rebuilt), mentions);
    }

    #[test]
    fn mentions_never_overlap(tags in arb_tags(24)) {
        let mentions = tags_to_mentions(&tags);
        for pair in mentions.windows(2) {
            prop_assert!(!pair[0].overlaps(&pair[1]));
            prop_assert!(pair[0].end <= pair[1].start);
        }
    }

    #[test]
    fn tokenizer_preserves_nonwhitespace(text in "[ a-zA-Z0-9().,'-]{0,60}") {
        let joined: String = tokenize(&text).concat();
        let spacefree: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        prop_assert_eq!(joined, spacefree);
    }

    #[test]
    fn spacefree_offsets_round_trip(
        words in prop::collection::vec("[a-zA-Z0-9]{1,6}", 1..10),
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
    ) {
        let n = words.len();
        let start = ((n as f64 - 1.0) * start_frac) as usize;
        let end = (start + 1 + ((n - start - 1) as f64 * len_frac) as usize).min(n);
        let sentence = Sentence::unlabelled("p", words);
        let m = Mention::new(start, end);
        let (f, l) = sentence.mention_to_offsets(&m);
        prop_assert_eq!(sentence.offsets_to_mention(f, l), Some(m));
    }

    #[test]
    fn crf_posteriors_are_distributions(
        seed in 1u64..1000,
        len in 1usize..8,
    ) {
        let mut crf = ChainCrf::new(Order::One, 6);
        let mut state = seed;
        let params: Vec<f64> = (0..crf.num_params()).map(|_| {
            state ^= state << 13; state ^= state >> 7; state ^= state << 17;
            ((state % 400) as f64 / 100.0) - 2.0
        }).collect();
        crf.set_params(params);
        let obs = (0..len).map(|i| vec![(i % 6) as u32]).collect();
        let sent = SentenceFeatures { obs, gold: None };
        let post = crf.posteriors(&sent);
        // the same guard the pipeline's PosteriorStage runs in debug
        // builds; panics (failing the test) on any violation
        check::assert_distributions("forward-backward posteriors", &post);
        for row in post {
            prop_assert!(row.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
        }
    }

    #[test]
    fn forward_backward_survives_extreme_weights(
        seed in 1u64..300,
        len in 1usize..10,
        scale in 1.0f64..30.0,
    ) {
        // weights far outside the trained range must still produce
        // guard-clean posteriors (log-space forward-backward)
        let mut crf = ChainCrf::new(Order::One, 4);
        let mut state = seed;
        let params: Vec<f64> = (0..crf.num_params()).map(|_| {
            state ^= state << 13; state ^= state >> 7; state ^= state << 17;
            (((state % 2000) as f64 / 1000.0) - 1.0) * scale
        }).collect();
        crf.set_params(params);
        let obs = (0..len).map(|i| vec![(i % 4) as u32, ((i + 1) % 4) as u32]).collect();
        let sent = SentenceFeatures { obs, gold: None };
        check::assert_distributions(
            "forward-backward posteriors (extreme weights)",
            &crf.posteriors(&sent),
        );
    }

    #[test]
    fn raw_knn_passes_edge_weight_guard(
        specs in prop::collection::vec(
            prop::collection::vec((0u32..30, 0.01f32..10.0), 1..8),
            2..15,
        ),
        k in 1usize..5,
    ) {
        let vectors: Vec<SparseVec> = specs
            .into_iter()
            .map(|pairs| {
                let mut v = SparseVec::from_pairs(pairs);
                v.normalize();
                v
            })
            .collect();
        let g = knn_inverted_index(&vectors, k);
        // the raw graph is directed, but mutual edges must agree on
        // their cosine weight
        check::assert_edge_weights_symmetric("raw k-NN", &g);
        prop_assert_eq!(g.num_vertices(), vectors.len());
    }

    #[test]
    fn viterbi_tags_is_argmax_over_samples(
        probs in prop::collection::vec((0.01f64..1.0, 0.01f64..1.0, 0.01f64..1.0), 1..5),
    ) {
        // normalize node beliefs
        let nodes: Vec<[f64; 3]> = probs.iter().map(|&(a, b, c)| {
            let z = a + b + c;
            [a / z, b / z, c / z]
        }).collect();
        let trans = [[1.0 / 3.0; 3]; 3];
        let best = viterbi_tags(&nodes, &trans);
        let score = |tags: &[BioTag]| -> f64 {
            tags.iter().enumerate().map(|(i, t)| nodes[i][t.index()].ln()).sum()
        };
        let best_score = score(&best);
        // exhaustive check (≤ 81 paths)
        let l = nodes.len();
        for code in 0..3usize.pow(l as u32) {
            let mut c = code;
            let tags: Vec<BioTag> = (0..l).map(|_| {
                let t = BioTag::from_index(c % 3);
                c /= 3;
                t
            }).collect();
            prop_assert!(score(&tags) <= best_score + 1e-9);
        }
    }

    #[test]
    fn cosine_bounded_for_nonnegative_vectors(
        a in prop::collection::vec((0u32..50, 0.01f32..10.0), 1..12),
        b in prop::collection::vec((0u32..50, 0.01f32..10.0), 1..12),
    ) {
        let va = SparseVec::from_pairs(a);
        let vb = SparseVec::from_pairs(b);
        let c = va.cosine(&vb);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&c), "cosine {c}");
        prop_assert!((va.cosine(&va) - 1.0).abs() < 1e-5);
    }
}

/// A randomly-shaped span tree: each node is one span guard whose
/// children open and close strictly inside it.
#[derive(Clone, Debug)]
struct SpanTree(Vec<SpanTree>);

/// Decode a walk into a tree: each op either descends into a fresh
/// child (non-zero) or climbs back up one level (zero). Any op vector
/// maps to a valid tree, so the strategy space needs no filtering.
fn span_tree_from_walk(ops: &[usize]) -> SpanTree {
    fn insert(node: &mut SpanTree, path: &[usize]) -> usize {
        match path.split_first() {
            None => {
                node.0.push(SpanTree(Vec::new()));
                node.0.len() - 1
            }
            Some((&head, rest)) => insert(&mut node.0[head], rest),
        }
    }
    let mut root = SpanTree(Vec::new());
    let mut path: Vec<usize> = Vec::new();
    for &op in ops {
        if op == 0 {
            path.pop();
        } else {
            let idx = insert(&mut root, &path);
            if path.len() < 6 {
                path.push(idx);
            }
        }
    }
    root
}

/// Open one span per tree node, recursively. Span names come from the
/// closed [`SpanName`] vocabulary, so nodes draw from a fixed pool of
/// it keyed by depth and sibling index.
fn run_span_tree(tree: &SpanTree, depth: usize, sibling: usize) {
    const NAMES: [SpanName; 5] = [
        SpanName::TestPosteriors,
        SpanName::TestGraph,
        SpanName::TestAverage,
        SpanName::TestPropagate,
        SpanName::TestDecode,
    ];
    let _guard = graphner::obs::span(NAMES[(depth + sibling) % NAMES.len()]);
    for (i, child) in tree.0.iter().enumerate() {
        run_span_tree(child, depth + 1, i);
    }
}

proptest! {
    /// The trace export of any span tree is a balanced, properly
    /// nested event stream under both clocks: every `End` closes the
    /// most recent open `Begin` of the same name, nothing stays open,
    /// and the logical clock gives every event a distinct timestamp
    /// that agrees with the global sequence order.
    #[test]
    fn trace_events_nest_properly_over_random_span_trees(
        ops in prop::collection::vec(0usize..4, 1..48),
    ) {
        use graphner::obs::{trace_events, with_capture, TraceClock, TracePhase};
        let tree = span_tree_from_walk(&ops);
        let ((), spans) = with_capture(|| run_span_tree(&tree, 0, 0));
        prop_assert!(!spans.is_empty());
        for clock in [TraceClock::Wall, TraceClock::Logical] {
            let events = trace_events(&spans, clock);
            prop_assert_eq!(events.len(), spans.len() * 2);
            let mut open: Vec<&str> = Vec::new();
            for e in &events {
                match e.phase {
                    TracePhase::Begin => open.push(e.name),
                    TracePhase::End => prop_assert_eq!(open.pop(), Some(e.name)),
                }
            }
            prop_assert!(open.is_empty(), "unclosed spans: {:?}", open);
            // events come out in global sequence order…
            prop_assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
            if clock == TraceClock::Logical {
                // …and the logical clock is that order, rebased to zero
                prop_assert_eq!(events[0].ts, 0);
                prop_assert!(events.windows(2).all(|w| w[0].ts < w[1].ts));
            }
        }
    }
}

/// Check one `read_request` outcome on untrusted bytes: it must not
/// panic, and an accepted request stays within the head and body caps.
fn read_request_stays_bounded(bytes: &[u8]) {
    use graphner::serve::http::{read_request, MAX_BODY_BYTES, MAX_HEADERS};
    if let Ok(request) = read_request(&mut std::io::Cursor::new(bytes)) {
        assert!(request.headers.len() <= MAX_HEADERS, "{} headers", request.headers.len());
        assert!(request.body.len() <= MAX_BODY_BYTES, "{}-byte body", request.body.len());
    }
}

proptest! {
    /// Arbitrary bytes: mostly rejected, never a panic.
    #[test]
    fn read_request_survives_arbitrary_bytes(
        bytes in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..256),
    ) {
        read_request_stays_bounded(&bytes);
    }

    /// A valid request line, then arbitrary header lines (sometimes
    /// more than `MAX_HEADERS`, now and then one without a colon), a
    /// `content-length` that is absent, exact, arbitrary or garbage,
    /// and an arbitrary tail.
    #[test]
    fn read_request_survives_hostile_heads(
        start in (0usize..3, 0usize..2),
        lines in prop::collection::vec(("[a-zA-Z-]{0,12}", "[ -~]{0,16}"), 0..72),
        missing_colon in 0usize..256,
        length in (0usize..4, 0usize..2_000_000),
        tail in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..64),
    ) {
        let eol = ["\r\n", "\n"][start.1];
        let mut head = ["GET / HTTP/1.1", "POST /v1/tag HTTP/1.1", "post /healthz HTTP/1.0"]
            [start.0]
            .to_string();
        for (i, (name, value)) in lines.iter().enumerate() {
            head += eol;
            head += name;
            if i != missing_colon {
                head += ":";
            }
            head += value;
        }
        match length.0 {
            0 => {}
            1 => head += &format!("{eol}content-length: {}", tail.len()),
            2 => head += &format!("{eol}Content-Length: {}", length.1),
            _ => head += &format!("{eol}content-length: -{}x", length.1),
        }
        head += eol;
        head += eol;
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(&tail);
        read_request_stays_bounded(&bytes);
    }
}
