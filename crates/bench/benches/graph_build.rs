//! Criterion bench: PMI vertex-vector construction and the full graph
//! build from a synthetic corpus — the feature-extraction half of the
//! paper's O(Nf + V²FK) graph-construction cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphner_graph::{knn_inverted_index, VertexFeatureCounts};

fn synthetic_counts(
    num_vertices: u32,
    feats_per_vertex: usize,
    num_features: u32,
    seed: u64,
) -> VertexFeatureCounts {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let occurrences = (0..num_vertices)
        .map(|_| {
            let mut features = Vec::new();
            for _ in 0..feats_per_vertex {
                let f = (next() % num_features as u64) as u32;
                features.extend(std::iter::repeat_n(f, 1 + (next() % 3) as usize));
            }
            features
        })
        .collect();
    VertexFeatureCounts::from_occurrences(occurrences)
}

fn bench_graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_build");
    group.sample_size(10);
    for &n in &[2_000u32, 10_000] {
        let counts = synthetic_counts(n, 40, n * 4, 3);
        group.bench_with_input(BenchmarkId::new("pmi_vectors", n), &n, |b, &n| {
            b.iter(|| counts.pmi_vectors(n as usize))
        });
        let vectors = counts.pmi_vectors(n as usize);
        group.bench_with_input(BenchmarkId::new("knn_from_pmi", n), &n, |b, _| {
            b.iter(|| knn_inverted_index(&vectors, 10))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_graph_build);
criterion_main!(benches);
