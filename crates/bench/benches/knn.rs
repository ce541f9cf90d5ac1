//! Criterion bench: cosine k-NN graph construction — the paper's
//! stated bottleneck — through the inverted-index builder.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphner_graph::{knn_inverted_index, SparseVec};

fn random_vectors(n: usize, num_features: u32, nnz: usize, seed: u64) -> Vec<SparseVec> {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let pairs: Vec<(u32, f32)> = (0..nnz)
                .map(|_| {
                    (
                        (next() % num_features as u64) as u32,
                        ((next() % 1000) as f32 / 1000.0) + 0.001,
                    )
                })
                .collect();
            let mut v = SparseVec::from_pairs(pairs);
            v.normalize();
            v
        })
        .collect()
}

fn bench_knn(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn");
    group.sample_size(10);
    for &n in &[500usize, 2_000] {
        let vectors = random_vectors(n, (n * 4) as u32, 30, 3);
        group.bench_with_input(BenchmarkId::new("inverted_index", n), &n, |b, _| {
            b.iter(|| knn_inverted_index(&vectors, 10))
        });
    }
    let vectors = random_vectors(8_000, 32_000, 30, 5);
    group.bench_with_input(BenchmarkId::new("inverted_index", 8_000), &8_000, |b, _| {
        b.iter(|| knn_inverted_index(&vectors, 10))
    });
    group.finish();
}

criterion_group!(benches, bench_knn);
criterion_main!(benches);
