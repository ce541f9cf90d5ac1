//! Criterion bench: graph propagation (equation 2) as a function of
//! vertex count, degree, and iteration count — the O(V·K·#iterations)
//! cost the paper's complexity analysis predicts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphner_graph::{
    propagate_partitioned, KnnGraph, LabelDist, Partition, PropagationParams, ShardSize,
};

fn random_graph(n: usize, k: usize, seed: u64) -> KnnGraph {
    let mut state = seed.max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let adj = (0..n)
        .map(|i| {
            (0..k)
                .map(|_| {
                    let mut nb = (next() % n as u64) as u32;
                    if nb as usize == i {
                        nb = (nb + 1) % n as u32;
                    }
                    (nb, (next() % 1000) as f32 / 1000.0)
                })
                .collect()
        })
        .collect();
    KnnGraph::from_adjacency(adj, k)
}

/// A graph with its auto-sized partition, initial beliefs and
/// references.
struct Workload {
    graph: KnnGraph,
    partition: Partition,
    x0: Vec<LabelDist>,
    x_ref: Vec<Option<LabelDist>>,
}

fn setup(n: usize, k: usize) -> Workload {
    let graph = random_graph(n, k, 7);
    let partition = Partition::new(&graph, ShardSize::Auto);
    let x0 = vec![[1.0 / 3.0; 3]; n];
    let x_ref = (0..n).map(|i| if i % 3 == 0 { Some([0.8, 0.1, 0.1]) } else { None }).collect();
    Workload { graph, partition, x0, x_ref }
}

/// `iterations` paper-setting sweeps from a fresh copy of the beliefs.
fn sweep(w: &Workload, iterations: usize) -> Vec<LabelDist> {
    let params = PropagationParams { mu: 1e-6, nu: 1e-6, iterations, self_anchor: 0.5 };
    let mut x = w.x0.clone();
    propagate_partitioned(&w.graph, &w.partition, &mut x, &w.x_ref, &params, false);
    x
}

fn bench_propagation(c: &mut Criterion) {
    let mut group = c.benchmark_group("propagation");
    for &n in &[1_000usize, 10_000, 50_000] {
        let w = setup(n, 10);
        group.bench_with_input(BenchmarkId::new("V", n), &n, |b, _| b.iter(|| sweep(&w, 3)));
    }
    let w = setup(10_000, 10);
    for &iters in &[1usize, 3, 10] {
        group.bench_with_input(BenchmarkId::new("iterations", iters), &iters, |b, &it| {
            b.iter(|| sweep(&w, it))
        });
    }
    for &k in &[5usize, 10, 20] {
        let w = setup(10_000, k);
        group.bench_with_input(BenchmarkId::new("K", k), &k, |b, _| b.iter(|| sweep(&w, 3)));
    }
    group.finish();
}

criterion_group!(benches, bench_propagation);
criterion_main!(benches);
