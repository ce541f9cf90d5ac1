//! `propagate_large`: the sharded sweep engine and the worker pool on a
//! graph far larger than the pipeline's own. Setup builds the seeded
//! 150,000-vertex, out-degree-8 synthetic graph and its auto-sized
//! partition; one op is 10 Jacobi sweeps (`active_set` off) on a fresh
//! copy of the initial beliefs.
//!
//! The traced run interleaves untraced ops with traced ones that run
//! the same 10 sweeps as 10 one-sweep calls, each timed; with no
//! self-anchor a sweep reads only the previous iterate, so the traced
//! output must equal the untraced output bit for bit.

use crate::procfs::ProcSample;
use crate::report::Report;
use crate::stats::{all_distributions, derive_seed, hash_beliefs, median};
use crate::Args;
use graphner_bench::synth::{synthetic_propagation, SynthPropagation};
use graphner_graph::{
    propagate_partitioned, KnnGraph, LabelDist, Partition, PropagationParams, ShardSize,
};
use graphner_obs::{counter, Stopwatch};
use graphner_text::NUM_TAGS;

const VERTICES: usize = 150_000;
const SMOKE_VERTICES: usize = 5_000;
const OUT_DEGREE: usize = 8;
const SWEEPS: usize = 10;
/// Graph + partition builds timed for `setup_s` (median reported),
/// all before the window.
const SETUP_REPEATS: usize = 10;

/// Bytes one Jacobi sweep touches, computed from the array sizes (not
/// measured): per edge the CSR target id and weight (4 + 4) and the
/// neighbour's belief row (24); per vertex the CSR offset (4), weight
/// sum (8), `Option<LabelDist>` reference (32), initial, previous and
/// written belief rows (3 × 24).
pub fn bytes_per_sweep(vertices: usize, edges: usize) -> f64 {
    let row = std::mem::size_of::<LabelDist>();
    let per_edge = 4 + 4 + row;
    let per_vertex = 4 + 8 + std::mem::size_of::<Option<LabelDist>>() + 3 * row;
    (edges * per_edge + vertices * per_vertex) as f64
}

/// Equation (2) without self-anchor, written out plainly: the oracle
/// the engine's labelling is scored against for `f1`.
fn reference_sweeps(
    graph: &KnnGraph,
    w: &SynthPropagation,
    params: &PropagationParams,
) -> Vec<LabelDist> {
    let n = graph.num_vertices();
    let mut x = w.x0.clone();
    let mut next = vec![[0.0; NUM_TAGS]; n];
    for _ in 0..params.iterations {
        for (v, out) in next.iter_mut().enumerate() {
            let mut gamma = [params.nu / NUM_TAGS as f64; NUM_TAGS];
            let mut k = params.nu + params.mu * graph.weight_sum(v as u32);
            if let Some(r) = &w.x_ref[v] {
                k += 1.0;
                for (g, ry) in gamma.iter_mut().zip(r) {
                    *g += ry;
                }
            }
            for (nb, wt) in graph.neighbors(v as u32) {
                for (g, xy) in gamma.iter_mut().zip(&x[nb as usize]) {
                    *g += params.mu * wt as f64 * xy;
                }
            }
            *out = gamma.map(|g| g / k);
        }
        std::mem::swap(&mut x, &mut next);
    }
    x
}

fn argmax(row: &LabelDist) -> usize {
    (0..NUM_TAGS).fold(0, |best, y| if row[y] > row[best] { y } else { best })
}

/// Macro-averaged F1 of the engine's argmax labels against the
/// oracle's, over the labels the oracle assigns.
fn label_f1(engine: &[LabelDist], oracle: &[LabelDist]) -> f64 {
    let mut tp = [0usize; NUM_TAGS];
    let mut fp = [0usize; NUM_TAGS];
    let mut fn_ = [0usize; NUM_TAGS];
    for (e, o) in engine.iter().zip(oracle) {
        let (e, o) = (argmax(e), argmax(o));
        if e == o {
            tp[e] += 1;
        } else {
            fp[e] += 1;
            fn_[o] += 1;
        }
    }
    let present: Vec<usize> = (0..NUM_TAGS).filter(|&y| tp[y] + fn_[y] > 0).collect();
    let f1 = |y: usize| 2.0 * tp[y] as f64 / (2 * tp[y] + fp[y] + fn_[y]) as f64;
    present.iter().map(|&y| f1(y)).sum::<f64>() / present.len().max(1) as f64
}

/// Build the graph and its partition; returns them with the total and
/// the partition-only seconds.
fn timed_setup(n: usize, seed: u64) -> ((SynthPropagation, Partition), f64, f64) {
    let clock = Stopwatch::start();
    let w = synthetic_propagation(n, OUT_DEGREE, seed);
    let partition_clock = Stopwatch::start();
    let partition = Partition::new(&w.graph, ShardSize::Auto);
    let partition_seconds = partition_clock.elapsed_seconds();
    ((w, partition), clock.elapsed_seconds(), partition_seconds)
}

/// One untraced op: 10 sweeps in one call on a fresh copy of `x0`.
fn untraced_op(
    w: &SynthPropagation,
    partition: &Partition,
    params: &PropagationParams,
) -> (f64, Vec<LabelDist>) {
    let mut x = w.x0.clone();
    let clock = Stopwatch::start();
    propagate_partitioned(&w.graph, partition, &mut x, &w.x_ref, params, false);
    (clock.elapsed_seconds(), x)
}

/// One traced op: the same sweeps as one-sweep calls; returns each
/// sweep's seconds and the output.
fn traced_op(
    w: &SynthPropagation,
    partition: &Partition,
    params: &PropagationParams,
) -> (Vec<f64>, Vec<LabelDist>) {
    let one = PropagationParams { iterations: 1, ..*params };
    let mut x = w.x0.clone();
    let mut sweeps = Vec::with_capacity(params.iterations);
    for _ in 0..params.iterations {
        let clock = Stopwatch::start();
        propagate_partitioned(&w.graph, partition, &mut x, &w.x_ref, &one, false);
        sweeps.push(clock.elapsed_seconds());
    }
    (sweeps, x)
}

pub fn run(args: &Args, report: &mut Report) {
    let n = if args.smoke { SMOKE_VERTICES } else { VERTICES };
    let params = PropagationParams { iterations: SWEEPS, ..PropagationParams::default() };
    assert_eq!(params.self_anchor, 0.0, "one-sweep decomposition needs no self-anchor");

    let seed = derive_seed(args.seed, 3);
    let (mut setup_times, mut partition_times) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // one build alive at a time, so peak RSS is one workload's
        drop(built.take());
        let (next, setup, partition) = timed_setup(n, seed);
        setup_times.push(setup);
        partition_times.push(partition);
        built = Some(next);
    }
    let (w, partition) = built.expect("at least one setup repeat");
    let edges = w.graph.num_edges();
    report.note(format!(
        "inputs: synthetic graph, {n} vertices, out-degree {OUT_DEGREE}, {edges} edges, \
         {} shards of {} vertices; {SWEEPS} sweeps per op, active_set off",
        partition.num_shards(),
        partition.shard_vertices()
    ));

    // untimed warm-up op: its output is the reference every op repeats
    let first_faults = ProcSample::now();
    let (first_seconds, reference) = untraced_op(&w, &partition, &params);
    let reference_hash = hash_beliefs(&reference);
    report.note(format!(
        "warm-up op untimed: {:.1} ms, {} minor faults; output hash {reference_hash:016x}",
        first_seconds * 1e3,
        first_faults.since().0
    ));

    let sweeps_before = counter("propagate.sweeps").get();
    let skipped_before = counter("propagate.shards_skipped").get();
    let pool_before = rayon::pool_stats();
    let window = Stopwatch::start();
    let (mut op_seconds, mut faults, mut cpu, mut sweep_seconds, mut traced_totals) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while op_seconds.is_empty() || window.elapsed_seconds() < args.seconds {
        let proc = ProcSample::now();
        let (seconds, x) = untraced_op(&w, &partition, &params);
        let (op_faults, op_cpu) = proc.since();
        report.check(hash_beliefs(&x) == reference_hash && all_distributions(&x));
        op_seconds.push(seconds);
        faults.push(op_faults);
        cpu.push(op_cpu);
        if args.trace {
            let (sweeps, x) = traced_op(&w, &partition, &params);
            report.check(hash_beliefs(&x) == reference_hash);
            traced_totals.push(sweeps.iter().sum::<f64>());
            sweep_seconds.extend(sweeps);
        }
    }
    let pool = rayon::pool_stats().delta(&pool_before);
    let ops = op_seconds.len() + traced_totals.len();
    let sweeps_counted = counter("propagate.sweeps").get() - sweeps_before;
    let skipped = counter("propagate.shards_skipped").get() - skipped_before;
    // the program's own sweep counter agrees with the calls made,
    // traced or not
    report.check(sweeps_counted == (ops * SWEEPS) as u64);
    let op_median = median(&op_seconds) * 1e3;

    if !args.trace {
        let oracle = reference_sweeps(&w.graph, &w, &params);
        report.set("setup_s", median(&setup_times));
        report.set("op_median_ms", op_median);
        report.set("rate_per_s", (edges * SWEEPS) as f64 / (op_median / 1e3));
        report.set("f1", label_f1(&reference, &oracle));
        report.note(format!(
            "{} timed ops; f1 scores argmax labels against a plain equation-(2) oracle",
            op_seconds.len()
        ));
        return;
    }

    let sweep_median = median(&sweep_seconds) * 1e3;
    report.set("graph.vertices", n as f64);
    report.set("graph.edges", edges as f64);
    report.set("graph.partition_ms", median(&partition_times) * 1e3);
    report.set("graph.propagate_ms", median(&traced_totals) * 1e3);
    report.set("graph.sweep_ms", sweep_median);
    report.set("graph.shards", partition.num_shards() as f64);
    report.set("graph.boundary_edges", partition.boundary_edges() as f64);
    report.set("graph.shards_skipped", skipped as f64 / ops as f64);
    report.set("graph.bytes_moved_computed", SWEEPS as f64 * bytes_per_sweep(n, edges));
    report.set("core.unattributed_ms", op_median - SWEEPS as f64 * sweep_median);
    report.set("proc.trace_overhead_ms", median(&traced_totals) * 1e3 - op_median);
    report.set(
        "pool.worker_chunk_share",
        pool.chunks_on_workers as f64 / pool.chunks_executed.max(1) as f64,
    );
    report.set("proc.minor_faults", median(&faults));
    report.set("proc.first_op_ms", first_seconds * 1e3);
    report.set("proc.cpu_ms", median(&cpu));
    report.zero_rows(&[
        "crf.",
        "core.posteriors",
        "core.average",
        "core.decode",
        "core.stats",
        "graph.pmi",
        "graph.knn",
        "serve.",
        "gen.",
    ]);
    report.note(format!(
        "{} untraced + {} traced ops; graph.sweep_ms is the median one-sweep call",
        op_seconds.len(),
        traced_totals.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_matches_the_plain_oracle() {
        let w = synthetic_propagation(3_000, 4, 11);
        let partition = Partition::new(&w.graph, ShardSize::Fixed(512));
        let params = PropagationParams { iterations: 4, ..PropagationParams::default() };
        let (_, engine) = untraced_op(&w, &partition, &params);
        let oracle = reference_sweeps(&w.graph, &w, &params);
        assert_eq!(label_f1(&engine, &oracle), 1.0);
        let worst = engine
            .iter()
            .zip(&oracle)
            .flat_map(|(a, b)| a.iter().zip(b).map(|(p, q)| (p - q).abs()))
            .fold(0.0, f64::max);
        assert!(worst < 1e-12, "engine and oracle differ by {worst}");
        // one-sweep calls repeat the multi-sweep call bit for bit
        let (sweeps, traced) = traced_op(&w, &partition, &params);
        assert_eq!(sweeps.len(), 4);
        assert_eq!(hash_beliefs(&traced), hash_beliefs(&engine));
    }

    #[test]
    fn label_f1_scores_disagreement() {
        let b = [0.8, 0.1, 0.1];
        let o = [0.1, 0.1, 0.8];
        assert_eq!(label_f1(&[b, o], &[b, o]), 1.0);
        // one of two vertices mislabelled: F1 2/3 on label B, 0 on label O
        let f = label_f1(&[b, b], &[b, o]);
        assert!((f - 1.0 / 3.0).abs() < 1e-12, "{f}");
    }
}
