//! `transductive`: Algorithm 1 end to end, closed loop, one op at a
//! time. One op is `GraphNer::train` then `GraphNer::test` on the
//! BC2GM profile at scale 0.1 (1,500 train and 500 test sentences).
//!
//! The traced run interleaves untraced ops with traced ones, which call
//! the pipeline's stages one at a time through their public entry
//! points and time each call; the traced predictions and exact
//! counters must equal the untraced ones.

use crate::procfs::ProcSample;
use crate::propagate_large::bytes_per_sweep;
use crate::report::Report;
use crate::stats::{derive_seed, hash_predictions, median};
use crate::{Args, Workload};
use graphner_banner::NerConfig;
use graphner_bench::{eval_predictions, RunOptions};
use graphner_core::pipeline::{
    AverageStage, DecodeStage, GraphStage, PosteriorStage, PropagateStage,
};
use graphner_core::{GraphNer, GraphNerConfig, GraphStats};
use graphner_corpusgen::{generate, CorpusProfile, GeneratedCorpus};
use graphner_crf::viterbi_tags;
use graphner_graph::{LabelDist, Partition, ShardSize};
use graphner_obs::{counter, Stopwatch};
use graphner_text::{BioTag, Corpus, TrigramInterner, NUM_TAGS};
use rayon::prelude::*;

const SCALE: f64 = 0.1;
const SMOKE_SCALE: f64 = 0.02;
/// L-BFGS iterations of every CRF training.
const CRF_ITERATIONS: usize = 60;
struct Inputs {
    profile: CorpusProfile,
    corpus: GeneratedCorpus,
    test: Corpus,
    cfg: GraphNerConfig,
    ner: NerConfig,
}

/// Generate the seeded corpus; returns the inputs and the generation
/// seconds.
fn setup(args: &Args) -> (Inputs, f64) {
    let scale = if args.smoke { SMOKE_SCALE } else { SCALE };
    let profile =
        CorpusProfile { seed: derive_seed(args.seed, 1), ..CorpusProfile::bc2gm().scaled(scale) };
    let (corpus, seconds) = timed_generate(&profile);
    let inputs = Inputs {
        profile,
        test: corpus.test.without_tags(),
        corpus,
        cfg: GraphNerConfig::table_iv("BC2GM", false),
        ner: ner_config(scale),
    };
    (inputs, seconds)
}

fn timed_generate(profile: &CorpusProfile) -> (GeneratedCorpus, f64) {
    let clock = Stopwatch::start();
    let corpus = generate(profile);
    (corpus, clock.elapsed_seconds())
}

/// The harness's CRF settings at `scale`, with a fixed L-BFGS budget:
/// the convergence tolerances are off, so every seed trains for exactly
/// [`CRF_ITERATIONS`] iterations (fewer than any seed needs to
/// converge) and the work per op does not depend on how quickly one
/// seed's corpus converges.
pub fn ner_config(scale: f64) -> NerConfig {
    let mut ner = RunOptions { scale, ..RunOptions::default() }.ner_config();
    ner.train.max_iterations = CRF_ITERATIONS;
    ner.train.grad_tol = 0.0;
    ner.train.f_tol = 0.0;
    ner
}

/// Values one op must repeat exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Exact {
    predictions_hash: u64,
    lbfgs_iterations: u64,
    knn_candidate_pairs: u64,
    vertices: usize,
    edges: usize,
}

/// Counters the program already keeps, read before and after an op.
struct CounterMark {
    lbfgs: u64,
    candidate_pairs: u64,
}

impl CounterMark {
    fn now() -> CounterMark {
        CounterMark {
            lbfgs: counter("lbfgs.iterations").get(),
            candidate_pairs: counter("knn.candidate_pairs").get(),
        }
    }

    fn exact(&self, predictions: &[Vec<BioTag>], vertices: usize, edges: usize) -> Exact {
        let now = CounterMark::now();
        Exact {
            predictions_hash: hash_predictions(predictions),
            lbfgs_iterations: now.lbfgs - self.lbfgs,
            knn_candidate_pairs: now.candidate_pairs - self.candidate_pairs,
            vertices,
            edges,
        }
    }
}

/// One untimed-internals op: train, then test. Returns its wall
/// seconds, its exact values and its predictions.
fn untraced_op(inputs: &Inputs) -> (f64, Exact, Vec<Vec<BioTag>>) {
    let mark = CounterMark::now();
    let clock = Stopwatch::start();
    let (model, _) = GraphNer::train(&inputs.corpus.train, &inputs.ner, None, inputs.cfg.clone());
    let out = model.test(&inputs.test);
    let seconds = clock.elapsed_seconds();
    let exact = mark.exact(&out.predictions, out.stats.num_vertices, out.stats.num_edges);
    graphner_obs::span::drain();
    (seconds, exact, out.predictions)
}

/// Per-call milliseconds of one traced op, in pipeline order.
#[derive(Default)]
struct Rows {
    crf_train: f64,
    posteriors: f64,
    pmi: f64,
    knn: f64,
    average: f64,
    partition: f64,
    propagate: f64,
    decode: f64,
    stats: f64,
    total: f64,
}

/// What the traced op learns about its graph besides timings.
struct GraphShape {
    shards: usize,
    boundary_edges: usize,
    shards_skipped: usize,
    sweeps: usize,
}

/// The train-time 3-gram interner, rebuilt the way `GraphNer::train`
/// builds it (every train token in corpus order), so vertex ids agree
/// with the model's reference distributions.
fn train_interner(train: &Corpus) -> TrigramInterner {
    let mut interner = TrigramInterner::new();
    for sentence in &train.sentences {
        for i in 0..sentence.len() {
            interner.intern_at(sentence, i);
        }
    }
    interner
}

/// Dense `X_ref`: the gold label distribution averaged over each
/// labelled 3-gram's occurrences, `None` for 3-grams only in `D_u`.
fn x_ref_slice(train: &Corpus, interner: &TrigramInterner) -> Vec<Option<LabelDist>> {
    let mut sums = vec![([0.0; NUM_TAGS], 0.0f64); interner.len()];
    for sentence in &train.sentences {
        let tags = sentence.tags.as_ref().expect("training sentences are labelled");
        for i in 0..sentence.len() {
            let v = interner.lookup_at(sentence, i).expect("train 3-grams are interned");
            let (counts, n) = &mut sums[v as usize];
            counts[tags[i].index()] += 1.0;
            *n += 1.0;
        }
    }
    sums.into_iter().map(|(counts, n)| (n > 0.0).then(|| counts.map(|c| c / n))).collect()
}

/// One traced op: the same work as [`untraced_op`], one stage call at
/// a time, each timed from outside.
fn traced_op(inputs: &Inputs) -> (Rows, Exact, GraphShape) {
    let mark = CounterMark::now();
    let mut rows = Rows::default();
    let ms = |clock: Stopwatch| clock.elapsed_seconds() * 1e3;
    let all = Stopwatch::start();

    let (model, train_out) =
        GraphNer::train(&inputs.corpus.train, &inputs.ner, None, inputs.cfg.clone());
    rows.crf_train = train_out.crf_seconds * 1e3;

    let clock = Stopwatch::start();
    let posteriors = PosteriorStage::run(&model, &inputs.test);
    rows.posteriors = ms(clock);

    let mut interner = train_interner(&inputs.corpus.train);
    let clock = Stopwatch::start();
    let vectors = GraphStage::vectors(&model, &mut interner, &inputs.test, inputs.cfg.feature_set);
    rows.pmi = ms(clock);

    let clock = Stopwatch::start();
    let graph = GraphStage::connect(&vectors, inputs.cfg.k);
    rows.knn = ms(clock);

    let clock = Stopwatch::start();
    let mut x = AverageStage::run(&model, &inputs.test, &posteriors, &interner);
    rows.average = ms(clock);

    let x_ref = x_ref_slice(&inputs.corpus.train, &interner);
    let clock = Stopwatch::start();
    let resolved = inputs.cfg.schedule.shard_size.resolve(graph.num_vertices());
    let partition = Partition::new(&graph, ShardSize::Fixed(resolved));
    rows.partition = ms(clock);

    let clock = Stopwatch::start();
    let report = PropagateStage::run(&graph, &partition, &mut x, &x_ref, &inputs.cfg);
    rows.propagate = ms(clock);

    let clock = Stopwatch::start();
    let transitions = model.transitions();
    let predictions = DecodeStage::run(
        &inputs.test,
        posteriors.test(),
        &interner,
        &x,
        inputs.cfg.alpha,
        &transitions,
    );
    rows.decode = ms(clock);

    // the rest of `GraphNer::test`, untimed per call so it lands in
    // core.unattributed_ms: the baseline re-decode
    let base: Vec<Vec<BioTag>> =
        posteriors.test().par_iter().map(|post| viterbi_tags(post, &transitions)).collect();
    std::hint::black_box(base);

    let clock = Stopwatch::start();
    std::hint::black_box(GraphStats::compute(&graph, &x_ref, &partition));
    rows.stats = ms(clock);
    rows.total = ms(all);

    let exact = mark.exact(&predictions, graph.num_vertices(), graph.num_edges());
    let shape = GraphShape {
        shards: partition.num_shards(),
        boundary_edges: partition.boundary_edges(),
        shards_skipped: report.shards_skipped,
        sweeps: report.iterations,
    };
    graphner_obs::span::drain();
    (rows, exact, shape)
}

/// The prediction hash of one op, for the thread-invariance check.
pub fn hash_only(args: &Args) -> u64 {
    let (inputs, _) = setup(args);
    untraced_op(&inputs).1.predictions_hash
}

/// Run one op in a fresh process at `GRAPHNER_THREADS=1` and return its
/// prediction hash.
fn hash_at_one_thread(args: &Args) -> Option<u64> {
    let child = Args { hash_only: true, trace: false, ..args.clone() };
    let out = child.command(1).stderr(std::process::Stdio::inherit()).output().ok()?;
    let stdout = String::from_utf8(out.stdout).ok()?;
    let hex = stdout.lines().last()?.strip_prefix("hash=")?;
    u64::from_str_radix(hex, 16).ok()
}

pub fn run(args: &Args, report: &mut Report) {
    let (inputs, first_setup) = setup(args);
    let mut setup_times = vec![first_setup];
    let sentences = inputs.corpus.train.len() + inputs.test.len();
    report.note(format!(
        "inputs: BC2GM profile scale {}, {} train + {} test sentences; closed loop, one op at a time",
        if args.smoke { SMOKE_SCALE } else { SCALE },
        inputs.corpus.train.len(),
        inputs.test.len()
    ));

    // untimed warm-up: the cold op pays first-touch page faults and
    // allocator growth that warm ops do not
    let first_faults = ProcSample::now();
    let (first_seconds, reference, predictions) = untraced_op(&inputs);
    report.note(format!(
        "warm-up op untimed: {:.1} ms, {} minor faults",
        first_seconds * 1e3,
        first_faults.since().0
    ));

    let window = Stopwatch::start();
    let mut op_seconds = Vec::new();
    let mut faults = Vec::new();
    let mut cpu = Vec::new();
    let pool_before = rayon::pool_stats();
    let mut traced: Vec<(Rows, GraphShape)> = Vec::new();
    while op_seconds.is_empty() || window.elapsed_seconds() < args.seconds {
        // set-up is repeated once per op, so setup_s samples the host
        // across the whole window rather than one instant
        setup_times.push(timed_generate(&inputs.profile).1);
        let proc = ProcSample::now();
        let (seconds, exact, _) = untraced_op(&inputs);
        let (op_faults, op_cpu) = proc.since();
        report.check(exact == reference);
        op_seconds.push(seconds);
        faults.push(op_faults);
        cpu.push(op_cpu);
        if args.trace {
            let (rows, exact, shape) = traced_op(&inputs);
            report.check(exact == reference);
            traced.push((rows, shape));
        }
    }
    let pool = rayon::pool_stats().delta(&pool_before);
    let op_median = median(&op_seconds) * 1e3;

    if !args.trace {
        // the same op at one pool thread must give the same predictions
        let one_thread = hash_at_one_thread(args);
        report.check(one_thread == Some(reference.predictions_hash));
        report.note(format!(
            "predictions hash {:016x} at GRAPHNER_THREADS={}, {} at GRAPHNER_THREADS=1",
            reference.predictions_hash,
            Workload::Transductive.threads(),
            one_thread.map_or("missing".to_string(), |h| format!("{h:016x}"))
        ));
        let (evaluation, _) =
            eval_predictions(&inputs.corpus.test, &inputs.corpus.test_gold, &predictions);
        report.set("setup_s", median(&setup_times));
        report.set("op_median_ms", op_median);
        report.set("rate_per_s", sentences as f64 / (op_median / 1e3));
        report.set("f1", evaluation.f_score());
        report.note(format!(
            "{} timed ops; exact per op: {} L-BFGS iterations, {} kNN candidate pairs, \
             {} vertices, {} edges",
            op_seconds.len(),
            reference.lbfgs_iterations,
            reference.knn_candidate_pairs,
            reference.vertices,
            reference.edges
        ));
        return;
    }

    let row = |f: fn(&Rows) -> f64| median(&traced.iter().map(|(r, _)| f(r)).collect::<Vec<_>>());
    let stage_rows: [(&'static str, f64); 9] = [
        ("crf.train_ms", row(|r| r.crf_train)),
        ("core.posteriors_ms", row(|r| r.posteriors)),
        ("graph.pmi_ms", row(|r| r.pmi)),
        ("graph.knn_ms", row(|r| r.knn)),
        ("core.average_ms", row(|r| r.average)),
        ("graph.partition_ms", row(|r| r.partition)),
        ("graph.propagate_ms", row(|r| r.propagate)),
        ("core.decode_ms", row(|r| r.decode)),
        ("core.stats_ms", row(|r| r.stats)),
    ];
    let attributed: f64 = stage_rows.iter().map(|(_, v)| v).sum();
    for (name, value) in stage_rows {
        report.set(name, value);
    }
    let shape = &traced[0].1;
    report.set("core.unattributed_ms", op_median - attributed);
    report.set("proc.trace_overhead_ms", row(|r| r.total) - op_median);
    report.set("crf.lbfgs_iterations", reference.lbfgs_iterations as f64);
    report.set("graph.knn_candidate_pairs", reference.knn_candidate_pairs as f64);
    report.set("graph.vertices", reference.vertices as f64);
    report.set("graph.edges", reference.edges as f64);
    report.set("graph.shards", shape.shards as f64);
    report.set("graph.boundary_edges", shape.boundary_edges as f64);
    report.set("graph.shards_skipped", shape.shards_skipped as f64);
    report.set("graph.sweep_ms", row(|r| r.propagate) / shape.sweeps.max(1) as f64);
    report.set(
        "graph.bytes_moved_computed",
        shape.sweeps as f64 * bytes_per_sweep(reference.vertices, reference.edges),
    );
    report.set(
        "pool.worker_chunk_share",
        pool.chunks_on_workers as f64 / pool.chunks_executed.max(1) as f64,
    );
    report.set("proc.minor_faults", median(&faults));
    report.set("proc.first_op_ms", first_seconds * 1e3);
    report.set("proc.cpu_ms", median(&cpu));
    report.zero_rows(&["serve.", "gen."]);
    report.note(format!(
        "{} untraced + {} traced ops; rows are medians of traced stage calls, \
         core.unattributed_ms = untraced op median - their sum",
        op_seconds.len(),
        traced.len()
    ));
}
