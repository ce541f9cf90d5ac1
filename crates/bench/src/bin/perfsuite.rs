//! perfsuite — the perf-trajectory benchmark behind `BENCH_pipeline.json`.
//!
//! Times a fixed matrix of pipeline stages on the BC2GM profile:
//!
//! * `perf.pmi_build` — PMI vertex-vector construction,
//! * `perf.knn_build` — cosine k-NN graph connection,
//! * `perf.propagate` — sharded Jacobi propagation sweeps (partition
//!   prebuilt, as the pipeline caches it),
//! * `perf.viterbi_decode` — belief interpolation + Viterbi decode,
//! * `perf.tag_batch_t1` / `perf.tag_batch_t4` — serving-path batch
//!   throughput at 1 and 4 worker threads (measured in re-exec'd
//!   subprocesses, because the pool reads `GRAPHNER_THREADS` once),
//! * `perf.propagate_sharded_t1` / `perf.propagate_sharded_t4` — the
//!   sharded sweep engine on a 150k-vertex synthetic graph
//!   ([`graphner_bench::synth`]) at 1 and 4 worker threads, also via
//!   subprocess re-exec.
//!
//! Each stage reports median-of-N wall-clock seconds, peak heap (with
//! the `obs-alloc` feature), peak RSS advance (`VmHWM`), and the pool
//! counters it moved. `--out` writes the schema-versioned report
//! (default `BENCH_pipeline.json`); `--check <baseline>` exits 1 when
//! any stage regresses more than 15% against the baseline. See
//! DESIGN.md §11.
//!
//! `--hot-report <path>` reconciles the audit's static hot-path
//! inventory against runtime allocator data: any span the report claims
//! has zero static allocation sites but whose measured `mem.net_bytes`
//! exceeds [`perf::HIDDEN_ALLOC_THRESHOLD_BYTES`] fails the run — a
//! hidden (vendored/closure) allocation the lexical rules cannot see.
//! See DESIGN.md §14.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "command-line tool: bad arguments stop the run with a message, and output is its job"
)]

use graphner_bench::perf::{self, BenchReport, StageResult, DEFAULT_TOLERANCE, SCHEMA_VERSION};
use graphner_bench::synth::synthetic_propagation;
use graphner_bench::RunOptions;
use graphner_core::pipeline::{AverageStage, DecodeStage, GraphStage, PosteriorStage};
use graphner_core::{GraphNer, GraphNerConfig, TestSession};
use graphner_corpusgen::{generate, CorpusProfile};
use graphner_graph::{propagate_partitioned, Partition, ShardSize};
use graphner_obs::{span, Stopwatch};
use graphner_text::{Corpus, TrigramInterner};

/// Vertex count of the synthetic graph behind the
/// `perf.propagate_sharded_t*` stages — big enough that shard handoff
/// and boundary traffic dominate, small enough to build in seconds.
const SYNTH_VERTICES: usize = 150_000;
/// Out-degree of the synthetic graph.
const SYNTH_K: usize = 8;
/// Jacobi sweeps per measured iteration on the synthetic graph.
const SYNTH_SWEEPS: usize = 10;
/// Seed for the synthetic workload; fixed so every subprocess times
/// the identical graph.
const SYNTH_SEED: u64 = 0x5EED_5EED;

struct Args {
    scale: f64,
    iters: usize,
    out: String,
    check: Option<String>,
    trace_out: Option<String>,
    hot_report: Option<String>,
    tag_batch_worker: bool,
    propagate_worker: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        scale: 0.02,
        iters: 3,
        out: "BENCH_pipeline.json".to_string(),
        check: None,
        trace_out: None,
        hot_report: None,
        tag_batch_worker: false,
        propagate_worker: false,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                parsed.scale = args[i].parse().expect("--scale needs a number");
            }
            "--iters" => {
                i += 1;
                parsed.iters = args[i].parse().expect("--iters needs a count");
            }
            "--out" => {
                i += 1;
                parsed.out = args.get(i).expect("--out needs a path").clone();
            }
            "--check" => {
                i += 1;
                parsed.check = Some(args.get(i).expect("--check needs a path").clone());
            }
            "--trace-out" => {
                i += 1;
                parsed.trace_out = Some(args.get(i).expect("--trace-out needs a path").clone());
            }
            "--hot-report" => {
                i += 1;
                parsed.hot_report = Some(args.get(i).expect("--hot-report needs a path").clone());
            }
            "--tag-batch-worker" => parsed.tag_batch_worker = true,
            "--propagate-worker" => parsed.propagate_worker = true,
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    parsed
}

/// One stage's raw measurements before naming.
struct Measured {
    median_seconds: f64,
    peak_alloc_bytes: u64,
    peak_rss_bytes: u64,
    pool: rayon::PoolStats,
}

/// Run `f` `iters` times: median wall-clock, max peak-heap and
/// peak-RSS advance over any iteration, pool-counter delta of the last.
fn measure(iters: usize, mut f: impl FnMut()) -> Measured {
    assert!(iters > 0);
    let mut secs = Vec::with_capacity(iters);
    let mut peak_alloc_bytes = 0u64;
    let mut peak_rss_bytes = 0u64;
    let mut pool = {
        let now = rayon::pool_stats();
        now.delta(&now) // zeroed counters, correct thread count
    };
    for _ in 0..iters {
        let live = graphner_obs::alloc::current_bytes();
        graphner_obs::alloc::reset_peak();
        perf::reset_peak_rss();
        let rss_floor = perf::peak_rss_bytes();
        let before = rayon::pool_stats();
        let sw = Stopwatch::start();
        f();
        secs.push(sw.elapsed_seconds());
        pool = rayon::pool_stats().delta(&before);
        peak_alloc_bytes =
            peak_alloc_bytes.max(graphner_obs::alloc::peak_bytes().saturating_sub(live));
        peak_rss_bytes = peak_rss_bytes.max(perf::peak_rss_bytes().saturating_sub(rss_floor));
    }
    secs.sort_by(f64::total_cmp);
    Measured { median_seconds: secs[secs.len() / 2], peak_alloc_bytes, peak_rss_bytes, pool }
}

fn stage_result(name: &str, m: &Measured) -> StageResult {
    StageResult {
        name: name.to_string(),
        median_seconds: m.median_seconds,
        peak_alloc_bytes: m.peak_alloc_bytes,
        peak_rss_bytes: m.peak_rss_bytes,
        pool_threads: m.pool.threads as u64,
        pool_jobs: m.pool.jobs_submitted,
        pool_chunks: m.pool.chunks_executed,
        pool_chunks_on_workers: m.pool.chunks_on_workers,
    }
}

/// Train the model the whole matrix runs against.
fn setup(scale: f64) -> (GraphNer, Corpus) {
    let profile = CorpusProfile::bc2gm().scaled(scale);
    let corpus = generate(&profile);
    let opts = RunOptions { scale, ..RunOptions::default() };
    let (gner, _) =
        GraphNer::train(&corpus.train, &opts.ner_config(), None, GraphNerConfig::default());
    (gner, corpus.test.without_tags())
}

/// Print the machine-readable result line a worker subprocess hands
/// back to the parent.
fn print_worker_line(m: &Measured) {
    println!(
        "perfsuite-worker median_seconds={} peak_alloc_bytes={} peak_rss_bytes={} \
         pool_threads={} pool_jobs={} pool_chunks={} pool_chunks_on_workers={}",
        m.median_seconds,
        m.peak_alloc_bytes,
        m.peak_rss_bytes,
        m.pool.threads,
        m.pool.jobs_submitted,
        m.pool.chunks_executed,
        m.pool.chunks_on_workers,
    );
}

/// Subprocess mode: time the serving batch path under this process's
/// `GRAPHNER_THREADS`, print one machine-readable line, exit.
fn run_tag_batch_worker(scale: f64, iters: usize) {
    let (gner, test) = setup(scale);
    let mut session = TestSession::new(&gner, &test);
    let tagger = session.tagger(gner.config());
    use graphner_text::Tagger as _;
    let m = measure(iters, || {
        std::hint::black_box(tagger.tag_batch(&test.sentences));
    });
    print_worker_line(&m);
}

/// Subprocess mode: time the sharded propagation engine on the fixed
/// synthetic workload under this process's `GRAPHNER_THREADS`.
fn run_propagate_worker(iters: usize) {
    let w = synthetic_propagation(SYNTH_VERTICES, SYNTH_K, SYNTH_SEED);
    let partition = Partition::new(&w.graph, ShardSize::Auto);
    let params = graphner_graph::PropagationParams {
        iterations: SYNTH_SWEEPS,
        ..graphner_graph::PropagationParams::default()
    };
    let mut x = w.x0.clone();
    let m = measure(iters, || {
        let _s = span("perf.propagate_sharded");
        x.copy_from_slice(&w.x0);
        std::hint::black_box(propagate_partitioned(
            &w.graph, &partition, &mut x, &w.x_ref, &params, false,
        ));
    });
    print_worker_line(&m);
}

/// Re-exec this binary as a worker (`flag` selects the mode) pinned to
/// `threads`, returning its measurements as the stage `name`.
fn worker_subprocess(
    flag: &str,
    name: String,
    scale: f64,
    iters: usize,
    threads: usize,
) -> StageResult {
    let exe = std::env::current_exe().expect("current_exe");
    let output = std::process::Command::new(exe)
        .args([flag, "--scale", &scale.to_string(), "--iters", &iters.to_string()])
        .env(rayon::THREADS_ENV, threads.to_string())
        .output()
        .expect("spawn worker");
    assert!(
        output.status.success(),
        "worker {flag} (threads={threads}) failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line =
        stdout.lines().find(|l| l.starts_with("perfsuite-worker ")).expect("worker result line");
    let field = |key: &str| -> f64 {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("worker line missing {key}: {line}"))
    };
    StageResult {
        name,
        median_seconds: field("median_seconds"),
        peak_alloc_bytes: field("peak_alloc_bytes") as u64,
        peak_rss_bytes: field("peak_rss_bytes") as u64,
        pool_threads: field("pool_threads") as u64,
        pool_jobs: field("pool_jobs") as u64,
        pool_chunks: field("pool_chunks") as u64,
        pool_chunks_on_workers: field("pool_chunks_on_workers") as u64,
    }
}

fn main() {
    let args = parse_args();
    if args.tag_batch_worker {
        run_tag_batch_worker(args.scale, args.iters);
        return;
    }
    if args.propagate_worker {
        run_propagate_worker(args.iters);
        return;
    }

    eprintln!(
        "perfsuite: scale {}, {} iters/stage, alloc accounting {}",
        args.scale,
        args.iters,
        if graphner_obs::alloc::enabled() { "on" } else { "off (build with --features obs-alloc)" }
    );
    let (gner, test) = setup(args.scale);
    let cfg = gner.config().clone();
    let posteriors = PosteriorStage::run(&gner, &test);

    let mut stages: Vec<StageResult> = Vec::new();

    // pmi_build: fresh interner per iteration, since interning is part
    // of the measured work; the last build feeds the later stages
    let mut interner = TrigramInterner::new();
    let mut vectors = Vec::new();
    let m = measure(args.iters, || {
        let _s = span("perf.pmi_build");
        let mut it = TrigramInterner::new();
        vectors = GraphStage::vectors(&gner, &mut it, &test, cfg.feature_set);
        interner = it;
    });
    stages.push(stage_result("perf.pmi_build", &m));

    let mut graph = GraphStage::connect(&vectors, cfg.k);
    let m = measure(args.iters, || {
        let _s = span("perf.knn_build");
        graph = GraphStage::connect(&vectors, cfg.k);
    });
    stages.push(stage_result("perf.knn_build", &m));

    // propagation inputs: averaged beliefs, with the model's labelled
    // vertex count anchoring the reference slice
    let x0 = AverageStage::run(&gner, &test, &posteriors, &interner);
    let labelled = gner.num_labelled_vertices().min(x0.len());
    let x_ref: Vec<Option<graphner_graph::LabelDist>> =
        (0..x0.len()).map(|i| (i < labelled).then(|| x0[i])).collect();
    // the pipeline caches its partition across runs, so prebuild it
    // here too and time only the sweeps
    let partition = Partition::new(&graph, cfg.schedule.shard_size);
    let mut x = x0.clone();
    let m = measure(args.iters, || {
        let _s = span("perf.propagate");
        x = x0.clone();
        propagate_partitioned(
            &graph,
            &partition,
            &mut x,
            &x_ref,
            &cfg.propagation,
            cfg.schedule.active_set,
        );
    });
    stages.push(stage_result("perf.propagate", &m));

    let transitions = gner.transitions();
    let m = measure(args.iters, || {
        let _s = span("perf.viterbi_decode");
        std::hint::black_box(DecodeStage::run(
            &test,
            posteriors.test(),
            &interner,
            &x,
            cfg.alpha,
            &transitions,
        ));
    });
    stages.push(stage_result("perf.viterbi_decode", &m));

    for threads in [1usize, 4] {
        stages.push(worker_subprocess(
            "--tag-batch-worker",
            format!("perf.tag_batch_t{threads}"),
            args.scale,
            args.iters,
            threads,
        ));
    }
    for threads in [1usize, 4] {
        stages.push(worker_subprocess(
            "--propagate-worker",
            format!("perf.propagate_sharded_t{threads}"),
            args.scale,
            args.iters,
            threads,
        ));
    }

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        scale: args.scale,
        iters: args.iters as u64,
        stages,
    };

    println!(
        "{:<24} {:>12} {:>14} {:>14} {:>8} {:>8}",
        "stage", "median (s)", "peak alloc", "peak rss", "chunks", "stolen"
    );
    for s in &report.stages {
        println!(
            "{:<24} {:>12.4} {:>14} {:>14} {:>8} {:>8}",
            s.name,
            s.median_seconds,
            s.peak_alloc_bytes,
            s.peak_rss_bytes,
            s.pool_chunks,
            s.pool_chunks_on_workers
        );
    }

    std::fs::write(&args.out, report.to_json()).expect("write report");
    eprintln!("perfsuite: report written to {}", args.out);

    // one drain serves both consumers: the trace export and the
    // static↔runtime allocation reconciliation
    let spans = if args.trace_out.is_some() || args.hot_report.is_some() {
        graphner_obs::span::drain()
    } else {
        Vec::new()
    };

    if let Some(path) = &args.trace_out {
        let json = graphner_obs::chrome_trace_json(&spans, graphner_obs::TraceClock::from_env());
        std::fs::write(path, json).expect("write --trace-out file");
        eprintln!("perfsuite: trace ({} spans) written to {path}", spans.len());
    }

    if let Some(path) = &args.hot_report {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perfsuite: cannot read hot report {path}: {e}");
            std::process::exit(2);
        });
        let statics = perf::parse_hot_report(&text).unwrap_or_else(|e| {
            eprintln!("perfsuite: hot report {path} unreadable: {e}");
            std::process::exit(2);
        });
        let hidden =
            perf::reconcile_hot_spans(&statics, &spans, perf::HIDDEN_ALLOC_THRESHOLD_BYTES);
        if hidden.is_empty() {
            eprintln!(
                "perfsuite: hot-span reconciliation OK ({} static span(s) against {} measured, \
                 threshold {} bytes)",
                statics.len(),
                spans.len(),
                perf::HIDDEN_ALLOC_THRESHOLD_BYTES
            );
        } else {
            eprintln!("perfsuite: {} hidden allocation(s):", hidden.len());
            for h in &hidden {
                eprintln!(
                    "  span {} ({}): 0 static alloc sites but {} net bytes measured — \
                     hidden allocation (vendored/closure) — annotate or hoist",
                    h.span, h.site, h.net_bytes
                );
            }
            std::process::exit(1);
        }
    }

    if let Some(path) = &args.check {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perfsuite: cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let baseline = BenchReport::parse(&text).unwrap_or_else(|e| {
            eprintln!("perfsuite: baseline {path} unreadable: {e}");
            std::process::exit(2);
        });
        let regressions = perf::compare(&baseline, &report, DEFAULT_TOLERANCE);
        if regressions.is_empty() {
            eprintln!(
                "perfsuite: no regression against {path} ({} stages within {:.0}%)",
                baseline.stages.len(),
                DEFAULT_TOLERANCE * 100.0
            );
        } else {
            eprintln!("perfsuite: {} regression(s) against {path}:", regressions.len());
            for r in &regressions {
                eprintln!(
                    "  {}: {:.4}s -> {:.4}s ({:.0}% over baseline)",
                    r.stage,
                    r.baseline_seconds,
                    r.fresh_seconds,
                    (r.ratio() - 1.0) * 100.0
                );
            }
            std::process::exit(1);
        }
    }
}
