//! The experiment pipeline shared by all table/figure binaries.

use graphner_banner::{DistributionalConfig, DistributionalResources, NerConfig};
use graphner_core::{annotations_from_predictions, GraphNer, GraphNerConfig, TestOutput};
use graphner_corpusgen::GeneratedCorpus;
use graphner_crf::{Order, TrainConfig};
use graphner_embed::{BrownConfig, KMeansConfig, SgnsConfig};
use graphner_eval::{evaluate, Evaluation};
use graphner_obs::obs_summary;
use graphner_text::{AnnotationSet, BioTag, Corpus};

/// Command-line options common to every experiment binary.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Corpus scale factor relative to the paper's sizes.
    pub scale: f64,
    /// Include the (slow) LSTM-CRF neural baseline.
    pub with_neural: bool,
    /// CRF order (the paper's headline tables use order 2).
    pub order: Order,
    /// Number of generator seeds to average over.
    pub seeds: usize,
    /// Write the global metric registry as JSONL to this path on
    /// [`finish`].
    pub metrics_out: Option<String>,
    /// Write the run's span tree as Chrome-trace JSON (openable in
    /// Perfetto) to this path on [`finish`].
    pub trace_out: Option<String>,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            scale: 0.08,
            with_neural: false,
            order: Order::One,
            seeds: 3,
            metrics_out: None,
            trace_out: None,
        }
    }
}

impl RunOptions {
    /// Parse `--full`, `--scale <f>`, `--with-neural`, `--order2`,
    /// `--seeds <n>`, `--metrics-out <path>`, `--trace-out <path>`
    /// from `std::env::args`.
    pub fn from_args() -> RunOptions {
        let mut opts = RunOptions::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => opts.scale = 1.0,
                "--scale" => {
                    i += 1;
                    opts.scale = args[i].parse().expect("--scale needs a number");
                }
                "--with-neural" => opts.with_neural = true,
                "--order2" => opts.order = Order::Two,
                "--seeds" => {
                    i += 1;
                    opts.seeds = args[i].parse().expect("--seeds needs a number");
                }
                "--metrics-out" => {
                    i += 1;
                    opts.metrics_out =
                        Some(args.get(i).expect("--metrics-out needs a path").clone());
                }
                "--trace-out" => {
                    i += 1;
                    opts.trace_out = Some(args.get(i).expect("--trace-out needs a path").clone());
                }
                other => panic!("unknown argument {other}"),
            }
            i += 1;
        }
        opts
    }

    /// Base-CRF configuration at this run's quality level.
    pub fn ner_config(&self) -> NerConfig {
        NerConfig {
            order: self.order,
            train: TrainConfig {
                l2: 1.0,
                max_iterations: if self.scale >= 0.5 { 200 } else { 120 },
                ..Default::default()
            },
            min_feature_count: if self.scale >= 0.5 { 2 } else { 1 },
        }
    }

    /// Distributional-feature configuration for BANNER-ChemDNER.
    pub fn distributional_config(&self) -> DistributionalConfig {
        DistributionalConfig {
            brown: BrownConfig { num_clusters: 40, min_count: 2 },
            sgns: SgnsConfig { dim: 32, epochs: 3, min_count: 2, ..Default::default() },
            kmeans: KMeansConfig { k: 24, ..Default::default() },
        }
    }
}

/// Snapshot the worker pool's counters into the global metric registry:
/// `rayon.pool.threads` (gauge), `rayon.pool.jobs`, `rayon.pool.chunks`,
/// `rayon.pool.chunks_on_workers`, and one `rayon.pool.idle_wait.*`
/// counter per histogram bucket.
pub fn publish_pool_metrics() {
    let stats = rayon::pool_stats();
    graphner_obs::gauge("rayon.pool.threads").set(stats.threads as f64);
    graphner_obs::counter("rayon.pool.jobs").add(stats.jobs_submitted);
    graphner_obs::counter("rayon.pool.chunks").add(stats.chunks_executed);
    graphner_obs::counter("rayon.pool.chunks_on_workers").add(stats.chunks_on_workers);
    for (i, &count) in stats.idle_waits.iter().enumerate() {
        let name = match rayon::IDLE_BUCKET_EDGES_US.get(i) {
            Some(edge) => format!("rayon.pool.idle_wait.le_{edge}us"),
            None => "rayon.pool.idle_wait.inf".to_string(),
        };
        graphner_obs::counter(&name).add(count);
    }
}

/// End-of-run observability flush, called last by every experiment
/// binary: publishes the worker-pool counters, writes the accumulated
/// global metrics as JSONL when `--metrics-out <path>` was given, and
/// exports the run's span tree as Chrome-trace JSON when
/// `--trace-out <path>` was given (clock selected by
/// `GRAPHNER_TRACE_CLOCK`; open the file in Perfetto).
pub fn finish(opts: &RunOptions) {
    if let Some(path) = &opts.metrics_out {
        publish_pool_metrics();
        let jsonl = graphner_obs::Registry::global().export_jsonl();
        std::fs::write(path, jsonl).expect("write --metrics-out file");
        obs_summary!("metrics written to {path}");
    }
    if let Some(path) = &opts.trace_out {
        let spans = graphner_obs::span::drain();
        let clock = graphner_obs::TraceClock::from_env();
        let json = graphner_obs::chrome_trace_json(&spans, clock);
        std::fs::write(path, json).expect("write --trace-out file");
        obs_summary!("trace ({} spans) written to {path}", spans.len());
    }
}

/// One evaluated system.
#[derive(Clone, Debug)]
pub struct SystemResult {
    /// Row label as it appears in the paper's tables.
    pub name: String,
    /// BC2-style evaluation against the corpus gold.
    pub eval: Evaluation,
    /// The system's detections (for sigf pairing and UpSet analysis).
    pub detections: AnnotationSet,
}

/// Everything a corpus-level experiment produces.
pub struct CorpusRun {
    /// The generated corpus.
    pub corpus: GeneratedCorpus,
    /// Evaluated systems, in table order.
    pub systems: Vec<SystemResult>,
    /// The GraphNER test outputs keyed parallel to `graphner_names`.
    pub graphner_outputs: Vec<TestOutput>,
    /// Names of the GraphNER variants in `graphner_outputs`.
    pub graphner_names: Vec<String>,
}

/// Evaluate predicted tags for `test` against its gold annotation set.
pub fn eval_predictions(
    test: &Corpus,
    gold: &AnnotationSet,
    predictions: &[Vec<BioTag>],
) -> (Evaluation, AnnotationSet) {
    let detections = annotations_from_predictions(test, predictions);
    (evaluate(&detections, gold), detections)
}

/// Train BANNER and BANNER-ChemDNER (plus GraphNER over each) on a
/// generated corpus and evaluate all four systems on its test set.
pub fn run_corpus_comparison(corpus: &GeneratedCorpus, opts: &RunOptions) -> CorpusRun {
    let test_unlabelled = corpus.test.without_tags();
    let gold = &corpus.test_gold;
    let mut systems = Vec::new();
    let mut graphner_outputs = Vec::new();
    let mut graphner_names = Vec::new();

    // unlabelled pool for distributional features: the corpus text plus
    // twice as much freshly generated unlabelled text ("abundant
    // unlabelled data", as BANNER-ChemDNER uses)
    let mut unlabelled = corpus.train.without_tags();
    unlabelled.sentences.extend(test_unlabelled.sentences.iter().cloned());
    let extra = graphner_corpusgen::generate_unlabelled(
        &corpus.profile,
        corpus.train.len() * 2,
        corpus.profile.seed ^ 0x0F0F,
    );
    unlabelled.sentences.extend(extra.sentences);

    for chemdner in [false, true] {
        let dist = if chemdner {
            Some(DistributionalResources::train(&unlabelled, &opts.distributional_config()))
        } else {
            None
        };
        let base_name = if chemdner { "BANNER-ChemDNER".to_string() } else { "BANNER".to_string() };
        let gcfg = GraphNerConfig::table_iv(&corpus.profile.name, chemdner);
        let (gner, _train_out) = GraphNer::train(&corpus.train, &opts.ner_config(), dist, gcfg);
        let out = gner.test(&test_unlabelled);

        let (base_eval, base_det) = eval_predictions(&corpus.test, gold, &out.base_predictions);
        systems.push(SystemResult {
            name: base_name.clone(),
            eval: base_eval,
            detections: base_det,
        });

        let (g_eval, g_det) = eval_predictions(&corpus.test, gold, &out.predictions);
        let g_name = format!("GraphNER (CRF={base_name})");
        systems.push(SystemResult { name: g_name.clone(), eval: g_eval, detections: g_det });
        graphner_names.push(g_name);
        graphner_outputs.push(out);
    }

    CorpusRun { corpus: clone_generated(corpus), systems, graphner_outputs, graphner_names }
}

fn clone_generated(c: &GeneratedCorpus) -> GeneratedCorpus {
    c.clone()
}

/// Train and evaluate the LSTM-CRF neural baseline (slow).
pub fn run_neural_baseline(corpus: &GeneratedCorpus, opts: &RunOptions) -> SystemResult {
    use graphner_neural::{LstmCrfConfig, TrainedLstmCrf};
    // the paper splits train 80/20 into train/dev for the neural systems
    let split = corpus.train.split(0.8, 12_000);
    let cfg = LstmCrfConfig {
        epochs: if opts.scale >= 0.5 { 12 } else { 8 },
        hidden: 48,
        word_dim: 32,
        char_dim: 12,
        char_hidden: 12,
        ..Default::default()
    };
    let model = TrainedLstmCrf::train(&split.train, &split.test, &cfg);
    // TrainedLstmCrf is a Tagger, so the predict/convert/evaluate glue
    // collapses into the shared one-call path
    let (eval, detections) =
        graphner_eval::evaluate_tagger(&model, &corpus.test, &corpus.test_gold)
            .expect("generated test sentences tag");
    SystemResult { name: "LSTM-CRF".to_string(), eval, detections }
}

/// Mean metrics of one system across seeds.
#[derive(Clone, Debug)]
pub struct MeanResult {
    /// Row label.
    pub name: String,
    /// Mean precision over seeds.
    pub precision: f64,
    /// Mean recall over seeds.
    pub recall: f64,
    /// Mean F-score over seeds.
    pub f_score: f64,
}

/// Average per-system results across several seeded corpus runs.
/// All runs must contain the same systems in the same order.
pub fn mean_over_seeds(runs: &[Vec<SystemResult>]) -> Vec<MeanResult> {
    assert!(!runs.is_empty());
    let n_sys = runs[0].len();
    let mut out = Vec::with_capacity(n_sys);
    for s in 0..n_sys {
        let name = runs[0][s].name.clone();
        let k = runs.len() as f64;
        let precision = runs.iter().map(|r| r[s].eval.precision()).sum::<f64>() / k;
        let recall = runs.iter().map(|r| r[s].eval.recall()).sum::<f64>() / k;
        let f_score = runs.iter().map(|r| r[s].eval.f_score()).sum::<f64>() / k;
        out.push(MeanResult { name, precision, recall, f_score });
    }
    out
}

/// A corpus profile with its seed varied per run.
pub fn reseeded(
    mut profile: graphner_corpusgen::CorpusProfile,
    run: usize,
) -> graphner_corpusgen::CorpusProfile {
    profile.seed = profile.seed.wrapping_add(run as u64 * 0x9E37);
    profile
}

/// Print a table header matching the paper's format.
pub fn print_header(title: &str) {
    println!("\n=== {title} ===");
    println!("{:<34} {:>12} {:>10} {:>10}", "Method", "Precision(%)", "Recall(%)", "F-Score(%)");
}

/// Print one result row.
pub fn print_row(r: &SystemResult) {
    println!(
        "{:<34} {:>12.2} {:>10.2} {:>10.2}",
        r.name,
        r.eval.precision() * 100.0,
        r.eval.recall() * 100.0,
        r.eval.f_score() * 100.0
    );
}

/// Print one seed-averaged row.
pub fn print_mean_row(r: &MeanResult) {
    println!(
        "{:<34} {:>12.2} {:>10.2} {:>10.2}",
        r.name,
        r.precision * 100.0,
        r.recall * 100.0,
        r.f_score * 100.0
    );
}

/// False-positive UpSet analysis shared by the Figure 4 / Figure 5
/// binaries: categorize each system's FPs with the generator oracle,
/// print the exclusive intersections, and run the §III-E chi-square
/// proportion test. Both base models are analyzed — the paper's figures
/// use BANNER-ChemDNER, but in the synthetic corpora that variant's
/// distributional features memorize the spurious vocabulary from the
/// unlabelled pool, so the plain-BANNER panel is where the spurious-FP
/// category is visible.
pub fn run_fp_analysis(
    corpus: &GeneratedCorpus,
    opts: &RunOptions,
    figure: &str,
    corpus_name: &str,
) {
    use graphner_eval::{
        false_positives, prop_test, render_upset, upset, Category, CategoryCounts,
    };
    use rustc_hash::FxHashSet;

    let run = run_corpus_comparison(corpus, opts);
    println!(
        "\n=== {figure}: false-positive UpSet analysis ({corpus_name} profile, scale {}) ===",
        opts.scale
    );
    let oracle = |text: &str| corpus.lexicon.is_gene_related(text);
    let mk_set = |fps: &[graphner_eval::ErrorCall], cat: Category| -> FxHashSet<String> {
        fps.iter()
            .filter(|c| c.category == cat)
            .map(|c| format!("{}:{}-{}", c.sentence_id, c.span.0, c.span.1))
            .collect()
    };

    for base_name in ["BANNER", "BANNER-ChemDNER"] {
        let graph_name = format!("GraphNER (CRF={base_name})");
        let base = run.systems.iter().find(|s| s.name == base_name).unwrap();
        let graph = run.systems.iter().find(|s| s.name == graph_name).unwrap();
        let base_fps = false_positives(&base.detections, &corpus.test_gold, oracle);
        let graph_fps = false_positives(&graph.detections, &corpus.test_gold, oracle);

        let bc = CategoryCounts::tally(&base_fps);
        let gc = CategoryCounts::tally(&graph_fps);
        println!(
            "\n--- GraphNER vs {base_name} ---\n{base_name} FPs: {} (gene-related {}, spurious {})",
            bc.total(),
            bc.gene_related,
            bc.spurious
        );
        println!(
            "GraphNER FPs: {} (gene-related {}, spurious {})",
            gc.total(),
            gc.gene_related,
            gc.spurious
        );

        let sets = vec![
            (format!("{base_name}/gene-related"), mk_set(&base_fps, Category::GeneRelated)),
            (format!("{base_name}/spurious"), mk_set(&base_fps, Category::Spurious)),
            ("GraphNER/gene-related".to_string(), mk_set(&graph_fps, Category::GeneRelated)),
            ("GraphNER/spurious".to_string(), mk_set(&graph_fps, Category::Spurious)),
        ];
        println!("Exclusive intersection regions (UpSet bars):");
        print!("{}", render_upset(&upset(&sets)));

        if bc.total() > 0 && gc.total() > 0 {
            let t = prop_test(bc.gene_related, bc.total(), gc.gene_related, gc.total());
            println!(
                "chi-square test of gene-related FP proportion: X\u{00b2} = {:.3}, p = {:.3} (p1 = {:.2}, p2 = {:.2})",
                t.statistic, t.p_value, t.p1, t.p2
            );
        } else {
            println!("too few false positives for the proportion test at this scale");
        }
    }
}
