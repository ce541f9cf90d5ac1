//! Save/load round trips for trained GraphNER models.
//!
//! ```text
//! modelio train     --path model.gner [--scale 0.02]   train + save
//! modelio predict   --path model.gner [--scale 0.02]   load + test + score
//! modelio roundtrip [--path model.gner] [--scale 0.02] save→load→compare
//! ```
//!
//! Corpora are regenerated from the seeded BC2GM profile, so `train`
//! and a later `predict` see the same train/test split and `roundtrip`
//! can require byte-identical predictions from the loaded model. The
//! process exits non-zero if the round trip diverges — CI runs this as
//! the persistence smoke test.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "command-line tool: bad arguments stop the run with a message, and output is its job"
)]

use graphner_banner::NerConfig;
use graphner_bench::eval_predictions;
use graphner_core::{load_model, save_model, GraphNer, GraphNerConfig};
use graphner_corpusgen::{generate, CorpusProfile, GeneratedCorpus};
use graphner_crf::{Order, TrainConfig};

struct Args {
    command: String,
    path: String,
    scale: f64,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let command = argv.get(1).cloned().unwrap_or_default();
    if !matches!(command.as_str(), "train" | "predict" | "roundtrip") {
        eprintln!("usage: modelio <train|predict|roundtrip> [--path <file>] [--scale <f>]");
        std::process::exit(2);
    }
    let mut args = Args { command, path: "graphner-model.gner".to_string(), scale: 0.02 };
    let mut i = 2;
    while i < argv.len() {
        match argv[i].as_str() {
            "--path" => {
                i += 1;
                args.path = argv.get(i).expect("--path needs a file").clone();
            }
            "--scale" => {
                i += 1;
                args.scale = argv[i].parse().expect("--scale needs a number");
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

fn corpus_at(scale: f64) -> GeneratedCorpus {
    generate(&CorpusProfile::bc2gm().scaled(scale))
}

fn quick_cfg() -> NerConfig {
    NerConfig {
        order: Order::One,
        train: TrainConfig { max_iterations: 100, ..Default::default() },
        min_feature_count: 1,
    }
}

fn train(scale: f64) -> (GraphNer, GeneratedCorpus) {
    let corpus = corpus_at(scale);
    let (gner, _) = GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
    (gner, corpus)
}

fn score(gner: &GraphNer, corpus: &GeneratedCorpus) -> Vec<Vec<graphner_text::BioTag>> {
    let out = gner.test(&corpus.test.without_tags());
    let (eval, _) = eval_predictions(&corpus.test, &corpus.test_gold, &out.predictions);
    println!(
        "graphner F = {:.2}% (P {:.2}%, R {:.2}%) on {} test sentences",
        eval.f_score() * 100.0,
        eval.precision() * 100.0,
        eval.recall() * 100.0,
        corpus.test.len()
    );
    out.predictions
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "train" => {
            let (gner, corpus) = train(args.scale);
            score(&gner, &corpus);
            save_model(&gner, &args.path).expect("save model");
            let bytes = std::fs::metadata(&args.path).map(|m| m.len()).unwrap_or(0);
            println!("saved model to {} ({bytes} bytes)", args.path);
        }
        "predict" => {
            let gner = match load_model(&args.path) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("failed to load {}: {e}", args.path);
                    std::process::exit(1);
                }
            };
            println!(
                "loaded model from {} ({} labelled vertices)",
                args.path,
                gner.num_labelled_vertices()
            );
            let corpus = corpus_at(args.scale);
            score(&gner, &corpus);
        }
        "roundtrip" => {
            let (gner, corpus) = train(args.scale);
            let before = score(&gner, &corpus);
            save_model(&gner, &args.path).expect("save model");
            let loaded = load_model(&args.path).expect("load model");
            let after = score(&loaded, &corpus);
            let _ = std::fs::remove_file(&args.path);
            if before == after {
                println!("round trip OK: predictions identical");
            } else {
                eprintln!("round trip FAILED: loaded model predictions diverge");
                std::process::exit(1);
            }
        }
        _ => unreachable!(),
    }
}
