//! §III-D — statistics of the all-features graphs for both corpora:
//! vertex counts, labelled / positively-labelled percentages, degrees,
//! and weak connectivity, plus the shard balance of the propagation
//! partition the pipeline ran with.
//!
//! The paper's shape: comparable vertex counts, high labelled
//! percentage (transductive setting), low positive percentage — much
//! lower for AML than BC2GM — out-degree exactly K, weakly connected.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "command-line tool: bad arguments stop the run with a message, and output is its job"
)]

use graphner_bench::{run_corpus_comparison, RunOptions};
use graphner_core::GraphStats;
use graphner_corpusgen::{generate, CorpusProfile};

/// Print the per-shard vertex/edge/boundary-edge balance of the
/// partition one corpus's propagation swept over.
fn print_shard_balance(name: &str, stats: &GraphStats) {
    println!(
        "\n--- {name}: propagation partition ({} shards of <= {} vertices, {} boundary edges) ---",
        stats.shard_balance.len(),
        stats.shard_vertices,
        stats.boundary_edges,
    );
    println!("{:<8} {:>10} {:>10} {:>10} {:>10}", "shard", "vertices", "edges", "boundary", "%cut");
    for (i, b) in stats.shard_balance.iter().enumerate() {
        let pct_cut = if b.edges == 0 { 0.0 } else { b.boundary_edges as f64 / b.edges as f64 };
        println!(
            "{:<8} {:>10} {:>10} {:>10} {:>9.1}%",
            i,
            b.vertices,
            b.edges,
            b.boundary_edges,
            pct_cut * 100.0
        );
    }
}

fn main() {
    let opts = RunOptions::from_args();
    println!("\n=== Graph statistics (section III-D, scale {}) ===", opts.scale);
    println!(
        "{:<8} {:>10} {:>10} {:>12} {:>12} {:>12} {:>14}",
        "Corpus", "vertices", "edges", "%labelled", "%positive", "components", "largest comp."
    );
    let mut all_stats: Vec<(String, GraphStats)> = Vec::new();
    for profile in [CorpusProfile::bc2gm(), CorpusProfile::aml()] {
        let corpus = generate(&profile.scaled(opts.scale));
        let run = run_corpus_comparison(&corpus, &opts);
        let stats = &run.graphner_outputs[0].stats;
        println!(
            "{:<8} {:>10} {:>10} {:>12.1} {:>12.2} {:>12} {:>14}",
            corpus.profile.name,
            stats.num_vertices,
            stats.num_edges,
            stats.pct_labelled * 100.0,
            stats.pct_positive * 100.0,
            stats.components,
            stats.largest_component
        );
        all_stats.push((corpus.profile.name.to_string(), stats.clone()));
    }
    for (name, stats) in &all_stats {
        print_shard_balance(name, stats);
    }
    graphner_bench::finish(&opts);
}
