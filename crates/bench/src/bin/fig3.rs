//! Figure 3 — histograms of Influence(v) and |Influencees(v)| over the
//! all-features BC2GM graph.
//!
//! The reproduced shape: heavily right-skewed — most vertices have low
//! influence, a small number act as hubs.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "command-line tool: bad arguments stop the run with a message, and output is its job"
)]

use graphner_bench::{run_corpus_comparison, RunOptions};
use graphner_corpusgen::{generate, CorpusProfile};

fn bar(count: usize, max: usize, width: usize) -> String {
    let n = (count * width).checked_div(max).unwrap_or(0);
    "#".repeat(n)
}

fn main() {
    let opts = RunOptions::from_args();
    let corpus = generate(&CorpusProfile::bc2gm().scaled(opts.scale));
    let run = run_corpus_comparison(&corpus, &opts);
    // use the plain-BANNER GraphNER output's graph statistics
    let stats = &run.graphner_outputs[0].stats;

    println!(
        "\n=== Figure 3: influence histograms, all-features BC2GM graph (scale {}) ===",
        opts.scale
    );
    println!("vertices: {}   edges: {}", stats.num_vertices, stats.num_edges);

    let bins = 20;
    let h = stats.influence_histogram(bins);
    println!("\nInfluence(v):");
    let max = h.counts.iter().copied().max().unwrap_or(0);
    for (i, &c) in h.counts.iter().enumerate() {
        println!(
            "  [{:>7.2}, {:>7.2})  {:>8}  {}",
            i as f64 * h.bin_width,
            (i + 1) as f64 * h.bin_width,
            c,
            bar(c, max, 50)
        );
    }

    let h2 = stats.influencees_histogram(bins);
    println!("\n|Influencees(v)|:");
    let max2 = h2.counts.iter().copied().max().unwrap_or(0);
    for (i, &c) in h2.counts.iter().enumerate() {
        println!(
            "  [{:>7.1}, {:>7.1})  {:>8}  {}",
            i as f64 * h2.bin_width,
            (i + 1) as f64 * h2.bin_width,
            c,
            bar(c, max2, 50)
        );
    }

    // the paper's qualitative claim: most vertices have low influence
    let low = h.counts[..bins / 4].iter().sum::<usize>();
    println!(
        "\nvertices in the lowest quarter of the influence range: {:.1}%",
        100.0 * low as f64 / stats.num_vertices as f64
    );
    graphner_bench::finish(&opts);
}
