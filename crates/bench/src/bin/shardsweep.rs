//! shardsweep — shard-size × active-set ablation for the propagation
//! engine.
//!
//! Runs the sharded Jacobi engine over one deterministic synthetic
//! workload ([`graphner_bench::synth`]) at a ladder of shard sizes,
//! with the active-set scheduler off and on, and prints one table row
//! per configuration: partition shape (shards, boundary edges),
//! median wall-clock over `--iters` runs, sweeps executed, shard
//! sweeps skipped, and the final residual. With the scheduler off
//! every row is checked byte-identical to the first, so the table
//! doubles as a determinism smoke test at whatever `GRAPHNER_THREADS`
//! the process runs under.
//!
//! ```text
//! shardsweep [--vertices N] [--k K] [--sweeps S] [--iters I]
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "command-line tool: bad arguments stop the run with a message, and output is its job"
)]

use graphner_bench::synth::{synthetic_propagation, SynthPropagation};
use graphner_graph::{
    propagate_partitioned, LabelDist, Partition, PropagationParams, PropagationReport, ShardSize,
};
use graphner_obs::Stopwatch;

struct Args {
    vertices: usize,
    k: usize,
    sweeps: usize,
    iters: usize,
}

fn parse_args() -> Args {
    let mut parsed = Args { vertices: 150_000, k: 8, sweeps: 10, iters: 3 };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--vertices" => {
                i += 1;
                parsed.vertices = args[i].parse().expect("--vertices needs a count");
            }
            "--k" => {
                i += 1;
                parsed.k = args[i].parse().expect("--k needs a count");
            }
            "--sweeps" => {
                i += 1;
                parsed.sweeps = args[i].parse().expect("--sweeps needs a count");
            }
            "--iters" => {
                i += 1;
                parsed.iters = args[i].parse().expect("--iters needs a count");
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    parsed
}

/// Median wall-clock of `iters` runs, plus the report and final
/// beliefs of the last run.
fn time_config(
    w: &SynthPropagation,
    partition: &Partition,
    params: &PropagationParams,
    active_set: bool,
    iters: usize,
) -> (f64, PropagationReport, Vec<LabelDist>) {
    let mut secs = Vec::with_capacity(iters);
    let mut x = w.x0.clone();
    let mut report = None;
    for _ in 0..iters {
        x.copy_from_slice(&w.x0);
        let sw = Stopwatch::start();
        report =
            Some(propagate_partitioned(&w.graph, partition, &mut x, &w.x_ref, params, active_set));
        secs.push(sw.elapsed_seconds());
    }
    secs.sort_by(f64::total_cmp);
    (secs[secs.len() / 2], report.expect("at least one iteration"), x)
}

fn main() {
    let args = parse_args();
    assert!(args.iters > 0, "--iters must be >= 1");
    eprintln!(
        "shardsweep: {} vertices, k={}, {} sweeps, median of {} runs, {} threads",
        args.vertices,
        args.k,
        args.sweeps,
        args.iters,
        rayon::pool_stats().threads,
    );
    let w = synthetic_propagation(args.vertices, args.k, 0x5EED_5EED);
    let params = PropagationParams { iterations: args.sweeps, ..PropagationParams::default() };

    let sizes = [
        ShardSize::Auto,
        ShardSize::Fixed(1024),
        ShardSize::Fixed(4096),
        ShardSize::Fixed(16384),
        ShardSize::Fixed(65536),
    ];

    println!(
        "{:<16} {:>7} {:>12} {:>10} {:>12} {:>10} {:>13}",
        "shard size", "shards", "boundary", "active", "median (s)", "skipped", "residual"
    );
    let mut baseline: Option<Vec<LabelDist>> = None;
    for size in sizes {
        let partition = Partition::new(&w.graph, size);
        for active_set in [false, true] {
            let (median, report, x) = time_config(&w, &partition, &params, active_set, args.iters);
            let label = match size {
                ShardSize::Auto => format!("auto ({})", partition.shard_vertices()),
                ShardSize::Fixed(s) => s.to_string(),
            };
            println!(
                "{:<16} {:>7} {:>12} {:>10} {:>12.4} {:>10} {:>13.3e}",
                label,
                partition.num_shards(),
                partition.boundary_edges(),
                if active_set { "on" } else { "off" },
                median,
                report.shards_skipped,
                report.final_residual,
            );
            if !active_set {
                // every scheduler-off run must be byte-identical,
                // whatever the shard size or thread count
                match &baseline {
                    None => baseline = Some(x),
                    Some(b) => assert!(
                        b.iter()
                            .zip(&x)
                            .all(|(a, c)| a.iter().zip(c).all(|(p, q)| p.to_bits() == q.to_bits())),
                        "shard size {label} diverged from the baseline beliefs"
                    ),
                }
            }
        }
    }
    eprintln!("shardsweep: all scheduler-off configurations byte-identical");
}
