//! The metric vocabulary (names, units, better-directions — the same
//! lists `BENCHMARK.json` declares) and the result printer.

use std::collections::BTreeMap;

/// One declared metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of the untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("op_median_ms", "ms", "lower"),
    m("rate_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
    m("ok_ratio", "fraction", "higher"),
    m("f1", "fraction", "higher"),
];

/// Metrics of the traced run (`--trace 1`). Every workload prints every
/// row; a row whose layer the workload never enters reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("crf.train_ms", "ms", "lower"),
    m("crf.lbfgs_iterations", "count", "lower"),
    m("core.posteriors_ms", "ms", "lower"),
    m("graph.pmi_ms", "ms", "lower"),
    m("graph.knn_ms", "ms", "lower"),
    m("graph.knn_candidate_pairs", "count", "lower"),
    m("graph.vertices", "count", "lower"),
    m("graph.edges", "count", "lower"),
    m("core.average_ms", "ms", "lower"),
    m("graph.partition_ms", "ms", "lower"),
    m("graph.propagate_ms", "ms", "lower"),
    m("graph.sweep_ms", "ms", "lower"),
    m("graph.shards", "count", "lower"),
    m("graph.boundary_edges", "count", "lower"),
    m("graph.shards_skipped", "count", "higher"),
    m("graph.bytes_moved_computed", "bytes", "lower"),
    m("core.decode_ms", "ms", "lower"),
    m("core.stats_ms", "ms", "lower"),
    m("core.unattributed_ms", "ms", "lower"),
    m("pool.worker_chunk_share", "fraction", "higher"),
    m("proc.minor_faults", "count", "lower"),
    m("proc.first_op_ms", "ms", "lower"),
    m("proc.cpu_ms", "ms", "lower"),
    m("proc.trace_overhead_ms", "ms", "lower"),
    m("serve.server_ms", "ms", "lower"),
    m("serve.transport_ms", "ms", "lower"),
    m("serve.parse_ms", "ms", "lower"),
    m("serve.tag_ms", "ms", "lower"),
    m("serve.tag_direct_ms", "ms", "lower"),
    m("serve.render_ms", "ms", "lower"),
    m("serve.wait_ms", "ms", "lower"),
    m("serve.batch_requests_mean", "count", "lower"),
    m("serve.fallback_ratio", "fraction", "lower"),
    m("serve.rejected", "count", "lower"),
    m("serve.expired", "count", "lower"),
    m("serve.latency_p99_ms", "ms", "lower"),
    m("serve.latency_samples", "count", "higher"),
    m("gen.late_p99_ms", "ms", "lower"),
    m("gen.fell_behind", "count", "lower"),
];

/// The outcome of one workload run.
pub struct Report {
    /// Whether every output check passed.
    correct: bool,
    /// Ops attempted (each op is checked).
    attempted: u64,
    /// Ops whose output check failed.
    failed: u64,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Count one checked op.
    pub fn check(&mut self, passed: bool) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            self.correct = false;
        }
    }

    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record 0 for every per-layer row under one of `prefixes` not
    /// already recorded: the layers this workload never enters.
    pub fn zero_rows(&mut self, prefixes: &[&str]) {
        for def in PER_LAYER {
            if prefixes.iter().any(|p| def.name.starts_with(p)) {
                self.values.entry(def.name).or_insert(0.0);
            }
        }
    }

    /// Attach a `#` line to the printed result (noise controls, flags).
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// Print the notes, one `#` line per metric with its unit and
    /// better-direction, and last the one-line JSON result. Every
    /// declared metric of the set must have been recorded: a missing
    /// or non-finite value is a bug in the workload, not a result.
    pub fn print(&self, defs: &[MetricDef]) {
        for note in &self.notes {
            println!("# {note}");
        }
        let mut json = Vec::with_capacity(defs.len());
        for def in defs {
            let value = *self
                .values
                .get(def.name)
                .unwrap_or_else(|| panic!("workload did not record metric {}", def.name));
            assert!(value.is_finite(), "metric {} is not finite: {value}", def.name);
            println!("# {:<28} {value:>16} {:<8} ({} is better)", def.name, def.unit, def.better);
            json.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
        assert!(self.attempted > 0, "every workload checks at least one op");
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            json.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.better == "lower" || def.better == "higher");
        }
    }

    /// `BENCHMARK.json` declares exactly the metrics this file prints.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = json.matches("\"better\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                def.name, def.unit, def.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn ok_ratio_counts_failures_against_attempts() {
        let mut r = Report::new();
        r.check(true);
        r.check(true);
        r.check(false);
        r.check(true);
        assert_eq!(r.ok_ratio(), 0.75);
        assert!(!r.correct);
        assert_eq!(Report::new().ok_ratio(), 0.0);
    }
}
