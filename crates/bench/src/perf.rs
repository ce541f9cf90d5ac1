//! The perf-trajectory report behind `BENCH_pipeline.json`.
//!
//! The `perfsuite` binary times `GraphNer::test`, folds the stage spans
//! it records into rows ([`span_stages`]), adds the subprocess rows, and
//! serializes a [`BenchReport`] — schema-versioned so a reader can
//! refuse files it does not understand — to the repo root. CI re-runs
//! the suite and [`compare`]s the fresh numbers against the committed
//! baseline: any stage more than [`DEFAULT_TOLERANCE`] slower (plus a
//! small absolute slack absorbing scheduler noise on near-instant
//! stages) fails the job. See DESIGN.md §11 for the methodology.
//!
//! The crate parses its own report files with the hand-rolled reader in
//! this module (the workspace builds offline, without serde); the
//! writer emits a strict subset of JSON so any external tool can read
//! the trajectory too.

use graphner_obs::{AttrValue, SpanRecord};
use std::fmt::Write as _;

/// Version stamp of the report layout. Bump on any field change;
/// [`BenchReport::parse`] rejects other versions so a stale baseline
/// fails loudly instead of comparing garbage.
pub const SCHEMA_VERSION: u64 = 1;

/// Wall-clock slowdown fraction that counts as a regression.
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// Absolute slack added to every threshold: stages that finish in tens
/// of milliseconds jitter far more than 15% from scheduling noise alone
/// (observed ±30% on a loaded single-core runner), so the fractional
/// gate only engages once the absolute drift is also non-trivial —
/// in practice, for stages of roughly 150ms and up. Sub-slack stages
/// are still gated against multiplicative blowups.
pub const ABSOLUTE_SLACK_SECONDS: f64 = 0.025;

/// One timed stage of the matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct StageResult {
    /// Stage name (`area.verb`, e.g. `test.graph` or `perf.test`).
    pub name: String,
    /// Median wall-clock seconds over the suite's iterations.
    pub median_seconds: f64,
    /// Largest heap high-water advance of any iteration, from the
    /// counting allocator (0 when built without `obs-alloc`).
    pub peak_alloc_bytes: u64,
    /// Largest `VmHWM` advance of any iteration (0 off Linux).
    pub peak_rss_bytes: u64,
    /// Worker threads available to the stage.
    pub pool_threads: u64,
    /// Pool jobs submitted during the last iteration.
    pub pool_jobs: u64,
    /// Pool chunks executed during the last iteration.
    pub pool_chunks: u64,
    /// Chunks that ran on workers (vs the submitting thread).
    pub pool_chunks_on_workers: u64,
}

/// The whole trajectory file.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// [`SCHEMA_VERSION`] at write time.
    pub schema_version: u64,
    /// Corpus scale the suite ran at.
    pub scale: f64,
    /// Iterations per stage (medians are over this many runs).
    pub iters: u64,
    /// The stage rows, in execution order.
    pub stages: Vec<StageResult>,
}

/// One stage that got slower than the gate allows.
#[derive(Clone, Debug)]
pub struct Regression {
    /// Stage name.
    pub stage: String,
    /// Baseline median seconds.
    pub baseline_seconds: f64,
    /// Fresh median seconds (`f64::INFINITY` when the stage vanished
    /// from the fresh report).
    pub fresh_seconds: f64,
}

impl Regression {
    /// Fresh-over-baseline slowdown factor.
    pub fn ratio(&self) -> f64 {
        self.fresh_seconds / self.baseline_seconds
    }
}

/// Compare `fresh` against `baseline`: every baseline stage must still
/// exist and run within `baseline * (1 + tolerance) + slack`. Stages
/// new in `fresh` pass silently (they have no baseline yet — committing
/// the fresh report adopts them).
pub fn compare(baseline: &BenchReport, fresh: &BenchReport, tolerance: f64) -> Vec<Regression> {
    let mut regressions = Vec::new();
    for base_stage in &baseline.stages {
        let threshold = base_stage.median_seconds * (1.0 + tolerance) + ABSOLUTE_SLACK_SECONDS;
        match fresh.stages.iter().find(|s| s.name == base_stage.name) {
            Some(fresh_stage) if fresh_stage.median_seconds <= threshold => {}
            Some(fresh_stage) => regressions.push(Regression {
                stage: base_stage.name.clone(),
                baseline_seconds: base_stage.median_seconds,
                fresh_seconds: fresh_stage.median_seconds,
            }),
            None => regressions.push(Regression {
                stage: base_stage.name.clone(),
                baseline_seconds: base_stage.median_seconds,
                fresh_seconds: f64::INFINITY,
            }),
        }
    }
    regressions
}

impl BenchReport {
    /// Serialize as pretty-printed JSON (the committed baseline is
    /// diff-reviewed, so one stage per line matters).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(out, "  \"scale\": {},", self.scale);
        let _ = writeln!(out, "  \"iters\": {},", self.iters);
        let _ = writeln!(out, "  \"stages\": [");
        for (i, s) in self.stages.iter().enumerate() {
            let comma = if i + 1 < self.stages.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"median_seconds\": {}, \
                 \"peak_alloc_bytes\": {}, \"peak_rss_bytes\": {}, \
                 \"pool_threads\": {}, \"pool_jobs\": {}, \"pool_chunks\": {}, \
                 \"pool_chunks_on_workers\": {}}}{comma}",
                s.name,
                s.median_seconds,
                s.peak_alloc_bytes,
                s.peak_rss_bytes,
                s.pool_threads,
                s.pool_jobs,
                s.pool_chunks,
                s.pool_chunks_on_workers,
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parse a report written by [`BenchReport::to_json`] (or any JSON
    /// with the same fields). Rejects other schema versions.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let value = json::parse(text)?;
        let schema_version = value.get_u64("schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {schema_version} unsupported (this build reads {SCHEMA_VERSION}); \
                 regenerate the baseline with perfsuite"
            ));
        }
        let stages = value
            .get("stages")?
            .as_array()?
            .iter()
            .map(|s| {
                Ok(StageResult {
                    name: s.get("name")?.as_str()?.to_string(),
                    median_seconds: s.get_f64("median_seconds")?,
                    peak_alloc_bytes: s.get_u64("peak_alloc_bytes")?,
                    peak_rss_bytes: s.get_u64("peak_rss_bytes")?,
                    pool_threads: s.get_u64("pool_threads")?,
                    pool_jobs: s.get_u64("pool_jobs")?,
                    pool_chunks: s.get_u64("pool_chunks")?,
                    pool_chunks_on_workers: s.get_u64("pool_chunks_on_workers")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchReport {
            schema_version,
            scale: value.get_f64("scale")?,
            iters: value.get_u64("iters")?,
            stages,
        })
    }
}

/// Name of the row holding the measured call's wall time outside every
/// top-level span.
pub const UNATTRIBUTED_STAGE: &str = "perf.unattributed";

/// Upper median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len() / 2).copied().unwrap_or(0.0)
}

/// Fold the spans one measured call recorded on each iteration into
/// stage rows: one row per span name, in order of first entry, then
/// [`UNATTRIBUTED_STAGE`].
///
/// `captures[i]` holds the spans iteration `i` completed on the
/// measuring thread, opened outside any span, and `totals[i]` its wall
/// seconds. A name's row holds the median over iterations of its summed
/// seconds in each (a stage run twice in one call counts twice, an
/// absent one 0) and the largest `mem.peak_bytes` any of its records
/// carries. The unattributed row is the median of each total minus its
/// depth-0 spans, so nested spans (`graph.*` under `test.graph`) get
/// rows of their own without being subtracted twice. Spans carry no RSS
/// or pool counters, so those fields stay zero; the caller's row for
/// the whole call holds them.
pub fn span_stages(captures: &[Vec<SpanRecord>], totals: &[f64]) -> Vec<StageResult> {
    assert_eq!(captures.len(), totals.len(), "one capture per timed iteration");
    let mut by_entry: Vec<&SpanRecord> = captures.iter().flatten().collect();
    by_entry.sort_by_key(|r| r.enter_seq);
    let mut names: Vec<&'static str> = Vec::new();
    for r in by_entry {
        if !names.contains(&r.name) {
            names.push(r.name);
        }
    }
    let row = |name: &str, median_seconds: f64, peak_alloc_bytes: u64| StageResult {
        name: name.to_string(),
        median_seconds,
        peak_alloc_bytes,
        peak_rss_bytes: 0,
        pool_threads: 0,
        pool_jobs: 0,
        pool_chunks: 0,
        pool_chunks_on_workers: 0,
    };
    let summed = |spans: &[SpanRecord], keep: &dyn Fn(&SpanRecord) -> bool| -> f64 {
        spans.iter().filter(|r| keep(r)).map(|r| r.seconds).sum()
    };
    let mut rows: Vec<StageResult> = names
        .iter()
        .map(|&name| {
            let seconds: Vec<f64> =
                captures.iter().map(|spans| summed(spans, &|r| r.name == name)).collect();
            let peak = captures
                .iter()
                .flatten()
                .filter(|r| r.name == name)
                .filter_map(|r| match r.attr("mem.peak_bytes") {
                    Some(&AttrValue::U64(bytes)) => Some(bytes),
                    _ => None,
                })
                .max();
            row(name, median(&seconds), peak.unwrap_or(0))
        })
        .collect();
    let unattributed: Vec<f64> = captures
        .iter()
        .zip(totals)
        .map(|(spans, total)| total - summed(spans, &|r| r.depth == 0))
        .collect();
    rows.push(row(UNATTRIBUTED_STAGE, median(&unattributed), 0));
    rows
}

/// Peak resident set (`VmHWM`) of this process in bytes, from
/// `/proc/self/status`. 0 when the file or field is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Reset the kernel's `VmHWM` watermark to the current RSS (write `5`
/// to `/proc/self/clear_refs`), so the next [`peak_rss_bytes`] read
/// reflects only growth since this call. Silently a no-op where the
/// interface is absent or read-only.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The minimal JSON reader behind [`BenchReport::parse`]: objects,
/// arrays, strings (no escapes beyond `\"`/`\\` needed by our writer),
/// numbers, `true`/`false`/`null`.
mod json {
    use std::collections::BTreeMap;

    #[derive(Clone, Debug)]
    pub enum Value {
        Null,
        #[allow(
            dead_code,
            reason = "the report schema has no bool fields yet; the reader accepts full JSON \
                      anyway so future fields parse without surgery"
        )]
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Result<&Value, String> {
            match self {
                Value::Object(map) => {
                    map.get(key).ok_or_else(|| format!("missing field \"{key}\""))
                }
                _ => Err(format!("expected object around \"{key}\"")),
            }
        }

        pub fn as_array(&self) -> Result<&[Value], String> {
            match self {
                Value::Array(items) => Ok(items),
                _ => Err("expected array".to_string()),
            }
        }

        pub fn as_str(&self) -> Result<&str, String> {
            match self {
                Value::String(s) => Ok(s),
                _ => Err("expected string".to_string()),
            }
        }

        pub fn as_f64(&self) -> Result<f64, String> {
            match self {
                Value::Number(n) => Ok(*n),
                _ => Err("expected number".to_string()),
            }
        }

        pub fn get_f64(&self, key: &str) -> Result<f64, String> {
            self.get(key)?.as_f64().map_err(|e| format!("{key}: {e}"))
        }

        pub fn get_u64(&self, key: &str) -> Result<u64, String> {
            let n = self.get_f64(key)?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(format!("{key}: expected a non-negative integer, got {n}"));
            }
            Ok(n as u64)
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {pos}", c as char))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => parse_string(bytes, pos).map(Value::String),
            Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
            Some(_) => parse_number(bytes, pos),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'{')?;
        let mut map = BTreeMap::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            expect(bytes, pos, b':')?;
            map.insert(key, parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}")),
            }
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string at byte {pos}"));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&b) = bytes.get(*pos) {
            *pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = bytes.get(*pos).copied().ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        other => return Err(format!("unsupported escape '\\{}'", other as char)),
                    }
                }
                _ => out.push(b as char),
            }
        }
        Err("unterminated string".to_string())
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while let Some(&b) = bytes.get(*pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                *pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&bytes[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn parse_literal(
        bytes: &[u8],
        pos: &mut usize,
        word: &str,
        value: Value,
    ) -> Result<Value, String> {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {pos}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphner_obs::SpanName;

    fn stage(name: &str, seconds: f64) -> StageResult {
        StageResult {
            name: name.to_string(),
            median_seconds: seconds,
            peak_alloc_bytes: 1 << 20,
            peak_rss_bytes: 1 << 22,
            pool_threads: 4,
            pool_jobs: 3,
            pool_chunks: 12,
            pool_chunks_on_workers: 9,
        }
    }

    fn report(stages: Vec<StageResult>) -> BenchReport {
        BenchReport { schema_version: SCHEMA_VERSION, scale: 0.02, iters: 3, stages }
    }

    #[test]
    fn json_round_trips_exactly() {
        let original = report(vec![stage("test.graph", 1.25), stage("graph.knn", 0.5)]);
        let parsed = BenchReport::parse(&original.to_json()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn parse_rejects_other_schema_versions() {
        let mut wrong = report(vec![stage("test.propagate", 1.0)]);
        wrong.schema_version = SCHEMA_VERSION + 1;
        let err = BenchReport::parse(&wrong.to_json()).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn parse_reports_malformed_input() {
        assert!(BenchReport::parse("not json").is_err());
        assert!(BenchReport::parse("{\"schema_version\": 1}").is_err());
        assert!(BenchReport::parse("{\"schema_version\": 1, \"scale\": 0.02} trailing").is_err());
    }

    #[test]
    fn synthetic_fifteen_percent_slowdown_trips_the_gate() {
        // use second-scale medians so the 25ms absolute slack is
        // negligible and the 15% fraction is what decides
        let baseline = report(vec![stage("test.graph", 2.0), stage("test.propagate", 1.0)]);
        let mut slower = baseline.clone();
        slower.stages[1].median_seconds = 1.20; // +20%
        let regressions = compare(&baseline, &slower, DEFAULT_TOLERANCE);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].stage, "test.propagate");
        assert!(regressions[0].ratio() > 1.15);
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let baseline = report(vec![stage("test.graph", 2.0)]);
        let mut slightly = baseline.clone();
        slightly.stages[0].median_seconds = 2.2; // +10%
        assert!(compare(&baseline, &slightly, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn absolute_slack_protects_near_instant_stages() {
        // 5ms -> 20ms is 4x but under the absolute slack: scheduling
        // noise, not a regression the gate should wake anyone up for…
        let baseline = report(vec![stage("test.decode", 0.005)]);
        let mut jittery = baseline.clone();
        jittery.stages[0].median_seconds = 0.020;
        assert!(compare(&baseline, &jittery, DEFAULT_TOLERANCE).is_empty());
        // …while a genuine blowup on the same stage still trips it
        let mut blown = baseline.clone();
        blown.stages[0].median_seconds = 0.050;
        assert_eq!(compare(&baseline, &blown, DEFAULT_TOLERANCE).len(), 1);
    }

    #[test]
    fn missing_stage_is_a_regression() {
        let baseline = report(vec![stage("test.graph", 1.0), stage("graph.knn", 1.0)]);
        let fresh = report(vec![stage("test.graph", 1.0)]);
        let regressions = compare(&baseline, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].stage, "graph.knn");
        assert!(regressions[0].fresh_seconds.is_infinite());
    }

    #[test]
    fn new_stages_in_fresh_pass_without_a_baseline() {
        let baseline = report(vec![stage("test.graph", 1.0)]);
        let fresh = report(vec![stage("test.graph", 1.0), stage("perf.tag_batch_t4", 0.5)]);
        assert!(compare(&baseline, &fresh, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes() > 0);
        }
    }

    /// A record of `name` at nesting `depth` entered at `enter_seq`,
    /// with a `mem.peak_bytes` attr when `peak` is given.
    fn rec(
        name: SpanName,
        depth: usize,
        enter_seq: u64,
        secs: f64,
        peak: Option<u64>,
    ) -> SpanRecord {
        let mut r = SpanRecord::synthetic(name, secs);
        r.depth = depth;
        r.enter_seq = enter_seq;
        if let Some(bytes) = peak {
            r.attrs.push(("mem.peak_bytes", AttrValue::U64(bytes)));
        }
        r
    }

    fn row<'a>(rows: &'a [StageResult], name: &str) -> &'a StageResult {
        rows.iter().find(|r| r.name == name).unwrap_or_else(|| panic!("no {name} row"))
    }

    #[test]
    fn span_fold_sums_repeats_keeps_nesting_and_takes_medians() {
        use SpanName::{GraphKnn, GraphVectors, TestDecode, TestGraph, TestPosteriors};
        // per iteration: posteriors, then a graph stage with two nested
        // children, then decode run twice; children exit first
        let iteration = |scale: f64, base: u64| {
            vec![
                rec(TestPosteriors, 0, base, 1.0 * scale, Some(10)),
                rec(GraphVectors, 1, base + 2, 0.5 * scale, Some(70)),
                rec(GraphKnn, 1, base + 3, 1.0 * scale, None),
                rec(TestGraph, 0, base + 1, 2.0 * scale, Some(50)),
                rec(TestDecode, 0, base + 4, 0.25 * scale, None),
                rec(TestDecode, 0, base + 5, 0.25 * scale, Some(5)),
            ]
        };
        let captures = vec![iteration(1.0, 0), iteration(3.0, 10), iteration(2.0, 20)];
        // the top-level spans sum to 3.5 s per unit scale
        let totals = [4.0, 3.5 * 3.0 + 1.5, 3.5 * 2.0 + 0.5];
        let rows = span_stages(&captures, &totals);

        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "test.posteriors",
                "test.graph",
                "graph.vectors",
                "graph.knn",
                "test.decode",
                UNATTRIBUTED_STAGE
            ]
        );
        // medians over the three iterations (scales 1, 3, 2 -> 2)
        assert_eq!(row(&rows, "test.posteriors").median_seconds, 2.0);
        assert_eq!(row(&rows, "test.graph").median_seconds, 4.0);
        assert_eq!(row(&rows, "graph.vectors").median_seconds, 1.0);
        assert_eq!(row(&rows, "graph.knn").median_seconds, 2.0);
        // the repeated stage adds up within an iteration
        assert_eq!(row(&rows, "test.decode").median_seconds, 1.0);
        // total minus the depth-0 spans only: 0.5, 1.5, 0.5 -> 0.5
        assert_eq!(row(&rows, UNATTRIBUTED_STAGE).median_seconds, 0.5);
        // heap peaks come from the spans' own attrs; spans carry no
        // RSS or pool counters
        assert_eq!(row(&rows, "graph.vectors").peak_alloc_bytes, 70);
        assert_eq!(row(&rows, "test.decode").peak_alloc_bytes, 5);
        assert_eq!(row(&rows, "graph.knn").peak_alloc_bytes, 0);
        assert!(rows.iter().all(|r| r.peak_rss_bytes == 0 && r.pool_chunks == 0));
    }

    #[test]
    fn span_fold_counts_a_stage_absent_from_an_iteration_as_zero() {
        let captures = vec![
            vec![rec(SpanName::TestAverage, 0, 0, 1.0, None)],
            vec![],
            vec![rec(SpanName::TestAverage, 0, 5, 1.0, None)],
        ];
        let rows = span_stages(&captures, &[1.0, 0.25, 1.0]);
        assert_eq!(row(&rows, "test.average").median_seconds, 1.0);
        assert_eq!(row(&rows, UNATTRIBUTED_STAGE).median_seconds, 0.0);
        let rows = span_stages(&captures[..2], &[1.0, 0.25]);
        // upper median of {0, 1}
        assert_eq!(row(&rows, "test.average").median_seconds, 1.0);
        assert_eq!(row(&rows, UNATTRIBUTED_STAGE).median_seconds, 0.25);
    }
}
