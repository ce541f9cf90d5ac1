//! The perf-trajectory report behind `BENCH_pipeline.json`.
//!
//! The `perfsuite` binary times a fixed matrix of pipeline stages and
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

use graphner_obs::SpanName;
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
    /// Stage name (`area.verb`, e.g. `perf.pmi_build`).
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
    /// The stage matrix, in execution order.
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

/// Net heap growth (bytes) a hot span may show at runtime before a
/// zero-static-alloc-site claim stops being believable. Small enough to
/// catch a per-item allocation loop, large enough to absorb allocator
/// bookkeeping and the span record itself.
pub const HIDDEN_ALLOC_THRESHOLD_BYTES: i64 = 4096;

/// One `span` line of the audit `--hot-report`: the statically visible
/// allocation-site count for a span whose extent enters the hot set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotSpanStatic {
    /// The span's name.
    pub name: SpanName,
    /// Workspace-relative path of the minting site.
    pub path: String,
    /// 1-based line of the minting site.
    pub line: usize,
    /// Allocation call sites visible from the minting function over
    /// resolved call edges.
    pub static_alloc_sites: u64,
}

/// Parse the `span` section of an audit `--hot-report` file. The line
/// grammar is owned by `graphner-audit::hot` (kept stable for this
/// consumer): `span <variant> <path>:<line> static_alloc_sites=<k>`,
/// where `<variant>` is a [`SpanName`] variant identifier as written at
/// the minting site. Comment (`#`), `root` and `fn` lines are skipped.
/// A malformed `span` line, or one naming no [`SpanName`] variant, is an
/// error: silently dropping it would un-gate its span.
pub fn parse_hot_report(text: &str) -> Result<Vec<HotSpanStatic>, String> {
    let mut spans = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        let Some(rest) = line.strip_prefix("span ") else {
            continue;
        };
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let err = || format!("hot-report:{line_no}: malformed span line `{line}`");
        let [variant, site, count] = fields.as_slice() else {
            return Err(err());
        };
        // a fieldless variant's derived Debug output is its identifier
        let name =
            SpanName::ALL.into_iter().find(|n| format!("{n:?}") == *variant).ok_or_else(|| {
                format!("hot-report:{line_no}: `{variant}` is not a SpanName variant")
            })?;
        let (path, site_line) = site.rsplit_once(':').ok_or_else(err)?;
        let static_alloc_sites =
            count.strip_prefix("static_alloc_sites=").and_then(|v| v.parse().ok());
        spans.push(HotSpanStatic {
            name,
            path: path.to_string(),
            line: site_line.parse().map_err(|_| err())?,
            static_alloc_sites: static_alloc_sites.ok_or_else(err)?,
        });
    }
    Ok(spans)
}

/// A span the static analysis cleared that allocated anyway.
#[derive(Clone, Debug)]
pub struct HiddenAllocation {
    /// Span name.
    pub span: SpanName,
    /// Minting site from the hot report, for the error message.
    pub site: String,
    /// Worst `mem.net_bytes` observed across the span's executions.
    pub net_bytes: i64,
}

/// Outcome of [`reconcile_hot_spans`].
#[derive(Clone, Debug, Default)]
pub struct Reconciliation {
    /// Static spans the check actually applied to: zero static
    /// allocation sites, and at least one measured record carrying
    /// `mem.net_bytes`.
    pub checked: usize,
    /// The checked spans that allocated above threshold anyway.
    pub hidden: Vec<HiddenAllocation>,
}

/// Cross-reference the audit's static per-span allocation counts
/// against measured span records: a hot span claiming **zero** static
/// allocation sites whose worst observed `mem.net_bytes` still exceeds
/// `threshold_bytes` is a hidden allocation — something the lexical
/// rules cannot see (vendored code, a closure the resolver dropped) is
/// allocating on the hot path. Spans with static sites, spans without
/// the attribute (built without `obs-alloc`) and spans that never ran
/// are not checked, and [`Reconciliation::checked`] does not count them.
pub fn reconcile_hot_spans(
    statics: &[HotSpanStatic],
    measured: &[graphner_obs::SpanRecord],
    threshold_bytes: i64,
) -> Reconciliation {
    let mut out = Reconciliation::default();
    for s in statics {
        if s.static_alloc_sites > 0 {
            continue;
        }
        let worst = measured
            .iter()
            .filter(|r| r.name == s.name.as_str())
            .filter_map(|r| match r.attr("mem.net_bytes") {
                Some(&graphner_obs::AttrValue::I64(v)) => Some(v),
                _ => None,
            })
            .max();
        if let Some(net_bytes) = worst {
            out.checked += 1;
            if net_bytes > threshold_bytes {
                out.hidden.push(HiddenAllocation {
                    span: s.name,
                    site: format!("{}:{}", s.path, s.line),
                    net_bytes,
                });
            }
        }
    }
    out
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
        // the report schema has no bool fields yet; the reader accepts
        // full JSON anyway so future fields parse without surgery
        #[allow(dead_code)]
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
            if n < 0.0 || !graphner_text::exactly_zero(n.fract()) {
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
        let original = report(vec![stage("perf.pmi_build", 1.25), stage("perf.knn_build", 0.5)]);
        let parsed = BenchReport::parse(&original.to_json()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn parse_rejects_other_schema_versions() {
        let mut wrong = report(vec![stage("perf.propagate", 1.0)]);
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
        // use second-scale medians so the 5ms absolute slack is
        // negligible and the 15% fraction is what decides
        let baseline = report(vec![stage("perf.pmi_build", 2.0), stage("perf.propagate", 1.0)]);
        let mut slower = baseline.clone();
        slower.stages[1].median_seconds = 1.20; // +20%
        let regressions = compare(&baseline, &slower, DEFAULT_TOLERANCE);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].stage, "perf.propagate");
        assert!(regressions[0].ratio() > 1.15);
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let baseline = report(vec![stage("perf.pmi_build", 2.0)]);
        let mut slightly = baseline.clone();
        slightly.stages[0].median_seconds = 2.2; // +10%
        assert!(compare(&baseline, &slightly, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn absolute_slack_protects_near_instant_stages() {
        // 5ms -> 20ms is 4x but under the absolute slack: scheduling
        // noise, not a regression the gate should wake anyone up for…
        let baseline = report(vec![stage("perf.viterbi_decode", 0.005)]);
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
        let baseline = report(vec![stage("perf.pmi_build", 1.0), stage("perf.knn_build", 1.0)]);
        let fresh = report(vec![stage("perf.pmi_build", 1.0)]);
        let regressions = compare(&baseline, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].stage, "perf.knn_build");
        assert!(regressions[0].fresh_seconds.is_infinite());
    }

    #[test]
    fn new_stages_in_fresh_pass_without_a_baseline() {
        let baseline = report(vec![stage("perf.pmi_build", 1.0)]);
        let fresh = report(vec![stage("perf.pmi_build", 1.0), stage("perf.tag_batch_t4", 0.5)]);
        assert!(compare(&baseline, &fresh, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes() > 0);
        }
    }

    #[test]
    fn hot_report_span_lines_parse_and_other_lines_skip() {
        let text = "\
# hot-path inventory: 1 roots, 2 functions, 3 alloc sites, 2 spans
root crates/graph/src/propagate.rs:100 jacobi_update alloc_sites=0 — per-vertex kernel
fn crates/graph/src/knn.rs:50 top_k alloc_sites=3 via jacobi_update -> top_k
span PerfPropagate crates/bench/src/bin/perfsuite.rs:306 static_alloc_sites=0
span ServeTagBatch crates/core/src/pipeline.rs:530 static_alloc_sites=7
";
        let spans = parse_hot_report(text).unwrap();
        assert_eq!(
            spans,
            vec![
                HotSpanStatic {
                    name: SpanName::PerfPropagate,
                    path: "crates/bench/src/bin/perfsuite.rs".to_string(),
                    line: 306,
                    static_alloc_sites: 0,
                },
                HotSpanStatic {
                    name: SpanName::ServeTagBatch,
                    path: "crates/core/src/pipeline.rs".to_string(),
                    line: 530,
                    static_alloc_sites: 7,
                },
            ]
        );
    }

    #[test]
    fn hot_report_rejects_malformed_span_lines() {
        for bad in [
            "span only_two_fields a.rs:1",
            "span GraphKnn a.rs:notaline static_alloc_sites=0",
            "span GraphKnn noline static_alloc_sites=0",
            "span GraphKnn a.rs:1 static_alloc_sites=x",
            "span GraphKnn a.rs:1 wrongkey=3",
        ] {
            let err = parse_hot_report(bad).unwrap_err();
            assert!(err.contains("hot-report:1"), "{bad} -> {err}");
        }
    }

    #[test]
    fn hot_report_rejects_names_that_are_not_span_name_variants() {
        // the recorded string, a renamed variant and a lower-case ident
        // all fail instead of dropping the span out of the reconciliation
        for bad in ["graph.knn", "GraphKnnSearch", "graphknn"] {
            let text = format!("# header\nspan {bad} a.rs:1 static_alloc_sites=0\n");
            let err = parse_hot_report(&text).unwrap_err();
            assert!(err.contains("hot-report:2") && err.contains("not a SpanName"), "{err}");
        }
        // and every variant resolves under its identifier
        for name in SpanName::ALL {
            let line = format!("span {name:?} a.rs:1 static_alloc_sites=0");
            assert_eq!(parse_hot_report(&line).unwrap()[0].name, name);
        }
    }

    fn measured_span(name: SpanName, net_bytes: Option<i64>) -> graphner_obs::SpanRecord {
        let mut r = graphner_obs::SpanRecord::synthetic(name, 0.1);
        if let Some(v) = net_bytes {
            r.attrs.push(("mem.net_bytes", graphner_obs::AttrValue::I64(v)));
        }
        r
    }

    fn static_span(name: SpanName, sites: u64) -> HotSpanStatic {
        HotSpanStatic {
            name,
            path: "crates/x/src/y.rs".to_string(),
            line: 10,
            static_alloc_sites: sites,
        }
    }

    #[test]
    fn reconcile_flags_zero_static_spans_that_allocate() {
        let statics = [static_span(SpanName::PerfPropagate, 0)];
        let measured = [
            measured_span(SpanName::PerfPropagate, Some(100)),
            measured_span(SpanName::PerfPropagate, Some(HIDDEN_ALLOC_THRESHOLD_BYTES + 1)),
        ];
        let r = reconcile_hot_spans(&statics, &measured, HIDDEN_ALLOC_THRESHOLD_BYTES);
        assert_eq!(r.checked, 1);
        assert_eq!(r.hidden.len(), 1);
        assert_eq!(r.hidden[0].span, SpanName::PerfPropagate);
        assert_eq!(r.hidden[0].site, "crates/x/src/y.rs:10");
        assert_eq!(r.hidden[0].net_bytes, HIDDEN_ALLOC_THRESHOLD_BYTES + 1);
    }

    #[test]
    fn reconcile_clears_spans_with_static_sites_or_small_growth() {
        let statics = [
            static_span(SpanName::PerfKnnBuild, 12), // sites declared: runtime allocation expected
            static_span(SpanName::PerfPropagate, 0), // under threshold: allocator noise
            static_span(SpanName::CrfTrain, 0),      // never ran in this process
        ];
        let measured = [
            measured_span(SpanName::PerfKnnBuild, Some(1 << 30)),
            measured_span(SpanName::PerfPropagate, Some(HIDDEN_ALLOC_THRESHOLD_BYTES)),
        ];
        let r = reconcile_hot_spans(&statics, &measured, HIDDEN_ALLOC_THRESHOLD_BYTES);
        // only the zero-site span that ran with alloc accounting counts
        assert_eq!(r.checked, 1);
        assert!(r.hidden.is_empty());
    }

    #[test]
    fn reconcile_skips_spans_without_alloc_accounting() {
        // no obs-alloc feature -> no mem.net_bytes attr -> nothing to gate
        let statics = [static_span(SpanName::PerfPropagate, 0)];
        let measured = [measured_span(SpanName::PerfPropagate, None)];
        let r = reconcile_hot_spans(&statics, &measured, HIDDEN_ALLOC_THRESHOLD_BYTES);
        assert_eq!(r.checked, 0);
        assert!(r.hidden.is_empty());
    }
}
