//! GraphNER repository benchmark.
//!
//! ```text
//! perfbench --workload <transductive|serve_open|propagate_large>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke        # every workload, tiny inputs, both modes
//! ```
//!
//! Each workload runs in its own process with `GRAPHNER_THREADS`
//! pinned for it: the binary re-executes itself with the pinned
//! environment, because the worker pool reads the variable once per
//! process and `VmHWM` never goes down. `--trace 0` measures the
//! end-to-end metrics untraced; `--trace 1` is a separate run that
//! times the layers one call at a time and prints the per-layer rows.
//! The last line of standard output is the JSON result; every earlier
//! line starts with `#`.

mod procfs;
mod propagate_large;
mod report;
mod serve_open;
mod stats;
mod transductive;

use report::{Report, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};

/// Set on the re-executed workload process.
const PINNED_ENV: &str = "PERFBENCH_PINNED";

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Workload {
    Transductive,
    ServeOpen,
    PropagateLarge,
}

impl Workload {
    const ALL: [Workload; 3] =
        [Workload::Transductive, Workload::ServeOpen, Workload::PropagateLarge];

    fn name(self) -> &'static str {
        match self {
            Workload::Transductive => "transductive",
            Workload::ServeOpen => "serve_open",
            Workload::PropagateLarge => "propagate_large",
        }
    }

    fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `GRAPHNER_THREADS` for the workload's process.
    fn threads(self) -> usize {
        match self {
            Workload::ServeOpen => 1,
            Workload::Transductive | Workload::PropagateLarge => 2,
        }
    }
}

/// Parsed command line of one workload run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the self-test.
    pub smoke: bool,
    /// Internal: run one transductive op and print its prediction hash.
    pub hash_only: bool,
}

impl Args {
    fn to_argv(&self) -> Vec<String> {
        let mut argv = vec![
            "--workload".to_string(),
            self.workload.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
            "--trace".to_string(),
            if self.trace { "1" } else { "0" }.to_string(),
        ];
        if self.smoke {
            argv.push("--smoke".to_string());
        }
        if self.hash_only {
            argv.push("--hash-only".to_string());
        }
        argv
    }

    /// A child process of this binary with the workload's environment:
    /// `threads` pool threads and the program's stderr logger off.
    pub fn command(&self, threads: usize) -> Command {
        let exe = std::env::current_exe().expect("path of the running benchmark binary");
        let mut cmd = Command::new(exe);
        cmd.args(self.to_argv())
            .env("GRAPHNER_THREADS", threads.to_string())
            .env("GRAPHNER_LOG", "off")
            .env(PINNED_ENV, "1");
        cmd
    }
}

enum Mode {
    Run(Args),
    Smoke,
}

const USAGE: &str = "usage: perfbench --workload <transductive|serve_open|propagate_large> \
                     --seed <n> --seconds <s> --trace <0|1> | perfbench --smoke";

fn parse(argv: &[String]) -> Result<Mode, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut hash_only) = (false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            "--hash-only" => hash_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if smoke && workload.is_none() {
        return Ok(Mode::Smoke);
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Mode::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        smoke,
        hash_only,
    }))
}

/// The host block printed with every result.
fn host_notes(report: &mut Report, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.note(format!(
        "host: nproc={nproc} rustc=\"{}\" profile={} obs-alloc={}",
        env!("PERFBENCH_RUSTC_VERSION"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        if graphner_obs::alloc::enabled() { "on" } else { "off" },
    ));
    report.note(format!(
        "workload={} seed={} seconds={} trace={} GRAPHNER_THREADS={} (own process, pinned) pool_threads={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.threads(),
        rayon::current_num_threads(),
    ));
}

fn run_pinned(args: &Args) -> ExitCode {
    if args.hash_only {
        println!("hash={:016x}", transductive::hash_only(args));
        return ExitCode::SUCCESS;
    }
    let mut report = Report::new();
    host_notes(&mut report, args);
    match args.workload {
        Workload::Transductive => transductive::run(args, &mut report),
        Workload::ServeOpen => serve_open::run(args, &mut report),
        Workload::PropagateLarge => propagate_large::run(args, &mut report),
    }
    if !args.trace {
        report.set("ok_ratio", report.ok_ratio());
        report.set("peak_rss_mb", procfs::peak_rss_mb());
    }
    report.print(if args.trace { PER_LAYER } else { END_TO_END });
    ExitCode::SUCCESS
}

/// Run every workload in both modes on tiny inputs and check each
/// result line: correct, `ok_ratio` 1 and every metric present with
/// its unit.
fn smoke() -> ExitCode {
    let mut all_ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            let args =
                Args { workload, seed: 1, seconds: 0.5, trace, smoke: true, hash_only: false };
            let out = args
                .command(workload.threads())
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("spawn the workload process");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let defs = if trace { PER_LAYER } else { END_TO_END };
            let mut problems = Vec::new();
            if !out.status.success() {
                problems.push(format!("exit status {}", out.status));
            }
            if !last.starts_with("{\"correct\": true,") {
                problems.push("result is not correct".to_string());
            }
            if !trace && !last.contains("\"ok_ratio\": {\"value\": 1, ") {
                problems.push("ok_ratio is not 1".to_string());
            }
            for def in defs {
                let entry = format!("\"{}\": {{\"value\": ", def.name);
                let unit = format!("\"unit\": \"{}\"", def.unit);
                let present = last
                    .split_once(&entry)
                    .and_then(|(_, rest)| rest.split_once('}'))
                    .is_some_and(|(head, _)| head.ends_with(&unit));
                if !present {
                    problems
                        .push(format!("metric {} missing or without unit {}", def.name, def.unit));
                }
            }
            let status = if problems.is_empty() {
                "ok".to_string()
            } else {
                format!("FAILED {}", problems.join("; "))
            };
            println!("smoke {} trace={}: {status}", workload.name(), u8::from(trace));
            all_ok &= problems.is_empty();
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Mode::Smoke) => smoke(),
        Ok(Mode::Run(args)) if std::env::var(PINNED_ENV).is_ok() => run_pinned(&args),
        Ok(Mode::Run(args)) => {
            // re-execute pinned; the child's stdout is the result
            let status =
                args.command(args.workload.threads()).status().expect("spawn the workload process");
            match status.code() {
                Some(0) => ExitCode::SUCCESS,
                _ => ExitCode::FAILURE,
            }
        }
    }
}
