//! `perfbench`: the end-to-end and per-layer benchmark of the PrivBayes
//! suite.
//!
//! ```text
//! perfbench --workload stream|ingest|publish --seed N --seconds S --trace 0|1
//! ```
//!
//! Three closed-loop workloads, one client each, load different layers:
//! `stream` (an analyst pulling rows and marginals from a released Adult
//! model), `ingest` (a tenant growing an NLTCS-shaped table through journaled
//! ingest with background refits) and `publish` (a publisher fitting the four
//! Table-5 shapes with the CLI and releasing them). The program is driven
//! only through public surfaces — an in-process `privbayes_server::Server`
//! reached over HTTP, and `privbayes_cli::run` — and every input derives
//! from `--seed`.
//!
//! Each workload checks its outputs against the program's batch paths. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A failed check exits
//! 1. `NOTES.md` beside this crate describes every metric.

mod harness;
mod http;
mod ingest;
mod inputs;
mod publish;
mod replay;
mod report;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: perfbench --workload stream|ingest|publish --seed N --seconds S --trace 0|1";

/// Where runs keep scratch files and traces, relative to the working
/// directory.
pub const WORK_ROOT: &str = ".bench_work";

const WORKLOADS: [&str; 3] = ["stream", "ingest", "publish"];

/// One run's command line.
#[derive(Debug)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// The run length the command line names, recorded with the run. Each
    /// workload runs a fixed number of rounds or cycles instead, sized to
    /// about `run_seconds` of `BENCHMARK.json` (`NOTES.md`).
    pub seconds: Duration,
    pub trace: bool,
    /// This run's scratch directory, removed when the run ends.
    pub work: PathBuf,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|_| format!("--seed: `{value}`"))?);
            }
            "--seconds" => {
                let secs: f64 = value.parse().map_err(|_| format!("--seconds: `{value}`"))?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(Duration::from_secs_f64(secs));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let work = PathBuf::from(WORK_ROOT).join(format!("{workload}-{}", std::process::id()));
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        work,
    })
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("perfbench: {}: {e}", cfg.work.display());
        return ExitCode::from(1);
    }
    let scratch = Scratch(cfg.work.clone());
    let outcome = match cfg.workload.as_str() {
        "stream" => stream::run(&cfg),
        "ingest" => ingest::run(&cfg),
        _ => publish::run(&cfg),
    };
    drop(scratch);
    match outcome.and_then(|outcome| outcome.print(&cfg)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
