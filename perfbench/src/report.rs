//! The metric catalogue, the per-kind operation log, and the lines a run
//! prints: an `env` line, a `detail` line with every per-kind figure, and
//! the result line the benchmark contract reads.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;

use crate::stats;
use crate::trace::Tracer;
use crate::RunConfig;

/// End-to-end metrics and their units; every workload reports each one, by
/// its own definition (`NOTES.md`).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("rows_per_s", "rows/s"), ("op_ms", "ms")];

/// The publish workload's datasets, as they appear in per-layer names.
const SHAPES: [&str; 4] = ["nltcs", "acs", "adult", "br2000"];

/// Operation kinds of the three workloads.
pub const KINDS: [&str; 10] = [
    "csv",
    "jsonl",
    "cohort_root",
    "cohort_inner",
    "query",
    "batch100",
    "batch2000",
    "read",
    "fit",
    "release",
];

/// Per-layer metrics and their units, in report order. A layer a workload
/// leaves idle reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = [
        ("core.sampler.rows_per_s", "rows/s"),
        ("core.sampler.cohort_root_rows_per_s", "rows/s"),
        ("core.sampler.cohort_inner_rows_per_s", "rows/s"),
        ("core.sampler.compile_ms", "ms"),
        ("synth.render.csv_rows_per_s", "rows/s"),
        ("synth.render.jsonl_rows_per_s", "rows/s"),
        ("synth.render.csv_bytes_per_row", "B/row"),
        ("synth.render.jsonl_bytes_per_row", "B/row"),
        ("server.http.write_ms", "ms"),
        ("server.worker.queue_wait_ms", "ms"),
        ("server.worker.connections_reused", "count"),
        ("server.cache.hits", "count"),
        ("server.cache.misses", "count"),
        ("server.cache.evicted_bytes", "B"),
        ("core.inference.projection_ms", "ms"),
        ("core.inference.refused_share", "share"),
        ("model.json.parse_ms.batch100", "ms"),
        ("model.json.parse_ms.batch2000", "ms"),
        ("model.json.parse_bytes.batch100", "B"),
        ("model.json.parse_bytes.batch2000", "B"),
        ("data.csv.read_rows_per_s", "rows/s"),
        ("server.ingest.journal_ms", "ms"),
        ("server.ingest.journal_bytes_per_batch", "B"),
        ("marginals.engine.append_ms", "ms"),
        ("marginals.engine.cached_tables", "count"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(name, unit)| (name.to_string(), unit)).collect();
    for (stat, unit) in [
        ("scans", "count"),
        ("projections", "count"),
        ("hits", "count"),
        ("hit_ratio", "share"),
        ("bytes_materialized", "B"),
        ("scan_ms", "ms"),
    ] {
        for shape in SHAPES {
            out.push((format!("marginals.engine.{stat}.{shape}"), unit));
        }
    }
    for shape in SHAPES {
        out.push((format!("core.greedy.score_self_ms.{shape}"), "ms"));
    }
    for shape in SHAPES {
        out.push((format!("core.conditionals.ms.{shape}"), "ms"));
    }
    for (name, unit) in [
        ("model.artifact.write_ms", "ms"),
        ("server.registry.load_ms", "ms"),
        ("server.refit.count", "count"),
        ("server.refit.fit_ms", "ms"),
        ("server.refit.visible_ms", "ms"),
        ("server.ledger.charges", "count"),
    ] {
        out.push((name.to_string(), unit));
    }
    for kind in KINDS {
        out.push((format!("ops.{kind}.attempted"), "count"));
        out.push((format!("ops.{kind}.failed"), "count"));
        out.push((format!("ops.{kind}.unattributed_ms"), "ms"));
    }
    out.push(("trace.overhead_pct".to_string(), "%"));
    out
}

/// Attempts, failures and successful times (ms) of one operation kind.
#[derive(Debug, Default)]
pub struct KindLog {
    pub attempted: u64,
    pub failed: u64,
    pub ms: Vec<f64>,
}

/// Every timed operation of a run, by kind.
#[derive(Debug, Default)]
pub struct OpLog {
    kinds: BTreeMap<&'static str, KindLog>,
}

impl OpLog {
    /// Counts one operation of `kind` that took `ms`. A failure is counted
    /// and left out of the timings.
    pub fn record<T, E: Display>(
        &mut self,
        kind: &'static str,
        ms: f64,
        result: Result<T, E>,
    ) -> Option<T> {
        let log = self.kinds.entry(kind).or_default();
        log.attempted += 1;
        match result {
            Ok(value) => {
                log.ms.push(ms);
                Some(value)
            }
            Err(e) => {
                log.failed += 1;
                if log.failed <= 3 {
                    eprintln!("perfbench: {kind} failed: {e}");
                }
                None
            }
        }
    }

    /// Successful times of `kind`, in ms.
    pub fn times(&self, kind: &str) -> &[f64] {
        self.kinds.get(kind).map_or(&[], |log| &log.ms)
    }

    /// Successful times of `kind`, or an error when there are none.
    pub fn require(&self, kind: &str) -> Result<&[f64], String> {
        let ms = self.times(kind);
        if ms.is_empty() {
            return Err(format!("no {kind} operation succeeded"));
        }
        Ok(ms)
    }

    pub fn attempted(&self) -> u64 {
        self.kinds.values().map(|log| log.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.kinds.values().map(|log| log.failed).sum()
    }

    fn counts_into(&self, out: &mut BTreeMap<String, f64>) {
        for (kind, log) in &self.kinds {
            out.insert(format!("ops.{kind}.attempted"), log.attempted as f64);
            out.insert(format!("ops.{kind}.failed"), log.failed as f64);
        }
    }
}

/// Adds a kind's time distribution to `detail` under `prefix`: its count,
/// mean, the percentiles a per-run statistic can be chosen from, and the
/// tail — the highest percentile with at least ten samples beyond it.
pub fn describe(detail: &mut BTreeMap<String, f64>, prefix: &str, ms: &[f64]) {
    detail.insert(format!("{prefix}.n"), ms.len() as f64);
    if ms.is_empty() {
        return;
    }
    detail.insert(format!("{prefix}.mean_ms"), stats::mean(ms));
    for p in [10, 25, 50, 75, 90, 95] {
        detail.insert(format!("{prefix}.p{p}_ms"), stats::percentile(ms, p));
    }
    if let Some(p) = stats::tail_percentile(ms.len(), 10) {
        detail.insert(format!("{prefix}.tail_percentile"), p as f64);
        detail.insert(format!("{prefix}.tail_ms"), stats::percentile(ms, p));
    }
}

/// Percentile `p` (one of [`stats::LADDER`]) of `values` for a gated metric;
/// an error, and so a run without a result, when fewer than ten samples lie
/// beyond it.
pub fn gated_percentile(name: &str, values: &[f64], p: usize) -> Result<f64, String> {
    gated_block_percentile(name, values, 1, p)
}

/// [`stats::block_percentile`] for a gated metric; an error when a block
/// leaves fewer than ten samples beyond its percentile `p`.
pub fn gated_block_percentile(
    name: &str,
    values: &[f64],
    blocks: usize,
    p: usize,
) -> Result<f64, String> {
    let len = values.len() / blocks.max(1);
    if stats::tail_percentile(len, 10) < Some(p) {
        return Err(format!(
            "{} {name} samples in {blocks} blocks leave fewer than ten beyond a block's {p}th \
             percentile",
            values.len()
        ));
    }
    Ok(stats::block_percentile(values, blocks, p))
}

/// Mean of `values`, or 0 for none (a layer the run did not exercise).
pub fn mean_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::mean(values)
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Workload facts for the `env` line (values already JSON-encoded).
    pub env: Vec<(&'static str, String)>,
    /// Every per-kind figure the metrics derive from; not gated.
    pub detail: BTreeMap<String, f64>,
    /// End-to-end metrics (reported by untraced runs).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (reported by traced runs).
    pub layers: BTreeMap<String, f64>,
    pub ops: OpLog,
    /// Failed output checks; any one makes the run incorrect.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Prints the `env`, `detail` and result lines; returns whether every
    /// output check passed.
    pub fn print(&self, cfg: &RunConfig) -> Result<bool, String> {
        let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let mut env = vec![
            ("workload", json_str(&cfg.workload)),
            ("seed", cfg.seed.to_string()),
            ("seconds", cfg.seconds.as_secs_f64().to_string()),
            ("trace", cfg.trace.to_string()),
            ("commit", json_str(&commit())),
            ("available_parallelism", parallelism.to_string()),
        ];
        env.extend(self.env.iter().cloned());
        let env: Vec<String> = env.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        println!("{{\"env\": {{{}}}}}", env.join(", "));
        let detail: Vec<String> =
            self.detail.iter().map(|(k, v)| format!("\"{k}\": {}", json_num(*v))).collect();
        println!("{{\"detail\": {{{}}}}}", detail.join(", "));
        for problem in &self.problems {
            eprintln!("perfbench: check failed: {problem}");
        }

        let mut metrics = Vec::new();
        if cfg.trace {
            let mut layers = self.layers.clone();
            self.ops.counts_into(&mut layers);
            for (name, unit) in per_layer() {
                let value = layers.get(&name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
                metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
            }
        } else {
            for (name, unit) in END_TO_END {
                let value = self.e2e.get(name).copied().unwrap_or(f64::NAN);
                if !(value.is_finite() && value > 0.0) {
                    return Err(format!("end-to-end metric {name} has no usable value ({value})"));
                }
                metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
            }
        }
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.ops.attempted(),
            self.ops.failed(),
            metrics.join(", ")
        );
        Ok(correct)
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`], in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak resident set size to the current one (Linux 4.0 and
/// later), so that [`peak_rss_mb`] covers only what runs after the reset:
/// the workloads reset it when their timed loop starts, which leaves the
/// transient memory of the benchmark's own input generation out.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// The checked-out commit, read from `.git` when the working directory is a
/// git checkout.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes a traced run's spans beside the run's scratch directories.
pub fn write_trace(cfg: &RunConfig, tracer: &Tracer) -> Result<(), String> {
    let dir = Path::new(crate::WORK_ROOT).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", cfg.workload, cfg.seed));
    tracer.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes_model::Json;

    /// `(name, unit)` of every entry of one `BENCHMARK.json` metric list.
    fn listed(benchmark: &Json, key: &str) -> Vec<(String, String)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        benchmark
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
        let benchmark = Json::parse(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed(&benchmark, "end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(listed(&benchmark, "per_layer"), layers);
    }

    #[test]
    fn gated_percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(gated_percentile("x", &v, 90), Ok(90.0));
        assert!(gated_percentile("x", &v[..99], 90).is_err());
        assert!(gated_percentile("x", &v, 95).is_err());
        assert!(gated_percentile("x", &[], 50).is_err());
        let run: Vec<f64> = (1..=400).map(f64::from).collect();
        // Block p90s 90, 190, 290, 390: the median of the middle two.
        assert_eq!(gated_block_percentile("x", &run, 4, 90), Ok(240.0));
        assert!(gated_block_percentile("x", &run[..399], 4, 90).is_err());
    }

    #[test]
    fn op_log_leaves_failures_out_of_the_timings() {
        let mut log = OpLog::default();
        assert_eq!(log.record::<_, String>("csv", 12.0, Ok(1)), Some(1));
        assert_eq!(log.record::<u8, _>("csv", 99.0, Err("reset")), None);
        assert_eq!(log.times("csv"), &[12.0]);
        assert_eq!((log.attempted(), log.failed()), (2, 1));
        assert!(log.require("jsonl").is_err());
    }
}
