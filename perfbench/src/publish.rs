//! `publish`: a publisher fits the four Table-5 shapes from CSV files with
//! `privbayes_cli::run(["fit", …])` (method `privbayes`, ε = 1, the program's
//! default thread count), then releases each artifact with
//! `PUT /models/{id}`.
//!
//! NLTCS (21,574 × 16) and ACS (47,461 × 23) are binary, so their count scans
//! take the engine's bit backend; Adult (45,222 × 15) and BR2000
//! (38,000 × 14) are mixed and take the radix backend. A round fits and
//! releases all four; a run is a fixed number of rounds.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::PathBuf;
use std::time::Instant;

use privbayes::conditionals::noisy_conditionals_general_engine;
use privbayes::greedy::{greedy_bayes_adaptive_engine, GreedySettings};
use privbayes::ScoreKind;
use privbayes_data::csv::{read_csv, write_csv};
use privbayes_data::Dataset;
use privbayes_dp::budget::BudgetSplit;
use privbayes_marginals::CountEngine;
use privbayes_model::{schema_to_json, ReleasedModel};
use privbayes_server::{ServerConfig, Snapshot};
use privbayes_synth::{fit_method, FitSettings, Method, RowFormat, SynthSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{delta, delta_ms, Harness, REQUESTS};
use crate::http::{one_shot, Session};
use crate::inputs::{mix, rendered, Seeds, Shape};
use crate::report::{
    describe, gated_percentile, mean_or_zero, peak_rss_mb, reset_peak_rss, write_trace, OpLog,
    Outcome,
};
use crate::stats::{self, overhead_pct};
use crate::trace::Tracer;
use crate::RunConfig;

const EPSILON: f64 = 1.0;
/// Rows of the stream that checks each released model.
const CHECK_ROWS: usize = 2_048;
/// Rows of the NLTCS prefix each set-up publishes as its warm-up.
const WARMUP_ROWS: usize = 2_000;
/// Rounds per run, each fitting and releasing all four tables. A round takes
/// about three seconds on two vCPUs; a fixed count, unlike a time limit,
/// gives every run the same number of fits per table.
const ROUNDS: usize = 10;
/// Second instances set up and stopped before every fit, so the run's 121
/// set-ups sample all of it. `setup_s` is their median: their 90th
/// percentile spread by a quarter of the median between runs, their median
/// by about a tenth.
const SETUPS_PER_FIT: usize = 3;
/// `PUT`s of each fitted artifact, made after the round's fits with the four
/// tables in turn, so a short burst of host contention lands on few releases
/// of any one table.
const RELEASES_PER_FIT: usize = 10;
/// Percentile of a table's 100 release times that `op_ms` sums. A release
/// takes a few milliseconds and lands in one of the host's two speeds; over
/// fifteen runs the sum of the tables' 75th percentiles spread 0.06–0.08 of
/// its median, their medians 0.07–0.12 and their 90th percentiles
/// 0.11–0.15, which bursts covering a tenth of a table's releases set.
const RELEASE_PERCENTILE: usize = 75;

/// One dataset's files.
struct Input {
    shape: Shape,
    data: Dataset,
    csv: PathBuf,
    schema: PathBuf,
    model: PathBuf,
}

impl Input {
    fn write(cfg: &RunConfig, name: &str, shape: Shape, data: Dataset) -> Result<Self, String> {
        let path = |suffix: &str| cfg.work.join(format!("{name}{suffix}"));
        let (csv, schema, model) = (path(".csv"), path(".schema.json"), path(".model.json"));
        let mut text = Vec::new();
        write_csv(&data, &mut text).map_err(|e| e.to_string())?;
        std::fs::write(&csv, text).map_err(|e| format!("{}: {e}", csv.display()))?;
        let schema_text =
            schema_to_json(data.schema()).to_string_pretty().map_err(|e| e.to_string())?;
        std::fs::write(&schema, schema_text).map_err(|e| format!("{}: {e}", schema.display()))?;
        Ok(Self { shape, data, csv, schema, model })
    }

    fn fit_args(&self, seed: u64) -> Vec<String> {
        let path = |p: &PathBuf| p.display().to_string();
        [
            "fit".to_string(),
            "--data".into(),
            path(&self.csv),
            "--schema".into(),
            path(&self.schema),
            "--epsilon".into(),
            EPSILON.to_string(),
            "--out".into(),
            path(&self.model),
            "--seed".into(),
            seed.to_string(),
        ]
        .to_vec()
    }
}

/// Per-layer figures of the traced operations.
#[derive(Default)]
struct Layers {
    csv_rows: f64,
    csv_ms: f64,
    engine: BTreeMap<&'static str, privbayes_marginals::EngineStats>,
    greedy_self_ms: BTreeMap<&'static str, Vec<f64>>,
    conditionals_ms: BTreeMap<&'static str, Vec<f64>>,
    write_ms: Vec<f64>,
    load_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    unattributed: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Rebuilds one CLI fit from its public pieces — `read_csv`,
    /// `CountEngine::new`, `greedy_bayes_adaptive_engine`,
    /// `noisy_conditionals_general_engine`, `ReleasedModel::save` — and
    /// asserts they give the CLI artifact's network and conditionals bit for
    /// bit.
    fn replay_fit(
        &mut self,
        tracer: &mut Tracer,
        op: u64,
        input: &Input,
        seed: u64,
        wall: f64,
        cli: &ReleasedModel,
        problems: &mut Vec<String>,
    ) -> Result<(), String> {
        let settings = FitSettings::default();
        let name = input.shape.name();
        let parent = tracer.begin("replay.fit", op, None);
        let file = std::fs::File::open(&input.csv).map_err(|e| e.to_string())?;
        let schema = input.data.schema();
        let (data, read_ms) = tracer
            .time("data.csv.read_csv", op, Some(parent), || read_csv(schema, BufReader::new(file)));
        let data = data.map_err(|e| e.to_string())?;
        let (engine, new_ms) =
            tracer.time("marginals.engine.new", op, Some(parent), || CountEngine::new(&data));
        let (eps1, eps2) =
            BudgetSplit::new(settings.beta).map_err(|e| e.to_string())?.split(EPSILON);
        let greedy = GreedySettings {
            score: ScoreKind::R,
            epsilon1: Some(eps1),
            max_degree: settings.max_degree,
            threads: settings.threads,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let (network, greedy_ms) = tracer.time("core.greedy", op, Some(parent), || {
            greedy_bayes_adaptive_engine(&engine, settings.theta, eps2, false, &greedy, &mut rng)
        });
        let network = network.map_err(|e| e.to_string())?;
        let (model, conditionals_ms) = tracer.time("core.conditionals", op, Some(parent), || {
            noisy_conditionals_general_engine(&engine, &network, Some(eps2), &mut rng)
        });
        let model = model.map_err(|e| e.to_string())?;
        if model != cli.model {
            problems.push(format!("{name}: the replayed fit differs from the CLI artifact"));
        }
        let artifact = ReleasedModel::new(cli.metadata.clone(), data.schema().clone(), model)
            .map_err(|e| e.to_string())?;
        let path = input.model.with_extension("replay.json");
        let (saved, write_ms) =
            tracer.time("model.artifact.save", op, Some(parent), || artifact.save(&path));
        saved.map_err(|e| e.to_string())?;
        tracer.end(parent);

        // The engine sums its scan time over the scoring threads, so the
        // search's own time is split off a second search on one thread over a
        // fresh engine, where search and scans share one clock. The learned
        // network does not depend on the thread count.
        let single = CountEngine::new(&data);
        let one_thread = GreedySettings { threads: Some(1), ..greedy };
        let (again, one_thread_ms) = tracer.time("core.greedy.one_thread", op, None, || {
            let mut rng = StdRng::seed_from_u64(seed);
            greedy_bayes_adaptive_engine(
                &single,
                settings.theta,
                eps2,
                false,
                &one_thread,
                &mut rng,
            )
        });
        if again.map_err(|e| e.to_string())? != network {
            problems.push(format!("{name}: greedy on one thread learned another network"));
        }
        let single_scan_ms = single.stats().scan_micros as f64 / 1e3;

        self.csv_rows += data.n() as f64;
        self.csv_ms += read_ms;
        self.engine.insert(name, engine.stats());
        self.greedy_self_ms.entry(name).or_default().push(one_thread_ms - single_scan_ms);
        self.conditionals_ms.entry(name).or_default().push(conditionals_ms);
        self.write_ms.push(write_ms);
        let claimed = [read_ms, new_ms, greedy_ms, conditionals_ms, write_ms];
        self.unattributed.entry("fit").or_default().push(stats::unattributed(wall, &claimed));
        Ok(())
    }

    /// Splits one release into artifact parsing (replayed), the registry's
    /// compile-and-swap (from `/metrics`), and the wait for a worker.
    fn attribute_release(
        &mut self,
        tracer: &mut Tracer,
        op: u64,
        text: &str,
        wall: f64,
        before: &Snapshot,
        after: &Snapshot,
    ) -> Result<(), String> {
        let (parsed, parse_ms) = tracer
            .time("model.json.parse_artifact", op, None, || ReleasedModel::from_json_string(text));
        parsed.map_err(|e| e.to_string())?;
        let server =
            delta_ms(after, before, "privbayes_request_seconds_sum", &[("endpoint", "models")]);
        let loads = delta(after, before, "privbayes_alias_build_seconds_count", &[]).max(1.0);
        let load = delta_ms(after, before, "privbayes_alias_build_seconds_sum", &[]) / loads;
        let queue = wall - server;
        self.load_ms.push(load);
        self.queue_ms.push(queue);
        let claimed = [parse_ms, load, queue];
        self.unattributed.entry("release").or_default().push(stats::unattributed(wall, &claimed));
        Ok(())
    }

    fn into_metrics(self, out: &mut BTreeMap<String, f64>) {
        if self.csv_ms > 0.0 {
            out.insert("data.csv.read_rows_per_s".into(), self.csv_rows * 1e3 / self.csv_ms);
        }
        for (name, s) in &self.engine {
            let requests = (s.hits + s.projections + s.scans) as f64;
            out.insert(format!("marginals.engine.scans.{name}"), s.scans as f64);
            out.insert(format!("marginals.engine.projections.{name}"), s.projections as f64);
            out.insert(format!("marginals.engine.hits.{name}"), s.hits as f64);
            let ratio = if requests > 0.0 { s.hits as f64 / requests } else { 0.0 };
            out.insert(format!("marginals.engine.hit_ratio.{name}"), ratio);
            out.insert(
                format!("marginals.engine.bytes_materialized.{name}"),
                s.bytes_materialized as f64,
            );
            out.insert(format!("marginals.engine.scan_ms.{name}"), s.scan_micros as f64 / 1e3);
        }
        for (name, values) in &self.greedy_self_ms {
            out.insert(format!("core.greedy.score_self_ms.{name}"), mean_or_zero(values));
        }
        for (name, values) in &self.conditionals_ms {
            out.insert(format!("core.conditionals.ms.{name}"), mean_or_zero(values));
        }
        out.insert("model.artifact.write_ms".into(), mean_or_zero(&self.write_ms));
        out.insert("server.registry.load_ms".into(), mean_or_zero(&self.load_ms));
        out.insert("server.worker.queue_wait_ms".into(), mean_or_zero(&self.queue_ms));
        for (kind, values) in &self.unattributed {
            out.insert(format!("ops.{kind}.unattributed_ms"), mean_or_zero(values));
        }
    }
}

/// Program work before the first timed fit: bind the server, then publish
/// one small warm-up table the way the loop publishes (CLI fit, then
/// `PUT`).
fn set_up(warmup: &Input, seed: u64) -> Result<(f64, Harness), String> {
    let started = Instant::now();
    let harness = Harness::start(ServerConfig::default())?;
    privbayes_cli::run(warmup.fit_args(seed)).map_err(|e| format!("warm-up fit: {e}"))?;
    let text = std::fs::read(&warmup.model).map_err(|e| e.to_string())?;
    one_shot(harness.addr, "PUT", "/models/warmup", Some(&text), &mut Vec::new())
        .map_err(|e| format!("warm-up release: {e}"))?;
    Ok((started.elapsed().as_secs_f64(), harness))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let generated = Instant::now();
    let inputs = Shape::ALL
        .iter()
        .map(|&shape| Input::write(cfg, shape.name(), shape, shape.generate(cfg.seed)))
        .collect::<Result<Vec<_>, _>>()?;
    let warmup_rows: Vec<usize> = (0..WARMUP_ROWS).collect();
    let warmup =
        Input::write(cfg, "warmup", Shape::Nltcs, inputs[0].data.select_rows(&warmup_rows))?;
    let fit_seed = mix(cfg.seed, 0xF17) >> 11;
    let input_gen_s = generated.elapsed().as_secs_f64();

    let (secs, harness) = set_up(&warmup, fit_seed)?;
    let mut setups = vec![secs];
    let mut buf = Vec::new();
    let mut session = Session::new(harness.addr);

    let mut tracer = Tracer::new();
    let mut ops = OpLog::default();
    let mut problems = Vec::new();
    let mut layers = Layers::default();
    let mut fit_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut release_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut rounds: Vec<(bool, f64)> = Vec::new();
    let mut requests = harness.scrape().sum(REQUESTS);
    let mut op = 0u64;
    reset_peak_rss()?;
    for round in 0..ROUNDS {
        let traced = cfg.trace && round % 2 == 1;
        let mut round_ms = 0.0;
        let mut fitted = Vec::with_capacity(inputs.len());
        for input in &inputs {
            for _ in 0..SETUPS_PER_FIT {
                let (secs, extra) = set_up(&warmup, fit_seed)?;
                setups.push(secs);
                extra.stop()?;
            }
            op += 1;
            let started = Instant::now();
            let result = privbayes_cli::run(input.fit_args(fit_seed));
            let ms = started.elapsed().as_secs_f64() * 1e3;
            if ops.record("fit", ms, result).is_none() {
                continue;
            }
            round_ms += ms;
            fit_ms.entry(input.shape.name()).or_default().push(ms);
            let text = std::fs::read_to_string(&input.model)
                .map_err(|e| format!("{}: {e}", input.model.display()))?;
            if traced {
                let cli = ReleasedModel::from_json_string(&text).map_err(|e| e.to_string())?;
                layers.replay_fit(&mut tracer, op, input, fit_seed, ms, &cli, &mut problems)?;
            }
            fitted.push((input.shape.name(), text));
        }

        for _ in 0..RELEASES_PER_FIT {
            for (name, text) in &fitted {
                op += 1;
                let before = traced.then(|| harness.scrape_after(requests));
                let path = format!("/models/{name}");
                let started = Instant::now();
                let result = session.send("PUT", &path, Some(text.as_bytes()), &mut buf);
                let ms = started.elapsed().as_secs_f64() * 1e3;
                requests += 1.0;
                if ops.record("release", ms, result).is_none() {
                    requests = harness.scrape().sum(REQUESTS);
                    continue;
                }
                release_ms.entry(name).or_default().push(ms);
                if let Some(before) = before {
                    let after = harness.scrape_after(requests);
                    layers.attribute_release(&mut tracer, op, text, ms, &before, &after)?;
                }
            }
        }
        rounds.push((traced, round_ms));
    }
    let peak_rss = peak_rss_mb();

    // Output checks: each CLI artifact equals `fit_method`'s for the same
    // data and seed, and each released model streams its batch sampler's
    // bytes.
    let mut seeds = Seeds::new(cfg.seed, 0x9B11);
    for input in &inputs {
        let name = input.shape.name();
        let released = ReleasedModel::load(&input.model).map_err(|e| e.to_string())?;
        let direct =
            fit_method(Method::PrivBayes, &input.data, EPSILON, fit_seed, &FitSettings::default())
                .map_err(|e| format!("{name}: {e}"))?;
        if released != direct.artifact {
            problems.push(format!("{name}: the CLI artifact differs from fit_method's"));
        }
        let seed = seeds.draw();
        let spec = SynthSpec::new().with_rows(CHECK_ROWS).with_seed(seed);
        let spec = spec.to_json().to_string_compact().map_err(|e| e.to_string())?;
        let path = format!("/v1/models/{name}/synth");
        if let Err(e) = session.send("POST", &path, Some(spec.as_bytes()), &mut buf) {
            problems.push(format!("{name}: the check stream failed: {e}"));
            continue;
        }
        let sampler = released.model.compile(&released.schema).map_err(|e| e.to_string())?;
        let expected = sampler
            .sample_dataset(CHECK_ROWS, None, &mut StdRng::seed_from_u64(seed))
            .map_err(|e| e.to_string())?;
        if rendered(RowFormat::Csv, &expected) != buf {
            problems.push(format!(
                "{name}: the released model's stream differs from its batch sampler"
            ));
        }
    }
    drop(session);
    harness.stop()?;

    let mut out = Outcome { ops, problems, ..Outcome::default() };
    let mut detail = BTreeMap::new();
    describe(&mut detail, "fit", out.ops.times("fit"));
    describe(&mut detail, "release", out.ops.times("release"));
    // Every round fits and releases the same four tables, so a table's
    // typical fit time is its median over the rounds; a fit takes long
    // enough to span both host speeds.
    let (mut rows, mut fit_total, mut binary_ms, mut general_ms, mut release_total) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for input in &inputs {
        let name = input.shape.name();
        let fits = fit_ms.get(name).ok_or_else(|| format!("no {name} fit succeeded"))?;
        let puts = release_ms.get(name).ok_or_else(|| format!("no {name} release succeeded"))?;
        describe(&mut detail, &format!("fit.{name}"), fits);
        describe(&mut detail, &format!("release.{name}"), puts);
        let typical = stats::median(fits);
        rows += input.data.n() as f64;
        fit_total += typical;
        release_total += gated_percentile(name, puts, RELEASE_PERCENTILE)?;
        if input.shape.binary() {
            binary_ms += typical;
        } else {
            general_ms += typical;
        }
    }
    detail.insert("fit_binary_ms".into(), binary_ms);
    detail.insert("fit_general_ms".into(), general_ms);
    detail.insert("rounds".into(), rounds.len() as f64);
    detail.insert("input_gen_s".into(), input_gen_s);
    describe(&mut detail, "setup", &setups.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    out.detail = detail;
    out.e2e.insert("setup_s", stats::median(&setups));
    out.e2e.insert("peak_rss_mb", peak_rss);
    out.e2e.insert("rows_per_s", rows * 1e3 / fit_total);
    out.e2e.insert("op_ms", release_total);

    if cfg.trace {
        layers.into_metrics(&mut out.layers);
        out.layers.insert("trace.overhead_pct".into(), overhead_pct(&rounds));
        write_trace(cfg, &tracer)?;
    }
    out.env = vec![
        ("server_workers", ServerConfig::default().workers.to_string()),
        ("fit_threads", "\"default (available parallelism)\"".to_string()),
        ("flush_policy", "\"artifact written by the CLI, no fsync\"".to_string()),
        ("clients", "1".to_string()),
    ];
    Ok(out)
}
