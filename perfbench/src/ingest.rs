//! `ingest`: a tenant grows an NLTCS-shaped table (21,574 × 16, binary) from
//! empty through `POST /v1/tenants/{t}/ingest` into a journaled data
//! directory, with the program's own fsync per batch.
//!
//! Batches follow a fixed sequence — nineteen 100-row batches, then one
//! 2,000-row batch, repeated — each on a fresh connection. A background
//! refit, charged to the ledger, runs every 4,000 rows, and every tenth batch
//! the client reads 2,048 rows of the newest generation over its kept-alive
//! connection. A cycle takes one tenant from empty to the whole table on a
//! freshly started server; a run is a fixed number of cycles.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use privbayes::conditionals::NoisyModel;
use privbayes_data::csv::write_csv;
use privbayes_data::{Dataset, Schema};
use privbayes_marginals::CountEngine;
use privbayes_model::{schema_to_json, Json};
use privbayes_server::{
    parse_batch, BatchFormat, Cursor, DatasetStore, GenerationLookup, ModelEntry, ModelRegistry,
    RefitPolicy, RefitSpec, ServerConfig, Snapshot,
};
use privbayes_synth::{
    fit_method, fit_method_with_engine, FitSettings, Method, RowFormat, SynthSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{delta, delta_ms, Harness, REQUESTS};
use crate::http::{one_shot, Session};
use crate::inputs::{mix, rendered, Seeds, Shape};
use crate::report::{
    describe, mean_or_zero, peak_rss_mb, reset_peak_rss, write_trace, OpLog, Outcome,
};
use crate::stats::{self, overhead_pct};
use crate::trace::Tracer;
use crate::{replay, RunConfig};

/// Batches per block of the sequence: nineteen small, then one large.
const BLOCK: usize = 20;
const SMALL: usize = 100;
const LARGE: usize = 2_000;
const READ_EVERY: usize = 10;
const READ_ROWS: usize = 2_048;
const REFIT_ROWS: u64 = 4_000;
const REFIT_EPSILON: f64 = 1.0;
const BUDGET: f64 = 1e6;
/// Cycles per run. A cycle takes about eleven seconds on two vCPUs; whole
/// cycles, unlike a time limit, give every batch position the same number of
/// repeats.
const CYCLES: usize = 3;
/// Set-ups before the first cycle. Beside them and each cycle's own, a spare
/// instance is set up and stopped before every `SETUP_EVERY`-th batch, so the
/// run's 93 set-ups sample all of it. `setup_s` is their median: a set-up
/// here is a few milliseconds, and its 90th percentile is set by the slowest
/// directory fsyncs, which spread by a quarter to a third of the median
/// between runs.
const EXTRA_SETUPS: usize = 3;
const SETUP_EVERY: usize = 4;
/// How long a read waits for the tenant's first generation.
const FIRST_GENERATION_WAIT: Duration = Duration::from_secs(60);
/// The warm-up tenant each set-up journals one batch for.
const WARMUP_PATH: &str = "/v1/tenants/warmup/ingest";
const WARMUP_MODEL: &str = "warmup";

/// The batch sequence over `n` rows: each batch's rows and kind. The last
/// block's large slot carries whatever rows remain.
fn batches(n: usize) -> Vec<(Range<usize>, &'static str)> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < n {
        let large = out.len() % BLOCK == BLOCK - 1;
        let (size, kind) = if large { (LARGE, "batch2000") } else { (SMALL, "batch100") };
        let end = (start + size).min(n);
        out.push((start..end, kind));
        start = end;
    }
    out
}

fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        refit: RefitPolicy { min_rows: REFIT_ROWS, max_staleness: None },
        ..ServerConfig::default()
    }
}

/// Everything the tenant sends, rendered once per run.
struct Inputs {
    data: Dataset,
    batches: Vec<(Range<usize>, &'static str)>,
    /// CSV text of each batch.
    csv: Vec<String>,
    /// Request body of each batch after the first (the first also carries
    /// the schema and the refit target, which name the cycle's model).
    bodies: Vec<Vec<u8>>,
    refit_seed: u64,
}

impl Inputs {
    fn new(seed: u64) -> Result<Self, String> {
        let data = Shape::Nltcs.generate(seed);
        let batches = batches(data.n());
        let mut csv = Vec::with_capacity(batches.len());
        for (rows, _) in &batches {
            let mut text = Vec::new();
            write_csv(&data.select_rows(&rows.clone().collect::<Vec<_>>()), &mut text)
                .map_err(|e| e.to_string())?;
            csv.push(String::from_utf8(text).map_err(|e| e.to_string())?);
        }
        let bodies =
            csv.iter().map(|text| body(vec![("csv", Json::String(text.clone()))])).collect();
        Ok(Self { data, batches, csv, bodies, refit_seed: mix(seed, 0x4EF1) >> 32 })
    }

    fn spec(&self, model: &str) -> RefitSpec {
        RefitSpec {
            model_id: model.to_string(),
            method: Method::PrivBayes,
            epsilon: REFIT_EPSILON,
            seed: self.refit_seed,
        }
    }

    fn first_body(&self, model: &str) -> Vec<u8> {
        body(vec![
            ("schema", schema_to_json(self.data.schema())),
            ("model_id", Json::String(model.to_string())),
            ("epsilon", Json::Number(REFIT_EPSILON)),
            ("seed", Json::Number(self.refit_seed as f64)),
            ("csv", Json::String(self.csv[0].clone())),
        ])
    }
}

fn body(fields: Vec<(&str, Json)>) -> Vec<u8> {
    Json::object(fields).to_string_compact().expect("batch bodies are finite").into_bytes()
}

/// Notes when each new generation of one model becomes visible in the
/// registry.
struct Monitor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<Vec<(Instant, Arc<ModelEntry>)>>>,
}

impl Monitor {
    fn spawn(registry: Arc<ModelRegistry>, model: String) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut seen: Vec<(Instant, Arc<ModelEntry>)> = Vec::new();
            while !flag.load(Ordering::SeqCst) {
                if let Some(entry) = registry.get(&model) {
                    if !matches!(seen.last(), Some((_, e)) if e.generation == entry.generation) {
                        seen.push((Instant::now(), entry));
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            seen
        });
        Self { stop, handle: Some(handle) }
    }

    fn finish(mut self) -> Vec<(Instant, Arc<ModelEntry>)> {
        self.stop.store(true, Ordering::SeqCst);
        let handle = self.handle.take().expect("finished once");
        handle.join().expect("registry monitor panicked")
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The traced run's shadows of the server's ingest path: a journaled store,
/// an in-memory store and a bare engine, fed the same batches and warmed by
/// fits at the same row counts as the server's refits.
struct Shadows {
    dir: PathBuf,
    journaled: DatasetStore,
    memory: DatasetStore,
    engine: CountEngine,
    warmed_rows: u64,
}

impl Shadows {
    fn new(dir: PathBuf, schema: &Schema) -> Result<Self, String> {
        let journaled = DatasetStore::open(&dir).map_err(|e| e.to_string())?;
        let engine = CountEngine::new(&Dataset::empty(schema.clone()));
        Ok(Self { dir, journaled, memory: DatasetStore::in_memory(), engine, warmed_rows: 0 })
    }
}

/// Per-layer sums over the traced operations.
#[derive(Default)]
struct Layers {
    parse_ms: BTreeMap<&'static str, Vec<f64>>,
    parse_bytes: BTreeMap<&'static str, Vec<f64>>,
    csv_rows: f64,
    csv_ms: f64,
    journal_ms: Vec<f64>,
    journal_bytes: Vec<f64>,
    append_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    sampler_rows: f64,
    sampler_ms: f64,
    render_ms: f64,
    render_bytes: f64,
    http_write_ms: Vec<f64>,
    unattributed: BTreeMap<&'static str, Vec<f64>>,
}

/// Figures of one cycle.
#[derive(Default)]
struct Cycle {
    rows: f64,
    ack_ms: f64,
    /// Acknowledgement time of each batch, by its position in the sequence.
    acks: Vec<f64>,
    visible_ms: Vec<f64>,
    cached_tables: f64,
    refits: f64,
    fit_ms: f64,
    load_ms: f64,
    charges: f64,
    reused: f64,
    traced: bool,
}

struct Run<'a> {
    cfg: &'a RunConfig,
    inputs: &'a Inputs,
    ops: OpLog,
    problems: Vec<String>,
    tracer: Tracer,
    layers: Layers,
    seeds: Seeds,
    /// Every set-up's seconds, in run order.
    setups: Vec<f64>,
    /// Cold fits by row-prefix length, each made once per run: a refit of
    /// the same prefix with the same seed must give the same model in any
    /// cycle.
    cold: BTreeMap<usize, NoisyModel>,
    generations_checked: usize,
    op: u64,
}

/// Program work before a cycle's first timed batch: start a server over a
/// fresh data directory (store open), register the tenant's budget, and
/// journal one warm-up batch for a separate tenant.
fn set_up(dir: &Path, tenant: &str, inputs: &Inputs) -> Result<(f64, Harness), String> {
    let started = Instant::now();
    let harness = Harness::start(config(dir))?;
    let mut buf = Vec::new();
    one_shot(harness.addr, "PUT", &format!("/tenants/{tenant}?budget={BUDGET}"), None, &mut buf)
        .map_err(|e| format!("register tenant: {e}"))?;
    let warmup = inputs.first_body(WARMUP_MODEL);
    one_shot(harness.addr, "POST", WARMUP_PATH, Some(&warmup), &mut buf)
        .map_err(|e| format!("warm-up: {e}"))?;
    Ok((started.elapsed().as_secs_f64(), harness))
}

impl Run<'_> {
    fn cycle(&mut self, index: usize, traced: bool) -> Result<Cycle, String> {
        let inputs = self.inputs;
        let dir = self.cfg.work.join(format!("cycle{index}"));
        let (tenant, model) = (format!("t{index}"), format!("m{index}"));
        let (setup_s, harness) = set_up(&dir, &tenant, inputs)?;
        self.setups.push(setup_s);
        let mut cycle = Cycle { traced, ..Cycle::default() };
        let schema = inputs.data.schema().clone();
        let spec = inputs.spec(&model);
        let mut shadows = if traced {
            Some(Shadows::new(self.cfg.work.join(format!("shadow{index}")), &schema)?)
        } else {
            None
        };
        let monitor = Monitor::spawn(Arc::clone(&harness.registry), model.clone());
        let mut session = Session::new(harness.addr);
        let start = harness.scrape();
        let mut requests = start.sum(REQUESTS);
        let mut before = traced.then(|| start.clone());
        let mut acks: Vec<(Instant, u64)> = Vec::new();
        let mut reads: Vec<(u64, Arc<ModelEntry>, Vec<u8>)> = Vec::new();
        let mut buf = Vec::new();
        let ingest_path = format!("/v1/tenants/{tenant}/ingest");
        let read_path = format!("/v1/models/{model}/synth");
        let first_body = inputs.first_body(&model);
        for (i, (rows, kind)) in inputs.batches.iter().enumerate() {
            let kind = *kind;
            if i > 0 && i % SETUP_EVERY == 0 {
                self.spare_set_up(index, i)?;
            }
            self.op += 1;
            let body = if i == 0 { &first_body } else { &inputs.bodies[i] };
            let started = Instant::now();
            let result = one_shot(harness.addr, "POST", &ingest_path, Some(body), &mut buf);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let acked = Instant::now();
            requests += 1.0;
            if self.ops.record(kind, ms, result).is_none() {
                return Err(format!(
                    "batch {i} was not acknowledged; the tenant's table is incomplete"
                ));
            }
            cycle.rows += rows.len() as f64;
            cycle.ack_ms += ms;
            cycle.acks.push(ms);
            let total =
                receipt_total(&buf).ok_or_else(|| format!("batch {i}: unreadable receipt"))?;
            acks.push((acked, total));
            if let (Some(shadows), Some(previous)) = (shadows.as_mut(), before.take()) {
                let after = harness.scrape_after(requests);
                let first = (i == 0).then_some(&spec);
                self.attribute_batch(
                    shadows, &tenant, i, kind, body, first, ms, &previous, &after,
                )?;
                before = Some(after);
            }

            if (i + 1) % READ_EVERY != 0 || total < REFIT_ROWS {
                continue;
            }
            wait_for_model(&harness.registry, &model)?;
            self.op += 1;
            let seed = self.seeds.draw();
            let read = SynthSpec::new().with_rows(READ_ROWS).with_seed(seed);
            let read = read.to_json().to_string_compact().expect("finite spec").into_bytes();
            let started = Instant::now();
            let result = session.send("POST", &read_path, Some(&read), &mut buf);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            requests += 1.0;
            let Some(reply) = self.ops.record("read", ms, result) else {
                before = traced.then(|| harness.scrape());
                requests = before.as_ref().map_or(requests, |s| s.sum(REQUESTS));
                continue;
            };
            let entry = reply
                .header("x-privbayes-cursor")
                .and_then(|token| Cursor::decode(token).ok())
                .and_then(|cursor| cursor.generation)
                .and_then(|g| match harness.registry.get_generation(&model, g) {
                    GenerationLookup::Found(entry) => Some(entry),
                    _ => None,
                })
                .ok_or_else(|| format!("read {i}: served generation unknown"))?;
            if let Some(previous) = before.take() {
                let after = harness.scrape_after(requests);
                self.attribute_read(&entry, seed, ms, &buf, &previous, &after)?;
                before = Some(after);
            }
            if index == 0 {
                reads.push((seed, entry, buf.clone()));
            }
        }
        let end = harness.scrape_after(requests);
        cycle.cached_tables = harness
            .store
            .with_engine(&tenant, |engine| engine.stats().cached_tables as f64)
            .unwrap_or(0.0);
        let generations = monitor.finish();
        drop(session);
        harness.stop()?;

        let counter = |name: &str, labels: &[(&str, &str)]| delta(&end, &start, name, labels);
        cycle.refits = counter("privbayes_refits_total", &[("status", "ok")]);
        cycle.fit_ms = per_observation(&end, &start, "privbayes_fit_seconds");
        cycle.load_ms = per_observation(&end, &start, "privbayes_alias_build_seconds");
        cycle.charges =
            counter("privbayes_tenant_epsilon_spent", &[("tenant", &tenant)]) / REFIT_EPSILON;
        cycle.reused = counter("privbayes_connections_reused_total", &[]);
        cycle.visible_ms = visible_ms(&acks, &generations);

        // Output checks: the journal reopens to exactly the sent rows, the
        // reads match their generation's batch sampler, and refit
        // generations match cold fits over their row prefix.
        self.check_journal(&dir, &tenant)?;
        for (seed, entry, body) in &reads {
            let sampler = entry.sampler().map_err(|e| e.to_string())?;
            let expected = sampler
                .sample_dataset(READ_ROWS, None, &mut StdRng::seed_from_u64(*seed))
                .map_err(|e| e.to_string())?;
            if rendered(RowFormat::Csv, &expected) != *body {
                self.problems.push(format!(
                    "read (seed {seed}) of generation {} differs from its batch sampler",
                    entry.generation
                ));
            }
        }
        for (_, entry) in generations {
            self.check_generation(&entry)?;
        }
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(shadows) = shadows {
            let _ = std::fs::remove_dir_all(&shadows.dir);
        }
        Ok(cycle)
    }

    #[allow(clippy::too_many_arguments)]
    fn attribute_batch(
        &mut self,
        shadows: &mut Shadows,
        tenant: &str,
        index: usize,
        kind: &'static str,
        body: &[u8],
        first: Option<&RefitSpec>,
        wall: f64,
        before: &Snapshot,
        after: &Snapshot,
    ) -> Result<(), String> {
        let op = self.op;
        let inputs = self.inputs;
        let tracer = &mut self.tracer;
        let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
        let parent = tracer.begin("replay.ingest", op, None);
        let (json, parse_ms) =
            tracer.time("model.json.parse", op, Some(parent), || Json::parse(text));
        json.map_err(|e| e.to_string())?;
        let schema = shadows.engine.schema().clone();
        let csv = &inputs.csv[index];
        let (batch, csv_ms) = tracer.time("server.ingest.parse_batch", op, Some(parent), || {
            parse_batch(&schema, BatchFormat::Csv, csv)
        });
        let batch = batch.map_err(|e| e.to_string())?;
        let (journaled, journaled_ms) =
            tracer.time("server.ingest.append_journaled", op, Some(parent), || {
                shadows.journaled.append(tenant, &batch, first)
            });
        journaled.map_err(|e| e.to_string())?;
        let (memory, memory_ms) =
            tracer.time("server.ingest.append_memory", op, Some(parent), || {
                shadows.memory.append(tenant, &batch, first)
            });
        memory.map_err(|e| e.to_string())?;
        let ((), append_ms) = tracer
            .time("marginals.engine.append", op, Some(parent), || shadows.engine.append(&batch));
        tracer.end(parent);
        let journal = shadows.dir.join(format!("{tenant}.dataset.json"));
        let journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len()) as f64;

        // The server's refits fill its engine's table cache, which every
        // later append advances; fit the shadows at the same row counts.
        if shadows.engine.n() as u64 >= shadows.warmed_rows + REFIT_ROWS {
            shadows.warmed_rows = shadows.engine.n() as u64;
            let settings = FitSettings::default();
            let seed = inputs.refit_seed;
            let fit = |engine: &CountEngine| {
                fit_method_with_engine(Method::PrivBayes, engine, REFIT_EPSILON, seed, &settings)
                    .map(drop)
                    .map_err(|e| e.to_string())
            };
            fit(&shadows.engine)?;
            for store in [&shadows.journaled, &shadows.memory] {
                store.with_engine(tenant, &fit).ok_or("shadow tenant missing")??;
            }
        }

        let server =
            delta_ms(after, before, "privbayes_request_seconds_sum", &[("endpoint", "ingest")]);
        let queue = wall - server;
        let layers = &mut self.layers;
        layers.parse_ms.entry(kind).or_default().push(parse_ms);
        layers.parse_bytes.entry(kind).or_default().push(body.len() as f64);
        layers.csv_rows += batch.n() as f64;
        layers.csv_ms += csv_ms;
        layers.journal_ms.push(journaled_ms - memory_ms);
        layers.journal_bytes.push(journal_bytes);
        layers.append_ms.push(append_ms);
        layers.queue_ms.push(queue);
        let claimed = [parse_ms, csv_ms, journaled_ms, queue];
        layers.unattributed.entry(kind).or_default().push(stats::unattributed(wall, &claimed));
        Ok(())
    }

    fn attribute_read(
        &mut self,
        entry: &ModelEntry,
        seed: u64,
        wall: f64,
        body: &[u8],
        before: &Snapshot,
        after: &Snapshot,
    ) -> Result<(), String> {
        let sampler = entry.sampler().map_err(|e| e.to_string())?;
        let spec = privbayes::SampleSpec::rows(READ_ROWS);
        let run = replay::stream(&mut self.tracer, self.op, sampler, &spec, seed, RowFormat::Csv)?;
        if run.bytes != body {
            self.problems.push(format!("read (seed {seed}) differs from its replay"));
        }
        let server =
            delta_ms(after, before, "privbayes_request_seconds_sum", &[("endpoint", "synth")]);
        let stage =
            |name: &str| delta_ms(after, before, "privbayes_stage_seconds_sum", &[("stage", name)]);
        let queue = wall - server;
        let http_write = stage("write") - run.render_ms;
        let other = stage("parse") + stage("lookup") + stage("ledger");
        let layers = &mut self.layers;
        layers.sampler_rows += run.rows as f64;
        layers.sampler_ms += run.sampler_ms;
        layers.render_ms += run.render_ms;
        layers.render_bytes += run.bytes.len() as f64;
        layers.http_write_ms.push(http_write);
        layers.queue_ms.push(queue);
        let claimed = [run.sampler_ms, run.render_ms, http_write, other, queue];
        layers.unattributed.entry("read").or_default().push(stats::unattributed(wall, &claimed));
        Ok(())
    }

    /// Sets up and stops a spare instance in the middle of a cycle, so the
    /// set-ups sample the whole run.
    fn spare_set_up(&mut self, cycle: usize, batch: usize) -> Result<(), String> {
        let dir = self.cfg.work.join(format!("spare{cycle}-{batch}"));
        let (secs, harness) = set_up(&dir, "t", self.inputs)?;
        self.setups.push(secs);
        harness.stop()?;
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    fn check_journal(&mut self, dir: &Path, tenant: &str) -> Result<(), String> {
        let store = DatasetStore::open(dir).map_err(|e| format!("reopen journal: {e}"))?;
        let data = &self.inputs.data;
        let same = store
            .with_engine(tenant, |engine| {
                engine.n() == data.n() && (0..data.d()).all(|a| engine.column(a) == data.column(a))
            })
            .unwrap_or(false);
        if !same {
            self.problems
                .push(format!("tenant {tenant}'s reopened journal differs from the sent rows"));
        }
        Ok(())
    }

    fn check_generation(&mut self, entry: &ModelEntry) -> Result<(), String> {
        let rows = entry.artifact.metadata.source_rows;
        if !self.cold.contains_key(&rows) {
            let prefix = self.inputs.data.select_rows(&(0..rows).collect::<Vec<_>>());
            let cold = fit_method(
                Method::PrivBayes,
                &prefix,
                REFIT_EPSILON,
                self.inputs.refit_seed,
                &FitSettings::default(),
            )
            .map_err(|e| format!("cold fit: {e}"))?;
            self.cold.insert(rows, cold.artifact.model);
        }
        self.generations_checked += 1;
        if self.cold[&rows] != entry.artifact.model {
            self.problems.push(format!(
                "refit generation {} over {rows} rows differs from a cold fit",
                entry.generation
            ));
        }
        Ok(())
    }
}

/// `total_rows` of an ingest receipt.
fn receipt_total(body: &[u8]) -> Option<u64> {
    let json = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    json.get("total_rows")?.as_usize().map(|n| n as u64)
}

fn wait_for_model(registry: &ModelRegistry, model: &str) -> Result<(), String> {
    let deadline = Instant::now() + FIRST_GENERATION_WAIT;
    while registry.get(model).is_none() {
        if Instant::now() >= deadline {
            return Err(format!("model {model} never appeared"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// Mean of a histogram's new observations, in ms (0 when none).
fn per_observation(after: &Snapshot, before: &Snapshot, histogram: &str) -> f64 {
    let count = delta(after, before, &format!("{histogram}_count"), &[]);
    let sum = delta_ms(after, before, &format!("{histogram}_sum"), &[]);
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

/// For each refit generation, the time from the acknowledgement of the batch
/// that crossed its row threshold to the generation being served.
fn visible_ms(acks: &[(Instant, u64)], generations: &[(Instant, Arc<ModelEntry>)]) -> Vec<f64> {
    let mut out = Vec::new();
    let mut covered = 0u64;
    for (seen, entry) in generations {
        let threshold = covered + REFIT_ROWS;
        if let Some((acked, _)) = acks.iter().find(|(_, total)| *total >= threshold) {
            out.push(seen.saturating_duration_since(*acked).as_secs_f64() * 1e3);
        }
        covered = entry.artifact.metadata.source_rows as u64;
    }
    out
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let generated = Instant::now();
    let inputs = Inputs::new(cfg.seed)?;
    let input_gen_s = generated.elapsed().as_secs_f64();

    let mut setups = Vec::new();
    for i in 0..EXTRA_SETUPS {
        let (secs, harness) = set_up(&cfg.work.join(format!("setup{i}")), "t", &inputs)?;
        setups.push(secs);
        harness.stop()?;
    }
    let mut run = Run {
        cfg,
        inputs: &inputs,
        ops: OpLog::default(),
        problems: Vec::new(),
        tracer: Tracer::new(),
        layers: Layers::default(),
        seeds: Seeds::new(cfg.seed, 0x4EAD),
        setups,
        cold: BTreeMap::new(),
        generations_checked: 0,
        op: 0,
    };
    let mut cycles: Vec<Cycle> = Vec::with_capacity(CYCLES);
    reset_peak_rss()?;
    for index in 0..CYCLES {
        let traced = cfg.trace && index % 2 == 0;
        cycles.push(run.cycle(index, traced)?);
    }
    let peak_rss = peak_rss_mb();

    let Run { ops, mut problems, tracer, layers, setups, generations_checked, .. } = run;
    if generations_checked == 0 {
        problems.push("no refit generation was served".to_string());
    }
    let mut out = Outcome { ops, problems, ..Outcome::default() };
    let mut detail = BTreeMap::new();
    for kind in ["batch100", "batch2000", "read"] {
        describe(&mut detail, kind, out.ops.times(kind));
    }
    let rows: f64 = cycles.iter().map(|c| c.rows).sum();
    let ack_ms: f64 = cycles.iter().map(|c| c.ack_ms).sum();
    let cycle_rates: Vec<f64> = cycles.iter().map(|c| c.rows * 1e3 / c.ack_ms).collect();
    let small = out.ops.require("batch100")?;
    // Every cycle sends the same batches at the same tenant sizes, so a
    // position does the same work in each; its typical time is taken over
    // the cycles. A 100-row acknowledgement grows with the table, so `op_ms`
    // averages the typical times of every 100-row position: their median
    // would rest on the few positions in the middle of the table.
    let acks: Vec<Vec<f64>> = cycles.iter().map(|c| c.acks.clone()).collect();
    let typical = stats::per_position(&acks, stats::median);
    let typical_small: Vec<f64> = (0..typical.len())
        .filter(|&i| inputs.batches[i].1 == "batch100")
        .map(|i| typical[i])
        .collect();
    let typical_rows_per_s = inputs.data.n() as f64 * 1e3 / typical.iter().sum::<f64>();
    let typical_small_ms = stats::mean(&typical_small);
    let visible: Vec<f64> = cycles.iter().flat_map(|c| c.visible_ms.iter().copied()).collect();
    let per_cycle = |f: fn(&Cycle) -> f64| mean_or_zero(&cycles.iter().map(f).collect::<Vec<_>>());
    detail.insert("ingest_rows_per_s".into(), rows * 1e3 / ack_ms);
    detail.insert("ingest_rows_per_s.cycle_median".into(), stats::median(&cycle_rates));
    detail.insert("ingest_ms_p50".into(), stats::percentile(small, 50));
    detail.insert("cycles".into(), cycles.len() as f64);
    detail.insert("generations_checked".into(), generations_checked as f64);
    detail.insert("input_gen_s".into(), input_gen_s);
    detail.insert("server.refit.count".into(), per_cycle(|c| c.refits));
    detail.insert("server.refit.fit_ms".into(), per_cycle(|c| c.fit_ms));
    detail.insert("server.refit.visible_ms".into(), mean_or_zero(&visible));
    detail.insert("server.ledger.charges".into(), per_cycle(|c| c.charges));
    detail.insert("marginals.engine.cached_tables".into(), per_cycle(|c| c.cached_tables));
    describe(&mut detail, "setup", &setups.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    out.detail = detail;
    out.e2e.insert("setup_s", stats::median(&setups));
    out.e2e.insert("peak_rss_mb", peak_rss);
    out.e2e.insert("rows_per_s", typical_rows_per_s);
    out.e2e.insert("op_ms", typical_small_ms);

    if cfg.trace {
        let l = &mut out.layers;
        for (kind, values) in &layers.parse_ms {
            l.insert(format!("model.json.parse_ms.{kind}"), mean_or_zero(values));
        }
        for (kind, values) in &layers.parse_bytes {
            l.insert(format!("model.json.parse_bytes.{kind}"), mean_or_zero(values));
        }
        let rate = |rows: f64, ms: f64| if ms > 0.0 { rows * 1e3 / ms } else { 0.0 };
        l.insert("data.csv.read_rows_per_s".into(), rate(layers.csv_rows, layers.csv_ms));
        l.insert("server.ingest.journal_ms".into(), mean_or_zero(&layers.journal_ms));
        l.insert(
            "server.ingest.journal_bytes_per_batch".into(),
            mean_or_zero(&layers.journal_bytes),
        );
        l.insert("marginals.engine.append_ms".into(), mean_or_zero(&layers.append_ms));
        l.insert("server.worker.queue_wait_ms".into(), mean_or_zero(&layers.queue_ms));
        l.insert("core.sampler.rows_per_s".into(), rate(layers.sampler_rows, layers.sampler_ms));
        l.insert("synth.render.csv_rows_per_s".into(), rate(layers.sampler_rows, layers.render_ms));
        if layers.sampler_rows > 0.0 {
            l.insert(
                "synth.render.csv_bytes_per_row".into(),
                layers.render_bytes / layers.sampler_rows,
            );
        }
        l.insert("server.http.write_ms".into(), mean_or_zero(&layers.http_write_ms));
        for (kind, values) in &layers.unattributed {
            l.insert(format!("ops.{kind}.unattributed_ms"), mean_or_zero(values));
        }
        l.insert("marginals.engine.cached_tables".into(), per_cycle(|c| c.cached_tables));
        l.insert("server.refit.count".into(), per_cycle(|c| c.refits));
        l.insert("server.refit.fit_ms".into(), per_cycle(|c| c.fit_ms));
        l.insert("server.refit.visible_ms".into(), mean_or_zero(&visible));
        l.insert("server.ledger.charges".into(), per_cycle(|c| c.charges));
        l.insert("server.registry.load_ms".into(), per_cycle(|c| c.load_ms));
        l.insert("server.worker.connections_reused".into(), per_cycle(|c| c.reused));
        let rounds: Vec<(bool, f64)> =
            cycles.iter().map(|c| (c.traced, c.ack_ms / c.rows * 1e3)).collect();
        l.insert("trace.overhead_pct".into(), overhead_pct(&rounds));
        write_trace(cfg, &tracer)?;
    }
    out.env = vec![
        ("server_workers", ServerConfig::default().workers.to_string()),
        ("flush_policy", "\"journal: write temp, fsync, rename, fsync dir per batch\"".to_string()),
        ("clients", "1".to_string()),
    ];
    Ok(out)
}
