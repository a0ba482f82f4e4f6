//! `stream`: an analyst pulls fresh synthetic data from a released Adult
//! model (45,222 × 15; labelled columns plus `v{code}` columns) over one
//! kept-alive connection.
//!
//! A round interleaves every request kind, so each kind sees the same share
//! of the host's slow periods: full-width CSV and JSONL streams of 20,000
//! rows, 20,000-row cohorts with evidence on a network root (exact clamp),
//! 2,000-row cohorts with evidence on an inner attribute
//! (likelihood-weighted), and 2-way marginal queries taken in turn from every
//! pair θ-projection answers. Every stream has its own seed, which keeps the
//! row-block cache on its miss path.

use std::collections::BTreeMap;
use std::time::Instant;

use privbayes::conditionals::NoisyModel;
use privbayes::inference::{theta_projection, DEFAULT_CELL_CAP};
use privbayes::{CompiledSampler, SampleSpec};
use privbayes_bench::reference::reference_theta_projection;
use privbayes_data::{Dataset, Schema};
use privbayes_model::{Json, ReleasedModel};
use privbayes_server::{ServerConfig, Snapshot};
use privbayes_synth::{fit_method, FitSettings, MarginalQuery, Method, RowFormat, SynthSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::{delta, delta_ms, Harness, REQUESTS};
use crate::http::Session;
use crate::inputs::{rendered, Seeds, Shape};
use crate::report::{
    describe, gated_block_percentile, gated_percentile, mean_or_zero, peak_rss_mb,
    reset_peak_rss, write_trace, OpLog, Outcome,
};
use crate::stats::{self, MixPart};
use crate::trace::Tracer;
use crate::{replay, RunConfig};

const MODEL: &str = "/models/adult";
const SYNTH: &str = "/v1/models/adult/synth";
const QUERY: &str = "/v1/models/adult/query";
/// Rows of a full-width stream and of a root cohort.
const STREAM_ROWS: usize = 20_000;
/// Rows of an inner-attribute cohort.
const INNER_ROWS: usize = 2_000;
const WARMUP_ROWS: usize = 1_024;
const WARMUP_SEED: u64 = 7;
/// Rounds per run, so every request kind has at least 100 samples and ten
/// beyond its 90th percentile. A round takes about a third of a second on
/// two vCPUs; a fixed count, unlike a time limit, gives every run the same
/// number of requests. After every round a second instance is set up and
/// stopped, so the set-ups sample the whole run.
const ROUNDS: usize = 100;
/// ε of the served release.
const EPSILON: f64 = 1.0;
/// Seed of the served fit. It is fixed, so every workload seed serves a
/// model learned the same way; the workload seed draws the table and the
/// requests.
const FIT_SEED: u64 = 0x5EED_AD01;
/// Answered pairs checked against the reference θ-projection per run.
const QUERY_CHECKS: usize = 8;
/// `op_ms` is the median over this many blocks of consecutive CSV streams
/// (100 each) of every block's 90th percentile. The 95th percentile of the
/// whole run moved by up to a third of its median between runs of one
/// build: a burst of host contention covering 5% of a run sets it.
const OP_BLOCKS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Csv,
    Jsonl,
    CohortRoot,
    CohortInner,
    Query,
}

/// One round of the closed loop.
const ROUND: [Kind; 8] = [
    Kind::Csv,
    Kind::Query,
    Kind::Jsonl,
    Kind::Csv,
    Kind::CohortRoot,
    Kind::Csv,
    Kind::CohortInner,
    Kind::Csv,
];

impl Kind {
    const ALL: [Kind; 5] =
        [Kind::Csv, Kind::Jsonl, Kind::CohortRoot, Kind::CohortInner, Kind::Query];
    const STREAMS: [Kind; 4] = [Kind::Csv, Kind::Jsonl, Kind::CohortRoot, Kind::CohortInner];

    fn name(self) -> &'static str {
        match self {
            Kind::Csv => "csv",
            Kind::Jsonl => "jsonl",
            Kind::CohortRoot => "cohort_root",
            Kind::CohortInner => "cohort_inner",
            Kind::Query => "query",
        }
    }

    fn rows(self) -> usize {
        match self {
            Kind::CohortInner => INNER_ROWS,
            Kind::Query => 0,
            _ => STREAM_ROWS,
        }
    }

    fn format(self) -> RowFormat {
        if self == Kind::Jsonl {
            RowFormat::Jsonl
        } else {
            RowFormat::Csv
        }
    }

    fn per_round(self) -> usize {
        ROUND.iter().filter(|&&k| k == self).count()
    }
}

/// What the analyst asks of the released model.
struct Plan {
    artifact: ReleasedModel,
    sampler: CompiledSampler,
    /// Evidence on a network root: exact clamped sampling.
    root: (usize, u32),
    /// Evidence on an inner attribute: likelihood-weighted sampling.
    inner: (usize, u32),
    /// Every 2-way marginal θ-projection answers, in a seeded order.
    pairs: Vec<[usize; 2]>,
    /// Pairs refused for a closure above `DEFAULT_CELL_CAP`.
    refused: usize,
}

/// One request of the loop.
struct Request {
    kind: Kind,
    seed: u64,
    pair: [usize; 2],
    body: Vec<u8>,
}

impl Plan {
    fn new(artifact: ReleasedModel, seeds: &mut Seeds) -> Result<Self, String> {
        let schema = artifact.schema.clone();
        let sampler = artifact.model.compile(&schema).map_err(|e| e.to_string())?;
        let conditionals = &artifact.model.conditionals;
        // Parents precede children, so the first conditional is a root.
        let root_probs = &conditionals[0].probs;
        let root_code = (0..root_probs.len())
            .max_by(|&a, &b| root_probs[a].total_cmp(&root_probs[b]))
            .expect("a root has a value");
        let root = (conditionals[0].child, root_code as u32);
        let inner_attr = conditionals
            .iter()
            .rev()
            .find(|c| !c.parents.is_empty())
            .ok_or("the served network has no inner attribute")?
            .child;
        // The inner attribute's most frequent sampled value keeps the
        // likelihood weights away from zero.
        let probe = sampler
            .sample_dataset(STREAM_ROWS, None, &mut StdRng::seed_from_u64(WARMUP_SEED))
            .map_err(|e| e.to_string())?;
        let mut counts = vec![0usize; schema.attribute(inner_attr).domain_size()];
        for &code in probe.column(inner_attr) {
            counts[code as usize] += 1;
        }
        let inner_code = (0..counts.len()).max_by_key(|&c| counts[c]).expect("non-empty domain");
        let inner = (inner_attr, inner_code as u32);

        let mut pairs = Vec::new();
        let mut refused = 0;
        for a in 0..schema.len() {
            for b in a + 1..schema.len() {
                if closure_cells(&artifact.model, &schema, &[a, b]) <= DEFAULT_CELL_CAP as u128 {
                    pairs.push([a, b]);
                } else {
                    refused += 1;
                }
            }
        }
        if pairs.is_empty() {
            return Err("θ-projection answers no 2-way marginal of the served model".into());
        }
        seeds.shuffle(&mut pairs);
        Ok(Self { artifact, sampler, root, inner, pairs, refused })
    }

    fn evidence(&self, kind: Kind) -> Option<(usize, u32)> {
        match kind {
            Kind::CohortRoot => Some(self.root),
            Kind::CohortInner => Some(self.inner),
            _ => None,
        }
    }

    fn sample_spec(&self, kind: Kind) -> SampleSpec {
        SampleSpec::rows(kind.rows()).with_evidence(self.evidence(kind).into_iter().collect())
    }

    fn request(&self, kind: Kind, seeds: &mut Seeds, next_pair: &mut usize) -> Request {
        let schema = &self.artifact.schema;
        if kind == Kind::Query {
            let pair = self.pairs[*next_pair % self.pairs.len()];
            *next_pair += 1;
            let query = MarginalQuery::new()
                .over(schema.attribute(pair[0]).name())
                .over(schema.attribute(pair[1]).name());
            return Request { kind, seed: 0, pair, body: compact(&query.to_json()) };
        }
        let seed = seeds.draw();
        let mut spec =
            SynthSpec::new().with_rows(kind.rows()).with_seed(seed).with_format(kind.format());
        if let Some((attr, code)) = self.evidence(kind) {
            spec = spec.where_eq(schema.attribute(attr).name(), code);
        }
        Request { kind, seed, pair: [0, 0], body: compact(&spec.to_json()) }
    }

    /// The bytes the batch sampler renders for a `kind` stream at `seed`.
    fn expected(&self, kind: Kind, seed: u64) -> Result<Vec<u8>, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = match self.evidence(kind) {
            None => self.sampler.sample_dataset(kind.rows(), None, &mut rng),
            Some(evidence) => self.sampler.sample_conditional(kind.rows(), &[evidence], &mut rng),
        }
        .map_err(|e| e.to_string())?;
        Ok(rendered(kind.format(), &data))
    }
}

fn compact(json: &Json) -> Vec<u8> {
    json.to_string_compact().expect("request bodies are finite").into_bytes()
}

/// Cells θ-projection enumerates for `attrs`: the product of the domain
/// sizes over their ancestral closure. The server refuses a query above
/// `DEFAULT_CELL_CAP`.
fn closure_cells(model: &NoisyModel, schema: &Schema, attrs: &[usize]) -> u128 {
    let mut needed = vec![false; schema.len()];
    for &a in attrs {
        needed[a] = true;
    }
    for cond in model.conditionals.iter().rev() {
        if needed[cond.child] {
            for axis in &cond.parents {
                needed[axis.attr] = true;
            }
        }
    }
    (0..schema.len())
        .filter(|&a| needed[a])
        .map(|a| schema.attribute(a).domain_size() as u128)
        .product()
}

/// Program work before the first timed request: fit the release, bind the
/// server, load the artifact over HTTP (parse, compile, swap) and serve one
/// warm-up stream.
fn set_up(data: &Dataset) -> Result<(f64, Harness, Session, ReleasedModel), String> {
    let started = Instant::now();
    let fitted = fit_method(Method::PrivBayes, data, EPSILON, FIT_SEED, &FitSettings::default())
        .map_err(|e| format!("fit: {e}"))?;
    let text = fitted.artifact.to_json_string().map_err(|e| e.to_string())?;
    let harness = Harness::start(ServerConfig::default())?;
    let mut session = Session::new(harness.addr);
    let mut buf = Vec::new();
    session
        .send("PUT", MODEL, Some(text.as_bytes()), &mut buf)
        .map_err(|e| format!("load: {e}"))?;
    let warmup = SynthSpec::new().with_rows(WARMUP_ROWS).with_seed(WARMUP_SEED);
    session
        .send("POST", SYNTH, Some(&compact(&warmup.to_json())), &mut buf)
        .map_err(|e| format!("warm-up: {e}"))?;
    Ok((started.elapsed().as_secs_f64(), harness, session, fitted.artifact))
}

/// The values of a `/v1/query` answer.
fn query_values(body: &[u8]) -> Option<Vec<f64>> {
    let json = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    json.get("values")?.as_array()?.iter().map(Json::as_f64).collect()
}

/// Per-layer sums over the traced operations.
#[derive(Default)]
struct Layers {
    sampler_ms: BTreeMap<Kind, f64>,
    render_ms: BTreeMap<Kind, f64>,
    rows: BTreeMap<Kind, f64>,
    bytes: BTreeMap<Kind, f64>,
    http_write_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    projection_ms: Vec<f64>,
    unattributed: BTreeMap<Kind, Vec<f64>>,
}

impl Layers {
    /// Splits one traced operation's wall time into its layers: replayed
    /// sampling, rendering and θ-projection, the server's stage seconds, and
    /// the wait before a worker picked the request up.
    #[allow(clippy::too_many_arguments)]
    fn attribute(
        &mut self,
        tracer: &mut Tracer,
        op: u64,
        plan: &Plan,
        request: &Request,
        wall: f64,
        body: &[u8],
        before: &Snapshot,
        after: &Snapshot,
        problems: &mut Vec<String>,
    ) -> Result<(), String> {
        let kind = request.kind;
        let endpoint = if kind == Kind::Query { "query" } else { "synth" };
        let server =
            delta_ms(after, before, "privbayes_request_seconds_sum", &[("endpoint", endpoint)]);
        let stage =
            |name: &str| delta_ms(after, before, "privbayes_stage_seconds_sum", &[("stage", name)]);
        let queue = wall - server;
        self.queue_ms.push(queue);
        let layers = if kind == Kind::Query {
            let schema = &plan.artifact.schema;
            let (table, projection) =
                tracer.time("core.inference.theta_projection", op, None, || {
                    theta_projection(&plan.artifact.model, schema, &request.pair, DEFAULT_CELL_CAP)
                });
            table.map_err(|e| e.to_string())?;
            self.projection_ms.push(projection);
            let stages = stage("parse") + stage("lookup") + stage("sample") + stage("write");
            vec![projection, stages - projection, queue]
        } else {
            let spec = plan.sample_spec(kind);
            let run =
                replay::stream(tracer, op, &plan.sampler, &spec, request.seed, kind.format())?;
            if run.bytes != body {
                problems.push(format!(
                    "{} stream (seed {}) differs from its replay",
                    kind.name(),
                    request.seed
                ));
            }
            *self.sampler_ms.entry(kind).or_default() += run.sampler_ms;
            *self.render_ms.entry(kind).or_default() += run.render_ms;
            *self.rows.entry(kind).or_default() += run.rows as f64;
            *self.bytes.entry(kind).or_default() += run.bytes.len() as f64;
            let http_write = stage("write") - run.render_ms;
            self.http_write_ms.push(http_write);
            let other = stage("parse") + stage("lookup") + stage("ledger");
            vec![run.sampler_ms, run.render_ms, http_write, other, queue]
        };
        self.unattributed.entry(kind).or_default().push(stats::unattributed(wall, &layers));
        Ok(())
    }

    fn rate(&self, kinds: &[Kind], of: &BTreeMap<Kind, f64>) -> f64 {
        let rows: f64 = kinds.iter().filter_map(|k| self.rows.get(k)).sum();
        let ms: f64 = kinds.iter().filter_map(|k| of.get(k)).sum();
        if ms > 0.0 {
            rows * 1e3 / ms
        } else {
            0.0
        }
    }

    fn bytes_per_row(&self, kind: Kind) -> f64 {
        match (self.bytes.get(&kind), self.rows.get(&kind)) {
            (Some(bytes), Some(rows)) if *rows > 0.0 => bytes / rows,
            _ => 0.0,
        }
    }

    fn into_metrics(self, out: &mut BTreeMap<String, f64>) {
        let sampler = |kinds: &[Kind]| self.rate(kinds, &self.sampler_ms);
        out.insert("core.sampler.rows_per_s".into(), sampler(&[Kind::Csv, Kind::Jsonl]));
        out.insert("core.sampler.cohort_root_rows_per_s".into(), sampler(&[Kind::CohortRoot]));
        out.insert("core.sampler.cohort_inner_rows_per_s".into(), sampler(&[Kind::CohortInner]));
        out.insert("synth.render.csv_rows_per_s".into(), self.rate(&[Kind::Csv], &self.render_ms));
        out.insert(
            "synth.render.jsonl_rows_per_s".into(),
            self.rate(&[Kind::Jsonl], &self.render_ms),
        );
        out.insert("synth.render.csv_bytes_per_row".into(), self.bytes_per_row(Kind::Csv));
        out.insert("synth.render.jsonl_bytes_per_row".into(), self.bytes_per_row(Kind::Jsonl));
        out.insert("server.http.write_ms".into(), mean_or_zero(&self.http_write_ms));
        out.insert("server.worker.queue_wait_ms".into(), mean_or_zero(&self.queue_ms));
        out.insert("core.inference.projection_ms".into(), mean_or_zero(&self.projection_ms));
        for (kind, values) in &self.unattributed {
            out.insert(format!("ops.{}.unattributed_ms", kind.name()), mean_or_zero(values));
        }
    }
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let generated = Instant::now();
    let data = Shape::Adult.generate(cfg.seed);
    let input_gen_s = generated.elapsed().as_secs_f64();

    let mut tracer = Tracer::new();
    let (secs, harness, mut session, artifact) = set_up(&data)?;
    let mut setups = vec![secs];
    let (compiled, compile_ms) =
        tracer.time("core.sampler.compile", 0, None, || artifact.model.compile(&artifact.schema));
    compiled.map_err(|e| e.to_string())?;
    let mut seeds = Seeds::new(cfg.seed, 0x5172_EA11);
    let plan = Plan::new(artifact, &mut seeds)?;
    // Each stream kind keeps two bodies for the byte check: its first and
    // one at a seeded later position.
    let keep_at = seeds.draw() % 24 + 2;

    let mut ops = OpLog::default();
    let mut problems = Vec::new();
    let mut layers = Layers::default();
    let mut saved: Vec<(Kind, u64, Vec<u8>)> = Vec::new();
    let mut answers: BTreeMap<[usize; 2], Vec<f64>> = BTreeMap::new();
    let mut pair_ms: BTreeMap<[usize; 2], Vec<f64>> = BTreeMap::new();
    let mut seen: BTreeMap<Kind, u64> = BTreeMap::new();
    let mut rounds: Vec<(bool, f64)> = Vec::new();
    let mut next_pair = 0;
    let mut buf = Vec::new();
    let start = harness.scrape();
    let mut requests = start.sum(REQUESTS);
    let mut op = 0u64;
    reset_peak_rss()?;
    for round in 0..ROUNDS {
        let traced = cfg.trace && round % 2 == 0;
        let mut before = traced.then(|| harness.scrape_after(requests));
        let mut round_ms = 0.0;
        for kind in ROUND {
            op += 1;
            let request = plan.request(kind, &mut seeds, &mut next_pair);
            let path = if kind == Kind::Query { QUERY } else { SYNTH };
            let started = Instant::now();
            let result = session.send("POST", path, Some(&request.body), &mut buf);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            requests += 1.0;
            if ops.record(kind.name(), ms, result).is_none() {
                before = traced.then(|| harness.scrape());
                requests = before.as_ref().map_or(requests, |s| s.sum(REQUESTS));
                continue;
            }
            round_ms += ms;
            let count = seen.entry(kind).or_default();
            *count += 1;
            if kind == Kind::Query {
                pair_ms.entry(request.pair).or_default().push(ms);
                if !answers.contains_key(&request.pair) {
                    match query_values(&buf) {
                        Some(values) => {
                            answers.insert(request.pair, values);
                        }
                        None => {
                            problems.push(format!("query {:?} answer is not JSON", request.pair))
                        }
                    }
                }
            } else if *count == 1 || *count == keep_at {
                saved.push((kind, request.seed, buf.clone()));
            }
            if let Some(previous) = before.take() {
                let after = harness.scrape_after(requests);
                layers.attribute(
                    &mut tracer,
                    op,
                    &plan,
                    &request,
                    ms,
                    &buf,
                    &previous,
                    &after,
                    &mut problems,
                )?;
                before = Some(after);
            }
        }
        rounds.push((traced, round_ms));
        let (secs, extra, _, _) = set_up(&data)?;
        setups.push(secs);
        extra.stop()?;
    }
    let peak_rss = peak_rss_mb();
    let end = harness.scrape_after(requests);
    drop(session);
    harness.stop()?;

    // Output checks: streams against the batch sampler, answers against the
    // reference θ-projection.
    for (kind, seed, body) in &saved {
        if plan.expected(*kind, *seed)? != *body {
            problems.push(format!(
                "{} stream (seed {seed}) differs from the batch sampler",
                kind.name()
            ));
        }
    }
    let schema = &plan.artifact.schema;
    for pair in plan.pairs.iter().filter(|p| answers.contains_key(*p)).take(QUERY_CHECKS) {
        let oracle = reference_theta_projection(&plan.artifact.model, schema, pair);
        let served = &answers[pair];
        let same = served.len() == oracle.values().len()
            && served.iter().zip(oracle.values()).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            problems.push(format!("query {pair:?} differs from the reference θ-projection"));
        }
    }

    let mut out = Outcome { ops, problems, ..Outcome::default() };
    let mut detail = BTreeMap::new();
    for kind in Kind::ALL {
        describe(&mut detail, kind.name(), out.ops.times(kind.name()));
    }
    let mut parts = Vec::new();
    for kind in Kind::STREAMS {
        let times = out.ops.times(kind.name());
        let ms = gated_percentile(kind.name(), times, stats::SLOW_PERCENTILE)?;
        let rows = kind.rows() as f64;
        parts.push(MixPart { rows, per_round: kind.per_round() as f64, ms });
        let name = match kind {
            Kind::Csv => "stream_csv_rows_per_s",
            Kind::Jsonl => "stream_jsonl_rows_per_s",
            Kind::CohortRoot => "cohort_root_rows_per_s",
            _ => "cohort_inner_rows_per_s",
        };
        detail.insert(name.to_string(), rows * 1e3 / ms);
    }
    let csv = out.ops.times("csv");
    let csv_ms = gated_block_percentile("csv", csv, OP_BLOCKS, stats::SLOW_PERCENTILE)?;
    let query_mix_ms: f64 = pair_ms.values().map(|ms| stats::median(ms)).sum();
    detail.insert("stream_csv_ms_p95".into(), gated_percentile("csv", csv, 95)?);
    detail.insert("stream_csv_ms_block_p90".into(), csv_ms);
    detail.insert("query_per_s".into(), pair_ms.len() as f64 * 1e3 / query_mix_ms);
    detail.insert("query.mix_pairs".into(), plan.pairs.len() as f64);
    detail.insert("query.pairs_answered".into(), pair_ms.len() as f64);
    detail.insert("query.refused_pairs".into(), plan.refused as f64);
    detail.insert("rounds".into(), rounds.len() as f64);
    detail.insert("input_gen_s".into(), input_gen_s);
    describe(&mut detail, "setup", &setups.iter().map(|s| s * 1e3).collect::<Vec<_>>());
    let counter = |name: &str| delta(&end, &start, name, &[]);
    let loop_counters = [
        ("server.worker.connections_reused", counter("privbayes_connections_reused_total")),
        ("server.cache.hits", counter("privbayes_rowblock_cache_hits_total")),
        ("server.cache.misses", counter("privbayes_rowblock_cache_misses_total")),
        ("server.cache.evicted_bytes", counter("privbayes_rowblock_cache_evicted_bytes_total")),
    ];
    for (name, value) in loop_counters {
        detail.insert(name.to_string(), value);
        out.layers.insert(name.to_string(), value);
    }
    out.detail = detail;
    out.e2e.insert("setup_s", gated_percentile("set-up", &setups, stats::SLOW_PERCENTILE)?);
    out.e2e.insert("peak_rss_mb", peak_rss);
    out.e2e.insert("rows_per_s", stats::mix_rows_per_s(&parts));
    out.e2e.insert("op_ms", csv_ms);

    if cfg.trace {
        layers.into_metrics(&mut out.layers);
        out.layers.insert("core.sampler.compile_ms".into(), compile_ms);
        let total = (plan.pairs.len() + plan.refused) as f64;
        out.layers.insert("core.inference.refused_share".into(), plan.refused as f64 / total);
        out.layers.insert("trace.overhead_pct".into(), stats::overhead_pct(&rounds));
        write_trace(cfg, &tracer)?;
    }
    out.env = vec![
        ("server_workers", ServerConfig::default().workers.to_string()),
        ("flush_policy", "\"none (no journal in this workload)\"".to_string()),
        ("clients", "1".to_string()),
    ];
    Ok(out)
}
