//! The subcommands: `fit`, `synth`, `synth-relational`, `query`, `eval`,
//! `audit`, `inspect`, `methods`, and `serve`.

use std::convert::Infallible;
use std::fs;
use std::io::{BufReader, Write as _};
use std::path::Path;
use std::sync::Arc;

use privbayes::inference::{model_marginal, DEFAULT_CELL_CAP};
use privbayes_bench::audit::{audit_method, vacuous_verdict, AuditConfig};
use privbayes_data::csv::{read_csv, write_csv};
use privbayes_data::encoding::EncodingKind;
use privbayes_data::{Dataset, Schema};
use privbayes_marginals::average_workload_tvd;
use privbayes_model::{
    schema_from_json, schema_to_json, seed_to_json, Json, ReleasedModel, ReleasedRelationalModel,
};
use privbayes_obs::Span;
use privbayes_server::{BudgetLedger, ModelRegistry, RefitPolicy, Server, ServerConfig};
use privbayes_synth::{
    fit_method, render_chunks, Cursor, FitSettings, MarginalQuery, Method, RowFormat, RowRenderer,
    SynthSpec,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::args::ParsedArgs;
use crate::error::CliError;

/// Top-level usage text (the `help` command and `--help`).
pub const USAGE: &str = "\
privbayes-cli — differentially private synthetic data via Bayesian networks

commands:
  fit      --data D.csv --schema S.json --epsilon F --out MODEL.json
           [--method NAME=privbayes] [--beta F=0.3] [--theta F=4]
           [--encoding vanilla|hierarchical] [--consistency N=0]
           [--max-degree N=4] [--k N=2] [--alpha N=2] [--iterations N=10]
           [--seed N] [--threads N] [--comment TEXT] [--verbose]
           Fit a private model on a CSV table and write the release artifact.
           Every method produces the same artifact format, so `synth`,
           `inspect`, and `serve` work on any of them. --verbose prints the
           count-engine scan statistics of the fit.
           methods: privbayes, privbayes-k, mwem, laplace, geometric, uniform
           (`methods` prints one line per method; uniform ignores --epsilon).

  synth    --model MODEL.json --out D.csv [--rows N] [--seed N]
           [--where a=v[,b=w...]] [--select c1[,c2...]] [--resume CURSOR]
           [--format csv|jsonl] [--verbose]
           Sample synthetic rows from a released model (no privacy cost).
           --where clamps attribute values (labels or codes) and samples the
           rest of each row conditioned on them; --select writes only the
           named columns, in order; --resume continues an interrupted
           stream from a cursor token (pbc2-..., skipping the header) so
           prefix + resumed output is byte-identical to an uninterrupted
           run with the same seed. Spec mistakes (unknown attribute or
           value, bad cursor) exit with code 4. The output is the bytes a
           server streams for the same request; its chunks are rendered on
           every core and written in order.

  query    --model MODEL.json --attrs a[,b...]
           [--server ADDR --id MODEL-ID] [--verbose]
           Answer a marginal query exactly from the released model's noisy
           conditionals — no sampling, no privacy cost (post-processing).
           Local mode prints `a,b,probability` lines with domain labels
           (probabilities in shortest round-trip decimal). With --server,
           asks a running privbayes-server's POST /v1/models/{id}/query
           endpoint instead and prints the JSON answer.

  synth-relational
           --model MODEL.json --entities N --out-entities E.csv
           --out-facts F.csv [--seed N]
           Regenerate a two-table database from a relational release artifact
           (privbayes-relational-model/1). The facts CSV gets a leading
           `owner` column holding the 0-based entity row index.

  eval     --schema S.json --truth A.csv --synthetic B.csv [--alpha N=2]
           Report average total-variation distance of all 1..=alpha-way
           marginals between two tables.

  audit    --model MODEL.json --data D.csv --schema S.json
           [--reps N=84] [--seed N] [--epsilon F]
           Empirical membership-inference audit of a fitted artifact's
           configuration: re-fits the artifact's method at its recorded ε
           (or --epsilon) on include/exclude neighbour worlds built from
           the given source table, runs a calibrated likelihood-ratio
           attack over --reps seeded repetitions (even, ≥ 4; half
           calibrate, half evaluate), and reports measured attacker
           advantage (TPR − FPR) against the analytic ε-DP ceiling
           (e^ε − 1)/(e^ε + 1). Exits with code 4 if the measured
           advantage breaches bound + confidence slack — an empirical
           privacy violation, not a usage mistake. Too few reps for the
           gate to fail prints `vacuous (needs ≥ N reps)`.

  inspect  --model MODEL.json
           Print a released model's provenance and network structure
           (handles both single-table and relational artifacts).

  methods  List every synthesis method `fit --method` accepts, one line per
           method with a short description.

  serve    [--addr A=127.0.0.1:0] [--workers N=64] [--threads N]
           [--max-rows N=10000000] [--ledger LEDGER.json]
           [--model MODEL.json [--model-id ID=default]]
           [--tenant NAME --budget F]
           [--read-deadline-ms N=30000] [--write-deadline-ms N=30000]
           [--handler-deadline-ms N=120000] [--idle-deadline-ms N=5000]
           [--access-log PATH] [--metrics on|off=on]
           [--data-dir DIR] [--refit-rows N] [--refit-staleness-ms N]
           Run the synthesis service: model registry, per-tenant privacy
           ledger (persisted at --ledger, crash-durable), and streaming
           synthesis endpoints. Prints the bound address, then blocks until
           a client sends POST /shutdown. Each open connection is served
           on its own thread; --workers caps the open connections (idle
           kept-alive ones included), and a connection beyond the cap is
           answered 503 + Retry-After. Idle connections are closed after
           --idle-deadline-ms. --threads bounds the worker threads used
           inside fit requests and the threads that render each synthesis
           stream's chunks (written in order: the bytes never depend on
           it). Peers slower than the read/write deadlines are reaped with
           408.
           --access-log appends one JSON line per request; --metrics off
           disables the GET /metrics Prometheus exposition (counters still
           run and back GET /healthz). --data-dir journals ingested
           per-tenant datasets there (crash-durable, recovered on
           restart); --refit-rows / --refit-staleness-ms enable background
           refits once a tenant has that many pending rows, or any pending
           rows that old — each refit debits the tenant's ε like POST /fit
           and hot-swaps a new model generation. The fit, synth, and
           query commands accept --verbose for per-stage wall-time
           reporting.

  ingest   --server ADDR --tenant NAME --data D.csv [--schema S.json]
           [--model-id ID --epsilon F [--method NAME=privbayes] [--seed N]]
           [--format csv|jsonl]
           Append a batch of rows to a tenant's server-side dataset via
           POST /v1/tenants/{t}/ingest. The first batch for a tenant must
           carry --schema and the refit target (--model-id + --epsilon);
           later batches may omit both. Appending spends no privacy
           budget — ε is debited by the background refits the rows trigger
           (see serve --refit-rows). Prints the server's receipt (batch,
           total, and pending row counts).

The --threads flag on fit pins the scoring worker count (default: all
cores); outputs are identical for every value.

The schema file is a JSON array of attributes, e.g.
  [{\"name\": \"age\", \"kind\": \"continuous\", \"min\": 0, \"max\": 90, \"bins\": 16},
   {\"name\": \"smoker\", \"kind\": \"binary\"},
   {\"name\": \"work\", \"kind\": \"categorical\", \"size\": 4,
    \"labels\": [\"gov\", \"private\", \"self\", \"none\"]}]
CSV cells are unquoted, so names and labels may not hold `,`, CR or LF,
and a label may not be empty.
";

/// Runs a full command line (without the binary name) and returns the text
/// to print on success.
///
/// # Errors
/// Returns [`CliError`] on usage errors, I/O failures, and invalid inputs.
pub fn run<I>(args: I) -> Result<String, CliError>
where
    I: IntoIterator<Item = String>,
{
    let parsed = ParsedArgs::parse(args)?;
    if parsed.wants_help() || parsed.command() == "help" {
        return Ok(USAGE.to_string());
    }
    match parsed.command() {
        "fit" => fit(&parsed),
        "synth" => synth(&parsed),
        "synth-relational" => synth_relational(&parsed),
        "query" => query(&parsed),
        "eval" => eval(&parsed),
        "audit" => audit(&parsed),
        "inspect" => inspect(&parsed),
        "methods" => methods(&parsed),
        "serve" => serve(&parsed),
        "ingest" => ingest(&parsed),
        other => Err(CliError::Usage(format!("unknown command `{other}` (try `help`)"))),
    }
}

/// `methods`: one line per synthesis method.
fn methods(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&[])?;
    let mut out = String::from("synthesis methods (fit --method NAME):\n");
    for method in Method::ALL {
        out.push_str(&format!("  {:<12} {}\n", method.name(), method.describe()));
    }
    Ok(out)
}

fn fit(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&[
        "data",
        "schema",
        "out",
        "epsilon",
        "method",
        "beta",
        "theta",
        "encoding",
        "consistency",
        "max-degree",
        "k",
        "alpha",
        "iterations",
        "seed",
        "threads",
        "comment",
        "verbose",
    ])?;
    // Validate flags before touching the filesystem, so usage mistakes are
    // reported even when paths are also wrong.
    let out = args.required("out")?;
    let epsilon: f64 = args
        .required("epsilon")?
        .parse()
        .map_err(|_| CliError::Usage("--epsilon: expected a number".into()))?;
    let method_name = args.optional("method").unwrap_or("privbayes");
    let Some(method) = Method::parse(method_name) else {
        return Err(CliError::Usage(format!(
            "unknown method `{method_name}`; valid methods: {}",
            Method::names()
        )));
    };
    let encoding = match args.optional("encoding").unwrap_or("vanilla") {
        "vanilla" => EncodingKind::Vanilla,
        "hierarchical" => EncodingKind::Hierarchical,
        other => {
            return Err(CliError::Usage(format!(
                "--encoding `{other}` is not supported here; the release artifact needs the \
                 model over the original schema, so choose `vanilla` or `hierarchical`"
            )))
        }
    };
    let defaults = FitSettings::default();
    let settings = FitSettings {
        beta: args.parse_or("beta", defaults.beta)?,
        theta: args.parse_or("theta", defaults.theta)?,
        max_degree: args.parse_or("max-degree", defaults.max_degree)?,
        fixed_k: args.parse_or("k", defaults.fixed_k)?,
        alpha: args.parse_or("alpha", defaults.alpha)?,
        mwem: privbayes_synth::MwemOptions {
            iterations: args.parse_or("iterations", defaults.mwem.iterations)?,
            ..defaults.mwem
        },
        consistency_rounds: args.parse_or("consistency", defaults.consistency_rounds)?,
        encoding,
        threads: args.parse_opt::<usize>("threads")?,
        comment: args.optional("comment").unwrap_or_default().to_string(),
    };
    let mut span = Span::start();
    let schema = load_schema(args.required("schema")?)?;
    let data = load_csv(&schema, args.required("data")?)?;
    span.mark("load");

    let seed = match args.parse_opt::<u64>("seed")? {
        Some(seed) => seed,
        None => make_rng(None).random::<u64>(),
    };
    let fitted = fit_method(method, &data, epsilon, seed, &settings)
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    span.mark("fit");
    fitted
        .artifact
        .save(out)
        .map_err(|e| CliError::Io { path: out.into(), message: e.to_string() })?;
    span.mark("write");

    let degree = fitted.artifact.model.network.degree();
    let mut report = format!(
        "fitted {}-attribute model on {} rows (ε = {epsilon}, method {}, degree {degree})\n{}",
        data.d(),
        data.n(),
        method.name(),
        fitted.artifact.model.network.describe(data.schema()),
    );
    if args.verbose() {
        let s = fitted.stats;
        report.push_str(&format!(
            "\nengine: {} scans, {} subsets, {} bytes materialized\n\
             engine time: scan {}µs\n{}",
            s.scans,
            s.subsets,
            s.bytes_materialized,
            s.scan_micros,
            stage_report(&span),
        ));
    }
    report.push_str(&format!("\nwrote {out}"));
    Ok(report)
}

/// Renders a [`Span`]'s stages as one `stages: name 1.2ms … | total …` line
/// for `--verbose` output.
fn stage_report(span: &Span) -> String {
    let mut out = String::from("stages:");
    for &(name, d) in span.stages() {
        out.push_str(&format!(" {name} {:.1}ms", d.as_secs_f64() * 1e3));
    }
    out.push_str(&format!(" | total {:.1}ms", span.total().as_secs_f64() * 1e3));
    out
}

fn synth(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&[
        "model", "out", "rows", "seed", "where", "select", "resume", "format", "verbose",
    ])?;
    let mut span = Span::start();
    let model_path = args.required("model")?;
    let out = args.required("out")?;
    let artifact = ReleasedModel::load(model_path)
        .map_err(|e| CliError::Io { path: model_path.into(), message: e.to_string() })?;
    span.mark("load");

    // Assemble the request spec from the flags, then validate it against
    // the artifact's schema in one place — every spec mistake surfaces as a
    // typed `CliError::Spec` (exit code 4).
    let mut spec = SynthSpec::new().with_format(RowFormat::parse(args.optional("format"))?);
    if let Some(rows) = args.parse_opt::<usize>("rows")? {
        spec = spec.with_rows(rows);
    }
    if let Some(seed) = args.parse_opt::<u64>("seed")? {
        spec = spec.with_seed(seed);
    }
    if let Some(select) = args.optional("select") {
        for name in select.split(',').filter(|s| !s.is_empty()) {
            spec = spec.select(name);
        }
    }
    if let Some(clauses) = args.optional("where") {
        for pair in clauses.split(',').filter(|s| !s.is_empty()) {
            let Some((attr, value)) = pair.split_once('=') else {
                return Err(CliError::Usage(format!("--where: expected attr=value, got `{pair}`")));
            };
            spec = spec.where_eq(attr, value);
        }
    }
    if let Some(token) = args.optional("resume") {
        spec = spec.with_cursor(Cursor::decode(token)?);
    }
    let resolved = spec.resolve(&artifact.schema)?;
    let rows = resolved.rows.unwrap_or(artifact.metadata.source_rows);
    if rows == 0 {
        return Err(CliError::Usage("--rows must be at least 1".into()));
    }

    let seed = match resolved.seed {
        Some(seed) => seed,
        None => make_rng(None).random::<u64>(),
    };
    let sampler = artifact.compiled()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let stream = sampler.stream_spec(&resolved.sample_spec(rows), &mut rng)?;
    let schema = sampler.schema();
    let projection = resolved.projection.as_deref();
    let renderer = RowRenderer::new(resolved.format, schema, projection);
    let mut text = Vec::new();
    if resolved.start_row == 0 {
        text.extend_from_slice(resolved.format.header(schema, projection).as_bytes());
    }
    let mut yielded = 0usize;
    let Ok(()) = render_chunks(&stream, &renderer, privbayes::resolve_threads(None), |chunk| {
        yielded += chunk.rows;
        text.extend_from_slice(&chunk.bytes);
        Ok::<(), Infallible>(())
    });
    span.mark("sample");
    fs::write(out, text).map_err(|e| CliError::Io { path: out.into(), message: e.to_string() })?;
    span.mark("write");
    let mut report = if resolved.start_row > 0 {
        format!(
            "resumed at row {} and sampled {yielded} of {rows} rows from {model_path} (seed {seed})",
            resolved.start_row
        )
    } else {
        format!("sampled {rows} rows from {model_path} (seed {seed})")
    };
    if args.verbose() {
        report.push_str(&format!("\n{}", stage_report(&span)));
    }
    Ok(format!("{report}\nwrote {out}"))
}

/// `query`: answer a marginal query exactly from the released θ — locally
/// from a model file, or remotely via a server's `/v1` query endpoint.
fn query(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&["model", "attrs", "server", "id", "verbose"])?;
    let mut q = MarginalQuery::new();
    for name in args.required("attrs")?.split(',').filter(|s| !s.is_empty()) {
        q = q.over(name);
    }
    match (args.optional("server"), args.optional("id")) {
        (Some(addr), Some(id)) => {
            let mut span = Span::start();
            let client = privbayes_server::Client::new(addr);
            let answer = client.query(id, &q)?;
            span.mark("request");
            let mut out =
                answer.to_string_pretty().map_err(|e| CliError::Invalid(e.to_string()))?;
            if args.verbose() {
                out.push_str(&format!("\n{}", stage_report(&span)));
            }
            Ok(out)
        }
        (Some(_), None) => Err(CliError::Usage("--server needs --id".into())),
        (None, Some(_)) => Err(CliError::Usage("--id needs --server".into())),
        (None, None) => {
            let mut span = Span::start();
            let model_path = args.required("model")?;
            let artifact = ReleasedModel::load(model_path)
                .map_err(|e| CliError::Io { path: model_path.into(), message: e.to_string() })?;
            span.mark("load");
            let attrs = q.resolve(&artifact.schema)?;
            let table =
                model_marginal(&artifact.model, &artifact.schema, &attrs, DEFAULT_CELL_CAP)?;
            span.mark("project");
            let names: Vec<&str> =
                attrs.iter().map(|&a| artifact.schema.attribute(a).name()).collect();
            let mut out = format!("{},probability\n", names.join(","));
            for (idx, &value) in table.values().iter().enumerate() {
                let coords = table.coords_of(idx);
                for (&attr, &coord) in attrs.iter().zip(&coords) {
                    out.push_str(&artifact.schema.attribute(attr).domain().label(coord as u32));
                    out.push(',');
                }
                // Shortest round-trip decimal: parsing it back yields the
                // exact released value.
                out.push_str(&format!("{value:?}\n"));
            }
            if args.verbose() {
                out.push_str(&format!("{}\n", stage_report(&span)));
            }
            Ok(out)
        }
    }
}

fn synth_relational(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&["model", "entities", "out-entities", "out-facts", "seed"])?;
    let model_path = args.required("model")?;
    let out_entities = args.required("out-entities")?;
    let out_facts = args.required("out-facts")?;
    let artifact = ReleasedRelationalModel::load(model_path)
        .map_err(|e| CliError::Io { path: model_path.into(), message: e.to_string() })?;
    let n_entities = args.parse_or("entities", artifact.metadata.source_entities)?;
    if n_entities == 0 {
        return Err(CliError::Usage("--entities must be at least 1".into()));
    }
    let mut rng = make_rng(args.parse_opt("seed")?);
    let synthetic = artifact.synthesize(n_entities, &mut rng)?;
    save_csv(synthetic.entities(), out_entities)?;

    // The fact table gets a leading `owner` column (the 0-based entity row).
    let mut fact_csv = Vec::new();
    write_csv(synthetic.facts(), &mut fact_csv)
        .map_err(|e| CliError::Invalid(format!("{out_facts}: {e}")))?;
    let fact_text = String::from_utf8(fact_csv).expect("CSV writer emits UTF-8");
    let mut lines = fact_text.lines();
    let header = lines.next().unwrap_or_default();
    let mut out = format!("owner,{header}\n");
    for (line, &owner) in lines.zip(synthetic.fact_owner()) {
        out.push_str(&format!("{owner},{line}\n"));
    }
    fs::write(out_facts, out)
        .map_err(|e| CliError::Io { path: out_facts.into(), message: e.to_string() })?;

    Ok(format!(
        "synthesised {} entities and {} facts from {model_path}\nwrote {out_entities} and {out_facts}",
        synthetic.n_entities(),
        synthetic.n_facts(),
    ))
}

fn eval(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&["schema", "truth", "synthetic", "alpha"])?;
    let schema = load_schema(args.required("schema")?)?;
    let truth = load_csv(&schema, args.required("truth")?)?;
    let synthetic = load_csv(&schema, args.required("synthetic")?)?;
    let alpha: usize = args.parse_or("alpha", 2)?;
    if alpha == 0 || alpha > schema.len() {
        return Err(CliError::Usage(format!(
            "--alpha must lie in 1..={} for this schema",
            schema.len()
        )));
    }
    let mut out = String::from("alpha,avg_total_variation\n");
    for a in 1..=alpha {
        let tvd = average_workload_tvd(&truth, &synthetic, a);
        out.push_str(&format!("{a},{tvd:.6}\n"));
    }
    Ok(out)
}

/// `audit`: membership-inference audit of a fitted artifact's
/// configuration against the analytic ε-DP advantage bound.
fn audit(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&["model", "data", "schema", "reps", "seed", "epsilon"])?;
    let model_path = args.required("model")?;
    let artifact = ReleasedModel::load(model_path)
        .map_err(|e| CliError::Io { path: model_path.into(), message: e.to_string() })?;
    let method_name = artifact.metadata.method.clone();
    let Some(method) = Method::parse(&method_name) else {
        return Err(CliError::Invalid(format!(
            "artifact records method `{method_name}`, which is not auditable \
             (valid methods: {})",
            Method::names()
        )));
    };
    let epsilon = match args.parse_opt::<f64>("epsilon")? {
        Some(e) => e,
        None => artifact.metadata.epsilon,
    };
    if method.spends_budget() && epsilon <= 0.0 {
        return Err(CliError::Usage("--epsilon must be positive for this method".into()));
    }
    // 84 reps is the fewest whose slack leaves room under an advantage of 1
    // at every ε ≤ 1, so a default audit of such a model can fail.
    let reps: usize = args.parse_or("reps", 84)?;
    if reps < 4 || !reps.is_multiple_of(2) {
        return Err(CliError::Usage("--reps must be even and at least 4".into()));
    }
    let schema = load_schema(args.required("schema")?)?;
    let data = load_csv(&schema, args.required("data")?)?;

    // Audit the artifact's own configuration: its method at the requested
    // budget with its recorded structure-learning hyper-parameters.
    let settings = FitSettings {
        beta: artifact.metadata.beta,
        theta: artifact.metadata.theta,
        ..FitSettings::default()
    };
    let cfg = AuditConfig {
        reps,
        base_seed: args.parse_or("seed", AuditConfig::default().base_seed)?,
        ..AuditConfig::default()
    };
    let point = audit_method(method, &data, epsilon, &settings, &cfg)
        .map_err(|e| CliError::Invalid(e.to_string()))?;

    let mut out = format!(
        "membership-inference audit of {method_name} at ε = {epsilon} \
         ({} reps: {} calibrate, {} evaluate; n = {}, d = {})\n",
        cfg.reps,
        cfg.reps - cfg.eval_reps(),
        cfg.eval_reps(),
        data.n(),
        data.d(),
    );
    out.push_str(&format!(
        "  advantage  {:.4}  (tpr {:.4}, fpr {:.4})\n  bound      {:.4}  \
         ((e^ε − 1)/(e^ε + 1) at spent ε = {})\n  slack      {:.4}  (Hoeffding, δ = {})\n",
        point.advantage,
        point.tpr,
        point.fpr,
        point.bound,
        point.epsilon_spent,
        point.slack,
        cfg.delta,
    ));
    if !point.passes_gate() {
        return Err(CliError::Invalid(format!(
            "PRIVACY GATE FAILED: measured advantage {:.4} exceeds bound {:.4} + slack {:.4} — \
             the fit leaks more than its claimed ε allows",
            point.advantage, point.bound, point.slack
        )));
    }
    let verdict = if point.vacuous() {
        vacuous_verdict(point.bound, cfg.delta)
    } else {
        "measured advantage is under the analytic ε-DP bound".to_string()
    };
    out.push_str(&format!("verdict: {verdict}\n"));
    Ok(out)
}

fn inspect(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&["model"])?;
    let model_path = args.required("model")?;
    let text = fs::read_to_string(model_path)
        .map_err(|e| CliError::Io { path: model_path.into(), message: e.to_string() })?;
    // Dispatch on the declared format.
    let format = Json::parse(&text)
        .map_err(|e| CliError::Invalid(format!("{model_path}: {e}")))?
        .get("format")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| CliError::Invalid(format!("{model_path}: missing `format` field")))?;
    if format == privbayes_model::RELATIONAL_FORMAT {
        return inspect_relational(&text);
    }
    let artifact = ReleasedModel::from_json_string(&text)
        .map_err(|e| CliError::Invalid(format!("{model_path}: {e}")))?;
    let meta = &artifact.metadata;
    let degree = artifact.model.network.pairs().iter().map(|p| p.parents.len()).max().unwrap_or(0);
    Ok(format!(
        "format:    {}\nmethod:    {}\nepsilon:   {}\nbeta:      {}\ntheta:     {}\nscore:     {}\n\
         encoding:  {}\nsource:    {} rows\ncomment:   {}\nattributes: {}\ndegree:    {degree}\n\
         network:\n{}",
        privbayes_model::FORMAT,
        meta.method,
        meta.epsilon,
        meta.beta,
        meta.theta,
        meta.score,
        meta.encoding,
        meta.source_rows,
        if meta.comment.is_empty() { "(none)" } else { &meta.comment },
        artifact.schema.len(),
        artifact.model.network.describe(&artifact.schema),
    ))
}

fn inspect_relational(text: &str) -> Result<String, CliError> {
    let artifact = ReleasedRelationalModel::from_json_string(text)?;
    let meta = &artifact.metadata;
    Ok(format!(
        "format:         {}\nepsilon:        {} (entity {} + fact {})\nfan-out cap:    {}\n\
         source:         {} entities, {} facts\ncomment:        {}\n\
         entity network (over the flattened per-individual view):\n{}\n\
         fact network (entity attributes are evidence roots):\n{}",
        privbayes_model::RELATIONAL_FORMAT,
        meta.epsilon_entity + meta.epsilon_fact,
        meta.epsilon_entity,
        meta.epsilon_fact,
        artifact.schema.max_fanout(),
        meta.source_entities,
        meta.source_facts,
        if meta.comment.is_empty() { "(none)" } else { &meta.comment },
        artifact.entity_model.network.describe(artifact.schema.flattened()),
        artifact.fact_model.network().describe(artifact.schema.fact_view()),
    ))
}

/// `serve`: run the synthesis service until a client posts `/shutdown`.
///
/// The bound address is printed (and flushed) to stdout *before* the accept
/// loop starts, so wrapper scripts can connect as soon as the line appears;
/// the returned summary prints after a clean shutdown.
fn serve(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&[
        "addr",
        "workers",
        "threads",
        "max-rows",
        "ledger",
        "model",
        "model-id",
        "tenant",
        "budget",
        "read-deadline-ms",
        "write-deadline-ms",
        "handler-deadline-ms",
        "idle-deadline-ms",
        "access-log",
        "metrics",
        "data-dir",
        "refit-rows",
        "refit-staleness-ms",
    ])?;
    let registry = Arc::new(ModelRegistry::new());
    match (args.optional("model"), args.optional("model-id")) {
        (Some(path), id) => {
            let artifact = ReleasedModel::load(path)
                .map_err(|e| CliError::Io { path: path.into(), message: e.to_string() })?;
            registry.load(id.unwrap_or("default"), artifact)?;
        }
        (None, Some(_)) => {
            return Err(CliError::Usage("--model-id needs --model".into()));
        }
        (None, None) => {}
    }
    let ledger = match args.optional("ledger") {
        Some(path) => BudgetLedger::with_persistence(path)?,
        None => BudgetLedger::in_memory(),
    };
    match (args.optional("tenant"), args.parse_opt::<f64>("budget")?) {
        (Some(tenant), Some(budget)) => {
            // A persisted ledger may already know the tenant; keep its
            // recorded spending rather than re-registering — but refuse a
            // conflicting total instead of silently ignoring the flag.
            match ledger.budget(tenant) {
                None => ledger.register(tenant, budget)?,
                Some(existing) if existing.total == budget => {}
                Some(existing) => {
                    return Err(CliError::Usage(format!(
                        "tenant `{tenant}` already has total ε = {} in the ledger (spent {}); \
                         budgets cannot be changed via --budget — edit the ledger file instead",
                        existing.total, existing.spent
                    )));
                }
            }
        }
        (Some(_), None) => return Err(CliError::Usage("--tenant needs --budget".into())),
        (None, Some(_)) => return Err(CliError::Usage("--budget needs --tenant".into())),
        (None, None) => {}
    }
    let defaults = ServerConfig::default();
    let deadline = |flag: &str, default: std::time::Duration| -> Result<_, CliError> {
        let ms = args.parse_or(flag, default.as_millis() as u64)?;
        if ms == 0 {
            return Err(CliError::Usage(format!("--{flag} must be positive")));
        }
        Ok(std::time::Duration::from_millis(ms))
    };
    let metrics_enabled = match args.optional("metrics").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => {
            return Err(CliError::Usage(format!(
                "--metrics: expected `on` or `off`, got `{other}`"
            )))
        }
    };
    let config = ServerConfig {
        workers: args.parse_or("workers", defaults.workers)?,
        fit_threads: args.parse_opt::<usize>("threads")?,
        max_rows: args.parse_or("max-rows", defaults.max_rows)?,
        read_deadline: deadline("read-deadline-ms", defaults.read_deadline)?,
        write_deadline: deadline("write-deadline-ms", defaults.write_deadline)?,
        handler_deadline: deadline("handler-deadline-ms", defaults.handler_deadline)?,
        idle_deadline: deadline("idle-deadline-ms", defaults.idle_deadline)?,
        metrics_enabled,
        access_log: args.optional("access-log").map(std::path::PathBuf::from),
        data_dir: args.optional("data-dir").map(std::path::PathBuf::from),
        refit: {
            let min_rows = args.parse_opt::<u64>("refit-rows")?;
            if min_rows == Some(0) {
                return Err(CliError::Usage("--refit-rows must be positive".into()));
            }
            let staleness_ms = args.parse_opt::<u64>("refit-staleness-ms")?;
            if staleness_ms == Some(0) {
                return Err(CliError::Usage("--refit-staleness-ms must be positive".into()));
            }
            RefitPolicy {
                min_rows: min_rows.unwrap_or(u64::MAX),
                max_staleness: staleness_ms.map(std::time::Duration::from_millis),
            }
        },
    };
    let server = Server::bind(
        args.optional("addr").unwrap_or("127.0.0.1:0"),
        config,
        registry,
        Arc::new(ledger),
    )?;
    println!("privbayes-server listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    let stats = server.run()?;
    Ok(format!("server shut down cleanly after {} requests", stats.requests))
}

/// `ingest`: append a batch of rows to a tenant's dataset on a running
/// server. The batch file is shipped verbatim (the server validates every
/// row against the schema before accepting anything).
fn ingest(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&[
        "server", "tenant", "data", "schema", "model-id", "method", "epsilon", "seed", "format",
    ])?;
    let addr = args.required("server")?;
    let tenant = args.required("tenant")?;
    let data_path = args.required("data")?;
    let rows = fs::read_to_string(data_path)
        .map_err(|e| CliError::Io { path: data_path.into(), message: e.to_string() })?;
    let rows_field = match args.optional("format").unwrap_or("csv") {
        "csv" => "csv",
        "jsonl" => "jsonl",
        other => {
            return Err(CliError::Usage(format!(
                "--format: expected `csv` or `jsonl`, got `{other}`"
            )))
        }
    };
    let mut fields: Vec<(&str, Json)> = Vec::new();
    if let Some(schema_path) = args.optional("schema") {
        fields.push(("schema", schema_to_json(&load_schema(schema_path)?)));
    }
    match (args.optional("model-id"), args.parse_opt::<f64>("epsilon")?) {
        (Some(id), Some(epsilon)) => {
            fields.push(("model_id", Json::String(id.to_string())));
            fields.push(("epsilon", Json::Number(epsilon)));
            if let Some(method) = args.optional("method") {
                fields.push(("method", Json::String(method.to_string())));
            }
            if let Some(seed) = args.parse_opt::<u64>("seed")? {
                fields.push(("seed", seed_to_json(seed)));
            }
        }
        (Some(_), None) => return Err(CliError::Usage("--model-id needs --epsilon".into())),
        (None, Some(_)) => return Err(CliError::Usage("--epsilon needs --model-id".into())),
        (None, None) => {}
    }
    fields.push((rows_field, Json::String(rows)));
    let client = privbayes_server::Client::new(addr);
    let response = client.ingest(tenant, &Json::object(fields))?;
    if !(200..300).contains(&response.code) {
        return Err(CliError::Server(format!(
            "server returned {}: {}",
            response.code,
            response.text()
        )));
    }
    let receipt = Json::parse(&response.text())
        .map_err(|e| CliError::Server(format!("unparsable receipt: {e}")))?;
    let count = |name: &str| receipt.get(name).and_then(Json::as_usize).unwrap_or(0);
    Ok(format!(
        "tenant {tenant}: accepted {} rows ({} total, {} pending refit)",
        count("batch_rows"),
        count("total_rows"),
        count("pending_rows"),
    ))
}

fn make_rng(seed: Option<u64>) -> StdRng {
    match seed {
        Some(s) => StdRng::seed_from_u64(s),
        None => StdRng::try_from_rng(&mut rand::rngs::SysRng)
            .expect("operating-system entropy source unavailable"),
    }
}

fn load_schema(path: &str) -> Result<Schema, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError::Io { path: path.into(), message: e.to_string() })?;
    let json = Json::parse(&text).map_err(|e| CliError::Invalid(format!("{path}: {e}")))?;
    schema_from_json(&json).map_err(|e| CliError::Invalid(format!("{path}: {e}")))
}

fn load_csv(schema: &Schema, path: &str) -> Result<Dataset, CliError> {
    let file = fs::File::open(path)
        .map_err(|e| CliError::Io { path: path.into(), message: e.to_string() })?;
    read_csv(schema, BufReader::new(file)).map_err(|e| CliError::Invalid(format!("{path}: {e}")))
}

fn save_csv(dataset: &Dataset, path: impl AsRef<Path>) -> Result<(), CliError> {
    let path = path.as_ref();
    let mut buf = Vec::new();
    write_csv(dataset, &mut buf)
        .map_err(|e| CliError::Invalid(format!("{}: {e}", path.display())))?;
    fs::write(path, buf)
        .map_err(|e| CliError::Io { path: path.display().to_string(), message: e.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use std::path::PathBuf;

    /// A unique temp dir per test.
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("privbayes-cli-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_cli(args: &[&str]) -> Result<String, CliError> {
        run(args.iter().map(ToString::to_string))
    }

    const SCHEMA_JSON: &str = r#"[
        {"name": "smoker", "kind": "binary"},
        {"name": "region", "kind": "categorical", "size": 3,
         "labels": ["north", "south", "west"]},
        {"name": "age", "kind": "continuous", "min": 0, "max": 80, "bins": 8}
    ]"#;

    fn write_fixture_data(dir: &Path) -> (String, String) {
        let schema_path = dir.join("schema.json");
        fs::write(&schema_path, SCHEMA_JSON).unwrap();
        let schema = load_schema(schema_path.to_str().unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let rows: Vec<Vec<u32>> = (0..400)
            .map(|_| {
                let s = rng.random_range(0..2u32);
                let r = (s + rng.random_range(0..2u32)) % 3;
                let a = s * 4 + rng.random_range(0..4u32);
                vec![s, r, a]
            })
            .collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let data_path = dir.join("data.csv");
        save_csv(&data, &data_path).unwrap();
        (schema_path.to_str().unwrap().to_string(), data_path.to_str().unwrap().to_string())
    }

    #[test]
    fn full_fit_synth_eval_inspect_workflow() {
        let dir = temp_dir("workflow");
        let (schema_path, data_path) = write_fixture_data(&dir);
        let model_path = dir.join("model.json").to_str().unwrap().to_string();
        let synth_path = dir.join("synth.csv").to_str().unwrap().to_string();

        let out = run_cli(&[
            "fit",
            "--data",
            &data_path,
            "--schema",
            &schema_path,
            "--epsilon",
            "2.0",
            "--seed",
            "1",
            "--out",
            &model_path,
            "--comment",
            "workflow test",
        ])
        .unwrap();
        assert!(out.contains("fitted 3-attribute model on 400 rows"), "{out}");

        let out = run_cli(&[
            "synth",
            "--model",
            &model_path,
            "--rows",
            "200",
            "--seed",
            "2",
            "--out",
            &synth_path,
        ])
        .unwrap();
        assert!(out.contains("sampled 200 rows"), "{out}");

        let out = run_cli(&[
            "eval",
            "--schema",
            &schema_path,
            "--truth",
            &data_path,
            "--synthetic",
            &synth_path,
            "--alpha",
            "2",
        ])
        .unwrap();
        assert!(out.starts_with("alpha,avg_total_variation"), "{out}");
        let lines: Vec<&str> = out.trim().lines().collect();
        assert_eq!(lines.len(), 3, "header + alpha 1 and 2: {out}");
        let tvd: f64 = lines[2].split(',').nth(1).unwrap().parse().unwrap();
        assert!((0.0..=1.0).contains(&tvd));

        let out = run_cli(&["inspect", "--model", &model_path]).unwrap();
        assert!(out.contains("epsilon:   2"), "{out}");
        assert!(out.contains("workflow test"), "{out}");
        assert!(out.contains("smoker"), "network must mention attributes: {out}");

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn synth_defaults_to_source_row_count() {
        let dir = temp_dir("rows-default");
        let (schema_path, data_path) = write_fixture_data(&dir);
        let model_path = dir.join("model.json").to_str().unwrap().to_string();
        let synth_path = dir.join("synth.csv").to_str().unwrap().to_string();
        run_cli(&[
            "fit",
            "--data",
            &data_path,
            "--schema",
            &schema_path,
            "--epsilon",
            "1.0",
            "--seed",
            "3",
            "--out",
            &model_path,
        ])
        .unwrap();
        let out = run_cli(&["synth", "--model", &model_path, "--seed", "4", "--out", &synth_path])
            .unwrap();
        assert!(out.contains("sampled 400 rows"), "{out}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn threads_flag_does_not_change_output() {
        let dir = temp_dir("threads");
        let (schema_path, data_path) = write_fixture_data(&dir);
        let run_pair = |threads: &str, tag: &str| {
            let model = dir.join(format!("model-{tag}.json")).to_str().unwrap().to_string();
            let synth = dir.join(format!("synth-{tag}.csv")).to_str().unwrap().to_string();
            let mut fit_args = vec![
                "fit",
                "--data",
                &data_path,
                "--schema",
                &schema_path,
                "--epsilon",
                "1.0",
                "--seed",
                "11",
                "--out",
                &model,
            ];
            let synth_args =
                ["synth", "--model", &model, "--rows", "150", "--seed", "12", "--out", &synth];
            if !threads.is_empty() {
                fit_args.extend(["--threads", threads]);
            }
            run_cli(&fit_args).unwrap();
            run_cli(&synth_args).unwrap();
            (fs::read_to_string(&model).unwrap(), fs::read_to_string(&synth).unwrap())
        };
        let sequential = run_pair("1", "t1");
        assert_eq!(run_pair("3", "t3"), sequential, "worker count must not change bytes");
        assert_eq!(run_pair("", "auto"), sequential, "default threads must match too");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_round_trip_with_shutdown() {
        use privbayes_server::Client;

        let dir = temp_dir("serve");
        let (schema_path, data_path) = write_fixture_data(&dir);
        let model_path = dir.join("model.json").to_str().unwrap().to_string();
        run_cli(&[
            "fit",
            "--data",
            &data_path,
            "--schema",
            &schema_path,
            "--epsilon",
            "1.5",
            "--seed",
            "7",
            "--out",
            &model_path,
        ])
        .unwrap();

        // Reserve an ephemeral port, then hand it to `serve`.
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let ledger_path = dir.join("ledger.json").to_str().unwrap().to_string();
        let serve_args: Vec<String> = [
            "serve",
            "--addr",
            &addr,
            "--workers",
            "2",
            "--model",
            &model_path,
            "--model-id",
            "fixture",
            "--ledger",
            &ledger_path,
            "--tenant",
            "acme",
            "--budget",
            "2.0",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let server = std::thread::spawn(move || run(serve_args));

        let client = Client::new(addr);
        // The server may still be binding; retry briefly.
        let mut health = None;
        for _ in 0..100 {
            match client.health() {
                Ok(h) => {
                    health = Some(h);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
            }
        }
        let health = health.expect("server must come up");
        assert_eq!(health.get("models").and_then(Json::as_usize), Some(1));
        let body = client.synth("fixture", 64, 9, "csv").unwrap();
        assert_eq!(body.lines().count(), 65, "header + 64 rows");
        let tenant = client.tenant("acme").unwrap();
        assert_eq!(tenant.get("total").and_then(Json::as_f64), Some(2.0));
        client.shutdown().unwrap();
        let out = server.join().unwrap().unwrap();
        assert!(out.contains("shut down cleanly"), "{out}");
        assert!(fs::read_to_string(&ledger_path).unwrap().contains("acme"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn serve_flag_pairs_are_validated() {
        assert!(matches!(run_cli(&["serve", "--model-id", "x"]), Err(CliError::Usage(_))));
        assert!(matches!(run_cli(&["serve", "--tenant", "t"]), Err(CliError::Usage(_))));
        assert!(matches!(run_cli(&["serve", "--budget", "1.0"]), Err(CliError::Usage(_))));
        // Deadlines must be positive; zero would disable socket timeouts.
        for flag in ["--read-deadline-ms", "--write-deadline-ms", "--handler-deadline-ms"] {
            assert!(
                matches!(run_cli(&["serve", flag, "0"]), Err(CliError::Usage(_))),
                "{flag}=0 must be rejected"
            );
        }
        // Flags the server no longer has are usage errors (exit code 2).
        for flag in ["--queue-depth", "--keepalive-requests", "--ledger-stripes"] {
            let e = run_cli(&["serve", flag, "4"]).unwrap_err();
            assert!(matches!(e, CliError::Usage(_)) && e.exit_code() == 2, "{flag}: {e}");
        }
        // A bad address is a server error (exit code 5), not a usage error.
        assert!(matches!(
            run_cli(&["serve", "--addr", "999.999.999.999:1"]),
            Err(CliError::Server(_))
        ));
    }

    #[test]
    fn fit_method_mwem_round_trips_through_synth_and_inspect() {
        let dir = temp_dir("method-mwem");
        let (schema_path, data_path) = write_fixture_data(&dir);
        let model_path = dir.join("mwem.json").to_str().unwrap().to_string();
        let synth_path = dir.join("mwem-synth.csv").to_str().unwrap().to_string();
        let out = run_cli(&[
            "fit",
            "--data",
            &data_path,
            "--schema",
            &schema_path,
            "--epsilon",
            "1.0",
            "--method",
            "mwem",
            "--iterations",
            "4",
            "--seed",
            "5",
            "--out",
            &model_path,
            "--verbose",
        ])
        .unwrap();
        assert!(out.contains("method mwem"), "{out}");
        assert!(out.contains("engine: 1 scans, 0 subsets,"), "one full-domain count: {out}");
        assert!(!out.contains("projections"), "{out}");

        let out = run_cli(&["inspect", "--model", &model_path]).unwrap();
        assert!(out.contains("method:    mwem"), "{out}");

        let out = run_cli(&[
            "synth",
            "--model",
            &model_path,
            "--rows",
            "120",
            "--seed",
            "6",
            "--out",
            &synth_path,
        ])
        .unwrap();
        assert!(out.contains("sampled 120 rows"), "{out}");
        assert_eq!(fs::read_to_string(&synth_path).unwrap().lines().count(), 121);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_method_is_fittable_from_the_cli() {
        let dir = temp_dir("method-all");
        let (schema_path, data_path) = write_fixture_data(&dir);
        for method in privbayes_synth::Method::ALL {
            let model_path =
                dir.join(format!("{}.json", method.name())).to_str().unwrap().to_string();
            let out = run_cli(&[
                "fit",
                "--data",
                &data_path,
                "--schema",
                &schema_path,
                "--epsilon",
                "1.0",
                "--method",
                method.name(),
                "--seed",
                "3",
                "--out",
                &model_path,
            ])
            .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
            assert!(out.contains(&format!("method {}", method.name())), "{out}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_method_is_a_usage_error_listing_valid_names() {
        let e = run_cli(&[
            "fit",
            "--data",
            "d.csv",
            "--schema",
            "s.json",
            "--epsilon",
            "1.0",
            "--out",
            "m.json",
            "--method",
            "frequentist",
        ])
        .unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{e}");
        assert_eq!(e.exit_code(), 2, "unknown method must exit with code 2");
        let msg = e.to_string();
        for name in ["privbayes", "privbayes-k", "mwem", "laplace", "geometric", "uniform"] {
            assert!(msg.contains(name), "error must list `{name}`: {msg}");
        }
    }

    #[test]
    fn methods_command_lists_every_method() {
        let out = run_cli(&["methods"]).unwrap();
        for method in privbayes_synth::Method::ALL {
            assert!(out.contains(method.name()), "{out}");
        }
        assert!(run_cli(&["help"]).unwrap().contains("methods"), "help must mention `methods`");
    }

    #[test]
    fn fit_method_mwem_then_serve_streams_end_to_end() {
        use privbayes_server::Client;

        let dir = temp_dir("serve-mwem");
        let (schema_path, data_path) = write_fixture_data(&dir);
        let model_path = dir.join("mwem.json").to_str().unwrap().to_string();
        run_cli(&[
            "fit",
            "--data",
            &data_path,
            "--schema",
            &schema_path,
            "--epsilon",
            "1.0",
            "--method",
            "mwem",
            "--seed",
            "7",
            "--out",
            &model_path,
        ])
        .unwrap();

        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let serve_args: Vec<String> = [
            "serve",
            "--addr",
            &addr,
            "--workers",
            "2",
            "--model",
            &model_path,
            "--model-id",
            "mwem",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let server = std::thread::spawn(move || run(serve_args));

        let client = Client::new(addr);
        let mut ready = false;
        for _ in 0..100 {
            if client.health().is_ok() {
                ready = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert!(ready, "server must come up");
        let body = client.synth("mwem", 80, 4, "csv").unwrap();
        assert_eq!(body.lines().count(), 81, "header + 80 rows from the MWEM artifact");
        let again = client.synth("mwem", 80, 4, "csv").unwrap();
        assert_eq!(body, again, "fixed seed streams identical bytes");
        client.shutdown().unwrap();
        let out = server.join().unwrap().unwrap();
        assert!(out.contains("shut down cleanly"), "{out}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn synth_where_select_and_local_query() {
        let dir = temp_dir("query-api");
        let (schema_path, data_path) = write_fixture_data(&dir);
        let model_path = dir.join("model.json").to_str().unwrap().to_string();
        run_cli(&[
            "fit",
            "--data",
            &data_path,
            "--schema",
            &schema_path,
            "--epsilon",
            "2.0",
            "--seed",
            "1",
            "--out",
            &model_path,
        ])
        .unwrap();

        let synth_path = dir.join("cohort.csv").to_str().unwrap().to_string();
        let out = run_cli(&[
            "synth",
            "--model",
            &model_path,
            "--rows",
            "120",
            "--seed",
            "3",
            "--where",
            "smoker=v1",
            "--select",
            "region,smoker",
            "--out",
            &synth_path,
        ])
        .unwrap();
        assert!(out.contains("sampled 120 rows"), "{out}");
        let text = fs::read_to_string(&synth_path).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("region,smoker"), "projected header in --select order");
        let mut rows = 0;
        for line in lines {
            assert!(line.ends_with(",v1"), "evidence must clamp smoker: {line}");
            rows += 1;
        }
        assert_eq!(rows, 120);

        let out = run_cli(&["query", "--model", &model_path, "--attrs", "smoker,region"]).unwrap();
        let lines: Vec<&str> = out.trim().lines().collect();
        assert_eq!(lines[0], "smoker,region,probability");
        assert_eq!(lines.len(), 1 + 2 * 3, "header + 2x3 cells");
        let printed: Vec<f64> =
            lines[1..].iter().map(|l| l.rsplit(',').next().unwrap().parse().unwrap()).collect();
        let total: f64 = printed.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "marginal must sum to 1, got {total}");
        // The printed decimals read back to `model_marginal`'s exact bits.
        let artifact = ReleasedModel::load(&model_path).unwrap();
        let exact =
            model_marginal(&artifact.model, &artifact.schema, &[0, 1], DEFAULT_CELL_CAP).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&printed), bits(exact.values()));

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn synth_resume_concatenates_byte_identically() {
        use privbayes_synth::Cursor;

        let dir = temp_dir("resume");
        let (schema_path, data_path) = write_fixture_data(&dir);
        let model_path = dir.join("model.json").to_str().unwrap().to_string();
        run_cli(&[
            "fit",
            "--data",
            &data_path,
            "--schema",
            &schema_path,
            "--epsilon",
            "1.0",
            "--seed",
            "2",
            "--out",
            &model_path,
        ])
        .unwrap();

        let full_path = dir.join("full.csv").to_str().unwrap().to_string();
        run_cli(&[
            "synth",
            "--model",
            &model_path,
            "--rows",
            "90",
            "--seed",
            "5",
            "--out",
            &full_path,
        ])
        .unwrap();
        let full = fs::read_to_string(&full_path).unwrap();

        let tail_path = dir.join("tail.csv").to_str().unwrap().to_string();
        let cursor = Cursor { seed: 5, row: 40, generation: None }.encode();
        let out = run_cli(&[
            "synth",
            "--model",
            &model_path,
            "--rows",
            "90",
            "--resume",
            &cursor,
            "--out",
            &tail_path,
        ])
        .unwrap();
        assert!(out.contains("resumed at row 40"), "{out}");
        let tail = fs::read_to_string(&tail_path).unwrap();
        // header + 40 rows of the full run, then the resumed tail.
        let prefix: String = full.lines().take(41).map(|l| format!("{l}\n")).collect();
        assert_eq!(format!("{prefix}{tail}"), full, "prefix + resumed must equal uninterrupted");

        fs::remove_dir_all(&dir).unwrap();
    }

    /// `synth` writes exactly the bytes a server streams for the same spec,
    /// whatever the server's stream thread count.
    #[test]
    fn synth_equals_the_served_stream_at_every_thread_count() {
        use privbayes_server::Client;

        let dir = temp_dir("synth-served");
        let (schema_path, data_path) = write_fixture_data(&dir);
        let model_path = dir.join("model.json").to_str().unwrap().to_string();
        run_cli(&[
            "fit",
            "--data",
            &data_path,
            "--schema",
            &schema_path,
            "--epsilon",
            "1.0",
            "--seed",
            "6",
            "--out",
            &model_path,
        ])
        .unwrap();
        let rows = 5 * privbayes::CHUNK_ROWS + 17;
        let rows_text = rows.to_string();
        let cursor =
            Cursor { seed: 5, row: 2 * privbayes::CHUNK_ROWS as u64 + 5, generation: None };
        let token = cursor.encode();
        let base = SynthSpec::new().with_rows(rows).with_seed(5);
        let cases: Vec<(Vec<&str>, SynthSpec)> = vec![
            (vec![], base.clone()),
            (vec!["--format", "jsonl"], base.clone().with_format(RowFormat::Jsonl)),
            (
                vec!["--where", "region=south", "--select", "age,smoker"],
                base.clone().where_eq("region", "south").select("age").select("smoker"),
            ),
            (vec!["--resume", &token], base.clone().with_cursor(cursor)),
        ];
        let out = dir.join("synth.out").to_str().unwrap().to_string();
        for threads in [1, 3, 8] {
            let registry = Arc::new(ModelRegistry::new());
            registry.load("m", ReleasedModel::load(&model_path).unwrap()).unwrap();
            let config = ServerConfig { fit_threads: Some(threads), ..ServerConfig::default() };
            let ledger = Arc::new(BudgetLedger::in_memory());
            let handle = Server::bind("127.0.0.1:0", config, registry, ledger).unwrap().spawn();
            let client = Client::new(handle.addr().to_string());
            for (flags, spec) in &cases {
                let mut args =
                    vec!["synth", "--model", &model_path, "--rows", &rows_text, "--seed", "5"];
                args.extend(["--out", &out]);
                args.extend(flags);
                run_cli(&args).unwrap();
                let served = client.synth_with("m", spec).unwrap().text();
                assert!(
                    fs::read_to_string(&out).unwrap() == served,
                    "{flags:?} at {threads} server threads"
                );
            }
            client.shutdown().unwrap();
            handle.join().unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spec_mistakes_are_typed_and_exit_4() {
        let dir = temp_dir("spec-errors");
        let (schema_path, data_path) = write_fixture_data(&dir);
        let model_path = dir.join("model.json").to_str().unwrap().to_string();
        run_cli(&[
            "fit",
            "--data",
            &data_path,
            "--schema",
            &schema_path,
            "--epsilon",
            "1.0",
            "--seed",
            "4",
            "--out",
            &model_path,
        ])
        .unwrap();
        let out = dir.join("x.csv").to_str().unwrap().to_string();
        for args in [
            vec!["synth", "--model", &model_path, "--out", &out, "--select", "bogus"],
            vec!["synth", "--model", &model_path, "--out", &out, "--where", "smoker=v9"],
            vec!["synth", "--model", &model_path, "--out", &out, "--resume", "garbage"],
            vec!["query", "--model", &model_path, "--attrs", "nope"],
        ] {
            let e = run_cli(&args).unwrap_err();
            assert!(matches!(e, CliError::Spec(_)), "{args:?}: {e}");
            assert_eq!(e.exit_code(), 4, "{args:?}");
        }
        // A malformed --where pair is a usage error (exit 2), not a spec one.
        let e = run_cli(&["synth", "--model", &model_path, "--out", &out, "--where", "smoker"])
            .unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{e}");
        // synth has no --threads: the flag is a usage error, not ignored.
        let e = run_cli(&[
            "synth",
            "--model",
            &model_path,
            "--out",
            &out,
            "--select",
            "smoker",
            "--threads",
            "4",
        ])
        .unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{e}");
        assert!(e.to_string().contains("--threads"), "{e}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn help_is_always_available() {
        assert!(run_cli(&["help"]).unwrap().contains("commands:"));
        assert!(run_cli(&["--help"]).unwrap().contains("commands:"));
        assert!(run_cli(&["fit", "--help"]).unwrap().contains("commands:"));
    }

    #[test]
    fn usage_errors_are_reported() {
        assert!(matches!(run_cli(&["transmogrify"]), Err(CliError::Usage(_))));
        assert!(matches!(run_cli(&["fit", "--epsilon", "1.0"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_cli(&[
                "fit",
                "--data",
                "d",
                "--schema",
                "s",
                "--out",
                "o",
                "--epsilon",
                "1.0",
                "--encoding",
                "gray"
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn missing_files_are_io_errors() {
        let dir = temp_dir("missing");
        let (schema_path, _) = write_fixture_data(&dir);
        let e = run_cli(&[
            "fit",
            "--data",
            "/nonexistent.csv",
            "--schema",
            &schema_path,
            "--epsilon",
            "1.0",
            "--out",
            "/tmp/x.json",
        ])
        .unwrap_err();
        assert!(matches!(e, CliError::Io { .. }), "{e}");
        let e = run_cli(&["inspect", "--model", "/nonexistent.json"]).unwrap_err();
        assert!(matches!(e, CliError::Io { .. }), "{e}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eval_rejects_bad_alpha() {
        let dir = temp_dir("alpha");
        let (schema_path, data_path) = write_fixture_data(&dir);
        let e = run_cli(&[
            "eval",
            "--schema",
            &schema_path,
            "--truth",
            &data_path,
            "--synthetic",
            &data_path,
            "--alpha",
            "9",
        ])
        .unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{e}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eval_of_identical_tables_is_zero() {
        let dir = temp_dir("self-eval");
        let (schema_path, data_path) = write_fixture_data(&dir);
        let out = run_cli(&[
            "eval",
            "--schema",
            &schema_path,
            "--truth",
            &data_path,
            "--synthetic",
            &data_path,
            "--alpha",
            "1",
        ])
        .unwrap();
        let tvd: f64 =
            out.trim().lines().nth(1).unwrap().split(',').nth(1).unwrap().parse().unwrap();
        assert!(tvd < 1e-9, "identical tables must have zero distance, got {tvd}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn relational_artifact_synth_and_inspect() {
        use privbayes_relational::{clinic_benchmark, RelationalOptions, RelationalPrivBayes};

        let dir = temp_dir("relational");
        let data = clinic_benchmark(300, 3, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let synthesis = RelationalPrivBayes::new(RelationalOptions::new(2.0))
            .synthesize(&data, &mut rng)
            .unwrap();
        let artifact = ReleasedRelationalModel::from_synthesis(
            data.schema().clone(),
            &synthesis,
            "cli test",
            data.n_entities(),
            data.n_facts(),
        )
        .unwrap();
        let model_path = dir.join("clinic.json").to_str().unwrap().to_string();
        artifact.save(&model_path).unwrap();

        let out_e = dir.join("entities.csv").to_str().unwrap().to_string();
        let out_f = dir.join("facts.csv").to_str().unwrap().to_string();
        let out = run_cli(&[
            "synth-relational",
            "--model",
            &model_path,
            "--entities",
            "150",
            "--seed",
            "3",
            "--out-entities",
            &out_e,
            "--out-facts",
            &out_f,
        ])
        .unwrap();
        assert!(out.contains("synthesised 150 entities"), "{out}");
        let facts = fs::read_to_string(&out_f).unwrap();
        assert!(facts.starts_with("owner,diagnosis,inpatient\n"), "{facts}");
        // Every owner index refers to a synthesised entity.
        let entities = fs::read_to_string(&out_e).unwrap();
        let n_entities = entities.trim().lines().count() - 1;
        assert_eq!(n_entities, 150);
        for line in facts.trim().lines().skip(1) {
            let owner: usize = line.split(',').next().unwrap().parse().unwrap();
            assert!(owner < 150, "dangling owner {owner}");
        }

        let out = run_cli(&["inspect", "--model", &model_path]).unwrap();
        assert!(out.contains("fan-out cap:    3"), "{out}");
        assert!(out.contains("fact network"), "{out}");
        assert!(out.contains("cli test"), "{out}");

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn audit_reports_advantage_under_bound_for_a_real_fit() {
        let dir = temp_dir("audit");
        let (schema_path, data_path) = write_fixture_data(&dir);
        let model_path = dir.join("model.json").to_str().unwrap().to_string();
        run_cli(&[
            "fit",
            "--data",
            &data_path,
            "--schema",
            &schema_path,
            "--epsilon",
            "1.0",
            "--seed",
            "3",
            "--out",
            &model_path,
        ])
        .unwrap();

        let out = run_cli(&[
            "audit",
            "--model",
            &model_path,
            "--data",
            &data_path,
            "--schema",
            &schema_path,
            "--seed",
            "11",
        ])
        .unwrap();
        // The default rep count gates ε = 1: the verdict is a pass, not vacuous.
        assert!(out.contains("membership-inference audit of privbayes at ε = 1 (84 reps"), "{out}");
        assert!(out.contains("advantage"), "{out}");
        assert!(out.contains("bound"), "{out}");
        assert!(out.contains("verdict: measured advantage is under the analytic ε-DP bound"));
        assert!(!out.contains("vacuous"), "{out}");

        // The recorded ε can be overridden per run.
        let out = run_cli(&[
            "audit",
            "--model",
            &model_path,
            "--data",
            &data_path,
            "--schema",
            &schema_path,
            "--reps",
            "4",
            "--epsilon",
            "0.2",
        ])
        .unwrap();
        assert!(out.contains("at ε = 0.2"), "{out}");
        // Four reps leave a slack no advantage can exceed.
        assert!(out.contains("verdict: vacuous (needs ≥ 30 reps)"), "{out}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn audit_flag_validation_uses_exit_code_two() {
        let dir = temp_dir("audit-flags");
        let (schema_path, data_path) = write_fixture_data(&dir);
        let model_path = dir.join("model.json").to_str().unwrap().to_string();
        run_cli(&[
            "fit",
            "--data",
            &data_path,
            "--schema",
            &schema_path,
            "--epsilon",
            "1.0",
            "--seed",
            "3",
            "--out",
            &model_path,
        ])
        .unwrap();

        // Odd / tiny repetition counts are usage errors, not panics.
        for reps in ["7", "2"] {
            let e = run_cli(&[
                "audit",
                "--model",
                &model_path,
                "--data",
                &data_path,
                "--schema",
                &schema_path,
                "--reps",
                reps,
            ])
            .unwrap_err();
            assert!(matches!(e, CliError::Usage(_)), "{e}");
            assert_eq!(e.exit_code(), 2);
        }
        let e = run_cli(&[
            "audit",
            "--model",
            &model_path,
            "--data",
            &data_path,
            "--schema",
            &schema_path,
            "--epsilon",
            "-1",
        ])
        .unwrap_err();
        assert!(matches!(e, CliError::Usage(_)), "{e}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_schema_is_invalid() {
        let dir = temp_dir("corrupt");
        let schema_path = dir.join("schema.json");
        fs::write(&schema_path, "{not json").unwrap();
        let e = run_cli(&[
            "fit",
            "--data",
            "d.csv",
            "--schema",
            schema_path.to_str().unwrap(),
            "--epsilon",
            "1.0",
            "--out",
            "m.json",
        ])
        .unwrap_err();
        assert!(matches!(e, CliError::Invalid(_)), "{e}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
