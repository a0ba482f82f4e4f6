//! The query-API tier: the v2 request surface end to end.
//!
//! 1. **Conditional sampling** — `CompiledSampler` draws conditioned on
//!    evidence are cross-checked against the exact conditionals of
//!    `privbayes::inference` on small networks (TVD below tolerance at a
//!    fixed seed), in both the ancestrally-closed (clamp-exact) and the
//!    likelihood-weighted mode.
//! 2. **Projection** — projected streams are byte-equivalent to sampling
//!    everything and dropping columns afterwards.
//! 3. **Cursor resume** — an interrupted `/v1` stream resumed from a cursor
//!    concatenates byte-identically to an uninterrupted one.
//! 4. **Marginal queries** — `/v1/models/{id}/query` answers are
//!    bit-identical to the independent θ-projection oracle in
//!    `privbayes_bench::reference`.
//! 5. **Error shape** — spec mistakes come back `400` with the structured
//!    `invalid-spec` body; every response carries `Content-Type` and
//!    `X-PrivBayes-Api: v1`.

use std::sync::Arc;

use privbayes_bench::reference::reference_theta_projection;
use privbayes_suite::core::conditionals::{noisy_conditionals_general, Conditional, NoisyModel};
use privbayes_suite::core::inference::{model_conditional, DEFAULT_CELL_CAP};
use privbayes_suite::core::network::{ApPair, BayesianNetwork};
use privbayes_suite::core::{SampleSpec, CHUNK_ROWS};
use privbayes_suite::data::{Attribute, Dataset, Schema};
use privbayes_suite::marginals::{total_variation, Axis, ContingencyTable};
use privbayes_suite::model::{Json, ModelMetadata, ReleasedModel};
use privbayes_suite::server::{
    BudgetLedger, Client, Cursor, MarginalQuery, ModelRegistry, Server, ServerConfig, ServerError,
    SynthSpec,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A 3-attribute chain model (a → b → c with c depending on both) fit
/// noise-free-ish on correlated data, wrapped as a release artifact.
fn chain_artifact(seed: u64) -> ReleasedModel {
    let schema = Schema::new(vec![
        Attribute::binary("smoker"),
        Attribute::binary("cough"),
        Attribute::categorical_labelled("region", ["north", "south", "west"]).unwrap(),
    ])
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<u32>> = (0..4000)
        .map(|_| {
            let a = rng.random_range(0..2u32);
            let b = if rng.random::<f64>() < 0.8 { a } else { 1 - a };
            let c = (a + b + u32::from(rng.random::<f64>() < 0.3)) % 3;
            vec![a, b, c]
        })
        .collect();
    let data = Dataset::from_rows(schema, &rows).unwrap();
    let net = BayesianNetwork::new(
        vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0]), ApPair::new(2, vec![0, 1])],
        data.schema(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let model = noisy_conditionals_general(&data, &net, Some(2.0), &mut rng).unwrap();
    ReleasedModel::new(
        ModelMetadata {
            method: "privbayes".into(),
            epsilon: 2.0,
            beta: 0.3,
            theta: 4.0,
            score: "R".into(),
            encoding: "vanilla".into(),
            source_rows: data.n(),
            comment: "query api fixture".into(),
        },
        data.schema().clone(),
        model,
    )
    .unwrap()
}

/// A hand-built two-attribute model `a → b` where the leaf value `b = 1`
/// is rare: `Pr[b = 1] = 0.7·0.002 + 0.3·0.022 = 0.008`, below the
/// `1/LW_CANDIDATES = 1/64 ≈ 0.0156` threshold where most candidate
/// batches in the likelihood-weighted sampler carry tiny total weight.
/// The exact posterior is `Pr[a = 1 | b = 1] = 0.0066/0.008 = 0.825`.
fn rare_leaf_artifact() -> ReleasedModel {
    let schema = Schema::new(vec![Attribute::binary("a"), Attribute::binary("b")]).unwrap();
    let net = BayesianNetwork::new(vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0])], &schema)
        .unwrap();
    let model = NoisyModel {
        network: net,
        conditionals: vec![
            Conditional {
                child: 0,
                parents: vec![],
                parent_dims: vec![],
                child_dim: 2,
                probs: vec![0.7, 0.3],
            },
            Conditional {
                child: 1,
                parents: vec![Axis::raw(0)],
                parent_dims: vec![2],
                child_dim: 2,
                probs: vec![0.998, 0.002, 0.978, 0.022],
            },
        ],
    };
    ReleasedModel::new(
        ModelMetadata {
            method: "privbayes".into(),
            epsilon: 1.0,
            beta: 0.3,
            theta: 4.0,
            score: "R".into(),
            encoding: "vanilla".into(),
            source_rows: 100,
            comment: "rare-evidence fixture".into(),
        },
        schema,
        model,
    )
    .unwrap()
}

/// A hand-built model where `Pr[a = 1] = 0` exactly — for the
/// zero-probability-evidence error shape.
fn zero_mass_artifact() -> ReleasedModel {
    let schema = Schema::new(vec![Attribute::binary("a"), Attribute::binary("b")]).unwrap();
    let net = BayesianNetwork::new(vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0])], &schema)
        .unwrap();
    let model = NoisyModel {
        network: net,
        conditionals: vec![
            Conditional {
                child: 0,
                parents: vec![],
                parent_dims: vec![],
                child_dim: 2,
                probs: vec![1.0, 0.0],
            },
            Conditional {
                child: 1,
                parents: vec![Axis::raw(0)],
                parent_dims: vec![2],
                child_dim: 2,
                probs: vec![0.5, 0.5, 0.5, 0.5],
            },
        ],
    };
    ReleasedModel::new(
        ModelMetadata {
            method: "privbayes".into(),
            epsilon: 1.0,
            beta: 0.3,
            theta: 4.0,
            score: "R".into(),
            encoding: "vanilla".into(),
            source_rows: 100,
            comment: "zero-mass fixture".into(),
        },
        schema,
        model,
    )
    .unwrap()
}

fn start_server() -> (privbayes_suite::server::ServerHandle, Client) {
    let registry = Arc::new(ModelRegistry::new());
    registry.load("m", chain_artifact(11)).unwrap();
    registry.load("z", zero_mass_artifact()).unwrap();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig { fit_threads: Some(1), ..ServerConfig::default() },
        registry,
        Arc::new(BudgetLedger::in_memory()),
    )
    .unwrap();
    let handle = server.spawn();
    let client = Client::new(handle.addr().to_string());
    (handle, client)
}

#[test]
fn clamped_conditional_draws_match_exact_inference() {
    // Evidence on the root attribute: the evidence set is ancestrally
    // closed, so clamped ancestral sampling is exact — only Monte-Carlo
    // error remains.
    let artifact = chain_artifact(3);
    let sampler = artifact.compiled().unwrap();
    let sample =
        sampler.sample_conditional(30_000, &[(0, 1)], &mut StdRng::seed_from_u64(5)).unwrap();
    assert!(sample.column(0).iter().all(|&v| v == 1), "evidence must clamp");
    let got = ContingencyTable::from_dataset(&sample, &[Axis::raw(1), Axis::raw(2)]);
    let want =
        model_conditional(&artifact.model, &artifact.schema, &[1, 2], &[(0, 1)], DEFAULT_CELL_CAP)
            .unwrap();
    let tvd = total_variation(got.values(), want.values());
    assert!(tvd < 0.02, "clamp-exact conditional must match inference, tvd = {tvd}");
}

#[test]
fn weighted_conditional_draws_match_exact_inference() {
    // Evidence on the leaf conditions its ancestors — the Bayes-inversion
    // direction needs likelihood-weighted resampling (bias O(1/LW_CANDIDATES)
    // plus Monte-Carlo error).
    let artifact = chain_artifact(7);
    let sampler = artifact.compiled().unwrap();
    let sample =
        sampler.sample_conditional(30_000, &[(2, 2)], &mut StdRng::seed_from_u64(13)).unwrap();
    assert!(sample.column(2).iter().all(|&v| v == 2), "evidence must clamp");
    let got = ContingencyTable::from_dataset(&sample, &[Axis::raw(0), Axis::raw(1)]);
    let want =
        model_conditional(&artifact.model, &artifact.schema, &[0, 1], &[(2, 2)], DEFAULT_CELL_CAP)
            .unwrap();
    let tvd = total_variation(got.values(), want.values());
    assert!(tvd < 0.05, "weighted conditional must track inference, tvd = {tvd}");
}

#[test]
fn weighted_conditional_stays_calibrated_under_rare_evidence() {
    // Regression guard for the likelihood-weighted sampler when the
    // conditioning event itself is rarer than one expected hit per
    // candidate batch: Pr[evidence] < 1/LW_CANDIDATES. In that regime the
    // per-row resampling step often sees 64 candidates whose weights are
    // all small, and any bug that falls back to an unweighted candidate
    // (or renormalises incorrectly) would silently return the *prior*
    // over the ancestors instead of the posterior. Here those two
    // distributions are far apart — prior Pr[a = 1] = 0.3 vs posterior
    // Pr[a = 1 | b = 1] = 0.825, a TVD of 0.525 — so drifting toward the
    // prior trips the tolerance immediately.
    //
    // The self-normalised importance-sampling bias is O(1/LW_CANDIDATES)
    // ≈ 0.016 and Monte-Carlo error at 40 000 rows is ~0.004, so 0.05 is
    // a comfortable-but-discriminating tolerance. (ROADMAP's posterior
    // compilation item will eventually make this draw exact; this test
    // then simply gets easier.)
    let artifact = rare_leaf_artifact();
    // Confirm the fixture really is in the rare regime.
    let marginal =
        model_conditional(&artifact.model, &artifact.schema, &[1], &[], DEFAULT_CELL_CAP).unwrap();
    let p_evidence = marginal.values()[1];
    assert!(
        p_evidence < 1.0 / privbayes_suite::core::LW_CANDIDATES as f64,
        "fixture must be rarer than one hit per candidate batch, Pr = {p_evidence}"
    );

    let sampler = artifact.compiled().unwrap();
    let sample =
        sampler.sample_conditional(40_000, &[(1, 1)], &mut StdRng::seed_from_u64(29)).unwrap();
    assert!(sample.column(1).iter().all(|&v| v == 1), "evidence must clamp");
    let got = ContingencyTable::from_dataset(&sample, &[Axis::raw(0)]);
    let want =
        model_conditional(&artifact.model, &artifact.schema, &[0], &[(1, 1)], DEFAULT_CELL_CAP)
            .unwrap();
    let tvd = total_variation(got.values(), want.values());
    assert!(tvd < 0.05, "rare-evidence conditional must track the posterior, tvd = {tvd}");
    // And specifically: the draw must be much closer to the posterior than
    // to the unconditioned prior it would collapse to under a weighting bug.
    let prior =
        model_conditional(&artifact.model, &artifact.schema, &[0], &[], DEFAULT_CELL_CAP).unwrap();
    let tvd_prior = total_variation(got.values(), prior.values());
    assert!(
        tvd_prior > 10.0 * tvd.max(0.01),
        "draws must not drift toward the prior: tvd(posterior) = {tvd}, tvd(prior) = {tvd_prior}"
    );
}

#[test]
fn conditional_sampling_is_deterministic_and_stream_equals_batch() {
    let artifact = chain_artifact(19);
    let sampler = artifact.compiled().unwrap();
    let rows = CHUNK_ROWS + 321;
    let a = sampler.sample_conditional(rows, &[(2, 1)], &mut StdRng::seed_from_u64(4)).unwrap();
    let b = sampler.sample_conditional(rows, &[(2, 1)], &mut StdRng::seed_from_u64(4)).unwrap();
    assert_eq!(a, b, "fixed (model, seed, evidence) must reproduce rows exactly");
    let spec = SampleSpec::rows(rows).with_evidence(vec![(2, 1)]);
    let stream = sampler.stream_spec(&spec, &mut StdRng::seed_from_u64(4)).unwrap();
    let streamed: Vec<Vec<u32>> = stream.flatten().collect();
    assert_eq!(streamed.len(), rows);
    for (row, tuple) in streamed.iter().enumerate() {
        assert_eq!(*tuple, a.row(row), "row {row}");
    }
}

#[test]
fn projection_is_byte_equivalent_to_post_hoc_column_dropping() {
    let artifact = chain_artifact(23);
    let sampler = artifact.compiled().unwrap();
    let rows = CHUNK_ROWS + 77;
    let full: Vec<Vec<u32>> = sampler
        .stream_spec(&SampleSpec::rows(rows), &mut StdRng::seed_from_u64(9))
        .unwrap()
        .flatten()
        .collect();
    let spec = SampleSpec::rows(rows).with_projection(vec![2, 0]);
    let projected: Vec<Vec<u32>> =
        sampler.stream_spec(&spec, &mut StdRng::seed_from_u64(9)).unwrap().flatten().collect();
    let dropped: Vec<Vec<u32>> = full.iter().map(|t| vec![t[2], t[0]]).collect();
    assert_eq!(projected, dropped, "projection must equal dropping columns after the fact");
}

#[test]
fn cursor_resume_is_byte_identical_to_an_uninterrupted_stream() {
    let (handle, client) = start_server();
    let rows = 2 * CHUNK_ROWS + 137;
    let spec = SynthSpec::new().with_rows(rows).with_seed(9);
    let full = client.synth_with("m", &spec).unwrap();
    assert_eq!(full.header("x-privbayes-seed"), Some("9"));
    assert_eq!(full.header("x-privbayes-api"), Some("v1"));
    assert_eq!(full.header("content-type"), Some("text/csv"));
    let full_text = full.text();

    // Interrupt mid-chunk: keep the header plus the first 1100 rows, then
    // resume from row 1100 (the cursor needs no other spec change).
    let resume_at = 1100usize;
    let resumed = client
        .synth_with(
            "m",
            &SynthSpec::new().with_rows(rows).with_cursor(Cursor {
                seed: 9,
                row: resume_at as u64,
                generation: None,
            }),
        )
        .unwrap();
    let prefix: String = full_text.lines().take(1 + resume_at).map(|l| format!("{l}\n")).collect();
    assert_eq!(
        format!("{prefix}{}", resumed.text()),
        full_text,
        "prefix + resumed must equal the uninterrupted stream byte for byte"
    );

    // Conditional + projected streams resume identically too.
    let spec = SynthSpec::new()
        .with_rows(rows)
        .with_seed(77)
        .where_eq("region", "south")
        .select("smoker")
        .select("region");
    let full = client.synth_with("m", &spec).unwrap().text();
    let again = client.synth_with("m", &spec).unwrap().text();
    assert_eq!(full, again, "conditional streams must be deterministic");
    let resumed = client
        .synth_with(
            "m",
            &spec.clone().with_cursor(Cursor { seed: 77, row: 2000, generation: None }),
        )
        .unwrap();
    let prefix: String = full.lines().take(1 + 2000).map(|l| format!("{l}\n")).collect();
    assert_eq!(format!("{prefix}{}", resumed.text()), full);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn v1_marginal_answers_are_bit_identical_to_the_oracle() {
    let (handle, client) = start_server();
    let artifact = chain_artifact(11); // same seed as the served model
    for attrs in [vec![0usize], vec![2], vec![2, 0], vec![0, 1, 2]] {
        let mut query = MarginalQuery::new();
        for &a in &attrs {
            query = query.over(artifact.schema.attribute(a).name());
        }
        let answer = client.query("m", &query).unwrap();
        let served: Vec<f64> = answer
            .get("values")
            .and_then(Json::as_array)
            .expect("values array")
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        let oracle = reference_theta_projection(&artifact.model, &artifact.schema, &attrs);
        assert_eq!(served.len(), oracle.values().len(), "attrs {attrs:?}");
        for (i, (a, b)) in served.iter().zip(oracle.values()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "attrs {attrs:?}, cell {i}: served {a} vs oracle {b}"
            );
        }
        let dims: Vec<usize> = answer
            .get("dims")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|v| v.as_usize().unwrap())
            .collect();
        assert_eq!(&dims[..], oracle.dims(), "attrs {attrs:?}");
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn spec_failures_are_structured_invalid_spec_responses() {
    let (handle, client) = start_server();

    // Unknown attribute in a synth spec.
    let err = client.synth_with("m", &SynthSpec::new().select("bogus")).unwrap_err();
    let ServerError::Status { code, body } = err else { panic!("want status, got {err}") };
    assert_eq!(code, 400);
    assert!(body.contains("\"invalid-spec\""), "{body}");
    assert!(body.contains("bogus"), "{body}");

    // Unknown attribute in a marginal query.
    let err = client.query("m", &MarginalQuery::new().over("bogus")).unwrap_err();
    let ServerError::Status { code, body } = err else { panic!("want status, got {err}") };
    assert_eq!(code, 400);
    assert!(body.contains("\"invalid-spec\""), "{body}");

    // Out-of-domain evidence value.
    let err = client.synth_with("m", &SynthSpec::new().where_eq("region", "east")).unwrap_err();
    let ServerError::Status { code, body } = err else { panic!("want status, got {err}") };
    assert_eq!(code, 400);
    assert!(body.contains("\"invalid-spec\""), "{body}");

    // Malformed cursor token (raw body — the typed client can't build one).
    let response = client
        .request(
            "POST",
            "/v1/models/m/synth",
            Some(("application/json", br#"{"cursor": "garbage"}"# as &[u8])),
        )
        .unwrap();
    assert_eq!(response.code, 400);
    assert!(response.text().contains("\"invalid-spec\""), "{}", response.text());

    // Evidence with probability zero under the model.
    let err = client.synth_with("z", &SynthSpec::new().where_eq("a", 1u32)).unwrap_err();
    let ServerError::Status { code, body } = err else { panic!("want status, got {err}") };
    assert_eq!(code, 400);
    assert!(body.contains("probability zero"), "{body}");

    // Error responses carry the content-type and API headers too.
    let response = client.request("GET", "/models/nope/synth", None).unwrap();
    assert_eq!(response.code, 404);
    assert_eq!(response.header("content-type"), Some("application/json"));
    assert_eq!(response.header("x-privbayes-api"), Some("v1"));

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn content_types_cover_every_format() {
    let (handle, client) = start_server();
    let csv = client.synth_with("m", &SynthSpec::new().with_rows(10).with_seed(1)).unwrap();
    assert_eq!(csv.header("content-type"), Some("text/csv"));
    let ndjson = client
        .synth_with(
            "m",
            &SynthSpec::new()
                .with_rows(10)
                .with_seed(1)
                .with_format(privbayes_suite::synth::RowFormat::Jsonl),
        )
        .unwrap();
    assert_eq!(ndjson.header("content-type"), Some("application/x-ndjson"));
    assert_eq!(ndjson.text().lines().count(), 10, "one JSON object per row");
    let health = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.header("content-type"), Some("application/json"));
    assert_eq!(health.header("x-privbayes-api"), Some("v1"));
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn projected_conditional_stream_matches_post_hoc_processing_of_the_full_stream() {
    let (handle, client) = start_server();
    // Full conditioned stream, all columns.
    let base = SynthSpec::new().with_rows(800).with_seed(31).where_eq("smoker", "v1");
    let full = client.synth_with("m", &base).unwrap().text();
    // Same request with a projection: must equal dropping columns from the
    // full response line by line.
    let projected =
        client.synth_with("m", &base.clone().select("region").select("cough")).unwrap().text();
    let expect: String = full
        .lines()
        .map(|line| {
            let cells: Vec<&str> = line.split(',').collect();
            format!("{},{}\n", cells[2], cells[1])
        })
        .collect();
    assert_eq!(projected, expect, "projection must be post-hoc column dropping, byte for byte");
    client.shutdown().unwrap();
    handle.join().unwrap();
}

// ---------------------------------------------------------------------------
// 6. Rendering against the reference renderer
// ---------------------------------------------------------------------------

/// Labels that exercise every escaping rule: quotes, backslashes, newlines,
/// control bytes, the CSV delimiter, and 2- and 4-byte UTF-8.
const AWKWARD_LABELS: [&str; 9] =
    ["plain", "say \"hi\"", "back\\slash", "two\nlines", "bell\u{1}", "a,b", "é", "😀", "x"];

/// A random schema: labelled attributes take a shuffled subset of
/// [`AWKWARD_LABELS`]; unlabelled ones have domains wide enough for two- and
/// three-digit `v{code}` labels. Names carry the same awkward characters.
fn random_render_schema(rng: &mut StdRng) -> Schema {
    let attrs = rng.random_range(1..6usize);
    let attributes = (0..attrs)
        .map(|i| {
            let name =
                format!("{}{i}", ["a", "q\"", "b\\", "é", "😀,"][rng.random_range(0..5usize)]);
            match rng.random_range(0..4u32) {
                0 => Attribute::binary(name),
                1 => Attribute::categorical(name, [12, 150][rng.random_range(0..2usize)]).unwrap(),
                _ => {
                    let mut labels = AWKWARD_LABELS.to_vec();
                    for j in (1..labels.len()).rev() {
                        labels.swap(j, rng.random_range(0..=j));
                    }
                    labels.truncate(rng.random_range(1..=AWKWARD_LABELS.len()));
                    Attribute::categorical_labelled(name, labels).unwrap()
                }
            }
        })
        .collect();
    Schema::new(attributes).unwrap()
}

proptest::proptest! {
    /// The pre-rendered renderer writes the reference renderer's bytes for
    /// every schema, projection, format and chunk size (empty included), and
    /// full-width CSV is `write_csv` byte for byte.
    #[test]
    fn prop_render_matches_the_reference_renderer(case in proptest::prelude::any::<u64>()) {
        use privbayes_bench::reference::reference_render;
        use privbayes_suite::synth::RowFormat;
        let mut rng = StdRng::seed_from_u64(case);
        let schema = random_render_schema(&mut rng);
        let projection: Option<Vec<usize>> = rng.random::<bool>().then(|| {
            let mut keep: Vec<usize> = (0..schema.len()).collect();
            for j in (1..keep.len()).rev() {
                keep.swap(j, rng.random_range(0..=j));
            }
            keep.truncate(rng.random_range(1..=schema.len()));
            keep
        });
        let attrs: Vec<usize> = projection.clone().unwrap_or_else(|| (0..schema.len()).collect());
        let rows: Vec<Vec<u32>> = (0..[0, 1, 7, 40][rng.random_range(0..4usize)])
            .map(|_| {
                attrs
                    .iter()
                    .map(|&a| rng.random_range(0..schema.attribute(a).domain_size() as u32))
                    .collect()
            })
            .collect();
        for format in [RowFormat::Csv, RowFormat::Jsonl] {
            let rendered = format.render(&schema, projection.as_deref(), &rows);
            let oracle = reference_render(format, &schema, projection.as_deref(), &rows);
            proptest::prop_assert_eq!(rendered, oracle, "{:?} {:?}", format, projection);
        }
        if projection.is_none() {
            let data = Dataset::from_rows(schema.clone(), &rows).unwrap();
            let mut expected = Vec::new();
            privbayes_suite::data::csv::write_csv(&data, &mut expected).unwrap();
            let streamed = RowFormat::Csv.header(&schema, None)
                + &RowFormat::Csv.render(&schema, None, &rows);
            proptest::prop_assert_eq!(streamed.into_bytes(), expected);
        }
    }
}
