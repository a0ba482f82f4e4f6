//! The query-API tier: the v2 request surface end to end.
//!
//! 1. **Conditional sampling** — `CompiledSampler` draws conditioned on
//!    evidence are cross-checked against the exact conditionals of
//!    `privbayes::inference` on small networks (TVD below tolerance at a
//!    fixed seed), for evidence on roots, inner attributes and leaves, and
//!    against the ratios `Pr[t, e] / Pr[e]` of the independent oracle in
//!    `privbayes_bench::reference`, which shares no code with the sampler.
//! 2. **Projection** — projected streams are byte-equivalent to sampling
//!    everything and dropping columns afterwards.
//! 3. **Cursor resume** — an interrupted `/v1` stream resumed from a cursor
//!    concatenates byte-identically to an uninterrupted one.
//! 4. **Marginal queries** — `/v1/models/{id}/query` answers are
//!    bit-identical to the independent oracle in
//!    `privbayes_bench::reference`, which follows the operation order
//!    `model_conditional` documents, on the served fixtures, on a query far
//!    past the cell cap of an enumeration of its closure, and on random
//!    models.
//! 5. **Error shape** — spec mistakes come back `400` with the structured
//!    `invalid-spec` body; every response carries `Content-Type` and
//!    `X-PrivBayes-Api: v1`.

use std::sync::Arc;

use privbayes_bench::reference::reference_theta_projection;
use privbayes_suite::core::conditionals::{
    noisy_conditionals_general_engine, Conditional, NoisyModel,
};
use privbayes_suite::core::inference::{model_conditional, model_marginal, DEFAULT_CELL_CAP};
use privbayes_suite::core::network::{ApPair, BayesianNetwork};
use privbayes_suite::core::{PrivBayesError, SampleSpec, CHUNK_ROWS};
use privbayes_suite::data::{Attribute, Dataset, Schema, TaxonomyTree};
use privbayes_suite::marginals::{total_variation, Axis, ContingencyTable, CountEngine};
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
    let engine = CountEngine::new(&data);
    let model = noisy_conditionals_general_engine(&engine, &net, Some(2.0), &mut rng).unwrap();
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

/// A hand-built two-attribute model `a → b` with `Pr[a]` = `root` and
/// `Pr[b | a]` = `child` (the `a = 0` slice first).
fn a_to_b_artifact(root: [f64; 2], child: [f64; 4], comment: &str) -> ReleasedModel {
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
                probs: root.to_vec(),
            },
            Conditional {
                child: 1,
                parents: vec![Axis::raw(0)],
                parent_dims: vec![2],
                child_dim: 2,
                probs: child.to_vec(),
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
            comment: comment.into(),
        },
        schema,
        model,
    )
    .unwrap()
}

/// `a → b` where the leaf value `b = 1` is rare:
/// `Pr[b = 1] = 0.7·0.002 + 0.3·0.022 = 0.008`. The exact posterior is
/// `Pr[a = 1 | b = 1] = 0.0066/0.008 = 0.825`.
fn rare_leaf_artifact() -> ReleasedModel {
    a_to_b_artifact([0.7, 0.3], [0.998, 0.002, 0.978, 0.022], "rare-evidence fixture")
}

/// `a → b` where `Pr[a = 1] = 0` exactly and `b = 1` only follows `a = 1`,
/// so both `a = 1` (a root) and `b = 1` (a child) have probability zero —
/// for the zero-probability-evidence error shape.
fn zero_mass_artifact() -> ReleasedModel {
    a_to_b_artifact([1.0, 0.0], [1.0, 0.0, 0.5, 0.5], "zero-mass fixture")
}

/// A model with a generalised parent: `g` (4 values, binary taxonomy) →
/// `y` through `g`'s level-1 group, and `y` → `c`, fit with noise on
/// correlated data.
fn generalised_parent_model() -> (Schema, NoisyModel) {
    let schema = Schema::new(vec![
        Attribute::categorical("g", 4)
            .unwrap()
            .with_taxonomy(TaxonomyTree::balanced_binary(4).unwrap())
            .unwrap(),
        Attribute::binary("y"),
        Attribute::categorical("c", 3).unwrap(),
    ])
    .unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    let rows: Vec<Vec<u32>> = (0..4000)
        .map(|_| {
            let g = rng.random_range(0..4u32);
            let y = u32::from(g >= 2) ^ u32::from(rng.random::<f64>() < 0.2);
            let c = (y + u32::from(rng.random::<f64>() < 0.4) + g % 2) % 3;
            vec![g, y, c]
        })
        .collect();
    let data = Dataset::from_rows(schema, &rows).unwrap();
    let net = BayesianNetwork::new(
        vec![
            ApPair::new(0, vec![]),
            ApPair::generalized(1, vec![Axis { attr: 0, level: 1 }]),
            ApPair::new(2, vec![1]),
        ],
        data.schema(),
    )
    .unwrap();
    let engine = CountEngine::new(&data);
    let model = noisy_conditionals_general_engine(&engine, &net, Some(2.0), &mut rng).unwrap();
    (data.schema().clone(), model)
}

fn start_server() -> (privbayes_suite::server::ServerHandle, Client) {
    serve(vec![("m", chain_artifact(11)), ("z", zero_mass_artifact())])
}

/// A one-thread server over `models`, with a client for it.
fn serve(models: Vec<(&str, ReleasedModel)>) -> (privbayes_suite::server::ServerHandle, Client) {
    let registry = Arc::new(ModelRegistry::new());
    for (id, artifact) in models {
        registry.load(id, artifact).unwrap();
    }
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
fn posterior_conditional_draws_match_exact_inference() {
    // Evidence on the leaf conditions its ancestors — the Bayes-inversion
    // direction, drawn from the closure's elimination buckets; only
    // Monte-Carlo error remains.
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
    assert!(tvd < 0.02, "posterior conditional must track inference, tvd = {tvd}");
}

#[test]
fn posterior_stays_calibrated_under_rare_evidence() {
    // The conditioning event is rare (Pr[b = 1] = 0.008), so a sampler that
    // fell back to unconditioned draws of the ancestors would return the
    // *prior* over them instead of the posterior. Here those two
    // distributions are far apart — prior Pr[a = 1] = 0.3 vs posterior
    // Pr[a = 1 | b = 1] = 0.825, a TVD of 0.525 — so drifting toward the
    // prior trips the tolerance immediately. Monte-Carlo error at 40 000
    // rows is ~0.002.
    let artifact = rare_leaf_artifact();
    // Confirm the fixture really is in the rare regime.
    let marginal =
        model_conditional(&artifact.model, &artifact.schema, &[1], &[], DEFAULT_CELL_CAP).unwrap();
    let p_evidence = marginal.values()[1];
    assert!(p_evidence < 0.01, "fixture evidence must be rare, Pr = {p_evidence}");

    let sampler = artifact.compiled().unwrap();
    let sample =
        sampler.sample_conditional(40_000, &[(1, 1)], &mut StdRng::seed_from_u64(29)).unwrap();
    assert!(sample.column(1).iter().all(|&v| v == 1), "evidence must clamp");
    let got = ContingencyTable::from_dataset(&sample, &[Axis::raw(0)]);
    let want =
        model_conditional(&artifact.model, &artifact.schema, &[0], &[(1, 1)], DEFAULT_CELL_CAP)
            .unwrap();
    let tvd = total_variation(got.values(), want.values());
    assert!(tvd < 0.02, "rare-evidence conditional must track the posterior, tvd = {tvd}");
    // And specifically: the draw must be much closer to the posterior than
    // to the unconditioned prior.
    let prior =
        model_conditional(&artifact.model, &artifact.schema, &[0], &[], DEFAULT_CELL_CAP).unwrap();
    let tvd_prior = total_variation(got.values(), prior.values());
    assert!(
        tvd_prior > 10.0 * tvd.max(0.01),
        "draws must not drift toward the prior: tvd(posterior) = {tvd}, tvd(prior) = {tvd_prior}"
    );
}

#[test]
fn exact_posterior_recovers_a_rare_cause() {
    // Pr[a = 1] = 0.001, Pr[b = 1 | a = 1] = 1, Pr[b = 1 | a = 0] = 0.0005:
    // the rare evidence b = 1 is mostly explained by the rarer cause,
    // Pr[a = 1 | b = 1] = 0.001 / 0.0014995 ≈ 0.667. A sampler that draws
    // the cause from its prior and weights the draws afterwards rarely sees
    // a = 1 at all, and lands far below.
    let artifact = a_to_b_artifact([0.999, 0.001], [0.9995, 0.0005, 0.0, 1.0], "rare cause");
    let exact =
        model_conditional(&artifact.model, &artifact.schema, &[0], &[(1, 1)], DEFAULT_CELL_CAP)
            .unwrap()
            .values()[1];
    assert!((exact - 0.667).abs() < 0.001, "fixture posterior {exact}");
    let rows = 20_000;
    let sample = artifact
        .compiled()
        .unwrap()
        .sample_conditional(rows, &[(1, 1)], &mut StdRng::seed_from_u64(17))
        .unwrap();
    let share = sample.column(0).iter().filter(|&&v| v == 1).count() as f64 / rows as f64;
    assert!((share - exact).abs() < 0.02, "Pr[a = 1 | b = 1]: sampled {share}, exact {exact}");
}

#[test]
fn zero_mass_child_evidence_is_refused() {
    // b = 1 needs a = 1, which has probability zero: the evidence sits on a
    // child whose ancestor is free, and is still refused up front.
    let artifact = zero_mass_artifact();
    let sampler = artifact.compiled().unwrap();
    let spec = SampleSpec::rows(10).with_evidence(vec![(1, 1)]);
    match sampler.stream_spec(&spec, &mut StdRng::seed_from_u64(1)) {
        Err(PrivBayesError::InvalidConfig(msg)) => {
            assert!(msg.contains("probability zero"), "{msg}");
        }
        other => panic!("want InvalidConfig, got {other:?}"),
    }
}

/// Draws a 100 000-row cohort on `evidence` and checks each free
/// attribute's sampled marginal against the oracle's ratio
/// `Pr[t, e] / Pr[e]` (TVD < 0.01). The oracle
/// (`reference_theta_projection`) shares no code with the sampler's
/// variable elimination.
fn assert_cohort_matches_oracle_ratios(
    model: &NoisyModel,
    schema: &Schema,
    evidence: &[(usize, u32)],
    seed: u64,
) {
    let sample = model
        .compile(schema)
        .unwrap()
        .sample_conditional(100_000, evidence, &mut StdRng::seed_from_u64(seed))
        .unwrap();
    for &(attr, code) in evidence {
        assert!(sample.column(attr).iter().all(|&v| v == code), "evidence must clamp");
    }
    for t in (0..schema.len()).filter(|&t| evidence.iter().all(|&(e, _)| e != t)) {
        let attrs: Vec<usize> =
            std::iter::once(t).chain(evidence.iter().map(|&(e, _)| e)).collect();
        let joint = reference_theta_projection(model, schema, &attrs);
        let slice: Vec<f64> = (0..schema.attribute(t).domain_size())
            .map(|v| {
                let coords: Vec<usize> =
                    std::iter::once(v).chain(evidence.iter().map(|&(_, c)| c as usize)).collect();
                joint.get(&coords)
            })
            .collect();
        let mass: f64 = slice.iter().sum();
        let want: Vec<f64> = slice.iter().map(|p| p / mass).collect();
        let got = ContingencyTable::from_dataset(&sample, &[Axis::raw(t)]);
        let tvd = total_variation(got.values(), &want);
        assert!(tvd < 0.01, "evidence {evidence:?}, attribute {t}: tvd = {tvd}");
    }
}

#[test]
fn cohorts_match_theta_projection_ratios() {
    let artifact = chain_artifact(5);
    let (model, schema) = (&artifact.model, &artifact.schema);
    assert_cohort_matches_oracle_ratios(model, schema, &[(2, 2)], 1); // leaf
    assert_cohort_matches_oracle_ratios(model, schema, &[(1, 0)], 2); // inner
    assert_cohort_matches_oracle_ratios(model, schema, &[(1, 1), (2, 0)], 3); // two attributes
    let (schema, model) = generalised_parent_model();
    assert_cohort_matches_oracle_ratios(&model, &schema, &[(2, 1)], 4); // leaf
    assert_cohort_matches_oracle_ratios(&model, &schema, &[(1, 0)], 5); // generalised child
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

/// A hand-built chain `c0 → c1 → … → c11` of four-valued attributes with
/// seeded conditionals. The last attribute's ancestral closure is the whole
/// chain: 4^12 ≈ 16.8M cells, four times `DEFAULT_CELL_CAP`.
fn long_chain_artifact() -> ReleasedModel {
    const LEN: usize = 12;
    let schema = Schema::new(
        (0..LEN).map(|i| Attribute::categorical(format!("c{i}"), 4).unwrap()).collect(),
    )
    .unwrap();
    let pairs = (0..LEN).map(|i| ApPair::new(i, i.checked_sub(1).into_iter().collect())).collect();
    let network = BayesianNetwork::new(pairs, &schema).unwrap();
    let mut rng = StdRng::seed_from_u64(12);
    let mut conditionals = Vec::new();
    for child in 0..LEN {
        let parents: Vec<Axis> = child.checked_sub(1).map(Axis::raw).into_iter().collect();
        let mut probs = Vec::new();
        for _ in 0..4usize.pow(parents.len() as u32) {
            let weights: Vec<f64> = (0..4).map(|_| rng.random::<f64>() + 0.05).collect();
            let total: f64 = weights.iter().sum();
            probs.extend(weights.iter().map(|w| w / total));
        }
        let parent_dims = vec![4; parents.len()];
        conditionals.push(Conditional { child, parents, parent_dims, child_dim: 4, probs });
    }
    ReleasedModel::new(
        ModelMetadata {
            method: "privbayes".into(),
            epsilon: 1.0,
            beta: 0.3,
            theta: 4.0,
            score: "R".into(),
            encoding: "vanilla".into(),
            source_rows: 100,
            comment: "long chain fixture".into(),
        },
        schema,
        NoisyModel { network, conditionals },
    )
    .unwrap()
}

#[test]
fn queries_past_an_enumerated_closure_cap_are_answered() {
    let artifact = long_chain_artifact();
    assert!(4usize.pow(12) > DEFAULT_CELL_CAP, "the closure must outgrow the cap");
    let (handle, client) = serve(vec![("chain", artifact.clone())]);
    let response = client
        .request(
            "POST",
            "/v1/models/chain/query",
            Some(("application/json", br#"{"attrs": ["c11"]}"# as &[u8])),
        )
        .unwrap();
    assert_eq!(response.code, 200, "{}", response.text());
    let answer = Json::parse(&response.text()).unwrap();
    let served: Vec<f64> = answer
        .get("values")
        .and_then(Json::as_array)
        .expect("values array")
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    let oracle = reference_theta_projection(&artifact.model, &artifact.schema, &[11]);
    assert_eq!(served.len(), 4);
    for (i, (a, b)) in served.iter().zip(oracle.values()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "cell {i}: served {a} vs oracle {b}");
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A random model for the oracle property: 2–7 attributes with domains of
/// 1–4 (those of 3 or 4 values carry a one-level taxonomy), listed in a
/// shuffled network order, each with up to three earlier parents, some
/// generalised; its conditionals are fit with noise on 200 random rows.
fn random_inference_model(rng: &mut StdRng) -> (Schema, NoisyModel) {
    let d = rng.random_range(2..8usize);
    let attributes = (0..d)
        .map(|i| {
            let size = rng.random_range(1..5usize);
            let attr = Attribute::categorical(format!("a{i}"), size).unwrap();
            if size >= 3 {
                attr.with_taxonomy(TaxonomyTree::balanced_binary(size).unwrap()).unwrap()
            } else {
                attr
            }
        })
        .collect();
    let schema = Schema::new(attributes).unwrap();
    let mut order: Vec<usize> = (0..d).collect();
    for j in (1..d).rev() {
        order.swap(j, rng.random_range(0..=j));
    }
    let pairs = (0..d)
        .map(|k| {
            let mut earlier = order[..k].to_vec();
            for j in (1..earlier.len()).rev() {
                earlier.swap(j, rng.random_range(0..=j));
            }
            earlier.truncate(rng.random_range(0..=k.min(3)));
            let parents = earlier
                .into_iter()
                .map(|attr| {
                    let generalised = schema.attribute(attr).taxonomy().is_some() && rng.random();
                    Axis { attr, level: usize::from(generalised) }
                })
                .collect();
            ApPair::generalized(order[k], parents)
        })
        .collect();
    let network = BayesianNetwork::new(pairs, &schema).unwrap();
    let rows: Vec<Vec<u32>> = (0..200)
        .map(|_| {
            (0..d).map(|a| rng.random_range(0..schema.attribute(a).domain_size() as u32)).collect()
        })
        .collect();
    let data = Dataset::from_rows(schema, &rows).unwrap();
    let engine = CountEngine::new(&data);
    let model = noisy_conditionals_general_engine(&engine, &network, Some(1.0), rng).unwrap();
    (data.schema().clone(), model)
}

proptest::proptest! {
    /// The oracle and `model_marginal` agree bit for bit on random models and
    /// random queries of 1–3 attributes in random order.
    #[test]
    fn prop_oracle_is_bit_identical_to_model_marginal(case in proptest::prelude::any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(case);
        let (schema, model) = random_inference_model(&mut rng);
        for _ in 0..8 {
            let mut attrs: Vec<usize> = (0..schema.len()).collect();
            for j in (1..attrs.len()).rev() {
                attrs.swap(j, rng.random_range(0..=j));
            }
            attrs.truncate(rng.random_range(1..=schema.len().min(3)));
            let served = model_marginal(&model, &schema, &attrs, DEFAULT_CELL_CAP).unwrap();
            let oracle = reference_theta_projection(&model, &schema, &attrs);
            proptest::prop_assert_eq!(served.dims(), oracle.dims());
            for (a, b) in served.values().iter().zip(oracle.values()) {
                proptest::prop_assert_eq!(a.to_bits(), b.to_bits(), "attrs {:?}", attrs);
            }
        }
    }
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

    // Evidence with probability zero under the model, on a root and on a
    // child whose ancestor is free.
    for attr in ["a", "b"] {
        let err = client.synth_with("z", &SynthSpec::new().where_eq(attr, 1u32)).unwrap_err();
        let ServerError::Status { code, body } = err else { panic!("want status, got {err}") };
        assert_eq!(code, 400, "{attr}");
        assert!(body.contains("\"invalid-spec\""), "{body}");
        assert!(body.contains("probability zero"), "{body}");
    }

    // An evidence code above u32::MAX is out of the domain, not wrapped
    // (4294967297 would wrap to the valid code 1).
    let response = client
        .request(
            "POST",
            "/v1/models/m/synth",
            Some((
                "application/json",
                br#"{"rows": 5, "evidence": {"smoker": 4294967297}}"# as &[u8],
            )),
        )
        .unwrap();
    assert_eq!(response.code, 400, "{}", response.text());
    assert!(response.text().contains("\"invalid-spec\""), "{}", response.text());

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

/// Labels that exercise every escaping rule a label can reach: quotes,
/// backslashes, tabs, control bytes, spaces and punctuation, and 2- and
/// 4-byte UTF-8. A label holds no `,`, `\r` or `\n` (the schema refuses
/// them, since a CSV cell cannot carry them).
const AWKWARD_LABELS: [&str; 9] =
    ["plain", "say \"hi\"", "back\\slash", "tab\tstop", "bell\u{1}", "a; b", "é", "😀", "x"];

/// A random schema: labelled attributes take a shuffled subset of
/// [`AWKWARD_LABELS`]; unlabelled ones have domains wide enough for two- and
/// three-digit `v{code}` labels. Names carry the same awkward characters.
fn random_render_schema(rng: &mut StdRng) -> Schema {
    let attrs = rng.random_range(1..6usize);
    let attributes = (0..attrs)
        .map(|i| {
            let name =
                format!("{}{i}", ["a", "q\"", "b\\", "é", "😀;"][rng.random_range(0..5usize)]);
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
    /// every schema, projection, format and chunk size (empty included),
    /// from one `Vec` per row and from flat rows alike, and full-width CSV is
    /// `write_csv` byte for byte.
    #[test]
    fn prop_render_matches_the_reference_renderer(case in proptest::prelude::any::<u64>()) {
        use privbayes_bench::reference::reference_render;
        use privbayes_suite::synth::{RowFormat, RowRenderer};
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
            proptest::prop_assert_eq!(&rendered, &oracle, "{:?} {:?}", format, projection);
            // The streams' path: the same rows flat, row-major, through the
            // renderer's own loop; no row outgrows `max_row_bytes`.
            let renderer = RowRenderer::new(format, &schema, projection.as_deref());
            let mut flat = Vec::new();
            renderer.render_into(&rows.concat(), &mut flat);
            proptest::prop_assert_eq!(String::from_utf8(flat).unwrap(), oracle);
            for row in &rows {
                let one = format.render(&schema, projection.as_deref(), std::slice::from_ref(row));
                proptest::prop_assert!(one.len() <= renderer.max_row_bytes(), "{:?}", one);
            }
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

// ---------------------------------------------------------------------------
// 7. Thread-count independence
// ---------------------------------------------------------------------------

/// POSTs `spec` to model `id` on a fresh connection that asks to close, and
/// returns the response's HTTP chunk sizes and its dechunked body.
fn chunked_synth(addr: std::net::SocketAddr, id: &str, spec: &SynthSpec) -> (Vec<usize>, String) {
    use std::io::{Read, Write};
    let body = spec.to_json().to_string_compact().unwrap();
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "POST /v1/models/{id}/synth HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("a response head") + 4;
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let (mut sizes, mut body) = (Vec::new(), Vec::new());
    let mut rest = &raw[head_end..];
    loop {
        let line_end = rest.windows(2).position(|w| w == b"\r\n").expect("a chunk size line");
        let size = usize::from_str_radix(std::str::from_utf8(&rest[..line_end]).unwrap(), 16)
            .expect("a hex chunk size");
        rest = &rest[line_end + 2..];
        if size == 0 {
            assert_eq!(rest, b"\r\n", "the terminating chunk ends the response");
            break;
        }
        body.extend_from_slice(&rest[..size]);
        assert_eq!(&rest[size..size + 2], b"\r\n");
        rest = &rest[size + 2..];
        sizes.push(size);
    }
    (sizes, String::from_utf8(body).unwrap())
}

/// One model served at 1, 2, 3 and 8 stream threads: every stream shape at
/// every row count around the chunk size serves the same bytes in the same
/// HTTP chunks, and those bytes are the batch sampler's rows rendered.
#[test]
fn served_bytes_do_not_depend_on_the_thread_count() {
    use privbayes_suite::synth::RowFormat;
    const THREADS: [usize; 4] = [1, 2, 3, 8];
    let artifact = chain_artifact(11);
    let sampler = artifact.compiled().unwrap();
    let schema = sampler.schema();
    let servers: Vec<_> = THREADS
        .iter()
        .map(|&threads| {
            let registry = Arc::new(ModelRegistry::new());
            registry.load("m", chain_artifact(11)).unwrap();
            let config = ServerConfig { fit_threads: Some(threads), ..ServerConfig::default() };
            Server::bind("127.0.0.1:0", config, registry, Arc::new(BudgetLedger::in_memory()))
                .unwrap()
                .spawn()
        })
        .collect();
    let seed = 23;
    let rng = || StdRng::seed_from_u64(seed);
    let rows_of =
        |data: &Dataset| -> Vec<Vec<u32>> { (0..data.n()).map(|r| data.row(r)).collect() };
    let rendered = |format: RowFormat, projection: Option<&[usize]>, rows: &[Vec<u32>]| {
        format.header(schema, projection) + &format.render(schema, projection, rows)
    };
    for rows in [1, CHUNK_ROWS, CHUNK_ROWS + 1, 5 * CHUNK_ROWS + 17] {
        let all = rows_of(&sampler.sample_dataset(rows, Some(1), &mut rng()).unwrap());
        let root = rows_of(&sampler.sample_conditional(rows, &[(0, 1)], &mut rng()).unwrap());
        let inner = rows_of(&sampler.sample_conditional(rows, &[(1, 1)], &mut rng()).unwrap());
        let projected: Vec<Vec<u32>> = all.iter().map(|row| vec![row[2], row[0]]).collect();
        let base = SynthSpec::new().with_rows(rows).with_seed(seed);
        let mut cases = vec![
            ("csv", base.clone(), rendered(RowFormat::Csv, None, &all)),
            (
                "jsonl",
                base.clone().with_format(RowFormat::Jsonl),
                rendered(RowFormat::Jsonl, None, &all),
            ),
            (
                "root evidence",
                base.clone().where_eq("smoker", 1u32),
                rendered(RowFormat::Csv, None, &root),
            ),
            (
                "inner evidence",
                base.clone().where_eq("cough", 1u32),
                rendered(RowFormat::Csv, None, &inner),
            ),
            (
                "projection",
                base.clone().select("region").select("smoker"),
                rendered(RowFormat::Csv, Some(&[2, 0]), &projected),
            ),
        ];
        let start = 2 * CHUNK_ROWS + 5;
        if rows > start {
            // Resumed inside the third chunk: the suffix, without a header.
            let cursor = Cursor { seed, row: start as u64, generation: None };
            cases.push((
                "resume",
                base.clone().with_cursor(cursor),
                RowFormat::Csv.render(schema, None, &all[start..]),
            ));
        }
        for (name, spec, want) in cases {
            let served: Vec<_> =
                servers.iter().map(|h| chunked_synth(h.addr(), "m", &spec)).collect();
            for ((sizes, body), threads) in served.iter().zip(THREADS) {
                assert!(body == &want, "{name}, {rows} rows: body at {threads} threads");
                assert_eq!(sizes, &served[0].0, "{name}, {rows} rows: chunks at {threads} threads");
            }
        }
    }
    for handle in servers {
        Client::new(handle.addr().to_string()).shutdown().unwrap();
        handle.join().unwrap();
    }
}
