//! Equivalence tier: the shared `CountEngine` + parallel hot paths must be
//! indistinguishable from the pre-engine reference semantics.
//!
//! Four contracts (see `crates/marginals/src/lib.rs` module docs):
//!
//! 1. engine joints match `ContingencyTable::from_dataset` **cell-for-cell**
//!    (bit-identical floats) on mixed and taxonomy schemas;
//! 2. parallel candidate scoring learns networks **bit-identical** to the
//!    sequential path — and to the pre-engine reference implementation —
//!    for all three score functions under a fixed seed;
//! 3. parallel synthesis output is **invariant to the worker count** given a
//!    seed, end-to-end through the pipeline;
//! 4. alias-table sampling matches the linear-scan `sample_discrete`
//!    frequencies statistically.
//!
//! Pinned digests of learned models and of sampled rows make any change to
//! them show.

use privbayes::conditionals::{noisy_conditionals_general_engine, Conditional};
use privbayes::greedy::{
    greedy_bayes_adaptive_engine, greedy_bayes_fixed_k_engine, GreedySettings,
};
use privbayes::pipeline::{PrivBayes, PrivBayesOptions};
use privbayes::{BayesianNetwork, CompiledSampler, SampleSpec, ScoreKind, CHUNK_ROWS};
use privbayes_bench::reference::{reference_greedy_adaptive, reference_greedy_fixed_k};
use privbayes_data::encoding::{binarize, EncodingKind};
use privbayes_data::Dataset;
use privbayes_dp::stats::sample_discrete;
use privbayes_dp::AliasSlices;
use privbayes_marginals::{Axis, ContingencyTable, CountEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A mixed-schema dataset with taxonomies (Adult's shape at reduced size).
fn mixed_data(n: usize, seed: u64) -> Dataset {
    privbayes_datasets::adult::adult_sized(seed, n).data
}

/// An all-binary dataset (NLTCS's shape at reduced size).
fn binary_data(n: usize, seed: u64) -> Dataset {
    privbayes_datasets::nltcs::nltcs_sized(seed, n).data
}

#[test]
fn engine_joints_match_contingency_tables_cell_for_cell() {
    let data = mixed_data(700, 1);
    let engine = CountEngine::new(&data);
    let schema = data.schema();
    // A spread of axis sets: singletons, pairs, triples, generalised levels
    // where a taxonomy exists — requested in non-sorted orders on purpose.
    let mut requests: Vec<Vec<Axis>> = vec![
        vec![Axis::raw(0)],
        vec![Axis::raw(3), Axis::raw(1)],
        vec![Axis::raw(5), Axis::raw(0), Axis::raw(2)],
        vec![Axis::raw(2), Axis::raw(5)],
    ];
    for (attr, a) in schema.attributes().iter().enumerate() {
        if let Some(t) = a.taxonomy() {
            if t.height() > 1 {
                requests.push(vec![Axis { attr, level: 1 }, Axis::raw((attr + 1) % data.d())]);
            }
        }
    }
    let mut first = Vec::new();
    for axes in &requests {
        let fast = engine.joint(axes);
        let slow = ContingencyTable::from_dataset(&data, axes);
        assert_eq!(fast.len(), slow.values().len(), "{axes:?}");
        for (i, (a, b)) in fast.iter().zip(slow.values()).enumerate() {
            assert!(a.to_bits() == b.to_bits(), "{axes:?} cell {i}: {a:e} != {b:e}");
        }
        first.push(fast);
    }
    // The engine keeps no tables: a second sweep counts the rows again, and
    // every table is bit for bit the first sweep's.
    let scans = engine.stats().scans;
    for (axes, first) in requests.iter().zip(&first) {
        let again = engine.joint(axes);
        assert!(again.iter().zip(first).all(|(a, b)| a.to_bits() == b.to_bits()), "{axes:?}");
    }
    assert_eq!(engine.stats().scans, 2 * scans, "every request is a scan");
}

#[test]
fn fixed_k_networks_match_reference_for_all_scores() {
    let data = binary_data(600, 2);
    let engine = CountEngine::new(&data);
    for score in [ScoreKind::MutualInformation, ScoreKind::F, ScoreKind::R] {
        let settings = GreedySettings::private(score, 0.8);
        let reference =
            reference_greedy_fixed_k(&data, 2, &settings, &mut StdRng::seed_from_u64(11)).unwrap();
        for threads in [1usize, 4] {
            let settings = settings.with_threads(threads);
            let net =
                greedy_bayes_fixed_k_engine(&engine, 2, &settings, &mut StdRng::seed_from_u64(11))
                    .unwrap();
            assert_eq!(net, reference, "{score:?} threads={threads}");
        }
    }
}

#[test]
fn adaptive_networks_match_reference_on_mixed_schema() {
    let data = mixed_data(800, 3);
    let engine = CountEngine::new(&data);
    for (use_taxonomy, score) in
        [(false, ScoreKind::R), (true, ScoreKind::R), (false, ScoreKind::MutualInformation)]
    {
        let settings = GreedySettings::private(score, 0.5).with_max_degree(3);
        let reference = reference_greedy_adaptive(
            &data,
            4.0,
            0.7,
            use_taxonomy,
            &settings,
            &mut StdRng::seed_from_u64(21),
        )
        .unwrap();
        for threads in [1usize, 4] {
            let settings = settings.with_threads(threads);
            let net = greedy_bayes_adaptive_engine(
                &engine,
                4.0,
                0.7,
                use_taxonomy,
                &settings,
                &mut StdRng::seed_from_u64(21),
            )
            .unwrap();
            assert_eq!(net, reference, "taxonomy={use_taxonomy} {score:?} threads={threads}");
        }
    }
}

#[test]
fn adaptive_networks_match_reference_on_binary_schema() {
    // ACS's shape cut to 10 attributes. At n·ε₂ = 3,200 and θ = 4 every
    // child may take four binary parents, so five-way joints are built from
    // the search's lattice of every subset of at most five attributes;
    // 3 threads split the lattice's branches and the groups unevenly.
    let attrs: Vec<usize> = (0..10).collect();
    let data = privbayes_datasets::acs::acs_sized(5, 2000).data.project(&attrs).unwrap();
    let settings = GreedySettings::private(ScoreKind::R, 0.5);
    let reference = reference_greedy_adaptive(
        &data,
        4.0,
        1.6,
        false,
        &settings,
        &mut StdRng::seed_from_u64(41),
    )
    .unwrap();
    assert!(reference.degree() >= 4, "degree {}", reference.degree());
    let engine = CountEngine::new(&data);
    for threads in [1usize, 2, 3, 8] {
        let settings = settings.with_threads(threads);
        let net = greedy_bayes_adaptive_engine(
            &engine,
            4.0,
            1.6,
            false,
            &settings,
            &mut StdRng::seed_from_u64(41),
        )
        .unwrap();
        assert_eq!(net, reference, "threads={threads}");
    }
    assert_eq!(engine.stats().scans, 0, "every candidate reads the lattice");
}

#[test]
fn pipeline_output_is_invariant_to_worker_count() {
    let data = mixed_data(2500, 4);
    for encoding in [EncodingKind::Vanilla, EncodingKind::Binary] {
        let run = |threads: usize| {
            let mut rng = StdRng::seed_from_u64(31);
            PrivBayes::new(PrivBayesOptions::new(0.8).with_encoding(encoding).with_threads(threads))
                .synthesize(&data, &mut rng)
                .unwrap()
        };
        let sequential = run(1);
        for threads in [2usize, 5] {
            let parallel = run(threads);
            assert_eq!(
                parallel.model.network, sequential.model.network,
                "{encoding:?} threads={threads}: network"
            );
            assert_eq!(
                parallel.synthetic, sequential.synthetic,
                "{encoding:?} threads={threads}: synthetic data"
            );
        }
    }
}

#[test]
fn synthesis_worker_invariance_holds_beyond_one_chunk() {
    // More rows than one 1024-row sampling chunk, on a taxonomy model.
    let data = mixed_data(1500, 5);
    let engine = CountEngine::new(&data);
    let settings = GreedySettings::private(ScoreKind::R, 0.3).with_max_degree(2);
    let net = greedy_bayes_adaptive_engine(
        &engine,
        4.0,
        0.7,
        true,
        &settings,
        &mut StdRng::seed_from_u64(41),
    )
    .unwrap();
    let model =
        noisy_conditionals_general_engine(&engine, &net, Some(0.7), &mut StdRng::seed_from_u64(42))
            .unwrap();
    let sampler = model.compile(data.schema()).unwrap();
    let run = |threads: usize| {
        sampler.sample_dataset(5000, Some(threads), &mut StdRng::seed_from_u64(43)).unwrap()
    };
    let sequential = run(1);
    for threads in [2usize, 4, 9] {
        assert_eq!(run(threads), sequential, "threads={threads}");
    }
}

#[test]
fn alias_tables_match_linear_scan_frequencies() {
    // Conditional-slice-shaped weight vectors, including skew and zeros.
    let slices: [&[f64]; 4] = [&[0.5, 0.5], &[0.9, 0.1], &[0.05, 0.0, 0.25, 0.7], &[0.125; 8]];
    for (si, weights) in slices.iter().enumerate() {
        let table = AliasSlices::new(weights);
        let trials = 120_000;
        let mut alias_freq = vec![0usize; weights.len()];
        let mut scan_freq = vec![0usize; weights.len()];
        let mut rng_a = StdRng::seed_from_u64(100 + si as u64);
        let mut rng_b = StdRng::seed_from_u64(200 + si as u64);
        for _ in 0..trials {
            alias_freq[table.sample(0, &mut rng_a)] += 1;
            scan_freq[sample_discrete(weights, &mut rng_b)] += 1;
        }
        for (i, (&a, &b)) in alias_freq.iter().zip(&scan_freq).enumerate() {
            let (fa, fb) = (a as f64 / trials as f64, b as f64 / trials as f64);
            assert!((fa - fb).abs() < 0.01, "slice {si} index {i}: alias {fa:.4} vs scan {fb:.4}");
        }
    }
}

/// FNV-1a (64-bit) over a stream of bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }
}

/// Digest of a learned model: every pair's child and parent axes, then
/// every conditional probability's bits.
fn model_digest(network: &BayesianNetwork, conditionals: &[Conditional]) -> u64 {
    let mut h = Fnv::new();
    for pair in network.pairs() {
        h.word(pair.child as u64);
        h.word(pair.parents.len() as u64);
        for axis in &pair.parents {
            h.word(axis.attr as u64);
            h.word(axis.level as u64);
        }
    }
    for cond in conditionals {
        for p in &cond.probs {
            h.word(p.to_bits());
        }
    }
    h.0
}

/// The digests of 36 fits at fixed seeds, pinned so that a refactor of the
/// search, the noisy release or the fact model shows any model it changes:
/// `fit_method` artifacts (Algorithms 4 and 2 with 3) on the four Table-5
/// shapes, `PrivBayes::fit` with the hierarchical encoding, consistency
/// rounds and the bitwise encodings (Algorithms 2 and 1), and the relational
/// fact model, private and not. A deliberate change of the learned models
/// re-pins the table from the failure message.
#[test]
fn learned_models_match_their_pinned_digests() {
    use privbayes_datasets::{acs::acs_sized, adult::adult_sized, br2000::br2000_sized};
    use privbayes_datasets::{nltcs::nltcs_sized, BenchmarkDataset};
    use privbayes_relational::{clinic_benchmark, fit_fact_model, FactModelOptions};
    use privbayes_synth::{fit_method, FitSettings, Method};

    const PINNED: &[(&str, u64)] = &[
        ("nltcs/1/privbayes", 0xee77a89a4c9cf35d),
        ("nltcs/1/privbayes-k", 0x91b2c830ed17cf24),
        ("nltcs/2/privbayes", 0x2b8f5a8b1cba6e75),
        ("nltcs/2/privbayes-k", 0xe53c2ccabbb091bc),
        ("acs/1/privbayes", 0x1bd0b629baa3da9d),
        ("acs/1/privbayes-k", 0x120b5e9ddf82f803),
        ("acs/2/privbayes", 0x6cbbf7fb9a8de973),
        ("acs/2/privbayes-k", 0xc7c9b8475b5e7f83),
        ("adult/1/privbayes", 0x0c2ef5728f7d5868),
        ("adult/1/privbayes-k", 0x5170f75bf8fb6f89),
        ("adult/2/privbayes", 0x14fe956ff7840ab7),
        ("adult/2/privbayes-k", 0xc630cbf02f1e430e),
        ("br2000/1/privbayes", 0x2084930ccbe900f6),
        ("br2000/1/privbayes-k", 0x240484b835d0fbdc),
        ("br2000/2/privbayes", 0x0a212893e59e6601),
        ("br2000/2/privbayes-k", 0xff86a4b0de76191a),
        ("adult/1/hierarchical", 0x0fa3b9c63c708f13),
        ("adult/1/consistency", 0x95656589cf1ad0aa),
        ("adult/1/binary", 0xd1a21416c514c324),
        ("adult/1/gray", 0xf86f5a2299ae51d2),
        ("adult/2/hierarchical", 0x0a9a92456f23e306),
        ("adult/2/consistency", 0x41b5f8799a1b5c6a),
        ("adult/2/binary", 0x9b309b2f2cbd94b4),
        ("adult/2/gray", 0xbb932a4557954ab7),
        ("br2000/1/hierarchical", 0xcf50a5d0e624e908),
        ("br2000/1/consistency", 0x0ba4b1d70c63d010),
        ("br2000/1/binary", 0x1db3e56cbaa867a2),
        ("br2000/1/gray", 0x7e754610bc9abb94),
        ("br2000/2/hierarchical", 0x99ae8e2006319c09),
        ("br2000/2/consistency", 0xd2f2d7a5e8eed62e),
        ("br2000/2/binary", 0xd400f4d5393aac36),
        ("br2000/2/gray", 0x4d2434fc9bf1a177),
        ("clinic/3/private", 0xa4f4c6135ec27ddc),
        ("clinic/3/noise-free", 0xc213db69e9af8782),
        ("clinic/4/private", 0xb078cd0e34c1be14),
        ("clinic/4/noise-free", 0x60b369a3db713084),
    ];

    let mut digests: Vec<(String, u64)> = Vec::new();
    type Shape = fn(u64, usize) -> BenchmarkDataset;
    let shapes: [(&str, Shape); 4] = [
        ("nltcs", nltcs_sized),
        ("acs", acs_sized),
        ("adult", adult_sized),
        ("br2000", br2000_sized),
    ];
    for &(name, sized) in &shapes {
        for s in [1, 2] {
            let data = sized(s, 4_000).data;
            for method in [Method::PrivBayes, Method::PrivBayesK] {
                let fit = fit_method(method, &data, 1.0, 7, &FitSettings::default()).unwrap();
                let mut h = Fnv::new();
                h.bytes(fit.artifact.to_json_string().unwrap().as_bytes());
                digests.push((format!("{name}/{s}/{}", method.name()), h.0));
            }
        }
    }
    for &(name, sized) in &shapes[2..] {
        for s in [1, 2] {
            let data = sized(s, 4_000).data;
            let cases = [
                (
                    "hierarchical",
                    PrivBayesOptions::new(1.0).with_encoding(EncodingKind::Hierarchical),
                ),
                ("consistency", PrivBayesOptions::new(1.0).with_consistency_rounds(2)),
                ("binary", PrivBayesOptions::new(1.0).with_encoding(EncodingKind::Binary)),
                ("gray", PrivBayesOptions::new(1.0).with_encoding(EncodingKind::Gray)),
            ];
            for (case, options) in cases {
                let rows = if options.encoding.is_bitwise() {
                    binarize(&data, options.encoding).unwrap().0
                } else {
                    data.clone()
                };
                let (model, _) = PrivBayes::new(options)
                    .fit(&CountEngine::new(&rows), &mut StdRng::seed_from_u64(7))
                    .unwrap();
                digests.push((
                    format!("{name}/{s}/{case}"),
                    model_digest(&model.network, &model.conditionals),
                ));
            }
        }
    }
    for s in [3, 4] {
        let data = clinic_benchmark(1500, 4, s);
        let (arity, m) = (data.schema().entity_arity(), data.schema().max_fanout());
        for epsilon in [Some(1.0), None] {
            let options = FactModelOptions { epsilon, ..FactModelOptions::default() };
            let model = fit_fact_model(
                &data.fact_view(),
                arity,
                m,
                &options,
                &mut StdRng::seed_from_u64(7),
            )
            .unwrap();
            let case = if epsilon.is_some() { "private" } else { "noise-free" };
            digests.push((
                format!("clinic/{s}/{case}"),
                model_digest(model.network(), model.conditionals()),
            ));
        }
    }

    assert_pinned(&digests, PINNED);
}

/// Asserts that `digests` equal `pinned`, in order; the failure message
/// prints the table the fits now digest to.
fn assert_pinned(digests: &[(String, u64)], pinned: &[(&str, u64)]) {
    let table: String = digests
        .iter()
        .map(|(name, digest)| format!("        (\"{name}\", {digest:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = pinned.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert!(digests == pinned, "pinned digests moved; they now read\n{table}");
}

/// The FNV-1a digest of `fit_method`'s PrivBayes artifact JSON.
fn artifact_digest(data: &Dataset, epsilon: f64, settings: &privbayes_synth::FitSettings) -> u64 {
    use privbayes_synth::{fit_method, Method};
    let fit = fit_method(Method::PrivBayes, data, epsilon, 7, settings).unwrap();
    let mut h = Fnv::new();
    h.bytes(fit.artifact.to_json_string().unwrap().as_bytes());
    h.0
}

/// The pinned fits at ε = 1 reach degree 3 (NLTCS) and 2 (ACS); these
/// reach the degrees of full-size fits. At ε = 4 both shapes take degree 4,
/// so the search counts five-way binary joints, and the uncapped NLTCS fit
/// at ε = 8 takes degree 6.
#[test]
fn high_degree_models_match_their_pinned_digests() {
    use privbayes_datasets::{acs::acs_sized, nltcs::nltcs_sized};
    use privbayes_synth::FitSettings;

    const PINNED: &[(&str, u64)] = &[
        ("nltcs/1/eps4", 0x04f1d10644890488),
        ("acs/1/eps4", 0xe0a39d1255c91994),
        ("nltcs/1/eps8-uncapped", 0x14c734015dc8f34b),
    ];

    let (nltcs, acs) = (nltcs_sized(1, 4_000).data, acs_sized(1, 4_000).data);
    let capped = FitSettings::default();
    let uncapped = FitSettings { max_degree: usize::MAX, ..FitSettings::default() };
    let digests = vec![
        ("nltcs/1/eps4".to_string(), artifact_digest(&nltcs, 4.0, &capped)),
        ("acs/1/eps4".to_string(), artifact_digest(&acs, 4.0, &capped)),
        ("nltcs/1/eps8-uncapped".to_string(), artifact_digest(&nltcs, 8.0, &uncapped)),
    ];
    assert_pinned(&digests, PINNED);
}

/// FNV-1a digest of row-major tuples' codes (each a little-endian `u32`).
fn rows_digest<'a>(rows: impl IntoIterator<Item = &'a [u32]>) -> u64 {
    let mut h = Fnv::new();
    for row in rows {
        for &code in row {
            h.bytes(&code.to_le_bytes());
        }
    }
    h.0
}

/// The digest of every row a stream yields for `spec` at `seed`.
fn stream_digest(sampler: &CompiledSampler, spec: &SampleSpec, seed: u64) -> u64 {
    let chunks: Vec<Vec<Vec<u32>>> =
        sampler.stream_spec(spec, &mut StdRng::seed_from_u64(seed)).unwrap().collect();
    rows_digest(chunks.iter().flatten().map(Vec::as_slice))
}

/// The digest of a sampled dataset's rows.
fn dataset_digest(data: &Dataset) -> u64 {
    let rows: Vec<Vec<u32>> = (0..data.n()).map(|r| data.row(r)).collect();
    rows_digest(rows.iter().map(Vec::as_slice))
}

/// The digests of rows sampled from three fits at fixed seeds, pinned so
/// that a change of the sampler shows any row it moves: batch sampling at 1
/// and 3 threads from PrivBayes fits of the Adult and NLTCS shapes and from
/// a hierarchical Adult fit (generalised parents), and Adult streams with
/// root evidence, with inner evidence (variable-elimination buckets), with a
/// projection, resumed inside a chunk, and the batch cohort of the inner
/// evidence.
#[test]
fn sampled_rows_match_their_pinned_digests() {
    use privbayes_datasets::{adult::adult_sized, nltcs::nltcs_sized};

    const PINNED: &[(&str, u64)] = &[
        ("adult/batch/threads1", 0x36e5fa40d287d4b6),
        ("adult/batch/threads3", 0x36e5fa40d287d4b6),
        ("nltcs/batch/threads1", 0x3d592aaffc8fd8d5),
        ("nltcs/batch/threads3", 0x3d592aaffc8fd8d5),
        ("adult-hierarchical/batch/threads1", 0x3762fed6a6047098),
        ("adult-hierarchical/batch/threads3", 0x3762fed6a6047098),
        ("adult/stream/root-evidence", 0x1a2aa58a01ffc553),
        ("adult/stream/inner-evidence", 0xc0fc0c67e0861de5),
        ("adult/stream/projection", 0x76e37660fe9cc813),
        ("adult/stream/resumed", 0xc0ff7f68d8b037d7),
        ("adult/conditional/inner-evidence", 0x8e4baa43a2ebd606),
    ];

    let rows = 3 * CHUNK_ROWS + 17;
    let fit = |data: &Dataset, encoding: EncodingKind| {
        let options = PrivBayesOptions::new(1.0).with_encoding(encoding);
        let (model, _) = PrivBayes::new(options)
            .fit(&CountEngine::new(data), &mut StdRng::seed_from_u64(7))
            .unwrap();
        model
    };
    let adult = adult_sized(1, 4_000).data;
    let nltcs = nltcs_sized(1, 4_000).data;
    let hierarchical = fit(&adult, EncodingKind::Hierarchical);
    assert!(
        hierarchical.conditionals.iter().any(|c| c.parents.iter().any(|a| a.level > 0)),
        "the hierarchical fit must have a generalised parent"
    );
    let adult_model = fit(&adult, EncodingKind::Vanilla);
    let models = [
        ("adult", adult_model.clone(), adult.schema()),
        ("nltcs", fit(&nltcs, EncodingKind::Vanilla), nltcs.schema()),
        ("adult-hierarchical", hierarchical, adult.schema()),
    ];
    let mut digests: Vec<(String, u64)> = Vec::new();
    for (name, model, schema) in &models {
        let sampler = model.compile(schema).unwrap();
        for threads in [1, 3] {
            let data = sampler
                .sample_dataset(rows, Some(threads), &mut StdRng::seed_from_u64(11))
                .unwrap();
            digests.push((format!("{name}/batch/threads{threads}"), dataset_digest(&data)));
        }
    }

    // Root evidence: the first conditional's child at its likeliest code.
    // Inner evidence: the last child with parents, at its most frequent
    // sampled code.
    let sampler = adult_model.compile(adult.schema()).unwrap();
    let root_cond = &adult_model.conditionals[0];
    let root_code = (0..root_cond.child_dim)
        .max_by(|&a, &b| root_cond.probs[a].total_cmp(&root_cond.probs[b]))
        .unwrap();
    let root = (root_cond.child, root_code as u32);
    let inner_attr =
        adult_model.conditionals.iter().rev().find(|c| !c.parents.is_empty()).unwrap().child;
    let probe = sampler.sample_dataset(rows, None, &mut StdRng::seed_from_u64(12)).unwrap();
    let mut counts = vec![0usize; adult.schema().attribute(inner_attr).domain_size()];
    for &code in probe.column(inner_attr) {
        counts[code as usize] += 1;
    }
    let inner_code = (0..counts.len()).max_by_key(|&c| counts[c]).unwrap();
    let inner = (inner_attr, inner_code as u32);
    let d = adult.d();
    let streams = [
        ("root-evidence", SampleSpec::rows(rows).with_evidence(vec![root])),
        ("inner-evidence", SampleSpec::rows(rows).with_evidence(vec![inner])),
        ("projection", SampleSpec::rows(rows).with_projection(vec![d - 1, 0, inner_attr])),
        ("resumed", SampleSpec { start_row: CHUNK_ROWS + 300, ..SampleSpec::rows(rows) }),
    ];
    for (name, spec) in &streams {
        digests.push((format!("adult/stream/{name}"), stream_digest(&sampler, spec, 13)));
    }
    let cohort =
        sampler.sample_conditional(rows, &[inner], &mut StdRng::seed_from_u64(14)).unwrap();
    digests.push(("adult/conditional/inner-evidence".into(), dataset_digest(&cohort)));

    assert_pinned(&digests, PINNED);
}

/// The artifacts of `fit_method(PrivBayes, ε = 1, seed 7)` on the four
/// full-size Table-5 shapes at data seeds 1 and 2. Ignored in debug runs;
/// CI runs it with `cargo test --release --test engine_equivalence --
/// --ignored`.
#[test]
#[ignore = "full-size fits; run in release with --ignored"]
fn full_size_artifacts_match_their_pinned_digests() {
    use privbayes_datasets::BenchmarkDataset;
    use privbayes_datasets::{acs::acs, adult::adult, br2000::br2000, nltcs::nltcs};
    use privbayes_synth::FitSettings;

    const PINNED: &[(&str, u64)] = &[
        ("nltcs/1", 0xa775e558a5c720ba),
        ("nltcs/2", 0xe971a064eb12c2fe),
        ("acs/1", 0xe30bdf2702c46b54),
        ("acs/2", 0x04da7b0da07d7009),
        ("adult/1", 0x8d80fdf8185c9bd0),
        ("adult/2", 0x6593052b84e9cd44),
        ("br2000/1", 0x2218152faf06756c),
        ("br2000/2", 0x3e7019a7ca2a1c5a),
    ];

    type Shape = fn(u64) -> BenchmarkDataset;
    let shapes: [(&str, Shape); 4] =
        [("nltcs", nltcs), ("acs", acs), ("adult", adult), ("br2000", br2000)];
    let mut digests = Vec::new();
    for (name, full) in shapes {
        for s in [1, 2] {
            let digest = artifact_digest(&full(s).data, 1.0, &FitSettings::default());
            digests.push((format!("{name}/{s}"), digest));
        }
    }
    assert_pinned(&digests, PINNED);
}
