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

use privbayes::conditionals::{noisy_conditionals_general_engine, Conditional};
use privbayes::greedy::{
    greedy_bayes_adaptive_engine, greedy_bayes_fixed_k_engine, GreedySettings,
};
use privbayes::pipeline::{PrivBayes, PrivBayesOptions};
use privbayes::{BayesianNetwork, ScoreKind};
use privbayes_bench::reference::{reference_greedy_adaptive, reference_greedy_fixed_k};
use privbayes_data::encoding::{binarize, EncodingKind};
use privbayes_data::Dataset;
use privbayes_dp::stats::sample_discrete;
use privbayes_dp::AliasTable;
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
    // child may take four binary parents, so five-way joints run through
    // the bit backend's group pass; 3 threads split the groups unevenly.
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
        let table = AliasTable::new(weights);
        let trials = 120_000;
        let mut alias_freq = vec![0usize; weights.len()];
        let mut scan_freq = vec![0usize; weights.len()];
        let mut rng_a = StdRng::seed_from_u64(100 + si as u64);
        let mut rng_b = StdRng::seed_from_u64(200 + si as u64);
        for _ in 0..trials {
            alias_freq[table.sample(&mut rng_a)] += 1;
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

    let table: String = digests
        .iter()
        .map(|(name, digest)| format!("        (\"{name}\", {digest:#018x}),\n"))
        .collect();
    let pinned: Vec<(String, u64)> = PINNED.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert!(digests == pinned, "learned models moved; the fits now digest to\n{table}");
}
