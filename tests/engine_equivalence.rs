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

use privbayes::conditionals::noisy_conditionals_general;
use privbayes::greedy::{greedy_bayes_adaptive, greedy_bayes_fixed_k, GreedySettings};
use privbayes::pipeline::{PrivBayes, PrivBayesOptions};
use privbayes::ScoreKind;
use privbayes_bench::reference::{reference_greedy_adaptive, reference_greedy_fixed_k};
use privbayes_data::encoding::EncodingKind;
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
    for score in [ScoreKind::MutualInformation, ScoreKind::F, ScoreKind::R] {
        let settings = GreedySettings::private(score, 0.8);
        let reference =
            reference_greedy_fixed_k(&data, 2, &settings, &mut StdRng::seed_from_u64(11)).unwrap();
        for threads in [1usize, 4] {
            let settings = settings.with_threads(threads);
            let net =
                greedy_bayes_fixed_k(&data, 2, &settings, &mut StdRng::seed_from_u64(11)).unwrap();
            assert_eq!(net, reference, "{score:?} threads={threads}");
        }
    }
}

#[test]
fn adaptive_networks_match_reference_on_mixed_schema() {
    let data = mixed_data(800, 3);
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
            let net = greedy_bayes_adaptive(
                &data,
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
    for threads in [1usize, 2, 3, 8] {
        let settings = settings.with_threads(threads);
        let net = greedy_bayes_adaptive(
            &data,
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
    let settings = GreedySettings::private(ScoreKind::R, 0.3).with_max_degree(2);
    let net =
        greedy_bayes_adaptive(&data, 4.0, 0.7, true, &settings, &mut StdRng::seed_from_u64(41))
            .unwrap();
    let model =
        noisy_conditionals_general(&data, &net, Some(0.7), &mut StdRng::seed_from_u64(42)).unwrap();
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
