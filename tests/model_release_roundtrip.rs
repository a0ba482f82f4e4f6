//! Cross-crate integration: fit (core) → release (model) → reload → consume
//! (sampler + §7 inference). Verifies the full "publish the model, not just
//! one sample" workflow end to end, including bit-exactness of the text
//! round-trip and agreement between the restored model's answers and the
//! original's.

use privbayes::inference::{model_marginal, DEFAULT_CELL_CAP};
use privbayes_data::encoding::EncodingKind;
use privbayes_data::{Attribute, Dataset, Schema, TaxonomyTree};
use privbayes_marginals::total_variation;
use privbayes_model::ReleasedModel;
use privbayes_synth::{fit_method, FitSettings, Method};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn census_like(n: usize, seed: u64) -> Dataset {
    let schema = Schema::new(vec![
        Attribute::binary("retired"),
        Attribute::continuous("age", 0.0, 80.0, 16)
            .unwrap()
            .with_taxonomy(TaxonomyTree::balanced_binary(16).unwrap())
            .unwrap(),
        Attribute::categorical_labelled("work", ["gov", "private", "self", "none"])
            .unwrap()
            .with_taxonomy(TaxonomyTree::from_groups(4, &[vec![0, 1], vec![2, 3]]).unwrap())
            .unwrap(),
    ])
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<u32>> = (0..n)
        .map(|_| {
            let age = rng.random_range(0..16u32);
            let retired = u32::from(age >= 12);
            let work = if retired == 1 { 3 } else { rng.random_range(0..3u32) };
            vec![retired, age, work]
        })
        .collect();
    Dataset::from_rows(schema, &rows).unwrap()
}

fn release(data: &Dataset, epsilon: f64, encoding: EncodingKind, seed: u64) -> ReleasedModel {
    let settings =
        FitSettings { comment: "integration test".into(), encoding, ..FitSettings::default() };
    fit_method(Method::PrivBayes, data, epsilon, seed, &settings).unwrap().artifact
}

#[test]
fn text_round_trip_is_bit_exact_for_both_general_encodings() {
    let data = census_like(600, 1);
    for encoding in [EncodingKind::Vanilla, EncodingKind::Hierarchical] {
        let artifact = release(&data, 1.0, encoding, 2);
        let text = artifact.to_json_string().unwrap();
        let restored = ReleasedModel::from_json_string(&text).unwrap();
        assert_eq!(restored, artifact, "{encoding:?} artifact must survive the text round-trip");
        // And a second serialisation is byte-identical (deterministic output).
        assert_eq!(restored.to_json_string().unwrap(), text);
    }
}

#[test]
fn restored_model_answers_queries_identically() {
    let data = census_like(800, 3);
    let artifact = release(&data, 2.0, EncodingKind::Hierarchical, 4);
    let restored = ReleasedModel::from_json_string(&artifact.to_json_string().unwrap()).unwrap();
    for attrs in [vec![0usize], vec![1], vec![0, 2], vec![2, 1], vec![0, 1, 2]] {
        let a =
            model_marginal(&artifact.model, &artifact.schema, &attrs, DEFAULT_CELL_CAP).unwrap();
        let b =
            model_marginal(&restored.model, &restored.schema, &attrs, DEFAULT_CELL_CAP).unwrap();
        assert_eq!(a, b, "attrs {attrs:?}");
    }
}

#[test]
fn sampling_and_inference_agree_on_the_released_artifact() {
    // Inference gives the model's exact marginal; a large synthetic sample
    // from the same artifact must converge to it.
    let data = census_like(700, 5);
    let artifact = release(&data, 5.0, EncodingKind::Vanilla, 6);
    let mut rng = StdRng::seed_from_u64(7);
    let sample = artifact.sample(120_000, &mut rng).unwrap();
    let exact =
        model_marginal(&artifact.model, &artifact.schema, &[0, 2], DEFAULT_CELL_CAP).unwrap();
    let empirical = privbayes_marginals::ContingencyTable::from_dataset(
        &sample,
        &[privbayes_marginals::Axis::raw(0), privbayes_marginals::Axis::raw(2)],
    );
    let tvd = total_variation(exact.values(), empirical.values());
    assert!(tvd < 0.01, "sample must converge to the exact model marginal, tvd = {tvd}");
}

#[test]
fn tampered_artifacts_are_rejected_on_load() {
    let data = census_like(300, 8);
    let artifact = release(&data, 1.0, EncodingKind::Vanilla, 9);
    let text = artifact.to_json_string().unwrap();

    // Flip a domain size: the stored conditionals no longer fit the schema.
    let tampered = text.replacen("\"bins\": 16", "\"bins\": 8", 1);
    assert!(
        ReleasedModel::from_json_string(&tampered).is_err(),
        "shrunken domain must fail validation"
    );

    // Truncate the document.
    let truncated = &text[..text.len() / 2];
    assert!(ReleasedModel::from_json_string(truncated).is_err());
}

#[test]
fn release_file_workflow_with_fresh_consumer() {
    // Save to disk, load in a "different process" (fresh value), sample with
    // the same seed: outputs must be identical row for row.
    let data = census_like(400, 10);
    let artifact = release(&data, 1.5, EncodingKind::Vanilla, 11);
    let dir = std::env::temp_dir().join(format!("privbayes-release-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("census-model.json");
    artifact.save(&path).unwrap();

    let consumer = ReleasedModel::load(&path).unwrap();
    let mut rng_a = StdRng::seed_from_u64(12);
    let mut rng_b = StdRng::seed_from_u64(12);
    let a = artifact.sample(500, &mut rng_a).unwrap();
    let b = consumer.sample(500, &mut rng_b).unwrap();
    for attr in 0..a.d() {
        assert_eq!(a.column(attr), b.column(attr));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
