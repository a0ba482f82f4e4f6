//! Release the *model*, not just one sample.
//!
//! ```sh
//! cargo run --release --example model_release
//! ```
//!
//! PrivBayes' privacy guarantee (Theorem 3.2) covers the fitted model — the
//! network plus its noisy conditionals — so the model itself can be
//! published. This example fits a model on the Adult-like benchmark, writes
//! the versioned JSON artifact, reloads it as a downstream consumer would,
//! and draws two differently-sized synthetic datasets from it at no extra
//! privacy cost.

use privbayes_data::encoding::EncodingKind;
use privbayes_datasets::adult::adult_sized;
use privbayes_marginals::average_workload_tvd;
use privbayes_model::ReleasedModel;
use privbayes_synth::{fit_method, FitSettings, Method};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let data = adult_sized(7, 10_000).data;
    println!("sensitive input: {} tuples × {} attributes", data.n(), data.d());

    // --- Data-owner side: fit and publish. ---
    let epsilon = 1.0;
    let settings = FitSettings {
        encoding: EncodingKind::Hierarchical,
        comment: "Adult benchmark release (example)".into(),
        ..FitSettings::default()
    };
    let artifact =
        fit_method(Method::PrivBayes, &data, epsilon, 1, &settings).expect("fit").artifact;

    let path = std::env::temp_dir().join("privbayes-adult-model.json");
    artifact.save(&path).expect("write artifact");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    println!("\npublished {} ({bytes} bytes — the whole release)", path.display());
    println!("network:\n{}", artifact.model.network.describe(&artifact.schema));

    // --- Consumer side: reload and sample freely. ---
    let consumer = ReleasedModel::load(&path).expect("read artifact");
    assert_eq!(consumer, artifact, "the artifact is lossless");
    println!(
        "consumer sees: ε = {}, score {}, encoding {}, fit on {} rows",
        consumer.metadata.epsilon,
        consumer.metadata.score,
        consumer.metadata.encoding,
        consumer.metadata.source_rows,
    );

    let mut rng = StdRng::seed_from_u64(2);
    for rows in [1_000usize, 20_000] {
        let synthetic = consumer.sample(rows, &mut rng).expect("sample");
        let err = average_workload_tvd(&data, &synthetic, 2);
        println!("sampled {rows:>6} rows → avg 2-way marginal TVD vs source: {err:.4}");
    }

    println!("\nsampling is post-processing: total privacy cost stays ε = {epsilon}");
    std::fs::remove_file(&path).ok();
}
