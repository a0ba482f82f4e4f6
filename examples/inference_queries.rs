//! Answer queries straight from the model (§7's concluding-remarks
//! direction) instead of through a synthetic sample.
//!
//! ```sh
//! cargo run --release --example inference_queries
//! ```
//!
//! A synthetic dataset of n rows carries O(1/√n) sampling error on every
//! marginal *on top of* the privacy noise. Variable elimination over the
//! released model removes that term entirely, at identical privacy cost.
//! This example fits one model, then answers all 2-way marginals both ways
//! and compares the error against the sensitive source.

use privbayes::inference::{model_conditional, model_marginal, DEFAULT_CELL_CAP};
use privbayes::pipeline::{PrivBayes, PrivBayesOptions};
use privbayes_data::encoding::EncodingKind;
use privbayes_datasets::br2000::br2000_sized;
use privbayes_marginals::metrics::average_workload_tvd_tables;
use privbayes_marginals::{average_workload_tvd, AlphaWayWorkload, ContingencyTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let data = br2000_sized(3, 12_000).data;
    println!("input: {} tuples × {} attributes", data.n(), data.d());

    let epsilon = 0.4;
    let options = PrivBayesOptions::new(epsilon).with_encoding(EncodingKind::Vanilla);
    let mut rng = StdRng::seed_from_u64(2014);
    let result = PrivBayes::new(options).synthesize(&data, &mut rng).expect("synthesis");
    println!("\nfitted ε = {epsilon} model, degree {}", result.model.network.degree());

    // Route A: the paper's default — measure marginals on the synthetic rows.
    let t0 = std::time::Instant::now();
    let sampled_err = average_workload_tvd(&data, &result.synthetic, 2);
    let sampled_time = t0.elapsed();

    // Route B: exact inference on the model, one variable elimination per
    // workload subset.
    let workload = AlphaWayWorkload::new(data.d(), 2);
    let t0 = std::time::Instant::now();
    let tables: Vec<ContingencyTable> = workload
        .subsets()
        .iter()
        .map(|subset| {
            model_marginal(&result.model, data.schema(), subset, DEFAULT_CELL_CAP)
                .expect("within cell cap")
        })
        .collect();
    let exact_err = average_workload_tvd_tables(&data, &tables, &workload);
    let exact_time = t0.elapsed();

    println!("\nall {} 2-way marginals, answered two ways:", workload.len());
    println!("  from the synthetic sample: avg TVD {sampled_err:.4}  ({sampled_time:.2?})");
    println!("  exactly from the model:    avg TVD {exact_err:.4}  ({exact_time:.2?})");

    // Inference also answers queries the sample would answer noisily even at
    // huge sizes — e.g. a single attribute's distribution, bit-exact.
    let age =
        model_marginal(&result.model, data.schema(), &[0], DEFAULT_CELL_CAP).expect("1-way query");
    println!(
        "\nmodel's exact Pr*[{}]: {:?}",
        data.schema().attribute(0).name(),
        age.values().iter().map(|v| (v * 1000.0).round() / 1000.0).collect::<Vec<_>>()
    );

    // Conditional queries work too — including the Bayes-inversion direction
    // ancestral sampling cannot answer directly: condition a *parent* on its
    // child, along the first correlation the network actually learned.
    let (parent, child) = result.model.network.edges()[0];
    let cond =
        model_conditional(&result.model, data.schema(), &[parent], &[(child, 1)], DEFAULT_CELL_CAP)
            .expect("conditional query");
    let marginal = model_marginal(&result.model, data.schema(), &[parent], DEFAULT_CELL_CAP)
        .expect("marginal query");
    let head = |t: &ContingencyTable| {
        t.values().iter().take(4).map(|v| (v * 1000.0).round() / 1000.0).collect::<Vec<_>>()
    };
    println!(
        "exact Pr*[{p}] (head):           {:?}\nexact Pr*[{p} | {c} = 1] (head): {:?}",
        head(&marginal),
        head(&cond),
        p = data.schema().attribute(parent).name(),
        c = data.schema().attribute(child).name(),
    );
    println!("(all routes are post-processing of the same ε-DP release)");

    assert!(
        exact_err <= sampled_err + 0.02,
        "inference should not trail sampling materially: {exact_err} vs {sampled_err}"
    );
}
