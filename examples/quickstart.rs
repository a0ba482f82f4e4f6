//! Quickstart: synthesise a private release of a census-like table.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Mirrors the paper's running example (Figure 1 / Table 1): five attributes
//! — age, education, workclass, title, income — with a hidden correlation
//! structure; PrivBayes learns a Bayesian network under ε-DP, prints its
//! AP pairs, and releases a synthetic table of the same size.

use privbayes::pipeline::{PrivBayes, PrivBayesOptions};
use privbayes_data::encoding::EncodingKind;
use privbayes_data::{Attribute, Dataset, Schema, TaxonomyTree};
use privbayes_datasets::GroundTruthNetwork;
use privbayes_marginals::average_workload_tvd;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn schema() -> Schema {
    Schema::new(vec![
        Attribute::continuous("age", 17.0, 90.0, 16)
            .expect("valid range")
            .with_taxonomy(TaxonomyTree::balanced_binary(16).expect("tree"))
            .expect("leaves match"),
        Attribute::categorical_labelled("education", ["hs", "college", "msc", "phd"])
            .expect("labels"),
        Attribute::categorical_labelled("workclass", ["private", "gov", "self", "none"])
            .expect("labels"),
        Attribute::categorical_labelled("title", ["junior", "senior", "lead", "manager"])
            .expect("labels"),
        Attribute::binary("income>50k"),
    ])
    .expect("valid schema")
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2014); // SIGMOD vintage
    let truth = GroundTruthNetwork::random(&schema(), 2, 0.4, &mut rng);
    let data: Dataset = truth.sample(10_000, &mut rng);
    println!("input: {} tuples × {} attributes", data.n(), data.d());

    let epsilon = 1.0;
    let options = PrivBayesOptions::new(epsilon).with_encoding(EncodingKind::Hierarchical);
    let result = PrivBayes::new(options).synthesize(&data, &mut rng).expect("synthesis");

    println!("\nlearned ε-DP Bayesian network (ε₁ = {:.2}):", result.epsilon1_spent);
    print!("{}", result.model.network.describe(data.schema()));
    println!("degree k = {}", result.model.network.degree());

    let err_2way = average_workload_tvd(&data, &result.synthetic, 2);
    println!(
        "\nsynthetic table: {} tuples (ε₂ = {:.2})",
        result.synthetic.n(),
        result.epsilon2_spent
    );
    println!("average 2-way marginal total-variation distance: {err_2way:.4}");

    // Show a few synthetic rows with labels.
    println!("\nfirst synthetic rows:");
    let mut csv = Vec::new();
    privbayes_data::csv::write_csv(&result.synthetic, &mut csv).expect("csv");
    for line in String::from_utf8(csv).expect("utf8").lines().take(6) {
        println!("  {line}");
    }

    assert!(err_2way < 0.5, "release should carry signal");
    println!("\ntotal privacy cost: ε = {:.2}", result.epsilon1_spent + result.epsilon2_spent);
}
