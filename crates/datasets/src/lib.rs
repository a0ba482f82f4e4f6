//! Synthetic stand-ins for the four evaluation datasets of §6.1 (Table 5).
//!
//! The real NLTCS, ACS/IPUMS, Adult, and BR2000 extracts are not
//! redistributable, so each generator reproduces the dataset's *shape* —
//! cardinality, dimensionality, attribute kinds, domain sizes, and taxonomy
//! trees — and samples tuples from a hidden ground-truth Bayesian network
//! with Dirichlet-distributed CPTs, so realistic low-order correlation exists
//! for PrivBayes to discover. The paper's comparisons depend on these shape
//! parameters and on correlation being present, not on the real records.
//!
//! | Dataset | Cardinality | Dimensionality | Domain size |
//! |---------|-------------|----------------|-------------|
//! | NLTCS   | 21,574      | 16 (binary)    | ≈ 2¹⁶       |
//! | ACS     | 47,461      | 23 (binary)    | ≈ 2²³       |
//! | Adult   | 45,222      | 15 (mixed)     | ≈ 2⁵²       |
//! | BR2000  | 38,000      | 14 (mixed)     | ≈ 2³²       |

pub mod acs;
pub mod adult;
pub mod br2000;
pub mod nltcs;
pub mod random_network;
pub mod targets;

pub use random_network::GroundTruthNetwork;
pub use targets::{BenchmarkDataset, ClassificationTarget};

/// All four benchmark datasets with their default sizes (Table 5), generated
/// deterministically from `seed`.
#[must_use]
pub fn all_datasets(seed: u64) -> Vec<targets::BenchmarkDataset> {
    vec![
        nltcs::nltcs(seed),
        acs::acs(seed.wrapping_add(1)),
        adult::adult(seed.wrapping_add(2)),
        br2000::br2000(seed.wrapping_add(3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_5_shapes() {
        let sets = all_datasets(7);
        let expect = [
            ("NLTCS", 21_574usize, 16usize, 16.0f64),
            ("ACS", 47_461, 23, 23.0),
            ("Adult", 45_222, 15, 52.0),
            ("BR2000", 38_000, 14, 32.0),
        ];
        for (ds, (name, n, d, log_dom)) in sets.iter().zip(expect) {
            assert_eq!(ds.name, name);
            assert_eq!(ds.data.n(), n, "{name} cardinality");
            assert_eq!(ds.data.d(), d, "{name} dimensionality");
            let got = ds.data.schema().total_domain_log2();
            assert!((got - log_dom).abs() < 3.0, "{name} domain ≈ 2^{log_dom}, got 2^{got:.1}");
            assert_eq!(ds.targets.len(), 4, "{name} has 4 classification targets");
        }
    }
}
