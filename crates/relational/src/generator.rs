//! Synthetic relational ground truth for tests and experiments.
//!
//! The paper's datasets are single-table; no public multi-table benchmark
//! with per-individual privacy semantics exists in this offline environment,
//! so experiments use a generated clinic-style database whose ground-truth
//! correlations are known by construction: smoking status drives both how
//! *often* an individual generates visit facts and *what* those facts
//! contain, giving the synthesiser a real cross-table signal to preserve.

use privbayes_data::{Attribute, Dataset, Schema};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

use crate::dataset::RelationalDataset;
use crate::schema::RelationalSchema;

/// Generates a clinic-style two-table database.
///
/// * **Entities** (`n_entities` rows): `smoker` (30% yes), `region`
///   (4 values, skewed).
/// * **Facts** (visits): each individual draws `Binomial(max_fanout, p)`
///   visits with `p = 0.7` for smokers and `0.3` otherwise; each visit has
///   `diagnosis` (5 values, smokers skew to codes 3–4) and `inpatient`
///   (likelier for high diagnosis codes).
///
/// # Panics
/// Panics if `n_entities == 0` or `max_fanout == 0`.
#[must_use]
pub fn clinic_benchmark(n_entities: usize, max_fanout: usize, seed: u64) -> RelationalDataset {
    assert!(n_entities > 0, "need at least one individual");
    assert!(max_fanout > 0, "fan-out cap must be positive");
    let entity_schema = Schema::new(vec![
        Attribute::binary("smoker"),
        Attribute::categorical_labelled("region", ["north", "south", "east", "west"]).unwrap(),
    ])
    .expect("static schema is valid");
    let fact_schema = Schema::new(vec![
        Attribute::categorical("diagnosis", 5).unwrap(),
        Attribute::binary("inpatient"),
    ])
    .expect("static schema is valid");
    let schema = RelationalSchema::new(entity_schema.clone(), fact_schema.clone(), max_fanout)
        .expect("static relational schema is valid");

    let mut rng = StdRng::seed_from_u64(seed);
    let mut entity_rows = Vec::with_capacity(n_entities);
    let mut fact_rows = Vec::new();
    let mut owners = Vec::new();
    for e in 0..n_entities {
        let smoker = u32::from(rng.random::<f64>() < 0.3);
        let region = skewed_region(&mut rng);
        entity_rows.push(vec![smoker, region]);

        let visit_p = if smoker == 1 { 0.7 } else { 0.3 };
        let visits = (0..max_fanout).filter(|_| rng.random::<f64>() < visit_p).count();
        for _ in 0..visits {
            let diagnosis = sample_diagnosis(smoker, &mut rng);
            let inpatient_p = 0.1 + 0.2 * diagnosis as f64 / 4.0;
            let inpatient = u32::from(rng.random::<f64>() < inpatient_p);
            fact_rows.push(vec![diagnosis, inpatient]);
            owners.push(e);
        }
    }
    let entities =
        Dataset::from_rows(entity_schema, &entity_rows).expect("generated rows are in-domain");
    let facts = Dataset::from_rows(fact_schema, &fact_rows).expect("generated rows are in-domain");
    RelationalDataset::new(schema, entities, facts, owners)
        .expect("generator respects its own fan-out cap")
}

fn skewed_region<R: Rng + ?Sized>(rng: &mut R) -> u32 {
    let u: f64 = rng.random();
    match u {
        u if u < 0.4 => 0,
        u if u < 0.7 => 1,
        u if u < 0.9 => 2,
        _ => 3,
    }
}

fn sample_diagnosis<R: Rng + ?Sized>(smoker: u32, rng: &mut R) -> u32 {
    let u: f64 = rng.random();
    if smoker == 1 {
        // Skew towards codes 3-4.
        match u {
            u if u < 0.1 => 0,
            u if u < 0.2 => 1,
            u if u < 0.35 => 2,
            u if u < 0.65 => 3,
            _ => 4,
        }
    } else {
        match u {
            u if u < 0.35 => 0,
            u if u < 0.65 => 1,
            u if u < 0.85 => 2,
            u if u < 0.95 => 3,
            _ => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_respects_shape() {
        let data = clinic_benchmark(500, 3, 1);
        assert_eq!(data.n_entities(), 500);
        assert!(data.fanouts().iter().all(|&f| f <= 3));
        assert!(data.n_facts() > 0);
    }

    #[test]
    fn smokers_generate_more_visits() {
        let data = clinic_benchmark(4000, 5, 2);
        let fanouts = data.fanouts();
        let mut smoker_visits = 0.0;
        let mut smoker_count = 0.0;
        let mut other_visits = 0.0;
        let mut other_count = 0.0;
        for (e, &fanout) in fanouts.iter().enumerate() {
            if data.entities().value(e, 0) == 1 {
                smoker_visits += fanout as f64;
                smoker_count += 1.0;
            } else {
                other_visits += fanout as f64;
                other_count += 1.0;
            }
        }
        let smoker_rate = smoker_visits / smoker_count;
        let other_rate = other_visits / other_count;
        assert!(
            smoker_rate > other_rate * 1.5,
            "smokers must visit more: {smoker_rate:.2} vs {other_rate:.2}"
        );
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let a = clinic_benchmark(200, 3, 7);
        let b = clinic_benchmark(200, 3, 7);
        assert_eq!(a, b);
        let c = clinic_benchmark(200, 3, 8);
        assert_ne!(a, c);
    }
}
