//! Direct inference from the noisy model — the paper's concluding-remarks
//! extension (§7): *"one direction for exploration is whether certain
//! questions could be answered directly from the materialized model and its
//! parameters, rather than via random sampling."*
//!
//! [`model_conditional`] computes the **exact** distribution
//! `Pr*_N[targets | evidence]` of the model by variable elimination (with no
//! evidence it is the marginal, [`model_marginal`]): the query's
//! non-ancestors are pruned (their conditionals integrate to one), each
//! remaining AP pair becomes a CPT factor with the evidence sliced out, and
//! the other attributes are summed out in a greedy
//! smallest-intermediate-factor order. The same elimination's buckets let the
//! sampler draw evidence cohorts exactly
//! ([`crate::sampler::CompiledSampler::stream_spec`]). This removes the
//! sampling error from query answers; the privacy cost is unchanged because
//! the model is already differentially private (post-processing).

use privbayes_data::Schema;
use privbayes_marginals::{project_values, projected_cells, Axis, ContingencyTable};

use crate::conditionals::NoisyModel;
use crate::error::PrivBayesError;

/// Default cap on the intermediate factor size (cells).
pub const DEFAULT_CELL_CAP: usize = 1 << 22;

/// Computes the exact model marginal `Pr*_N[attrs]`: [`model_conditional`]
/// with no evidence.
///
/// Attributes appear in the returned table in the order given. Only the
/// query's **ancestral closure** is materialised, and a query that needs an
/// intermediate factor above `cell_cap` cells is refused.
///
/// # Errors
/// As [`model_conditional`].
pub fn model_marginal(
    model: &NoisyModel,
    schema: &Schema,
    attrs: &[usize],
    cell_cap: usize,
) -> Result<ContingencyTable, PrivBayesError> {
    model_conditional(model, schema, attrs, &[], cell_cap)
}

/// Computes the exact model conditional `Pr*_N[targets | evidence]`.
///
/// Evidence is a list of `(attribute, observed code)` pairs; the result is a
/// distribution over the target attributes in the order given, normalised
/// within the evidence slice. Only the ancestral closure of the targets and
/// the evidence is materialised: a pair whose child is outside it integrates
/// to one (its conditional is normalised per parent configuration) and is
/// skipped exactly. Evidence variables are *reduced* (their factors sliced at
/// the observed code) instead of eliminated, so conditioning on evidence is
/// never more expensive than the corresponding marginal. Like everything
/// computed from the released model, this is post-processing: no privacy
/// budget is consumed.
///
/// # Errors
/// Returns [`PrivBayesError::InvalidConfig`] for an empty/duplicated/out-of-
/// range query, evidence codes outside their domains, overlap between
/// targets and evidence, evidence with probability zero under the model, or
/// when `cell_cap` is exceeded; [`PrivBayesError::InvalidNetwork`] if the
/// model does not cover the schema.
pub fn model_conditional(
    model: &NoisyModel,
    schema: &Schema,
    targets: &[usize],
    evidence: &[(usize, u32)],
    cell_cap: usize,
) -> Result<ContingencyTable, PrivBayesError> {
    if targets.is_empty() {
        return Err(PrivBayesError::InvalidConfig("empty target set".into()));
    }
    let (posterior, _) = eliminate_closure(model, schema, targets, evidence, cell_cap)?;
    let axes: Vec<Axis> = posterior.scope.iter().map(|&a| Axis::raw(a)).collect();
    let table = ContingencyTable::from_parts(axes, posterior.dims, posterior.values);
    Ok(table.project_attrs(targets))
}

/// Greedy variable elimination over the ancestral closure of `targets` and
/// the evidence: the one routine behind [`model_conditional`] and the
/// sampler's evidence cohorts.
///
/// Each closure pair becomes a CPT factor with the evidence sliced out at its
/// observed code; every closure attribute that is neither target nor
/// evidence is then eliminated, smallest intermediate factor first. Returns
/// `Pr*[targets | evidence]` (scoped within `targets`, in join order) and
/// each eliminated attribute's **bucket** — the product of the factors that
/// mentioned it, before the sum — in elimination order. A bucket's last
/// (fastest) axis is its eliminated attribute; its other attributes are all
/// eliminated later or are targets, so a bucket read as a table of
/// conditionals is `Pr*[attribute | later attributes, evidence]` up to one
/// normalising constant per slice.
///
/// # Errors
/// As [`model_conditional`], apart from the empty-target check (cohorts keep
/// no targets).
pub(crate) fn eliminate_closure(
    model: &NoisyModel,
    schema: &Schema,
    targets: &[usize],
    evidence: &[(usize, u32)],
    cell_cap: usize,
) -> Result<(Factor, Vec<Factor>), PrivBayesError> {
    let d = schema.len();
    if model.conditionals.len() != d {
        return Err(PrivBayesError::InvalidNetwork(format!(
            "model covers {} attributes, schema has {d}",
            model.conditionals.len()
        )));
    }
    for (i, &a) in targets.iter().enumerate() {
        if a >= d {
            return Err(PrivBayesError::InvalidConfig(format!("target {a} out of range")));
        }
        if targets[..i].contains(&a) {
            return Err(PrivBayesError::InvalidConfig(format!("target {a} repeated")));
        }
    }
    for (i, &(a, code)) in evidence.iter().enumerate() {
        if a >= d {
            return Err(PrivBayesError::InvalidConfig(format!(
                "evidence attribute {a} out of range"
            )));
        }
        if !schema.attribute(a).domain().contains(code) {
            return Err(PrivBayesError::InvalidConfig(format!(
                "evidence code {code} outside the domain of attribute {a}"
            )));
        }
        if targets.contains(&a) {
            return Err(PrivBayesError::InvalidConfig(format!(
                "attribute {a} is both target and evidence"
            )));
        }
        if evidence[..i].iter().any(|&(b, _)| b == a) {
            return Err(PrivBayesError::InvalidConfig(format!("evidence attribute {a} repeated")));
        }
    }

    // Closure of targets ∪ evidence. Parents precede their children in the
    // conditional list, so one reverse sweep marks every ancestor.
    let mut needed = vec![false; d];
    for &a in targets.iter().chain(evidence.iter().map(|(a, _)| a)) {
        needed[a] = true;
    }
    for cond in model.conditionals.iter().rev() {
        if needed[cond.child] {
            for axis in &cond.parents {
                needed[axis.attr] = true;
            }
        }
    }

    // One factor per needed pair, expanded over RAW parent domains so that
    // factors mentioning an attribute at different generalisation levels
    // still join on the raw code. Evidence is sliced out immediately:
    // reducing shrinks every factor before any join happens.
    let mut factors: Vec<Factor> = Vec::new();
    for cond in model.conditionals.iter().filter(|c| needed[c.child]) {
        let mut factor = Factor::from_conditional(cond, schema, cell_cap)?;
        for &(a, code) in evidence {
            if factor.scope.contains(&a) {
                factor = factor.reduce(a, code as usize);
            }
        }
        factors.push(factor);
    }

    // Repeatedly eliminate the attribute whose bucket join produces the
    // smallest intermediate factor (evidence is already gone from every
    // scope).
    let mut to_eliminate: Vec<usize> = (0..d)
        .filter(|&a| needed[a] && !targets.contains(&a) && !evidence.iter().any(|&(e, _)| e == a))
        .collect();
    let mut buckets = Vec::with_capacity(to_eliminate.len());
    while !to_eliminate.is_empty() {
        let best = to_eliminate
            .iter()
            .enumerate()
            .min_by(|a, b| {
                elimination_cost(&factors, *a.1).total_cmp(&elimination_cost(&factors, *b.1))
            })
            .map(|(i, _)| i)
            .expect("nonempty elimination set");
        let var = to_eliminate.swap_remove(best);
        buckets.push(eliminate(&mut factors, var, cell_cap)?);
    }

    // Join the survivors (all scoped within the targets): the unnormalised
    // Pr*[targets, evidence], normalised by the evidence probability.
    let mut posterior = Factor::unit();
    for f in factors {
        posterior = posterior.join(&f, cell_cap)?;
    }
    let total: f64 = posterior.values.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return Err(PrivBayesError::InvalidConfig(
            "evidence has probability zero under the model".into(),
        ));
    }
    for v in &mut posterior.values {
        *v /= total;
    }
    Ok((posterior, buckets))
}

/// Computes the exact model marginal `Pr*_N[attrs]` by **θ-projection**: a
/// direct, deterministic enumeration of the query's ancestral closure. This
/// is the canonical algorithm behind the query API's `/v1/models/{id}/query`
/// endpoint; [`model_marginal`] computes the same distribution faster via
/// variable elimination but with an elimination-order-dependent floating-
/// point summation, so only θ-projection answers are **bit-reproducible**
/// across releases and against the independent oracle in
/// `privbayes_bench::reference`.
///
/// The operation order is part of the contract (two independent
/// implementations following it produce bit-identical tables):
///
/// 1. Prune to the query's **ancestral closure** (non-ancestors integrate to
///    one and are skipped exactly).
/// 2. Enumerate the closure's raw configurations in row-major order over the
///    closure attributes sorted ascending by index (last attribute fastest).
/// 3. Per configuration, multiply the conditionals `Pr*[child | parents]` in
///    **network order** (the model's conditional list order), generalised
///    parents resolved through their taxonomies.
/// 4. Accumulate each configuration's probability into the output cell
///    (query coordinates in the order given) in enumeration order.
///
/// # Errors
/// Returns [`PrivBayesError::InvalidConfig`] for an empty/duplicated/out-of-
/// range query or when the closure (or output) would exceed `cell_cap`
/// cells, and [`PrivBayesError::InvalidNetwork`] if the model does not cover
/// the schema.
pub fn theta_projection(
    model: &NoisyModel,
    schema: &Schema,
    attrs: &[usize],
    cell_cap: usize,
) -> Result<ContingencyTable, PrivBayesError> {
    let d = schema.len();
    if model.conditionals.len() != d {
        return Err(PrivBayesError::InvalidNetwork(format!(
            "model covers {} attributes, schema has {d}",
            model.conditionals.len()
        )));
    }
    if attrs.is_empty() {
        return Err(PrivBayesError::InvalidConfig("empty query".into()));
    }
    for (i, &a) in attrs.iter().enumerate() {
        if a >= d {
            return Err(PrivBayesError::InvalidConfig(format!("attribute {a} out of range")));
        }
        if attrs[..i].contains(&a) {
            return Err(PrivBayesError::InvalidConfig(format!("attribute {a} repeated")));
        }
    }

    // Step 1: ancestral closure (parents precede children, so one reverse
    // sweep marks every ancestor).
    let mut needed = vec![false; d];
    for &a in attrs {
        needed[a] = true;
    }
    for cond in model.conditionals.iter().rev() {
        if needed[cond.child] {
            for axis in &cond.parents {
                needed[axis.attr] = true;
            }
        }
    }
    let closure: Vec<usize> = (0..d).filter(|&a| needed[a]).collect();
    let closure_dims: Vec<usize> =
        closure.iter().map(|&a| schema.attribute(a).domain_size()).collect();
    let mut closure_cells = 1usize;
    for &dim in &closure_dims {
        closure_cells = closure_cells.saturating_mul(dim);
        if closure_cells > cell_cap {
            return Err(PrivBayesError::InvalidConfig(format!(
                "theta projection would enumerate more than {cell_cap} closure cells; \
                 use model_marginal or sampling for this query"
            )));
        }
    }

    let out_dims: Vec<usize> = attrs.iter().map(|&a| schema.attribute(a).domain_size()).collect();
    let out_cells: usize = out_dims.iter().product();
    // The query is a subset of the closure, so its cells can't exceed the
    // (already checked) closure cells; guard anyway for clarity.
    if out_cells > cell_cap {
        return Err(cap_error(out_cells, cell_cap));
    }
    let mut out_strides = vec![1usize; attrs.len()];
    for i in (0..attrs.len().saturating_sub(1)).rev() {
        out_strides[i] = out_strides[i + 1] * out_dims[i + 1];
    }

    // Conditionals participating in the product, in network order.
    let conds: Vec<&crate::conditionals::Conditional> =
        model.conditionals.iter().filter(|c| needed[c.child]).collect();

    // Steps 2–4: row-major mixed-radix enumeration of the closure.
    let mut values = vec![0.0f64; out_cells];
    let mut tuple = vec![0u32; d]; // raw codes of the current configuration
    let mut codes: Vec<usize> = Vec::new();
    loop {
        // Step 3: the configuration's probability, conditionals in network
        // order, generalised parents resolved per configuration.
        let mut p = 1.0f64;
        for cond in &conds {
            codes.clear();
            for axis in &cond.parents {
                let raw = tuple[axis.attr];
                let code = if axis.level == 0 {
                    raw
                } else {
                    schema
                        .attribute(axis.attr)
                        .taxonomy()
                        .expect("validated by BayesianNetwork::new")
                        .generalize(raw, axis.level)
                };
                codes.push(code as usize);
            }
            let slice = cond.child_distribution(cond.parent_index(&codes));
            p *= slice[tuple[cond.child] as usize];
        }
        // Step 4: accumulate into the output cell.
        let mut out_idx = 0usize;
        for (&a, &stride) in attrs.iter().zip(&out_strides) {
            out_idx += tuple[a] as usize * stride;
        }
        values[out_idx] += p;

        // Step 2's increment: last closure attribute fastest.
        let mut carry = true;
        for (&a, &dim) in closure.iter().zip(&closure_dims).rev() {
            tuple[a] += 1;
            if (tuple[a] as usize) < dim {
                carry = false;
                break;
            }
            tuple[a] = 0;
        }
        if carry {
            break;
        }
    }

    let axes: Vec<Axis> = attrs.iter().map(|&a| Axis::raw(a)).collect();
    Ok(ContingencyTable::from_parts(axes, out_dims, values))
}

/// A dense factor over raw attributes (row-major, last axis fastest).
#[derive(Debug, Clone)]
pub(crate) struct Factor {
    pub(crate) scope: Vec<usize>,
    pub(crate) dims: Vec<usize>,
    pub(crate) values: Vec<f64>,
}

fn cap_error(cells: usize, cap: usize) -> PrivBayesError {
    PrivBayesError::InvalidConfig(format!("inference factor would need {cells} cells (cap {cap})"))
}

impl Factor {
    /// The multiplicative identity: a single cell of mass 1.
    fn unit() -> Self {
        Self { scope: Vec::new(), dims: Vec::new(), values: vec![1.0] }
    }

    /// Builds the CPT factor of one AP pair over raw domains. Generalised
    /// parents are resolved through the taxonomy per raw configuration.
    fn from_conditional(
        cond: &crate::conditionals::Conditional,
        schema: &Schema,
        cell_cap: usize,
    ) -> Result<Self, PrivBayesError> {
        let mut scope: Vec<usize> = cond.parents.iter().map(|axis| axis.attr).collect();
        let mut dims: Vec<usize> =
            scope.iter().map(|&a| schema.attribute(a).domain_size()).collect();
        scope.push(cond.child);
        dims.push(cond.child_dim);
        let cells: usize = dims.iter().product();
        if cells > cell_cap {
            return Err(cap_error(cells, cell_cap));
        }
        let mut values = vec![0.0f64; cells];
        let parent_dims = &dims[..dims.len() - 1];
        let mut raw = vec![0usize; cond.parents.len()];
        let mut codes = vec![0usize; cond.parents.len()];
        let mut base = 0usize;
        loop {
            for (slot, axis) in cond.parents.iter().enumerate() {
                codes[slot] = if axis.level == 0 {
                    raw[slot]
                } else {
                    schema
                        .attribute(axis.attr)
                        .taxonomy()
                        .expect("validated by BayesianNetwork::new")
                        .generalize(raw[slot] as u32, axis.level) as usize
                };
            }
            let slice = cond.child_distribution(cond.parent_index(&codes));
            values[base..base + cond.child_dim].copy_from_slice(slice);
            base += cond.child_dim;
            // Mixed-radix increment over the raw parent configuration.
            let mut carry = true;
            for slot in (0..raw.len()).rev() {
                raw[slot] += 1;
                if raw[slot] < parent_dims[slot] {
                    carry = false;
                    break;
                }
                raw[slot] = 0;
            }
            if carry {
                break;
            }
        }
        Ok(Self { scope, dims, values })
    }

    /// Pointwise product over the union scope (self's order, then other's
    /// new variables).
    fn join(&self, other: &Factor, cell_cap: usize) -> Result<Factor, PrivBayesError> {
        let mut scope = self.scope.clone();
        let mut dims = self.dims.clone();
        for (&v, &dim) in other.scope.iter().zip(&other.dims) {
            if !scope.contains(&v) {
                scope.push(v);
                dims.push(dim);
            }
        }
        let cells: usize = dims.iter().product();
        if cells > cell_cap {
            return Err(cap_error(cells, cell_cap));
        }
        // Each union cell's operand cells: the union walked once per operand.
        // `self` is the union's leading axes, in order.
        let own: Vec<usize> = (0..self.scope.len()).collect();
        let theirs: Vec<usize> = other
            .scope
            .iter()
            .map(|v| scope.iter().position(|s| s == v).expect("the union holds other's scope"))
            .collect();
        let values = projected_cells(&dims, &own)
            .zip(projected_cells(&dims, &theirs))
            .map(|(ia, ib)| self.values[ia] * other.values[ib])
            .collect();
        Ok(Factor { scope, dims, values })
    }

    /// Slices the factor at `var = code`, removing `var` from the scope.
    fn reduce(&self, var: usize, code: usize) -> Factor {
        let pos = self.scope.iter().position(|&v| v == var).expect("var in scope");
        assert!(code < self.dims[pos], "evidence code validated by caller");
        let scope: Vec<usize> =
            self.scope.iter().enumerate().filter(|&(j, _)| j != pos).map(|(_, &v)| v).collect();
        let dims: Vec<usize> =
            self.dims.iter().enumerate().filter(|&(j, _)| j != pos).map(|(_, &d)| d).collect();
        let inner: usize = self.dims[pos + 1..].iter().product();
        let var_dim = self.dims[pos];
        let cells: usize = dims.iter().product();
        let mut values = Vec::with_capacity(cells);
        let block = inner * var_dim;
        for outer in 0..self.values.len() / block {
            let start = outer * block + code * inner;
            values.extend_from_slice(&self.values[start..start + inner]);
        }
        Factor { scope, dims, values }
    }

    /// Sums out one variable.
    fn sum_out(&self, var: usize) -> Factor {
        let pos = self.scope.iter().position(|&v| v == var).expect("var in scope");
        let keep: Vec<usize> = (0..self.scope.len()).filter(|&j| j != pos).collect();
        Factor {
            scope: keep.iter().map(|&j| self.scope[j]).collect(),
            dims: keep.iter().map(|&j| self.dims[j]).collect(),
            values: project_values(&self.dims, &self.values, &keep),
        }
    }
}

/// The attributes that share a factor with `var`, with their dims, in
/// first-mention order: the scope of `var`'s bucket without `var`.
fn bucket_context(factors: &[Factor], var: usize) -> (Vec<usize>, Vec<usize>) {
    let mut scope: Vec<usize> = Vec::new();
    let mut dims: Vec<usize> = Vec::new();
    for f in factors.iter().filter(|f| f.scope.contains(&var)) {
        for (&v, &dim) in f.scope.iter().zip(&f.dims) {
            if v != var && !scope.contains(&v) {
                scope.push(v);
                dims.push(dim);
            }
        }
    }
    (scope, dims)
}

/// Size (cells) of the factor produced by eliminating `var`, as f64 to avoid
/// overflow while comparing candidate orders.
fn elimination_cost(factors: &[Factor], var: usize) -> f64 {
    bucket_context(factors, var).1.iter().map(|&dim| dim as f64).product()
}

/// Joins every factor mentioning `var` into its bucket, pushes the bucket
/// with `var` summed out back, and returns the bucket. The bucket starts as
/// an all-ones factor over its other attributes, so `var` joins as its last
/// (fastest) axis; multiplying by one is exact.
fn eliminate(
    factors: &mut Vec<Factor>,
    var: usize,
    cell_cap: usize,
) -> Result<Factor, PrivBayesError> {
    let (scope, dims) = bucket_context(factors, var);
    let cells = dims.iter().fold(1usize, |acc, &dim| acc.saturating_mul(dim));
    if cells > cell_cap {
        return Err(cap_error(cells, cell_cap));
    }
    let mut bucket = Factor { values: vec![1.0; cells], scope, dims };
    let mut rest = Vec::with_capacity(factors.len());
    for f in factors.drain(..) {
        if f.scope.contains(&var) {
            bucket = bucket.join(&f, cell_cap)?;
        } else {
            rest.push(f);
        }
    }
    *factors = rest;
    factors.push(bucket.sum_out(var));
    Ok(bucket)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditionals::noisy_conditionals_general_engine;
    use crate::network::{ApPair, BayesianNetwork};
    use privbayes_data::{Attribute, Dataset, TaxonomyTree};
    use privbayes_marginals::{total_variation, CountEngine};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn chain_model() -> (Dataset, NoisyModel) {
        let schema = Schema::new(vec![
            Attribute::binary("a"),
            Attribute::binary("b"),
            Attribute::categorical("c", 3).unwrap(),
        ])
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let rows: Vec<Vec<u32>> = (0..2000)
            .map(|_| {
                let a = rng.random_range(0..2u32);
                let b = if rng.random::<f64>() < 0.85 { a } else { 1 - a };
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
        let mut rng = StdRng::seed_from_u64(2);
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, None, &mut rng).unwrap();
        (data, model)
    }

    #[test]
    fn exact_marginal_matches_empirical_data_when_noise_free() {
        let (data, model) = chain_model();
        for attrs in [vec![0usize], vec![1], vec![2], vec![0, 2], vec![1, 2], vec![0, 1, 2]] {
            let inferred = model_marginal(&model, data.schema(), &attrs, DEFAULT_CELL_CAP).unwrap();
            let axes: Vec<Axis> = attrs.iter().map(|&a| Axis::raw(a)).collect();
            let empirical = ContingencyTable::from_dataset(&data, &axes);
            let tvd = total_variation(inferred.values(), empirical.values());
            assert!(tvd < 1e-9, "attrs {attrs:?}: tvd {tvd}");
        }
    }

    #[test]
    fn inference_agrees_with_large_sample_monte_carlo() {
        let (data, model) = chain_model();
        let mut rng = StdRng::seed_from_u64(3);
        let sample =
            model.compile(data.schema()).unwrap().sample_dataset(100_000, None, &mut rng).unwrap();
        let inferred = model_marginal(&model, data.schema(), &[1, 2], DEFAULT_CELL_CAP).unwrap();
        let empirical = ContingencyTable::from_dataset(&sample, &[Axis::raw(1), Axis::raw(2)]);
        let tvd = total_variation(inferred.values(), empirical.values());
        assert!(tvd < 0.01, "sampling must converge to the exact answer, tvd {tvd}");
    }

    #[test]
    fn output_is_a_distribution_in_query_order() {
        let (data, model) = chain_model();
        let t = model_marginal(&model, data.schema(), &[2, 0], DEFAULT_CELL_CAP).unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.axes()[0].attr, 2);
        assert!((t.total() - 1.0).abs() < 1e-9);
        assert!(t.values().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn generalized_parents_are_handled() {
        let schema = Schema::new(vec![
            Attribute::categorical("g", 4)
                .unwrap()
                .with_taxonomy(TaxonomyTree::balanced_binary(4).unwrap())
                .unwrap(),
            Attribute::binary("y"),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> = (0..400u32).map(|i| vec![i % 4, u32::from(i % 4 >= 2)]).collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::generalized(1, vec![Axis { attr: 0, level: 1 }])],
            data.schema(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, None, &mut rng).unwrap();
        let t = model_marginal(&model, data.schema(), &[0, 1], DEFAULT_CELL_CAP).unwrap();
        let empirical = ContingencyTable::from_dataset(&data, &[Axis::raw(0), Axis::raw(1)]);
        assert!(total_variation(t.values(), empirical.values()) < 1e-9);
    }

    #[test]
    fn rejects_bad_queries_and_caps() {
        let (data, model) = chain_model();
        assert!(model_marginal(&model, data.schema(), &[], DEFAULT_CELL_CAP).is_err());
        assert!(model_marginal(&model, data.schema(), &[0, 0], DEFAULT_CELL_CAP).is_err());
        assert!(model_marginal(&model, data.schema(), &[9], DEFAULT_CELL_CAP).is_err());
        let r = model_marginal(&model, data.schema(), &[0, 1, 2], 2);
        assert!(matches!(r, Err(PrivBayesError::InvalidConfig(_))), "cap must trigger");
    }

    #[test]
    fn non_ancestors_are_pruned_before_materialisation() {
        // A huge-domain attribute that is neither queried nor an ancestor of
        // the query must not count against the cell cap at all.
        let schema = Schema::new(vec![
            Attribute::binary("a"),
            Attribute::categorical("huge", 1000).unwrap(),
            Attribute::binary("b"),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> =
            (0..500u32).map(|i| vec![i % 2, i % 1000, (i % 2) ^ u32::from(i % 7 == 0)]).collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0]), ApPair::new(2, vec![0])],
            data.schema(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, None, &mut rng).unwrap();
        // Cap of 8 cells: materialising `huge` (2 × 1000 cells) would fail,
        // but the pruned query {a, b} needs only 4 cells.
        let t = model_marginal(&model, data.schema(), &[0, 2], 8).unwrap();
        let empirical = ContingencyTable::from_dataset(&data, &[Axis::raw(0), Axis::raw(2)]);
        assert!(total_variation(t.values(), empirical.values()) < 1e-9);
        // Querying `huge` itself still trips the cap, as it must.
        assert!(model_marginal(&model, data.schema(), &[1], 8).is_err());
    }

    #[test]
    fn isolated_roots_collapse_the_frontier() {
        // Attribute `a` is a root that is never a parent and not queried:
        // right after its pair the frontier holds only dead attributes and
        // must collapse to a scalar — the regression that once panicked in
        // `project(&[])`.
        let schema = Schema::new(vec![
            Attribute::binary("a"),
            Attribute::binary("b"),
            Attribute::categorical("c", 3).unwrap(),
        ])
        .unwrap();
        let rows: Vec<Vec<u32>> = (0..300u32)
            .map(|i| vec![i % 2, (i / 2) % 2, ((i / 2) % 2) + (i % 3 == 0) as u32])
            .collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::new(1, vec![]), ApPair::new(2, vec![1])],
            data.schema(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, None, &mut rng).unwrap();
        for attrs in [vec![2usize], vec![1, 2], vec![2, 1]] {
            let t = model_marginal(&model, data.schema(), &attrs, DEFAULT_CELL_CAP).unwrap();
            let axes: Vec<Axis> = attrs.iter().map(|&a| Axis::raw(a)).collect();
            let empirical = ContingencyTable::from_dataset(&data, &axes);
            assert!(total_variation(t.values(), empirical.values()) < 1e-9, "attrs {attrs:?}");
        }
    }

    #[test]
    fn theta_projection_agrees_with_variable_elimination() {
        let (data, model) = chain_model();
        for attrs in [vec![0usize], vec![2], vec![2, 0], vec![0, 1, 2]] {
            let ve = model_marginal(&model, data.schema(), &attrs, DEFAULT_CELL_CAP).unwrap();
            let proj = theta_projection(&model, data.schema(), &attrs, DEFAULT_CELL_CAP).unwrap();
            assert_eq!(proj.axes(), ve.axes(), "attrs {attrs:?}");
            assert_eq!(proj.dims(), ve.dims(), "attrs {attrs:?}");
            let tvd = total_variation(proj.values(), ve.values());
            assert!(tvd < 1e-12, "attrs {attrs:?}: tvd {tvd}");
        }
    }

    #[test]
    fn theta_projection_is_bitwise_deterministic() {
        let (data, model) = chain_model();
        let a = theta_projection(&model, data.schema(), &[2, 0], DEFAULT_CELL_CAP).unwrap();
        let b = theta_projection(&model, data.schema(), &[2, 0], DEFAULT_CELL_CAP).unwrap();
        for (x, y) in a.values().iter().zip(b.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn theta_projection_prunes_and_caps() {
        let (data, model) = chain_model();
        assert!(theta_projection(&model, data.schema(), &[], DEFAULT_CELL_CAP).is_err());
        assert!(theta_projection(&model, data.schema(), &[0, 0], DEFAULT_CELL_CAP).is_err());
        assert!(theta_projection(&model, data.schema(), &[9], DEFAULT_CELL_CAP).is_err());
        // The closure of {0} is just {0} (a is a root): 2 cells pass a cap
        // of 2, while the full joint (12 cells) would not.
        assert!(theta_projection(&model, data.schema(), &[0], 2).is_ok());
        assert!(theta_projection(&model, data.schema(), &[0, 1, 2], 2).is_err());
    }

    #[test]
    fn answers_are_deterministic() {
        // Unlike sampling, inference has no randomness at all.
        let (data, model) = chain_model();
        let a = model_marginal(&model, data.schema(), &[0, 2], DEFAULT_CELL_CAP).unwrap();
        let b = model_marginal(&model, data.schema(), &[0, 2], DEFAULT_CELL_CAP).unwrap();
        assert_eq!(a, b);
    }

    /// Empirical conditional Pr[target | evidence] from the data, for
    /// comparison with `model_conditional` on a noise-free model.
    fn empirical_conditional(data: &Dataset, target: usize, evidence: &[(usize, u32)]) -> Vec<f64> {
        let dim = data.schema().attribute(target).domain_size();
        let mut counts = vec![0.0f64; dim];
        for row in 0..data.n() {
            if evidence.iter().all(|&(a, code)| data.value(row, a) == code) {
                counts[data.value(row, target) as usize] += 1.0;
            }
        }
        let total: f64 = counts.iter().sum();
        counts.iter().map(|c| c / total).collect()
    }

    #[test]
    fn conditional_matches_empirical_when_noise_free() {
        let (data, model) = chain_model();
        for evidence in [vec![(0usize, 1u32)], vec![(0, 0)], vec![(0, 1), (1, 0)]] {
            let got = model_conditional(&model, data.schema(), &[2], &evidence, DEFAULT_CELL_CAP)
                .unwrap();
            let want = empirical_conditional(&data, 2, &evidence);
            let tvd = total_variation(got.values(), &want);
            assert!(tvd < 1e-9, "evidence {evidence:?}: tvd {tvd}");
        }
    }

    #[test]
    fn conditional_on_descendant_inverts_the_chain() {
        // Evidence on a *descendant* (c) conditions its ancestor (a) — the
        // Bayes-inversion direction ancestral sampling cannot answer.
        let (data, model) = chain_model();
        let got =
            model_conditional(&model, data.schema(), &[0], &[(2, 2)], DEFAULT_CELL_CAP).unwrap();
        let want = empirical_conditional(&data, 0, &[(2, 2)]);
        assert!(total_variation(got.values(), &want) < 1e-9);
    }

    #[test]
    fn conditional_with_no_effective_evidence_equals_marginal() {
        // Evidence on an attribute independent of the target must not change
        // the answer; also conditioning with empty evidence IS the marginal.
        let (data, model) = chain_model();
        let marginal = model_marginal(&model, data.schema(), &[1], DEFAULT_CELL_CAP).unwrap();
        let cond = model_conditional(&model, data.schema(), &[1], &[], DEFAULT_CELL_CAP).unwrap();
        assert!(total_variation(marginal.values(), cond.values()) < 1e-12);
    }

    #[test]
    fn conditional_output_is_a_distribution_in_target_order() {
        let (data, model) = chain_model();
        let t =
            model_conditional(&model, data.schema(), &[2, 1], &[(0, 1)], DEFAULT_CELL_CAP).unwrap();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.axes()[0].attr, 2);
        assert!((t.total() - 1.0).abs() < 1e-9);
        assert!(t.values().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn conditional_rejects_bad_inputs() {
        let (data, model) = chain_model();
        let cap = DEFAULT_CELL_CAP;
        assert!(model_conditional(&model, data.schema(), &[], &[(0, 0)], cap).is_err());
        assert!(model_conditional(&model, data.schema(), &[0], &[(0, 0)], cap).is_err());
        assert!(model_conditional(&model, data.schema(), &[1], &[(0, 9)], cap).is_err());
        assert!(model_conditional(&model, data.schema(), &[1], &[(9, 0)], cap).is_err());
        assert!(model_conditional(&model, data.schema(), &[9], &[(0, 0)], cap).is_err());
        assert!(
            model_conditional(&model, data.schema(), &[1], &[(0, 0), (0, 1)], cap).is_err(),
            "contradictory duplicate evidence"
        );
    }

    #[test]
    fn zero_probability_evidence_is_an_error() {
        // Build a model where Pr[a = 1] = 0 exactly.
        let schema = Schema::new(vec![Attribute::binary("a"), Attribute::binary("b")]).unwrap();
        let rows: Vec<Vec<u32>> = (0..50u32).map(|i| vec![0, i % 2]).collect();
        let data = Dataset::from_rows(schema, &rows).unwrap();
        let net = BayesianNetwork::new(
            vec![ApPair::new(0, vec![]), ApPair::new(1, vec![0])],
            data.schema(),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let engine = CountEngine::new(&data);
        let model = noisy_conditionals_general_engine(&engine, &net, None, &mut rng).unwrap();
        let r = model_conditional(&model, data.schema(), &[1], &[(0, 1)], DEFAULT_CELL_CAP);
        assert!(matches!(r, Err(PrivBayesError::InvalidConfig(_))), "{r:?}");
    }
}
