//! Empirical privacy audit: membership-inference attacks against every
//! [`Method`], with the measured attacker advantage gated on the analytic
//! ε-DP bound.
//!
//! The suite *proves* ε-DP analytically (mechanism calibration, composition
//! accounting) — this module *measures* it. The audit follows the standard
//! shadow-model membership-inference template specialised to the
//! replace-one-tuple neighbourhood the noise scales are calibrated for
//! (`2d/(nε₂)` in `privbayes::conditionals`):
//!
//! 1. **Neighbour worlds.** From a base dataset `D` build the *exclude*
//!    world (`D` unchanged) and the *include* world (`D` with row 0
//!    replaced by an outlier **target** tuple — per attribute, the least
//!    frequent value). The two differ in exactly one tuple, so any ε-DP fit
//!    bounds what an attacker can learn about the swap.
//! 2. **Shadow fits.** For each seeded repetition, fit the method once on
//!    each world with the *same* seed (so a data-independent method like
//!    `uniform` yields bit-identical models and the attack reads exactly
//!    zero signal — the null-calibration control).
//! 3. **Likelihood-ratio score.** The attacker observes a released model
//!    and scores membership by the model's log-probability of the target
//!    tuple: the product of the tuple's network conditionals, floored per
//!    factor (see [`log_model_prob`]). A full tuple pins every factor, so
//!    the score enumerates nothing, whatever the domain's size.
//! 4. **Calibrate, then evaluate.** Repetitions are split in half. The
//!    first half *calibrates* the attack — threshold and direction chosen
//!    to maximise TPR − FPR — and the frozen rule is *evaluated* on the
//!    held-out half. Because the evaluation reps never influenced the rule,
//!    the measured advantage is an unbiased estimate of the rule's true
//!    advantage, which ε-DP bounds by `(e^ε − 1)/(e^ε + 1)`.
//! 5. **Gate.** A point passes iff
//!    `advantage ≤ bound + slack`, where `slack` is the two-sided Hoeffding
//!    confidence width of the (TPR − FPR) estimate at the configured
//!    failure probability δ: each rate is estimated from `m` i.i.d.
//!    Bernoulli reps, so `P(|rate − p| ≥ t) ≤ 2e^{−2mt²}`; splitting δ over
//!    the two rates gives `t = sqrt(ln(4/δ)/(2m))` and the advantage is off
//!    by at most `2t` with probability ≥ 1 − δ. A breach therefore means a
//!    real privacy bug (at confidence 1 − δ), not estimator noise. The
//!    advantage never exceeds 1, so a point with `slack ≥ 1 − bound`
//!    passes whatever is measured: it is [`vacuous`](AuditOutcome::vacuous),
//!    and [`vacuous_verdict`] names the fewest reps at which it could fail.
//!
//! Utility (α = 2 workload TVD) is measured side by side so the audit
//! table reads as the privacy column of a method-vs-ε comparison.

use privbayes_data::Dataset;
use privbayes_marginals::average_workload_tvd;
use privbayes_model::ReleasedModel;
use privbayes_synth::{fit_method, FitSettings, Method};

use crate::{per_rep, rep_seed};

/// Per-conditional probability floor for log-likelihood scores. Released
/// conditionals contain exact zeros (negative noisy cells clamp to 0), and
/// on high-dimensional schemas *some* factor of an outlier tuple is zero in
/// both worlds almost surely — an unfloored product would collapse every
/// score to −∞ and blind the attacker. Flooring per factor keeps the
/// remaining factors' evidence (standard log-likelihood smoothing).
const FACTOR_FLOOR: f64 = 1e-12;

/// An audit failure: a shadow fit or scoring step errored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError(pub String);

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "audit failed: {}", self.0)
    }
}

impl std::error::Error for AuditError {}

/// Audit hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditConfig {
    /// Seeded world-pair repetitions; the first half calibrates the attack
    /// rule, the second half evaluates it. Must be even and ≥ 4.
    pub reps: usize,
    /// Base seed; repetition seeds derive from it splitmix-style.
    pub base_seed: u64,
    /// Failure-probability budget δ of the gate's confidence slack.
    pub delta: f64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self { reps: 40, base_seed: 0xA0D1_7000, delta: 1e-2 }
    }
}

impl AuditConfig {
    /// Evaluation repetitions (the held-out half).
    #[must_use]
    pub fn eval_reps(&self) -> usize {
        self.reps / 2
    }
}

/// One audited (method, ε) point: the measurement, the bound, the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditOutcome {
    /// Method (or fitter) label.
    pub method: String,
    /// Requested total budget of each shadow fit.
    pub epsilon: f64,
    /// Budget the fits actually consumed (0 for `uniform`).
    pub epsilon_spent: f64,
    /// Measured attacker advantage TPR − FPR on the evaluation half.
    pub advantage: f64,
    /// True-positive rate of the frozen rule on held-out include worlds.
    pub tpr: f64,
    /// False-positive rate of the frozen rule on held-out exclude worlds.
    pub fpr: f64,
    /// Analytic ε-DP ceiling `(e^ε − 1)/(e^ε + 1)` at `epsilon_spent`.
    pub bound: f64,
    /// Hoeffding confidence width of the advantage estimate.
    pub slack: f64,
    /// Evaluation repetitions behind `tpr`/`fpr`.
    pub eval_reps: usize,
    /// α = 2 workload TVD of one representative fit's samples (utility,
    /// printed side by side with the leakage).
    pub avg_tvd_alpha2: f64,
}

impl AuditOutcome {
    /// The hard gate: measured advantage must sit under the analytic bound
    /// plus the estimate's confidence slack.
    #[must_use]
    pub fn passes_gate(&self) -> bool {
        self.advantage <= self.bound + self.slack
    }

    /// Whether the gate cannot fail at this rep count: the advantage never
    /// exceeds 1, so once `slack ≥ 1 − bound` every measurement passes.
    #[must_use]
    pub fn vacuous(&self) -> bool {
        self.slack >= 1.0 - self.bound
    }
}

/// The analytic ε-DP ceiling on membership advantage for one neighbouring
/// pair: `(e^ε − 1)/(e^ε + 1)` (tight for the randomised-response attack).
#[must_use]
pub fn advantage_bound(epsilon_spent: f64) -> f64 {
    let e = epsilon_spent.exp();
    (e - 1.0) / (e + 1.0)
}

/// Two-sided Hoeffding width of a TPR − FPR estimate from `eval_reps`
/// repetitions per world at failure probability `delta` (see module docs).
#[must_use]
pub fn hoeffding_slack(eval_reps: usize, delta: f64) -> f64 {
    2.0 * ((4.0 / delta).ln() / (2.0 * eval_reps as f64)).sqrt()
}

/// The verdict printed for a [`vacuous`](AuditOutcome::vacuous) point:
/// `vacuous (needs ≥ N reps)`, where N is the fewest reps at which a point
/// with this `bound` could fail at `delta`.
#[must_use]
pub fn vacuous_verdict(bound: f64, delta: f64) -> String {
    gating_reps(bound, delta).map_or_else(
        || "vacuous (no rep count can gate it)".to_string(),
        |n| format!("vacuous (needs ≥ {n} reps)"),
    )
}

/// The smallest even rep count whose slack at `delta` leaves room under 1
/// for `bound`. `None` when no feasible count exists (`bound` at or within
/// rounding of 1).
fn gating_reps(bound: f64, delta: f64) -> Option<usize> {
    let room = 1.0 - bound;
    // slack(m) < room  ⇔  m > 2·ln(4/δ)/room²; start from that closed form
    // and settle its rounding against `hoeffding_slack` itself.
    let estimate = 2.0 * (4.0 / delta).ln() / (room * room);
    if !(room > 0.0 && estimate < 1e15) {
        return None;
    }
    let mut m = (estimate as usize).max(2);
    while hoeffding_slack(m, delta) >= room {
        m += 1;
    }
    while m > 2 && hoeffding_slack(m - 1, delta) < room {
        m -= 1;
    }
    Some(2 * m)
}

/// The include/exclude neighbour pair around an outlier target tuple.
#[derive(Debug, Clone)]
pub struct AuditWorlds {
    /// Base data with row 0 replaced by the target (member world).
    pub include: Dataset,
    /// The base data unchanged (non-member world).
    pub exclude: Dataset,
    /// The audited tuple: per attribute, the least frequent value in the
    /// base data (ties to the lowest code). An outlier maximises the
    /// attacker's signal, making the audit an upper-probe, not a soft one.
    pub target: Vec<u32>,
}

/// Builds the replace-one neighbour worlds for `base`.
///
/// # Panics
/// Panics if `base` is empty.
#[must_use]
pub fn neighbor_worlds(base: &Dataset) -> AuditWorlds {
    assert!(base.n() > 0, "audit needs a non-empty base dataset");
    let schema = base.schema().clone();
    let target: Vec<u32> = (0..base.d())
        .map(|a| {
            let mut counts = vec![0usize; schema.attribute(a).domain_size()];
            for &v in base.column(a) {
                counts[v as usize] += 1;
            }
            let (code, _) =
                counts.iter().enumerate().min_by_key(|&(_, &c)| c).expect("non-empty domain");
            code as u32
        })
        .collect();
    let mut rows: Vec<Vec<u32>> = (0..base.n()).map(|r| base.row(r)).collect();
    let exclude = Dataset::from_rows(schema.clone(), &rows).expect("base rows are in-domain");
    rows[0].clone_from(&target);
    let include = Dataset::from_rows(schema, &rows).expect("target is in-domain");
    AuditWorlds { include, exclude, target }
}

/// The attacker's score: the released model's log-probability of the full
/// tuple `row`, the sum of the logs of the tuple's network conditionals with
/// each factor floored at `FACTOR_FLOOR` (1e-12). A full tuple pins every
/// factor, so nothing is enumerated. When no factor is floored, the score is
/// the log of the tuple's [`privbayes::inference::theta_projection`] cell up
/// to float association order.
///
/// # Errors
/// Returns [`AuditError`] if the model does not cover the schema.
pub fn log_model_prob(model: &ReleasedModel, row: &[u32]) -> Result<f64, AuditError> {
    let schema = &model.schema;
    if row.len() != schema.len() {
        return Err(AuditError(format!(
            "target has {} attributes, schema has {}",
            row.len(),
            schema.len()
        )));
    }
    let mut log_p = 0.0f64;
    for cond in &model.model.conditionals {
        let mut idx = 0usize;
        for (axis, &dim) in cond.parents.iter().zip(&cond.parent_dims) {
            let raw = row[axis.attr];
            let code = if axis.level == 0 {
                raw
            } else {
                schema
                    .attribute(axis.attr)
                    .taxonomy()
                    .ok_or_else(|| AuditError(format!("attribute {} has no taxonomy", axis.attr)))?
                    .generalize(raw, axis.level)
            };
            idx = idx * dim + code as usize;
        }
        log_p += cond.probs[idx * cond.child_dim + row[cond.child] as usize].max(FACTOR_FLOOR).ln();
    }
    Ok(log_p)
}

/// A calibrated attack rule: claim "member" when `(score > threshold)`,
/// direction-flipped if the calibration split preferred it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AttackRule {
    threshold: f64,
    flip: bool,
}

impl AttackRule {
    fn is_member(&self, score: f64) -> bool {
        (score > self.threshold) != self.flip
    }

    fn rates(&self, scores_in: &[f64], scores_out: &[f64]) -> (f64, f64) {
        let frac = |scores: &[f64]| {
            scores.iter().filter(|&&s| self.is_member(s)).count() as f64 / scores.len() as f64
        };
        (frac(scores_in), frac(scores_out))
    }
}

/// Sweeps every midpoint between adjacent distinct pooled scores (plus the
/// two outer flanks) in both directions and returns the rule maximising
/// calibration advantage. Deterministic: ties keep the first candidate.
fn calibrate_rule(cal_in: &[f64], cal_out: &[f64]) -> AttackRule {
    let mut pooled: Vec<f64> = cal_in.iter().chain(cal_out).copied().collect();
    pooled.sort_by(f64::total_cmp);
    pooled.dedup();
    let mut candidates = vec![pooled[0] - 1.0];
    candidates.extend(pooled.windows(2).map(|w| (w[0] + w[1]) / 2.0));
    let mut best = AttackRule { threshold: candidates[0], flip: false };
    let mut best_adv = f64::NEG_INFINITY;
    for flip in [false, true] {
        for &threshold in &candidates {
            let rule = AttackRule { threshold, flip };
            let (tpr, fpr) = rule.rates(cal_in, cal_out);
            if tpr - fpr > best_adv {
                best_adv = tpr - fpr;
                best = rule;
            }
        }
    }
    best
}

/// Runs the full membership-inference audit for one fitter at one budget.
///
/// `fitter(data, seed)` must return the released model plus the budget it
/// actually spent; it is called twice per repetition (include/exclude world,
/// same seed) plus once for the utility measurement.
///
/// # Errors
/// Propagates the first fitter/scorer [`AuditError`].
///
/// # Panics
/// Panics if `cfg.reps` is odd or below 4.
pub fn run_audit<F>(
    label: &str,
    epsilon: f64,
    fitter: F,
    base: &Dataset,
    cfg: &AuditConfig,
) -> Result<AuditOutcome, AuditError>
where
    F: Fn(&Dataset, u64) -> Result<(ReleasedModel, f64), AuditError> + Sync,
{
    assert!(cfg.reps >= 4 && cfg.reps.is_multiple_of(2), "audit reps must be even and ≥ 4");
    let worlds = neighbor_worlds(base);
    let scores = per_rep(cfg.reps, cfg.base_seed, |seed| {
        let (model_in, _) = fitter(&worlds.include, seed)?;
        let (model_out, _) = fitter(&worlds.exclude, seed)?;
        Ok((
            log_model_prob(&model_in, &worlds.target)?,
            log_model_prob(&model_out, &worlds.target)?,
        ))
    })
    .into_iter()
    .collect::<Result<Vec<_>, AuditError>>()?;

    let m = cfg.eval_reps();
    let (cal, eval) = scores.split_at(cfg.reps - m);
    let cal_in: Vec<f64> = cal.iter().map(|s| s.0).collect();
    let cal_out: Vec<f64> = cal.iter().map(|s| s.1).collect();
    let eval_in: Vec<f64> = eval.iter().map(|s| s.0).collect();
    let eval_out: Vec<f64> = eval.iter().map(|s| s.1).collect();
    let rule = calibrate_rule(&cal_in, &cal_out);
    let (tpr, fpr) = rule.rates(&eval_in, &eval_out);

    // Utility of the same configuration, measured once on the exclude world
    // at the first repetition seed.
    let (utility_model, epsilon_spent) = fitter(&worlds.exclude, rep_seed(cfg.base_seed, 0))?;
    let synthetic = utility_model
        .sample(base.n(), &mut sample_rng(cfg.base_seed))
        .map_err(|e| AuditError(e.to_string()))?;
    let avg_tvd_alpha2 = average_workload_tvd(base, &synthetic, 2);

    Ok(AuditOutcome {
        method: label.to_string(),
        epsilon,
        epsilon_spent,
        advantage: tpr - fpr,
        tpr,
        fpr,
        bound: advantage_bound(epsilon_spent),
        slack: hoeffding_slack(m, cfg.delta),
        eval_reps: m,
        avg_tvd_alpha2,
    })
}

fn sample_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng as _;
    rand::rngs::StdRng::seed_from_u64(seed ^ 0x5AD0_11CE)
}

/// Audits one [`Method`] of the synthesis layer at one requested budget
/// via [`fit_method`].
///
/// Fits run single-threaded (the repetitions already fan out across cores);
/// `uniform` is fitted with a placeholder ε = 1 — its recorded spend stays
/// 0, so its bound is 0 too.
///
/// # Errors
/// Propagates fit/scoring failures as [`AuditError`].
pub fn audit_method(
    method: Method,
    base: &Dataset,
    epsilon: f64,
    settings: &FitSettings,
    cfg: &AuditConfig,
) -> Result<AuditOutcome, AuditError> {
    let fit_eps = if method.spends_budget() { epsilon } else { 1.0 };
    let settings = FitSettings { threads: Some(1), ..settings.clone() };
    run_audit(
        method.name(),
        epsilon,
        |data, seed| {
            let fitted = fit_method(method, data, fit_eps, seed, &settings)
                .map_err(|e| AuditError(format!("{method} fit: {e}")))?;
            Ok((fitted.artifact, fitted.epsilon_spent))
        },
        base,
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use privbayes::inference::{theta_projection, DEFAULT_CELL_CAP};
    use privbayes_data::{Attribute, Schema};
    use privbayes_datasets::GroundTruthNetwork;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_data(n: usize) -> Dataset {
        let schema =
            Schema::new((0..4).map(|i| Attribute::binary(format!("x{i}"))).collect::<Vec<_>>())
                .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let net = GroundTruthNetwork::random(&schema, 2, 0.6, &mut rng);
        net.sample(n, &mut rng)
    }

    #[test]
    fn bound_matches_randomised_response_algebra() {
        assert!(advantage_bound(0.0).abs() < 1e-15);
        let b = advantage_bound(1.0);
        assert!((b - (1.0f64.exp() - 1.0) / (1.0f64.exp() + 1.0)).abs() < 1e-15);
        assert!(advantage_bound(8.0) > 0.99 && advantage_bound(8.0) < 1.0);
    }

    #[test]
    fn slack_shrinks_with_reps_and_grows_with_confidence() {
        assert!(hoeffding_slack(20, 1e-2) > hoeffding_slack(80, 1e-2));
        assert!(hoeffding_slack(20, 1e-4) > hoeffding_slack(20, 1e-2));
    }

    #[test]
    fn vacuous_flips_exactly_at_gating_reps() {
        let point = |epsilon: f64, reps: usize| AuditOutcome {
            method: "privbayes".into(),
            epsilon,
            epsilon_spent: epsilon,
            advantage: 0.0,
            tpr: 0.0,
            fpr: 0.0,
            bound: advantage_bound(epsilon),
            slack: hoeffding_slack(reps / 2, 1e-2),
            eval_reps: reps / 2,
            avg_tvd_alpha2: 0.0,
        };
        for (epsilon, needed) in [(0.0, 24), (0.1, 28), (1.0, 84), (1.6, 214)] {
            assert_eq!(gating_reps(advantage_bound(epsilon), 1e-2), Some(needed), "ε = {epsilon}");
            assert!(point(epsilon, needed - 2).vacuous(), "ε = {epsilon} at {} reps", needed - 2);
            assert!(!point(epsilon, needed).vacuous(), "ε = {epsilon} at {needed} reps");
        }
        // A vacuous point passes whatever is measured.
        let mut saturated = point(1.0, 82);
        saturated.advantage = 1.0;
        assert!(saturated.passes_gate());
        assert_eq!(vacuous_verdict(advantage_bound(1.0), 1e-2), "vacuous (needs ≥ 84 reps)");
        assert_eq!(vacuous_verdict(1.0, 1e-2), "vacuous (no rep count can gate it)");
    }

    #[test]
    fn worlds_differ_in_exactly_the_target_row() {
        let base = small_data(200);
        let worlds = neighbor_worlds(&base);
        assert_eq!(worlds.include.row(0), worlds.target);
        assert_eq!(worlds.exclude.row(0), base.row(0));
        for r in 1..base.n() {
            assert_eq!(worlds.include.row(r), worlds.exclude.row(r), "row {r}");
        }
    }

    #[test]
    fn scorer_paths_agree_on_a_small_domain() {
        // The floored conditional product must equal the log of the tuple's
        // cell in the θ-projection joint over every attribute.
        let base = small_data(300);
        let fitted = fit_method(
            Method::PrivBayes,
            &base,
            2.0,
            9,
            &FitSettings { threads: Some(1), ..FitSettings::default() },
        )
        .unwrap();
        let model = &fitted.artifact;
        let row = base.row(3);
        let attrs: Vec<usize> = (0..model.schema.len()).collect();
        let joint =
            theta_projection(&model.model, &model.schema, &attrs, DEFAULT_CELL_CAP).unwrap();
        let coords: Vec<usize> = row.iter().map(|&v| v as usize).collect();
        let cell = joint.get(&coords);
        assert!(cell > 0.0, "the tuple's θ cell is {cell}");
        let via_theta = cell.ln();
        let via_product = log_model_prob(model, &row).unwrap();
        assert!(
            (via_theta - via_product).abs() < 1e-9,
            "θ-projection {via_theta} vs conditional product {via_product}"
        );
    }

    #[test]
    fn calibration_finds_a_separating_rule_in_either_direction() {
        let rule = calibrate_rule(&[1.0, 1.2, 1.1], &[0.0, 0.1, 0.2]);
        let (tpr, fpr) = rule.rates(&[1.05, 1.3], &[0.05, 0.15]);
        assert_eq!((tpr, fpr), (1.0, 0.0));
        // Inverted separation: members score *lower*.
        let rule = calibrate_rule(&[0.0, 0.1], &[1.0, 1.1]);
        let (tpr, fpr) = rule.rates(&[0.05], &[1.05]);
        assert_eq!((tpr, fpr), (1.0, 0.0));
    }

    #[test]
    fn uniform_audit_is_an_exact_null() {
        // `uniform` never reads the data, so with shared per-rep seeds both
        // worlds produce identical models and the attack has zero signal.
        let base = small_data(150);
        let cfg = AuditConfig { reps: 8, ..AuditConfig::default() };
        let out = audit_method(Method::Uniform, &base, 1.0, &FitSettings::default(), &cfg).unwrap();
        assert_eq!(out.epsilon_spent, 0.0);
        assert_eq!(out.bound, 0.0);
        assert!(out.advantage.abs() < 1e-12, "advantage {}", out.advantage);
        assert!(out.passes_gate());
    }
}
