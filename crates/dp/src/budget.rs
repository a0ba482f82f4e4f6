//! Privacy-budget accounting via sequential composition.
//!
//! PrivBayes satisfies (ε₁+ε₂)-DP (Theorem 3.2); the split is governed by the
//! β parameter: ε₁ = βε, ε₂ = (1−β)ε (§3). [`PrivacyBudget`] enforces that no
//! pipeline spends more than its total, which the integration tests rely on to
//! check end-to-end accounting.

use crate::error::DpError;

/// Tracks spending of an ε-differential-privacy budget under sequential
/// composition.
#[derive(Debug, Clone, PartialEq)]
pub struct PrivacyBudget {
    total: f64,
    spent: f64,
}

impl PrivacyBudget {
    /// Creates a budget of `total` > 0.
    ///
    /// # Errors
    /// Returns [`DpError::InvalidParameter`] for non-positive or non-finite totals.
    pub fn new(total: f64) -> Result<Self, DpError> {
        if !total.is_finite() || total <= 0.0 {
            return Err(DpError::InvalidParameter(format!("budget must be positive, got {total}")));
        }
        Ok(Self { total, spent: 0.0 })
    }

    /// Total budget.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Budget spent so far.
    #[must_use]
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Budget remaining.
    #[must_use]
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// Checks whether `epsilon` could be consumed, without consuming it —
    /// the `try_spend` probe used by serving-layer ledgers to pre-validate a
    /// request before committing to it.
    ///
    /// Uses exactly the same tolerance rule as [`PrivacyBudget::consume`], so
    /// `check(ε).is_ok()` if and only if `consume(ε)` would succeed on the
    /// current state.
    ///
    /// # Errors
    /// Returns [`DpError::BudgetExhausted`] if `epsilon` exceeds the
    /// remaining budget, or [`DpError::InvalidParameter`] for non-positive
    /// requests.
    pub fn check(&self, epsilon: f64) -> Result<(), DpError> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(DpError::InvalidParameter(format!(
                "consumed epsilon must be positive, got {epsilon}"
            )));
        }
        let tolerance = 1e-9 * self.total;
        if epsilon > self.remaining() + tolerance {
            return Err(DpError::BudgetExhausted {
                requested: epsilon,
                remaining: self.remaining(),
            });
        }
        Ok(())
    }

    /// Consumes `epsilon` from the budget.
    ///
    /// # Errors
    /// Returns [`DpError::BudgetExhausted`] if `epsilon` exceeds the remaining
    /// budget (with a small tolerance for floating-point splits), or
    /// [`DpError::InvalidParameter`] for non-positive requests. On error the
    /// budget state is unchanged.
    pub fn consume(&mut self, epsilon: f64) -> Result<(), DpError> {
        self.check(epsilon)?;
        self.spent = (self.spent + epsilon).min(self.total);
        Ok(())
    }

    /// Returns `epsilon` to the budget (compensation for an operation that
    /// was charged but then failed before touching sensitive data). Never
    /// drives `spent` below zero; requests of garbage amounts are clamped
    /// rather than rejected because refunds run on error paths.
    pub fn refund(&mut self, epsilon: f64) {
        if epsilon.is_finite() && epsilon > 0.0 {
            self.spent = (self.spent - epsilon).max(0.0);
        }
    }

    /// Reconstructs a budget with `spent` of `total` already consumed — the
    /// restore half of ledger persistence ([`spent`] / [`total`] being the
    /// save half).
    ///
    /// # Errors
    /// Returns [`DpError::InvalidParameter`] if `total` is not a valid budget
    /// total, or `spent` is negative, non-finite, or exceeds `total`.
    ///
    /// [`spent`]: PrivacyBudget::spent
    /// [`total`]: PrivacyBudget::total
    pub fn with_spent(total: f64, spent: f64) -> Result<Self, DpError> {
        let mut budget = Self::new(total)?;
        if !spent.is_finite() || spent < 0.0 || spent > total {
            return Err(DpError::InvalidParameter(format!(
                "spent must lie in [0, {total}], got {spent}"
            )));
        }
        budget.spent = spent;
        Ok(budget)
    }
}

/// The β budget split of §3: ε₁ = βε for network learning, ε₂ = (1−β)ε for
/// distribution learning. The paper's default (justified in §6.4) is β = 0.3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetSplit {
    beta: f64,
}

impl BudgetSplit {
    /// The paper's default β = 0.3.
    pub const DEFAULT_BETA: f64 = 0.3;

    /// Creates a split with the given β ∈ (0, 1).
    ///
    /// # Errors
    /// Returns [`DpError::InvalidParameter`] if β ∉ (0, 1).
    pub fn new(beta: f64) -> Result<Self, DpError> {
        if !(beta > 0.0 && beta < 1.0) {
            return Err(DpError::InvalidParameter(format!("beta must lie in (0,1), got {beta}")));
        }
        Ok(Self { beta })
    }

    /// β itself.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Splits `epsilon` into (ε₁, ε₂).
    #[must_use]
    pub fn split(&self, epsilon: f64) -> (f64, f64) {
        (self.beta * epsilon, (1.0 - self.beta) * epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn consume_tracks_spending() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        b.consume(0.3).unwrap();
        b.consume(0.7).unwrap();
        assert!(b.remaining() < 1e-12);
        assert!(matches!(b.consume(0.1), Err(DpError::BudgetExhausted { .. })));
    }

    #[test]
    fn consume_rejects_nonpositive() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        assert!(b.consume(0.0).is_err());
        assert!(b.consume(-0.5).is_err());
        assert!(b.consume(f64::NAN).is_err());
    }

    #[test]
    fn check_matches_consume_without_mutating() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        b.consume(0.9).unwrap();
        let before = b.clone();
        assert!(b.check(0.1).is_ok(), "exactly the remaining budget is allowed");
        assert!(matches!(b.check(0.2), Err(DpError::BudgetExhausted { .. })));
        assert!(b.check(0.0).is_err());
        assert!(b.check(f64::NAN).is_err());
        assert_eq!(b, before, "check must not mutate");
        // A passing check is a guarantee that consume succeeds.
        b.consume(0.1).unwrap();
    }

    #[test]
    fn refund_restores_spent_and_clamps() {
        let mut b = PrivacyBudget::new(1.0).unwrap();
        b.consume(0.6).unwrap();
        b.refund(0.2);
        assert!((b.spent() - 0.4).abs() < 1e-12);
        b.refund(10.0); // clamps at zero
        assert_eq!(b.spent(), 0.0);
        b.refund(f64::NAN); // garbage is ignored
        assert_eq!(b.spent(), 0.0);
    }

    #[test]
    fn with_spent_round_trips() {
        let mut b = PrivacyBudget::new(2.5).unwrap();
        b.consume(1.0).unwrap();
        let restored = PrivacyBudget::with_spent(b.total(), b.spent()).unwrap();
        assert_eq!(restored, b);
        assert!(PrivacyBudget::with_spent(1.0, -0.1).is_err());
        assert!(PrivacyBudget::with_spent(1.0, 1.1).is_err());
        assert!(PrivacyBudget::with_spent(1.0, f64::NAN).is_err());
        assert!(PrivacyBudget::with_spent(0.0, 0.0).is_err(), "total still validated");
        // A fully spent budget is restorable.
        assert!(PrivacyBudget::with_spent(1.0, 1.0).is_ok());
    }

    #[test]
    fn new_rejects_bad_totals() {
        assert!(PrivacyBudget::new(0.0).is_err());
        assert!(PrivacyBudget::new(-1.0).is_err());
        assert!(PrivacyBudget::new(f64::INFINITY).is_err());
    }

    #[test]
    fn many_small_consumptions_allowed_up_to_total() {
        // d-1 exponential-mechanism invocations at ε₁/(d-1) each (§4.2).
        let mut b = PrivacyBudget::new(0.3).unwrap();
        let d = 23;
        for _ in 0..d - 1 {
            b.consume(0.3 / (d - 1) as f64).unwrap();
        }
        assert!(b.remaining() < 1e-9);
    }

    #[test]
    fn split_default_beta() {
        let s = BudgetSplit::new(BudgetSplit::DEFAULT_BETA).unwrap();
        let (e1, e2) = s.split(1.6);
        assert!((e1 - 0.48).abs() < 1e-12);
        assert!((e2 - 1.12).abs() < 1e-12);
    }

    #[test]
    fn split_rejects_degenerate_beta() {
        assert!(BudgetSplit::new(0.0).is_err());
        assert!(BudgetSplit::new(1.0).is_err());
        assert!(BudgetSplit::new(f64::NAN).is_err());
    }

    proptest! {
        /// ε₁ + ε₂ = ε exactly (up to float rounding), both positive.
        #[test]
        fn prop_split_sums(beta in 0.01f64..0.99, eps in 0.01f64..10.0) {
            let s = BudgetSplit::new(beta).unwrap();
            let (e1, e2) = s.split(eps);
            prop_assert!(e1 > 0.0 && e2 > 0.0);
            prop_assert!(((e1 + e2) - eps).abs() < 1e-12 * eps.max(1.0));
        }

        /// A budget never reports negative remaining.
        #[test]
        fn prop_budget_non_negative(steps in proptest::collection::vec(0.01f64..0.5, 1..20)) {
            let mut b = PrivacyBudget::new(1.0).unwrap();
            for s in steps {
                let _ = b.consume(s);
                prop_assert!(b.remaining() >= 0.0);
                prop_assert!(b.spent() <= b.total() + 1e-12);
            }
        }
    }
}
