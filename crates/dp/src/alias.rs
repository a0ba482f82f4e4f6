//! Walker/Vose alias tables: O(1) sampling from fixed discrete
//! distributions after O(k) preprocessing.
//!
//! [`crate::stats::sample_discrete`] walks the weight vector on every draw —
//! fine for one-off selections, but ancestral sampling draws from the *same*
//! conditional slices n times. An [`AliasSlices`] compiles every slice of a
//! conditional at once, turning each draw into one uniform variate, one
//! entry load and one select, independent of the domain size.
//!
//! # Layout
//!
//! A table holds any number of slices of `k` outcomes each, back to back in
//! one flat array of `(threshold, alias)` entries: slice `s` owns entries
//! `s·k..(s+1)·k`. A draw from slice `s` reads exactly one entry, so it costs
//! one dependent load after the slice index is known.
//!
//! # The draw
//!
//! `u = U·k` for a uniform `U ∈ [0, 1)` picks bucket `i = ⌊u⌋`; the
//! fraction `u − i` keeps `i` when it falls below the bucket's threshold and
//! takes the bucket's alias otherwise. That choice is a coin no branch
//! predictor can learn, so it is made with [`std::hint::select_unpredictable`]
//! (a conditional move) instead of an `if`: a mispredicted branch per drawn
//! cell cost more than the rest of the draw.
//!
//! # Degenerate slices
//!
//! A slice that is not a samplable distribution — a negative or non-finite
//! weight, or a total that is zero or overflows to infinity — compiles to a
//! marker: every entry holds threshold −1 and alias `u32::MAX`. No fraction
//! falls below −1, so a draw from the slice always selects the alias, and
//! `u32::MAX` is never an outcome (`k ≤ u32::MAX`), so the draw panics on it
//! having read nothing beyond the entry it loaded. Compilation therefore
//! tolerates slices a model never reaches, and drawing from one is a bug.
//!
//! # Why the thresholds stay `f64`
//!
//! The thresholds are the `f64` bucket masses of Vose's construction,
//! compared against the `f64` fraction of one `f64` variate. Every threshold
//! and alias, and so every drawn outcome for a given generator state, is
//! what a separately compiled single-distribution table gives. A `u32`
//! threshold compared against bits of one `next_u64` would move every drawn
//! value, and it measured no faster.

use std::hint::select_unpredictable;

use rand::{Rng, RngExt};

/// One bucket of a compiled slice.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    /// Acceptance threshold, premultiplied by the bucket count: bucket `i`
    /// keeps a draw `u ∈ [i, i+1)` iff `u − i < threshold`.
    threshold: f64,
    /// Redirect target.
    alias: u32,
}

/// Every entry of a degenerate slice: no fraction falls below the threshold,
/// and the alias is never an outcome.
const DEGENERATE: Entry = Entry { threshold: -1.0, alias: u32::MAX };

/// Discrete distributions over `k` outcomes each, compiled by Vose's alias
/// method into one flat array (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq)]
pub struct AliasSlices {
    /// Outcomes per slice.
    k: usize,
    /// `k` entries per slice, slice-major.
    entries: Vec<Entry>,
}

impl AliasSlices {
    /// Compiles one distribution from non-negative `weights` (need not be
    /// normalised).
    ///
    /// # Panics
    /// Panics if `weights` is empty, longer than `u32::MAX`, contains
    /// negatives/NaN/infinities, sums to 0 or sums past `f64::MAX` — the
    /// same contract as [`crate::stats::sample_discrete`].
    #[must_use]
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "no weights");
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "weights must be non-negative, got {w}");
        }
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights sum to zero");
        assert!(total.is_finite(), "weights sum overflows f64");
        Self::from_slices(weights, weights.len())
    }

    /// Compiles `weights` as consecutive slices of `k` non-negative weights
    /// each (need not be normalised). A slice that is not a samplable
    /// distribution becomes the degenerate marker: compilation accepts it,
    /// and a draw from it panics.
    ///
    /// # Panics
    /// Panics if `k` is 0 or above `u32::MAX`, or `weights.len()` is not a
    /// multiple of `k`.
    #[must_use]
    pub fn from_slices(weights: &[f64], k: usize) -> Self {
        assert!(k > 0, "no weights");
        assert!(u32::try_from(k).is_ok(), "too many weights");
        assert!(weights.len().is_multiple_of(k), "{} weights are not slices of {k}", weights.len());
        let mut entries = Vec::with_capacity(weights.len());
        // Vose's worklists, reused by every slice.
        let mut small: Vec<u32> = Vec::with_capacity(k);
        let mut large: Vec<u32> = Vec::with_capacity(k);
        for slice in weights.chunks_exact(k) {
            let total: f64 = slice.iter().sum();
            let samplable = slice.iter().all(|&w| w >= 0.0 && w.is_finite())
                && total > 0.0
                && total.is_finite();
            if !samplable {
                entries.extend(std::iter::repeat_n(DEGENERATE, k));
                continue;
            }
            let start = entries.len();
            // Scaled weights: mean 1. Buckets below 1 are "small" and get
            // topped up by an alias drawn from a "large" bucket.
            let scale = k as f64 / total;
            entries.extend(
                slice.iter().zip(0..).map(|(&w, i)| Entry { threshold: w * scale, alias: i }),
            );
            let buckets = &mut entries[start..];
            small.clear();
            large.clear();
            for (i, bucket) in buckets.iter().enumerate() {
                if bucket.threshold < 1.0 {
                    small.push(i as u32);
                } else {
                    large.push(i as u32);
                }
            }
            while let (Some(s), Some(&l)) = (small.pop(), large.last()) {
                buckets[s as usize].alias = l;
                // The large bucket donates the deficit of the small one.
                buckets[l as usize].threshold -= 1.0 - buckets[s as usize].threshold;
                if buckets[l as usize].threshold < 1.0 {
                    large.pop();
                    small.push(l);
                }
            }
            // Numerical residue: leftover buckets are exactly full.
            for &i in small.iter().chain(large.iter()) {
                buckets[i as usize].threshold = 1.0;
            }
        }
        Self { k, entries }
    }

    /// Draws one outcome of `slice`: a single uniform variate selects both
    /// the bucket and, without a branch, the bucket or its alias.
    ///
    /// # Panics
    /// Panics if `slice` is out of range or degenerate.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, slice: usize, rng: &mut R) -> usize {
        let k = self.k;
        let u = rng.random::<f64>() * k as f64;
        let i = (u as usize).min(k - 1);
        let entry = self.entries[slice * k + i];
        let drawn = select_unpredictable(u - (i as f64) < entry.threshold, i, entry.alias as usize);
        if drawn == DEGENERATE.alias as usize {
            degenerate();
        }
        drawn
    }
}

#[cold]
#[inline(never)]
fn degenerate() -> ! {
    panic!("sampled a degenerate conditional slice (invalid weights)")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::sample_discrete;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn frequencies<F: FnMut() -> usize>(k: usize, trials: usize, mut draw: F) -> Vec<f64> {
        let mut counts = vec![0usize; k];
        for _ in 0..trials {
            counts[draw()] += 1;
        }
        counts.into_iter().map(|c| c as f64 / trials as f64).collect()
    }

    #[test]
    fn matches_target_distribution() {
        let w = [1.0, 3.0, 6.0, 0.0, 10.0];
        let table = AliasSlices::new(&w);
        let mut rng = StdRng::seed_from_u64(1);
        let freq = frequencies(w.len(), 200_000, || table.sample(0, &mut rng));
        for (i, f) in freq.iter().enumerate() {
            let expected = w[i] / 20.0;
            assert!((f - expected).abs() < 0.01, "index {i}: {f} vs {expected}");
        }
    }

    #[test]
    fn matches_sample_discrete_statistically() {
        let w = [0.05, 0.2, 0.3, 0.45];
        let table = AliasSlices::new(&w);
        let mut rng_a = StdRng::seed_from_u64(2);
        let mut rng_b = StdRng::seed_from_u64(3);
        let fa = frequencies(w.len(), 100_000, || table.sample(0, &mut rng_a));
        let fb = frequencies(w.len(), 100_000, || sample_discrete(&w, &mut rng_b));
        for (i, (a, b)) in fa.iter().zip(&fb).enumerate() {
            assert!((a - b).abs() < 0.01, "index {i}: alias {a} vs scan {b}");
        }
    }

    #[test]
    fn zero_weights_never_sampled() {
        let table = AliasSlices::new(&[0.0, 1.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert_eq!(table.sample(0, &mut rng), 1);
        }
    }

    #[test]
    fn single_outcome() {
        let table = AliasSlices::new(&[0.7]);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!((table.k, table.entries.len()), (1, 1));
        for _ in 0..100 {
            assert_eq!(table.sample(0, &mut rng), 0);
        }
    }

    #[test]
    fn degenerate_near_one_hot() {
        // Tiny but non-zero mass must survive compilation.
        let w = [1e-12, 1.0];
        let table = AliasSlices::new(&w);
        let mut rng = StdRng::seed_from_u64(6);
        let freq = frequencies(2, 100_000, || table.sample(0, &mut rng));
        assert!(freq[1] > 0.999);
    }

    #[test]
    fn slices_compile_as_separate_tables() {
        // Every slice of a many-slice table holds exactly the entries of the
        // same weights compiled alone, degenerate slices included.
        let slices: [&[f64]; 5] = [
            &[0.05, 0.0, 0.25, 0.7],
            &[0.0; 4],
            &[0.25; 4],
            &[3.0, -1.0, 0.0, 1.0],
            &[9.0, 1.0, 1e-9, 0.5],
        ];
        let table = AliasSlices::from_slices(&slices.concat(), 4);
        assert_eq!((table.k, table.entries.len()), (4, 20));
        for (s, weights) in slices.iter().enumerate() {
            let alone = AliasSlices::from_slices(weights, 4);
            assert_eq!(table.entries[4 * s..4 * (s + 1)], alone.entries[..], "slice {s}");
        }
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1_000 {
            assert_ne!(table.sample(0, &mut rng), 1, "a zero weight is never drawn");
        }
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn rejects_all_zero() {
        let _ = AliasSlices::new(&[0.0, 0.0]);
    }

    #[test]
    fn from_slices_marks_exactly_what_new_panics_on() {
        let overflow = [f64::MAX, f64::MAX, 1.0];
        for degenerate in [&[0.0, 0.0][..], &[0.5, -0.1][..], &[f64::NAN][..], &overflow[..]] {
            let table = AliasSlices::from_slices(degenerate, degenerate.len());
            assert!(table.entries.iter().all(|&e| e == DEGENERATE), "{degenerate:?}");
            assert!(std::panic::catch_unwind(|| AliasSlices::new(degenerate)).is_err());
        }
        let table = AliasSlices::from_slices(&[0.3, 0.7], 2);
        assert!(table.entries.iter().all(|&e| e != DEGENERATE));
    }

    #[test]
    #[should_panic(expected = "degenerate conditional slice")]
    fn drawing_a_degenerate_slice_panics() {
        let table = AliasSlices::from_slices(&[0.5, 0.5, 0.0, 0.0], 2);
        let mut rng = StdRng::seed_from_u64(8);
        let _ = table.sample(0, &mut rng);
        let _ = table.sample(1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn rejects_weights_whose_sum_overflows() {
        // Weight 1 beside two of f64::MAX has mass ~3e-309, but the total is
        // +∞: scaled by k/∞ = 0, every bucket would be topped up to 1 and the
        // third outcome drawn a third of the time.
        let _ = AliasSlices::new(&[f64::MAX, f64::MAX, 1.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        let _ = AliasSlices::new(&[0.5, -0.1]);
    }

    #[test]
    #[should_panic(expected = "no weights")]
    fn rejects_empty() {
        let _ = AliasSlices::new(&[]);
    }
}
