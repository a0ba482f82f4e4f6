//! Experiment harness for the PrivBayes reproduction.
//!
//! One binary per figure/table of the paper's evaluation (§6) lives in
//! `src/bin/`; this library provides the shared machinery: CLI options,
//! result tables (console + CSV), seeded repetition, and task runners for
//! the two workload families (α-way marginal counts and multi-SVM
//! classification).
//!
//! Every binary accepts:
//!
//! * `--quick` — 1 repetition, quarter-size datasets, thinned ε grid;
//! * `--reps N` — repetitions per point (paper: 100; default here: 3);
//! * `--scale F` — dataset-size fraction (default 1.0);
//! * `--out DIR` — also write each table as CSV into DIR.

pub mod ablations;
pub mod audit;
pub mod cli;
pub mod figures;
pub mod reference;
pub mod table;
pub mod tasks;

pub use cli::HarnessConfig;
pub use table::ResultTable;

/// The paper's ε grid (§6.1).
pub const EPSILONS: [f64; 6] = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6];

/// The β grid of Figure 9.
pub const BETAS: [f64; 8] = [0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9];

/// The θ grid of Figure 10.
pub const THETAS: [f64; 8] = [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0];

/// Runs `f` for `reps` seeds in parallel and averages the results. The
/// mean is accumulated in repetition order, independent of the worker
/// count.
///
/// # Panics
/// Panics if `reps == 0` or a worker panics.
pub fn mean_over_reps<F>(reps: usize, base_seed: u64, f: F) -> f64
where
    F: Fn(u64) -> f64 + Sync,
{
    assert!(reps > 0, "need at least one repetition");
    per_rep(reps, base_seed, f).iter().sum::<f64>() / reps as f64
}

/// The seed of repetition `r`: a splitmix-style spread of the base seed.
pub(crate) fn rep_seed(base_seed: u64, r: usize) -> u64 {
    base_seed.wrapping_add(r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Runs `f` once per repetition seed and returns the results in
/// repetition order, whatever the worker count.
///
/// Workers are capped at [`std::thread::available_parallelism`], each
/// handles a contiguous block of repetitions, and results flow back through
/// the scoped-join return values, so no shared mutable state is needed.
///
/// # Panics
/// Panics if a worker panics.
pub(crate) fn per_rep<T, F>(reps: usize, base_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers =
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get).min(reps).max(1);
    let block = reps.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..reps)
            .step_by(block)
            .map(|start| {
                let f = &f;
                scope.spawn(move || {
                    (start..(start + block).min(reps))
                        .map(|r| f(rep_seed(base_seed, r)))
                        .collect::<Vec<T>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("repetition worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_over_reps_averages() {
        // Seeds differ, so feed back a deterministic function of the seed.
        let v = mean_over_reps(4, 0, |seed| (seed % 7) as f64);
        let expected: f64 =
            (0..4u64).map(|r| (r.wrapping_mul(0x9e37_79b9_7f4a_7c15) % 7) as f64).sum::<f64>()
                / 4.0;
        assert!((v - expected).abs() < 1e-12);
    }

    #[test]
    fn grids_match_paper() {
        assert_eq!(EPSILONS.len(), 6);
        assert_eq!(BETAS.len(), 8);
        assert_eq!(THETAS.len(), 8);
    }
}
