//! The benchmark's own arithmetic, free of I/O so the tests at the end of
//! this file pin every number a report is built from: order statistics, the
//! tail-percentile rule, the rate of a request mix, span self time and an
//! operation's unattributed remainder.

/// The percentiles the tail rule chooses from, ascending, in percent.
pub const LADDER: [usize; 5] = [50, 75, 90, 95, 99];

/// The percentile a gated time statistic takes when its samples mix the
/// host's two speeds. The host runs the same work at two speeds in stretches
/// of about a second, and the share of a run each speed gets varies, so a
/// median flips between them from run to run while the 90th percentile stays
/// in the slow speed (`NOTES.md`).
pub const SLOW_PERCENTILE: usize = 90;

/// 0-based nearest-rank index of percentile `p` among `n` sorted samples:
/// the smallest rank at or below which at least `p` percent of them lie.
fn rank(n: usize, p: usize) -> usize {
    (p * n).div_ceil(100).clamp(1, n) - 1
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Percentile `p` (in percent) of `values` by the nearest-rank rule.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: usize) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    sorted(values)[rank(values.len(), p)]
}

/// Median over `blocks` consecutive, equal blocks of `values` (in run order)
/// of each block's percentile `p`. Host contention that lasts a few seconds
/// lifts the high percentiles of the blocks it falls in; unless it covers
/// half of them, the median over blocks stays put. Trailing samples that do
/// not fill a block are left out.
///
/// # Panics
/// Panics when there are fewer samples than blocks.
pub fn block_percentile(values: &[f64], blocks: usize, p: usize) -> f64 {
    let len = values.len() / blocks.max(1);
    assert!(len > 0, "{} samples cannot fill {blocks} blocks", values.len());
    let per_block: Vec<f64> =
        values.chunks_exact(len).take(blocks).map(|block| percentile(block, p)).collect();
    median(&per_block)
}

/// The highest ladder percentile that leaves at least `beyond` of `n`
/// samples above it, or `None` when not even the median does.
pub fn tail_percentile(n: usize, beyond: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    LADDER.iter().rev().copied().find(|&p| n - 1 - rank(n, p) >= beyond)
}

/// Median: the middle sample, or the mean of the two middle ones.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Arithmetic mean.
///
/// # Panics
/// Panics on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Repeats of one fixed operation sequence, reduced position by position:
/// element `i` is `pick` over element `i` of every series. Positions beyond
/// the shortest series are dropped.
pub fn per_position(series: &[Vec<f64>], pick: fn(&[f64]) -> f64) -> Vec<f64> {
    let len = series.iter().map(Vec::len).min().unwrap_or(0);
    (0..len).map(|i| pick(&series.iter().map(|s| s[i]).collect::<Vec<_>>())).collect()
}

/// One operation kind's share of a request mix.
#[derive(Debug, Clone, Copy)]
pub struct MixPart {
    /// Rows one operation moves.
    pub rows: f64,
    /// Operations of this kind per round of the mix.
    pub per_round: f64,
    /// The kind's per-run time statistic, in milliseconds.
    pub ms: f64,
}

/// Rows per second of a mix: a round's rows over a round's time, so each
/// kind weighs by how often it runs and how long it takes.
pub fn mix_rows_per_s(parts: &[MixPart]) -> f64 {
    let rows: f64 = parts.iter().map(|p| p.rows * p.per_round).sum();
    let ms: f64 = parts.iter().map(|p| p.ms * p.per_round).sum();
    rows * 1e3 / ms
}

/// Length of the union of `intervals` clipped to `[start, end)`.
pub fn covered(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// A span's self time: its length minus the part its children cover.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    (span.1 - span.0) - covered(span.0, span.1, children)
}

/// The part of an operation's wall time no layer claims. Negative when the
/// layers claim more than the wall, e.g. when replayed work ran slower than
/// the served request.
pub fn unattributed(wall: f64, layers: &[f64]) -> f64 {
    wall - layers.iter().sum::<f64>()
}

/// How much slower the traced rounds of a run were than its untraced ones,
/// in percent of the untraced median; 0 when the run has only one kind.
/// Each round is `(traced, time)`.
pub fn overhead_pct(rounds: &[(bool, f64)]) -> f64 {
    let pick = |traced: bool| -> Vec<f64> {
        rounds.iter().filter(|r| r.0 == traced).map(|r| r.1).collect()
    };
    let (on, off) = (pick(true), pick(false));
    if on.is_empty() || off.is_empty() {
        return 0.0;
    }
    (median(&on) / median(&off) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 100.0);
        assert_eq!(percentile(&v, 95), 190.0);
        assert_eq!(percentile(&v, 99), 198.0);
        assert_eq!(percentile(&[7.0], 95), 7.0);
        let mut reversed = v.clone();
        reversed.reverse();
        assert_eq!(percentile(&reversed, 90), 180.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 200 samples: p95 sits at rank 190 with exactly ten above it.
        assert_eq!(tail_percentile(200, 10), Some(95));
        assert_eq!(tail_percentile(199, 10), Some(90));
        assert_eq!(tail_percentile(1000, 10), Some(99));
        assert_eq!(tail_percentile(100, 10), Some(90));
        assert_eq!(tail_percentile(20, 10), Some(50));
        assert_eq!(tail_percentile(19, 10), None);
        assert_eq!(tail_percentile(0, 10), None);
    }

    #[test]
    fn block_percentile_ignores_a_burst_in_one_block() {
        // Four blocks of 100 in run order; a burst makes the whole third
        // block slow, which moves its p90 but not the median over blocks.
        let steady: Vec<f64> = (1..=100).map(f64::from).collect();
        let burst: Vec<f64> = (1..=100).map(|v| f64::from(v) + 1000.0).collect();
        let run: Vec<f64> = [&steady[..], &steady, &burst, &steady].concat();
        assert_eq!(percentile(&run, 90), 1060.0);
        assert_eq!(block_percentile(&run, 4, 90), 90.0);
        // Blocks 80 and 85 at p90 give a median of their mean; the trailing
        // sample fills no block and is left out.
        let uneven: Vec<f64> = [vec![80.0; 10], vec![85.0; 10], vec![1e6]].concat();
        assert_eq!(block_percentile(&uneven, 2, 90), 82.5);
        // One block is the plain percentile.
        assert_eq!(block_percentile(&steady, 1, 90), percentile(&steady, 90));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        // The nearest-rank p50 is a sample; the median may lie between two.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50), 2.0);
    }

    #[test]
    fn repeats_reduce_position_by_position() {
        let cycles = vec![vec![5.0, 9.0, 30.0], vec![4.0, 12.0, 20.0], vec![6.0, 10.0]];
        assert_eq!(per_position(&cycles, median), vec![5.0, 10.0]);
        assert_eq!(per_position(&cycles, mean), vec![5.0, 31.0 / 3.0]);
        assert!(per_position(&[], median).is_empty());
    }

    #[test]
    fn mix_rate_weighs_kinds_by_their_time() {
        // Three 20,000-row streams at 25 ms and one 2,000-row cohort at
        // 40 ms: 62,000 rows in 115 ms.
        let rate = mix_rows_per_s(&[
            MixPart { rows: 20_000.0, per_round: 3.0, ms: 25.0 },
            MixPart { rows: 2_000.0, per_round: 1.0, ms: 40.0 },
        ]);
        assert!((rate - 62_000.0 / 0.115).abs() < 1e-6, "{rate}");
        // One kind reduces to rows over time.
        assert_eq!(mix_rows_per_s(&[MixPart { rows: 1_000.0, per_round: 1.0, ms: 10.0 }]), 1e5);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        // Overlapping children count once: [10, 40) and [50, 60).
        assert_eq!(self_time((0, 100), &[(10, 30), (20, 40), (50, 60)]), 60);
        // Children are clipped to the parent.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 30)]), 3);
        assert_eq!(covered(0, 10, &[(3, 3)]), 0);
    }

    #[test]
    fn remainder_is_wall_minus_layers() {
        assert_eq!(unattributed(30.0, &[10.0, 12.5, 5.0]), 2.5);
        assert_eq!(unattributed(10.0, &[6.0, 6.0]), -2.0);
    }

    #[test]
    fn overhead_compares_traced_with_untraced_medians() {
        let rounds = [(true, 110.0), (false, 100.0), (true, 130.0), (false, 100.0)];
        assert!((overhead_pct(&rounds) - 20.0).abs() < 1e-9);
        assert_eq!(overhead_pct(&[(false, 100.0)]), 0.0);
    }
}
