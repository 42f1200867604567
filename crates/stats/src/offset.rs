//! Maximum-likelihood estimation of the control/data-plane clock offset
//! (paper §3.1, Fig. 2).
//!
//! Both measurement pipelines at the IXP synchronise with NTP, but residual
//! skew between the BGP collector and the IPFIX exporters would smear any
//! time-series correlation. The paper estimates the offset by shifting the
//! data plane against the control plane and maximising the share of
//! *dropped-marked* packet samples that fall inside an interval in which a
//! blackhole covering their destination was actually announced. The maximum
//! overlap found was 99.36% at −0.04 s.
//!
//! [`OffsetVotes`] is the kernel: each sample, given the intervals that
//! would explain it, votes for every grid offset that moves it inside one
//! of them, as range updates to a difference array; one prefix sum yields
//! the curve. Vote arrays merge by integer addition, so batch alignment
//! shards samples over workers and the stream tracker votes one at a time.

use std::cmp::Reverse;

use rtbh_net::{Interval, TimeDelta, Timestamp};

/// One scanned candidate offset and its explained-sample share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffsetPoint {
    /// Candidate offset added to sample timestamps.
    pub offset: TimeDelta,
    /// Fraction of samples whose shifted timestamp falls inside one of its
    /// explaining intervals.
    pub overlap: f64,
}

rtbh_json::impl_json! { struct OffsetPoint { offset, overlap } }

/// The result of an offset scan: the full likelihood curve plus its argmax.
#[derive(Debug, Clone, PartialEq)]
pub struct OffsetScan {
    /// One point per scanned offset, in scan order.
    pub curve: Vec<OffsetPoint>,
    /// The point with maximal overlap. Ties go to the smallest |offset|,
    /// and between `-δ` and `+δ` to `+δ`.
    pub best: OffsetPoint,
}

rtbh_json::impl_json! { struct OffsetScan { curve, best } }

/// Per-offset vote counts over the grid `-H, -H + S, …, ≤ H`, kept as a
/// difference array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffsetVotes {
    half_range_ms: i64,
    step_ms: i64,
    /// `n + 1` counters for `n` grid offsets; the prefix sum up to index
    /// `i` is the vote count of grid offset `i`.
    diff: Vec<i64>,
}

impl OffsetVotes {
    /// An empty vote array over `[-half_range, +half_range]` in `step`
    /// increments. `None` when `step` is not positive or `half_range` is
    /// negative.
    pub fn new(half_range: TimeDelta, step: TimeDelta) -> Option<Self> {
        let (half_range_ms, step_ms) = (half_range.as_millis(), step.as_millis());
        if step_ms <= 0 || half_range_ms < 0 {
            return None;
        }
        let n = usize::try_from(i128::from(half_range_ms) * 2 / i128::from(step_ms)).ok()? + 1;
        Some(Self {
            half_range_ms,
            step_ms,
            diff: vec![0; n + 1],
        })
    }

    /// Number of grid offsets.
    pub fn offsets(&self) -> usize {
        self.diff.len() - 1
    }

    /// The grid offset at index `i`, in milliseconds (in i128, as `i * step`
    /// may exceed i64 even though the result never does).
    fn offset_ms(&self, i: usize) -> i64 {
        (i128::from(-self.half_range_ms) + i as i128 * i128::from(self.step_ms)) as i64
    }

    /// Votes for every grid offset δ that moves a sample captured at `at`
    /// inside one of `intervals`: δ ∈ `[a - at, b - at)` for each `[a, b)`.
    ///
    /// `intervals` must be sorted and pairwise disjoint (the per-prefix
    /// activity intervals from RIB reconstruction are), so one sample's
    /// vote ranges never overlap and it counts at most once per offset.
    /// Arithmetic saturates: timestamps at the ends of `i64` clamp to the
    /// grid edges instead of overflowing.
    pub fn vote(&mut self, at: Timestamp, intervals: &[Interval]) {
        debug_assert!(
            intervals.windows(2).all(|w| w[0].end <= w[1].start),
            "explaining intervals must be sorted and disjoint"
        );
        let (t, h, s) = (at.as_millis(), self.half_range_ms, self.step_ms);
        let n = self.offsets() as i64;
        // Grid index of the first offset ≥ `edge - t`: ceil((edge - t + H) / S).
        let index = |edge: Timestamp| {
            let x = edge.as_millis().saturating_sub(t).saturating_add(h);
            (x.div_euclid(s) + i64::from(x.rem_euclid(s) != 0)).clamp(0, n) as usize
        };
        let (reach_lo, reach_hi) = (t.saturating_sub(h), t.saturating_add(h));
        let first = intervals.partition_point(|iv| iv.end.as_millis() <= reach_lo);
        for iv in intervals[first..]
            .iter()
            .take_while(|iv| iv.start.as_millis() <= reach_hi)
        {
            let (lo, hi) = (index(iv.start), index(iv.end));
            if lo < hi {
                self.diff[lo] += 1;
                self.diff[hi] -= 1;
            }
        }
    }

    /// Adds `other`'s votes; both must cover the same grid.
    pub fn merge(&mut self, other: &Self) {
        assert!(
            (self.half_range_ms, self.step_ms) == (other.half_range_ms, other.step_ms),
            "merging vote arrays over different grids"
        );
        for (a, b) in self.diff.iter_mut().zip(&other.diff) {
            *a += b;
        }
    }

    /// The likelihood curve: each offset's votes divided by `samples`, the
    /// number of samples offered (including those that cast no vote), plus
    /// its argmax. `None` when `samples` is zero.
    pub fn scan(&self, samples: usize) -> Option<OffsetScan> {
        if samples == 0 {
            return None;
        }
        let mut acc = 0;
        let tally: Vec<i64> = self.diff[..self.offsets()]
            .iter()
            .map(|d| {
                acc += d;
                acc
            })
            .collect();
        // Most votes wins; ties go to the smallest |offset| (recorders are
        // NTP-synced, so near-zero skew is the sensible prior on a flat
        // plateau), then to `+δ` over `-δ`.
        let best = (0..tally.len()).max_by_key(|&i| {
            let o = self.offset_ms(i);
            (tally[i], Reverse(o.unsigned_abs()), o)
        })?;
        let curve: Vec<OffsetPoint> = tally
            .iter()
            .enumerate()
            .map(|(i, &votes)| OffsetPoint {
                offset: TimeDelta::millis(self.offset_ms(i)),
                overlap: votes as f64 / samples as f64,
            })
            .collect();
        Some(OffsetScan {
            best: curve[best],
            curve,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start_ms: i64, end_ms: i64) -> Interval {
        Interval::new(
            Timestamp::from_millis(start_ms),
            Timestamp::from_millis(end_ms),
        )
    }

    fn scan_of(samples: &[(i64, &[Interval])], half_range: i64, step: i64) -> Option<OffsetScan> {
        let mut votes = OffsetVotes::new(TimeDelta::millis(half_range), TimeDelta::millis(step))?;
        for &(at, intervals) in samples {
            votes.vote(Timestamp::from_millis(at), intervals);
        }
        votes.scan(samples.len())
    }

    /// A vote array whose tally is `counts`, over the grid `-H..=H` in
    /// 10 ms steps.
    fn with_tally(counts: &[i64]) -> OffsetVotes {
        let half_range = (counts.len() as i64 - 1) * 5;
        let mut votes = OffsetVotes::new(TimeDelta::millis(half_range), TimeDelta::millis(10))
            .expect("valid grid");
        assert_eq!(votes.offsets(), counts.len());
        let mut prev = 0;
        for (d, &c) in votes.diff.iter_mut().zip(counts) {
            *d = c - prev;
            prev = c;
        }
        votes
    }

    #[test]
    fn empty_inputs_give_none() {
        assert!(scan_of(&[], 1000, 10).is_none());
        let intervals = [iv(0, 100)];
        assert!(scan_of(&[(50, &intervals)], 1000, 0).is_none());
        assert!(scan_of(&[(50, &intervals)], -1, 10).is_none());
    }

    #[test]
    fn recovers_injected_offset() {
        // Ground truth: blackhole active [1000, 2000) and [5000, 9000).
        // Data plane clock runs 40 ms fast (samples stamped 40 ms early), so
        // shifting samples by +40 ms must maximise the overlap.
        let intervals = [iv(1000, 2000), iv(5000, 9000)];
        let true_offset = -40i64;
        let samples: Vec<(i64, &[Interval])> = (0..50)
            .map(|i| 1000 + i * 20) // true capture in [1000, 2000)
            .chain((0..200).map(|i| 5000 + i * 20)) // true capture in [5000, 9000)
            .chain([1999, 8999]) // edge samples pin the offset uniquely
            .map(|t| (t + true_offset, &intervals[..]))
            .collect();
        let scan = scan_of(&samples, 200, 10).unwrap();
        assert_eq!(scan.best.offset, TimeDelta::millis(40));
        assert!(scan.best.overlap > 0.99);
    }

    #[test]
    fn curve_covers_symmetric_grid() {
        let intervals = [iv(0, 1000)];
        let scan = scan_of(&[(500, &intervals)], 30, 10).unwrap();
        let offsets: Vec<i64> = scan.curve.iter().map(|p| p.offset.as_millis()).collect();
        assert_eq!(offsets, vec![-30, -20, -10, 0, 10, 20, 30]);
        // A step that does not divide 2H stops at the last offset ≤ H.
        let scan = scan_of(&[(500, &intervals)], 25, 10).unwrap();
        let offsets: Vec<i64> = scan.curve.iter().map(|p| p.offset.as_millis()).collect();
        assert_eq!(offsets, vec![-25, -15, -5, 5, 15, 25]);
    }

    #[test]
    fn unexplainable_samples_cap_overlap() {
        let intervals = [iv(0, 100)];
        let scan = scan_of(&[(50, &intervals), (50, &[])], 0, 1).unwrap();
        assert_eq!(scan.best.overlap, 0.5);
    }

    #[test]
    fn worker_count_does_not_change_the_scan() {
        let intervals = [iv(1000, 2000), iv(5000, 9000)];
        let times: Vec<i64> = (0..500).map(|i| 900 + i * 17).collect();
        let grid = (TimeDelta::millis(200), TimeDelta::millis(10));
        let mut whole = OffsetVotes::new(grid.0, grid.1).unwrap();
        for &t in &times {
            whole.vote(Timestamp::from_millis(t), &intervals);
        }
        for shards in [2, 3, 8, 64] {
            let mut merged = OffsetVotes::new(grid.0, grid.1).unwrap();
            for chunk in times.chunks(times.len().div_ceil(shards)) {
                let mut part = OffsetVotes::new(grid.0, grid.1).unwrap();
                for &t in chunk {
                    part.vote(Timestamp::from_millis(t), &intervals);
                }
                merged.merge(&part);
            }
            assert_eq!(merged.scan(times.len()), whole.scan(times.len()));
        }
    }

    #[test]
    fn binary_search_respects_half_open_bounds() {
        let intervals = [iv(100, 200)];
        for (t, inside) in [(99, false), (100, true), (199, true), (200, false)] {
            let scan = scan_of(&[(t, &intervals)], 0, 1).unwrap();
            assert_eq!(scan.best.overlap > 0.5, inside, "t={t}");
        }
    }

    #[test]
    fn plateau_ties_prefer_the_smallest_magnitude() {
        // Plateau over [-30, -10] ms on the grid -50..=50.
        let scan = with_tally(&[0, 0, 3, 3, 3, 0, 0, 0, 0, 0, 0])
            .scan(3)
            .unwrap();
        assert_eq!(scan.best.offset, TimeDelta::millis(-10));
        assert_eq!(scan.best.overlap, 1.0);
    }

    #[test]
    fn symmetric_plateau_picks_zero() {
        let scan = with_tally(&[0, 0, 0, 2, 2, 2, 2, 2, 0, 0, 0])
            .scan(2)
            .unwrap();
        assert_eq!(scan.best.offset, TimeDelta::ZERO);
    }

    #[test]
    fn plus_minus_tie_picks_the_positive_offset() {
        let scan = with_tally(&[0, 0, 0, 0, 4, 1, 4, 0, 0, 0, 0])
            .scan(4)
            .unwrap();
        assert_eq!(scan.best.offset, TimeDelta::millis(10));
    }

    #[test]
    fn extreme_timestamps_clamp_instead_of_overflowing() {
        let intervals = [iv(i64::MIN, i64::MIN + 5), iv(i64::MAX - 5, i64::MAX)];
        let mut votes = OffsetVotes::new(TimeDelta::millis(100), TimeDelta::millis(7)).unwrap();
        for at in [i64::MIN, i64::MIN + 3, -1, 0, i64::MAX - 3, i64::MAX] {
            votes.vote(Timestamp::from_millis(at), &intervals);
        }
        assert_eq!(votes.scan(6).unwrap().curve.len(), votes.offsets());
    }
}
