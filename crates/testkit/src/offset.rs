//! The naive clock-offset grid scan (paper §3.1, Fig. 2), kept as the
//! oracle for the shipped vote kernel, `rtbh_stats::offset::OffsetVotes`.
//!
//! For every grid offset it re-tests every sample with a binary search over
//! that sample's explaining intervals: O(grid × samples × log k), obviously
//! correct and far too slow to ship. The `offset_diff` suite holds the
//! kernel to this scan's curve and argmax.

use rtbh_net::{Interval, TimeDelta, Timestamp};
use rtbh_stats::offset::{OffsetPoint, OffsetScan};

/// A dropped-marked sample to be explained: its capture timestamp and the
/// control-plane intervals during which a blackhole covering its destination
/// was active, sorted by start and non-overlapping.
#[derive(Debug, Clone)]
pub struct ExplainableSample<'a> {
    /// Data-plane capture time.
    pub at: Timestamp,
    /// Sorted, disjoint control-plane intervals explaining the drop.
    pub intervals: &'a [Interval],
}

impl ExplainableSample<'_> {
    fn explained_with(&self, offset: TimeDelta) -> bool {
        let t = self.at + offset;
        // Binary search for the last interval starting at or before t.
        let idx = self.intervals.partition_point(|iv| iv.start <= t);
        idx > 0 && self.intervals[idx - 1].contains(t)
    }
}

/// Scans the grid `-half_range, -half_range + step, …, ≤ half_range` and
/// returns the likelihood curve and its maximum (ties: smallest |offset|,
/// then the later grid point, i.e. `+δ` over `-δ`).
///
/// Returns `None` when there are no samples, `step` is not positive or
/// `half_range` is negative.
pub fn offset_scan(
    samples: &[ExplainableSample<'_>],
    half_range: TimeDelta,
    step: TimeDelta,
) -> Option<OffsetScan> {
    if samples.is_empty() || step.as_millis() <= 0 || half_range.as_millis() < 0 {
        return None;
    }
    let mut curve = Vec::new();
    let mut offset = TimeDelta::millis(-half_range.as_millis());
    while offset.as_millis() <= half_range.as_millis() {
        let explained = samples.iter().filter(|s| s.explained_with(offset)).count();
        curve.push(OffsetPoint {
            offset,
            overlap: explained as f64 / samples.len() as f64,
        });
        offset += step;
    }
    // `max_by` keeps the last of equal maxima, which is `+δ` of a ±δ tie.
    let best = *curve.iter().max_by(|a, b| {
        a.overlap
            .partial_cmp(&b.overlap)
            .expect("overlap is finite")
            .then(b.offset.abs().as_millis().cmp(&a.offset.abs().as_millis()))
    })?;
    Some(OffsetScan { curve, best })
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

    #[test]
    fn oracle_respects_half_open_bounds_and_grid() {
        let intervals = [iv(100, 200)];
        let samples = [ExplainableSample {
            at: Timestamp::from_millis(95),
            intervals: &intervals,
        }];
        let scan = offset_scan(&samples, TimeDelta::millis(10), TimeDelta::millis(5)).unwrap();
        let explained: Vec<(i64, bool)> = scan
            .curve
            .iter()
            .map(|p| (p.offset.as_millis(), p.overlap == 1.0))
            .collect();
        assert_eq!(
            explained,
            vec![(-10, false), (-5, false), (0, false), (5, true), (10, true)]
        );
        assert_eq!(scan.best.offset, TimeDelta::millis(5));
        assert!(offset_scan(&[], TimeDelta::millis(10), TimeDelta::millis(5)).is_none());
    }
}
