//! Differential fuzz: the shipped clock-offset vote kernel
//! (`rtbh_stats::offset::OffsetVotes`, and `rtbh_core::align` on top of
//! it) against the naive grid scan kept in `rtbh_testkit::offset`.
//!
//! The whole `OffsetScan` must match, curve floats and argmax included,
//! with the samples split over 1, 2 and 7 vote shards. Cases fuzz the
//! shapes where a difference-array off-by-one would hide: touching
//! intervals, interval edges exactly on grid points, `H = 0`, steps that do
//! not divide `2H`, negative timestamps, samples with no intervals and
//! open-ended intervals. A third target votes timestamps at the ends of
//! `i64` and only asks that the kernel never panics (tier-1 runs it in a
//! debug build, where overflow would).

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use rtbh_bgp::{blackhole_intervals, BgpUpdate, UpdateKind, UpdateLog};
use rtbh_core::align::estimate_offset_with_workers;
use rtbh_core::shard::chunk_bounds;
use rtbh_fabric::FlowLog;
use rtbh_net::{Asn, Community, Interval, MacAddr, Prefix, PrefixTrie, TimeDelta, Timestamp};
use rtbh_rng::{ChaChaRng, Rng};
use rtbh_stats::offset::{OffsetScan, OffsetVotes};
use rtbh_testkit::offset::{offset_scan, ExplainableSample};
use rtbh_testkit::{gen, FuzzTarget};

const WORKERS: [usize; 3] = [1, 2, 7];

fn iv(start: i64, end: i64) -> Interval {
    Interval::new(Timestamp::from_millis(start), Timestamp::from_millis(end))
}

/// A grid `(half_range, step)`: `H = 0` and steps that do not divide `2H`
/// come up often.
fn arb_grid(rng: &mut ChaChaRng) -> (i64, i64) {
    let half_range = if rng.gen_bool(0.15) {
        0
    } else {
        rng.gen_range(0..=300i64)
    };
    (half_range, rng.gen_range(1..=40i64))
}

/// Sorted, disjoint intervals from `base` on: random gaps or touching
/// neighbours, and sometimes an open-ended last interval. Arithmetic
/// saturates, so `base` may sit at either end of `i64`.
fn arb_intervals(rng: &mut ChaChaRng, base: i64) -> Vec<Interval> {
    let n = rng.gen_range(0..=6usize);
    let mut cursor = base;
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        if k == 0 || rng.gen_bool(0.7) {
            cursor = cursor.saturating_add(rng.gen_range(1..=400));
        }
        let end = if k + 1 == n && rng.gen_bool(0.2) {
            i64::MAX
        } else {
            cursor.saturating_add(rng.gen_range(1..=400))
        };
        out.push(iv(cursor, end));
        cursor = end;
    }
    out
}

/// The kernel over `samples` split into `workers` contiguous vote shards.
fn sharded_scan(
    samples: &[ExplainableSample<'_>],
    half_range: TimeDelta,
    step: TimeDelta,
    workers: usize,
) -> Option<OffsetScan> {
    let mut total = OffsetVotes::new(half_range, step)?;
    for (lo, hi) in chunk_bounds(samples.len(), workers) {
        let mut shard = OffsetVotes::new(half_range, step)?;
        for s in &samples[lo..hi] {
            shard.vote(s.at, s.intervals);
        }
        total.merge(&shard);
    }
    total.scan(samples.len())
}

#[test]
fn vote_kernel_matches_grid_scan() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "offset_diff",
        test_name: "vote_kernel_matches_grid_scan",
        base_seed: seeds::FUZZ_OFFSET_DIFF,
    };
    target.run(500, |_, rng| {
        let (h, s) = arb_grid(rng);
        let sets: Vec<Vec<Interval>> = (0..rng.gen_range(1..=4usize))
            .map(|_| {
                let base = rng.gen_range(-5_000..=5_000i64);
                arb_intervals(rng, base)
            })
            .collect();
        let mut samples = Vec::new();
        for _ in 0..rng.gen_range(0..=40usize) {
            let set = &sets[rng.gen_range(0..sets.len())];
            let intervals: &[Interval] = if rng.gen_bool(0.15) { &[] } else { set };
            let edges: Vec<i64> = intervals
                .iter()
                .flat_map(|iv| [iv.start.as_millis(), iv.end.as_millis()])
                .filter(|&e| e != i64::MAX)
                .collect();
            let at = if !edges.is_empty() && rng.gen_bool(0.5) {
                // Shift an interval edge onto a grid point.
                let edge = edges[rng.gen_range(0..edges.len())];
                edge + h - rng.gen_range(0..=2 * h / s) * s
            } else {
                rng.gen_range(-6_000..=9_000i64)
            };
            samples.push(ExplainableSample {
                at: Timestamp::from_millis(at),
                intervals,
            });
        }
        let (half_range, step) = (TimeDelta::millis(h), TimeDelta::millis(s));
        let oracle = offset_scan(&samples, half_range, step);
        for workers in WORKERS {
            assert_eq!(
                sharded_scan(&samples, half_range, step, workers),
                oracle,
                "{workers} vote shards diverged from the grid scan"
            );
        }
    });
}

#[test]
fn alignment_matches_grid_scan() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "offset_diff",
        test_name: "alignment_matches_grid_scan",
        base_seed: seeds::FUZZ_OFFSET_ALIGN,
    };
    target.run(300, |_, rng| {
        // Nested prefixes so longest-prefix matching picks between them.
        let wide = Prefix::new(gen::arb_addr(rng), 16).expect("valid length");
        let prefixes = [
            wide,
            Prefix::new(wide.addr_at(rng.gen_range(0..65_536u64)), 24).expect("valid length"),
            Prefix::host(wide.addr_at(rng.gen_range(0..65_536u64))),
            Prefix::new(gen::arb_addr(rng), 20).expect("valid length"),
        ];
        let updates: Vec<BgpUpdate> = (0..rng.gen_range(0..=30usize))
            .map(|_| {
                let announce = rng.gen_bool(0.6);
                BgpUpdate {
                    // Coarse times so same-millisecond updates are common.
                    at: Timestamp::from_millis(rng.gen_range(-40..=400i64) * 50),
                    peer: Asn(1),
                    prefix: prefixes[rng.gen_range(0..prefixes.len())],
                    origin: Asn(2),
                    kind: if announce {
                        UpdateKind::Announce
                    } else {
                        UpdateKind::Withdraw
                    },
                    communities: if announce && rng.gen_bool(0.1) {
                        Vec::new()
                    } else {
                        vec![Community::BLACKHOLE]
                    },
                    next_hop: gen::arb_addr(rng),
                }
            })
            .collect();
        let log = UpdateLog::from_updates(updates);
        let corpus_end = Timestamp::from_millis(rng.gen_range(-2_000..=25_000i64));
        let flows = FlowLog::from_samples(
            (0..rng.gen_range(0..=60usize))
                .map(|_| {
                    let mut s = gen::arb_flow_sample(rng);
                    s.at = Timestamp::from_millis(rng.gen_range(-3_000..=24_000i64));
                    if rng.gen_bool(0.8) {
                        s.dst_mac = MacAddr::BLACKHOLE;
                    }
                    if rng.gen_bool(0.8) {
                        let p = prefixes[rng.gen_range(0..prefixes.len())];
                        s.dst_ip = p.addr_at(rng.gen_range(0..p.addr_count()));
                    }
                    s
                })
                .collect(),
        );
        let (h, s) = arb_grid(rng);
        let (half_range, step) = (TimeDelta::millis(h), TimeDelta::millis(s));

        let mut trie = PrefixTrie::new();
        for (prefix, ivs) in blackhole_intervals(log.updates().iter(), corpus_end) {
            trie.insert(prefix, ivs);
        }
        let samples: Vec<ExplainableSample<'_>> = flows
            .dropped()
            .map(|s| ExplainableSample {
                at: s.at,
                intervals: trie
                    .longest_match(s.dst_ip)
                    .map_or(&[][..], |(_, ivs)| ivs.as_slice()),
            })
            .collect();
        let oracle = offset_scan(&samples, half_range, step);
        for workers in WORKERS {
            let alignment =
                estimate_offset_with_workers(&log, &flows, corpus_end, half_range, step, workers);
            assert_eq!(
                alignment.as_ref().map(|a| &a.scan),
                oracle.as_ref(),
                "align at {workers} workers diverged from the grid scan"
            );
            if let Some(a) = alignment {
                assert_eq!(a.dropped_samples, samples.len());
            }
        }
    });
}

#[test]
fn extreme_timestamps_never_panic() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "offset_diff",
        test_name: "extreme_timestamps_never_panic",
        base_seed: seeds::FUZZ_OFFSET_EXTREME,
    };
    target.run(500, |_, rng| {
        let (h, s) = if rng.gen_bool(0.3) {
            let step = rng.gen_range(1..=1_000_000i64);
            (step * rng.gen_range(0..=2_000i64), step)
        } else {
            arb_grid(rng)
        };
        let near_max = i64::MAX - rng.gen_range(0..=2_000i64);
        let anywhere = rng.gen();
        let sets = [
            arb_intervals(rng, i64::MIN),
            arb_intervals(rng, near_max),
            vec![iv(i64::MIN, i64::MAX)],
            arb_intervals(rng, anywhere),
        ];
        let mut votes =
            OffsetVotes::new(TimeDelta::millis(h), TimeDelta::millis(s)).expect("valid grid");
        let mut shard = votes.clone();
        let n = rng.gen_range(1..=30usize);
        for _ in 0..n {
            let at = match rng.gen_range(0..4u8) {
                0 => i64::MIN.saturating_add(rng.gen_range(0..=3_000i64)),
                1 => i64::MAX.saturating_sub(rng.gen_range(0..=3_000i64)),
                2 => rng.gen_range(-3_000..=3_000i64),
                _ => rng.gen(),
            };
            shard.vote(
                Timestamp::from_millis(at),
                &sets[rng.gen_range(0..sets.len())],
            );
        }
        votes.merge(&shard);
        let scan = votes.scan(n).expect("samples offered");
        assert_eq!(scan.curve.len(), votes.offsets());
        assert!(scan.curve.iter().all(|p| (0.0..=1.0).contains(&p.overlap)));
    });
}
