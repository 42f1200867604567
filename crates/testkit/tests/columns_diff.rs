//! Differential fuzz for the sealed-chunk columnar store.
//!
//! Four suites pin the sealed-chunk ABI (`docs/CHUNK_ABI.md`) against
//! independent oracles:
//!
//! 1. **bitset columns vs the old flags byte**: on randomized simulated
//!    corpora, the per-flag bitset columns (fragment/dropped/active) must
//!    agree bit-for-bit with a per-sample recomputation of the packed
//!    flags byte the pre-seal layout stored — fragment and drop straight
//!    from the sample, activity via a from-scratch LPM walk plus interval
//!    binary search. The prefix that walk matches must be the one
//!    `active_prefix` reads through the destination's blackhole-prefix id.
//!    Whole-word popcounts must equal rowwise counts (the tail-bits-zero
//!    invariant).
//! 2. **nested prefixes**: the same oracle on generated logs of nested
//!    blackholed prefixes, where a more-specific announced and withdrawn
//!    in one millisecond holds only a degenerate interval and the
//!    activity prefix must fall through to a covering prefix.
//! 3. **gallop vs binary-search window joins**: `gallop_partition_point`
//!    must equal `partition_point` on randomized sorted id lists for
//!    every resume point and bound, including adversarial runs of equal
//!    ids and bounds outside the list.
//! 4. **chunk capacity identity**: full pipeline reports at chunk
//!    capacities 64, 1024 and whole-corpus must be byte-identical to the
//!    default-capacity reference at several worker counts — chunk
//!    boundaries must never move report bytes.

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use std::collections::BTreeMap;

use rtbh_bgp::{blackhole_intervals, UpdateLog};
use rtbh_core::columns::{gallop_partition_point, ColumnarFlows};
use rtbh_core::index::{MacResolver, OriginTable};
use rtbh_core::pipeline::AnalyzerConfig;
use rtbh_core::Analyzer;
use rtbh_fabric::{FlowLog, FlowSample};
use rtbh_net::{Community, FrozenLpm, Interval, Prefix, Timestamp};
use rtbh_rng::{ChaChaRng, Rng};
use rtbh_sim::ScenarioConfig;
use rtbh_testkit::{gen, FuzzTarget};

/// The pre-seal layout's packed flags byte, recomputed from scratch for
/// one sample: bit 0 fragment, bit 1 dropped, bit 2 active. Also returns
/// the interval-holding prefix the activity walk matched.
fn oracle_flags(s: &FlowSample, activity: &FrozenLpm<Vec<Interval>>) -> (u8, Option<Prefix>) {
    let mut flags = 0u8;
    if s.fragment {
        flags |= 1;
    }
    if s.is_dropped() {
        flags |= 2;
    }
    let matched = activity.longest_match(s.dst_ip);
    let active = matched.is_some_and(|(_, ivs)| {
        let idx = ivs.partition_point(|iv| iv.start <= s.at);
        idx > 0 && ivs[idx - 1].contains(s.at)
    });
    if active {
        flags |= 4;
    }
    (flags, matched.map(|(p, _)| p))
}

/// Builds the enriched store at `capacity` × `workers` and holds every
/// row to [`oracle_flags`], plus the word-level popcount contract.
fn assert_columns_match_oracle(
    updates: &UpdateLog,
    flows: &FlowLog,
    resolver: &MacResolver,
    origins: &OriginTable,
    corpus_end: Timestamp,
    capacity: usize,
    workers: usize,
) {
    let cols = ColumnarFlows::build_enriched_with_capacity(
        updates, flows, resolver, origins, corpus_end, workers, capacity,
    )
    .columns;
    let activity: FrozenLpm<Vec<Interval>> =
        FrozenLpm::from_entries(blackhole_intervals(updates.updates().iter(), corpus_end));
    let samples = flows.samples();
    assert_eq!(cols.len(), samples.len());
    for (i, s) in samples.iter().enumerate() {
        let (flags, matched) = oracle_flags(s, &activity);
        assert_eq!(cols.fragment(i), flags & 1 != 0, "fragment bit, sample {i}");
        assert_eq!(
            cols.is_dropped(i),
            flags & 2 != 0,
            "dropped bit, sample {i}"
        );
        let active_prefix = cols.active_prefix(i);
        assert_eq!(
            active_prefix.map(|(p, _)| p),
            matched,
            "activity prefix, sample {i}"
        );
        let active = active_prefix.is_some_and(|(_, a)| a);
        assert_eq!(active, flags & 4 != 0, "active bit, sample {i}");
    }
    // Word-level contract: whole-word popcounts equal rowwise counts,
    // which requires the tail bits of every last word to be zero.
    for c in cols.chunks() {
        for (words, rowwise) in [
            (
                c.fragment_words(),
                &(|r: usize| c.fragment(r)) as &dyn Fn(usize) -> bool,
            ),
            (c.dropped_words(), &|r: usize| c.dropped(r)),
            (c.active_words(), &|r: usize| c.active(r)),
        ] {
            let popcount: u32 = words.iter().map(|w| w.count_ones()).sum();
            let counted = (0..c.len()).filter(|&r| rowwise(r)).count() as u32;
            assert_eq!(
                popcount,
                counted,
                "popcount vs rowwise at chunk {}",
                c.start()
            );
        }
    }
}

#[test]
fn bitset_columns_match_recomputed_flags_byte() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "columns_diff",
        test_name: "bitset_columns_match_recomputed_flags_byte",
        base_seed: seeds::FUZZ_COLUMNS_BITSET,
    };
    target.run(8, |_seed, rng| {
        let mut config = ScenarioConfig::tiny();
        config.seed = rng.next_u64();
        let corpus = rtbh_sim::run(&config).corpus;
        let capacity = [0usize, 64, 256, 1024][rng.gen_range(0..4usize)];
        let workers = rng.gen_range(1..=4usize);
        assert_columns_match_oracle(
            &corpus.updates,
            &corpus.flows,
            &MacResolver::build(&corpus),
            &OriginTable::build(&corpus.routes),
            corpus.period.end,
            capacity,
            workers,
        );
    });
}

/// Generated timestamps stay below this, which doubles as the corpus end.
const SPAN_MS: i64 = 1_000_000;

/// Blackhole announcements of nested prefixes, each often followed by a
/// withdrawal — in the same millisecond a third of the time, leaving the
/// prefix only a degenerate interval so activity falls through to a
/// covering prefix.
fn arb_nested_updates(rng: &mut ChaChaRng, pool: &[Prefix]) -> UpdateLog {
    let mut updates = Vec::new();
    for _ in 0..rng.gen_range(0..=24usize) {
        let mut announce = gen::arb_announce(rng);
        announce.prefix = pool[rng.gen_range(0..pool.len())];
        announce.at = Timestamp::from_millis(rng.gen_range(0..SPAN_MS));
        if !announce.is_blackhole() && rng.gen_bool(0.8) {
            announce.communities.push(Community::BLACKHOLE);
        }
        if rng.gen_bool(0.6) {
            let mut withdraw = gen::arb_withdraw(rng);
            withdraw.prefix = announce.prefix;
            withdraw.at = if rng.gen_bool(0.33) {
                announce.at
            } else {
                Timestamp::from_millis(rng.gen_range(announce.at.as_millis()..SPAN_MS))
            };
            updates.push(announce);
            updates.push(withdraw);
        } else {
            updates.push(announce);
        }
    }
    // A stable sort keeps each same-millisecond withdrawal after its
    // announcement.
    UpdateLog::from_updates(updates)
}

#[test]
fn activity_prefix_matches_oracle_on_nested_prefixes() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "columns_diff",
        test_name: "activity_prefix_matches_oracle_on_nested_prefixes",
        base_seed: seeds::FUZZ_COLUMNS_NESTED,
    };
    let resolver = MacResolver::from_map(BTreeMap::new());
    let origins = OriginTable::build(&[]);
    target.run(60, |_, rng| {
        let pool = gen::arb_nested_prefixes(rng);
        let updates = arb_nested_updates(rng, &pool);
        let flows = FlowLog::from_samples(
            (0..rng.gen_range(0..=400usize))
                .map(|_| {
                    let mut s = gen::arb_flow_sample(rng);
                    s.at = Timestamp::from_millis(rng.gen_range(0..SPAN_MS));
                    s.dst_ip = gen::arb_addr_near(rng, &pool);
                    s
                })
                .collect(),
        );
        let capacity = [0usize, 64, 256][rng.gen_range(0..3usize)];
        let workers = rng.gen_range(1..=4usize);
        assert_columns_match_oracle(
            &updates,
            &flows,
            &resolver,
            &origins,
            Timestamp::from_millis(SPAN_MS),
            capacity,
            workers,
        );
    });
}

#[test]
fn gallop_join_matches_binary_search_join() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "columns_diff",
        test_name: "gallop_join_matches_binary_search_join",
        base_seed: seeds::FUZZ_COLUMNS_GALLOP,
    };
    target.run(200, |_seed, rng| {
        let n = rng.gen_range(0..400usize);
        // Mix of dense runs (repeat-heavy before dedup) and sparse ids.
        let spread = *[8u64, 100, 1 << 20].get(rng.gen_range(0..3usize)).unwrap();
        let mut ids: Vec<u32> = (0..n).map(|_| (rng.next_u64() % spread) as u32).collect();
        ids.sort_unstable();
        ids.dedup();
        for _ in 0..32 {
            let from = rng.gen_range(0..=ids.len());
            let bound = (rng.next_u64() % (spread + 2)) as u32;
            assert_eq!(
                gallop_partition_point(&ids, from, bound),
                from + ids[from..].partition_point(|&x| x < bound),
                "n {} from {from} bound {bound}",
                ids.len()
            );
        }
    });
}

#[test]
fn reports_identical_across_chunk_capacities() {
    let mut config = ScenarioConfig::tiny();
    config.visible_attack_events = 3;
    config.constant_events = 1;
    config.invisible_events = 1;
    let corpus = rtbh_sim::run(&config).corpus;
    let samples = corpus.flows.len();

    let base = AnalyzerConfig::for_corpus(&corpus);
    let reference = rtbh_json::to_string(&Analyzer::new(corpus.clone(), base).full());

    let whole_corpus = samples.next_power_of_two().max(64);
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "columns_diff",
        test_name: "reports_identical_across_chunk_capacities",
        base_seed: seeds::FUZZ_CHUNK_CAPACITY,
    };
    // One case = one full pipeline run; keep the count small and capped.
    let cases: Vec<(usize, usize)> = [64usize, 1024, whole_corpus]
        .iter()
        .flat_map(|&cap| [1usize, 2, 7].map(|w| (cap, w)))
        .collect();
    target.run_capped(cases.len() as u64, cases.len() as u64, |seed, rng| {
        let (capacity, workers) = cases[rng.gen_range(0..cases.len())];
        let mut config = base.with_workers(workers);
        config.chunk_capacity = capacity;
        let report = rtbh_json::to_string(&Analyzer::new(corpus.clone(), config).full());
        assert_eq!(
            report, reference,
            "report bytes moved at chunk capacity {capacity}, {workers} workers \
             (case seed {seed:#x})"
        );
    });
}
