//! Differential fuzz: the shipped sample-index build
//! (`SampleIndex::from_columns`, bucketing the prefix-id columns of the
//! enriched sealed chunks) against the per-sample LPM scan kept in
//! `rtbh_testkit::index`.
//!
//! Every blackholed prefix, every `towards` list and every `from` list
//! must match, at workers {1, 2, 7} × chunk capacities {64, 1024,
//! default}. Generated logs nest blackholed prefixes inside each other,
//! repeat announcements, mix in non-blackhole announcements and
//! withdrawals, and aim sample addresses inside the prefixes, so
//! longest-match ties and chunk seams come up often. A second target runs
//! simulated corpora.

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use std::collections::BTreeMap;

use rtbh_bgp::{BgpUpdate, UpdateLog};
use rtbh_core::columns::ColumnarFlows;
use rtbh_core::index::{MacResolver, OriginTable, SampleIndex};
use rtbh_fabric::FlowLog;
use rtbh_net::{Community, Prefix, Timestamp};
use rtbh_rng::{ChaChaRng, Rng};
use rtbh_sim::ScenarioConfig;
use rtbh_testkit::index::{scan_index, ScannedIndex};
use rtbh_testkit::{gen, FuzzTarget};

const WORKERS: [usize; 3] = [1, 2, 7];
/// `0` selects the ABI default capacity.
const CAPACITIES: [usize; 3] = [64, 1024, 0];
/// Generated timestamps stay below this, which doubles as the corpus end.
const SPAN_MS: i64 = 1_000_000;

/// Builds the index the way the pipeline does and checks it against the
/// oracle at every worker count and chunk capacity.
fn assert_matches_scan(
    updates: &UpdateLog,
    flows: &FlowLog,
    resolver: &MacResolver,
    origins: &OriginTable,
    corpus_end: Timestamp,
    oracle: &ScannedIndex,
) {
    for capacity in CAPACITIES {
        for workers in WORKERS {
            let enriched = ColumnarFlows::build_enriched_with_capacity(
                updates, flows, resolver, origins, corpus_end, workers, capacity,
            );
            let index = SampleIndex::from_columns(
                enriched.blackholes,
                enriched.blackhole_prefixes,
                &enriched.columns,
                workers,
            );
            let at = format!("capacity {capacity}, {workers} workers");
            assert_eq!(index.prefixes(), oracle.prefixes.as_slice(), "{at}");
            for (id, &prefix) in oracle.prefixes.iter().enumerate() {
                assert_eq!(index.prefix_id(prefix), Some(id), "{prefix}, {at}");
                assert_eq!(index.towards(id), oracle.towards[id], "{prefix}, {at}");
                assert_eq!(index.from(id), oracle.from[id], "{prefix}, {at}");
            }
        }
    }
}

fn arb_updates(rng: &mut ChaChaRng, pool: &[Prefix]) -> UpdateLog {
    let mut updates: Vec<BgpUpdate> = (0..rng.gen_range(0..=24usize))
        .map(|_| {
            let mut u = gen::arb_update(rng);
            u.at = Timestamp::from_millis(rng.gen_range(0..SPAN_MS));
            u.prefix = pool[rng.gen_range(0..pool.len())];
            if u.is_announce() && rng.gen_bool(0.7) && !u.is_blackhole() {
                u.communities.push(Community::BLACKHOLE);
            }
            u
        })
        .collect();
    updates.sort_by_key(|u| u.at);
    UpdateLog::from_updates(updates)
}

fn arb_flows(rng: &mut ChaChaRng, pool: &[Prefix]) -> FlowLog {
    let n = rng.gen_range(0..=600usize);
    FlowLog::from_samples(
        (0..n)
            .map(|_| {
                let mut s = gen::arb_flow_sample(rng);
                s.at = Timestamp::from_millis(rng.gen_range(0..SPAN_MS));
                s.dst_ip = gen::arb_addr_near(rng, pool);
                s.src_ip = gen::arb_addr_near(rng, pool);
                s
            })
            .collect(),
    )
}

#[test]
fn from_columns_matches_aos_scan() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "index_diff",
        test_name: "from_columns_matches_aos_scan",
        base_seed: seeds::FUZZ_INDEX_DIFF,
    };
    let resolver = MacResolver::from_map(BTreeMap::new());
    let origins = OriginTable::build(&[]);
    target.run(40, |_, rng| {
        let pool = gen::arb_nested_prefixes(rng);
        let updates = arb_updates(rng, &pool);
        let flows = arb_flows(rng, &pool);
        let oracle = scan_index(&updates, &flows);
        assert_matches_scan(
            &updates,
            &flows,
            &resolver,
            &origins,
            Timestamp::from_millis(SPAN_MS),
            &oracle,
        );
    });
}

#[test]
fn from_columns_matches_aos_scan_on_simulated_corpora() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "index_diff",
        test_name: "from_columns_matches_aos_scan_on_simulated_corpora",
        base_seed: seeds::FUZZ_INDEX_CORPUS,
    };
    // One case = one simulation plus nine index builds; keep it capped.
    target.run_capped(2, 4, |_, rng| {
        let mut config = ScenarioConfig::tiny();
        config.seed = rng.next_u64();
        let corpus = rtbh_sim::run(&config).corpus;
        let oracle = scan_index(&corpus.updates, &corpus.flows);
        assert!(
            oracle.towards.iter().any(|ids| !ids.is_empty()),
            "the corpus must send traffic towards blackholed prefixes"
        );
        assert_matches_scan(
            &corpus.updates,
            &corpus.flows,
            &MacResolver::build(&corpus),
            &OriginTable::build(&corpus.routes),
            corpus.period.end,
            &oracle,
        );
    });
}
