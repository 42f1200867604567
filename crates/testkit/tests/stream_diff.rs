//! Differential suite: the streaming analyzer versus the batch pipeline.
//!
//! The stream module's headline contract is byte-identity — replaying a
//! sealed corpus through `rtbh_core::stream` and finalizing must render
//! the exact `FullReport` bytes `Analyzer::full` produces. This suite
//! proves the contract three ways:
//!
//! * a **golden sweep** over the pinned golden scenario across chunk
//!   capacities {64, 1024, whole-corpus} × feed batch sizes {1, 7, 4096}
//!   × finalizer worker counts {1, 2, 7}, with ring retention alternating
//!   between unbounded and a bounded window (eviction of live state must
//!   never move report bytes);
//! * **fuzzed configs**: the same identity under randomized
//!   `AnalyzerConfig`s (merge deltas, EWMA windows, offset grids, chunk
//!   capacities) and randomized stream parameters;
//! * **bounded out-of-order feeds**: a feed shuffled within a displacement
//!   bound, consumed with a sufficient lateness allowance, must match the
//!   batch pipeline over the logs reconstructed from that arrival order —
//!   the reorder buffer must be a no-op in report space.
//!
//! Plus the journal half of the contract: the golden scenario's journal
//! matches a committed snapshot (`tests/golden/journal.jsonl`), every live
//! verdict agrees with the batch classification of the same event,
//! replaying the same feed yields an identical verdict journal (and the
//! journal is invariant across feed batch sizes), and recovery from a
//! truncated journal resumes without duplicate or missing verdicts.

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use rtbh_bgp::UpdateLog;
use rtbh_core::corpus::{Corpus, MemberInfo, Registry};
use rtbh_core::pipeline::AnalyzerConfig;
use rtbh_core::stream::{
    interleave, parse_journal, render_journal, Retention, StreamAnalyzer, StreamConfig,
    StreamDriver, StreamEvent,
};
use rtbh_core::Analyzer;
use rtbh_fabric::FlowLog;
use rtbh_net::{Asn, Interval, MacAddr, TimeDelta, Timestamp};
use rtbh_rng::{ChaChaRng, Rng};
use rtbh_sim::ScenarioConfig;
use rtbh_testkit::streamgen::{arb_feed, shuffle_bounded, FeedConfig, FeedItem};
use rtbh_testkit::{assert_snapshot, FuzzTarget};

use std::collections::BTreeMap;
use std::path::PathBuf;

/// The golden scenario (`golden.rs` pins its digest and report snapshot).
fn golden_corpus() -> Corpus {
    let mut config = ScenarioConfig::tiny();
    config.visible_attack_events = 20;
    rtbh_sim::run(&config).corpus
}

fn report_string(corpus: &Corpus, config: AnalyzerConfig) -> String {
    rtbh_json::to_string(&Analyzer::new(corpus.clone(), config).full())
}

#[test]
fn golden_sweep_stream_report_is_byte_identical_to_batch() {
    let corpus = golden_corpus();
    // Reports are byte-identical across worker counts (report_identity
    // pins that), so one batch reference serves the whole sweep.
    let reference = report_string(&corpus, AnalyzerConfig::for_corpus(&corpus));
    let mut combo = 0usize;
    for capacity in [64usize, 1024, 0] {
        for batch_size in [1usize, 7, 4096] {
            for workers in [1usize, 2, 7] {
                // Alternate retention across the sweep so both policies see
                // every capacity; eviction must never move report bytes.
                let retention = if combo % 2 == 0 {
                    Retention::Unbounded
                } else {
                    Retention::Window(TimeDelta::hours(6))
                };
                combo += 1;
                let mut analyzer = AnalyzerConfig::for_corpus(&corpus).with_workers(workers);
                analyzer.chunk_capacity = capacity;
                let config = StreamConfig {
                    analyzer,
                    lateness: TimeDelta::ZERO,
                    retention,
                };
                let run = StreamDriver::new(batch_size).replay(&corpus, config);
                assert_eq!(
                    rtbh_json::to_string(&run.report),
                    reference,
                    "stream diverged from batch at capacity={capacity} \
                     batch_size={batch_size} workers={workers} retention={retention:?}"
                );
            }
        }
    }
}

/// Randomized stage knobs, kept cheap per run (mirrors `report_identity`).
fn arb_analyzer_config(rng: &mut ChaChaRng, corpus: &Corpus) -> AnalyzerConfig {
    let mut config = AnalyzerConfig::for_corpus(corpus);
    config.merge_delta = TimeDelta::minutes(rng.gen_range(1..=30i64));
    config.preevent.slot = TimeDelta::minutes(rng.gen_range(2..=10i64));
    config.preevent.pre_window = TimeDelta::hours(rng.gen_range(12..=48i64));
    config.preevent.ewma.span = rng.gen_range(24..=288usize);
    config.preevent.ewma.threshold_sd = rng.gen_range(1.5..4.0f64);
    config.preevent.anomaly_horizon = TimeDelta::minutes(rng.gen_range(5..=30i64));
    config.preevent.min_anomalous_value = rng.gen_range(2.0..8.0f64);
    config.classify.squatting_min_duration = TimeDelta::days(rng.gen_range(1..=4i64));
    config.classify.zombie_min_duration = TimeDelta::days(rng.gen_range(1..=7i64));
    config.classify.zombie_max_packets = rng.gen_range(5..=20u64);
    config.offset_half_range = TimeDelta::seconds(rng.gen_range(1..=3i64));
    config.offset_step = TimeDelta::millis(rng.gen_range(20..=50i64));
    config.chunk_capacity = [0usize, 64, 1024, 4096][rng.gen_range(0..4usize)];
    config.workers = rng.gen_range(1..=4usize);
    config
}

#[test]
fn fuzzed_configs_stream_report_matches_batch() {
    let corpus = golden_corpus();
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "stream_diff",
        test_name: "fuzzed_configs_stream_report_matches_batch",
        base_seed: seeds::FUZZ_STREAM_DIFF,
    };
    // One case = a batch run + a stream replay (itself a batch run), so
    // the count stays small and capped even under RTBH_FUZZ_ITERS.
    target.run_capped(3, 10, |seed, rng| {
        let analyzer = arb_analyzer_config(rng, &corpus);
        let stream_config = StreamConfig {
            analyzer,
            lateness: TimeDelta::ZERO,
            retention: if rng.gen_bool(0.5) {
                Retention::Unbounded
            } else {
                Retention::Window(TimeDelta::hours(rng.gen_range(1..=24i64)))
            },
        };
        let batch_size = [1usize, 7, 64, 4096][rng.gen_range(0..4usize)];
        let run = StreamDriver::new(batch_size).replay(&corpus, stream_config);
        let reference = report_string(&corpus, analyzer);
        assert_eq!(
            rtbh_json::to_string(&run.report),
            reference,
            "stream diverged from batch under config seed {seed:#x}: \
             batch_size={batch_size} {stream_config:?}"
        );
    });
}

/// A corpus template whose static context matches `streamgen`'s domain
/// (member MACs 1..=8, the documentation ranges for addresses).
fn feed_template(minutes: i64) -> Corpus {
    Corpus {
        period: Interval::new(
            Timestamp::EPOCH,
            Timestamp::EPOCH + TimeDelta::minutes(minutes),
        ),
        sampling_rate: 10_000,
        route_server_asn: Asn(6695),
        updates: UpdateLog::new(),
        flows: FlowLog::new(),
        members: (1..=8u32)
            .map(|id| MemberInfo {
                asn: Asn(64500 + id),
                macs: vec![MacAddr::from_id(id)],
            })
            .collect(),
        registry: Registry::new(),
        internal_macs: vec![MacAddr::from_id(0xF00)],
        routes: vec![("198.51.100.0/24".parse().unwrap(), Asn(64501))],
        caches: Default::default(),
    }
}

fn to_event(item: &FeedItem) -> StreamEvent {
    match item {
        FeedItem::Update(u) => StreamEvent::Update(u.clone()),
        FeedItem::Sample(s) => StreamEvent::Sample(*s),
    }
}

/// Builds the batch corpus a collector would have written had it received
/// `feed` in this arrival order: each log stably sorted by timestamp, ties
/// kept in arrival order — exactly the order the reorder buffer applies.
fn corpus_from_feed(template: &Corpus, feed: &[FeedItem]) -> Corpus {
    let updates = feed.iter().filter_map(|i| match i {
        FeedItem::Update(u) => Some(u.clone()),
        FeedItem::Sample(_) => None,
    });
    let samples = feed.iter().filter_map(|i| match i {
        FeedItem::Sample(s) => Some(*s),
        FeedItem::Update(_) => None,
    });
    Corpus {
        updates: UpdateLog::from_updates(updates.collect()),
        flows: FlowLog::from_samples(samples.collect()),
        caches: Default::default(),
        ..template.clone()
    }
}

/// The lateness a feed actually needs: the largest amount any event lags
/// behind the running timestamp maximum, plus one millisecond (the
/// watermark drops events *strictly* behind it).
fn required_lateness(feed: &[FeedItem]) -> TimeDelta {
    let mut max_seen = i64::MIN;
    let mut worst = 0i64;
    for item in feed {
        let at = item.at().as_millis();
        if at < max_seen {
            worst = worst.max(max_seen - at);
        }
        max_seen = max_seen.max(at);
    }
    TimeDelta::millis(worst + 1)
}

#[test]
fn bounded_out_of_order_feeds_match_batch_with_sufficient_lateness() {
    let template = feed_template(FeedConfig::small().minutes);
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "stream_diff",
        test_name: "bounded_out_of_order_feeds_match_batch_with_sufficient_lateness",
        base_seed: seeds::FUZZ_STREAM_FEEDS,
    };
    target.run_capped(4, 16, |seed, rng| {
        let feed = arb_feed(rng, FeedConfig::small());
        let displacement = rng.gen_range(0..=25usize);
        let shuffled = shuffle_bounded(rng, &feed, displacement);
        let lateness = required_lateness(&shuffled);
        let mut analyzer = AnalyzerConfig::for_corpus(&template).with_workers(1);
        analyzer.chunk_capacity = [0usize, 64][rng.gen_range(0..2usize)];
        let config = StreamConfig {
            analyzer,
            lateness,
            retention: Retention::Unbounded,
        };
        let mut stream = StreamAnalyzer::new(&template, config);
        stream.push_batch(shuffled.iter().map(to_event));
        stream.finish();
        assert_eq!(
            stream.status().late_dropped,
            0,
            "lateness {lateness:?} must cover displacement {displacement} \
             (seed {seed:#x})"
        );
        let streamed = rtbh_json::to_string(&stream.into_analyzer().full());
        // The batch pipeline over the logs as they arrived: stable sort by
        // timestamp = the reorder buffer's (at, kind, arrival) order.
        let batch = corpus_from_feed(&template, &shuffled);
        let reference = report_string(&batch, analyzer);
        assert_eq!(
            streamed, reference,
            "reorder buffer changed report bytes under seed {seed:#x} \
             (displacement {displacement}, lateness {lateness:?})"
        );
    });
}

#[test]
fn golden_journal_matches_snapshot() {
    let corpus = golden_corpus();
    let run = StreamDriver::new(4096).replay(&corpus, StreamConfig::for_corpus(&corpus));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/journal.jsonl");
    assert_snapshot(&path, &render_journal(&run.journal));
}

/// Live ≡ batch verdicts: on the golden scenario every journaled run is a
/// batch event with the same `(prefix, start)` key and the same use case.
/// At capacity 64 the ring holds many sealed chunks plus an open chunk, so
/// the anomaly backfill's header pruning is exercised.
#[test]
fn live_verdicts_agree_with_batch_classification() {
    let corpus = golden_corpus();
    for capacity in [64usize, 0] {
        let mut config = StreamConfig::for_corpus(&corpus);
        config.analyzer.chunk_capacity = capacity;
        let run = StreamDriver::new(4096).replay(&corpus, config);
        let batch: BTreeMap<_, _> = run
            .analyzer
            .events()
            .iter()
            .zip(&run.report.classification.per_event)
            .map(|(event, verdict)| {
                assert_eq!(event.id, verdict.event_id);
                ((event.prefix, event.start()), verdict.use_case)
            })
            .collect();
        assert!(
            !run.journal.is_empty(),
            "golden scenario must journal verdicts"
        );
        assert_eq!(
            run.journal.len(),
            batch.len(),
            "one live verdict per batch event at capacity {capacity}"
        );
        for v in &run.journal {
            let key = (v.prefix, v.start);
            assert_eq!(
                batch.get(&key),
                Some(&v.use_case),
                "live verdict {} for {} at {:?} disagrees with batch at capacity {capacity}",
                v.seq,
                v.prefix,
                v.start
            );
        }
    }
}

#[test]
fn journal_is_deterministic_and_batch_size_invariant() {
    let corpus = golden_corpus();
    let config = StreamConfig::for_corpus(&corpus);
    let reference = StreamDriver::new(1).replay(&corpus, config);
    assert!(
        !reference.journal.is_empty(),
        "golden scenario must journal verdicts"
    );
    for batch_size in [7usize, 4096] {
        let run = StreamDriver::new(batch_size).replay(&corpus, config);
        assert_eq!(
            render_journal(&run.journal),
            render_journal(&reference.journal),
            "journal must not depend on feed batch size ({batch_size})"
        );
    }
    // Record → render → parse → replay: the parsed journal round-trips and
    // a second replay reproduces it byte for byte.
    let text = render_journal(&reference.journal);
    let parsed = parse_journal(&text).expect("journal parses");
    assert_eq!(parsed, reference.journal);
}

#[test]
fn truncated_journal_recovery_resumes_without_gaps_or_duplicates() {
    let corpus = golden_corpus();
    let config = StreamConfig::for_corpus(&corpus);
    let feed: Vec<StreamEvent> = interleave(&corpus);
    let mut full = StreamAnalyzer::new(&corpus, config);
    full.push_batch(feed.iter().cloned());
    full.finish();
    let full_journal = full.journal().to_vec();
    assert!(full_journal.len() >= 3, "need several verdicts to truncate");

    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "stream_diff",
        test_name: "truncated_journal_recovery_resumes_without_gaps_or_duplicates",
        base_seed: seeds::FUZZ_STREAM_JOURNAL,
    };
    target.run_capped(4, 12, |seed, rng| {
        // Truncate the durable journal at a random byte offset: recovery
        // re-parses up to the last complete line…
        let text = render_journal(&full_journal);
        let cut = rng.gen_range(1..=text.len() as u64) as usize;
        let kept_text = &text[..cut];
        let last_newline = kept_text.rfind('\n').map_or(0, |i| i + 1);
        let kept = parse_journal(&kept_text[..last_newline]).expect("complete lines parse");
        assert_eq!(kept.as_slice(), &full_journal[..kept.len()]);
        // …then resumes the replay past the last durable seq.
        let mut resumed = StreamAnalyzer::new(&corpus, config);
        if let Some(last) = kept.last() {
            resumed.resume_from(last.seq);
        }
        resumed.push_batch(feed.iter().cloned());
        resumed.finish();
        let mut recovered = kept.clone();
        recovered.extend(resumed.journal().iter().cloned());
        assert_eq!(
            recovered, full_journal,
            "recovery at byte {cut} lost or duplicated verdicts (seed {seed:#x})"
        );
    });
}
