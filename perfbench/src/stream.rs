//! `stream`: the `rtbh stream` path.
//!
//! Why it exists: it is the only workload where the reorder buffer and
//! the ring appends do real work, and where the columnar store is written
//! row by row and sealed instead of built in bulk; its finalization then
//! reruns the prepare kernels and stages, so a prepare change shows here
//! too. Layers loaded: `stream` (push, finish, into_analyzer), prepare
//! kernels (inside `into_analyzer`), analysis stages, serialization.
//!
//! The feed is the corpus's two logs interleaved by time, then shuffled:
//! each event arrives up to [`DISPLACEMENT_MS`] later than its timestamp
//! (a uniform delay), so no event lags the newest one seen by more than
//! that, and the lateness allowance covers it, so nothing may be dropped.
//! The bound is in time, not in positions, so the reorder buffer holds the
//! same span of events whatever the seed. Set-up (`setup_s`) is
//! `StreamAnalyzer::new`. Each measured pass pushes the whole feed in
//! [`BATCH`]-event batches through `finish` (ingest) and then finalizes:
//! `into_analyzer` → `full()` → `to_vec_pretty`; the two together are one
//! latency sample, so a change to either shows in `p50_ms`.
//! `peak_heap_mb` is the median over passes of the heap peak of a pass
//! above the bytes live when it starts (the benchmark's corpus, feed and
//! reference report): the pass's copy of the feed, the stream state, the
//! finalized analyzer and the report.

use std::time::Instant;

use rtbh::bgp::UpdateLog;
use rtbh::core::pipeline::{Analyzer, AnalyzerConfig};
use rtbh::core::stream::{interleave, Retention, StreamAnalyzer, StreamConfig, StreamEvent};
use rtbh::core::Corpus;
use rtbh::fabric::FlowLog;
use rtbh::net::TimeDelta;
use rtbh_rng::Rng;

use crate::{alloc, end_to_end, median, secs, Outcome, Params};

/// Largest delay between an event's timestamp and its arrival.
pub const DISPLACEMENT_MS: i64 = 300_000;
/// Set-ups per run; `StreamAnalyzer::new` is cheap, so many are timed
/// to steady the median.
const SETUPS: usize = 15;
/// Events per `push_batch` call (the `rtbh stream` default).
pub const BATCH: usize = 4096;

/// The shuffled feed, the stream configuration that covers its disorder
/// and the report bytes a batch analysis of the same arrivals produces.
pub struct Feed {
    /// Feed events, pre-split into push batches.
    pub batches: Vec<Vec<StreamEvent>>,
    /// Events in the feed.
    pub events: usize,
    /// Stream configuration (lateness covers the shuffle).
    pub config: StreamConfig,
    /// `to_vec_pretty` of the batch report over the arrival-order logs.
    pub reference: Vec<u8>,
}

/// Builds the seeded feed for `corpus` and its batch reference.
pub fn feed(p: &Params, corpus: &Corpus) -> Feed {
    let mut rng = p.rng(0x57AE);
    // Arrival order: timestamp plus a uniform delay, ties in time order.
    let mut keyed: Vec<(i64, StreamEvent)> = interleave(corpus)
        .into_iter()
        .map(|e| (e.at().as_millis() + rng.gen_range(0..=DISPLACEMENT_MS), e))
        .collect();
    keyed.sort_by_key(|(arrival, _)| *arrival);
    let shuffled: Vec<StreamEvent> = keyed.into_iter().map(|(_, e)| e).collect();
    // An event lags the newest one seen by at most DISPLACEMENT_MS; the
    // watermark drops events strictly behind it.
    let config = StreamConfig {
        analyzer: AnalyzerConfig::for_corpus(corpus),
        lateness: TimeDelta::millis(DISPLACEMENT_MS + 1),
        retention: Retention::Unbounded,
    };

    // The batch reference is the corpus a collector would have written
    // from these arrivals: each log stably sorted by time, ties in arrival
    // order, which is the order the reorder buffer applies them in.
    let mut updates = Vec::new();
    let mut samples = Vec::new();
    for e in &shuffled {
        match e {
            StreamEvent::Update(u) => updates.push(u.clone()),
            StreamEvent::Sample(s) => samples.push(*s),
        }
    }
    let arrival = Corpus {
        updates: UpdateLog::from_updates(updates),
        flows: FlowLog::from_samples(samples),
        caches: Default::default(),
        ..corpus.clone()
    };
    let reference =
        rtbh_json::to_vec_pretty(&Analyzer::new(arrival, config.analyzer).full_sequential());

    let events = shuffled.len();
    let batches = shuffled
        .chunks(BATCH)
        .map(<[StreamEvent]>::to_vec)
        .collect();
    Feed {
        batches,
        events,
        config,
        reference,
    }
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    out.param("scale", &p.scale);
    out.param("displacement_ms", DISPLACEMENT_MS);
    out.param("batch", BATCH);
    let corpus = rtbh::sim::run(&p.scenario).corpus;
    let feed = feed(p, &corpus);
    out.param("events", feed.events);
    out.param("lateness_ms", feed.config.lateness.as_millis());

    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let stream = StreamAnalyzer::new(&corpus, feed.config);
        setups.push(secs(t0));
        drop(stream);
    }

    let mut ingest = Vec::new();
    let mut finalize = Vec::new();
    let mut replay = Vec::new();
    let mut peaks = Vec::new();
    let start = Instant::now();
    while finalize.len() < 2 || secs(start) < p.seconds {
        let base = alloc::restart_high_water();
        let batches = feed.batches.clone();
        let mut stream = StreamAnalyzer::new(&corpus, feed.config);
        let t0 = Instant::now();
        for batch in batches {
            stream.push_batch(batch);
        }
        stream.finish();
        ingest.push(secs(t0));
        let late = stream.status().late_dropped;

        let t0 = Instant::now();
        let analyzer = stream.into_analyzer();
        let report = analyzer.full();
        let bytes = rtbh_json::to_vec_pretty(&report);
        finalize.push(secs(t0));
        replay.push(ingest[ingest.len() - 1] + finalize[finalize.len() - 1]);
        drop((analyzer, report));
        peaks.push((alloc::high_water_bytes() - base) as f64);
        out.check(late == 0, "stream dropped a late event");
        out.check(bytes == feed.reference, "stream report differs from batch");
    }

    end_to_end(&mut out, &setups, &replay, median(&peaks));
    out.note("ingest_eps", feed.events as f64 / median(&ingest), "1/s");
    out.note("finalize_s", median(&finalize), "s");
    out
}
