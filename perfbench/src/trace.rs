//! The traced run (`--trace 1`): times the calls into each layer's public
//! functions, from this benchmark's own code, and reports the per-layer
//! metrics.
//!
//! Every workload's traced run sweeps every layer once, on the run's
//! seeded corpus, so each traced run reports every per-layer metric the
//! contract names. Each metric below is listed with the end-to-end metric
//! it should move and on which workload:
//!
//! * `sim.*`, `corpus_io.*` → `setup_s` and the load time on `batch`.
//! * `prepare.*` (the kernels `Analyzer::new` runs, called one by one) →
//!   `p50_ms`/`peak_heap_mb` on `batch`, `p50_ms` (its finalize part) on
//!   `stream`, `setup_s` on `serve` and `query_cli`.
//! * `stage.*` (each `Analyzer` stage method) and `report.*` → `p50_ms` on
//!   `batch` and `stream`. `stage.full.s` beside `stage.sum.s` shows the
//!   overlap the parallel `full()` buys.
//! * `stream.*` → `p50_ms` (ingest + finalize) on `stream`.
//! * `serve.*` (protocol, cache, transport) → `p50_ms` on `serve`;
//!   `kernel.*` (scan kernels) → `p50_ms` on `serve` and its printed tail;
//!   `serve.connect.ns` → `p50_ms` on `query_cli`.
//! * `trace.overhead_s` and `trace.overhead_serve_ns`: traced minus
//!   untraced time of the same work (prepare + sequential stages, and one
//!   in-process request).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use rtbh::core::align::{estimate_offset_with_workers, shift_flows_with_workers};
use rtbh::core::clean::clean_flows_with_workers;
use rtbh::core::columns::{ColumnarFlows, EnrichedBuild};
use rtbh::core::events::infer_events;
use rtbh::core::filter::{filter_aggregate, FilterQuery};
use rtbh::core::index::{MacResolver, OriginTable, SampleIndex};
use rtbh::core::pipeline::{Analyzer, AnalyzerConfig, FullReport};
use rtbh::core::serve::{
    prefix_slice, window_aggregate, Client, Request, Response, ServeState, RESPONSE_MAX,
};
use rtbh::core::shard::resolve_workers;
use rtbh::core::stream::StreamAnalyzer;
use rtbh::core::Corpus;
use rtbh::corpus_io;
use rtbh::net::frame::{read_frame, write_frame};
use rtbh::net::TimeDelta;

use crate::alloc::{measure, Cost};
use crate::batch::DIGEST_DIFFERS;
use crate::mix::{fresh_pools, hot_queries, Kind, Query, Sequence, SERVE_LAP};
use crate::serve::{spawn, stop, CLIENTS, MISMATCH};
use crate::{median, secs, stream, Outcome, Params, Workload};

/// Median, or 0 when nothing was measured (a tiny corpus may lack a kind).
fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// In-process and TCP requests in the traced serve pass.
const TRACE_REQUESTS: usize = 2000;
/// One-shot connections timed for `serve.connect.ns`.
const CONNECTS: usize = 40;

/// Runs the traced sweep.
pub fn run(workload: Workload, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    out.param("scale", &p.scale);
    out.param("traced_for", workload.name());
    out.param("trace_requests", TRACE_REQUESTS);
    out.param("connects", CONNECTS);

    let (sim, cost) = measure(|| rtbh::sim::run(&p.scenario));
    let corpus = sim.corpus;
    out.metric("sim.run.s", cost.secs, "s");
    corpus_layer(&mut out, &corpus);
    let (analyzer, reference, overhead_s) = analysis_layers(&mut out, &corpus);
    stream_layer(&mut out, p, &corpus);
    let overhead_serve_ns = serve_layers(&mut out, p, analyzer, &reference);
    out.metric("trace.overhead_s", overhead_s, "s");
    out.metric("trace.overhead_serve_ns", overhead_serve_ns, "ns");
    out
}

fn corpus_layer(out: &mut Outcome, corpus: &Corpus) {
    let (encoded, cost) = measure(|| corpus_io::to_bytes(corpus));
    out.metric("corpus_io.encode.s", cost.secs, "s");
    let bytes = match encoded {
        Ok(bytes) => bytes,
        Err(e) => {
            out.fail(format!("encode: {e}"));
            Vec::new()
        }
    };
    out.metric("corpus_io.encode.bytes", bytes.len() as f64, "bytes");
    let (decoded, cost) = measure(|| corpus_io::from_bytes(&bytes));
    out.metric("corpus_io.decode.s", cost.secs, "s");
    let failed = match decoded {
        Ok(d) => {
            out.check(d.digest() == corpus.digest(), DIGEST_DIFFERS);
            0.0
        }
        Err(e) => {
            out.fail(format!("load: {e}"));
            1.0
        }
    };
    out.metric("corpus_io.decode.failed", failed, "count");
}

fn layer(out: &mut Outcome, name: &str, cost: Cost, peak: bool) -> f64 {
    out.metric(&format!("{name}.s"), cost.secs, "s");
    out.metric(
        &format!("{name}.alloc_bytes"),
        cost.alloc_bytes as f64,
        "bytes",
    );
    if peak {
        out.metric(
            &format!("{name}.peak_bytes"),
            cost.peak_bytes as f64,
            "bytes",
        );
    }
    cost.secs
}

/// The prepare kernels one by one, then `Analyzer::new` untraced; the
/// stages one by one, then `full_sequential()` untraced, `full()` and
/// serialization. Returns the analyzer, the sequential report and the
/// tracing overhead.
fn analysis_layers(out: &mut Outcome, corpus: &Corpus) -> (Analyzer, FullReport, f64) {
    let config = AnalyzerConfig::for_corpus(corpus);
    let workers = resolve_workers(config.workers);
    let end = corpus.period.end;
    let mut traced = 0.0;

    let ((cleaned, _), cost) = measure(|| clean_flows_with_workers(corpus, workers));
    traced += layer(out, "prepare.clean", cost, true);
    let (alignment, cost) = measure(|| {
        estimate_offset_with_workers(
            &corpus.updates,
            &cleaned,
            end,
            config.offset_half_range,
            config.offset_step,
            workers,
        )
    });
    traced += layer(out, "prepare.align", cost, true);
    let offset = alignment.map_or(TimeDelta::ZERO, |a| a.estimated_offset());
    // Analyzer::new skips the shift for a zero offset; so does the trace.
    let (flows, cost) = if offset == TimeDelta::ZERO {
        (cleaned, Cost::default())
    } else {
        measure(|| shift_flows_with_workers(&cleaned, offset, workers))
    };
    traced += layer(out, "prepare.align.shift", cost, true);
    let (_events, cost) = measure(|| infer_events(&corpus.updates, config.merge_delta, end));
    traced += layer(out, "prepare.events", cost, true);
    let ((resolver, origins), cost) = measure(|| {
        (
            MacResolver::build(corpus),
            OriginTable::build(&corpus.routes),
        )
    });
    traced += cost.secs;
    let (enriched, cost) = measure(|| {
        ColumnarFlows::build_enriched_with_capacity(
            &corpus.updates,
            &flows,
            &resolver,
            &origins,
            end,
            workers,
            config.chunk_capacity,
        )
    });
    traced += layer(out, "prepare.columns.enrich", cost, true);
    let EnrichedBuild {
        columns,
        blackholes,
        blackhole_prefixes,
    } = enriched;
    let (_index, cost) =
        measure(|| SampleIndex::from_columns(blackholes, blackhole_prefixes, &columns, workers));
    traced += layer(out, "prepare.index", cost, true);
    drop((flows, columns));

    let input = corpus.clone();
    let t0 = Instant::now();
    let analyzer = Analyzer::new(input, config);
    let mut untraced = secs(t0);

    let a = &analyzer;
    let mut sum = 0.0;
    let mut stage = |out: &mut Outcome, name: &str, cost: Cost| {
        sum += layer(out, &format!("stage.{name}"), cost, false);
    };
    let (load, c) = measure(|| a.load());
    stage(out, "load", c);
    let (provenance, c) = measure(|| a.provenance());
    stage(out, "provenance", c);
    let (visibility, c) = measure(|| a.visibility());
    stage(out, "visibility", c);
    let (acceptance, c) = measure(|| a.acceptance());
    stage(out, "acceptance", c);
    let (preevents, c) = measure(|| a.preevents());
    stage(out, "preevents", c);
    let (protocols, c) = measure(|| a.protocols(&preevents));
    stage(out, "protocols", c);
    let (filtering, c) = measure(|| a.filtering(&preevents));
    stage(out, "filtering", c);
    let (hosts, c) = measure(|| a.hosts());
    stage(out, "hosts", c);
    let (collateral, c) = measure(|| a.collateral(&hosts));
    stage(out, "collateral", c);
    let (classification, c) = measure(|| a.classification(&preevents, &protocols));
    stage(out, "classification", c);
    traced += sum;
    out.metric("stage.sum.s", sum, "s");
    let staged = FullReport {
        clean: a.clean_report(),
        alignment: a.alignment().cloned(),
        load,
        provenance,
        visibility,
        acceptance,
        preevents,
        protocols,
        filtering,
        hosts,
        collateral,
        classification,
    };

    let t0 = Instant::now();
    let sequential = a.full_sequential();
    untraced += secs(t0);
    let (full, cost) = measure(|| a.full());
    out.metric("stage.full.s", cost.secs, "s");
    let (bytes, cost) = measure(|| rtbh_json::to_vec_pretty(&full));
    out.metric("report.serialize.s", cost.secs, "s");
    out.metric("report.bytes", bytes.len() as f64, "bytes");
    out.check(
        rtbh_json::to_vec_pretty(&sequential) == bytes,
        "report differs from full_sequential",
    );
    out.check(
        rtbh_json::to_vec_pretty(&staged) == bytes,
        "report of the traced stages differs from full",
    );
    (analyzer, sequential, traced - untraced)
}

fn stream_layer(out: &mut Outcome, p: &Params, corpus: &Corpus) {
    let feed = stream::feed(p, corpus);
    let batches = feed.batches.clone();
    let mut s = StreamAnalyzer::new(corpus, feed.config);
    let ((), cost) = measure(|| {
        for batch in batches {
            s.push_batch(batch);
        }
    });
    out.metric("stream.push.s", cost.secs, "s");
    out.metric("stream.push.events", feed.events as f64, "count");
    out.metric("stream.push.alloc_bytes", cost.alloc_bytes as f64, "bytes");
    let ((), cost) = measure(|| s.finish());
    out.metric("stream.finish.s", cost.secs, "s");
    let status = s.status();
    out.metric("stream.late_dropped", status.late_dropped as f64, "count");
    out.metric("stream.ring_chunks", status.ring_chunks as f64, "count");
    out.metric("stream.verdicts", status.verdicts as f64, "count");
    let (analyzer, cost) = measure(|| s.into_analyzer());
    out.metric("stream.into_analyzer.s", cost.secs, "s");
    let bytes = rtbh_json::to_vec_pretty(&analyzer.full());
    out.check(status.late_dropped == 0, "stream dropped a late event");
    out.check(bytes == feed.reference, "stream report differs from batch");
}

/// Reads one reply frame, returning the time its first byte arrived (from
/// `t0`) and the decoded response.
fn read_reply(stream: &mut TcpStream, t0: Instant) -> Option<(f64, Response)> {
    let mut first = [0u8; 1];
    stream.read_exact(&mut first).ok()?;
    let at = secs(t0);
    let payload = read_frame(&mut (&first[..]).chain(stream), RESPONSE_MAX).ok()??;
    Some((at, Response::decode(&payload)?))
}

fn body_matches(response: &Response, q: &Query) -> bool {
    matches!(response, Response::Ok(body) if *body == *q.expected)
}

/// The serve protocol, cache, transport, scan-kernel and connection
/// layers. Returns the per-request tracing overhead in ns.
fn serve_layers(out: &mut Outcome, p: &Params, analyzer: Analyzer, reference: &FullReport) -> f64 {
    let state = Arc::new(ServeState::new(analyzer));
    let hot = hot_queries(&state, reference);
    let pools = fresh_pools(&state, &mut p.rng(0x5E7E), CLIENTS);
    for q in &hot {
        let (response, _) = state.answer(q.request.clone());
        out.check(body_matches(&response, q), MISMATCH);
    }
    let mut seq = Sequence::new(p.rng(0xC11E), &SERVE_LAP, &hot, &pools[0]);
    let queries: Vec<&Query> = (0..TRACE_REQUESTS).map(|_| seq.next_query()).collect();

    let ns = |t0: Instant| t0.elapsed().as_nanos() as f64;
    // Untraced in-process passes over the same requests, one `handle`
    // each, before and after the traced pass.
    let untraced = || -> f64 {
        let times: Vec<f64> = queries
            .iter()
            .map(|q| {
                let payload = q.request.encode();
                let t0 = Instant::now();
                let reply = state.handle(&payload);
                let t = ns(t0);
                drop(reply);
                t
            })
            .collect();
        median(&times)
    };
    let untraced_before = untraced();

    // Traced in-process pass: decode, answer, encode timed apart.
    let (mut decode, mut hit, mut miss, mut encode, mut handled) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut small_hit = Vec::new();
    let mut reply_bytes = 0usize;
    for q in &queries {
        let payload = q.request.encode();
        let t0 = Instant::now();
        let request = Request::decode(&payload).expect("benchmark requests decode");
        let d = ns(t0);
        let hits0 = state.stats_report().cache_hits;
        let t0 = Instant::now();
        let (response, _) = state.answer(request);
        let a = ns(t0);
        let was_hit = state.stats_report().cache_hits > hits0;
        let t0 = Instant::now();
        let frame = response.encode();
        let e = ns(t0);
        reply_bytes += frame.len();
        out.check(body_matches(&response, q), MISMATCH);
        decode.push(d);
        if was_hit {
            hit.push(a);
        } else {
            miss.push(a);
        }
        encode.push(e);
        handled.push(d + a + e);
        if q.kind == Kind::Small && was_hit {
            small_hit.push(d + a + e);
        }
    }
    out.metric("serve.decode.ns", median(&decode), "ns");
    out.metric("serve.answer.hit.ns", median_or_zero(&hit), "ns");
    out.metric("serve.answer.miss.ns", median_or_zero(&miss), "ns");
    out.metric("serve.encode.ns", median(&encode), "ns");
    out.metric(
        "serve.reply_bytes",
        reply_bytes as f64 / queries.len() as f64,
        "bytes",
    );
    out.metric(
        "serve.cache_hit_ratio",
        state.stats_report().cache_hit_ratio,
        "ratio",
    );

    let overhead = median(&handled) - (untraced_before + untraced()) / 2.0;

    // The same requests over TCP: client latency minus in-process handle time.
    let handle = spawn(&state);
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    let mut transport = Vec::new();
    for (q, h) in queries.iter().zip(&handled) {
        let t0 = Instant::now();
        let reply = client.request(&q.request);
        transport.push(ns(t0) - h);
        out.check(matches!(&reply, Ok(r) if body_matches(r, q)), MISMATCH);
    }
    out.metric("serve.transport.ns", median_or_zero(&transport), "ns");

    // Scan kernels over every distinct fresh query of one client's pool.
    let analyzer = state.analyzer();
    let (cols, index) = (analyzer.columns(), analyzer.index());
    let (mut window, mut prefix, mut filter) = (Vec::new(), Vec::new(), Vec::new());
    let (mut matched, mut scanned) = (0u64, 0u64);
    for q in &pools[0] {
        let t0 = Instant::now();
        let body = match &q.request {
            Request::Window { start_ms, end_ms } => {
                let agg = window_aggregate(cols, *start_ms, *end_ms);
                window.push(ns(t0));
                rtbh_json::to_vec_pretty(&agg)
            }
            Request::Prefix {
                prefix: pfx,
                start_ms,
                end_ms,
            } => {
                let slice = prefix_slice(index, cols, *pfx, *start_ms, *end_ms);
                prefix.push(ns(t0));
                rtbh_json::to_vec_pretty(&slice.expect("pool prefixes come from the index"))
            }
            Request::Filter(query) => {
                let join = query.prefix.map(|pfx| {
                    let pid = index
                        .prefix_id(pfx)
                        .expect("pool prefixes come from the index");
                    (state.dict(), pid as u32)
                });
                let agg = filter_aggregate(cols, join, query);
                filter.push(ns(t0));
                matched += agg.samples;
                // The rows the predicates are applied to: the same window
                // and prefix join with no predicates.
                let all = FilterQuery {
                    predicates: Vec::new(),
                    ..query.clone()
                };
                scanned += filter_aggregate(cols, join, &all).samples;
                rtbh_json::to_vec_pretty(&agg)
            }
            other => unreachable!("{other:?} is not a fresh request"),
        };
        out.check(
            body == *q.expected,
            "kernel answer differs from the naive oracle",
        );
    }
    for (name, v) in [
        ("window", &window),
        ("prefix", &prefix),
        ("filter", &filter),
    ] {
        out.metric(&format!("kernel.{name}.ns"), median_or_zero(v), "ns");
    }
    out.metric(
        "kernel.filter.match_ratio",
        matched as f64 / scanned.max(1) as f64,
        "ratio",
    );

    // One-shot connections: connect to first reply byte, minus the
    // in-process handle time of a cached small section.
    let small: Vec<&Query> = hot.iter().filter(|q| q.kind == Kind::Small).collect();
    let handle_small = median_or_zero(&small_hit);
    let mut connect = Vec::new();
    for i in 0..CONNECTS {
        let q = small[i % small.len()];
        let t0 = Instant::now();
        let reply = TcpStream::connect(addr).ok().and_then(|mut s| {
            s.set_nodelay(true).ok()?;
            write_frame(&mut s, &q.request.encode()).ok()?;
            s.flush().ok()?;
            read_reply(&mut s, t0)
        });
        match reply {
            Some((first, response)) => {
                connect.push(first * 1e9 - handle_small);
                out.check(body_matches(&response, q), MISMATCH);
            }
            None => out.check(false, MISMATCH),
        }
    }
    out.metric("serve.connect.ns", median_or_zero(&connect), "ns");
    stop(handle);
    overhead
}
