//! `serve` and `query_cli`: `rtbhd` driven over real TCP by the
//! protocol's public `Client`.
//!
//! `serve` (why: the protocol, the response cache and the scan kernels do
//! the work; the prepare kernels only run in set-up): [`CLIENTS`]
//! closed-loop clients (= the 2 cores of the reference machine), each on
//! one persistent connection, send the seeded [`SERVE_LAP`] mix of
//! hot repeats (`Info`, small and large report sections) and fresh
//! windows, prefix slices and filters that miss the cache. Latency is
//! timed from send to reply; `p50_ms` falls among the fresh requests (the
//! window and prefix kernels), and the copies of the `full` report (17 MB,
//! copied on every cache hit) in flight show in `peak_heap_mb`; a per-kind
//! breakdown shows which kind makes the tail.
//!
//! `query_cli` (why: the connection/accept layer, which does almost
//! nothing in `serve`, dominates here): one client opens a new connection
//! for every request, as a script calling `rtbh query` does, and asks only
//! small report sections, which are cache hits, so the scan kernels stay
//! out. Latency is timed from connect to reply.
//!
//! Set-up (`setup_s`) for both: `Analyzer::new` + `ServeState::new` +
//! bind, until the first `Ping` is answered. The daemon keeps its default
//! worker count and cache size. `peak_heap_mb` is the heap peak over the
//! measured phase (the daemon's state and cache, replies in flight on both
//! ends) less the expected reply bytes the benchmark holds.

use std::sync::Arc;
use std::time::Instant;

use rtbh::core::pipeline::{Analyzer, AnalyzerConfig};
use rtbh::core::serve::{
    Client, Request, Response, ServeOptions, ServeState, Server, ServerHandle,
};

use crate::mix::{fresh_pools, hot_queries, Kind, Query, Sequence, SERVE_LAP};
use crate::{alloc, end_to_end, median, percentile, secs, Outcome, Params};

/// The check a failed, dropped or wrong reply fails.
pub const MISMATCH: &str = "reply differs from its reference";

/// Closed-loop clients in `serve`.
pub const CLIENTS: usize = 2;
/// Set-ups per run.
pub const SETUPS: usize = 5;

/// A running daemon with its set-up times and the checked query sets.
pub struct Fixture {
    /// The daemon's state (shared with the server thread).
    pub state: Arc<ServeState>,
    /// The running server.
    pub handle: ServerHandle,
    /// Wall time of each set-up.
    pub setups: Vec<f64>,
    /// Hot queries with expected bytes.
    pub hot: Vec<Query>,
    /// Per-client fresh query pools with expected bytes.
    pub pools: Vec<Vec<Query>>,
    /// Heap bytes of `hot` and `pools`.
    pub held_bytes: u64,
}

/// Binds and spawns a daemon on an ephemeral local port.
pub fn spawn(state: &Arc<ServeState>) -> ServerHandle {
    Server::bind("127.0.0.1:0", Arc::clone(state), ServeOptions::default())
        .expect("bind 127.0.0.1:0")
        .spawn()
        .expect("spawn the server thread")
}

/// Simulates the corpus, sets the daemon up [`SETUPS`] times (keeping the
/// last) and builds the query sets for `clients` clients.
pub fn fixture(p: &Params, clients: usize) -> Fixture {
    let corpus = rtbh::sim::run(&p.scenario).corpus;
    let config = AnalyzerConfig::for_corpus(&corpus);
    let mut setups = Vec::new();
    let mut running = None;
    for _ in 0..SETUPS {
        if let Some((_, handle)) = running.take() {
            stop(handle);
        }
        let input = corpus.clone();
        let t0 = Instant::now();
        // As `rtbhd` prepares its state.
        let state = Arc::new(ServeState::new(Analyzer::new(input, config)));
        let handle = spawn(&state);
        let pong = Client::connect(handle.addr())
            .expect("connect to the fresh daemon")
            .request(&Request::Ping);
        setups.push(secs(t0));
        assert!(
            matches!(pong, Ok(Response::Ok(_))),
            "the fresh daemon must answer Ping"
        );
        running = Some((state, handle));
    }
    let (state, handle) = running.expect("at least one set-up");
    drop(corpus);
    let live0 = alloc::live_bytes();
    let reference = state.analyzer().full_sequential();
    let hot = hot_queries(&state, &reference);
    drop(reference);
    let pools = fresh_pools(&state, &mut p.rng(0x5E7E), clients);
    Fixture {
        state,
        handle,
        setups,
        hot,
        pools,
        held_bytes: alloc::live_bytes().saturating_sub(live0),
    }
}

/// Stops a daemon and waits for its threads.
pub fn stop(handle: ServerHandle) {
    handle.shutdown().expect("drain the daemon");
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Its kind.
    pub kind: Kind,
    /// Latency, seconds.
    pub secs: f64,
    /// Reply body bytes.
    pub bytes: usize,
    /// True when the reply matched the expected bytes.
    pub ok: bool,
}

/// Sends one request on `client`, timing send to reply. A dropped
/// connection is reopened and counts as a failed request.
fn timed(client: &mut Client, addr: std::net::SocketAddr, q: &Query) -> Sample {
    let t0 = Instant::now();
    let reply = client.request(&q.request);
    let secs = secs(t0);
    let (ok, bytes) = match reply {
        Ok(Response::Ok(body)) => (body == *q.expected, body.len()),
        Ok(Response::Err { .. }) => (false, 0),
        Err(_) => {
            *client = Client::connect(addr).expect("reconnect after a dropped connection");
            (false, 0)
        }
    };
    Sample {
        kind: q.kind,
        secs,
        bytes,
        ok,
    }
}

/// Checks every hot query once over one connection, which also warms the
/// cache with every section.
fn warm(fx: &Fixture, out: &mut Outcome) {
    let addr = fx.handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    for q in &fx.hot {
        out.check(timed(&mut client, addr, q).ok, MISMATCH);
    }
}

/// The `serve` measured phase: one closed-loop thread per pool, each on a
/// persistent connection, until `seconds` pass. Returns each client's
/// samples.
pub fn sessions(fx: &Fixture, p: &Params, seconds: f64) -> Vec<Vec<Sample>> {
    let addr = fx.handle.addr();
    let start = Instant::now();
    std::thread::scope(|s| {
        let clients: Vec<_> = fx
            .pools
            .iter()
            .enumerate()
            .map(|(i, pool)| {
                let mut seq = Sequence::new(p.rng(0xC11E + i as u64), &SERVE_LAP, &fx.hot, pool);
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut samples = Vec::new();
                    while secs(start) < seconds {
                        samples.push(timed(&mut client, addr, seq.next_query()));
                    }
                    samples
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    })
}

/// The `query_cli` measured phase: one client, a new connection per
/// request, small sections only, timed from connect to reply.
pub fn one_shot(fx: &Fixture, p: &Params, seconds: f64) -> Vec<Sample> {
    let addr = fx.handle.addr();
    let weights = [(Kind::Small, 1)];
    let mut seq = Sequence::new(p.rng(0xC11E), &weights, &fx.hot, &[]);
    let mut samples = Vec::new();
    let start = Instant::now();
    while secs(start) < seconds {
        let q = seq.next_query();
        let t0 = Instant::now();
        let mut client = Client::connect(addr).ok();
        let reply = client.as_mut().map(|c| c.request(&q.request));
        let secs = secs(t0);
        drop(client);
        let (ok, bytes) = match reply {
            Some(Ok(Response::Ok(body))) => (body == *q.expected, body.len()),
            _ => (false, 0),
        };
        samples.push(Sample {
            kind: q.kind,
            secs,
            bytes,
            ok,
        });
    }
    samples
}

/// Counts samples into `out` and adds the end-to-end metrics; `peak` is
/// the heap high-water mark of the measured phase; `qps` is requests over
/// the clients' summed busy time.
fn report(out: &mut Outcome, fx: &Fixture, per_client: &[Vec<Sample>], peak: u64) {
    let all: Vec<Sample> = per_client.iter().flatten().copied().collect();
    for s in &all {
        out.check(s.ok, MISMATCH);
    }
    let latencies: Vec<f64> = all.iter().map(|s| s.secs).collect();
    let qps: f64 = per_client
        .iter()
        .map(|c| c.len() as f64 / c.iter().map(|s| s.secs).sum::<f64>())
        .sum();
    let peak = peak.saturating_sub(fx.held_bytes) as f64;
    end_to_end(out, &fx.setups, &latencies, peak);
    out.note("qps", qps, "1/s");
    out.note("p50_us", median(&latencies) * 1e6, "us");
    out.note("p90_us", percentile(&latencies, 90.0) * 1e6, "us");
    out.note("p99_us", percentile(&latencies, 99.0) * 1e6, "us");
    out.note(
        "cache_hit_ratio",
        fx.state.stats_report().cache_hit_ratio,
        "ratio",
    );
    for kind in Kind::ALL {
        let of: Vec<&Sample> = all.iter().filter(|s| s.kind == kind).collect();
        if of.is_empty() {
            continue;
        }
        let lat: Vec<f64> = of.iter().map(|s| s.secs * 1e6).collect();
        let bytes = of.iter().map(|s| s.bytes).sum::<usize>() as f64 / of.len() as f64;
        let cache = match kind {
            Kind::Info => "uncached",
            k if k.fresh() => "fresh",
            _ => "hit",
        };
        out.notes.push(format!(
            "kind {} requests={} cache={} p50_us={:.1} p99_us={:.1} reply_bytes={:.0}",
            kind.name(),
            of.len(),
            cache,
            median(&lat),
            percentile(&lat, 99.0),
            bytes
        ));
    }
}

/// The `serve` measurement on a running fixture: every hot query checked
/// once (which also warms the cache), then the sessions.
pub fn sessions_outcome(fx: &Fixture, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    out.param("scale", &p.scale);
    out.param("clients", fx.pools.len());
    out.param("connection", "persistent");
    out.param("mix_per_lap", format!("{SERVE_LAP:?}"));
    let pooled = |k: Kind| fx.pools.iter().flatten().filter(|q| q.kind == k).count();
    out.param(
        "fresh_keys",
        format!(
            "window {} prefix {} filter {}",
            pooled(Kind::Window),
            pooled(Kind::Prefix),
            pooled(Kind::Filter)
        ),
    );
    warm(fx, &mut out);
    alloc::restart_high_water();
    let per_client = sessions(fx, p, p.seconds);
    report(&mut out, fx, &per_client, alloc::high_water_bytes());
    out
}

/// The `query_cli` measurement on a running fixture.
pub fn one_shot_outcome(fx: &Fixture, p: &Params) -> Outcome {
    let mut out = Outcome::default();
    out.param("scale", &p.scale);
    out.param("clients", 1);
    out.param("connection", "one per request");
    out.param("mix", "small report sections (cache hits)");
    warm(fx, &mut out);
    alloc::restart_high_water();
    let samples = one_shot(fx, p, p.seconds);
    report(&mut out, fx, &[samples], alloc::high_water_bytes());
    out
}

/// Runs `serve`.
pub fn run_sessions(p: &Params) -> Outcome {
    let fx = fixture(p, CLIENTS);
    let out = sessions_outcome(&fx, p);
    stop(fx.handle);
    out
}

/// Runs `query_cli`.
pub fn run_one_shot(p: &Params) -> Outcome {
    let fx = fixture(p, 0);
    let out = one_shot_outcome(&fx, p);
    stop(fx.handle);
    out
}
