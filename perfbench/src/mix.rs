//! The seeded `rtbhd` request mixes and their expected reply bytes.
//!
//! Expected bytes come from code the server does not run: report sections
//! from `section_json` over a `full_sequential()` report, and fresh
//! queries from the naive oracles (`window_aggregate_naive`,
//! `prefix_slice_naive`, `filter_aggregate_naive`).
//!
//! Hot queries (`Info`, report sections) repeat, so sections are cache
//! hits after their first request (`Info` is not cached by the server).
//! Fresh queries (windows, prefix slices, filters) are distinct keys. Each
//! client cycles through its own pool; the pools together hold more keys
//! than the server's LRU ([`ServeState::DEFAULT_CACHE_CAPACITY`]), so a
//! cyclic pass over them always misses the cache.

use std::collections::HashSet;
use std::sync::Arc;

use rtbh::core::filter::{filter_aggregate_naive, FilterQuery, Predicate};
use rtbh::core::pipeline::FullReport;
use rtbh::core::serve::{
    info_summary, prefix_slice_naive, section_json, window_aggregate_naive, Request, Section,
    ServeState,
};
use rtbh_rng::{ChaChaRng, SliceRandom};

/// Request kinds, as the per-kind latency breakdown reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `Info` (computed per request, not cached).
    Info,
    /// Report sections under 64 KiB.
    Small,
    /// Report sections of 100 KiB and more (`full` is about 17 MB).
    Large,
    /// Fresh window aggregates.
    Window,
    /// Fresh prefix slices.
    Prefix,
    /// Fresh filter aggregates.
    Filter,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 6] = [
        Kind::Info,
        Kind::Small,
        Kind::Large,
        Kind::Window,
        Kind::Prefix,
        Kind::Filter,
    ];

    /// Report spelling.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Info => "info",
            Kind::Small => "small",
            Kind::Large => "large",
            Kind::Window => "window",
            Kind::Prefix => "prefix",
            Kind::Filter => "filter",
        }
    }

    /// True for kinds whose every request is a new cache key.
    pub fn fresh(self) -> bool {
        matches!(self, Kind::Window | Kind::Prefix | Kind::Filter)
    }
}

/// Sections of the `Small` kind.
pub const SMALL: [Section; 8] = [
    Section::Headline,
    Section::Clean,
    Section::Alignment,
    Section::Provenance,
    Section::Acceptance,
    Section::Filtering,
    Section::Collateral,
    Section::Classification,
];

/// Sections of the `Large` kind.
pub const LARGE: [Section; 6] = [
    Section::Full,
    Section::Load,
    Section::Visibility,
    Section::Preevents,
    Section::Protocols,
    Section::Hosts,
];

/// Requests of each kind in one lap of the `serve` mix. The repository
/// holds no trace of operator queries, so the shares are an assumption,
/// not measured traffic. They follow the canonical query list of the
/// repository's own serve bench (`rtbh_bench::serve`): `Info`, every
/// report section once (8 small, 6 large, so `full` is 1 request in 40),
/// nine windows and eight prefix slices; that list predates `Filter`, so
/// the lap adds one request for each of the eight filter shapes of
/// `rtbh_bench::filters`. `Ping` is left out.
pub const SERVE_LAP: [(Kind, u32); 6] = [
    (Kind::Info, 1),
    (Kind::Small, 8),
    (Kind::Large, 6),
    (Kind::Window, 9),
    (Kind::Prefix, 8),
    (Kind::Filter, 8),
];

/// Fresh keys per client and kind (window, prefix, filter), fewer when
/// the corpus has too few events or prefixes. With two clients a key
/// recurs only after more than [`ServeState::DEFAULT_CACHE_CAPACITY`]
/// other fresh keys, so it has left the LRU by then.
pub const POOL: [(Kind, usize); 3] = [
    (Kind::Window, 120),
    (Kind::Prefix, 100),
    (Kind::Filter, 100),
];

/// The predicate sets of the `rtbh_bench::filters` query shapes: the §6
/// amplification ports, length and flag conjuncts, the windowed scans'
/// predicates and the per-prefix join's.
const FILTER_SHAPES: [&[&str]; 8] = [
    &["protocol=17", "dst_port=53"],
    &["protocol=17", "src_port=123"],
    &["packet_len>=700"],
    &["fragment=1", "dropped=1"],
    &["src_port<1024", "protocol=17"],
    &["protocol=17"],
    &[],
    &["dropped=1"],
];

/// One request with the reply bytes it must get.
#[derive(Debug, Clone)]
pub struct Query {
    /// The kind it is reported under.
    pub kind: Kind,
    /// The request.
    pub request: Request,
    /// The expected `Response::Ok` body.
    pub expected: Arc<Vec<u8>>,
}

/// Every hot query (`Info` and every section) with its expected bytes.
pub fn hot_queries(state: &ServeState, reference: &FullReport) -> Vec<Query> {
    let mut hot = vec![Query {
        kind: Kind::Info,
        request: Request::Info,
        expected: Arc::new(rtbh_json::to_vec_pretty(&info_summary(state.analyzer()))),
    }];
    for (kind, sections) in [(Kind::Small, &SMALL[..]), (Kind::Large, &LARGE[..])] {
        for &section in sections {
            hot.push(Query {
                kind,
                request: Request::Report(section),
                expected: Arc::new(section_json(reference, section)),
            });
        }
    }
    hot
}

/// Every distinct fresh request of `kind`, in a seeded order. The shapes
/// are those of the repository's serve and filter benches, keyed so that
/// each is a new cache key:
/// * `Window`: an incident drill-down, one minute before an event's start
///   to five minutes after, one per distinct event start;
/// * `Prefix`: one prefix's slice over the whole period;
/// * `Filter`: a [`FILTER_SHAPES`] predicate set joined to one prefix over
///   the whole period (the per-prefix join of the filter bench).
fn fresh_requests(state: &ServeState, rng: &mut ChaChaRng, kind: Kind) -> Vec<Request> {
    let analyzer = state.analyzer();
    let period = analyzer.corpus().period;
    let (start_ms, end_ms) = (period.start.as_millis(), period.end.as_millis());
    let prefixes = analyzer.index().prefixes();
    let mut out: Vec<Request> = match kind {
        Kind::Window => analyzer
            .events()
            .iter()
            .map(|e| {
                let at = e.start().as_millis();
                Request::Window {
                    start_ms: at - 60_000,
                    end_ms: at + 300_000,
                }
            })
            .collect(),
        Kind::Prefix => prefixes
            .iter()
            .map(|&prefix| Request::Prefix {
                prefix,
                start_ms,
                end_ms,
            })
            .collect(),
        Kind::Filter => FILTER_SHAPES
            .iter()
            .flat_map(|shape| {
                let preds: Vec<Predicate> = shape
                    .iter()
                    .map(|t| Predicate::parse(t).expect("static predicate"))
                    .collect();
                prefixes.iter().map(move |&prefix| {
                    Request::Filter(FilterQuery::matching(preds.clone()).with_prefix(prefix))
                })
            })
            .collect(),
        _ => unreachable!("{kind:?} is not a fresh kind"),
    };
    let mut seen = HashSet::new();
    out.retain(|r| seen.insert(r.encode()));
    out.shuffle(rng);
    out
}

/// The naive oracle's reply body for a fresh request.
fn naive_reply(state: &ServeState, request: &Request) -> Vec<u8> {
    let analyzer = state.analyzer();
    let (cols, index) = (analyzer.columns(), analyzer.index());
    match request {
        Request::Window { start_ms, end_ms } => {
            rtbh_json::to_vec_pretty(&window_aggregate_naive(cols, *start_ms, *end_ms))
        }
        Request::Prefix {
            prefix,
            start_ms,
            end_ms,
        } => rtbh_json::to_vec_pretty(
            &prefix_slice_naive(index, cols, *prefix, *start_ms, *end_ms)
                .expect("pool prefixes come from the index"),
        ),
        Request::Filter(query) => {
            let pid = query.prefix.map(|p| {
                index
                    .prefix_id(p)
                    .expect("pool prefixes come from the index") as u32
            });
            rtbh_json::to_vec_pretty(&filter_aggregate_naive(cols, pid, query))
        }
        other => unreachable!("{other:?} is not a fresh request"),
    }
}

/// Fresh query pools for `clients` clients: per client, up to [`POOL`]
/// keys of each fresh kind, no key in two pools. Expected bytes are
/// computed on two threads.
pub fn fresh_pools(state: &ServeState, rng: &mut ChaChaRng, clients: usize) -> Vec<Vec<Query>> {
    let mut requests = vec![Vec::new(); clients];
    for (kind, n) in POOL {
        let all = fresh_requests(state, rng, kind);
        for (c, pool) in requests.iter_mut().enumerate() {
            let dealt = all.iter().skip(c).step_by(clients).take(n);
            pool.extend(dealt.map(|r| (kind, r.clone())));
        }
    }
    requests
        .into_iter()
        .map(|pool| {
            let half = pool.len() / 2;
            let (a, b) = pool.split_at(half);
            let answer = |part: &[(Kind, Request)]| -> Vec<Query> {
                part.iter()
                    .map(|(kind, request)| Query {
                        kind: *kind,
                        expected: Arc::new(naive_reply(state, request)),
                        request: request.clone(),
                    })
                    .collect()
            };
            std::thread::scope(|s| {
                let left = s.spawn(|| answer(a));
                let mut right = answer(b);
                let mut all = left.join().expect("oracle thread");
                all.append(&mut right);
                all
            })
        })
        .collect()
}

/// A client's request sequence. Kinds come from a shuffled deck holding
/// each kind as many times as its weight, so every deck has the exact mix
/// (a kind with no queries, as on a corpus too small for it, is left out);
/// queries within a kind are taken in turn from a seeded shuffle of that
/// kind's queries (fresh kinds thus cycle through the client's pool).
pub struct Sequence<'a> {
    rng: ChaChaRng,
    weights: &'a [(Kind, u32)],
    deck: Vec<Kind>,
    by_kind: Vec<Vec<&'a Query>>,
    cursor: Vec<usize>,
}

impl<'a> Sequence<'a> {
    /// A sequence over `hot` and `pool` with the given kind weights.
    pub fn new(
        mut rng: ChaChaRng,
        weights: &'a [(Kind, u32)],
        hot: &'a [Query],
        pool: &'a [Query],
    ) -> Self {
        let by_kind = Kind::ALL
            .iter()
            .map(|&k| {
                let mut of: Vec<&Query> = hot.iter().chain(pool).filter(|q| q.kind == k).collect();
                of.shuffle(&mut rng);
                of
            })
            .collect();
        Sequence {
            rng,
            weights,
            deck: Vec::new(),
            by_kind,
            cursor: vec![0; Kind::ALL.len()],
        }
    }

    /// The next query.
    pub fn next_query(&mut self) -> &'a Query {
        if self.deck.is_empty() {
            for &(kind, weight) in self.weights {
                if self.by_kind[kind as usize].is_empty() {
                    continue;
                }
                self.deck.extend(std::iter::repeat_n(kind, weight as usize));
            }
            self.deck.shuffle(&mut self.rng);
        }
        let kind = self.deck.pop().expect("a weighted kind has queries");
        let of_kind = &self.by_kind[kind as usize];
        let i = self.cursor[kind as usize] % of_kind.len();
        self.cursor[kind as usize] += 1;
        of_kind[i]
    }
}
