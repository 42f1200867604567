//! Host behaviour classification (paper §6.1–6.2, Figs. 16–17, Table 4).
//!
//! Outside attack windows, blackholed hosts reveal what they are:
//!
//! * servers receive traffic on few stable destination ports from many
//!   client source ports → low *top-port variation*;
//! * clients receive responses on ever-fresh ephemeral ports → top-port
//!   variation near 1.
//!
//! The paper's surprise: among hosts with ≥20 active days, clients outnumber
//! servers ~4:1 — thousands of blackholed victims are DSL subscribers and
//! gamers, not servers.

use std::collections::{BTreeMap, BTreeSet};

use rtbh_net::{Asn, Interval, Ipv4Addr, Prefix, Service, TimeDelta};
use rtbh_peeringdb::{OrgType, Registry};
use rtbh_stats::{radviz_project, RadvizPoint};

use crate::columns::ColumnarFlows;
use crate::events::RtbhEvent;
use crate::index::SampleIndex;

/// Host classification outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostClass {
    /// Stable top ports — behaves like a server.
    Server,
    /// Daily-changing top ports — behaves like a client.
    Client,
    /// Enough data but ambiguous variation.
    Ambiguous,
    /// Fewer than the required active days.
    InsufficientData,
}

/// Configuration of the host analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// Minimum days with *both* incoming and outgoing traffic (paper: 20).
    pub min_days: usize,
    /// Reaction time prepended to each event when excluding attack traffic
    /// (paper: 10 minutes).
    pub reaction: TimeDelta,
    /// Variation at or below which a host counts as a server.
    pub server_max_variation: f64,
    /// Variation at or above which a host counts as a client.
    pub client_min_variation: f64,
}

impl HostConfig {
    /// The paper's configuration.
    pub const PAPER: Self = Self {
        min_days: 20,
        reaction: TimeDelta::minutes(10),
        server_max_variation: 1.0 / 3.0,
        client_min_variation: 2.0 / 3.0,
    };
}

impl Default for HostConfig {
    fn default() -> Self {
        Self::PAPER
    }
}

/// One analysed host.
#[derive(Debug, Clone, PartialEq)]
pub struct HostRecord {
    /// The host address.
    pub addr: Ipv4Addr,
    /// The most specific blackholed prefix covering it.
    pub prefix: Prefix,
    /// The origin AS of that prefix (from the blackhole updates).
    pub origin: Asn,
    /// Days with incoming traffic (outside exclusion windows).
    pub days_in: usize,
    /// Days with outgoing traffic.
    pub days_out: usize,
    /// Port-diversity features: unique `[src-in, src-out, dst-in, dst-out]`
    /// ports.
    pub port_features: [usize; 4],
    /// The RadViz projection of the normalised features (Fig. 16).
    pub radviz: RadvizPoint,
    /// The distinct per-day top incoming services.
    pub top_services: Vec<Service>,
    /// Top-port variation: distinct top services / days with incoming
    /// traffic. `None` without incoming days.
    pub port_variation: Option<f64>,
    /// The classification.
    pub class: HostClass,
}

/// The corpus-wide host analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct HostAnalysis {
    /// All hosts that ever appeared in traffic to/from a blackholed prefix.
    pub hosts: Vec<HostRecord>,
    /// The configuration used.
    pub config: HostConfig,
}

impl HostAnalysis {
    /// Hosts of one class.
    pub fn of_class(&self, class: HostClass) -> impl Iterator<Item = &HostRecord> {
        self.hosts.iter().filter(move |h| h.class == class)
    }

    /// `(clients, servers)` counts (Fig. 17 / Table 4 headline).
    pub fn client_server_counts(&self) -> (usize, usize) {
        (
            self.of_class(HostClass::Client).count(),
            self.of_class(HostClass::Server).count(),
        )
    }

    /// Share of hosts meeting the ≥`min_days` criterion (paper: only 30%).
    pub fn eligible_share(&self) -> f64 {
        if self.hosts.is_empty() {
            return 0.0;
        }
        self.hosts
            .iter()
            .filter(|h| h.class != HostClass::InsufficientData)
            .count() as f64
            / self.hosts.len() as f64
    }

    /// Table 4: org-type histograms for `(clients, servers)`.
    pub fn org_type_table(
        &self,
        registry: &Registry,
    ) -> (BTreeMap<OrgType, usize>, BTreeMap<OrgType, usize>) {
        let clients: Vec<Asn> = self.of_class(HostClass::Client).map(|h| h.origin).collect();
        let servers: Vec<Asn> = self.of_class(HostClass::Server).map(|h| h.origin).collect();
        (
            registry.type_histogram(clients.iter()),
            registry.type_histogram(servers.iter()),
        )
    }

    /// Fig. 17 scatter material: `(days_in, port_variation, class)` for all
    /// hosts with incoming data.
    pub fn variation_scatter(&self) -> Vec<(usize, f64, HostClass)> {
        self.hosts
            .iter()
            .filter_map(|h| h.port_variation.map(|v| (h.days_in, v, h.class)))
            .collect()
    }
}

/// Working accumulator per host.
#[derive(Default)]
struct HostAccum {
    days_in: BTreeSet<i64>,
    days_out: BTreeSet<i64>,
    src_in: BTreeSet<u16>,
    src_out: BTreeSet<u16>,
    dst_in: BTreeSet<u16>,
    dst_out: BTreeSet<u16>,
    /// day → service → packets (incoming only).
    daily_services: BTreeMap<i64, BTreeMap<Service, u32>>,
}

/// Builds per-prefix exclusion windows: every event's coverage with the
/// reaction time prepended.
fn exclusion_windows(events: &[RtbhEvent], reaction: TimeDelta) -> BTreeMap<Prefix, Vec<Interval>> {
    let mut map: BTreeMap<Prefix, Vec<Interval>> = BTreeMap::new();
    for e in events {
        map.entry(e.prefix)
            .or_default()
            .push(Interval::new(e.start() - reaction, e.end()));
    }
    for windows in map.values_mut() {
        windows.sort_by_key(|w| w.start);
    }
    map
}

fn in_windows(windows: &[Interval], at: rtbh_net::Timestamp) -> bool {
    let idx = windows.partition_point(|w| w.start <= at);
    idx > 0 && windows[idx - 1].contains(at)
}

/// Runs the host analysis.
pub fn analyze_hosts(
    events: &[RtbhEvent],
    index: &SampleIndex,
    cols: &ColumnarFlows,
    config: &HostConfig,
) -> HostAnalysis {
    let exclusions = exclusion_windows(events, config.reaction);
    // Origin per prefix from the events.
    let origin_of: BTreeMap<Prefix, Asn> = events.iter().map(|e| (e.prefix, e.origin)).collect();

    let mut accums: BTreeMap<Ipv4Addr, (Prefix, HostAccum)> = BTreeMap::new();
    static NO_WINDOWS: &[Interval] = &[];

    for (pid, prefix) in index.prefixes().iter().enumerate() {
        let windows = exclusions
            .get(prefix)
            .map(|w| w.as_slice())
            .unwrap_or(NO_WINDOWS);
        for &id in index.towards(pid) {
            let i = id as usize;
            if in_windows(windows, cols.at(i)) {
                continue;
            }
            let (_, acc) = accums
                .entry(cols.dst_ip(i))
                .or_insert_with(|| (*prefix, HostAccum::default()));
            let day = cols.at(i).day();
            acc.days_in.insert(day);
            acc.src_in.insert(cols.src_port(i));
            acc.dst_in.insert(cols.dst_port(i));
            if cols.protocol(i).has_ports() {
                *acc.daily_services
                    .entry(day)
                    .or_default()
                    .entry(Service::new(cols.protocol(i), cols.dst_port(i)))
                    .or_insert(0) += 1;
            }
        }
        for &id in index.from(pid) {
            let i = id as usize;
            if in_windows(windows, cols.at(i)) {
                continue;
            }
            let (_, acc) = accums
                .entry(cols.src_ip(i))
                .or_insert_with(|| (*prefix, HostAccum::default()));
            acc.days_out.insert(cols.at(i).day());
            acc.src_out.insert(cols.src_port(i));
            acc.dst_out.insert(cols.dst_port(i));
        }
    }

    let hosts = accums
        .into_iter()
        .map(|(addr, (prefix, acc))| {
            let port_features = [
                acc.src_in.len(),
                acc.src_out.len(),
                acc.dst_in.len(),
                acc.dst_out.len(),
            ];
            let normalised: Vec<f64> = port_features
                .iter()
                .map(|&c| (c as f64 / 65535.0).min(1.0))
                .collect();
            let radviz = radviz_project(&normalised);
            // Per-day top service (most packets; ties by service order).
            let mut top_services: Vec<Service> = acc
                .daily_services
                .values()
                .filter_map(|day| {
                    day.iter()
                        .max_by_key(|(s, c)| (**c, std::cmp::Reverse(**s)))
                        .map(|(s, _)| *s)
                })
                .collect();
            top_services.sort();
            top_services.dedup();
            let port_variation = (!acc.daily_services.is_empty())
                .then(|| top_services.len() as f64 / acc.daily_services.len() as f64);
            let eligible = acc.days_in.len().min(acc.days_out.len()) >= config.min_days;
            let class = if !eligible {
                HostClass::InsufficientData
            } else {
                match port_variation {
                    Some(v) if v <= config.server_max_variation => HostClass::Server,
                    Some(v) if v >= config.client_min_variation => HostClass::Client,
                    _ => HostClass::Ambiguous,
                }
            };
            HostRecord {
                addr,
                prefix,
                origin: origin_of.get(&prefix).copied().unwrap_or(Asn::RESERVED),
                days_in: acc.days_in.len(),
                days_out: acc.days_out.len(),
                port_features,
                radviz,
                top_services,
                port_variation,
                class,
            }
        })
        .collect();
    HostAnalysis {
        hosts,
        config: *config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{MacResolver, OriginTable};
    use rtbh_bgp::{BgpUpdate, UpdateKind, UpdateLog};
    use rtbh_fabric::{FlowLog, FlowSample};
    use rtbh_net::{Community, MacAddr, Protocol, Timestamp};

    fn config() -> HostConfig {
        HostConfig {
            min_days: 3,
            ..HostConfig::PAPER
        }
    }

    fn bh(prefix: &str) -> BgpUpdate {
        BgpUpdate {
            at: Timestamp::EPOCH,
            peer: Asn(9),
            prefix: prefix.parse().unwrap(),
            origin: Asn(42),
            kind: UpdateKind::Announce,
            communities: vec![Community::BLACKHOLE],
            next_hop: Ipv4Addr::new(198, 51, 100, 66),
        }
    }

    fn event(prefix: &str, start_day: i64) -> RtbhEvent {
        let start = Timestamp::EPOCH + TimeDelta::days(start_day);
        RtbhEvent {
            id: 0,
            prefix: prefix.parse().unwrap(),
            spans: vec![Interval::new(start, start + TimeDelta::hours(1))],
            trigger_peer: Asn(9),
            origin: Asn(42),
            open_ended: false,
        }
    }

    fn flow(day: i64, minute: i64, src: &str, dst: &str, sport: u16, dport: u16) -> FlowSample {
        FlowSample {
            at: Timestamp::EPOCH + TimeDelta::days(day) + TimeDelta::minutes(minute),
            src_mac: MacAddr::from_id(1),
            dst_mac: MacAddr::from_id(2),
            src_ip: src.parse().unwrap(),
            dst_ip: dst.parse().unwrap(),
            protocol: Protocol::Tcp,
            src_port: sport,
            dst_port: dport,
            packet_len: 500,
            fragment: false,
        }
    }

    const HOST: &str = "10.0.0.7";

    fn build(flows: Vec<FlowSample>, events: Vec<RtbhEvent>) -> HostAnalysis {
        let updates = UpdateLog::from_updates(vec![bh("10.0.0.7/32")]);
        let log = FlowLog::from_samples(flows);
        let enriched = ColumnarFlows::build_enriched(
            &updates,
            &log,
            &MacResolver::from_map(Default::default()),
            &OriginTable::build(&[]),
            Timestamp::EPOCH,
            1,
        );
        let index = SampleIndex::from_columns(
            enriched.blackholes,
            enriched.blackhole_prefixes,
            &enriched.columns,
            1,
        );
        analyze_hosts(&events, &index, &enriched.columns, &config())
    }

    #[test]
    fn server_pattern_detected() {
        // Incoming always on TCP/443 from varying client ports, outgoing
        // responses from 443 — across 5 days.
        let mut flows = Vec::new();
        for day in 0..5 {
            for k in 0..5u16 {
                flows.push(flow(
                    day,
                    k as i64,
                    "100.64.0.1",
                    HOST,
                    40_000 + day as u16 * 10 + k,
                    443,
                ));
                flows.push(flow(
                    day,
                    k as i64 + 10,
                    HOST,
                    "100.64.0.1",
                    443,
                    41_000 + day as u16 * 10 + k,
                ));
            }
        }
        let analysis = build(flows, vec![]);
        let host = analysis
            .hosts
            .iter()
            .find(|h| h.addr.to_string() == HOST)
            .unwrap();
        assert_eq!(host.class, HostClass::Server);
        assert_eq!(host.top_services, vec![Service::tcp(443)]);
        assert!(host.port_variation.unwrap() <= 0.34);
        // RadViz: incoming src-port diversity dominates → pulled towards
        // anchor 0 (positive x).
        assert!(host.radviz.x > 0.0);
    }

    #[test]
    fn client_pattern_detected() {
        // Incoming responses hit a different ephemeral port every day.
        let mut flows = Vec::new();
        for day in 0..5 {
            for k in 0..4u16 {
                let eph = 50_000 + day as u16 * 97 + k;
                flows.push(flow(day, k as i64, "52.0.0.1", HOST, 443, eph));
                flows.push(flow(day, k as i64 + 10, HOST, "52.0.0.1", eph, 443));
            }
        }
        let analysis = build(flows, vec![]);
        let host = analysis
            .hosts
            .iter()
            .find(|h| h.addr.to_string() == HOST)
            .unwrap();
        assert_eq!(host.class, HostClass::Client);
        assert!(host.port_variation.unwrap() >= 0.66);
        let (clients, servers) = analysis.client_server_counts();
        assert_eq!((clients, servers), (1, 0));
    }

    #[test]
    fn too_few_days_is_insufficient() {
        let flows = vec![
            flow(0, 0, "100.64.0.1", HOST, 40_000, 443),
            flow(0, 1, HOST, "100.64.0.1", 443, 41_000),
        ];
        let analysis = build(flows, vec![]);
        let host = analysis
            .hosts
            .iter()
            .find(|h| h.addr.to_string() == HOST)
            .unwrap();
        assert_eq!(host.class, HostClass::InsufficientData);
        assert!(analysis.eligible_share() < 1.0);
    }

    #[test]
    fn event_windows_are_excluded() {
        // All traffic lands inside an event (plus its reaction lead-in):
        // nothing is counted as legitimate.
        let ev = event("10.0.0.7/32", 1);
        let inside = (0..10)
            .map(|k| flow(1, k, "100.64.0.1", HOST, 40_000 + k as u16, 443))
            .collect();
        let analysis = build(inside, vec![ev]);
        assert!(
            analysis.hosts.iter().all(|h| h.days_in == 0),
            "attack-window traffic must not build host profiles"
        );
    }

    #[test]
    fn origin_is_taken_from_events_or_reserved() {
        let flows = vec![flow(0, 0, "100.64.0.1", HOST, 40_000, 443)];
        let analysis = build(flows, vec![event("10.0.0.7/32", 5)]);
        let host = analysis
            .hosts
            .iter()
            .find(|h| h.addr.to_string() == HOST)
            .unwrap();
        assert_eq!(host.origin, Asn(42));
    }
}

rtbh_json::impl_json! {
    enum HostClass { Server, Client, Ambiguous, InsufficientData }
}

rtbh_json::impl_json! {
    struct HostConfig { min_days, reaction, server_max_variation, client_min_variation }
}

rtbh_json::impl_json! {
    struct HostRecord {
        addr, prefix, origin, days_in, days_out, port_features, radviz,
        top_services, port_variation, class,
    }
}

rtbh_json::impl_json! { struct HostAnalysis { hosts, config } }
