//! Differential fuzz: the fabric's one shared RIB (a single prefix trie
//! with router bitsets, one walk per update) vs the per-router oracle in
//! `rtbh_testkit::rib` (a route map per router, a linear LPM). Each case
//! builds members with 1–4 router ports of mixed import policies, draws
//! nested prefixes, and runs a random sequence of route-server updates
//! (blackhole and regular, announce and withdraw, regular routes of
//! different origins for one prefix, recipient subsets from distribution
//! control communities or drawn at random), announce/withdraw pairs in one
//! millisecond, bilateral blackholes and late seeded routes. After every
//! step, every port's `forward` decision must match the oracle's on probes
//! at the edges of and inside every prefix.

#[path = "common/seeds.rs"]
#[allow(dead_code)]
mod seeds;

use rtbh_bgp::{BgpUpdate, ImportPolicy, RouteServer, UpdateKind};
use rtbh_fabric::{Fabric, Member, MemberId, RouterPort};
use rtbh_net::{Asn, Community, Ipv4Addr, MacAddr, Prefix, TimeDelta, Timestamp};
use rtbh_rng::{ChaChaRng, Rng};
use rtbh_testkit::rib::NaiveFabric;
use rtbh_testkit::{gen, FuzzTarget};

const RS: Asn = Asn(6695);
/// An origin no member is registered for: its routes forward nowhere.
const STRAY_ORIGIN: Asn = Asn(64_999);

fn arb_policy<R: Rng>(rng: &mut R) -> ImportPolicy {
    match rng.gen_range(0..5u8) {
        0 => ImportPolicy::FULL,
        1 => ImportPolicy::WHITELIST_32,
        2 => ImportPolicy::DEFAULT_24,
        _ => ImportPolicy {
            accept_blackhole_le24: rng.gen_bool(0.8),
            accept_blackhole_25_31: rng.gen_bool(0.3),
            accept_blackhole_32: rng.gen_bool(0.5),
            accept_regular: rng.gen_bool(0.8),
        },
    }
}

fn arb_members<R: Rng>(rng: &mut R) -> Vec<Member> {
    let mut mac = 0u32;
    (0..rng.gen_range(1..=5u32))
        .map(|i| {
            let routers = (0..rng.gen_range(1..=4usize))
                .map(|_| {
                    mac += 1;
                    RouterPort::new(MacAddr::from_id(mac), arb_policy(rng))
                })
                .collect();
            Member::new(MemberId(i), Asn(100 + i), routers)
        })
        .collect()
}

/// Recipients as the route server computes them from random
/// distribution-control communities, or a random subset of the member
/// ASNs with an unknown one mixed in.
fn arb_recipients<R: Rng>(rng: &mut R, update: &mut BgpUpdate, asns: &[Asn]) -> Vec<Asn> {
    if rng.gen_bool(0.5) {
        let server = RouteServer::new(RS, asns.iter().copied());
        update.peer = asns[rng.gen_range(0..asns.len())];
        if rng.gen_bool(0.3) {
            update.communities.push(Community::block_all(RS).unwrap());
            for &peer in asns {
                if rng.gen_bool(0.5) {
                    update
                        .communities
                        .push(Community::announce_peer(RS, peer).unwrap());
                }
            }
        } else {
            for &peer in asns {
                if rng.gen_bool(0.3) {
                    update
                        .communities
                        .push(Community::block_peer(peer).unwrap());
                }
            }
        }
        server.recipients(update)
    } else {
        let mut recipients: Vec<Asn> = asns.iter().copied().filter(|_| rng.gen_bool(0.6)).collect();
        if rng.gen_bool(0.2) {
            recipients.push(Asn(99));
        }
        recipients
    }
}

fn arb_update<R: Rng>(rng: &mut R, at: Timestamp, pool: &[Prefix], origins: &[Asn]) -> BgpUpdate {
    let blackhole = rng.gen_bool(0.6);
    BgpUpdate {
        at,
        peer: Asn(0),
        prefix: pool[rng.gen_range(0..pool.len())],
        origin: origins[rng.gen_range(0..origins.len())],
        kind: if rng.gen_bool(0.6) {
            UpdateKind::Announce
        } else {
            UpdateKind::Withdraw
        },
        communities: if blackhole {
            vec![Community::BLACKHOLE]
        } else {
            Vec::new()
        },
        next_hop: Ipv4Addr::new(198, 51, 100, 66),
    }
}

/// Every port (plus an unknown MAC, which falls back to the primary port)
/// of every member, on every probe.
fn assert_same_decisions(
    fabric: &Fabric,
    oracle: &NaiveFabric,
    members: &[Member],
    probes: &[Ipv4Addr],
    step: &str,
) {
    for m in members {
        let macs = m.routers.iter().map(|r| r.mac).chain([MacAddr::from_id(0)]);
        for mac in macs {
            for &dst in probes {
                assert_eq!(
                    fabric.forward(m.id, mac, dst),
                    oracle.forward(m.id, mac, dst),
                    "{step}: member {:?} port {mac} dst {dst}",
                    m.id
                );
            }
        }
    }
}

#[test]
fn shared_rib_matches_per_router_oracle() {
    let target = FuzzTarget {
        package: "rtbh-testkit",
        test_file: "rib_diff",
        test_name: "shared_rib_matches_per_router_oracle",
        base_seed: seeds::FUZZ_RIB_DIFF,
    };
    target.run(300, |_, rng| {
        let members = arb_members(rng);
        let asns: Vec<Asn> = members.iter().map(|m| m.asn).collect();
        let mut fabric = Fabric::new(members.clone());
        let mut oracle = NaiveFabric::new(&members);

        let pool = gen::arb_nested_prefixes(rng);
        let mut probes: Vec<Ipv4Addr> = pool
            .iter()
            .flat_map(|p| [p.network(), p.last_addr()])
            .collect();
        for _ in 0..4 {
            probes.push(gen::arb_addr_near(rng, &pool));
        }
        // Customer-cone origins get an egress once seeded; the stray one
        // never does.
        let mut origins = asns.clone();
        origins.extend([Asn(64_600), Asn(64_601), STRAY_ORIGIN]);

        let seed = |fabric: &mut Fabric, oracle: &mut NaiveFabric, rng: &mut ChaChaRng| {
            let prefix = pool[rng.gen_range(0..pool.len())];
            let origin = origins[rng.gen_range(0..origins.len() - 1)];
            let egress = MemberId(rng.gen_range(0..members.len() as u32));
            fabric.seed_regular_route(prefix, origin, egress, Timestamp::EPOCH);
            oracle.seed_regular_route(prefix, origin, egress);
        };
        for _ in 0..rng.gen_range(0..=3usize) {
            seed(&mut fabric, &mut oracle, rng);
        }
        assert_same_decisions(&fabric, &oracle, &members, &probes, "seeded");

        let mut at = Timestamp::EPOCH;
        for step in 0..rng.gen_range(1..=16usize) {
            at += TimeDelta::millis(rng.gen_range(0..3i64));
            match rng.gen_range(0..10u8) {
                0..=4 => {
                    let mut update = arb_update(rng, at, &pool, &origins);
                    let recipients = arb_recipients(rng, &mut update, &asns);
                    fabric.distribute(&update, &recipients);
                    oracle.distribute(&update, &recipients);
                }
                5 | 6 => {
                    // An announce/withdraw pair in one millisecond, in
                    // either order, to the same recipients.
                    let mut first = arb_update(rng, at, &pool, &origins);
                    let recipients = arb_recipients(rng, &mut first, &asns);
                    let second = BgpUpdate {
                        kind: match first.kind {
                            UpdateKind::Announce => UpdateKind::Withdraw,
                            UpdateKind::Withdraw => UpdateKind::Announce,
                        },
                        ..first.clone()
                    };
                    for update in [&first, &second] {
                        fabric.distribute(update, &recipients);
                        oracle.distribute(update, &recipients);
                        let label = format!("step {step} same-ms {:?}", update.kind);
                        assert_same_decisions(&fabric, &oracle, &members, &probes, &label);
                    }
                }
                7 | 8 => {
                    let update = arb_update(rng, at, &pool, &origins);
                    let member = MemberId(rng.gen_range(0..members.len() as u32));
                    fabric.apply_bilateral(&update, member);
                    oracle.apply_bilateral(&update, member);
                }
                _ => seed(&mut fabric, &mut oracle, rng),
            }
            let label = format!("step {step}");
            assert_same_decisions(&fabric, &oracle, &members, &probes, &label);
        }
    });
}
