//! A tour of the control-plane building blocks: route-server distribution
//! control (targeted blackholing, §4.1) and per-router import policies
//! (§4.2) on hand-crafted updates.
//!
//! ```text
//! cargo run --example route_server_policies
//! ```

use rtbh::bgp::{BgpUpdate, ImportPolicy, Rib, RouteServer, UpdateKind};
use rtbh::net::{Asn, Community, Ipv4Addr, Prefix, Timestamp};

const RS: Asn = Asn(6695);

fn blackhole(prefix: &str, communities: Vec<Community>) -> BgpUpdate {
    let mut all = vec![Community::BLACKHOLE];
    all.extend(communities);
    BgpUpdate {
        at: Timestamp::EPOCH,
        peer: Asn(1),
        prefix: prefix.parse().unwrap(),
        origin: Asn(1),
        kind: UpdateKind::Announce,
        communities: all,
        next_hop: "198.51.100.66".parse().unwrap(),
    }
}

fn main() {
    let peers: Vec<Asn> = (1..=6).map(Asn).collect();
    let server = RouteServer::new(RS, peers.clone());

    println!("== 1. distribution control (targeted blackholing, §4.1) ==\n");
    let cases = [
        ("plain BLACKHOLE", blackhole("203.0.113.7/32", vec![])),
        (
            "0:4 — hide from AS4",
            blackhole(
                "203.0.113.7/32",
                vec![Community::block_peer(Asn(4)).unwrap()],
            ),
        ),
        (
            "0:RS + RS:2 — allow-list: only AS2",
            blackhole(
                "203.0.113.7/32",
                vec![
                    Community::block_all(RS).unwrap(),
                    Community::announce_peer(RS, Asn(2)).unwrap(),
                ],
            ),
        ),
    ];
    for (label, update) in &cases {
        let recipients = server.recipients(update);
        println!(
            "{label:<38} → {}",
            if recipients.is_empty() {
                "nobody".to_string()
            } else {
                recipients
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        );
    }

    println!("\n== 2. import policies decide acceptance (§4.2) ==\n");
    let policies = [
        ("vendor default (≤/24 only)", ImportPolicy::DEFAULT_24),
        ("/32 whitelisted", ImportPolicy::WHITELIST_32),
        ("fully open", ImportPolicy::FULL),
    ];
    let prefixes = ["203.0.113.0/24", "203.0.113.0/28", "203.0.113.7/32"];
    print!("{:<28}", "");
    for p in &prefixes {
        print!("{p:>18}");
    }
    println!();
    for (label, policy) in &policies {
        print!("{label:<28}");
        for p in &prefixes {
            let prefix: Prefix = p.parse().unwrap();
            print!(
                "{:>18}",
                if policy.accepts_blackhole(prefix) {
                    "accept"
                } else {
                    "reject"
                }
            );
        }
        println!();
    }

    println!("\n== 3. the RIB picks the blackhole by longest-prefix match ==\n");
    // One table for two routers of one member: router 0 whitelists /32,
    // router 1 runs the vendor default (§4.2's "inconsistent" member).
    let mut rib = Rib::new(vec![ImportPolicy::WHITELIST_32, ImportPolicy::DEFAULT_24]);
    rib.install_regular("203.0.113.0/24".parse().unwrap(), Asn(1));
    rib.apply(&blackhole("203.0.113.7/32", vec![]), [0, 1]);
    for addr in ["203.0.113.7", "203.0.113.8"] {
        let ip: Ipv4Addr = addr.parse().unwrap();
        println!(
            "{addr:<14} → router 0: {:?}, router 1: {:?}",
            rib.decide(0, ip),
            rib.decide(1, ip)
        );
    }
    println!(
        "\nThe /32 blackhole captures only the victim, and only on the router\n\
         that whitelisted /32; its /24 neighbours stay reachable — and a\n\
         withdraw restores the victim instantly:"
    );
    let mut withdraw = blackhole("203.0.113.7/32", vec![]);
    withdraw.kind = UpdateKind::Withdraw;
    rib.apply(&withdraw, [0, 1]);
    println!(
        "after withdraw: 203.0.113.7 → router 0: {:?}",
        rib.decide(0, "203.0.113.7".parse().unwrap())
    );
}
