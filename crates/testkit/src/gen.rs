//! Grammar-aware generators for the workspace's domain types.
//!
//! The mutation engine ([`crate::mutate`]) asks whether garbage crashes a
//! decoder; these generators ask the complementary question — does every
//! *valid* value survive its codec exactly? Each generator draws from the
//! full domain its codec can represent (and nothing outside it), so the
//! round-trip oracles in [`crate::oracle`] can demand byte-for-byte and
//! value-for-value equality.

use rtbh_bgp::{BgpUpdate, UpdateKind, UpdateLog};
use rtbh_fabric::{FlowLog, FlowSample};
use rtbh_json::Json;
use rtbh_net::{Asn, Community, Ipv4Addr, MacAddr, Prefix, Protocol, Timestamp};
use rtbh_rng::{Rng, SliceRandom};

/// Any IPv4 address.
pub fn arb_addr<R: Rng>(rng: &mut R) -> Ipv4Addr {
    Ipv4Addr::from_u32(rng.gen())
}

/// Any prefix, biased toward the lengths the paper cares about (/32 hosts,
/// /24 edges) but covering `/0..=/32`. `Prefix::new` masks host bits, so the
/// result is always canonical.
pub fn arb_prefix<R: Rng>(rng: &mut R) -> Prefix {
    let len = match rng.gen_range(0..10u32) {
        0..=3 => 32,
        4..=6 => 24,
        _ => rng.gen_range(0..=32u32) as u8,
    };
    Prefix::new(arb_addr(rng), len).expect("len <= 32 is always valid")
}

/// Any MAC address, occasionally the blackhole MAC (the value the analysis
/// keys "dropped" on).
pub fn arb_mac<R: Rng>(rng: &mut R) -> MacAddr {
    if rng.gen_bool(0.2) {
        return MacAddr::BLACKHOLE;
    }
    let mut octets = [0u8; 6];
    for octet in &mut octets {
        *octet = rng.gen();
    }
    MacAddr::new(octets)
}

/// Any 4-octet AS number.
pub fn arb_asn<R: Rng>(rng: &mut R) -> Asn {
    Asn(rng.gen())
}

/// Any classic community, occasionally one of the well-known values.
pub fn arb_community<R: Rng>(rng: &mut R) -> Community {
    if rng.gen_bool(0.25) {
        return *[
            Community::BLACKHOLE,
            Community::NO_EXPORT,
            Community::NO_ADVERTISE,
        ]
        .choose(rng)
        .expect("non-empty");
    }
    Community::from_u32(rng.gen())
}

/// Any instant the wire formats can carry (an `i64` millisecond count,
/// including pre-epoch marks).
pub fn arb_timestamp<R: Rng>(rng: &mut R) -> Timestamp {
    Timestamp::from_millis(rng.gen())
}

/// Any transport protocol, via the same `u8` funnel the flow codec uses —
/// so `Other(6)` can never appear where `Tcp` is canonical.
pub fn arb_protocol<R: Rng>(rng: &mut R) -> Protocol {
    Protocol::from_number(rng.gen())
}

/// An arbitrary BGP announcement. Communities are capped at 8 — the encoder
/// frames the COMMUNITIES attribute with a one-byte length (`count * 4`), so
/// the codec's own domain tops out at 63.
pub fn arb_announce<R: Rng>(rng: &mut R) -> BgpUpdate {
    let n_communities = rng.gen_range(0..=8usize);
    BgpUpdate {
        at: arb_timestamp(rng),
        peer: arb_asn(rng),
        prefix: arb_prefix(rng),
        origin: arb_asn(rng),
        kind: UpdateKind::Announce,
        communities: (0..n_communities).map(|_| arb_community(rng)).collect(),
        next_hop: arb_addr(rng),
    }
}

/// An arbitrary *canonical* withdrawal — the shape the wire can express:
/// bare prefix retraction, no origin/communities/next-hop (see
/// `rtbh_bgp::wire::decode_update_log`).
pub fn arb_withdraw<R: Rng>(rng: &mut R) -> BgpUpdate {
    BgpUpdate {
        at: arb_timestamp(rng),
        peer: arb_asn(rng),
        prefix: arb_prefix(rng),
        origin: Asn::RESERVED,
        kind: UpdateKind::Withdraw,
        communities: Vec::new(),
        next_hop: Ipv4Addr::UNSPECIFIED,
    }
}

/// An arbitrary update (announce or canonical withdraw).
pub fn arb_update<R: Rng>(rng: &mut R) -> BgpUpdate {
    if rng.gen_bool(0.7) {
        arb_announce(rng)
    } else {
        arb_withdraw(rng)
    }
}

/// An update log of `0..=max_len` arbitrary updates (time-sorted by
/// construction, as `UpdateLog` requires).
pub fn arb_update_log<R: Rng>(rng: &mut R, max_len: usize) -> UpdateLog {
    let n = rng.gen_range(0..=max_len);
    UpdateLog::from_updates((0..n).map(|_| arb_update(rng)).collect())
}

/// A pool of nested prefixes: 1–4 random roots (/8–/24), each with a
/// chain of more-specifics inside it, often down to a /32 host — the
/// covered more-specifics longest-prefix matching has to get right.
pub fn arb_nested_prefixes<R: Rng>(rng: &mut R) -> Vec<Prefix> {
    let mut pool = Vec::new();
    for _ in 0..rng.gen_range(1..=4usize) {
        let mut prefix =
            Prefix::new(arb_addr(rng), rng.gen_range(8..=24u8)).expect("len <= 32 is always valid");
        pool.push(prefix);
        while prefix.len() < 32 && rng.gen_bool(0.7) {
            let len = rng.gen_range(prefix.len() + 1..=32u8);
            let inner = prefix.addr_at(rng.gen());
            prefix = Prefix::new(inner, len).expect("len <= 32 is always valid");
            pool.push(prefix);
        }
    }
    pool
}

/// An address inside a `pool` prefix most of the time, anywhere otherwise.
pub fn arb_addr_near<R: Rng>(rng: &mut R, pool: &[Prefix]) -> Ipv4Addr {
    if rng.gen_bool(0.8) {
        pool[rng.gen_range(0..pool.len())].addr_at(rng.gen())
    } else {
        arb_addr(rng)
    }
}

/// An arbitrary sampled packet.
pub fn arb_flow_sample<R: Rng>(rng: &mut R) -> FlowSample {
    FlowSample {
        at: arb_timestamp(rng),
        src_mac: arb_mac(rng),
        dst_mac: arb_mac(rng),
        src_ip: arb_addr(rng),
        dst_ip: arb_addr(rng),
        protocol: arb_protocol(rng),
        src_port: rng.gen(),
        dst_port: rng.gen(),
        packet_len: rng.gen(),
        fragment: rng.gen(),
    }
}

/// A flow log of `0..=max_len` arbitrary samples.
pub fn arb_flow_log<R: Rng>(rng: &mut R, max_len: usize) -> FlowLog {
    let n = rng.gen_range(0..=max_len);
    FlowLog::from_samples((0..n).map(|_| arb_flow_sample(rng)).collect())
}

/// An arbitrary JSON document of bounded depth.
///
/// Covers every `Json` lane the parser can produce: `U64` for non-negative
/// integers, `I64` strictly negative (the parser never yields a non-negative
/// `I64`), finite `F64`s across magnitudes, strings with escapes and
/// non-ASCII code points, and arrays/objects (including duplicate object
/// keys — the `Obj` representation keeps them).
pub fn arb_json<R: Rng>(rng: &mut R, max_depth: usize) -> Json {
    let variants = if max_depth == 0 { 6u32 } else { 8 };
    match rng.gen_range(0..variants) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => Json::U64(arb_u64(rng)),
        3 => Json::I64(-(arb_u64(rng).min(i64::MAX as u64) as i64) - 1),
        4 => Json::F64(arb_finite_f64(rng)),
        5 => Json::Str(arb_string(rng, 24)),
        6 => {
            let n = rng.gen_range(0..=4usize);
            Json::Arr((0..n).map(|_| arb_json(rng, max_depth - 1)).collect())
        }
        7 => {
            let n = rng.gen_range(0..=4usize);
            let mut entries: Vec<(String, Json)> = (0..n)
                .map(|_| (arb_string(rng, 8), arb_json(rng, max_depth - 1)))
                .collect();
            // Occasionally force a duplicate key; `Obj` preserves both.
            if entries.len() >= 2 && rng.gen_bool(0.1) {
                let key = entries[0].0.clone();
                entries[1].0 = key;
            }
            Json::Obj(entries)
        }
        _ => unreachable!(),
    }
}

/// A `u64` mixing uniform draws with boundary values.
fn arb_u64<R: Rng>(rng: &mut R) -> u64 {
    if rng.gen_bool(0.3) {
        *crate::mutate::INTERESTING_U64S
            .choose(rng)
            .expect("non-empty")
    } else {
        rng.gen()
    }
}

/// A finite `f64` spanning subnormals to huge magnitudes (never NaN/inf —
/// the writer maps those to `null`, which is a lossy lane the fixpoint
/// oracle tests separately).
fn arb_finite_f64<R: Rng>(rng: &mut R) -> f64 {
    let value = match rng.gen_range(0..4u32) {
        0 => rng.gen::<f64>(),                                  // [0, 1)
        1 => (rng.gen::<f64>() - 0.5) * 1e18,                   // large magnitudes
        2 => rng.gen::<f64>() * 1e-300,                         // near-subnormal
        _ => (rng.gen_range(-1_000_000..=1_000_000i64)) as f64, // integral
    };
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// A string mixing plain ASCII, JSON-escape-relevant characters, control
/// characters, and arbitrary non-surrogate code points.
pub fn arb_string<R: Rng>(rng: &mut R, max_len: usize) -> String {
    let n = rng.gen_range(0..=max_len);
    let mut out = String::with_capacity(n);
    for _ in 0..n {
        let c = match rng.gen_range(0..6u32) {
            0 | 1 => rng.gen_range(b' '..=b'~') as char,
            2 => *['"', '\\', '/', '\u{8}', '\u{c}', '\n', '\r', '\t']
                .choose(rng)
                .expect("non-empty"),
            3 => char::from(rng.gen_range(0u8..0x20)), // raw control range
            4 => '\u{FFFD}',
            _ => loop {
                // Any scalar value, including astral planes (forces the
                // writer's surrogate-pair escape path for some of them).
                if let Some(c) = char::from_u32(rng.gen_range(0..=0x10_FFFFu32)) {
                    break c;
                }
            },
        };
        out.push(c);
    }
    out
}

/// Assembles a corpus-container byte stream (`"RTBHCORP" | version |
/// u64-length-prefixed sections`) from raw section payloads. Structure-aware
/// fuzzing of `corpus_io::from_bytes` starts from this frame so mutations
/// concentrate on the framing logic instead of dying at the magic check.
pub fn corpus_container(sections: &[&[u8]]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(b"RTBHCORP");
    buf.extend_from_slice(&1u16.to_be_bytes());
    for section in sections {
        buf.extend_from_slice(&(section.len() as u64).to_be_bytes());
        buf.extend_from_slice(section);
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtbh_rng::ChaChaRng;

    #[test]
    fn generators_are_deterministic() {
        let run = |seed: u64| {
            let mut rng = ChaChaRng::seed_from_u64(seed);
            let log = arb_update_log(&mut rng, 20);
            let flows = arb_flow_log(&mut rng, 20);
            let json = arb_json(&mut rng, 4);
            (log, flows, rtbh_json::to_string(&json))
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn arb_json_respects_depth_zero() {
        let mut rng = ChaChaRng::seed_from_u64(3);
        for _ in 0..200 {
            match arb_json(&mut rng, 0) {
                Json::Arr(_) | Json::Obj(_) => panic!("depth 0 must be a leaf"),
                _ => {}
            }
        }
    }

    #[test]
    fn arb_i64_lane_is_strictly_negative() {
        let mut rng = ChaChaRng::seed_from_u64(4);
        for _ in 0..2_000 {
            if let Json::I64(v) = arb_json(&mut rng, 0) {
                assert!(v < 0, "parser never produces non-negative I64, got {v}");
            }
        }
    }

    #[test]
    fn arb_prefix_is_canonical() {
        let mut rng = ChaChaRng::seed_from_u64(5);
        for _ in 0..2_000 {
            let p = arb_prefix(&mut rng);
            assert_eq!(Prefix::new(p.network(), p.len()), Some(p));
        }
    }
}
