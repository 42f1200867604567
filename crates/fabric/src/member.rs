//! IXP members and their router ports.

use rtbh_bgp::ImportPolicy;
use rtbh_net::{Asn, MacAddr};

/// A stable, dense identifier for an IXP member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemberId(pub u32);

rtbh_json::impl_json! { transparent MemberId }

/// One physical router port a member connects to the fabric.
///
/// Each port has its own MAC (how the paper attributes handover ASes, §5.5)
/// and its own import policy; the routes it accepted live in the fabric's
/// shared RIB. Routers of the same member may run different import
/// policies — the paper's 13 "inconsistent" top-100 ASes drop part of their
/// traffic and forward the rest precisely because of such per-router
/// configuration drift (§4.2).
#[derive(Debug, Clone)]
pub struct RouterPort {
    /// The port's MAC address on the peering LAN.
    pub mac: MacAddr,
    /// The filter this router applies to received routes.
    pub policy: ImportPolicy,
}

rtbh_json::impl_json! { struct RouterPort { mac, policy } }

impl RouterPort {
    /// Creates a port with the given import policy.
    pub fn new(mac: MacAddr, policy: ImportPolicy) -> Self {
        Self { mac, policy }
    }
}

/// An IXP member: an AS with one or more router ports.
#[derive(Debug, Clone)]
pub struct Member {
    /// The member's identifier inside the fabric.
    pub id: MemberId,
    /// The member's AS number.
    pub asn: Asn,
    /// The member's router ports (at least one).
    pub routers: Vec<RouterPort>,
}

rtbh_json::impl_json! { struct Member { id, asn, routers } }

impl Member {
    /// Creates a member with the given router ports.
    ///
    /// # Panics
    /// Panics if `routers` is empty — a member without a port cannot peer.
    pub fn new(id: MemberId, asn: Asn, routers: Vec<RouterPort>) -> Self {
        assert!(
            !routers.is_empty(),
            "member must have at least one router port"
        );
        Self { id, asn, routers }
    }

    /// The member's primary port (used as the egress towards this member).
    pub fn primary_router(&self) -> &RouterPort {
        &self.routers[0]
    }

    /// Looks up one of the member's ports by MAC.
    pub fn router_by_mac(&self, mac: MacAddr) -> Option<&RouterPort> {
        self.routers.iter().find(|r| r.mac == mac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn member() -> Member {
        Member::new(
            MemberId(3),
            Asn(64500),
            vec![
                RouterPort::new(MacAddr::from_id(30), ImportPolicy::WHITELIST_32),
                RouterPort::new(MacAddr::from_id(31), ImportPolicy::DEFAULT_24),
            ],
        )
    }

    #[test]
    fn primary_router_is_first() {
        let m = member();
        assert_eq!(m.primary_router().mac, MacAddr::from_id(30));
    }

    #[test]
    fn router_lookup_by_mac() {
        let m = member();
        assert!(m.router_by_mac(MacAddr::from_id(31)).is_some());
        assert!(m.router_by_mac(MacAddr::from_id(99)).is_none());
    }

    #[test]
    fn per_router_policies_can_differ() {
        let m = member();
        assert!(m.routers[0].policy.accept_blackhole_32);
        assert!(!m.routers[1].policy.accept_blackhole_32);
    }

    #[test]
    #[should_panic(expected = "at least one router")]
    fn empty_member_rejected() {
        let _ = Member::new(MemberId(0), Asn(1), Vec::new());
    }
}
