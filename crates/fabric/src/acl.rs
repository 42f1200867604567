//! Fabric-level fine-grained filtering — "Advanced Blackholing".
//!
//! The paper contrasts RTBH with *Advanced Blackholing* (Dietzel et al.,
//! CoNEXT 2018, the paper's reference \[6\]): instead of asking every peer to
//! accept a blackhole route, the IXP operator installs fine-grained filter
//! rules directly **on the switching fabric**, so mitigation works even for
//! the ~55% of traffic whose carriers never accept /32 routes, and only the
//! attack's signature is dropped.
//!
//! This module bolts a [`rtbh_bgp::FlowSpecTable`] onto the fabric: the
//! ingress pipeline consults the ACL *before* the ingress router's routes,
//! which is exactly the deployment model (the fabric filters, regardless of
//! member BGP policy).

use rtbh_bgp::{FlowAction, FlowSpecTable};
use rtbh_net::{Ipv4Addr, MacAddr, Port, Protocol};

use crate::fabric::{Fabric, ForwardOutcome};
use crate::member::MemberId;

/// The five-tuple (+ fragment flag) the fabric ACL matches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketTuple {
    /// Source IP.
    pub src_ip: Ipv4Addr,
    /// Destination IP.
    pub dst_ip: Ipv4Addr,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Source port (0 if none).
    pub src_port: Port,
    /// Destination port (0 if none).
    pub dst_port: Port,
    /// Non-initial fragment?
    pub fragment: bool,
}

rtbh_json::impl_json! {
    struct PacketTuple { src_ip, dst_ip, protocol, src_port, dst_port, fragment }
}

/// A fabric with an operator-installed ACL in front of the RIB lookup.
#[derive(Debug, Clone, Default)]
pub struct FilteringFabric {
    fabric: Fabric,
    acl: FlowSpecTable,
}

rtbh_json::impl_json! { struct FilteringFabric { fabric, acl } }

impl FilteringFabric {
    /// Wraps a fabric with an (initially empty) ACL.
    pub fn new(fabric: Fabric) -> Self {
        Self {
            fabric,
            acl: FlowSpecTable::new(),
        }
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Mutable access to the underlying fabric (route distribution etc.).
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// The installed ACL.
    pub fn acl(&self) -> &FlowSpecTable {
        &self.acl
    }

    /// Installs (replaces) the operator ACL.
    pub fn install_acl(&mut self, acl: FlowSpecTable) {
        self.acl = acl;
    }

    /// Appends one rule to the operator ACL.
    pub fn push_rule(&mut self, rule: rtbh_bgp::FlowSpecRule) {
        self.acl.push(rule);
    }

    /// Removes all rules.
    pub fn clear_acl(&mut self) {
        self.acl = FlowSpecTable::new();
    }

    /// The forwarding decision with the ACL consulted first: a matching
    /// discard rule drops the packet at the fabric (reported as
    /// [`ForwardOutcome::Blackholed`] — at the vantage point a fabric drop
    /// looks the same as a blackhole-MAC rewrite); otherwise the ingress
    /// router's RIB decides as usual.
    pub fn forward(
        &self,
        ingress: MemberId,
        ingress_mac: MacAddr,
        tuple: PacketTuple,
    ) -> ForwardOutcome {
        match self.acl.evaluate(
            tuple.src_ip,
            tuple.dst_ip,
            tuple.protocol,
            tuple.src_port,
            tuple.dst_port,
            tuple.fragment,
        ) {
            FlowAction::Discard => ForwardOutcome::Blackholed,
            FlowAction::RateLimit(_) | FlowAction::Accept => {
                self.fabric.forward(ingress, ingress_mac, tuple.dst_ip)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::member::{Member, RouterPort};
    use rtbh_bgp::{amplification_mitigation, ImportPolicy};
    use rtbh_net::{Asn, Prefix, Timestamp};

    fn base_fabric() -> Fabric {
        let m0 = Member::new(
            MemberId(0),
            Asn(100),
            vec![RouterPort::new(
                MacAddr::from_id(1),
                ImportPolicy::DEFAULT_24,
            )],
        );
        let m1 = Member::new(
            MemberId(1),
            Asn(200),
            vec![RouterPort::new(
                MacAddr::from_id(2),
                ImportPolicy::DEFAULT_24,
            )],
        );
        let mut fabric = Fabric::new(vec![m0, m1]);
        fabric.seed_regular_route(
            "203.0.113.0/24".parse().unwrap(),
            Asn(100),
            MemberId(0),
            Timestamp::EPOCH,
        );
        fabric
    }

    fn amp_tuple() -> PacketTuple {
        PacketTuple {
            src_ip: "20.0.0.5".parse().unwrap(),
            dst_ip: "203.0.113.7".parse().unwrap(),
            protocol: Protocol::Udp,
            src_port: 389,
            dst_port: 50_000,
            fragment: false,
        }
    }

    fn legit_tuple() -> PacketTuple {
        PacketTuple {
            src_ip: "100.64.0.9".parse().unwrap(),
            dst_ip: "203.0.113.7".parse().unwrap(),
            protocol: Protocol::Tcp,
            src_port: 51_000,
            dst_port: 443,
            fragment: false,
        }
    }

    #[test]
    fn empty_acl_delegates_to_rib() {
        let ff = FilteringFabric::new(base_fabric());
        let out = ff.forward(MemberId(1), MacAddr::from_id(2), amp_tuple());
        assert!(matches!(
            out,
            ForwardOutcome::Delivered {
                member: MemberId(0),
                ..
            }
        ));
    }

    #[test]
    fn acl_drops_attack_but_not_legit_even_when_rib_rejects_rtbh() {
        // The members run vendor-default policies that would reject a /32
        // blackhole — advanced blackholing protects the victim anyway.
        let mut ff = FilteringFabric::new(base_fabric());
        let victim: Prefix = "203.0.113.7/32".parse().unwrap();
        ff.install_acl(amplification_mitigation(victim));
        assert_eq!(
            ff.forward(MemberId(1), MacAddr::from_id(2), amp_tuple()),
            ForwardOutcome::Blackholed
        );
        assert!(matches!(
            ff.forward(MemberId(1), MacAddr::from_id(2), legit_tuple()),
            ForwardOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn fragment_rule_catches_fragments() {
        let mut ff = FilteringFabric::new(base_fabric());
        ff.install_acl(amplification_mitigation("203.0.113.7/32".parse().unwrap()));
        let mut frag = amp_tuple();
        frag.src_port = 0;
        frag.dst_port = 0;
        frag.fragment = true;
        assert_eq!(
            ff.forward(MemberId(1), MacAddr::from_id(2), frag),
            ForwardOutcome::Blackholed
        );
    }

    #[test]
    fn clear_acl_restores_forwarding() {
        let mut ff = FilteringFabric::new(base_fabric());
        ff.install_acl(amplification_mitigation("203.0.113.7/32".parse().unwrap()));
        ff.clear_acl();
        assert!(ff.acl().is_empty());
        assert!(matches!(
            ff.forward(MemberId(1), MacAddr::from_id(2), amp_tuple()),
            ForwardOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn other_destinations_are_untouched() {
        let mut ff = FilteringFabric::new(base_fabric());
        ff.install_acl(amplification_mitigation("203.0.113.7/32".parse().unwrap()));
        // Same signature, different destination inside the /24.
        let mut other = amp_tuple();
        other.dst_ip = "203.0.113.9".parse().unwrap();
        assert!(matches!(
            ff.forward(MemberId(1), MacAddr::from_id(2), other),
            ForwardOutcome::Delivered { .. }
        ));
    }
}
