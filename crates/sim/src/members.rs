//! Building the IXP member population: routers, import policies, registry.
//!
//! Policy classes are calibrated to §4.2 / Fig. 7 of the paper: among the
//! top traffic sources, roughly a third accept host (/32) blackhole routes,
//! over half reject them (vendor-default ≤/24 filters), and an eighth behave
//! inconsistently because their routers disagree. A small tail rejects even
//! ≤/24 blackholes (Fig. 6 shows /24 drop rates from 82–100%).

use rtbh_rng::{ChaChaRng, Rng, SliceRandom};

use rtbh_bgp::{ImportPolicy, RouteServer};
use rtbh_fabric::{Member, MemberId, RouterPort};
use rtbh_net::{Asn, MacAddr};
use rtbh_peeringdb::{Registry, TypeMix};

use crate::config::ScenarioConfig;

/// The route server's AS number (16-bit so classic distribution-control
/// communities encode it).
pub const ROUTE_SERVER_ASN: Asn = Asn(6695);

/// First member ASN; members are `BASE..BASE+count` (all 16-bit).
pub const MEMBER_ASN_BASE: u32 = 1001;

/// How a member's routers treat /32 blackhole routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyClass {
    /// All routers whitelist /32 blackholes.
    Accepting,
    /// All routers run vendor defaults (reject >/24).
    Rejecting,
    /// Routers disagree: some accept, some reject.
    Inconsistent,
    /// Fully open: accepts /25–/31 too.
    Full,
    /// Pathological: rejects all blackholes, even ≤/24.
    RejectAll,
}

/// The built population.
pub struct MemberPopulation {
    /// Fabric members, dense ids.
    pub members: Vec<Member>,
    /// Per-member policy class, parallel to `members`.
    pub classes: Vec<PolicyClass>,
    /// The AS registry covering the members.
    pub registry: Registry,
    /// The route server with all members as peers.
    pub route_server: RouteServer,
}

impl MemberPopulation {
    /// Member ASNs of one class.
    pub fn asns_of(&self, class: PolicyClass) -> Vec<Asn> {
        self.members
            .iter()
            .zip(&self.classes)
            .filter(|(_, c)| **c == class)
            .map(|(m, _)| m.asn)
            .collect()
    }

    /// All member ASNs in id order.
    pub fn member_asns(&self) -> Vec<Asn> {
        self.members.iter().map(|m| m.asn).collect()
    }
}

/// Shares of the policy classes (Accepting, Rejecting, Inconsistent, Full,
/// RejectAll). Calibrated so traffic-weighted /32 drop rates land near the
/// paper's ~50% once attack handover weighting is applied.
const CLASS_SHARES: [(PolicyClass, f64); 5] = [
    (PolicyClass::Accepting, 0.32),
    (PolicyClass::Rejecting, 0.50),
    (PolicyClass::Inconsistent, 0.13),
    (PolicyClass::Full, 0.02),
    (PolicyClass::RejectAll, 0.03),
];

fn reject_all_policy() -> ImportPolicy {
    ImportPolicy {
        accept_blackhole_le24: false,
        accept_blackhole_25_31: false,
        accept_blackhole_32: false,
        accept_regular: true,
    }
}

/// Builds the member population for a scenario.
pub fn build(config: &ScenarioConfig, rng: &mut ChaChaRng) -> MemberPopulation {
    let count = config.members as usize;
    // Deterministic class assignment: exact shares, then shuffled.
    let mut classes: Vec<PolicyClass> = Vec::with_capacity(count);
    for &(class, share) in &CLASS_SHARES {
        let n = (count as f64 * share).round() as usize;
        classes.extend(std::iter::repeat(class).take(n));
    }
    classes.truncate(count);
    while classes.len() < count {
        classes.push(PolicyClass::Rejecting);
    }
    classes.shuffle(rng);

    let mut registry = Registry::new();
    let mut members = Vec::with_capacity(count);
    let mut mac_counter: u32 = 1;
    for (i, class) in classes.iter().enumerate() {
        let asn = Asn(MEMBER_ASN_BASE + i as u32);
        registry.ensure(asn, &TypeMix::MEMBERS, rng);
        let router_policies: Vec<ImportPolicy> = match class {
            PolicyClass::Accepting => {
                let n = rng.gen_range(1..=2);
                vec![ImportPolicy::WHITELIST_32; n]
            }
            PolicyClass::Rejecting => {
                let n = rng.gen_range(1..=2);
                vec![ImportPolicy::DEFAULT_24; n]
            }
            PolicyClass::Inconsistent => {
                let mut v = vec![ImportPolicy::WHITELIST_32, ImportPolicy::DEFAULT_24];
                if rng.gen_bool(0.3) {
                    v.push(ImportPolicy::WHITELIST_32);
                }
                v
            }
            PolicyClass::Full => vec![ImportPolicy::FULL],
            PolicyClass::RejectAll => vec![reject_all_policy()],
        };
        let routers: Vec<RouterPort> = router_policies
            .into_iter()
            .map(|policy| {
                let mac = MacAddr::from_id(mac_counter);
                mac_counter += 1;
                RouterPort::new(mac, policy)
            })
            .collect();
        members.push(Member::new(MemberId(i as u32), asn, routers));
    }

    let route_server = RouteServer::new(ROUTE_SERVER_ASN, members.iter().map(|m| m.asn));
    MemberPopulation {
        members,
        classes,
        registry,
        route_server,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population() -> MemberPopulation {
        let mut rng = ChaChaRng::seed_from_u64(1);
        build(&ScenarioConfig::paper(), &mut rng)
    }

    #[test]
    fn member_count_and_unique_asns() {
        let pop = population();
        assert_eq!(pop.members.len(), 830);
        let mut asns = pop.member_asns();
        asns.sort();
        asns.dedup();
        assert_eq!(asns.len(), 830);
        assert!(asns.iter().all(|a| a.is_16bit()));
    }

    #[test]
    fn class_shares_are_respected() {
        let pop = population();
        let share = |c| pop.asns_of(c).len() as f64 / 830.0;
        assert!((share(PolicyClass::Accepting) - 0.32).abs() < 0.02);
        assert!((share(PolicyClass::Rejecting) - 0.50).abs() < 0.02);
        assert!((share(PolicyClass::Inconsistent) - 0.13).abs() < 0.02);
    }

    #[test]
    fn inconsistent_members_have_disagreeing_routers() {
        let pop = population();
        for asn in pop.asns_of(PolicyClass::Inconsistent) {
            let m = pop.members.iter().find(|m| m.asn == asn).unwrap();
            let accepts: Vec<bool> = m
                .routers
                .iter()
                .map(|r| r.policy.accept_blackhole_32)
                .collect();
            assert!(
                accepts.iter().any(|a| *a) && accepts.iter().any(|a| !*a),
                "{asn}"
            );
        }
    }

    #[test]
    fn macs_are_unique_and_not_blackhole() {
        let pop = population();
        let mut macs: Vec<MacAddr> = pop
            .members
            .iter()
            .flat_map(|m| m.routers.iter().map(|r| r.mac))
            .collect();
        let total = macs.len();
        macs.sort();
        macs.dedup();
        assert_eq!(macs.len(), total);
        assert!(macs.iter().all(|m| !m.is_blackhole()));
    }

    #[test]
    fn registry_covers_all_members() {
        let pop = population();
        for asn in pop.member_asns() {
            assert!(pop.registry.get(asn).is_some(), "{asn}");
        }
    }

    #[test]
    fn route_server_peers_everyone() {
        let pop = population();
        assert_eq!(pop.route_server.peer_count(), 830);
        assert_eq!(pop.route_server.asn(), ROUTE_SERVER_ASN);
    }

    #[test]
    fn build_is_deterministic() {
        let a = population();
        let b = population();
        assert_eq!(a.member_asns(), b.member_asns());
        assert_eq!(a.classes, b.classes);
    }
}
