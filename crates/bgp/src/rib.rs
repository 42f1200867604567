//! The fabric-wide routing information base (RIB).
//!
//! A RIB stores the routes each router accepted and answers the only
//! question the data plane asks: *given a router and a destination address,
//! is that router's best route a blackhole?* Longest-prefix match means an
//! accepted `/32` blackhole beats the covering regular route, which is the
//! entire mechanism of RTBH (paper §2.1).
//!
//! One table serves every router of the fabric. Routers are dense ids
//! `0..n`, each with its own [`ImportPolicy`]; every prefix holds one slot
//! that records *which* routers installed which route, as router bitsets.
//! Each slot keeps the blackhole route apart from the regular routes:
//! withdrawing a blackhole must never tear down the underlying
//! reachability, even when both share the same prefix. Regular routes are
//! grouped by origin, so two routers can still hold different regular
//! routes for one prefix. A route-server update therefore costs one trie
//! walk plus one policy check and one bit flip per recipient router.

use rtbh_net::{Asn, Ipv4Addr, Prefix, PrefixTrie};

use crate::policy::ImportPolicy;
use crate::update::{BgpUpdate, UpdateKind};

/// A set of dense router ids, one bit each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct RouterSet(Vec<u64>);

rtbh_json::impl_json! { transparent RouterSet }

impl RouterSet {
    /// Every router in `0..n`.
    fn all(n: usize) -> Self {
        let mut words = vec![u64::MAX; n / 64];
        if n % 64 != 0 {
            words.push((1u64 << (n % 64)) - 1);
        }
        Self(words)
    }

    fn contains(&self, router: usize) -> bool {
        self.0
            .get(router / 64)
            .is_some_and(|w| w >> (router % 64) & 1 == 1)
    }

    /// Adds `router`; true if it was absent.
    fn insert(&mut self, router: usize) -> bool {
        let word = router / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let bit = 1u64 << (router % 64);
        let absent = self.0[word] & bit == 0;
        self.0[word] |= bit;
        absent
    }

    /// Removes `router`; true if it was present.
    fn remove(&mut self, router: usize) -> bool {
        let bit = 1u64 << (router % 64);
        match self.0.get_mut(router / 64) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                true
            }
            _ => false,
        }
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }
}

/// The routes installed for one prefix, by router.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Slot {
    /// Routers holding the blackhole route.
    blackhole: RouterSet,
    /// Regular routes grouped by origin; a router sits in at most one group.
    regular: Vec<(Asn, RouterSet)>,
}

rtbh_json::impl_json! { struct Slot { blackhole, regular } }

impl Slot {
    fn holds(&self, router: usize) -> bool {
        self.blackhole.contains(router) || self.regular_origin(router).is_some()
    }

    fn regular_origin(&self, router: usize) -> Option<Asn> {
        self.regular
            .iter()
            .find(|(_, set)| set.contains(router))
            .map(|(origin, _)| *origin)
    }

    /// Installs a regular route towards `origin` on `router`, replacing the
    /// one it held; true if the router's route changed.
    fn set_regular(&mut self, router: usize, origin: Asn) -> bool {
        if self.regular_origin(router) == Some(origin) {
            return false;
        }
        self.clear_regular(router);
        match self.regular.iter_mut().find(|(o, _)| *o == origin) {
            Some((_, set)) => {
                set.insert(router);
            }
            None => {
                let mut set = RouterSet::default();
                set.insert(router);
                self.regular.push((origin, set));
            }
        }
        true
    }

    /// Removes `router`'s regular route; true if it held one.
    fn clear_regular(&mut self, router: usize) -> bool {
        let Some(i) = self.regular.iter().position(|(_, s)| s.contains(router)) else {
            return false;
        };
        self.regular[i].1.remove(router);
        if self.regular[i].1.is_empty() {
            self.regular.swap_remove(i);
        }
        true
    }

    fn is_empty(&self) -> bool {
        self.blackhole.is_empty() && self.regular.is_empty()
    }
}

/// The forwarding decision for a destination address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forwarding {
    /// Best route is a blackhole: the packet is discarded at the IXP.
    Blackholed,
    /// Best route is a regular route towards `origin`.
    Forward(Asn),
    /// No route at all (packet would be dropped before the fabric; treated
    /// as forward-to-nowhere by analyses, it never produces samples).
    NoRoute,
}

rtbh_json::impl_json! { enum Forwarding { Blackholed, Forward(rtbh_net::Asn), NoRoute } }

/// The routes of every router of a fabric, in one prefix table, with
/// policy-filtered installation per router.
#[derive(Debug, Clone, Default)]
pub struct Rib {
    routes: PrefixTrie<Slot>,
    /// Import policy per dense router id.
    policies: Vec<ImportPolicy>,
}

rtbh_json::impl_json! { struct Rib { routes, policies } }

impl Rib {
    /// An empty RIB for routers `0..policies.len()`, router `i` filtering
    /// through `policies[i]`.
    pub fn new(policies: Vec<ImportPolicy>) -> Self {
        Self {
            routes: PrefixTrie::new(),
            policies,
        }
    }

    /// Applies a received update on each router in `routers`. Returns `true`
    /// if any router's routes changed.
    ///
    /// Announcements are subject to each router's import policy;
    /// withdrawals always remove whatever the router installed in the
    /// matching slot (a router does not keep routes its neighbour
    /// retracted). Blackhole withdrawals only clear the blackhole route.
    ///
    /// # Panics
    /// Panics if an announcement names a router id out of range.
    pub fn apply(&mut self, update: &BgpUpdate, routers: impl IntoIterator<Item = usize>) -> bool {
        let blackhole = update.is_blackhole();
        let prefix = update.prefix;
        let mut changed = false;
        match update.kind {
            UpdateKind::Announce => {
                let policies = &self.policies;
                let mut accepted = routers
                    .into_iter()
                    .filter(|&router| {
                        let policy = &policies[router];
                        if blackhole {
                            policy.accepts_blackhole(prefix)
                        } else {
                            policy.accepts_regular(prefix)
                        }
                    })
                    .peekable();
                if accepted.peek().is_none() {
                    return false;
                }
                let slot = self.routes.get_or_insert_with(prefix, Slot::default);
                for router in accepted {
                    changed |= if blackhole {
                        slot.blackhole.insert(router)
                    } else {
                        slot.set_regular(router, update.origin)
                    };
                }
            }
            UpdateKind::Withdraw => {
                let Some(slot) = self.routes.get_mut(prefix) else {
                    return false;
                };
                for router in routers {
                    changed |= if blackhole {
                        slot.blackhole.remove(router)
                    } else {
                        slot.clear_regular(router)
                    };
                }
                if slot.is_empty() {
                    self.routes.remove(prefix);
                }
            }
        }
        changed
    }

    /// Installs a regular route towards `origin` on every router at once,
    /// replacing whatever regular route they held (used to seed baseline
    /// reachability without synthesising full BGP churn for every member
    /// prefix).
    pub fn install_regular(&mut self, prefix: Prefix, origin: Asn) {
        let all = RouterSet::all(self.policies.len());
        self.routes
            .get_or_insert_with(prefix, Slot::default)
            .regular = vec![(origin, all)];
    }

    /// `router`'s forwarding decision for `dst` by longest-prefix match over
    /// the prefixes that router holds a route for. At the most specific
    /// such prefix, an installed blackhole wins over the regular route
    /// (operators set blackhole routes up to be preferred).
    pub fn decide(&self, router: usize, dst: Ipv4Addr) -> Forwarding {
        match self.routes.longest_match_by(dst, |slot| slot.holds(router)) {
            Some((_, slot)) if slot.blackhole.contains(router) => Forwarding::Blackholed,
            Some((_, slot)) => match slot.regular_origin(router) {
                Some(origin) => Forwarding::Forward(origin),
                None => Forwarding::NoRoute,
            },
            None => Forwarding::NoRoute,
        }
    }

    /// Number of prefixes at least one router holds a route for.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True if no router holds any route.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::testutil::{bh_announce, bh_withdraw};

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// A one-router RIB with a seeded covering /24.
    fn seeded_rib(policy: ImportPolicy) -> Rib {
        let mut rib = Rib::new(vec![policy]);
        rib.install_regular("203.0.113.0/24".parse().unwrap(), Asn(64500));
        rib
    }

    fn regular(update: BgpUpdate, origin: u32) -> BgpUpdate {
        BgpUpdate {
            origin: Asn(origin),
            communities: Vec::new(),
            ..update
        }
    }

    #[test]
    fn accepted_blackhole_wins_by_longest_match() {
        let mut rib = seeded_rib(ImportPolicy::WHITELIST_32);
        assert_eq!(
            rib.decide(0, addr("203.0.113.7")),
            Forwarding::Forward(Asn(64500))
        );
        assert!(rib.apply(&bh_announce(0, 64500, "203.0.113.7/32"), [0]));
        assert_eq!(rib.decide(0, addr("203.0.113.7")), Forwarding::Blackholed);
        // Neighbouring host unaffected.
        assert_eq!(
            rib.decide(0, addr("203.0.113.8")),
            Forwarding::Forward(Asn(64500))
        );
    }

    #[test]
    fn rejected_blackhole_keeps_forwarding() {
        let mut rib = seeded_rib(ImportPolicy::DEFAULT_24);
        assert!(!rib.apply(&bh_announce(0, 64500, "203.0.113.7/32"), [0]));
        assert_eq!(
            rib.decide(0, addr("203.0.113.7")),
            Forwarding::Forward(Asn(64500))
        );
        assert_eq!(rib.len(), 1, "a rejected route leaves no slot behind");
    }

    #[test]
    fn le24_blackhole_accepted_by_default_policy() {
        let mut rib = seeded_rib(ImportPolicy::DEFAULT_24);
        assert!(rib.apply(&bh_announce(0, 64500, "203.0.113.0/24"), [0]));
        assert_eq!(rib.decide(0, addr("203.0.113.250")), Forwarding::Blackholed);
    }

    #[test]
    fn withdraw_restores_regular_route() {
        let mut rib = seeded_rib(ImportPolicy::WHITELIST_32);
        rib.apply(&bh_announce(0, 64500, "203.0.113.7/32"), [0]);
        assert!(rib.apply(&bh_withdraw(5, 64500, "203.0.113.7/32"), [0]));
        assert_eq!(
            rib.decide(0, addr("203.0.113.7")),
            Forwarding::Forward(Asn(64500))
        );
        // A second withdraw is a no-op.
        assert!(!rib.apply(&bh_withdraw(6, 64500, "203.0.113.7/32"), [0]));
        assert_eq!(rib.len(), 1, "the emptied /32 slot is removed");
    }

    #[test]
    fn blackhole_on_seeded_prefix_coexists_with_regular_route() {
        // Announcing and withdrawing a blackhole for EXACTLY a prefix with a
        // regular route must leave the regular route untouched (the property
        // test that motivated keeping the two apart in a slot).
        let mut rib = seeded_rib(ImportPolicy::FULL);
        let before = rib.decide(0, addr("203.0.113.9"));
        assert!(rib.apply(&bh_announce(0, 64500, "203.0.113.0/24"), [0]));
        assert_eq!(rib.decide(0, addr("203.0.113.9")), Forwarding::Blackholed);
        assert!(rib.apply(&bh_withdraw(5, 64500, "203.0.113.0/24"), [0]));
        assert_eq!(rib.decide(0, addr("203.0.113.9")), before);
    }

    #[test]
    fn no_route_without_any_installation() {
        let rib = Rib::new(vec![ImportPolicy::FULL]);
        assert_eq!(rib.decide(0, addr("8.8.8.8")), Forwarding::NoRoute);
        assert!(rib.is_empty());
    }

    #[test]
    fn host_blackholes_get_their_own_slots() {
        let mut rib = seeded_rib(ImportPolicy::FULL);
        rib.apply(&bh_announce(0, 64500, "203.0.113.7/32"), [0]);
        rib.apply(&bh_announce(0, 64500, "203.0.113.9/32"), [0]);
        assert_eq!(rib.len(), 3);
        assert_eq!(rib.decide(0, addr("203.0.113.9")), Forwarding::Blackholed);
        assert_eq!(
            rib.decide(0, addr("203.0.113.8")),
            Forwarding::Forward(Asn(64500))
        );
    }

    #[test]
    fn regular_announcement_subject_to_regular_policy() {
        let mut rib = Rib::new(vec![ImportPolicy::DEFAULT_24]);
        let u = regular(bh_announce(0, 64500, "198.51.100.0/24"), 64500);
        assert!(rib.apply(&u, [0]));
        let long = regular(bh_announce(0, 64500, "198.51.100.128/25"), 64500);
        assert!(
            !rib.apply(&long, [0]),
            "regular /25 rejected by default filter"
        );
    }

    #[test]
    fn regular_withdraw_clears_only_regular_route() {
        let mut rib = Rib::new(vec![ImportPolicy::FULL]);
        rib.apply(
            &regular(bh_announce(0, 64500, "198.51.100.0/24"), 64500),
            [0],
        );
        rib.apply(&bh_announce(1, 64500, "198.51.100.0/24"), [0]); // blackhole route
        let withdraw = regular(bh_withdraw(2, 64500, "198.51.100.0/24"), 64500);
        assert!(rib.apply(&withdraw, [0]));
        // Blackhole remains in force.
        assert_eq!(rib.decide(0, addr("198.51.100.9")), Forwarding::Blackholed);
    }

    #[test]
    fn routers_keep_their_own_view_of_one_prefix() {
        // Router 0 whitelists /32, router 1 keeps the vendor default: one
        // announcement, two decisions.
        let mut rib = Rib::new(vec![ImportPolicy::WHITELIST_32, ImportPolicy::DEFAULT_24]);
        rib.install_regular("203.0.113.0/24".parse().unwrap(), Asn(64500));
        assert!(rib.apply(&bh_announce(0, 64500, "203.0.113.7/32"), [0, 1]));
        let victim = addr("203.0.113.7");
        assert_eq!(rib.decide(0, victim), Forwarding::Blackholed);
        assert_eq!(rib.decide(1, victim), Forwarding::Forward(Asn(64500)));
    }

    #[test]
    fn routers_hold_different_regular_routes_for_one_prefix() {
        // Router 1 alone re-learns the seeded /24 towards another origin
        // (and a covering /23); router 0 keeps the seeded route.
        let mut rib = Rib::new(vec![ImportPolicy::FULL; 2]);
        rib.install_regular("198.51.100.0/24".parse().unwrap(), Asn(1));
        rib.apply(&regular(bh_announce(0, 2, "198.51.100.0/23"), 2), [1]);
        let more = regular(bh_announce(0, 3, "198.51.100.0/24"), 3);
        assert!(rib.apply(&more, [1]));
        let dst = addr("198.51.100.1");
        assert_eq!(rib.decide(0, dst), Forwarding::Forward(Asn(1)));
        assert_eq!(rib.decide(1, dst), Forwarding::Forward(Asn(3)));
        // Withdrawing router 1's regular route leaves it the /23 only.
        let wd = regular(bh_withdraw(1, 3, "198.51.100.0/24"), 3);
        assert!(rib.apply(&wd, [1]));
        assert_eq!(rib.decide(1, dst), Forwarding::Forward(Asn(2)));
        assert_eq!(rib.decide(0, dst), Forwarding::Forward(Asn(1)));
    }

    #[test]
    fn router_sets_span_word_boundaries() {
        let mut rib = Rib::new(vec![ImportPolicy::FULL; 130]);
        rib.install_regular("203.0.113.0/24".parse().unwrap(), Asn(7));
        rib.apply(&bh_announce(0, 7, "203.0.113.7/32"), [63, 64, 129]);
        let victim = addr("203.0.113.7");
        for router in 0..130 {
            let want = if [63, 64, 129].contains(&router) {
                Forwarding::Blackholed
            } else {
                Forwarding::Forward(Asn(7))
            };
            assert_eq!(rib.decide(router, victim), want, "router {router}");
        }
    }
}
