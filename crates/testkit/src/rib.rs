//! The per-router RIB model, kept as the oracle for the fabric's shared RIB.
//!
//! `rtbh_fabric::Fabric` keeps the routes of every router port in one
//! `rtbh_bgp::Rib`: one prefix trie whose slots hold router bitsets. This
//! model keeps what that table stands for, one router at a time: each
//! router owns a plain map from prefix to its regular route and blackhole
//! flag, every update is applied router by router through that router's
//! own import policy, and a lookup scans the whole map for the longest
//! covering prefix. Obviously correct and too slow to ship; the `rib_diff`
//! suite holds `Fabric::forward` to [`NaiveFabric::forward`] after every
//! step of random update sequences.

use std::collections::BTreeMap;

use rtbh_bgp::{BgpUpdate, ImportPolicy, UpdateKind};
use rtbh_fabric::{ForwardOutcome, Member, MemberId};
use rtbh_net::{Asn, Ipv4Addr, MacAddr, Prefix};

/// What one router installed for one prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct NaiveSlot {
    /// The origin of the regular route, if any.
    regular: Option<Asn>,
    /// Whether the blackhole route is installed.
    blackhole: bool,
}

/// One router port with its own route map.
#[derive(Debug, Clone)]
struct NaiveRouter {
    mac: MacAddr,
    policy: ImportPolicy,
    routes: BTreeMap<Prefix, NaiveSlot>,
}

impl NaiveRouter {
    fn apply(&mut self, update: &BgpUpdate) {
        let blackhole = update.is_blackhole();
        match update.kind {
            UpdateKind::Announce => {
                let accepted = if blackhole {
                    self.policy.accepts_blackhole(update.prefix)
                } else {
                    self.policy.accepts_regular(update.prefix)
                };
                if accepted {
                    let slot = self.routes.entry(update.prefix).or_default();
                    if blackhole {
                        slot.blackhole = true;
                    } else {
                        slot.regular = Some(update.origin);
                    }
                }
            }
            UpdateKind::Withdraw => {
                if let Some(slot) = self.routes.get_mut(&update.prefix) {
                    if blackhole {
                        slot.blackhole = false;
                    } else {
                        slot.regular = None;
                    }
                    if *slot == NaiveSlot::default() {
                        self.routes.remove(&update.prefix);
                    }
                }
            }
        }
    }

    /// The longest installed prefix covering `dst`, by a full scan.
    fn best(&self, dst: Ipv4Addr) -> Option<&NaiveSlot> {
        self.routes
            .iter()
            .filter(|(prefix, _)| prefix.contains_addr(dst))
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|(_, slot)| slot)
    }
}

/// One member: its ASN and router ports, primary port first.
#[derive(Debug, Clone)]
struct NaiveMember {
    asn: Asn,
    routers: Vec<NaiveRouter>,
}

/// A fabric whose every router keeps its own routes: the semantics
/// `rtbh_fabric::Fabric` implements with one shared table, with the same
/// method names and arguments.
#[derive(Debug, Clone)]
pub struct NaiveFabric {
    members: Vec<NaiveMember>,
    origin_member: BTreeMap<Asn, MemberId>,
}

impl NaiveFabric {
    /// A fabric of `members` (dense ids `0..n`, as `Fabric::new` requires)
    /// with no routes; every member is the egress for its own ASN.
    pub fn new(members: &[Member]) -> Self {
        let members: Vec<NaiveMember> = members
            .iter()
            .map(|m| NaiveMember {
                asn: m.asn,
                routers: m
                    .routers
                    .iter()
                    .map(|r| NaiveRouter {
                        mac: r.mac,
                        policy: r.policy,
                        routes: BTreeMap::new(),
                    })
                    .collect(),
            })
            .collect();
        let origin_member = members
            .iter()
            .enumerate()
            .map(|(i, m)| (m.asn, MemberId(i as u32)))
            .collect();
        Self {
            members,
            origin_member,
        }
    }

    /// Installs a regular route on every router, bypassing import policy,
    /// and makes `egress` the member that reaches `origin`.
    pub fn seed_regular_route(&mut self, prefix: Prefix, origin: Asn, egress: MemberId) {
        self.origin_member.insert(origin, egress);
        for router in self.members.iter_mut().flat_map(|m| &mut m.routers) {
            router.routes.entry(prefix).or_default().regular = Some(origin);
        }
    }

    /// Applies `update` on every router of every member whose ASN is in
    /// `recipients`; unknown ASNs are skipped.
    pub fn distribute(&mut self, update: &BgpUpdate, recipients: &[Asn]) {
        for peer in recipients {
            for member in self.members.iter_mut().filter(|m| m.asn == *peer) {
                for router in &mut member.routers {
                    router.apply(update);
                }
            }
        }
    }

    /// Applies `update` on every router of one member.
    pub fn apply_bilateral(&mut self, update: &BgpUpdate, member: MemberId) {
        for router in &mut self.members[member.0 as usize].routers {
            router.apply(update);
        }
    }

    /// What happens to a packet towards `dst` that `ingress` hands over on
    /// the port with MAC `ingress_mac` (the primary port if no port has
    /// that MAC).
    pub fn forward(
        &self,
        ingress: MemberId,
        ingress_mac: MacAddr,
        dst: Ipv4Addr,
    ) -> ForwardOutcome {
        let member = &self.members[ingress.0 as usize];
        let router = member
            .routers
            .iter()
            .find(|r| r.mac == ingress_mac)
            .unwrap_or(&member.routers[0]);
        match router.best(dst) {
            None => ForwardOutcome::Unroutable,
            Some(slot) if slot.blackhole => ForwardOutcome::Blackholed,
            Some(slot) => match slot.regular.and_then(|o| self.origin_member.get(&o)) {
                Some(&egress) => ForwardOutcome::Delivered {
                    member: egress,
                    mac: self.members[egress.0 as usize].routers[0].mac,
                },
                None => ForwardOutcome::Unroutable,
            },
        }
    }
}
