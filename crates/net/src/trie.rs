//! A binary prefix trie with longest-prefix matching.
//!
//! This is the lookup structure behind every RIB in the workspace: a router
//! that received both `203.0.113.0/24` (regular route) and `203.0.113.7/32`
//! (blackhole) forwards by **longest prefix match**, which is exactly why an
//! accepted `/32` RTBH route captures the victim's traffic (paper §2.1).
//!
//! Nodes live in a `Vec` arena. Removal only clears the stored value: the
//! path's nodes stay allocated and are reclaimed by [`PrefixTrie::clear`]
//! alone, so the arena grows with the number of distinct prefixes ever
//! inserted. The fabric's one shared RIB keeps that bound at the distinct
//! announced prefixes, not that number times the routers. The trie is not
//! self-balancing — IPv4 depth is bounded by 32, so worst-case operations are
//! O(32).

use crate::addr::Ipv4Addr;
use crate::prefix::Prefix;

#[derive(Debug, Clone)]
struct Node<T> {
    /// Child node indices for bit 0 / bit 1 at this depth.
    children: [Option<u32>; 2],
    /// The value stored for the prefix ending at this node, if any.
    value: Option<T>,
}

impl<T> Node<T> {
    fn new() -> Self {
        Self {
            children: [None, None],
            value: None,
        }
    }
}

/// A map from [`Prefix`] to `T` supporting exact and longest-prefix lookups.
///
/// ```
/// use rtbh_net::{Ipv4Addr, Prefix, PrefixTrie};
///
/// let mut rib = PrefixTrie::new();
/// rib.insert("203.0.113.0/24".parse().unwrap(), "regular");
/// rib.insert("203.0.113.7/32".parse().unwrap(), "blackhole");
///
/// let victim: Ipv4Addr = "203.0.113.7".parse().unwrap();
/// let other: Ipv4Addr = "203.0.113.8".parse().unwrap();
/// assert_eq!(rib.longest_match(victim).unwrap().1, &"blackhole");
/// assert_eq!(rib.longest_match(other).unwrap().1, &"regular");
/// ```
#[derive(Debug, Clone)]
pub struct PrefixTrie<T> {
    nodes: Vec<Node<T>>,
    len: usize,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// Creates an empty trie.
    pub fn new() -> Self {
        Self {
            nodes: vec![Node::new()],
            len: 0,
        }
    }

    /// The number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node::new());
        self.len = 0;
    }

    /// Walks to the node for `prefix`, creating missing nodes.
    fn node_for_insert(&mut self, prefix: Prefix) -> usize {
        let mut idx = 0usize;
        for depth in 0..prefix.len() {
            let bit = prefix.bit(depth) as usize;
            idx = match self.nodes[idx].children[bit] {
                Some(child) => child as usize,
                None => {
                    let child = self.nodes.len();
                    self.nodes.push(Node::new());
                    self.nodes[idx].children[bit] = Some(child as u32);
                    child
                }
            };
        }
        idx
    }

    /// Walks to the node for `prefix` without creating nodes.
    fn node_for_lookup(&self, prefix: Prefix) -> Option<usize> {
        let mut idx = 0usize;
        for depth in 0..prefix.len() {
            let bit = prefix.bit(depth) as usize;
            idx = self.nodes[idx].children[bit]? as usize;
        }
        Some(idx)
    }

    /// Inserts or replaces the value for `prefix`, returning the old value.
    pub fn insert(&mut self, prefix: Prefix, value: T) -> Option<T> {
        let idx = self.node_for_insert(prefix);
        let old = self.nodes[idx].value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes and returns the value for exactly `prefix`.
    pub fn remove(&mut self, prefix: Prefix) -> Option<T> {
        let idx = self.node_for_lookup(prefix)?;
        let old = self.nodes[idx].value.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The value stored for exactly `prefix`.
    pub fn get(&self, prefix: Prefix) -> Option<&T> {
        self.nodes[self.node_for_lookup(prefix)?].value.as_ref()
    }

    /// Mutable access to the value stored for exactly `prefix`.
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut T> {
        let idx = self.node_for_lookup(prefix)?;
        self.nodes[idx].value.as_mut()
    }

    /// Inserts `make()` for `prefix` unless a value is already stored, then
    /// returns the stored value: one walk either way.
    pub fn get_or_insert_with(&mut self, prefix: Prefix, make: impl FnOnce() -> T) -> &mut T {
        let idx = self.node_for_insert(prefix);
        let node = &mut self.nodes[idx];
        if node.value.is_none() {
            self.len += 1;
        }
        node.value.get_or_insert_with(make)
    }

    /// The most specific stored prefix containing `addr`, with its value.
    pub fn longest_match(&self, addr: Ipv4Addr) -> Option<(Prefix, &T)> {
        self.longest_match_by(addr, |_| true)
    }

    /// The most specific stored prefix containing `addr` whose value
    /// satisfies `pred`, with that value. Values failing `pred` are skipped
    /// as if absent, within the same single walk.
    pub fn longest_match_by(
        &self,
        addr: Ipv4Addr,
        mut pred: impl FnMut(&T) -> bool,
    ) -> Option<(Prefix, &T)> {
        let mut best: Option<(Prefix, &T)> = None;
        let mut idx = 0usize;
        let bits = addr.to_u32();
        for depth in 0..=32u8 {
            if let Some(value) = self.nodes[idx].value.as_ref().filter(|v| pred(v)) {
                // Reconstruct the canonical prefix at this depth.
                let p = Prefix::new(addr, depth).expect("depth <= 32");
                best = Some((p, value));
            }
            if depth == 32 {
                break;
            }
            let bit = ((bits >> (31 - depth as u32)) & 1) as usize;
            match self.nodes[idx].children[bit] {
                Some(child) => idx = child as usize,
                None => break,
            }
        }
        best
    }

    /// All stored prefixes containing `addr`, least specific first.
    pub fn matches(&self, addr: Ipv4Addr) -> Vec<(Prefix, &T)> {
        let mut out = Vec::new();
        let mut idx = 0usize;
        let bits = addr.to_u32();
        for depth in 0..=32u8 {
            if let Some(value) = self.nodes[idx].value.as_ref() {
                out.push((Prefix::new(addr, depth).expect("depth <= 32"), value));
            }
            if depth == 32 {
                break;
            }
            let bit = ((bits >> (31 - depth as u32)) & 1) as usize;
            match self.nodes[idx].children[bit] {
                Some(child) => idx = child as usize,
                None => break,
            }
        }
        out
    }

    /// Iterates over all `(prefix, value)` pairs in lexicographic
    /// (network bits, length) order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &T)> + '_ {
        // Depth-first walk carrying the path bits.
        let mut stack: Vec<(usize, u32, u8)> = vec![(0, 0, 0)];
        std::iter::from_fn(move || {
            while let Some((idx, bits, depth)) = stack.pop() {
                // Push right child first so the left is visited first.
                if depth < 32 {
                    if let Some(child) = self.nodes[idx].children[1] {
                        let child_bits = bits | (1u32 << (31 - depth as u32));
                        stack.push((child as usize, child_bits, depth + 1));
                    }
                    if let Some(child) = self.nodes[idx].children[0] {
                        stack.push((child as usize, bits, depth + 1));
                    }
                }
                if let Some(value) = self.nodes[idx].value.as_ref() {
                    let prefix = Prefix::new(Ipv4Addr::from_u32(bits), depth).expect("depth <= 32");
                    return Some((prefix, value));
                }
            }
            None
        })
    }

    /// Collects all stored prefixes.
    pub fn prefixes(&self) -> Vec<Prefix> {
        self.iter().map(|(p, _)| p).collect()
    }
}

impl<T> FromIterator<(Prefix, T)> for PrefixTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Prefix, T)>>(iter: I) -> Self {
        let mut trie = Self::new();
        for (p, v) in iter {
            trie.insert(p, v);
        }
        trie
    }
}

impl<T: rtbh_json::ToJson> rtbh_json::ToJson for Node<T> {
    fn to_json(&self) -> rtbh_json::Json {
        rtbh_json::Json::Obj(vec![
            (
                "children".to_string(),
                rtbh_json::Json::Arr(vec![
                    rtbh_json::ToJson::to_json(&self.children[0]),
                    rtbh_json::ToJson::to_json(&self.children[1]),
                ]),
            ),
            ("value".to_string(), rtbh_json::ToJson::to_json(&self.value)),
        ])
    }
}

impl<T: rtbh_json::FromJson> rtbh_json::FromJson for Node<T> {
    fn from_json(v: &rtbh_json::Json) -> Result<Self, rtbh_json::JsonError> {
        v.expect_obj("Node")?;
        let children = <Vec<Option<u32>> as rtbh_json::FromJson>::from_json(v.field("children"))
            .map_err(|e| e.in_field("Node.children"))?;
        if children.len() != 2 {
            return Err(rtbh_json::JsonError::new(
                "Node.children must have 2 entries",
            ));
        }
        Ok(Self {
            children: [children[0], children[1]],
            value: rtbh_json::FromJson::from_json(v.field("value"))
                .map_err(|e| e.in_field("Node.value"))?,
        })
    }
}

rtbh_json::impl_json! { generic struct PrefixTrie<T> { nodes, len } }

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let mut t = PrefixTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&2));
        assert_eq!(t.get(p("10.0.0.0/9")), None);
        assert_eq!(t.remove(p("10.0.0.0/8")), Some(2));
        assert_eq!(t.remove(p("10.0.0.0/8")), None);
        assert!(t.is_empty());
    }

    #[test]
    fn longest_match_prefers_specific() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), "default");
        t.insert(p("203.0.113.0/24"), "net");
        t.insert(p("203.0.113.7/32"), "host");
        assert_eq!(
            t.longest_match(a("203.0.113.7")).unwrap(),
            (p("203.0.113.7/32"), &"host")
        );
        assert_eq!(
            t.longest_match(a("203.0.113.8")).unwrap(),
            (p("203.0.113.0/24"), &"net")
        );
        assert_eq!(
            t.longest_match(a("8.8.8.8")).unwrap(),
            (p("0.0.0.0/0"), &"default")
        );
    }

    #[test]
    fn longest_match_by_skips_rejected_values() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("10.1.0.0/16"), 2);
        t.insert(p("10.1.2.0/24"), 3);
        let odd = t.longest_match_by(a("10.1.2.3"), |v| v % 2 == 1);
        assert_eq!(odd, Some((p("10.1.2.0/24"), &3)));
        let even = t.longest_match_by(a("10.1.2.3"), |v| v % 2 == 0);
        assert_eq!(even, Some((p("10.1.0.0/16"), &2)));
        assert_eq!(t.longest_match_by(a("10.1.2.3"), |_| false), None);
    }

    #[test]
    fn get_or_insert_with_counts_new_prefixes_once() {
        let mut t = PrefixTrie::new();
        *t.get_or_insert_with(p("10.0.0.0/8"), || 1) += 10;
        *t.get_or_insert_with(p("10.0.0.0/8"), || 100) += 10;
        assert_eq!(t.get(p("10.0.0.0/8")), Some(&21));
        assert_eq!(t.len(), 1);
        t.remove(p("10.0.0.0/8"));
        assert_eq!(*t.get_or_insert_with(p("10.0.0.0/8"), || 5), 5);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn longest_match_none_without_default() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        assert!(t.longest_match(a("11.0.0.0")).is_none());
    }

    #[test]
    fn matches_returns_all_covering_prefixes() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 0);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.2.0.0/16"), 99); // not on path
        let m = t.matches(a("10.1.2.3"));
        let lens: Vec<u8> = m.iter().map(|(pfx, _)| pfx.len()).collect();
        assert_eq!(lens, vec![0, 8, 16]);
    }

    #[test]
    fn removal_keeps_siblings_reachable() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/9"), "low");
        t.insert(p("10.128.0.0/9"), "high");
        t.remove(p("10.0.0.0/9"));
        assert_eq!(t.longest_match(a("10.200.0.1")).unwrap().1, &"high");
        assert!(t.longest_match(a("10.5.0.1")).is_none());
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut t = PrefixTrie::new();
        let prefixes = [
            "10.0.0.0/8",
            "10.0.0.0/16",
            "9.0.0.0/8",
            "10.128.0.0/9",
            "0.0.0.0/0",
        ];
        for (i, s) in prefixes.iter().enumerate() {
            t.insert(p(s), i);
        }
        let got = t.prefixes();
        let mut want: Vec<Prefix> = prefixes.iter().map(|s| p(s)).collect();
        want.sort();
        assert_eq!(got, want);
        assert_eq!(t.len(), prefixes.len());
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut t = PrefixTrie::new();
        t.insert(p("192.0.2.0/24"), 1);
        *t.get_mut(p("192.0.2.0/24")).unwrap() += 10;
        assert_eq!(t.get(p("192.0.2.0/24")), Some(&11));
    }

    #[test]
    fn clear_resets() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), ());
        t.clear();
        assert!(t.is_empty());
        assert!(t.longest_match(a("10.0.0.1")).is_none());
        t.insert(p("10.0.0.0/8"), ());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn host_route_boundary() {
        let mut t = PrefixTrie::new();
        t.insert(Prefix::host(a("255.255.255.255")), "edge");
        assert_eq!(t.longest_match(a("255.255.255.255")).unwrap().1, &"edge");
        assert!(t.longest_match(a("255.255.255.254")).is_none());
    }
}
