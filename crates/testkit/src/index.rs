//! The per-sample LPM scan over an AoS flow log, kept as the oracle for
//! the shipped sample-index build, `rtbh_core::index::SampleIndex::from_columns`.
//!
//! The shipped build only buckets the prefix ids the enrichment pass wrote
//! into the sealed chunks. This scan derives the same lists from first
//! principles: compile the blackholed prefixes of the update log, then walk
//! every sample and look up its destination and source. Single-threaded,
//! on a plain [`PrefixTrie`], obviously correct and too slow to ship. The
//! `index_diff` suite holds the shipped build to it.

use rtbh_bgp::UpdateLog;
use rtbh_fabric::FlowLog;
use rtbh_net::{Prefix, PrefixTrie};

/// The sample index as plain lists: what `SampleIndex` answers through
/// `prefixes()`, `towards(id)` and `from(id)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedIndex {
    /// Dense id → blackholed prefix, in first-announcement order.
    pub prefixes: Vec<Prefix>,
    /// Per prefix id: indices of samples whose destination the prefix
    /// covers most specifically, in log order.
    pub towards: Vec<Vec<u32>>,
    /// Per prefix id: indices of samples whose source the prefix covers
    /// most specifically, in log order.
    pub from: Vec<Vec<u32>>,
}

/// Indexes `flows` by the prefixes `updates` ever announced as blackholes,
/// with two longest-prefix lookups per sample.
pub fn scan_index(updates: &UpdateLog, flows: &FlowLog) -> ScannedIndex {
    let mut trie = PrefixTrie::new();
    let mut prefixes = Vec::new();
    for u in updates.blackholes() {
        if trie.get(u.prefix).is_none() {
            trie.insert(u.prefix, prefixes.len());
            prefixes.push(u.prefix);
        }
    }
    let mut towards = vec![Vec::new(); prefixes.len()];
    let mut from = vec![Vec::new(); prefixes.len()];
    for (i, s) in flows.samples().iter().enumerate() {
        let i = u32::try_from(i).expect("sample ids fit the index's u32 lists");
        if let Some((_, &id)) = trie.longest_match(s.dst_ip) {
            towards[id].push(i);
        }
        if let Some((_, &id)) = trie.longest_match(s.src_ip) {
            from[id].push(i);
        }
    }
    ScannedIndex {
        prefixes,
        towards,
        from,
    }
}
