//! The bounded results cache: byte-identical replays for free.
//!
//! Every served job is deterministic and stable-keyed (the invariant
//! PRs 1–8 built), so a completed artifact *is* the answer to every
//! future submission with the same full-spec identity — re-simulating
//! it would burn worker time to produce the same bytes. The cache maps
//! `JobSpec::identity()` → the exact artifact JSON the leader run
//! persisted, evicting least-recently-used entries at `--cache-entries`
//! capacity. Only successful single-job runs are cached: failures must
//! re-run (the fault may have been chaos), and scenario cells carry
//! matrix context that isn't identity-addressable.

use std::collections::HashMap;

/// A cached completed run: everything `job_result` and `job_status`
/// need to answer without touching a worker.
#[derive(Debug, Clone)]
pub(crate) struct CachedResult {
    /// The artifact JSON, byte-identical to the leader's persisted
    /// file.
    pub artifact: String,
    /// The leader run's wall time, reported verbatim so a cache hit's
    /// status is honest about what the simulation cost.
    pub wall_ms: u64,
}

/// A fixed-capacity LRU map from full-spec identity to artifact.
///
/// Plain `HashMap` + recency `VecDeque` of identities: capacities are
/// small (hundreds), so the O(n) recency splice on hit is noise next
/// to the simulation it saves. Capacity 0 disables caching entirely —
/// every lookup is a miss and nothing is stored.
pub(crate) struct ResultsCache {
    entries: HashMap<String, CachedResult>,
    /// Identities from least- to most-recently used.
    order: std::collections::VecDeque<String>,
    capacity: usize,
}

impl ResultsCache {
    pub(crate) fn new(capacity: usize) -> Self {
        ResultsCache {
            entries: HashMap::new(),
            order: std::collections::VecDeque::new(),
            capacity,
        }
    }

    /// Looks up an identity, refreshing its recency on a hit.
    pub(crate) fn get(&mut self, identity: &str) -> Option<CachedResult> {
        let found = self.entries.get(identity)?.clone();
        if let Some(pos) = self.order.iter().position(|k| k == identity) {
            self.order.remove(pos);
        }
        self.order.push_back(identity.to_string());
        Some(found)
    }

    /// Stores a completed result, evicting the least-recently-used
    /// entry if at capacity. Re-inserting an existing identity (two
    /// leaders can race across instances) refreshes value and recency
    /// without an eviction. Returns `true` when an entry was evicted.
    pub(crate) fn insert(&mut self, identity: String, result: CachedResult) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut evicted = false;
        if self.entries.insert(identity.clone(), result).is_some() {
            if let Some(pos) = self.order.iter().position(|k| *k == identity) {
                self.order.remove(pos);
            }
        } else if self.entries.len() > self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
                evicted = true;
            }
        }
        self.order.push_back(identity);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: &str) -> CachedResult {
        CachedResult {
            artifact: format!("{{\"artifact\":\"{tag}\"}}"),
            wall_ms: 7,
        }
    }

    #[test]
    fn hit_returns_the_stored_bytes() {
        let mut c = ResultsCache::new(4);
        assert!(c.get("a").is_none());
        assert!(!c.insert("a".into(), result("a")));
        let hit = c.get("a").unwrap();
        assert_eq!(hit.artifact, "{\"artifact\":\"a\"}");
        assert_eq!(hit.wall_ms, 7);
    }

    #[test]
    fn evicts_least_recently_used_in_order() {
        let mut c = ResultsCache::new(2);
        c.insert("a".into(), result("a"));
        c.insert("b".into(), result("b"));
        // Touch "a" so "b" becomes the LRU victim.
        c.get("a").unwrap();
        assert!(c.insert("c".into(), result("c")), "one eviction");
        assert!(c.get("b").is_none(), "b was least recently used");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        // Next insert evicts "a" (touched before c was inserted, but
        // the gets above refreshed both a and c — oldest is now a).
        assert!(c.insert("d".into(), result("d")), "a second eviction");
        assert_eq!(c.entries.len(), 2);
        assert!(c.get("a").is_none());
    }

    #[test]
    fn reinserting_refreshes_without_eviction() {
        let mut c = ResultsCache::new(2);
        c.insert("a".into(), result("a"));
        c.insert("b".into(), result("b"));
        assert!(!c.insert("a".into(), result("a2")), "no eviction");
        assert_eq!(c.entries.len(), 2);
        assert_eq!(c.get("a").unwrap().artifact, "{\"artifact\":\"a2\"}");
        // "b" is now the LRU.
        c.insert("c".into(), result("c"));
        assert!(c.get("b").is_none());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c = ResultsCache::new(0);
        assert!(!c.insert("a".into(), result("a")));
        assert!(c.entries.is_empty());
        assert!(c.get("a").is_none());
    }
}
