//! The structural circuit cache: an LRU of prepared circuits keyed by
//! [`deepgate::gnn::CircuitGraph::fingerprint`], with a text-hash memo in
//! front of the parser so byte-identical requests skip parsing too.

use crate::metrics::CacheMetrics;
use deepgate::PreparedCircuit;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// The 128-bit first-level cache key of a request payload, computed before
/// any parsing happens: mixes the payload *kind* (`"bench"`, `"aiger"`), an
/// ingestion *variant* (empty for BENCH; the latch policy, `"cut"` /
/// `"unroll:3"`, for AIGER) and the raw payload bytes. The variant is part
/// of the key because the same AIGER bytes under different latch policies
/// produce different circuits — they must not share a cache entry. Each
/// component is length-prefixed so `("ab","c")` and `("a","bc")` differ.
/// Same hash construction as [`deepgate::gnn::CircuitGraph::fingerprint`].
pub(crate) fn request_key(kind: &str, variant: &str, payload: &[u8]) -> u128 {
    let mut hasher = deepgate::gnn::StructuralHasher::new();
    for part in [kind.as_bytes(), variant.as_bytes(), payload] {
        hasher.write(part.len() as u64);
        hasher.write_bytes(part);
    }
    hasher.finish()
}

/// A small stamp-based LRU map. Eviction scans for the oldest stamp — O(n),
/// which is noise at serving-cache capacities (hundreds of entries) and
/// keeps the structure simple and obviously correct.
#[derive(Debug)]
struct Lru<K, V> {
    capacity: usize,
    tick: u64,
    map: HashMap<K, (u64, V)>,
}

impl<K: Eq + Hash + Copy, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|entry| {
            entry.0 = tick;
            entry.1.clone()
        })
    }

    fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.tick, value));
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// A thread-safe structural circuit cache.
///
/// Lookup is two-level. The *text* level maps a hash of the raw BENCH text
/// to a fingerprint, so a byte-identical repeat request skips parsing, AIG
/// transformation, encoding and planning. The *fingerprint* level maps
/// [`deepgate::gnn::CircuitGraph::fingerprint`] to the prepared circuit, so two textually
/// different requests describing the same structure (formatting, comments,
/// signal names) still share one prepared entry — the fingerprint is
/// structural, not textual.
#[derive(Debug)]
pub(crate) struct CircuitCache {
    state: Mutex<CacheState>,
    metrics: CacheMetrics,
}

#[derive(Debug)]
struct CacheState {
    by_text: Lru<u128, u128>,
    by_fingerprint: Lru<u128, Arc<PreparedCircuit>>,
}

impl CircuitCache {
    /// Creates a cache holding up to `capacity` prepared circuits (0
    /// disables caching: every lookup misses and inserts are dropped),
    /// recording into externally registered telemetry handles, so the
    /// cache's series share a registry (and therefore a snapshot) with the
    /// rest of the serving stack.
    pub fn with_metrics(capacity: usize, metrics: CacheMetrics) -> Self {
        metrics.capacity.set(capacity as i64);
        CircuitCache {
            state: Mutex::new(CacheState {
                // Text keys are 16 bytes; a wider memo is effectively free
                // and lets several textual variants point at one circuit.
                by_text: Lru::new(capacity.saturating_mul(4)),
                by_fingerprint: Lru::new(capacity),
            }),
            metrics,
        }
    }

    /// Looks up a prepared circuit by raw request text. Counts a hit on
    /// success; a miss is only counted once the caller resolves it via
    /// [`CircuitCache::lookup_fingerprint`] or [`CircuitCache::insert`].
    pub fn lookup_text(&self, key: u128) -> Option<Arc<PreparedCircuit>> {
        let mut state = self.state.lock().expect("cache lock");
        let fingerprint = state.by_text.get(&key)?;
        let prepared = state.by_fingerprint.get(&fingerprint);
        if prepared.is_some() {
            self.metrics.text_hits.inc();
        }
        prepared
    }

    /// Looks up a prepared circuit by structural fingerprint, memoising
    /// the request `key` for future text-level hits. Counts a hit or a miss.
    pub fn lookup_fingerprint(&self, key: u128, fingerprint: u128) -> Option<Arc<PreparedCircuit>> {
        let mut state = self.state.lock().expect("cache lock");
        match state.by_fingerprint.get(&fingerprint) {
            Some(prepared) => {
                state.by_text.insert(key, fingerprint);
                self.metrics.fingerprint_hits.inc();
                Some(prepared)
            }
            None => {
                self.metrics.misses.inc();
                None
            }
        }
    }

    /// Inserts a freshly prepared circuit under both its request key and
    /// its structural fingerprint, which the caller has already computed
    /// for [`CircuitCache::lookup_fingerprint`].
    pub fn insert(&self, key: u128, fingerprint: u128, prepared: Arc<PreparedCircuit>) {
        debug_assert_eq!(fingerprint, prepared.circuit().fingerprint());
        let mut state = self.state.lock().expect("cache lock");
        state.by_text.insert(key, fingerprint);
        state.by_fingerprint.insert(fingerprint, prepared);
        self.metrics.entries.set(state.by_fingerprint.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1), Some(10)); // refresh 1 → 2 is now oldest
        lru.insert(3, 30);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn lru_reinsert_updates_in_place() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.insert(1, 11); // same key: no eviction
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&1), Some(11));
        assert_eq!(lru.get(&2), Some(20));
    }

    #[test]
    fn zero_capacity_lru_stays_empty() {
        let mut lru: Lru<u32, u32> = Lru::new(0);
        lru.insert(1, 10);
        assert_eq!(lru.get(&1), None);
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn request_key_separates_kind_variant_and_payload() {
        let bench = request_key("bench", "", b"INPUT(a)\n");
        assert_eq!(bench, request_key("bench", "", b"INPUT(a)\n"));
        assert_ne!(bench, request_key("bench", "", b"INPUT(b)\n"));
        let base = request_key("aiger", "cut", b"aag 0 0 0 0 0\n");
        assert_eq!(base, request_key("aiger", "cut", b"aag 0 0 0 0 0\n"));
        assert_ne!(base, request_key("aiger", "unroll:2", b"aag 0 0 0 0 0\n"));
        assert_ne!(base, request_key("bench", "cut", b"aag 0 0 0 0 0\n"));
        assert_ne!(base, request_key("aiger", "cut", b"aag 0 0 0 0 1\n"));
        // Length prefixing: shifting bytes between components changes the key.
        assert_ne!(request_key("ab", "c", b"x"), request_key("a", "bc", b"x"));
        // The same bytes as BENCH and as AIGER are different requests.
        assert_ne!(base, request_key("bench", "", b"aag 0 0 0 0 0\n"));
    }
}
