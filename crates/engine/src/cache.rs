//! The sensitivity cache.
//!
//! Computing a policy-specific sensitivity `S(f, P)` is the expensive
//! part of serving a request: even with the structured edge enumeration
//! (`bf_graph::enumerate`) the closed forms walk `O(|E|)` secret-graph
//! edges, while the Laplace sampling that follows is nanoseconds.
//! Sensitivities depend only on `(P, f)` — never on the data — so they
//! are perfectly cacheable and sharing them across analysts leaks
//! nothing (the policy is public).
//!
//! Keys are `(Policy::cache_key(), QueryClass::fingerprint())`. Entries
//! are **single-flight**: each key maps to a `OnceLock` cell, so when N
//! threads miss on the same cold key concurrently, exactly one runs the
//! closed form and the other N−1 block on the cell and reuse its result
//! — instead of N redundant edge scans. The outer map sits behind an
//! `RwLock` taken only briefly (never while computing).

use bf_core::{Policy, QueryClass};
use bf_obs::{Counter, Registry};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Hit/miss/compute counters for observability and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from an already-filled cell.
    pub hits: u64,
    /// Lookups that found no filled cell (they either ran the closed
    /// form or blocked on the thread running it).
    pub misses: u64,
    /// Closed-form executions. Single-flight means `computes` can be far
    /// below `misses` under concurrency: N simultaneous cold lookups on
    /// one key are N misses but exactly 1 compute.
    pub computes: u64,
    /// Entries currently stored.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// `(Policy::cache_key, QueryClass::fingerprint)`.
type CacheKey = (String, u64);

/// Memo table for policy-specific sensitivities with single-flight
/// population. Counters are `bf-obs` handles: standalone caches count
/// into detached instruments, engine-owned caches count into the
/// engine's registry (`SensitivityCache::with_obs`) — [`CacheStats`]
/// reads the same handles either way.
#[derive(Debug)]
pub struct SensitivityCache {
    map: RwLock<HashMap<CacheKey, Arc<OnceLock<f64>>>>,
    hits: Counter,
    misses: Counter,
    computes: Counter,
}

impl Default for SensitivityCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SensitivityCache {
    /// An empty cache counting into detached (registry-less)
    /// instruments.
    pub fn new() -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
            hits: Counter::detached(),
            misses: Counter::detached(),
            computes: Counter::detached(),
        }
    }

    /// An empty cache whose counters are registered in `obs` as
    /// `engine_cache_{hits,misses,computes}_total`.
    pub(crate) fn with_obs(obs: &Registry) -> Self {
        Self {
            map: RwLock::new(HashMap::new()),
            hits: obs.counter("engine_cache_hits_total"),
            misses: obs.counter("engine_cache_misses_total"),
            computes: obs.counter("engine_cache_computes_total"),
        }
    }

    /// The sensitivity of `class` under `policy`, memoized. On a cold
    /// key, exactly one caller computes the closed form; concurrent
    /// callers for the same key wait on the winner's cell rather than
    /// recomputing.
    pub fn sensitivity(&self, policy: &Policy, class: &QueryClass) -> f64 {
        let key = (policy.cache_key(), class.fingerprint());
        // Fast path: shared lock, filled cell.
        let cell = {
            let map = self.map.read().expect("cache lock poisoned");
            match map.get(&key) {
                Some(cell) => {
                    if let Some(&s) = cell.get() {
                        self.hits.inc();
                        return s;
                    }
                    Some(Arc::clone(cell)) // in flight: wait on it below
                }
                None => None,
            }
        };
        let cell = cell.unwrap_or_else(|| {
            Arc::clone(
                self.map
                    .write()
                    .expect("cache lock poisoned")
                    .entry(key)
                    .or_default(),
            )
        });
        self.misses.inc();
        // No lock is held here: the closed form runs (or is awaited) on
        // the cell alone, so readers of other keys never block on it.
        *cell.get_or_init(|| {
            self.computes.inc();
            class.sensitivity(policy)
        })
    }

    /// Current counters — a thin shim over the registry handles, kept
    /// for existing tests and benches.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            computes: self.computes.get(),
            entries: self.map.read().expect("cache lock poisoned").len(),
        }
    }

    /// Drops all entries (counters keep accumulating).
    pub(crate) fn clear(&self) {
        self.map.write().expect("cache lock poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bf_domain::Domain;
    use std::sync::{Arc as StdArc, Barrier};

    fn policy() -> Policy {
        Policy::distance_threshold(Domain::line(64).unwrap(), 4)
    }

    #[test]
    fn second_lookup_hits() {
        let cache = SensitivityCache::new();
        let p = policy();
        let class = QueryClass::Range { lo: 5, hi: 20 };
        let cold = cache.sensitivity(&p, &class);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().computes, 1);
        let warm = cache.sensitivity(&p, &class);
        assert_eq!(cold, warm);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().computes, 1);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_policies_do_not_collide() {
        let cache = SensitivityCache::new();
        let theta2 = Policy::distance_threshold(Domain::line(16).unwrap(), 2);
        let theta5 = Policy::distance_threshold(Domain::line(16).unwrap(), 5);
        let class = QueryClass::CumulativeHistogram;
        assert_eq!(cache.sensitivity(&theta2, &class), 2.0);
        assert_eq!(cache.sensitivity(&theta5, &class), 5.0);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = SensitivityCache::new();
        let p = policy();
        cache.sensitivity(&p, &QueryClass::Histogram);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 1);
        // Re-lookup recomputes.
        cache.sensitivity(&p, &QueryClass::Histogram);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().computes, 2);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let cache = StdArc::new(SensitivityCache::new());
        let p = policy();
        let class = QueryClass::Linear {
            weights: (0..64).map(|i| (i % 7) as f64).collect(),
        };
        let expect = class.sensitivity(&p);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = StdArc::clone(&cache);
                let p = p.clone();
                let class = class.clone();
                std::thread::spawn(move || cache.sensitivity(&p, &class))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expect);
        }
        assert_eq!(cache.stats().entries, 1);
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8);
    }

    /// The single-flight acceptance stress: N threads hammering one cold
    /// key perform **exactly one** closed-form computation between them.
    #[test]
    fn cold_key_stampede_computes_exactly_once() {
        let threads = 16;
        let lookups_per_thread = 8;
        let cache = StdArc::new(SensitivityCache::new());
        // A domain large enough that the closed form takes real time, so
        // the stampede genuinely overlaps with the in-flight compute.
        let p = Policy::distance_threshold(Domain::line(65_536).unwrap(), 4);
        let class = QueryClass::Linear {
            weights: (0..65_536).map(|i| ((i * 31) % 97) as f64).collect(),
        };
        let barrier = StdArc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cache = StdArc::clone(&cache);
                let p = p.clone();
                let class = class.clone();
                let barrier = StdArc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    (0..lookups_per_thread)
                        .map(|_| cache.sensitivity(&p, &class))
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        let expect = class.sensitivity(&p);
        for h in handles {
            for s in h.join().unwrap() {
                assert_eq!(s, expect);
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.computes, 1, "single-flight must compute once");
        assert_eq!(
            stats.hits + stats.misses,
            (threads * lookups_per_thread) as u64
        );
        assert_eq!(stats.entries, 1);
    }
}
