//! Name-keyed registry maps, sharded to keep the serve path off hot
//! locks.
//!
//! Every request resolves its policy, dataset and session by name; with
//! a single `RwLock<HashMap>` per registry those lookups all contend on
//! one lock word, and any registration write-locks the whole registry.
//! [`ShardedMap`] splits each registry into [`SHARD_COUNT`] fixed shards
//! by key hash (FNV-1a), so lookups of different names land on
//! different locks with probability `1 − 1/16` and a registration only
//! blocks the shard its name hashes to.
//!
//! The shard count is a compile-time constant rather than sized to the
//! machine: registries hold at most thousands of entries and the goal
//! is lock spreading, not capacity — 16 ways already makes same-shard
//! collisions the rare case for any realistic analyst count.

use std::collections::HashMap;
use std::sync::RwLock;

/// Fixed shard fan-out for every engine registry.
pub(crate) const SHARD_COUNT: usize = 16;

/// FNV-1a over the key bytes (the workspace's one copy of the hash, in
/// `bf-store`); stable across runs so tests can pin shard placement.
fn shard_index(key: &str) -> usize {
    (bf_store::fnv1a(key.as_bytes()) % SHARD_COUNT as u64) as usize
}

/// A string-keyed concurrent map split into [`SHARD_COUNT`] independent
/// `RwLock<HashMap>` shards.
#[derive(Debug)]
pub(crate) struct ShardedMap<V> {
    shards: [RwLock<HashMap<String, V>>; SHARD_COUNT],
}

impl<V> Default for ShardedMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> ShardedMap<V> {
    /// An empty map.
    pub(crate) fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, V>> {
        &self.shards[shard_index(key)]
    }

    /// Inserts `value` under `key` unless the key is already present.
    ///
    /// # Errors
    ///
    /// Returns the key back when it is taken (registries refuse
    /// re-registration; see `EngineError::DuplicateName`).
    pub(crate) fn insert_if_absent(&self, key: String, value: V) -> Result<(), String> {
        let mut shard = self.shard(&key).write().expect("registry shard poisoned");
        if shard.contains_key(&key) {
            return Err(key);
        }
        shard.insert(key, value);
        Ok(())
    }

    /// A clone of the value under `key`, if any. Values are cheap
    /// handles (`Arc`s or structs of `Arc`s), so cloning out keeps the
    /// shard read lock held only for the lookup itself.
    pub(crate) fn get(&self, key: &str) -> Option<V>
    where
        V: Clone,
    {
        self.shard(key)
            .read()
            .expect("registry shard poisoned")
            .get(key)
            .cloned()
    }

    /// Runs `f` on the value under `key` while the shard read lock is
    /// held, so a lookup that reads one field clones nothing.
    pub(crate) fn get_with<R>(&self, key: &str, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.shard(key)
            .read()
            .expect("registry shard poisoned")
            .get(key)
            .map(f)
    }

    /// Inserts `value` under `key`, replacing any previous value. Used
    /// by parking/eviction paths where replacement is the intent.
    pub(crate) fn insert_or_replace(&self, key: String, value: V) {
        self.shard(&key)
            .write()
            .expect("registry shard poisoned")
            .insert(key, value);
    }

    /// Removes and returns the value under `key`, if any.
    pub(crate) fn remove(&self, key: &str) -> Option<V> {
        self.shard(key)
            .write()
            .expect("registry shard poisoned")
            .remove(key)
    }

    /// Every key, in unspecified order.
    pub(crate) fn keys(&self) -> Vec<String> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("registry shard poisoned")
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn insert_get_and_duplicate_refusal() {
        let map: ShardedMap<u32> = ShardedMap::new();
        assert_eq!(map.keys().len(), 0);
        map.insert_if_absent("a".into(), 1).unwrap();
        assert_eq!(map.insert_if_absent("a".into(), 2), Err("a".to_owned()));
        assert_eq!(map.get("a"), Some(1));
        assert_eq!(map.get("b"), None);
        assert_eq!(map.keys().len(), 1);
    }

    #[test]
    fn replace_and_remove() {
        let map: ShardedMap<u32> = ShardedMap::new();
        map.insert_if_absent("a".into(), 1).unwrap();
        map.insert_or_replace("a".into(), 2);
        assert_eq!(map.get("a"), Some(2));
        assert_eq!(map.remove("a"), Some(2));
        map.insert_or_replace("b".into(), 7);
        assert_eq!(map.remove("b"), Some(7));
        assert_eq!(map.remove("b"), None);
        assert_eq!(map.keys().len(), 0);
    }

    #[test]
    fn keys_spread_across_shards() {
        let map: ShardedMap<usize> = ShardedMap::new();
        for i in 0..256 {
            map.insert_if_absent(format!("analyst-{i}"), i).unwrap();
        }
        assert_eq!(map.keys().len(), 256);
        let mut keys = map.keys();
        keys.sort();
        assert_eq!(keys.len(), 256);
        // With 256 well-spread keys every one of the 16 shards should be
        // populated (probability of an empty shard is ~16·(15/16)^256 ≈ 1e-6).
        let used: std::collections::HashSet<usize> = (0..256)
            .map(|i| shard_index(&format!("analyst-{i}")))
            .collect();
        assert_eq!(used.len(), SHARD_COUNT);
    }

    #[test]
    fn concurrent_registration_is_exactly_once() {
        let map: Arc<ShardedMap<usize>> = Arc::new(ShardedMap::new());
        let winners = Arc::new(std::sync::Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let map = Arc::clone(&map);
                let winners = Arc::clone(&winners);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        if map.insert_if_absent(format!("k{i}"), t).is_ok() {
                            winners.lock().unwrap().push(i);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(map.keys().len(), 50);
        let mut w = winners.lock().unwrap().clone();
        w.sort_unstable();
        w.dedup();
        assert_eq!(w.len(), 50, "every key registered exactly once");
    }
}
