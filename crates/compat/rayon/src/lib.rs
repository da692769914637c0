//! # rayon (offline shim)
//!
//! The build environment has no crates.io access, so this vendored crate
//! provides the small slice of a `rayon`-style API the workspace needs
//! for coarse-grained data parallelism: [`scope`]/[`Scope::spawn`],
//! [`current_num_threads`], and the slice helper [`par_map`] (built on
//! [`scope`]).
//!
//! Tasks run on scoped OS threads (`std::thread::scope` underneath), so
//! borrows of stack data work exactly like upstream rayon scopes. There
//! is no global work-stealing pool: the intended grain is "one task per
//! mechanism release" or "one task per chunk of points", where thread
//! spawn cost (~10 µs) is noise. [`par_map`] bounds worker count by
//! [`current_num_threads`] and hands out items through an atomic cursor,
//! so heterogeneous task lengths still balance.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of worker threads parallel helpers will use: the machine's
/// available parallelism (1 when it cannot be determined), read once —
/// like upstream's pool size, and because the query walks cgroup files
/// (≈ 15 µs), which a caller on a per-request path cannot afford.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A scope handle: tasks spawned on it may borrow anything that outlives
/// the [`scope`] call (`'env` data), and the scope joins them all before
/// returning.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task on the scope. The task receives the scope again so
    /// it can spawn nested tasks, mirroring rayon's signature.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let inner = self.inner;
        inner.spawn(move || {
            let nested = Scope { inner };
            f(&nested);
        });
    }
}

/// Creates a scope whose spawned tasks are all joined before `scope`
/// returns; panics from tasks propagate to the caller.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| {
        let wrapper = Scope { inner: s };
        f(&wrapper)
    })
}

/// Maps `f` over `items` in parallel, preserving input order in the
/// output. Uses at most [`current_num_threads`] workers; items are
/// claimed through a shared atomic cursor, so uneven task costs balance
/// across workers. Falls back to a plain sequential map for empty or
/// single-item inputs and on single-core machines.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with_workers(items, current_num_threads(), f)
}

/// [`par_map`] with an explicit worker count — exposed so the concurrent
/// path can be exercised deterministically even on single-core hosts.
pub fn par_map_with_workers<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    scope(|s| {
        for _ in 0..workers {
            s.spawn(|_| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(&items[i])));
                }
                results.lock().expect("results lock poisoned").extend(local);
            });
        }
    });
    let mut indexed = results.into_inner().expect("results lock poisoned");
    indexed.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), n);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_joins_all_spawned_tasks() {
        let counter = AtomicU64::new(0);
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_spawns_run() {
        let counter = AtomicU64::new(0);
        scope(|s| {
            s.spawn(|s| {
                counter.fetch_add(1, Ordering::Relaxed);
                s.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn par_map_concurrent_path_preserves_order() {
        // Force multiple workers even on single-core hosts so the atomic
        // cursor + merge path is exercised.
        let items: Vec<u64> = (0..257).collect();
        let out = par_map_with_workers(&items, 4, |&x| x * 3 + 1);
        assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<u64>>());
    }

    #[test]
    fn par_map_handles_tiny_inputs() {
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_borrows_environment() {
        let base = vec![10u64, 20, 30];
        let items = vec![0usize, 1, 2];
        let out = par_map(&items, |&i| base[i]);
        assert_eq!(out, base);
    }

    #[test]
    fn threads_reported() {
        assert!(current_num_threads() >= 1);
    }
}
