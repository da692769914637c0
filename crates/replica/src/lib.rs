//! # bf-replica — Calvin-style deterministic replicated serving
//!
//! One serving process is a single point of failure for the one thing
//! Blowfish cannot afford to lose: the ε ledgers. This crate replicates
//! the whole serving stack across processes the Calvin way — **agree on
//! order first, then execute deterministically everywhere** — so
//! replication is log shipping, not per-query consensus:
//!
//! ```text
//!            writes                      Replicate (proto v4)
//!  clients ────────► leader ─ seq ─ WAL ───────────────────────► follower ─ WAL ─ apply
//!     ▲                │                 ◄─ ReplicateAck ─────── follower ─ WAL ─ apply
//!     └── reads ───────┴──────────────────── reads ─────────────────┘
//! ```
//!
//! * **Sequencing.** The leader stamps every write — session opens
//!   included — with `(epoch, index)` (index monotone, 1-based), makes
//!   it durable as a `Record::Replicated` frame in its own WAL *before*
//!   anything executes, and streams it to followers over the proto-v4
//!   peer frames (`LogCatchup` / `Replicate` / `ReplicateAck` /
//!   `PeerStatus`).
//! * **Quorum acks.** A client is answered only after the entry is
//!   durable on a configurable quorum of replicas **and** executed
//!   locally. Acks are cumulative durable high-water marks. The entry
//!   is the only thing that has to be durable first: what executing it
//!   books — its charge and answer, its execution mark — is staged and
//!   reaches disk with the node's next commit, because the log can
//!   derive it again. So a quorum write waits on two fsyncs in series
//!   (leader append, one follower's append) and each node pays one.
//! * **Deterministic replay.** Every replica applies the identical log
//!   through the identical engine (`Engine::apply_tagged` under the
//!   entry's idempotency key): release noise is a pure function of
//!   `(seed, release identity, ledger position)`, so per-analyst ledgers,
//!   reply caches and answers are byte-identical at every index on
//!   every replica — and a node that crashed before its staged charges
//!   reached disk recovers them by running the entries again, to the
//!   same ledger positions, noise, bytes and charges.
//! * **Read scale-out.** Followers serve `Budget` / `BudgetAudit` /
//!   `Traces` / `Stats` from their local engine, optionally refusing
//!   with `StaleReplica` past a configured lag bound.
//! * **ε-lossless failover.** Kill the leader at any log index: a
//!   follower promotes via [`Replica::promote_over`] — which probes the
//!   survivors' durable log positions and refuses any candidate that is
//!   not the longest, so a quorum-acked entry always survives — then
//!   finishes replay of its mirrored WAL and bumps the epoch (fencing
//!   stale leaders). Every client-acked charge is present exactly once
//!   — durable, or re-derived by that replay from the durable entry —
//!   and retried requests replay their cached reply at zero additional
//!   ε.
//! * **Divergence reconciliation.** A survivor that mirrored entries
//!   the dead leader never committed reconciles when it re-follows: the
//!   new leader's catchup log-matching check (last-entry epoch against
//!   its own, the Raft consistency argument) refuses with
//!   `LogDiverged`, and the follower durably truncates its un-committed
//!   orphan suffix (`Record::LogTruncated`) and resubscribes. Conflicts
//!   that would reach the commit point halt the node instead — a forked
//!   ledger is never served.
//!
//! There is deliberately **no election**: leadership changes are an
//! operator (or orchestrator/test-harness) decision via
//! [`Replica::promote_over`] / [`Replica::follow`]. The safety argument
//! never rests on who *thinks* they lead — a deposed leader cannot
//! reach quorum, so it can never ack, and followers fence anything
//! from a stale epoch.

#![deny(missing_docs)]

mod node;

pub use node::{Replica, ReplicaConfig, ReplicaError, ReplicaStatus};
