//! # bf-net — wire protocol, TCP front-end and client library
//!
//! Everything below this crate serves callers in the same process; this
//! crate puts the Blowfish serving stack on a socket, so **multiple
//! client processes** can hammer one serving process and still get every
//! guarantee the in-process stack makes:
//!
//! ```text
//!  client proc ──┐
//!  client proc ──┼─TCP─► NetServer ─► Server (fairness, coalescing) ─► Engine ─► Store (WAL)
//!  client proc ──┘        (bf-net)     (bf-server)                      (bf-engine) (bf-store)
//! ```
//!
//! * **One protocol, one framing.** [`proto`] defines one
//!   length-prefixed, XXH64-checksummed binary protocol reusing the
//!   WAL's record-framing discipline (`bf_store::frame_into` /
//!   `bf_store::read_frame` / `bf_store::FrameBuf`; a peer still sealing
//!   frames with byte-wise FNV-1a is refused at its first frame), with
//!   typed error replies mirroring `ServerError` / `EngineError` and
//!   every ε as exact `f64` bits.
//! * **The scheduler is reused, not reimplemented.** [`NetServer`]
//!   decodes frames into `Server::submit` tickets: per-analyst fair
//!   queues, cross-analyst coalescing, same-`(policy, data, ε)` range
//!   folding, admission control and durable charging all apply to
//!   remote analysts unchanged.
//! * **Backpressure is layered and typed.** A connection has a bounded
//!   in-flight window ([`proto::WireError::WindowFull`]); an analyst
//!   has a bounded queue (`QueueFull`), surfaced over the wire.
//! * **Disconnects don't leak.** A client that vanishes mid-request
//!   releases its tickets; the scheduler cancels not-yet-dispatched
//!   work before any ε is charged.
//! * **Reconnect is reattach.** [`Client::reconnect`] re-dials and
//!   reopens its sessions through `Engine::attach_session` — the same
//!   recovery path a crash-restarted serving process exposes — so a
//!   client lands on its durable ledger whether the socket dropped or
//!   the whole server was killed and recovered from its WAL.
//! * **Multi-process runs are reproducible.** Release noise is a pure
//!   function of `(engine seed, release identity, ledger position)`
//!   — the position counts the payer's earlier charges — so concurrent client processes with disjoint query
//!   streams observe byte-identical answers across same-seed runs no
//!   matter how the network interleaves them
//!   (`examples/remote_analysts.rs` asserts this end to end).

#![deny(missing_docs)]

mod client;
mod error;
pub mod proto;
mod server;

pub use client::{BudgetSnapshot, Client, HealthSnapshot, RetryPolicy, WatchHandle};
pub use error::NetError;
pub use proto::{
    ClientMessage, ServerMessage, WireError, WireLogEntry, WireLogOp, WireMetric, PROTOCOL_VERSION,
};
pub use server::{
    wake_acceptor, NetConfig, NetServer, NetStats, PeerScrape, ReplicaHealth, ReplicaHook,
    ServerRole,
};
