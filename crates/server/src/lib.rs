//! # bf-server — the asynchronous Blowfish serving front-end
//!
//! `bf-engine` answers one call at a time; this crate puts a traffic
//! layer in front of it so one process can absorb heavy multi-analyst
//! load:
//!
//! ```text
//!            ┌─────────────────────────── Server ───────────────────────────┐
//!  analyst ──┤ submit ─► per-analyst queue ─┐                               │
//!  analyst ──┤ submit ─► per-analyst queue ─┼─ epoch drain ─► group by key ─┼─► Engine
//!  analyst ──┤ submit ─► per-analyst queue ─┘  (fair rounds)                │   (1 call, 1 commit,
//!            └──────────────────────────────────────────────────────────────┘    N tickets)
//! ```
//!
//! * **Submission is asynchronous.** [`Server::submit`] enqueues and
//!   returns a [`Ticket`] — a `Future` for the answer, built on `std`
//!   alone. Poll it with a waker (the wire layer's writer does), probe
//!   it with [`Ticket::try_take`], or block with [`Ticket::wait`].
//! * **One clock: a tick is an epoch.** [`Server::tick`] takes
//!   *everything* queued when it starts, serves it with one
//!   `Engine::serve_groups` call — one release pass, one WAL commit —
//!   and resolves every ticket it took; nothing drained outlives its
//!   tick. What arrives while an epoch is released and committed is the
//!   next epoch. **The commit is the coalescing window**: it is as wide
//!   as the work in flight, so it widens by itself under load (more
//!   requests share each release and each fsync) and is one request wide
//!   on an idle server (a lone request resolves on the tick that drains
//!   it). There is no window to tune.
//! * **What bounds an epoch.** Whole fair rounds until the queues are
//!   empty or the epoch holds [`EPOCH_MAX_REQUESTS`] — one named
//!   constant, reasoned where it is defined.
//! * **Scheduling is fair.** Each round hands every backlogged analyst
//!   `weight × quantum` requests in analyst-name order, so when the
//!   bound cuts an epoch short a flooding analyst has saturated *their
//!   own* bounded queue (and gets [`ServerError::QueueFull`]
//!   backpressure) while every other analyst's work rode the same
//!   epoch: a light analyst is delayed by at most one epoch, and served
//!   shares follow the weights. [`ServerConfig::quantum`] is that
//!   fairness unit, not a drain size.
//! * **Identical work coalesces across sessions.** Requests with equal
//!   `(policy cache key, dataset, ε, query class)` in one epoch — from
//!   *different* analysts — are served from **one** engine release
//!   fanned out to every waiter, each waiter still charged the full ε
//!   on their own ledger; range requests sharing `(policy, data, ε)`
//!   fold further, into one Ordered release (Section 7 of the paper:
//!   every range at error ≤ 4/ε²). Under homogeneous traffic the engine
//!   performs far fewer releases than it answers requests
//!   ([`ServerStats::amplification`]); `server_epoch_requests` records
//!   how wide the epochs actually ran.
//! * **Admission control is typed.** Full queues and exhausted budgets
//!   refuse at the door with [`ServerError`]s instead of occupying
//!   scheduler state.
//! * **Wake-ups, not timers.** The background driver
//!   ([`Server::start_driver`]) sleeps on a condvar until a submission
//!   arrives and ticks back-to-back while work is queued.
//! * **Sessions and processes have lifecycles.**
//!   [`ServerConfig::session_ttl`] sweeps idle engine sessions into the
//!   parked state (spent ε preserved, reattach on reopen);
//!   [`Server::shutdown`] closes the doors, drains every queued ticket,
//!   and flushes + compacts the engine's durable store so the next
//!   process recovers instantly from a snapshot.
//!
//! Determinism: queues drain in analyst-name order, groups form in
//! drain order, and the engine assigns release ordinals sequentially at
//! charge time — so a same-seed engine behind a same-order submission
//! stream and the same tick boundaries produces byte-identical answers.

mod error;
mod scheduler;
mod server;
mod ticket;

pub use error::ServerError;
pub use scheduler::EPOCH_MAX_REQUESTS;
pub use server::{DriverHandle, Server, ServerConfig, ServerStats};
pub use ticket::{Ticket, TicketResolver};
