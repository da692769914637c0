//! The answer ticket a submission hands back.

use crate::error::ServerError;
use bf_engine::Response;
use futures_lite::oneshot;
use std::future::Future;
use std::pin::Pin;
use std::sync::Mutex;
use std::task::{Context, Poll};

/// A pending answer: a `Future` resolving to the request's
/// [`Response`] (or the typed refusal).
///
/// Await it on an executor, probe it non-blockingly with
/// [`Ticket::try_take`], or block a plain thread with [`Ticket::wait`].
/// A probe caches the answer inside the ticket and hands out clones, so
/// probing any number of times and then awaiting always observes the
/// same result; the await itself — [`Ticket::wait`], or the `poll` that
/// returns `Ready` — takes the answer out **by move**, and like any
/// finished `Future` the ticket must not be polled or probed after it
/// (it would read [`ServerError::ShutDown`]). If the server shuts down
/// before answering, the ticket resolves to [`ServerError::ShutDown`]
/// rather than hanging.
///
/// **Dropping a ticket cancels the request** (if it has not been
/// dispatched yet): an answer nobody can read is pure ε waste, so the
/// scheduler's sweep drops abandoned waiters *before* charging their
/// ledgers. Hold the ticket until you have the answer.
#[derive(Debug)]
pub struct Ticket {
    rx: oneshot::Receiver<Result<Response, ServerError>>,
    /// The answer once a probe took it off the oneshot — kept so
    /// `try_take` stays idempotent and a later `wait`/`await` still
    /// succeeds.
    resolved: Mutex<Option<Result<Response, ServerError>>>,
}

impl Ticket {
    pub(crate) fn new(rx: oneshot::Receiver<Result<Response, ServerError>>) -> Self {
        Self {
            rx,
            resolved: Mutex::new(None),
        }
    }

    /// Mints an unresolved ticket plus the resolver that answers it —
    /// for layers that answer outside the scheduler (the replicated-log
    /// sequencer resolves tickets when an entry commits and executes).
    /// Dropping the resolver resolves the ticket to
    /// [`ServerError::ShutDown`], exactly like a server shutdown.
    pub fn pair() -> (TicketResolver, Ticket) {
        let (tx, rx) = oneshot::channel();
        (TicketResolver { tx }, Ticket::new(rx))
    }

    /// Non-blocking, idempotent probe: `Some` once the scheduler
    /// answered (or the server shut down), `None` while the request is
    /// still queued or its epoch has not committed yet. Probing does
    /// not consume the answer — `wait`/`await` afterwards returns it.
    pub fn try_take(&self) -> Option<Result<Response, ServerError>> {
        let mut resolved = self.resolved.lock().expect("ticket state poisoned");
        if resolved.is_none() {
            *resolved = self
                .rx
                .try_recv()
                .map(|r| r.unwrap_or(Err(ServerError::ShutDown)));
        }
        resolved.clone()
    }

    /// Blocks the current thread until the answer arrives.
    ///
    /// # Errors
    ///
    /// Whatever the scheduler resolved the ticket with — see
    /// [`ServerError`].
    pub fn wait(self) -> Result<Response, ServerError> {
        futures_lite::block_on(self)
    }
}

/// The answering half of a [`Ticket::pair`]: whoever holds it owes the
/// ticket holder exactly one answer.
#[derive(Debug)]
pub struct TicketResolver {
    tx: oneshot::Sender<Result<Response, ServerError>>,
}

impl TicketResolver {
    /// Delivers the answer. A ticket dropped by an impatient holder is
    /// not an error — the answer is simply discarded.
    pub fn resolve(self, result: Result<Response, ServerError>) {
        let _ = self.tx.send(result);
    }
}

impl Future for Ticket {
    type Output = Result<Response, ServerError>;

    /// Hands the answer to its one consumer by move — out of the cache
    /// when an earlier [`Ticket::try_take`] put it there, else straight
    /// off the oneshot — so a 32 KiB vector answer is never cloned on its
    /// way to the wire.
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let ticket = self.get_mut();
        let probed = ticket
            .resolved
            .get_mut()
            .expect("ticket state poisoned")
            .take();
        if let Some(result) = probed {
            return Poll::Ready(result);
        }
        Pin::new(&mut ticket.rx)
            .poll(cx)
            .map(|r| r.unwrap_or(Err(ServerError::ShutDown)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropped_sender_resolves_as_shutdown() {
        let (tx, rx) = oneshot::channel();
        let ticket = Ticket::new(rx);
        assert_eq!(ticket.try_take(), None);
        drop(tx);
        assert_eq!(ticket.try_take(), Some(Err(ServerError::ShutDown)));
    }

    #[test]
    fn wait_returns_the_sent_answer() {
        let (tx, rx) = oneshot::channel();
        let ticket = Ticket::new(rx);
        tx.send(Ok(Response::Scalar(4.5))).unwrap();
        assert_eq!(ticket.wait(), Ok(Response::Scalar(4.5)));
    }

    /// Probing must not consume the answer: try_take repeatedly, then
    /// wait — every observation sees the same result.
    #[test]
    fn try_take_is_idempotent_and_wait_still_succeeds() {
        let (tx, rx) = oneshot::channel();
        let ticket = Ticket::new(rx);
        tx.send(Ok(Response::Scalar(7.0))).unwrap();
        assert_eq!(ticket.try_take(), Some(Ok(Response::Scalar(7.0))));
        assert_eq!(ticket.try_take(), Some(Ok(Response::Scalar(7.0))));
        assert_eq!(ticket.wait(), Ok(Response::Scalar(7.0)));
    }

    #[test]
    fn pair_resolves_like_a_scheduler_answer() {
        let (resolver, ticket) = Ticket::pair();
        assert_eq!(ticket.try_take(), None);
        resolver.resolve(Ok(Response::Scalar(2.0)));
        assert_eq!(ticket.wait(), Ok(Response::Scalar(2.0)));
        // A dropped resolver reads as a shutdown, never a hang.
        let (resolver, ticket) = Ticket::pair();
        drop(resolver);
        assert_eq!(ticket.wait(), Err(ServerError::ShutDown));
    }
}
