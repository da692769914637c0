//! The answer ticket a submission hands back, and the single-value slot
//! it shares with whoever owes the answer.

use crate::error::ServerError;
use bf_engine::Response;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::{self, Thread};

type Answer = Result<Response, ServerError>;

/// What a ticket and its resolver share. Every update leaves it valid,
/// so a poisoned lock is read through rather than propagated.
#[derive(Debug)]
struct Slot {
    answer: Option<Answer>,
    /// The last poller of a still-pending ticket, woken on resolution.
    waker: Option<Waker>,
    /// The resolver has not been dropped: an answer may still come.
    resolver_alive: bool,
    /// The ticket has not been dropped: someone still wants the answer.
    ticket_alive: bool,
}

fn lock(slot: &Mutex<Slot>) -> MutexGuard<'_, Slot> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A pending answer: a `Future` resolving to the request's
/// [`Response`] (or the typed refusal).
///
/// Poll it with a waker, probe it non-blockingly with
/// [`Ticket::try_take`], or block a plain thread with [`Ticket::wait`].
/// A probe hands out a clone and leaves the answer in place, so probing
/// any number of times and then waiting always observes the same
/// result; the wait itself — [`Ticket::wait`], or the `poll` that
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
    slot: Arc<Mutex<Slot>>,
}

impl Ticket {
    /// Mints an unresolved ticket plus the resolver that answers it —
    /// for layers that answer outside the scheduler (the replicated-log
    /// sequencer resolves tickets when an entry commits and executes).
    /// Dropping the resolver resolves the ticket to
    /// [`ServerError::ShutDown`], exactly like a server shutdown.
    pub fn pair() -> (TicketResolver, Ticket) {
        let slot = Arc::new(Mutex::new(Slot {
            answer: None,
            waker: None,
            resolver_alive: true,
            ticket_alive: true,
        }));
        let resolver = TicketResolver {
            slot: Arc::clone(&slot),
        };
        (resolver, Ticket { slot })
    }

    /// Non-blocking, idempotent probe: `Some` once the scheduler
    /// answered (or the server shut down), `None` while the request is
    /// still queued or its epoch has not committed yet. Probing does
    /// not consume the answer — `wait` afterwards returns it.
    pub fn try_take(&self) -> Option<Answer> {
        let slot = lock(&self.slot);
        match &slot.answer {
            Some(answer) => Some(answer.clone()),
            None => (!slot.resolver_alive).then_some(Err(ServerError::ShutDown)),
        }
    }

    /// Blocks the current thread until the answer arrives.
    ///
    /// # Errors
    ///
    /// Whatever the scheduler resolved the ticket with — see
    /// [`ServerError`].
    pub fn wait(mut self) -> Answer {
        let waker = Waker::from(Arc::new(Unpark(thread::current())));
        let mut cx = Context::from_waker(&waker);
        loop {
            if let Poll::Ready(answer) = Pin::new(&mut self).poll(&mut cx) {
                return answer;
            }
            // The park token keeps an unpark that lands before this.
            thread::park();
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        lock(&self.slot).ticket_alive = false;
    }
}

impl Future for Ticket {
    type Output = Answer;

    /// Hands the answer to its one consumer by move, so a 32 KiB vector
    /// answer is never cloned on its way to the wire.
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Answer> {
        let mut slot = lock(&self.slot);
        if let Some(answer) = slot.answer.take() {
            Poll::Ready(answer)
        } else if !slot.resolver_alive {
            Poll::Ready(Err(ServerError::ShutDown))
        } else {
            slot.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Unparks the thread blocked in [`Ticket::wait`].
struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// The answering half of a [`Ticket::pair`]: whoever holds it owes the
/// ticket holder exactly one answer.
#[derive(Debug)]
pub struct TicketResolver {
    slot: Arc<Mutex<Slot>>,
}

impl TicketResolver {
    /// Delivers the answer. A ticket dropped by an impatient holder is
    /// not an error — the answer is simply discarded.
    pub fn resolve(self, result: Answer) {
        let mut slot = lock(&self.slot);
        if slot.ticket_alive {
            slot.answer = Some(result);
        }
        // Dropping `self` next wakes the ticket.
    }

    /// Whether the ticket is gone, so an answer would be discarded: the
    /// scheduler's cancellation probe for disconnected clients.
    pub(crate) fn is_closed(&self) -> bool {
        !lock(&self.slot).ticket_alive
    }
}

impl Drop for TicketResolver {
    fn drop(&mut self) {
        let waker = {
            let mut slot = lock(&self.slot);
            slot.resolver_alive = false;
            slot.waker.take()
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropped_resolver_resolves_as_shutdown() {
        let (resolver, ticket) = Ticket::pair();
        assert_eq!(ticket.try_take(), None);
        drop(resolver);
        assert_eq!(ticket.try_take(), Some(Err(ServerError::ShutDown)));
        assert_eq!(ticket.wait(), Err(ServerError::ShutDown));
    }

    /// Probing must not consume the answer: try_take repeatedly, then
    /// wait — every observation sees the same result.
    #[test]
    fn try_take_is_idempotent_and_wait_still_succeeds() {
        let (resolver, ticket) = Ticket::pair();
        resolver.resolve(Ok(Response::Scalar(7.0)));
        assert_eq!(ticket.try_take(), Some(Ok(Response::Scalar(7.0))));
        assert_eq!(ticket.try_take(), Some(Ok(Response::Scalar(7.0))));
        assert_eq!(ticket.wait(), Ok(Response::Scalar(7.0)));
    }

    #[test]
    fn wait_blocks_until_another_thread_resolves() {
        let (resolver, ticket) = Ticket::pair();
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        thread::scope(|s| {
            let waiter = s.spawn(move || {
                parked_tx.send(()).expect("main thread listening");
                ticket.wait()
            });
            parked_rx.recv().expect("waiter started");
            resolver.resolve(Ok(Response::Scalar(2.0)));
            assert_eq!(waiter.join().expect("waiter"), Ok(Response::Scalar(2.0)));
        });
    }

    #[test]
    fn a_dropped_ticket_closes_its_resolver() {
        let (resolver, ticket) = Ticket::pair();
        assert!(!resolver.is_closed());
        drop(ticket);
        assert!(resolver.is_closed());
        resolver.resolve(Ok(Response::Scalar(1.0)));
    }
}
