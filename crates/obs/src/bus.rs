//! The bounded broadcast event bus behind live `Watch` subscriptions.
//!
//! The bus fans one stream of [`ClusterEvent`]s — replication
//! role/epoch changes and SLO transitions, state transitions only —
//! out to any number of subscribers, under the same discipline as every
//! other instrument in this crate:
//!
//! * **Never blocking.** Publishing uses `try_lock` everywhere; a lost
//!   race drops the event instead of queueing the serving or replication
//!   path behind an observer.
//! * **Bounded.** Every subscriber owns a fixed-capacity queue. A slow
//!   consumer loses events — visible as a gap in the global sequence
//!   numbers — and never grows memory.
//! * **Pure side channel.** With the owning registry disabled the bus
//!   publishes nothing; nothing it does feeds back into RNG
//!   derivation, ε accounting or scheduling.
//! * **Woken, not polled.** Every subscription holds its reader's
//!   [`Waker`], which a publish wakes once the event is queued.
//!
//! With zero subscribers a publish is one relaxed load.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::task::Waker;

/// What a [`ClusterEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEventKind {
    /// The node's replication role or epoch changed.
    Role,
    /// An SLO transitioned between ok and firing.
    Slo,
}

/// One live event broadcast on the bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterEvent {
    /// Bus-wide monotone sequence number, assigned at publish. A gap in
    /// the numbers a subscriber sees means its bounded queue dropped.
    pub seq: u64,
    /// What happened.
    pub kind: ClusterEventKind,
    /// Kind-specific detail (`role@epoch`, SLO name).
    pub detail: String,
    /// Kind-specific magnitude (epoch, 1/0 firing).
    pub value: u64,
}

#[derive(Debug)]
struct SubscriberCore {
    queue: Mutex<VecDeque<ClusterEvent>>,
    capacity: usize,
    /// Woken after every event this subscription queues.
    waker: Waker,
}

/// A subscription's receiving end: poll events off the bounded queue.
/// Dropping the handle detaches the subscription; the bus forgets it on
/// its next publish or subscribe.
#[derive(Debug)]
pub struct BusSubscriber {
    core: Arc<SubscriberCore>,
}

impl BusSubscriber {
    /// Pops up to `max` queued events, oldest first.
    pub fn drain(&self, max: usize) -> Vec<ClusterEvent> {
        let Ok(mut q) = self.core.queue.try_lock() else {
            return Vec::new();
        };
        let n = max.min(q.len());
        q.drain(..n).collect()
    }
}

#[derive(Debug)]
struct BusCore {
    seq: AtomicU64,
    subscribers: Mutex<Vec<Weak<SubscriberCore>>>,
    /// Over-approximate subscriber count: the fast-path hint publish
    /// reads before touching any lock. Dead subscriptions are pruned
    /// (and the hint corrected) on the next publish or subscribe.
    active: AtomicUsize,
    enabled: Arc<AtomicBool>,
}

/// The broadcast bus itself. Cloning shares the instrument, like every
/// other handle in this crate.
#[derive(Debug, Clone)]
pub struct EventBus {
    core: Arc<BusCore>,
}

impl EventBus {
    pub(crate) fn with_switch(enabled: Arc<AtomicBool>) -> Self {
        EventBus {
            core: Arc::new(BusCore {
                seq: AtomicU64::new(0),
                subscribers: Mutex::new(Vec::new()),
                active: AtomicUsize::new(0),
                enabled,
            }),
        }
    }

    /// Attaches a new subscription whose queue holds at most `capacity`
    /// events (minimum 1); `waker` is woken whenever an event is queued
    /// on it.
    pub fn subscribe(&self, capacity: usize, waker: Waker) -> BusSubscriber {
        let core = Arc::new(SubscriberCore {
            queue: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
            capacity: capacity.max(1),
            waker,
        });
        let mut subs = self.core.subscribers.lock().expect("bus poisoned");
        subs.retain(|w| w.strong_count() > 0);
        subs.push(Arc::downgrade(&core));
        self.core.active.store(subs.len(), Ordering::Relaxed);
        BusSubscriber { core }
    }

    /// Whether anyone is (probably) listening: one relaxed load.
    #[inline]
    pub fn has_subscribers(&self) -> bool {
        self.core.active.load(Ordering::Relaxed) > 0
    }

    /// Broadcasts one event to every live subscription and wakes each
    /// one that queued it. Never blocks: a contended subscriber list
    /// skips the event, and a full or contended subscriber queue drops
    /// the event for that subscriber.
    pub fn publish(&self, kind: ClusterEventKind, detail: &str, value: u64) {
        if !self.core.enabled.load(Ordering::Relaxed) || !self.has_subscribers() {
            return;
        }
        let Ok(mut subs) = self.core.subscribers.try_lock() else {
            return;
        };
        subs.retain(|w| w.strong_count() > 0);
        self.core.active.store(subs.len(), Ordering::Relaxed);
        if subs.is_empty() {
            return;
        }
        let seq = self.core.seq.fetch_add(1, Ordering::Relaxed);
        for weak in subs.iter() {
            let Some(sub) = weak.upgrade() else {
                continue;
            };
            let Ok(mut q) = sub.queue.try_lock() else {
                continue;
            };
            if q.len() >= sub.capacity {
                continue;
            }
            q.push_back(ClusterEvent {
                seq,
                kind,
                detail: detail.to_owned(),
                value,
            });
            drop(q);
            sub.waker.wake_by_ref();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Wake;

    fn detached() -> EventBus {
        EventBus::with_switch(Arc::new(AtomicBool::new(true)))
    }

    fn published(bus: &EventBus) -> u64 {
        bus.core.seq.load(Ordering::Relaxed)
    }

    /// A waker that counts its wake-ups.
    #[derive(Default)]
    struct Wakes(AtomicUsize);

    impl Wake for Wakes {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn counting() -> (Arc<Wakes>, Waker) {
        let wakes = Arc::new(Wakes::default());
        (Arc::clone(&wakes), Waker::from(wakes))
    }

    fn woken(wakes: &Wakes) -> usize {
        wakes.0.load(Ordering::Relaxed)
    }

    #[test]
    fn subscribers_see_published_events_in_order() {
        let bus = detached();
        assert!(!bus.has_subscribers());
        let (wakes, waker) = counting();
        let sub = bus.subscribe(8, waker);
        assert!(bus.has_subscribers());
        bus.publish(ClusterEventKind::Role, "leader@1", 1);
        bus.publish(ClusterEventKind::Slo, "lag", 1);
        assert_eq!(woken(&wakes), 2, "one wake-up per queued event");
        let events = sub.drain(10);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, ClusterEventKind::Role);
        assert_eq!(events[0].detail, "leader@1");
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert!(sub.drain(10).is_empty());
    }

    #[test]
    fn full_queue_drops_with_seq_gap_and_wakes_nobody() {
        let bus = detached();
        let (wakes, waker) = counting();
        let sub = bus.subscribe(2, waker);
        for i in 0..5 {
            bus.publish(ClusterEventKind::Role, "leader", i);
        }
        assert_eq!(woken(&wakes), 2, "a dropped event wakes nobody");
        let kept: Vec<u64> = sub.drain(10).iter().map(|e| e.seq).collect();
        assert_eq!(kept, vec![0, 1]);
        // A second subscription attached later sees only new traffic,
        // and the first sees the gap the full queue left.
        let (late_wakes, late_waker) = counting();
        let late = bus.subscribe(2, late_waker);
        bus.publish(ClusterEventKind::Slo, "lag", 1);
        assert_eq!((woken(&wakes), woken(&late_wakes)), (3, 1));
        assert_eq!(late.drain(1)[0].seq, 5);
        assert_eq!(sub.drain(1)[0].seq, 5);
    }

    #[test]
    fn dropped_subscriber_is_pruned() {
        let bus = detached();
        let (_, waker) = counting();
        let sub = bus.subscribe(2, waker);
        drop(sub);
        // The first publish after the drop prunes the dead entry and
        // sequences nothing (no listener, no gap).
        bus.publish(ClusterEventKind::Role, "leader@1", 1);
        assert!(!bus.has_subscribers());
        assert_eq!(published(&bus), 0);
    }

    #[test]
    fn disabled_switch_silences_the_bus() {
        let switch = Arc::new(AtomicBool::new(false));
        let bus = EventBus::with_switch(Arc::clone(&switch));
        let (wakes, waker) = counting();
        let sub = bus.subscribe(4, waker);
        bus.publish(ClusterEventKind::Role, "leader@1", 1);
        assert_eq!((published(&bus), woken(&wakes)), (0, 0));
        switch.store(true, Ordering::Relaxed);
        bus.publish(ClusterEventKind::Role, "leader@2", 2);
        assert_eq!(sub.drain(10).len(), 1);
    }

    #[test]
    fn publish_with_no_subscribers_is_cheap_and_lossless_to_count() {
        let bus = detached();
        bus.publish(ClusterEventKind::Role, "leader@1", 1);
        // No subscriber: nothing sequenced, nothing allocated.
        assert_eq!(published(&bus), 0);
    }
}
