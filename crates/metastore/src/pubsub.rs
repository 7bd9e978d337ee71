//! The publish/subscribe notification broker.
//!
//! Replaces the paper's Redis pub/sub: producers publish a model-update
//! message to a topic; every live subscriber receives its own copy through
//! an unbounded channel. A dropped [`Subscription`] unsubscribes itself
//! eagerly — a quiet topic can never pin dead channels — and dead senders
//! discovered at publish time are garbage-collected as a backstop.
//!
//! Queue depth is a counter per subscriber, shared by its broker entry and
//! its handle: `publish` adds one before each send (and takes it back if
//! the send fails), and every received message subtracts one. The channel
//! orders each send before its receive, so a message is counted before it
//! can be received, even with `Relaxed` counts: the depth may read high for
//! a moment but never wraps below zero.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;
use viper_telemetry::Telemetry;

/// A subscription handle: receive messages for one topic. Dropping the
/// handle removes the subscriber from the broker immediately.
pub struct Subscription<T> {
    rx: Receiver<T>,
    depth: Arc<AtomicUsize>,
    id: u64,
    topic: String,
    broker: Weak<Inner<T>>,
}

impl<T> std::fmt::Debug for Subscription<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("topic", &self.topic)
            .field("id", &self.id)
            .field("pending", &self.pending())
            .finish()
    }
}

impl<T> Subscription<T> {
    /// Block until a message arrives or `timeout` elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        self.received(self.rx.recv_timeout(timeout).ok())
    }

    /// Block until a message arrives (or the broker is dropped).
    pub fn recv(&self) -> Option<T> {
        self.received(self.rx.recv().ok())
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.received(self.rx.try_recv().ok())
    }

    /// Count a received message out of the queue depth.
    fn received(&self, msg: Option<T>) -> Option<T> {
        if msg.is_some() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
        }
        msg
    }

    /// Drain everything currently queued, returning only the newest message.
    ///
    /// Consumers that fall behind only care about the most recent model
    /// update — older versions are stale the moment a newer one exists.
    pub fn latest(&self) -> Option<T> {
        let mut last = None;
        while let Some(msg) = self.try_recv() {
            last = Some(msg);
        }
        last
    }

    /// Messages currently queued.
    pub fn pending(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// The topic this subscription listens on.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// Unique subscriber id (used by the broker for bookkeeping).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl<T> Drop for Subscription<T> {
    fn drop(&mut self) {
        // Eager unsubscribe: without this, a subscriber dropped on a quiet
        // topic would pin its (unbounded) channel until the next publish.
        if let Some(inner) = self.broker.upgrade() {
            inner.remove(&self.topic, self.id);
        }
    }
}

/// One subscriber's broker entry.
struct Subscriber<T> {
    id: u64,
    tx: Sender<T>,
    /// Shared with the [`Subscription`]: messages sent and not yet received.
    depth: Arc<AtomicUsize>,
}

/// Subscriber list of one topic.
type Subscribers<T> = Vec<Subscriber<T>>;

struct Inner<T> {
    topics: Mutex<HashMap<String, Subscribers<T>>>,
    next_id: AtomicU64,
    telemetry: Mutex<Telemetry>,
}

impl<T> Inner<T> {
    fn remove(&self, topic: &str, id: u64) {
        let mut topics = self.topics.lock().unwrap();
        if let Some(subs) = topics.get_mut(topic) {
            subs.retain(|sub| sub.id != id);
            if subs.is_empty() {
                topics.remove(topic);
            }
        }
        drop(topics);
        self.export_depth(topic);
    }

    /// Export the topic's total queued-message count (and live-subscriber
    /// count) as telemetry gauges. A no-op cheap atomic store when the
    /// broker holds the default disabled handle.
    fn export_depth(&self, topic: &str) {
        let telemetry = self.telemetry.lock().unwrap().clone();
        let topics = self.topics.lock().unwrap();
        let subs = topics.get(topic);
        let depth = subs.map_or(0, depth_of);
        let count = subs.map(Vec::len).unwrap_or(0);
        drop(topics);
        telemetry
            .gauge(&format!("pubsub.queue_depth.{topic}"))
            .set(depth as i64);
        telemetry
            .gauge(&format!("pubsub.subscribers.{topic}"))
            .set(count as i64);
        telemetry.counter_sample(
            "pubsub",
            &format!("queue_depth.{topic}"),
            "pubsub",
            depth as f64,
        );
    }
}

/// Messages queued across `subs`.
fn depth_of<T>(subs: &Subscribers<T>) -> usize {
    subs.iter()
        .map(|sub| sub.depth.load(Ordering::Relaxed))
        .sum()
}

/// A multi-topic pub/sub broker. Clones share the broker state.
pub struct PubSub<T> {
    inner: Arc<Inner<T>>,
}

impl<T> std::fmt::Debug for PubSub<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PubSub")
            .field("topics", &self.inner.topics.lock().unwrap().len())
            .finish()
    }
}

impl<T> Clone for PubSub<T> {
    fn clone(&self) -> Self {
        PubSub {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for PubSub<T> {
    fn default() -> Self {
        PubSub {
            inner: Arc::new(Inner {
                topics: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(0),
                telemetry: Mutex::new(Telemetry::disabled()),
            }),
        }
    }
}

impl<T: Clone> PubSub<T> {
    /// An empty broker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the telemetry handle used for per-topic queue-depth and
    /// subscriber-count gauges (`pubsub.queue_depth.<topic>`,
    /// `pubsub.subscribers.<topic>`).
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        *self.inner.telemetry.lock().unwrap() = telemetry;
    }

    /// Subscribe to `topic`.
    pub fn subscribe(&self, topic: &str) -> Subscription<T> {
        let (tx, rx) = channel();
        let depth = Arc::new(AtomicUsize::new(0));
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner
            .topics
            .lock()
            .unwrap()
            .entry(topic.to_string())
            .or_default()
            .push(Subscriber {
                id,
                tx,
                depth: Arc::clone(&depth),
            });
        self.inner.export_depth(topic);
        Subscription {
            rx,
            depth,
            id,
            topic: topic.to_string(),
            broker: Arc::downgrade(&self.inner),
        }
    }

    /// Publish `msg` to every live subscriber of `topic`; returns how many
    /// subscribers received it. Dead subscribers (dropped receivers that
    /// somehow outlived their eager unsubscribe) are removed as a backstop.
    pub fn publish(&self, topic: &str, msg: T) -> usize {
        let mut topics = self.inner.topics.lock().unwrap();
        let Some(subs) = topics.get_mut(topic) else {
            return 0;
        };
        subs.retain(|sub| {
            // Counted before the send, so a receive never runs ahead of it.
            sub.depth.fetch_add(1, Ordering::Relaxed);
            let sent = sub.tx.send(msg.clone()).is_ok();
            if !sent {
                sub.depth.fetch_sub(1, Ordering::Relaxed);
            }
            sent
        });
        let delivered = subs.len();
        if subs.is_empty() {
            topics.remove(topic);
        }
        drop(topics);
        self.inner.export_depth(topic);
        delivered
    }

    /// Number of live subscribers on `topic`.
    pub fn subscriber_count(&self, topic: &str) -> usize {
        self.inner
            .topics
            .lock()
            .unwrap()
            .get(topic)
            .map(|s| s.len())
            .unwrap_or(0)
    }

    /// Messages currently queued across all subscribers of `topic`.
    pub fn queue_depth(&self, topic: &str) -> usize {
        self.inner
            .topics
            .lock()
            .unwrap()
            .get(topic)
            .map_or(0, depth_of)
    }

    /// Remove a specific subscriber eagerly without dropping its handle
    /// (it keeps any already-queued messages but receives nothing new).
    pub fn unsubscribe(&self, sub: &Subscription<T>) {
        self.inner.remove(sub.topic(), sub.id());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn publish_reaches_all_subscribers() {
        let bus: PubSub<u32> = PubSub::new();
        let a = bus.subscribe("t");
        let b = bus.subscribe("t");
        assert_eq!(bus.publish("t", 7), 2);
        assert_eq!(a.try_recv(), Some(7));
        assert_eq!(b.try_recv(), Some(7));
    }

    #[test]
    fn topics_are_isolated() {
        let bus: PubSub<u32> = PubSub::new();
        let a = bus.subscribe("a");
        let b = bus.subscribe("b");
        bus.publish("a", 1);
        assert_eq!(a.try_recv(), Some(1));
        assert_eq!(b.try_recv(), None);
    }

    #[test]
    fn publish_to_empty_topic_is_zero() {
        let bus: PubSub<u32> = PubSub::new();
        assert_eq!(bus.publish("nobody", 1), 0);
    }

    #[test]
    fn dropped_subscriber_unsubscribes_immediately() {
        let bus: PubSub<u32> = PubSub::new();
        let a = bus.subscribe("t");
        assert_eq!(bus.subscriber_count("t"), 1);
        drop(a);
        // No publish needed: the drop itself removed the subscriber.
        assert_eq!(bus.subscriber_count("t"), 0);
        let b = bus.subscribe("t");
        assert_eq!(bus.publish("t", 3), 1);
        assert_eq!(b.try_recv(), Some(3));
        assert_eq!(bus.subscriber_count("t"), 1);
    }

    #[test]
    fn quiet_topic_fully_cleaned_without_publish() {
        let bus: PubSub<u64> = PubSub::new();
        for _ in 0..100 {
            let sub = bus.subscribe("quiet");
            bus.publish("quiet", 1);
            drop(sub);
        }
        assert_eq!(bus.subscriber_count("quiet"), 0);
        assert_eq!(bus.queue_depth("quiet"), 0);
        // The topic entry itself is gone, not just empty.
        assert_eq!(bus.inner.topics.lock().unwrap().len(), 0);
    }

    #[test]
    fn unsubscribe_is_eager() {
        let bus: PubSub<u32> = PubSub::new();
        let a = bus.subscribe("t");
        assert_eq!(bus.subscriber_count("t"), 1);
        bus.unsubscribe(&a);
        assert_eq!(bus.subscriber_count("t"), 0);
    }

    #[test]
    fn queue_depth_gauge_tracks_backlog() {
        let bus: PubSub<u32> = PubSub::new();
        let telemetry = Telemetry::enabled();
        bus.set_telemetry(telemetry.clone());
        let sub = bus.subscribe("updates");
        let dropped = bus.subscribe("updates");
        for v in 0..4 {
            bus.publish("updates", v);
        }
        assert_eq!(
            telemetry.gauge("pubsub.queue_depth.updates").get(),
            8,
            "gauge reflects queued messages"
        );
        // Dropping a subscription with a backlog takes its count with it.
        drop(dropped);
        assert_eq!(bus.queue_depth("updates"), 4);
        assert_eq!(telemetry.gauge("pubsub.queue_depth.updates").get(), 4);
        assert_eq!(telemetry.gauge("pubsub.subscribers.updates").get(), 1);
        sub.latest();
        drop(sub);
        assert_eq!(telemetry.gauge("pubsub.queue_depth.updates").get(), 0);
        assert_eq!(telemetry.gauge("pubsub.subscribers.updates").get(), 0);
    }

    #[test]
    fn latest_skips_stale_messages() {
        let bus: PubSub<u64> = PubSub::new();
        let sub = bus.subscribe("updates");
        for v in 1..=5 {
            bus.publish("updates", v);
        }
        assert_eq!(sub.pending(), 5);
        assert_eq!(sub.latest(), Some(5));
        assert_eq!(sub.pending(), 0);
        assert_eq!(sub.latest(), None);
    }

    #[test]
    fn cross_thread_delivery() {
        let bus: Arc<PubSub<String>> = Arc::new(PubSub::new());
        let sub = bus.subscribe("t");
        let bus2 = Arc::clone(&bus);
        let h = thread::spawn(move || {
            bus2.publish("t", "hello".to_string());
        });
        let msg = sub.recv_timeout(Duration::from_secs(5));
        h.join().unwrap();
        assert_eq!(msg.as_deref(), Some("hello"));
    }

    #[test]
    fn depth_stays_within_published_under_concurrent_receive() {
        const N: usize = 2_000;
        let bus: PubSub<usize> = PubSub::new();
        let sub = bus.subscribe("t");
        let publisher = {
            let bus = bus.clone();
            thread::spawn(move || {
                for v in 0..N {
                    bus.publish("t", v);
                    assert!(bus.queue_depth("t") <= N);
                }
            })
        };
        // An undercount would wrap below zero and read far above N.
        for _ in 0..N {
            assert!(sub.recv_timeout(Duration::from_secs(10)).is_some());
            assert!(sub.pending() <= N);
            assert!(bus.queue_depth("t") <= N);
        }
        publisher.join().unwrap();
        assert_eq!(sub.pending(), 0);
        assert_eq!(bus.queue_depth("t"), 0);
    }

    #[test]
    fn subscription_outlives_broker() {
        let bus: PubSub<u32> = PubSub::new();
        let sub = bus.subscribe("t");
        bus.publish("t", 9);
        drop(bus);
        // Queued message still readable; the drop below must not panic
        // even though the broker is gone.
        assert_eq!(sub.try_recv(), Some(9));
        drop(sub);
    }

    #[test]
    fn recv_timeout_times_out() {
        let bus: PubSub<u32> = PubSub::new();
        let sub = bus.subscribe("t");
        assert_eq!(sub.recv_timeout(Duration::from_millis(10)), None);
    }
}
