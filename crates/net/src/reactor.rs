//! Event-driven delivery reactor: one scheduler thread drives every
//! registered task — and with them every in-flight reliable flow.
//!
//! Before this module, reliable delivery parked one OS thread per consumer
//! on a wall-clock `ack_timeout` and every consumer ran a 2 ms
//! `recv_timeout` poll loop — concurrency was capped at thread count and
//! idle deployments burned wakeups doing nothing. The reactor inverts
//! that: registered [`ReactorTask`]s (the producer's delivery driver, each
//! consumer's flow assembler) live on a **single scheduler thread** and
//! are driven purely by events:
//!
//! * **mail** — the fabric calls a waker after enqueuing messages for a
//!   node, and the scheduler dispatches that node's task to drain its
//!   endpoint;
//! * **jobs** — callers submit work (a delivery fan-out) and block on a
//!   reply channel only if they want synchronous semantics;
//! * **virtual-clock timers** — a timer wheel keyed on
//!   [`SimInstant`] deadlines replaces every blocking wait. Timers fire
//!   **only at quiescence** (no deliverable event pending), which is
//!   exactly the condition under which the old wall-clock timeout would
//!   have been the next thing to happen; firing a timer never advances
//!   the virtual clock, so makespans stay bit-identical to the blocking
//!   implementation.
//!
//! A reliable flow is a few words of state inside its task's
//! [`FlowSender`](crate::FlowSender) — its lane, its payload handle and
//! its retransmission round — so ten thousand concurrent flows cost ten
//! thousand map entries, not ten thousand threads.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;
use viper_hw::SimInstant;
use viper_telemetry::Telemetry;

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

/// Virtual-clock timer wheel: deadlines ordered by `(instant, arm
/// sequence)` so ties fire in arm order, deterministically.
#[derive(Default)]
struct TimerWheel {
    by_deadline: BTreeMap<(u64, u64), (String, u64)>,
    by_token: HashMap<(String, u64), (u64, u64)>,
    seq: u64,
}

impl TimerWheel {
    fn arm(&mut self, node: &str, token: u64, deadline: SimInstant) {
        self.cancel(node, token);
        let key = (deadline.as_nanos(), self.seq);
        self.seq += 1;
        self.by_deadline.insert(key, (node.to_string(), token));
        self.by_token.insert((node.to_string(), token), key);
    }

    fn cancel(&mut self, node: &str, token: u64) {
        if let Some(key) = self.by_token.remove(&(node.to_string(), token)) {
            self.by_deadline.remove(&key);
        }
    }

    fn cancel_node(&mut self, node: &str) {
        let keys: Vec<(u64, u64)> = self
            .by_token
            .iter()
            .filter(|((n, _), _)| n == node)
            .map(|(_, key)| *key)
            .collect();
        self.by_token.retain(|(n, _), _| n != node);
        for key in keys {
            self.by_deadline.remove(&key);
        }
    }

    #[cfg(test)]
    fn deadline(&self, node: &str, token: u64) -> Option<SimInstant> {
        self.by_token
            .get(&(node.to_string(), token))
            .map(|(ns, _)| SimInstant::from_nanos(*ns))
    }

    fn pop_earliest(&mut self) -> Option<(String, u64, SimInstant)> {
        let (&key, _) = self.by_deadline.iter().next()?;
        let (node, token) = self.by_deadline.remove(&key).expect("key just seen");
        self.by_token.remove(&(node.clone(), token));
        Some((node, token, SimInstant::from_nanos(key.0)))
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.by_deadline.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Tasks and the scheduler
// ---------------------------------------------------------------------------

/// Scheduler services available to a task while it handles an event.
pub struct TaskCtx<'a> {
    node: &'a str,
    timers: &'a mut TimerWheel,
}

impl TaskCtx<'_> {
    /// The node this task is registered under.
    pub fn node(&self) -> &str {
        self.node
    }

    /// Arm (or re-arm) this task's timer `token` to fire at `deadline`.
    /// Timers fire only at quiescence — when the scheduler has no
    /// deliverable event — and firing never advances the virtual clock.
    pub fn arm_timer_at(&mut self, token: u64, deadline: SimInstant) {
        self.timers.arm(self.node, token, deadline);
    }

    /// Cancel this task's timer `token` (no-op if not armed).
    pub fn cancel_timer(&mut self, token: u64) {
        self.timers.cancel(self.node, token);
    }
}

/// A state machine owned by the reactor's scheduler thread.
///
/// All methods run on the scheduler thread; tasks hold their own
/// endpoints, clocks, and telemetry handles and perform their own sends —
/// the reactor only tells them *when* to run.
pub trait ReactorTask: Send {
    /// The fabric enqueued messages for this node: drain the endpoint.
    fn on_mail(&mut self, ctx: &mut TaskCtx<'_>);

    /// Timer `token` (armed via [`TaskCtx::arm_timer_at`]) fired at its
    /// `deadline`. The virtual clock is **not** advanced by the firing;
    /// handlers that need a "virtual now" at least as late as the timer
    /// should use `max(clock.now(), deadline)`.
    fn on_timer(&mut self, token: u64, deadline: SimInstant, ctx: &mut TaskCtx<'_>);

    /// A broadcast wakeup (e.g. a pub/sub announcement was published).
    fn on_wake(&mut self, _ctx: &mut TaskCtx<'_>) {}

    /// A job submitted for this node via [`Reactor::submit`].
    fn on_job(&mut self, _job: Box<dyn Any + Send>, _ctx: &mut TaskCtx<'_>) {}
}

enum Event {
    Mail(String),
    Submit {
        node: String,
        job: Box<dyn Any + Send>,
    },
    Wake,
    Register {
        node: String,
        task: Box<dyn ReactorTask>,
        ack: Sender<()>,
    },
    Deregister {
        node: String,
        ack: Sender<()>,
    },
    Shutdown,
}

/// Handle to the delivery reactor: one scheduler thread driving every
/// registered [`ReactorTask`]. Tasks verify what they drain inline, on
/// that thread.
///
/// Dropping the handle shuts the scheduler down and joins it (which in
/// turn drops every task).
pub struct Reactor {
    tx: Sender<Event>,
    scheduler: Option<JoinHandle<()>>,
}

impl Reactor {
    /// Start a reactor: one scheduler thread, no workers. `threads` must
    /// be 1. The parameter goes when `benchmark/e2e/src/replay.rs`, its
    /// last caller outside this workspace, drops it.
    pub fn new(threads: usize, telemetry: Telemetry) -> Self {
        assert_eq!(threads, 1, "the reactor runs exactly one thread");
        let (tx, rx) = channel::<Event>();
        let scheduler = std::thread::Builder::new()
            .name("viper-reactor".into())
            .spawn(move || scheduler_loop(rx, telemetry))
            .expect("spawn reactor scheduler");
        Reactor {
            tx,
            scheduler: Some(scheduler),
        }
    }

    /// Tell the scheduler that `node`'s endpoint has mail to drain.
    /// Called by the fabric's waker after enqueuing; safe from any
    /// thread, including the scheduler itself.
    pub fn post_mail(&self, node: &str) {
        let _ = self.tx.send(Event::Mail(node.to_string()));
    }

    /// A detached mail-posting hook suitable for
    /// [`Fabric::set_waker`](crate::Fabric::set_waker): calling it with a
    /// node name posts that node mail. Holds only the event channel, not
    /// the reactor, so it never keeps the scheduler alive.
    pub fn waker(&self) -> crate::fabric::Waker {
        let tx = self.tx.clone();
        std::sync::Arc::new(move |node: &str| {
            let _ = tx.send(Event::Mail(node.to_string()));
        })
    }

    /// Submit a job to `node`'s task ([`ReactorTask::on_job`]).
    pub fn submit(&self, node: &str, job: Box<dyn Any + Send>) {
        let _ = self.tx.send(Event::Submit {
            node: node.to_string(),
            job,
        });
    }

    /// Broadcast a wakeup to every task ([`ReactorTask::on_wake`]), in
    /// deterministic (sorted-node) order.
    pub fn wake_all(&self) {
        let _ = self.tx.send(Event::Wake);
    }

    /// Register `task` under `node` and run its initial
    /// [`ReactorTask::on_wake`]; returns once the task is installed.
    pub fn register(&self, node: &str, task: Box<dyn ReactorTask>) {
        let (ack, ack_rx) = channel();
        let _ = self.tx.send(Event::Register {
            node: node.to_string(),
            task,
            ack,
        });
        let _ = ack_rx.recv();
    }

    /// Remove `node`'s task (dropping it on the scheduler thread) and
    /// cancel its timers; returns once the task is gone.
    pub fn deregister(&self, node: &str) {
        let (ack, ack_rx) = channel();
        let _ = self.tx.send(Event::Deregister {
            node: node.to_string(),
            ack,
        });
        let _ = ack_rx.recv();
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        let _ = self.tx.send(Event::Shutdown);
        if let Some(scheduler) = self.scheduler.take() {
            let _ = scheduler.join();
        }
    }
}

fn dispatch<F>(
    tasks: &mut BTreeMap<String, Box<dyn ReactorTask>>,
    timers: &mut TimerWheel,
    node: &str,
    f: F,
) where
    F: FnOnce(&mut dyn ReactorTask, &mut TaskCtx<'_>),
{
    // Remove/reinsert so the task can borrow the wheel through its ctx.
    if let Some(mut task) = tasks.remove(node) {
        let mut ctx = TaskCtx { node, timers };
        f(task.as_mut(), &mut ctx);
        tasks.insert(node.to_string(), task);
    }
}

fn scheduler_loop(rx: Receiver<Event>, telemetry: Telemetry) {
    let mut tasks: BTreeMap<String, Box<dyn ReactorTask>> = BTreeMap::new();
    let mut timers = TimerWheel::default();
    loop {
        let event = match rx.try_recv() {
            Ok(ev) => ev,
            Err(TryRecvError::Empty) => {
                // Quiescent: no deliverable event. Fire the earliest
                // virtual timer, if any; otherwise block for mail.
                if let Some((node, token, deadline)) = timers.pop_earliest() {
                    telemetry.counter("reactor.timers_fired").inc();
                    if telemetry.is_enabled() {
                        telemetry.instant(
                            "reactor",
                            "timer_fire",
                            "reactor",
                            &[
                                ("node", node.as_str().into()),
                                ("token", token.into()),
                                ("deadline_ns", deadline.as_nanos().into()),
                            ],
                        );
                    }
                    dispatch(&mut tasks, &mut timers, &node, |task, ctx| {
                        task.on_timer(token, deadline, ctx)
                    });
                    continue;
                }
                match rx.recv() {
                    Ok(ev) => ev,
                    Err(_) => break,
                }
            }
            Err(TryRecvError::Disconnected) => break,
        };
        match event {
            Event::Mail(node) => {
                dispatch(&mut tasks, &mut timers, &node, |task, ctx| {
                    task.on_mail(ctx)
                });
            }
            Event::Submit { node, job } => {
                dispatch(&mut tasks, &mut timers, &node, |task, ctx| {
                    task.on_job(job, ctx)
                });
            }
            Event::Wake => {
                let names: Vec<String> = tasks.keys().cloned().collect();
                for node in names {
                    dispatch(&mut tasks, &mut timers, &node, |task, ctx| {
                        task.on_wake(ctx)
                    });
                }
            }
            Event::Register { node, task, ack } => {
                tasks.insert(node.clone(), task);
                // Initial wake covers "a record was announced before this
                // task attached" (late-attach discovery).
                dispatch(&mut tasks, &mut timers, &node, |task, ctx| {
                    task.on_wake(ctx)
                });
                let _ = ack.send(());
            }
            Event::Deregister { node, ack } => {
                tasks.remove(&node);
                timers.cancel_node(&node);
                let _ = ack.send(());
            }
            Event::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    // -- Timer wheel --------------------------------------------------------

    #[test]
    fn timer_wheel_fires_in_deadline_then_arm_order() {
        let mut wheel = TimerWheel::default();
        wheel.arm("b", 1, SimInstant::from_nanos(100));
        wheel.arm("a", 1, SimInstant::from_nanos(100));
        wheel.arm("c", 1, SimInstant::from_nanos(50));
        assert_eq!(wheel.deadline("c", 1), Some(SimInstant::from_nanos(50)));
        let (node, _, at) = wheel.pop_earliest().unwrap();
        assert_eq!((node.as_str(), at.as_nanos()), ("c", 50));
        // Same deadline: fires in arm order (b before a).
        assert_eq!(wheel.pop_earliest().unwrap().0, "b");
        assert_eq!(wheel.pop_earliest().unwrap().0, "a");
        assert!(wheel.pop_earliest().is_none());
    }

    #[test]
    fn timer_wheel_rearm_and_cancel() {
        let mut wheel = TimerWheel::default();
        wheel.arm("n", 7, SimInstant::from_nanos(10));
        wheel.arm("n", 7, SimInstant::from_nanos(99));
        assert_eq!(wheel.deadline("n", 7), Some(SimInstant::from_nanos(99)));
        let (_, token, at) = wheel.pop_earliest().unwrap();
        assert_eq!((token, at.as_nanos()), (7, 99), "re-arm replaced the old");
        assert!(wheel.is_empty());
        wheel.arm("n", 1, SimInstant::from_nanos(5));
        wheel.arm("n", 2, SimInstant::from_nanos(6));
        wheel.cancel("n", 1);
        assert_eq!(wheel.pop_earliest().unwrap().1, 2);
        wheel.arm("x", 1, SimInstant::from_nanos(1));
        wheel.arm("y", 1, SimInstant::from_nanos(2));
        wheel.cancel_node("x");
        assert_eq!(wheel.pop_earliest().unwrap().0, "y");
        assert!(wheel.is_empty());
    }

    // -- Scheduler end-to-end ----------------------------------------------

    /// Spin (wall clock) until `done` holds, panicking after ~5 s.
    fn wait_for(done: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !done() {
            assert!(
                start.elapsed() < std::time::Duration::from_secs(5),
                "condition not reached in time"
            );
            std::thread::yield_now();
        }
    }

    struct CountingTask {
        mails: Arc<AtomicU64>,
        timers: Arc<AtomicU64>,
        wakes: Arc<AtomicU64>,
        jobs: Arc<AtomicU64>,
    }

    impl ReactorTask for CountingTask {
        fn on_mail(&mut self, ctx: &mut TaskCtx<'_>) {
            self.mails.fetch_add(1, Ordering::SeqCst);
            // Arm a timer that fires only once the queue quiesces.
            ctx.arm_timer_at(1, SimInstant::from_nanos(500));
        }
        fn on_timer(&mut self, token: u64, deadline: SimInstant, _ctx: &mut TaskCtx<'_>) {
            assert_eq!(token, 1);
            assert_eq!(deadline, SimInstant::from_nanos(500));
            self.timers.fetch_add(1, Ordering::SeqCst);
        }
        fn on_wake(&mut self, _ctx: &mut TaskCtx<'_>) {
            self.wakes.fetch_add(1, Ordering::SeqCst);
        }
        fn on_job(&mut self, job: Box<dyn Any + Send>, _ctx: &mut TaskCtx<'_>) {
            let v = *job.downcast::<u64>().expect("u64 job");
            self.jobs.fetch_add(v, Ordering::SeqCst);
        }
    }

    #[test]
    fn scheduler_dispatches_mail_jobs_wakes_and_quiescent_timers() {
        let reactor = Reactor::new(1, Telemetry::disabled());
        let mails = Arc::new(AtomicU64::new(0));
        let timers = Arc::new(AtomicU64::new(0));
        let wakes = Arc::new(AtomicU64::new(0));
        let jobs = Arc::new(AtomicU64::new(0));
        reactor.register(
            "n",
            Box::new(CountingTask {
                mails: mails.clone(),
                timers: timers.clone(),
                wakes: wakes.clone(),
                jobs: jobs.clone(),
            }),
        );
        assert_eq!(wakes.load(Ordering::SeqCst), 1, "initial wake at register");
        reactor.post_mail("n");
        reactor.post_mail("ghost"); // unknown node: ignored
        reactor.submit("n", Box::new(41u64));
        reactor.submit("n", Box::new(1u64));
        reactor.wake_all();
        // The timer fires only at quiescence — after the scheduler drains
        // the queue — so wait for it before tearing down (deregistering
        // immediately would cancel it while events are still queued).
        wait_for(|| timers.load(Ordering::SeqCst) == 1);
        reactor.deregister("n");
        assert_eq!(mails.load(Ordering::SeqCst), 1);
        assert_eq!(jobs.load(Ordering::SeqCst), 42);
        assert_eq!(wakes.load(Ordering::SeqCst), 2);
        assert_eq!(
            timers.load(Ordering::SeqCst),
            1,
            "timer fired exactly once at quiescence"
        );
    }

    #[test]
    fn timers_fired_counter_counts() {
        let telemetry = Telemetry::disabled();
        let reactor = Reactor::new(1, telemetry.clone());
        let mails = Arc::new(AtomicU64::new(0));
        let timers = Arc::new(AtomicU64::new(0));
        reactor.register(
            "n",
            Box::new(CountingTask {
                mails: mails.clone(),
                timers: timers.clone(),
                wakes: Arc::new(AtomicU64::new(0)),
                jobs: Arc::new(AtomicU64::new(0)),
            }),
        );
        reactor.post_mail("n");
        wait_for(|| timers.load(Ordering::SeqCst) == 1);
        reactor.deregister("n");
        assert_eq!(telemetry.counter("reactor.timers_fired").get(), 1);
        drop(reactor);
    }
}
