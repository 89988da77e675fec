//! One lane of the ingest pool: a bounded FIFO whose consumer is woken
//! **late**.
//!
//! An application thread publishes one message per synchronization boundary
//! and the ingest worker applies it in under a microsecond, so on a plain
//! channel the worker is asleep again before the next message arrives and
//! every boundary pays a futex wake — more than the provenance work of the
//! boundary itself. A lane separates *delivery* from the *wake*: every
//! message is published at once, into the same bounded `sync_channel` as
//! before (same FIFO, same backpressure, same `SendError` the moment the
//! consumer is gone), but an idle consumer parks **outside** the channel and
//! a producer unparks it only
//!
//! * when the lane holds [`WAKE_BACKLOG`] messages (or is full, if its depth
//!   is smaller) — a constant chosen by measurement (CHANGES.md, PR 21), not
//!   a knob,
//! * when the message is urgent ([`LaneSender::send_urgent`]: a thread's
//!   exit report, a flush barrier somebody is waiting on), or
//! * when the last sender drops.
//!
//! Until then the consumer sleeps and the backlog costs the producers
//! nothing; once woken it drains the lane dry before it parks again.
//!
//! # The handshake, and what has to hold
//!
//! Two atomics besides the channel: `queued`, the number of messages
//! reserved by producers and not yet taken by the consumer, and `parked`,
//! the consumer's announcement that it is about to sleep. All four accesses
//! below are `SeqCst`:
//!
//! ```text
//! producer                              consumer (lane found empty)
//!   n = queued.fetch_add(1) + 1           parked.store(true)
//!   channel.send(msg)                     if queued.load() == 0 { park() }
//!   if due(n) && parked.swap(false)       parked.store(false); retry
//!       { consumer.unpark() }
//! ```
//!
//! **Obligation: a message that is due a wake is never left in the lane
//! with the consumer parked.** This is Dekker's pattern — each side writes
//! its own flag, then reads the other's — and sequential consistency gives
//! its one guarantee: the producer's `swap` and the consumer's `load` cannot
//! *both* miss the other side's write. If the consumer's `load` sees the
//! reservation (`queued > 0`) it does not park; it retries `try_recv`,
//! yielding while a reserved send is still in flight (the reservation comes
//! *before* the send so that `queued` never under-counts: with two producers
//! on one lane, counting after the send lets the consumer take one
//! producer's message, read `queued == 0` between the other's send and its
//! count, and park on an urgent message nobody wakes it for). If the load
//! sees 0, the producer's reservation — and so its later `swap` — comes
//! after the consumer's store in the single total order, reads `true`, and
//! the producer unparks. An unpark that lands before the `park` leaves the
//! token `park` consumes, so that order is safe too, and whoever clears
//! `parked` owns the wake, so a burst wakes once.
//!
//! The last sender's drop is the same protocol with a phantom reservation:
//! its `SyncSender` is dropped first (the channel disconnects), then
//! `queued` is bumped and `parked` swapped, so a consumer that did not park
//! sees `queued > 0`, retries, and finds the channel disconnected. The
//! consumer registers its thread handle before it first stores `parked`, so
//! a producer that read `true` always finds the handle.
//!
//! A producer blocked on a full lane needs no case of its own: the message
//! that filled the lane was due a wake (`due` fires at `min(WAKE_BACKLOG,
//! depth)`).
//!
//! What deferral does **not** do is reorder or coalesce: the worker still
//! applies one message at a time in publication order, so the builder sees
//! exactly the delivery it saw before, later. PR 12 measured *skewed*
//! delivery (one thread's backlog held back while another's is applied) as
//! a regression; here a lane's backlog is bounded by [`WAKE_BACKLOG`] and
//! all threads of a lane share one FIFO.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvError, SendError, SyncSender, TryRecvError};
use std::sync::{Arc, OnceLock};
use std::thread::{self, Thread};

/// Backlog at which a producer wakes a parked consumer.
pub(crate) const WAKE_BACKLOG: usize = 32;

/// Capacity of a session's lanes, in messages. Deep enough that the wake
/// above, not backpressure, decides when the worker runs (32 ≪ 1 024), and
/// bounded so a stalled worker throttles the application instead of letting
/// provenance pile up. Never swept; it is the value every session ran with.
pub(crate) const LANE_DEPTH: usize = 1024;

#[derive(Debug)]
struct LaneState {
    /// Messages reserved by producers and not yet taken by the consumer.
    queued: AtomicUsize,
    /// Set by the consumer before it parks; cleared by whoever wakes it.
    parked: AtomicBool,
    /// The consumer's thread, registered before it first sets `parked`.
    consumer: OnceLock<Thread>,
    /// `min(WAKE_BACKLOG, depth)`.
    wake_at: usize,
}

impl LaneState {
    /// Unparks the consumer if it announced a park nobody has answered yet.
    fn wake(&self) {
        if self.parked.swap(false, Ordering::SeqCst) {
            if let Some(consumer) = self.consumer.get() {
                consumer.unpark();
            }
        }
    }
}

/// Wakes the consumer when the last [`LaneSender`] clone is gone, so it sees
/// the disconnected channel instead of sleeping on it.
#[derive(Debug)]
struct Hangup(Arc<LaneState>);

impl Drop for Hangup {
    fn drop(&mut self) {
        // Every clone dropped its `SyncSender` before its `Arc<Hangup>`, so
        // the channel is already disconnected; the phantom reservation makes
        // a consumer that is about to park look again.
        self.0.queued.fetch_add(1, Ordering::SeqCst);
        self.0.wake();
    }
}

/// The producer side of a lane. Cloneable; see the module docs.
#[derive(Debug)]
pub(crate) struct LaneSender<T> {
    // Field order is drop order: the channel disconnects before `Hangup`
    // wakes the consumer to look at it.
    tx: SyncSender<T>,
    hangup: Arc<Hangup>,
}

impl<T> Clone for LaneSender<T> {
    fn clone(&self) -> Self {
        LaneSender {
            tx: self.tx.clone(),
            hangup: Arc::clone(&self.hangup),
        }
    }
}

impl<T> LaneSender<T> {
    /// Publishes `msg`; the consumer is woken once the lane's backlog is
    /// due. Blocks while the lane is full and fails as soon as the consumer
    /// is gone, handing the message back.
    pub(crate) fn send(&self, msg: T) -> Result<(), SendError<T>> {
        self.publish(msg, false)
    }

    /// Publishes `msg` and wakes the consumer now: for a message somebody
    /// waits on, or the last one a thread sends.
    pub(crate) fn send_urgent(&self, msg: T) -> Result<(), SendError<T>> {
        self.publish(msg, true)
    }

    fn publish(&self, msg: T, urgent: bool) -> Result<(), SendError<T>> {
        let state = &self.hangup.0;
        let backlog = state.queued.fetch_add(1, Ordering::SeqCst) + 1;
        if let Err(rejected) = self.tx.send(msg) {
            state.queued.fetch_sub(1, Ordering::SeqCst);
            return Err(rejected);
        }
        if urgent || backlog >= state.wake_at {
            state.wake();
        }
        Ok(())
    }
}

/// The consumer side of a lane. The first thread to wait on it is its
/// consumer for good.
#[derive(Debug)]
pub(crate) struct LaneReceiver<T> {
    rx: Receiver<T>,
    state: Arc<LaneState>,
}

impl<T> LaneReceiver<T> {
    /// Takes the next message, parking while the lane is empty. Fails once
    /// every sender is gone and the lane is drained.
    pub(crate) fn recv(&self) -> Result<T, RecvError> {
        loop {
            match self.rx.try_recv() {
                Ok(msg) => {
                    self.state.queued.fetch_sub(1, Ordering::SeqCst);
                    return Ok(msg);
                }
                Err(TryRecvError::Disconnected) => return Err(RecvError),
                Err(TryRecvError::Empty) => {}
            }
            self.state.consumer.get_or_init(thread::current);
            self.state.parked.store(true, Ordering::SeqCst);
            if self.state.queued.load(Ordering::SeqCst) == 0 {
                thread::park();
            } else {
                // Reserved but not yet in the channel: the sender is between
                // its two steps. Let it run.
                thread::yield_now();
            }
            self.state.parked.store(false, Ordering::SeqCst);
        }
    }
}

/// Creates a lane holding at most `depth` messages (at least one).
pub(crate) fn lane<T>(depth: usize) -> (LaneSender<T>, LaneReceiver<T>) {
    let depth = depth.max(1);
    let (tx, rx) = std::sync::mpsc::sync_channel(depth);
    let state = Arc::new(LaneState {
        queued: AtomicUsize::new(0),
        parked: AtomicBool::new(false),
        consumer: OnceLock::new(),
        wake_at: WAKE_BACKLOG.min(depth),
    });
    let sender = LaneSender {
        tx,
        hangup: Arc::new(Hangup(Arc::clone(&state))),
    };
    (sender, LaneReceiver { rx, state })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultPlan, SessionConfig};
    use crate::ctx::fresh_sync_object;
    use crate::session::InspectorSession;
    use inspector_core::event::SyncKind;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `scenario` on its own thread and fails the test if it has not
    /// finished in a minute: what a lost wake looks like is a hang.
    fn watchdog<R: Send + 'static>(scenario: impl FnOnce() -> R + Send + 'static) -> R {
        let (done_tx, done_rx) = mpsc::channel();
        let runner = thread::spawn(move || {
            let _ = done_tx.send(scenario());
        });
        match done_rx.recv_timeout(Duration::from_secs(60)) {
            Ok(result) => {
                runner.join().expect("scenario already reported");
                result
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("watchdog: the scenario hung"),
            Err(mpsc::RecvTimeoutError::Disconnected) => match runner.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("the scenario returned without reporting"),
            },
        }
    }

    /// Spawns a consumer that forwards everything it receives, then the
    /// lane's disconnection as `None`.
    fn forwarding_consumer<T: Send + 'static>(
        rx: LaneReceiver<T>,
    ) -> (mpsc::Receiver<Option<T>>, thread::JoinHandle<()>) {
        let (out_tx, out_rx) = mpsc::channel();
        let consumer = thread::spawn(move || {
            while let Ok(msg) = rx.recv() {
                out_tx.send(Some(msg)).expect("test is listening");
            }
            out_tx.send(None).expect("test is listening");
        });
        (out_rx, consumer)
    }

    fn wait_until_parked(state: &LaneState) {
        while !state.parked.load(Ordering::SeqCst) {
            thread::yield_now();
        }
    }

    #[test]
    fn a_backlog_below_the_threshold_waits_for_the_urgent_message() {
        watchdog(|| {
            let (tx, rx) = lane::<u32>(1024);
            let state = Arc::clone(&rx.state);
            let (out, consumer) = forwarding_consumer(rx);
            wait_until_parked(&state);
            for i in 0..5 {
                tx.send(i).unwrap();
            }
            // Published, counted, and nobody was woken for it.
            assert_eq!(state.queued.load(Ordering::SeqCst), 5);
            assert!(state.parked.load(Ordering::SeqCst));
            assert!(out.try_recv().is_err());
            tx.send_urgent(5).unwrap();
            for i in 0..=5 {
                assert_eq!(out.recv().unwrap(), Some(i));
            }
            drop(tx);
            assert_eq!(out.recv().unwrap(), None);
            consumer.join().unwrap();
        });
    }

    #[test]
    fn the_threshold_message_wakes_a_parked_consumer() {
        watchdog(|| {
            let (tx, rx) = lane::<usize>(1024);
            let state = Arc::clone(&rx.state);
            let (out, consumer) = forwarding_consumer(rx);
            wait_until_parked(&state);
            for i in 0..WAKE_BACKLOG - 1 {
                tx.send(i).unwrap();
            }
            assert!(state.parked.load(Ordering::SeqCst));
            tx.send(WAKE_BACKLOG - 1).unwrap();
            for i in 0..WAKE_BACKLOG {
                assert_eq!(out.recv().unwrap(), Some(i));
            }
            drop(tx);
            assert_eq!(out.recv().unwrap(), None);
            consumer.join().unwrap();
        });
    }

    #[test]
    fn the_last_sender_dropping_wakes_a_parked_consumer_with_its_backlog() {
        watchdog(|| {
            let (tx, rx) = lane::<u32>(1024);
            let state = Arc::clone(&rx.state);
            let (out, consumer) = forwarding_consumer(rx);
            wait_until_parked(&state);
            let second = tx.clone();
            tx.send(1).unwrap();
            second.send(2).unwrap();
            drop(tx);
            // One sender is left: still parked on the backlog.
            assert!(state.parked.load(Ordering::SeqCst));
            drop(second);
            assert_eq!(out.recv().unwrap(), Some(1));
            assert_eq!(out.recv().unwrap(), Some(2));
            assert_eq!(out.recv().unwrap(), None);
            consumer.join().unwrap();
        });
    }

    #[test]
    fn a_lane_shallower_than_the_threshold_wakes_when_full() {
        watchdog(|| {
            for depth in [0, 1, 2, 5] {
                let (tx, rx) = lane::<u32>(depth);
                let (out, consumer) = forwarding_consumer(rx);
                // Deferred sends only: a producer blocked on the full lane
                // relies on the message that filled it having woken the
                // consumer.
                for i in 0..500 {
                    tx.send(i).unwrap();
                }
                drop(tx);
                for i in 0..500 {
                    assert_eq!(out.recv().unwrap(), Some(i), "depth {depth}");
                }
                assert_eq!(out.recv().unwrap(), None);
                consumer.join().unwrap();
            }
        });
    }

    #[test]
    fn a_dead_consumer_fails_senders_fast_and_hands_the_message_back() {
        watchdog(|| {
            let (tx, rx) = lane::<u32>(2);
            drop(rx);
            assert_eq!(tx.send(7).unwrap_err().0, 7);
            assert_eq!(tx.send_urgent(8).unwrap_err().0, 8);
            assert_eq!(tx.hangup.0.queued.load(Ordering::SeqCst), 0);
        });
    }

    #[test]
    fn two_producers_lose_and_reorder_nothing() {
        const PER_PRODUCER: u32 = 20_000;
        watchdog(|| {
            let (tx, rx) = lane::<(u32, u32)>(64);
            let producers: Vec<_> = (0..2u32)
                .map(|id| {
                    let tx = tx.clone();
                    thread::spawn(move || {
                        let mut rng = 0x9E37_79B9u32.wrapping_mul(id + 1);
                        for seq in 0..PER_PRODUCER {
                            rng = rng.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                            // About one message in 64 is urgent; the last
                            // is not, so the tail rides on the hang-up.
                            if rng >> 26 == 0 && seq + 1 < PER_PRODUCER {
                                tx.send_urgent((id, seq)).unwrap();
                            } else {
                                tx.send((id, seq)).unwrap();
                            }
                        }
                    })
                })
                .collect();
            drop(tx);
            let mut next = [0u32; 2];
            while let Ok((id, seq)) = rx.recv() {
                assert_eq!(seq, next[id as usize], "producer {id} reordered or lost");
                next[id as usize] += 1;
            }
            assert_eq!(next, [PER_PRODUCER; 2]);
            for producer in producers {
                producer.join().unwrap();
            }
        });
    }

    // ----- the same obligations, through a session --------------------------

    fn boundaries(ctx: &mut crate::ThreadCtx, count: usize) {
        for _ in 0..count {
            ctx.sync_boundary(&fresh_sync_object(), SyncKind::Release);
        }
    }

    #[test]
    fn fewer_subs_than_the_threshold_then_done_are_all_applied() {
        watchdog(|| {
            let session = InspectorSession::new(SessionConfig::inspector().with_ingest_threads(1));
            let report = session.run(|ctx| boundaries(ctx, 5));
            assert_eq!(report.cpg.node_count(), 6);
            assert_eq!(session.ingest_stats().ingested, 6);
            assert!(!report.stats.degraded);
        });
    }

    #[test]
    fn a_barrier_to_a_parked_worker_is_acknowledged() {
        watchdog(|| {
            let session = InspectorSession::new(SessionConfig::inspector().with_ingest_threads(2));
            let monitor = session.live_monitor();
            session.run(|ctx| {
                boundaries(ctx, 3);
                // Three messages sit on lane 0 below the threshold; lane 1
                // has seen none. The snapshot's barrier must get through
                // both and find all three applied.
                assert_eq!(monitor.snapshot().cpg.node_count(), 3);
            });
        });
    }

    #[test]
    fn an_app_panic_with_the_worker_parked_unwinds_and_the_backlog_is_applied() {
        watchdog(|| {
            let session = InspectorSession::new(SessionConfig::inspector().with_ingest_threads(1));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.try_run(|ctx| {
                    boundaries(ctx, 4);
                    panic!("application failure");
                })
            }));
            assert!(outcome.is_err(), "the application's panic propagates");
            // No `Done` was sent; only the last sender's drop can have woken
            // the worker for the four sub-computations.
            while session.ingest_stats().ingested < 4 {
                thread::yield_now();
            }
        });
    }

    #[test]
    fn a_worker_killed_mid_burst_still_fails_producers_fast() {
        watchdog(|| {
            let plan = FaultPlan {
                panic_worker: 1,
                panic_at_batch: 100,
                ..FaultPlan::default()
            };
            // The worker dies at message 100 of a 4 000-boundary burst: the
            // 3 900 behind it are almost four lanes' worth (`LANE_DEPTH`), so
            // producers that were not failed fast would block forever. The
            // shallow-lane wake path is `a_lane_shallower_than_the_threshold_…`.
            let session = InspectorSession::new(
                SessionConfig::inspector()
                    .with_ingest_threads(1)
                    .with_fault_plan(plan),
            );
            let err = session
                .try_run(|ctx| {
                    let worker = ctx.spawn(|ctx| boundaries(ctx, 2_000));
                    boundaries(ctx, 2_000);
                    ctx.join(worker);
                })
                .expect_err("the only ingest worker was killed by the plan");
            assert_eq!(err.failures.len(), 1);
            assert!(err.failures[0].message.contains("injected fault"));
            assert!(err.report.stats.degraded);
        });
    }
}
