//! Provenance-aware synchronization primitives (the pthreads shims).
//!
//! Every primitive is modelled as acquire/release operations on a
//! synchronization object (paper §IV-A): `unlock`, `sem_post`, `cond_signal`,
//! barrier entry and thread creation release the object; `lock`, `sem_wait`,
//! `cond_wait` return, barrier exit and thread join acquire it. The wrappers
//! here perform the real blocking operation *and* drive the per-thread
//! provenance boundary around it: an acquire closes and hands off the
//! sub-computation before it blocks and only joins the object's clock after
//! it returns; a release publishes writes and clock before the real release
//! and hands off after it (`ThreadCtx::acquire_with` / `release_with`). So a
//! lock's critical section holds the clock join, the app's own work, the
//! commit and the close — not the lane publish and the AUX flush of both
//! boundaries. A barrier wait is both in one boundary
//! (`SyncKind::ReleaseAcquire`): it publishes before it blocks and joins
//! after, closing one sub-computation per wait.
//!
//! The primitives intentionally expose the pthreads call shape
//! (`lock()`/`unlock()` rather than RAII guards) so that ported benchmark
//! code keeps its original structure.
//!
//! Their state mutexes are the `parking_lot` stand-in's, which never poison,
//! and a `Condvar` wait ignores poison too (`wait`). That is sound because
//! every assert in a primitive's critical section runs before its mutation:
//! a thread that panics there leaves the state as it found it.
//!
//! # The lock, and its wake handshake
//!
//! [`InspMutex`] waits the way a futex mutex does, from std atomics: one
//! compare-and-swap on `locked` when the lock is free, then up to `SPINS`
//! spins for a holder that is about to let go, and only then a park on a
//! `Condvar`. An unlock is one swap, and it touches the park mutex and the
//! `Condvar` only when a thread is parked — so an uncontended unlock makes
//! no syscall, as a pthread mutex's does not. The park side:
//!
//! ```text
//! waiter (spins exhausted)              unlocker
//!   take park                             was = locked.swap(false)
//!   waiters.fetch_add(1)                  if waiters.load() > 0 {
//!   while !locked.cas(false, true) {          take park; cv.notify_one()
//!       cv.wait(park)                     }
//!   }
//!   waiters.fetch_sub(1)
//! ```
//!
//! All five atomic accesses are `SeqCst` (the failed compare-and-swap's
//! load included). **Obligation: a waiter that registered is never left
//! parked while the lock is free.** Each side writes its own word, then
//! reads the other's (Dekker's pattern), so in the single total order they
//! cannot both miss: either the unlocker's `load` sees the registration and
//! it notifies, or the waiter's compare-and-swap comes after the `swap` and
//! finds the lock free — unless another thread took it first, whose own
//! unlock then runs the same argument. A notify cannot fall between the
//! waiter's failed compare-and-swap and its sleep: the waiter holds the park
//! mutex across both (`wait` releases it atomically), and the unlocker takes
//! that mutex to notify. A woken waiter that loses the lock to a spinner
//! sleeps again; the winner's unlock sees the registration and wakes one
//! waiter in turn. Spurious wake-ups only re-run the loop.

use std::hint;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, PoisonError};

use inspector_core::event::SyncKind;
use inspector_core::ids::SyncObjectId;
use inspector_core::recorder::SyncObject;
use parking_lot::{Mutex, MutexGuard};

use crate::ctx::{fresh_sync_object, ThreadCtx};

/// Spins an [`InspMutex`] waiter makes on a held lock before it parks.
///
/// 100 is std's futex mutex spin count. Measured on 2 vCPUs with the
/// boundary hand-off outside the lock: on `reverse_index` Small (two app
/// threads, tracked medians) 0 spins read the same time as a lock that
/// parks at once around whole boundaries, 30 spins 10–19 % less and 100
/// spins 22–28 % less; on the repo benchmark's `fault_commit` (five runs
/// each) `wall_s` read 0.409 / 0.395 / 0.374 s for 0 / 30 / 100 spins,
/// against 0.416 s for that lock. With the critical section this
/// short, a spinning waiter mostly gets the lock without a park and a
/// futex wake.
pub(crate) const SPINS: u32 = 100;

/// `cv.wait(guard)`, ignoring poison like the state mutexes (module docs).
fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// A mutual-exclusion lock (the `pthread_mutex_t` shim).
#[derive(Debug)]
pub struct InspMutex {
    object: SyncObject,
    /// The lock word.
    locked: AtomicBool,
    /// Threads registered to park (see the module docs' handshake).
    waiters: AtomicUsize,
    /// Guards a parked waiter's check-then-sleep against the notify.
    park: Mutex<()>,
    cv: Condvar,
}

impl Default for InspMutex {
    fn default() -> Self {
        Self::new()
    }
}

impl InspMutex {
    /// Creates an unlocked mutex.
    pub fn new() -> Self {
        InspMutex {
            object: fresh_sync_object(),
            locked: AtomicBool::new(false),
            waiters: AtomicUsize::new(0),
            park: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// The provenance identity of this mutex.
    pub fn id(&self) -> SyncObjectId {
        self.object.id()
    }

    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self, ctx: &mut ThreadCtx) {
        ctx.acquire_with(&self.object, SyncKind::Acquire, || self.acquire());
    }

    /// Attempts to acquire the lock without blocking; returns `true` on
    /// success. The boundary runs only after a success, since a failed
    /// attempt acquires nothing.
    pub fn try_lock(&self, ctx: &mut ThreadCtx) -> bool {
        if !self.try_acquire() {
            return false;
        }
        ctx.sync_boundary(&self.object, SyncKind::Acquire);
        true
    }

    /// Releases the lock.
    ///
    /// # Panics
    ///
    /// Panics if the mutex is not currently locked.
    pub fn unlock(&self, ctx: &mut ThreadCtx) {
        ctx.release_with(&self.object, || self.release());
    }

    /// Runs `f` with the lock held (convenience for Rust-style call sites).
    pub fn with<R>(&self, ctx: &mut ThreadCtx, f: impl FnOnce(&mut ThreadCtx) -> R) -> R {
        self.lock(ctx);
        let r = f(ctx);
        self.unlock(ctx);
        r
    }

    fn try_acquire(&self) -> bool {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// The real lock: fast path, spin, park.
    fn acquire(&self) {
        if self.try_acquire() {
            return;
        }
        for _ in 0..SPINS {
            hint::spin_loop();
            if !self.locked.load(Ordering::Relaxed) && self.try_acquire() {
                return;
            }
        }
        let mut park = self.park.lock();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        while self
            .locked
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            park = wait(&self.cv, park);
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// The real unlock: wakes a parked waiter only if one registered.
    fn release(&self) {
        let was_locked = self.locked.swap(false, Ordering::SeqCst);
        assert!(was_locked, "unlock of an unlocked InspMutex");
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _park = self.park.lock();
            self.cv.notify_one();
        }
    }
}

/// A counting semaphore (the `sem_t` shim).
#[derive(Debug)]
pub struct InspSemaphore {
    object: SyncObject,
    count: Mutex<i64>,
    cv: Condvar,
}

impl InspSemaphore {
    /// Creates a semaphore with the given initial count.
    pub fn new(initial: i64) -> Self {
        InspSemaphore {
            object: fresh_sync_object(),
            count: Mutex::new(initial),
            cv: Condvar::new(),
        }
    }

    /// The provenance identity of this semaphore.
    pub fn id(&self) -> SyncObjectId {
        self.object.id()
    }

    /// `sem_post`: increments the count and wakes one waiter.
    pub fn post(&self, ctx: &mut ThreadCtx) {
        ctx.release_with(&self.object, || {
            *self.count.lock() += 1;
            self.cv.notify_one();
        });
    }

    /// `sem_wait`: blocks until the count is positive, then decrements it.
    pub fn wait(&self, ctx: &mut ThreadCtx) {
        ctx.acquire_with(&self.object, SyncKind::Acquire, || {
            let mut c = self.count.lock();
            while *c <= 0 {
                c = wait(&self.cv, c);
            }
            *c -= 1;
        });
    }
}

/// A cyclic barrier (the `pthread_barrier_t` shim).
#[derive(Debug)]
pub struct InspBarrier {
    object: SyncObject,
    parties: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct BarrierState {
    waiting: usize,
    generation: u64,
}

impl InspBarrier {
    /// Creates a barrier for `parties` threads.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "barrier needs at least one party");
        InspBarrier {
            object: fresh_sync_object(),
            parties,
            state: Mutex::new(BarrierState::default()),
            cv: Condvar::new(),
        }
    }

    /// The provenance identity of this barrier.
    pub fn id(&self) -> SyncObjectId {
        self.object.id()
    }

    /// Number of participating threads.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Waits until all parties have arrived. Returns `true` for exactly one
    /// "leader" thread per cycle (mirroring
    /// `PTHREAD_BARRIER_SERIAL_THREAD`).
    pub fn wait(&self, ctx: &mut ThreadCtx) -> bool {
        // One boundary: publish this thread's updates (and clock) before
        // blocking, and observe everyone else's after unblocking.
        ctx.acquire_with(&self.object, SyncKind::ReleaseAcquire, || {
            let mut st = self.state.lock();
            let generation = st.generation;
            st.waiting += 1;
            let leader = st.waiting == self.parties;
            if leader {
                st.waiting = 0;
                st.generation += 1;
                drop(st);
                self.cv.notify_all();
            } else {
                while st.generation == generation {
                    st = wait(&self.cv, st);
                }
            }
            leader
        })
    }
}

/// A condition variable (the `pthread_cond_t` shim).
#[derive(Debug)]
pub struct InspCondvar {
    object: SyncObject,
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl Default for InspCondvar {
    fn default() -> Self {
        Self::new()
    }
}

impl InspCondvar {
    /// Creates a condition variable.
    pub fn new() -> Self {
        InspCondvar {
            object: fresh_sync_object(),
            epoch: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// The provenance identity of this condition variable.
    pub fn id(&self) -> SyncObjectId {
        self.object.id()
    }

    /// `pthread_cond_wait`: atomically releases `mutex`, waits for a signal,
    /// and re-acquires `mutex` before returning.
    pub fn wait(&self, ctx: &mut ThreadCtx, mutex: &InspMutex) {
        // Snapshot the epoch *before* releasing the mutex so a signal sent
        // between unlock and block is not missed.
        let start_epoch = *self.epoch.lock();
        mutex.unlock(ctx);
        // Order this thread after the signaller.
        ctx.acquire_with(&self.object, SyncKind::Acquire, || {
            let mut epoch = self.epoch.lock();
            while *epoch == start_epoch {
                epoch = wait(&self.cv, epoch);
            }
        });
        mutex.lock(ctx);
    }

    /// `pthread_cond_signal` / `broadcast`: wakes all current waiters.
    pub fn signal(&self, ctx: &mut ThreadCtx) {
        ctx.release_with(&self.object, || {
            *self.epoch.lock() += 1;
            self.cv.notify_all();
        });
    }
}

/// A readers-writer lock (the `pthread_rwlock_t` shim).
///
/// Readers acquire/release the object like any other acquirer so that writer
/// updates are ordered before subsequent readers; concurrent readers do not
/// order each other.
#[derive(Debug)]
pub struct InspRwLock {
    object: SyncObject,
    state: Mutex<RwState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct RwState {
    readers: usize,
    writer: bool,
}

impl Default for InspRwLock {
    fn default() -> Self {
        Self::new()
    }
}

impl InspRwLock {
    /// Creates an unlocked readers-writer lock.
    pub fn new() -> Self {
        InspRwLock {
            object: fresh_sync_object(),
            state: Mutex::new(RwState::default()),
            cv: Condvar::new(),
        }
    }

    /// The provenance identity of this lock.
    pub fn id(&self) -> SyncObjectId {
        self.object.id()
    }

    /// Acquires the lock for reading.
    pub fn read_lock(&self, ctx: &mut ThreadCtx) {
        ctx.acquire_with(&self.object, SyncKind::Acquire, || {
            let mut st = self.state.lock();
            while st.writer {
                st = wait(&self.cv, st);
            }
            st.readers += 1;
        });
    }

    /// Releases a read lock.
    pub fn read_unlock(&self, ctx: &mut ThreadCtx) {
        ctx.release_with(&self.object, || {
            let mut st = self.state.lock();
            assert!(st.readers > 0, "read_unlock without read_lock");
            st.readers -= 1;
            if st.readers == 0 {
                self.cv.notify_all();
            }
        });
    }

    /// Acquires the lock for writing.
    pub fn write_lock(&self, ctx: &mut ThreadCtx) {
        ctx.acquire_with(&self.object, SyncKind::Acquire, || {
            let mut st = self.state.lock();
            while st.writer || st.readers > 0 {
                st = wait(&self.cv, st);
            }
            st.writer = true;
        });
    }

    /// Releases a write lock.
    pub fn write_unlock(&self, ctx: &mut ThreadCtx) {
        ctx.release_with(&self.object, || {
            let mut st = self.state.lock();
            assert!(st.writer, "write_unlock without write_lock");
            st.writer = false;
            drop(st);
            self.cv.notify_all();
        });
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    use super::*;
    use crate::config::SessionConfig;
    use crate::session::InspectorSession;
    use inspector_core::graph::{Cpg, EdgeKind};
    use inspector_core::ids::{SubId, ThreadId};

    /// Runs `test` on a thread of its own and fails if it has not finished
    /// within `limit`: a lost wakeup fails the test instead of hanging it.
    fn within(limit: Duration, test: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let runner = std::thread::spawn(move || {
            test();
            let _ = done.send(());
        });
        match finished.recv_timeout(limit) {
            Ok(()) => runner.join().expect("test thread"),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().expect_err("the test panicked"))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("still blocked after {limit:?}"),
        }
    }

    #[test]
    fn contended_increments_are_exact_in_both_modes() {
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 10_000;
        for config in [SessionConfig::inspector(), SessionConfig::native()] {
            within(Duration::from_secs(120), move || {
                let session = InspectorSession::new(config);
                let counter = session.map_region("counter", 8).base();
                let lock = Arc::new(InspMutex::new());
                session.run(|ctx| {
                    let handles: Vec<_> = (0..THREADS)
                        .map(|_| {
                            let lock = Arc::clone(&lock);
                            ctx.spawn(move |ctx| {
                                for _ in 0..ROUNDS {
                                    lock.lock(ctx);
                                    let v = ctx.read_u64(counter);
                                    ctx.write_u64(counter, v + 1);
                                    lock.unlock(ctx);
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        ctx.join(h);
                    }
                });
                assert_eq!(
                    session.image().read_u64_direct(counter),
                    THREADS * ROUNDS,
                    "{:?}",
                    session.config().mode
                );
                assert_eq!(lock.waiters.load(Ordering::SeqCst), 0);
            });
        }
    }

    #[test]
    fn a_parked_waiter_is_woken_by_unlock() {
        within(Duration::from_secs(30), || {
            let session = InspectorSession::new(SessionConfig::inspector());
            let lock = Arc::new(InspMutex::new());
            session.run(|ctx| {
                lock.lock(ctx);
                let waiter = {
                    let lock = Arc::clone(&lock);
                    ctx.spawn(move |ctx| {
                        lock.lock(ctx);
                        lock.unlock(ctx);
                    })
                };
                // Hold the lock until the waiter has spun out and parked,
                // then a few milliseconds more.
                while lock.waiters.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                std::thread::sleep(Duration::from_millis(5));
                lock.unlock(ctx);
                ctx.join(waiter);
            });
            assert!(!lock.locked.load(Ordering::SeqCst));
            assert_eq!(lock.waiters.load(Ordering::SeqCst), 0);
        });
    }

    #[test]
    fn a_failed_try_lock_closes_no_sub_computation() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let lock = InspMutex::new();
        let report = session.run(|ctx| {
            lock.lock(ctx);
            assert!(!lock.try_lock(ctx), "the lock is held");
            lock.unlock(ctx);
            assert!(lock.try_lock(ctx));
            lock.unlock(ctx);
        });
        // Two locks and two unlocks: four boundaries, five sub-computations.
        assert_eq!(report.stats.recorder.sync_ops, 4);
        assert_eq!(report.cpg.node_count(), 5);
    }

    /// Runs `app` as a session's root thread (thread 0, the session's
    /// first) and returns the sealed graph and the worker `app` spawned.
    fn sealed(app: impl FnOnce(&mut ThreadCtx) -> ThreadId) -> (Cpg, ThreadId) {
        let session = InspectorSession::new(SessionConfig::inspector());
        let mut worker = None;
        let report = session.run(|ctx| worker = Some(app(ctx)));
        assert!(report.cpg.validate().is_ok());
        (report.cpg, worker.expect("the app returns its worker"))
    }

    /// Asserts that `object` handed off from thread `from` to thread `to`:
    /// the sub-computation `from` closed with its (only) release of `object`
    /// happens-before the one `to` opened with its last acquire of it, and a
    /// synchronization edge naming `object` joins the two. A barrier's
    /// release-acquire counts as both.
    fn assert_hand_off(cpg: &Cpg, object: SyncObjectId, from: ThreadId, to: ThreadId) {
        let ends_with = |id: &SubId, kind: SyncKind| {
            let terminator = cpg.node(*id).expect("listed node").terminator;
            terminator.is_some_and(|p| {
                p.object == object && (p.kind == kind || p.kind == SyncKind::ReleaseAcquire)
            })
        };
        let releases: Vec<_> = cpg
            .thread_sequence(from)
            .into_iter()
            .filter(|id| ends_with(id, SyncKind::Release))
            .collect();
        assert_eq!(releases.len(), 1, "{object:?}: releases by {from:?}");
        let to_seq = cpg.thread_sequence(to);
        let acquire = to_seq
            .iter()
            .rposition(|id| ends_with(id, SyncKind::Acquire))
            .unwrap_or_else(|| panic!("{object:?}: no acquire by {to:?}"));
        let (released, acquired) = (releases[0], to_seq[acquire + 1]);
        assert!(
            cpg.happens_before(released, acquired),
            "{object:?}: {released:?} does not happen-before {acquired:?}"
        );
        assert!(
            cpg.edges_of_kind(EdgeKind::Synchronization)
                .any(|e| (e.src, e.dst, e.object) == (released, acquired, Some(object))),
            "{object:?}: no synchronization edge {released:?} -> {acquired:?}"
        );
    }

    /// The object of the `nth` synchronization `thread` closed at.
    fn object_at(cpg: &Cpg, thread: ThreadId, nth: usize) -> SyncObjectId {
        let ids = cpg.thread_sequence(thread);
        let mut points = ids
            .iter()
            .filter_map(|id| cpg.node(*id).unwrap().terminator);
        points.nth(nth).expect("a synchronization point").object
    }

    #[test]
    fn every_primitive_hand_off_is_a_synchronization_edge() {
        let main = ThreadId::new(0);

        // Mutex: held across the spawn, so the worker's lock returns only
        // after the main thread's unlock.
        let lock = Arc::new(InspMutex::new());
        let (cpg, worker) = sealed(|ctx| {
            lock.lock(ctx);
            let worker = {
                let lock = Arc::clone(&lock);
                ctx.spawn(move |ctx| lock.with(ctx, |_| ()))
            };
            lock.unlock(ctx);
            let thread = worker.thread();
            ctx.join(worker);
            thread
        });
        assert_hand_off(&cpg, lock.id(), main, worker);

        // Semaphore: the wait returns only after the worker's post.
        let sem = Arc::new(InspSemaphore::new(0));
        let (cpg, worker) = sealed(|ctx| {
            let worker = {
                let sem = Arc::clone(&sem);
                ctx.spawn(move |ctx| sem.post(ctx))
            };
            sem.wait(ctx);
            let thread = worker.thread();
            ctx.join(worker);
            thread
        });
        assert_hand_off(&cpg, sem.id(), worker, main);

        // Barrier: each party's arrival happens-before the other's exit,
        // and a wait closes one sub-computation — the party's work before
        // it — not a second, empty one between its release and acquire.
        let barrier = Arc::new(InspBarrier::new(2));
        let (cpg, worker) = sealed(|ctx| {
            let worker = {
                let barrier = Arc::clone(&barrier);
                ctx.spawn(move |ctx| {
                    ctx.branch(true);
                    barrier.wait(ctx);
                })
            };
            ctx.branch(false);
            barrier.wait(ctx);
            let thread = worker.thread();
            ctx.join(worker);
            thread
        });
        assert_hand_off(&cpg, barrier.id(), worker, main);
        assert_hand_off(&cpg, barrier.id(), main, worker);
        for party in [main, worker] {
            let closed: Vec<_> = cpg
                .thread_sequence(party)
                .into_iter()
                .map(|id| cpg.node(id).expect("listed node"))
                .filter(|sub| sub.terminator.is_some_and(|p| p.object == barrier.id()))
                .collect();
            assert_eq!(closed.len(), 1, "{party:?}: one wait, one boundary");
            assert!(!closed[0].thunks.is_empty(), "{party:?}: empty {closed:?}");
        }

        // Condition variable: the main thread holds the mutex until its wait
        // releases it, so the worker's signal comes after the wait's epoch
        // snapshot and the wait returns only after that signal.
        let (lock, cond) = (Arc::new(InspMutex::new()), Arc::new(InspCondvar::new()));
        let flag = Arc::new(AtomicBool::new(false));
        let (cpg, worker) = sealed(|ctx| {
            lock.lock(ctx);
            let worker = {
                let (lock, cond, flag) = (Arc::clone(&lock), Arc::clone(&cond), Arc::clone(&flag));
                ctx.spawn(move |ctx| {
                    lock.lock(ctx);
                    flag.store(true, Ordering::SeqCst);
                    cond.signal(ctx);
                    lock.unlock(ctx);
                })
            };
            while !flag.load(Ordering::SeqCst) {
                cond.wait(ctx, &lock);
            }
            lock.unlock(ctx);
            let thread = worker.thread();
            ctx.join(worker);
            thread
        });
        assert_hand_off(&cpg, cond.id(), worker, main);

        // Readers-writer lock: write-locked across the spawn, so the
        // worker's read (then write) lock returns only after the main
        // thread's write unlock.
        for write in [false, true] {
            let rw = Arc::new(InspRwLock::new());
            let (cpg, worker) = sealed(|ctx| {
                rw.write_lock(ctx);
                let worker = {
                    let rw = Arc::clone(&rw);
                    ctx.spawn(move |ctx| {
                        if write {
                            rw.write_lock(ctx);
                            rw.write_unlock(ctx);
                        } else {
                            rw.read_lock(ctx);
                            rw.read_unlock(ctx);
                        }
                    })
                };
                rw.write_unlock(ctx);
                let thread = worker.thread();
                ctx.join(worker);
                thread
            });
            assert_hand_off(&cpg, rw.id(), main, worker);
        }

        // Spawn and join: the child's first synchronization acquires the
        // start object, its last releases the exit object.
        let (cpg, worker) = sealed(|ctx| {
            let worker = ctx.spawn(|ctx| ctx.branch(true));
            let thread = worker.thread();
            ctx.join(worker);
            thread
        });
        assert_hand_off(&cpg, object_at(&cpg, worker, 0), main, worker);
        assert_hand_off(&cpg, object_at(&cpg, worker, 1), worker, main);
    }
}
