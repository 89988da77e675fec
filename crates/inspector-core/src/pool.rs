//! One scoped fan-out over independent units of work.
//!
//! The read side of the spill tier (segment scans for the seal's replay and
//! for offline recovery) and the batch edge derivation split into units
//! that share nothing mutable. [`fan_out`]
//! runs them on scoped worker threads and hands the results to the caller
//! **in unit order**, so whatever the caller folds them into (a report, a
//! node run, an edge vector) comes out exactly as a sequential pass would
//! have built it.
//!
//! There is no setting: the worker count is the host's
//! [`available_parallelism`](std::thread::available_parallelism), capped by
//! how much work there is ([`workers`]). With one worker nothing is
//! spawned and each unit runs on the calling thread when the caller asks
//! for its result.
//!
//! Workers stay at most a few units ahead of the result the caller waits
//! for, so finished results that have not been taken yet — and the memory
//! they hold — stay bounded however fast the workers are.
//!
//! The units themselves never panic on damaged input: spill decoding
//! returns typed errors and the derivation is total. A panic in a worker is
//! therefore a bug; it stops the other workers and is re-raised on the
//! calling thread with its original payload
//! ([`std::panic::resume_unwind`]).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Units a worker may run ahead of the one the caller waits for, per
/// worker.
const AHEAD_PER_WORKER: usize = 1;

/// The host's parallelism, read once: the standard library re-reads the
/// affinity mask and cgroup quota on every call.
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
thread_local! {
    /// Test seam: a worker count that replaces the host's parallelism and
    /// the minimum-work rule, set by [`with_workers`].
    static FORCED_WORKERS: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with every fan-out it starts on this thread using `workers`
/// workers (capped by the unit count), however little work there is.
#[cfg(test)]
pub(crate) fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    struct Reset(Option<usize>);
    impl Drop for Reset {
        fn drop(&mut self) {
            FORCED_WORKERS.with(|forced| forced.set(self.0));
        }
    }
    let _reset = Reset(FORCED_WORKERS.with(|forced| forced.replace(Some(workers))));
    f()
}

/// Workers for `items` items of work when one worker should get at least
/// `min_per_worker` of them: the host's parallelism, capped so no worker
/// gets less, and never below one.
pub(crate) fn workers(items: usize, min_per_worker: usize) -> usize {
    #[cfg(test)]
    if let Some(forced) = FORCED_WORKERS.with(std::cell::Cell::get) {
        return forced.min(items).max(1);
    }
    host_parallelism().min(items / min_per_worker.max(1)).max(1)
}

/// The most results of a fan-out over `workers` workers that exist at once:
/// those started at or past the one the caller waits for, and the one the
/// caller holds.
pub(crate) fn in_flight(workers: usize) -> usize {
    if workers <= 1 {
        1
    } else {
        workers * AHEAD_PER_WORKER + 1
    }
}

/// Runs `work(state, i)` for every unit `i` in `0..units` and lets `caller`
/// take the results, in unit order, from the iterator it is handed; returns
/// what `caller` returns.
///
/// With `workers > 1`, that many scoped threads each take one `state` made
/// by `init` and units one at a time off a shared counter, so uneven units
/// balance, while the calling thread runs `caller`. The states are made on
/// the calling thread, so buffers they hold come from the allocator memory
/// the caller reuses afterwards, not from a worker's. With one worker,
/// each unit runs on the calling thread when `caller` asks for its result.
/// A caller that stops iterating early stops the hand-out of further units.
pub(crate) fn fan_out<S: Send, R: Send, T>(
    units: usize,
    workers: usize,
    init: impl Fn() -> S,
    work: impl Fn(&mut S, usize) -> R + Sync,
    caller: impl FnOnce(&mut dyn Iterator<Item = R>) -> T,
) -> T {
    if workers <= 1 || units <= 1 {
        let mut state = init();
        return caller(&mut (0..units).map(|unit| work(&mut state, unit)));
    }
    let workers = workers.min(units);
    let next = AtomicUsize::new(0);
    let gate = Gate {
        due: Mutex::new(0),
        moved: Condvar::new(),
        stop: AtomicBool::new(false),
        ahead: workers * AHEAD_PER_WORKER,
    };
    let (sender, results) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (sender, mut state) = (sender.clone(), init());
                let (next, gate, work) = (&next, &gate, &work);
                scope.spawn(move || {
                    let _halt = Halt {
                        gate,
                        unless_done: true,
                    };
                    loop {
                        let unit = next.fetch_add(1, Ordering::Relaxed);
                        if unit >= units || !gate.admit(unit) {
                            break;
                        }
                        if sender.send((unit, work(&mut state, unit))).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        drop(sender);
        let out = {
            // However the caller leaves — done, early, or unwinding — no
            // worker may go on waiting for it.
            let _halt = Halt {
                gate: &gate,
                unless_done: false,
            };
            caller(&mut InOrder {
                results,
                parked: (0..units).map(|_| None).collect(),
                due: 0,
                gate: &gate,
            })
        };
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        out
    })
}

/// What the workers and the caller share besides the result channel: the
/// unit the caller waits for, and whether to stop.
struct Gate {
    due: Mutex<usize>,
    /// Signalled when `due` moves or `stop` is set.
    moved: Condvar,
    stop: AtomicBool,
    /// How far past `due` a unit may start.
    ahead: usize,
}

impl Gate {
    fn lock(&self) -> MutexGuard<'_, usize> {
        self.due.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until `unit` is close enough to the caller's; `false` when
    /// the fan-out stops instead.
    fn admit(&self, unit: usize) -> bool {
        let due = self.lock();
        let _due = self
            .moved
            .wait_while(due, |due| {
                !self.stop.load(Ordering::Relaxed) && unit >= *due + self.ahead
            })
            .unwrap_or_else(PoisonError::into_inner);
        !self.stop.load(Ordering::Relaxed)
    }

    fn advance(&self, due: usize) {
        *self.lock() = due;
        self.moved.notify_all();
    }

    fn halt(&self) {
        let _due = self.lock();
        self.stop.store(true, Ordering::Relaxed);
        self.moved.notify_all();
    }
}

/// Stops the fan-out when it drops: the caller's always, a worker's only
/// when it unwinds, so that no thread waits for a result that will never
/// come.
struct Halt<'g> {
    gate: &'g Gate,
    /// A worker that ran out of units leaves the others running.
    unless_done: bool,
}

impl Drop for Halt<'_> {
    fn drop(&mut self) {
        if !self.unless_done || std::thread::panicking() {
            self.gate.halt();
        }
    }
}

/// The caller's view of a threaded fan-out: results in unit order. Ends
/// early only if a worker died, and [`fan_out`] then re-raises its panic.
struct InOrder<'g, R> {
    results: Receiver<(usize, R)>,
    /// Results that overtook an earlier unit, waiting for their turn.
    parked: Vec<Option<R>>,
    due: usize,
    gate: &'g Gate,
}

impl<R> Iterator for InOrder<'_, R> {
    type Item = R;

    fn next(&mut self) -> Option<R> {
        loop {
            if let Some(result) = self.parked.get_mut(self.due)?.take() {
                self.due += 1;
                self.gate.advance(self.due);
                return Some(result);
            }
            let (unit, result) = self.results.recv().ok()?;
            self.parked[unit] = Some(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every result of [`fan_out`], in unit order.
    fn map<R: Send>(units: usize, workers: usize, work: impl Fn(usize) -> R + Sync) -> Vec<R> {
        fan_out(
            units,
            workers,
            || (),
            |_, unit| work(unit),
            |results| results.collect(),
        )
    }

    #[test]
    fn results_arrive_in_unit_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8] {
            // With several workers, unit 0 waits until unit 1 is done, so a
            // later result always overtakes an earlier one.
            let (done, overtaken) = mpsc::channel();
            let overtaken = Mutex::new(overtaken);
            let out = map(40, workers, |unit| {
                if workers > 1 && unit == 0 {
                    overtaken.lock().unwrap().recv().unwrap();
                }
                if workers > 1 && unit == 1 {
                    done.send(()).unwrap();
                }
                unit * unit
            });
            assert_eq!(out, (0..40).map(|u| u * u).collect::<Vec<_>>());
        }
    }

    #[test]
    fn workers_never_run_far_ahead_of_the_caller() {
        let started = AtomicUsize::new(0);
        fan_out(
            64,
            4,
            || (),
            |_, unit| {
                started.fetch_add(1, Ordering::SeqCst);
                unit
            },
            |results| {
                for (taken, unit) in results.enumerate() {
                    assert_eq!(unit, taken);
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    let running = started.load(Ordering::SeqCst);
                    assert!(
                        running <= taken + 1 + 4 * AHEAD_PER_WORKER,
                        "{running} after {taken}"
                    );
                }
            },
        );
    }

    #[test]
    fn a_caller_that_stops_early_stops_the_fan_out() {
        for workers in [1, 4] {
            let started = AtomicUsize::new(0);
            let first: Vec<usize> = fan_out(
                1000,
                workers,
                || (),
                |_, unit| {
                    started.fetch_add(1, Ordering::SeqCst);
                    unit
                },
                |results| results.take(8).collect(),
            );
            assert_eq!(first, (0..8).collect::<Vec<_>>());
            assert!(started.load(Ordering::SeqCst) < 100);
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            map(16, 4, |unit| {
                if unit == 9 {
                    panic!("unit nine");
                }
                unit
            })
        });
        let payload = caught.expect_err("the panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"unit nine"));
    }

    #[test]
    fn the_worker_count_respects_work_and_the_test_seam() {
        assert_eq!(workers(0, 1), 1);
        assert_eq!(workers(10, 100), 1);
        assert!(workers(1 << 20, 1) >= 1);
        with_workers(4, || {
            assert_eq!(workers(10, 100), 4);
            assert_eq!(workers(2, 1), 2);
        });
        assert_eq!(workers(10, 100), 1);
    }
}
