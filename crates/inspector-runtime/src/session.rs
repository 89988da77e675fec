//! The INSPECTOR session: owns the shared substrate, streams retired
//! provenance into the sharded CPG builder while the application runs, and
//! produces the run report.
//!
//! # Streaming pipeline
//!
//! Every [`ThreadCtx`] closes one sub-computation per synchronization
//! boundary and publishes it **by value**, as one `IngestMsg::Sub`, on a
//! bounded lane (`lane.rs`: delivery at every boundary, the consumer's
//! wake deferred until a backlog is worth a futex).
//! The lanes fan out across an **ingest-thread pool**
//! ([`SessionConfig::ingest_threads`] workers, spawned per
//! [`InspectorSession::run`]): each worker owns one lane, and an
//! application thread always sends on lane `ThreadId % pool`, so one
//! thread's sub-computations can never reorder — the per-thread FIFO
//! invariant the lock-striped [`ShardedCpgBuilder`] relies on — while
//! different threads' provenance is ingested genuinely in parallel.
//!
//! The builder only stores what the workers hand it (see
//! [`inspector_core::sharded`]): when the run's last sender drops and the
//! workers drain their lanes and exit, the session's
//! [`seal`](ShardedCpgBuilder::seal) concatenates the stored runs and
//! derives control, synchronization and data-dependence edges over them,
//! on every core. Each worker's busy
//! time is aggregated into [`RunStats`] both as a sum
//! (`graph_ingest_cpu_time`: total construction CPU) and as a max
//! (`graph_ingest_time`: the critical-path share the overlap could not
//! hide), so Figure 6 can report the overlap factor.
//!
//! The PT packet stream takes no lane: each thread's trace keeps the only
//! copy of its PT log, flushed at every boundary, and moves the whole log
//! into the session's logs, under its thread id, once, when the thread
//! exits — the per-thread stream `perf record` collects through its cgroup
//! filter (§V-B), with no filter to pass since the runtime starts every
//! thread itself. After the pool is joined and before the seal, every run
//! decodes each reporting thread's log with a [`StreamingDecoder`] and
//! cross-checks the decoded branch count against that thread's recorder,
//! as `perf record`'s log is decoded after the run. The cost is attributed
//! as the `pt_decode` phase
//! (`RunStats::{decoded_branches, decode_errors, decode_time, ...}`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use inspector_core::graph::Cpg;
use inspector_core::ids::ThreadId;
use inspector_core::recorder::RecorderStats;
use inspector_core::sharded::{IngestStats, ShardedCpgBuilder, DEFAULT_SHARDS};
use inspector_core::snapshot::Snapshot;
use inspector_core::subcomputation::SubComputation;
use inspector_mem::alloc::HeapAllocator;
use inspector_mem::region::Region;
use inspector_mem::shared::SharedImage;
use inspector_mem::stats::MemStats;
use inspector_perf::bandwidth::SpaceReport;
use inspector_pt::stats::PtStats;
use inspector_pt::stream::StreamingDecoder;

use crate::config::{ExecutionMode, FaultPlan, SessionConfig};
use crate::ctx::ThreadCtx;
use crate::lane::{lane, LaneReceiver, LaneSender, LANE_DEPTH};
use crate::report::{RunReport, RunStats};

/// Size of the shared heap mapped at session creation. Pages are
/// materialised lazily, so a generous reservation costs nothing.
const HEAP_BYTES: u64 = 256 << 20;

/// Resolves the spill configuration for one run's streaming builder:
/// `None` when spilling is off (threshold 0 or a native run, which never
/// ingests), otherwise a run-unique subdirectory under the configured
/// [`SessionConfig::spill_dir`] (or the system temp dir), so neither
/// concurrent sessions nor a session's successive runs collide on segment
/// files, with the [`FaultPlan`]'s two spill fault points.
fn spill_settings_for(config: &SessionConfig) -> Option<inspector_core::spill::SpillSettings> {
    use std::sync::atomic::AtomicU64 as SeqCounter;
    static NEXT_SPILL_DIR: SeqCounter = SeqCounter::new(0);
    if config.spill_threshold == 0 || config.mode != ExecutionMode::Inspector {
        return None;
    }
    let base = config.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
    let sequence = NEXT_SPILL_DIR.fetch_add(1, Ordering::Relaxed);
    let unique = base.join(format!(
        "inspector-spill-{}-{}",
        std::process::id(),
        sequence
    ));
    // The session id stamped into every segment header and the manifest:
    // unique per (process, run) so recovery can reject segments that
    // leaked in from another run sharing the directory.
    let session_id = ((std::process::id() as u64) << 32) | (sequence & 0xFFFF_FFFF);
    Some(inspector_core::spill::SpillSettings {
        fail_write_at: config.fault_plan.fail_spill_write,
        crash_after_records: config.fault_plan.crash_at_spill,
        ..inspector_core::spill::SpillSettings::new(config.spill_threshold, unique)
            .with_durability(config.spill_durability)
            .with_session_id(session_id)
            .with_retain_on_seal(config.spill_retain)
    })
}

/// Everything a thread reports when it exits (its sub-computations have
/// already been streamed one by one).
#[derive(Debug)]
pub(crate) struct ThreadDone {
    pub(crate) thread: ThreadId,
    pub(crate) mem: MemStats,
    pub(crate) pt: PtStats,
    pub(crate) recorder: RecorderStats,
    pub(crate) spawn_overhead: Duration,
}

/// A message on the provenance ingest channel.
#[derive(Debug)]
pub(crate) enum IngestMsg {
    /// One retired sub-computation, handed off by value — what every
    /// synchronization boundary and every thread exit publishes.
    Sub(SubComputation),
    /// A thread finished; carries its statistics.
    Done(ThreadDone),
    /// Flush barrier: acknowledged once every message queued before it on
    /// the same lane has been applied. [`Shared::flush_barrier`] pushes one
    /// through *every* lane so a snapshot observes at least everything the
    /// snapshotting thread already flushed.
    Barrier(std::sync::mpsc::Sender<()>),
}

/// Shared state visible to every thread context of a session.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) config: SessionConfig,
    pub(crate) image: Arc<SharedImage>,
    /// Each exited thread's whole PT log, moved in by `ThreadCtx::finish`
    /// under its thread id.
    pub(crate) logs: Mutex<BTreeMap<ThreadId, Vec<u8>>>,
    pub(crate) allocator: HeapAllocator,
    /// The streaming builder of the current (or latest) run. Every
    /// [`InspectorSession::run`] starts a fresh one with its own spill
    /// directory, so no run writes over an image a previous seal kept.
    builder: Mutex<Arc<ShardedCpgBuilder>>,
    next_thread: AtomicU32,
    spawned_threads: AtomicU64,
    /// Sender sides of the ingest-pool lanes of the *current* run (one per
    /// pool worker). Present only while [`InspectorSession::run`] is
    /// executing; thread contexts clone their lane at construction.
    ingest_tx: Mutex<Option<Vec<LaneSender<IngestMsg>>>>,
}

impl Shared {
    /// A fresh thread id. During an Inspector run it also opens the
    /// thread's run in the run's builder, here, on the thread that asks:
    /// the root's id on the session's calling thread, a child's on its
    /// parent. For the root and every thread the root spawns, that is the
    /// thread that seals the run, so the run grows in the arena it is
    /// freed into (see [`ShardedCpgBuilder::open_run`]).
    pub(crate) fn allocate_thread_id(&self) -> ThreadId {
        let thread = ThreadId::new(self.next_thread.fetch_add(1, Ordering::Relaxed));
        if self.config.mode == ExecutionMode::Inspector {
            // Held across the open: the lanes close before the seal starts,
            // so while they are open the run's builder is not sealed. A
            // thread that a panicked run never joined may spawn outside
            // any run; its child opens nothing.
            let lanes = self.ingest_tx.lock();
            if lanes.is_some() {
                self.builder().open_run(thread);
            }
        }
        thread
    }

    /// The current run's builder.
    fn builder(&self) -> Arc<ShardedCpgBuilder> {
        Arc::clone(&self.builder.lock())
    }

    pub(crate) fn note_spawn(&self) {
        self.spawned_threads.fetch_add(1, Ordering::Relaxed);
    }

    /// The lane `thread` must send its provenance on: lanes are assigned by
    /// `ThreadId % pool`, so one thread's sub-computations always travel the
    /// same lane and can never reorder.
    pub(crate) fn ingest_sender_for(&self, thread: ThreadId) -> Option<LaneSender<IngestMsg>> {
        self.ingest_tx
            .lock()
            .as_ref()
            .map(|lanes| lanes[thread.index() % lanes.len()].clone())
    }

    /// Pushes a flush barrier through every lane and waits for all acks, so
    /// the caller afterwards observes at least every sub-computation that
    /// was flushed before the call — regardless of which lane carried it.
    /// No-op when no run is active.
    pub(crate) fn flush_barrier(&self) {
        let lanes = match &*self.ingest_tx.lock() {
            Some(lanes) => lanes.clone(),
            None => return,
        };
        let acks: Vec<_> = lanes
            .iter()
            .filter_map(|lane| {
                let (ack_tx, ack_rx) = std::sync::mpsc::channel();
                // Urgent: the caller blocks on the ack, so a parked worker
                // must not sit on it until a backlog builds up.
                lane.send_urgent(IngestMsg::Barrier(ack_tx))
                    .ok()
                    .map(|()| ack_rx)
            })
            .collect();
        for ack in acks {
            let _ = ack.recv();
        }
    }
}

/// Clears the run's ingest sender even if the application closure panics,
/// so the ingest thread always observes channel disconnection and exits.
struct SenderGuard<'a>(&'a Shared);

impl Drop for SenderGuard<'_> {
    fn drop(&mut self) {
        *self.0.ingest_tx.lock() = None;
    }
}

/// What one pool worker hands back when its lane disconnects.
pub(crate) struct WorkerOutcome {
    /// Exit statistics of the threads that reported on this lane.
    pub(crate) done: Vec<ThreadDone>,
    /// Time spent applying sub-computations to the sharded builder
    /// (blocking on the empty lane is overlap, not cost).
    pub(crate) busy: Duration,
}

/// One pool worker's ingest loop: applies every sub-computation streamed on
/// its lane to the run's sharded builder and collects per-thread statistics.
fn ingest_loop(
    rx: LaneReceiver<IngestMsg>,
    builder: Arc<ShardedCpgBuilder>,
    plan: FaultPlan,
    lane: usize,
) -> WorkerOutcome {
    let mut done = Vec::new();
    let mut busy = Duration::ZERO;
    // Deterministic worker-death injection: this lane dies on its Nth
    // provenance message. The supervisor in `try_run` catches the unwind;
    // dropping `rx` mid-loop closes the lane so producers fail fast.
    let panic_at = (plan.panic_worker == lane as u64 + 1)
        .then_some(plan.panic_at_batch)
        .filter(|&at| at > 0);
    let mut batches = 0u64;
    while let Ok(msg) = rx.recv() {
        match msg {
            IngestMsg::Sub(sub) => {
                batches += 1;
                if panic_at == Some(batches) {
                    panic!("injected fault: ingest worker {lane} died at message {batches}");
                }
                let start = Instant::now();
                builder.ingest(sub);
                busy += start.elapsed();
            }
            IngestMsg::Done(stats) => done.push(stats),
            IngestMsg::Barrier(ack) => {
                let _ = ack.send(());
            }
        }
    }
    WorkerOutcome { done, busy }
}

/// Whether the run lost or damaged anything so far: the health predicate
/// behind [`RunStats::degraded`].
fn is_degraded(stats: &RunStats) -> bool {
    stats.gaps != 0
        || stats.lost_bytes != 0
        || stats.decode_errors != 0
        || stats.decode_degraded != 0
        || stats.spill_fallbacks != 0
        || stats.worker_failures != 0
}

/// Decodes one thread's PT log as `perf record`'s log is decoded after
/// the run, and cross-checks it against the thread's recorder.
///
/// An armed
/// [`FaultPlan::corrupt_aux_at`](crate::config::FaultPlan::corrupt_aux_at)
/// flips its byte on the way in — `log[..t]`, the flipped byte, `log[t+1..]`
/// — so the kept log itself stays intact.
fn check_thread_log(log: &[u8], corrupt_aux_at: u64, thread: &ThreadDone, stats: &mut RunStats) {
    let start = Instant::now();
    let mut decoder = StreamingDecoder::counting_only();
    // 64 KiB slices: the decoder copies each pushed slice into its carry
    // buffer, which would otherwise grow to the whole log.
    let mut push = |bytes: &[u8]| bytes.chunks(64 << 10).for_each(|s| decoder.push(s));
    match corrupt_aux_at.checked_sub(1).map(|t| t as usize) {
        Some(t) if t < log.len() => {
            push(&log[..t]);
            push(&[log[t] ^ 0xFF]);
            push(&log[t + 1..]);
        }
        _ => push(log),
    }
    decoder.finish();
    stats.decode_time += start.elapsed();
    let s = decoder.stats();
    // On a loss- and error-free stream the decoded branches must equal what
    // the recorder saw. With gaps or errors the expected count is
    // unknowable, so the check degrades to accounting instead.
    if s.errors == 0 && thread.pt.bytes_lost == 0 && thread.pt.gaps == 0 {
        if s.branches != thread.pt.branches {
            stats.decode_mismatches += 1;
        }
    } else {
        stats.decode_degraded += 1;
    }
    stats.decoded_branches += s.branches;
    stats.decode_bytes += s.bytes_consumed;
    stats.decode_errors += s.errors;
}

/// Handle for taking consistent snapshots while the traced program runs
/// (the §VI live-analysis facility). There is nothing to switch on and
/// nothing is stored: a snapshot costs nothing until
/// [`snapshot`](Self::snapshot) is called, and it is cut directly from the
/// streaming builder's shard store.
#[derive(Debug, Clone)]
pub struct LiveMonitor {
    shared: Arc<Shared>,
}

impl LiveMonitor {
    /// A consistent snapshot of the provenance recorded so far.
    ///
    /// A flush barrier is pushed through the ingest lanes first, so the
    /// snapshot contains at least every sub-computation that was flushed
    /// before this call; the consistent cut then trims whatever in-flight
    /// suffix would violate causality. The stripe locks are held only while
    /// the stored nodes are gathered — spilled prefixes are read back from
    /// their segments —, and the cut and the edge derivation run on the
    /// calling thread while ingest goes on.
    ///
    /// Before [`InspectorSession::run`](super::InspectorSession::run)
    /// starts, and once it has returned (the recorded provenance is then
    /// sealed into the [`crate::RunReport`]), the store is empty and so is
    /// the snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.shared.flush_barrier();
        self.shared.builder().snapshot()
    }
}

/// One ingest worker that died during a run.
#[derive(Debug, Clone)]
pub struct WorkerFailure {
    /// Lane index of the dead worker (0-based).
    pub lane: usize,
    /// Its panic payload, stringified.
    pub message: String,
}

/// A session run that lost at least one ingest worker.
///
/// The run still terminated: the dead worker's lane was closed (so
/// producers blocked on it failed fast instead of deadlocking), the
/// surviving workers drained their lanes, and the provenance ingested
/// before the failure was sealed into [`SessionError::report`] — a partial
/// but sound view, with [`RunStats::worker_failures`] and
/// [`RunStats::degraded`] set.
#[derive(Debug)]
pub struct SessionError {
    /// The workers that died, in lane order.
    pub failures: Vec<WorkerFailure>,
    /// The partial report assembled from the surviving workers.
    pub report: Box<RunReport>,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} CPG ingest worker(s) died:", self.failures.len())?;
        for failure in &self.failures {
            write!(f, " [lane {}: {}]", failure.lane, failure.message)?;
        }
        Ok(())
    }
}

impl std::error::Error for SessionError {}

/// Stringifies a worker's panic payload (the two shapes `panic!` emits).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A configured INSPECTOR session.
///
/// The session owns the shared memory image, the threads' PT logs and the
/// streaming provenance pipeline. Map shared regions and inputs first, then
/// call [`run`](Self::run) with the application's main-thread closure.
#[derive(Debug)]
pub struct InspectorSession {
    shared: Arc<Shared>,
}

impl InspectorSession {
    /// Creates a session with the given configuration.
    pub fn new(config: SessionConfig) -> Self {
        let image = SharedImage::with_default_page_size();
        let heap_region = image.map_region("shared-heap", HEAP_BYTES);
        let allocator = HeapAllocator::new(heap_region);
        let shared = Arc::new(Shared {
            config,
            image,
            logs: Mutex::new(BTreeMap::new()),
            allocator,
            // Empty until the first run replaces it: snapshots and counters
            // read it, and it spills nothing.
            builder: Mutex::new(Arc::new(ShardedCpgBuilder::new())),
            next_thread: AtomicU32::new(0),
            spawned_threads: AtomicU64::new(0),
            ingest_tx: Mutex::new(None),
        });
        InspectorSession { shared }
    }

    /// The session configuration.
    pub fn config(&self) -> SessionConfig {
        self.shared.config.clone()
    }

    /// The shared memory image (for direct initialisation of input data
    /// before the run starts).
    pub fn image(&self) -> &Arc<SharedImage> {
        &self.shared.image
    }

    /// Maps a zero-initialised shared region (globals or working arrays).
    pub fn map_region(&self, name: impl Into<String>, len: u64) -> Region {
        self.shared.image.map_region(name, len)
    }

    /// Maps an input file into the shared address space (the `mmap` shim for
    /// reading inputs), initialised with `data`. Its pages are tracked like
    /// any shared page, so a read of the input shows up in the reading
    /// sub-computation's read set.
    pub fn map_input(&self, name: impl Into<String>, data: &[u8]) -> Region {
        self.shared.image.map_input(name, data)
    }

    /// The shared heap allocator (also reachable from every
    /// [`ThreadCtx::alloc`]).
    pub fn allocator(&self) -> &HeapAllocator {
        &self.shared.allocator
    }

    /// The raw provenance log (the per-thread Intel PT packet streams,
    /// concatenated in thread-id order) — what `perf record` would have
    /// written to disk. It holds the logs of the threads that have exited:
    /// the session takes a thread's log over as the thread exits, so during
    /// a run the running threads' logs are not in it yet. Empty for native
    /// runs.
    pub fn provenance_log(&self) -> Vec<u8> {
        let logs = self.shared.logs.lock();
        logs.values()
            .map(Vec::as_slice)
            .collect::<Vec<_>>()
            .concat()
    }

    /// Counters describing how the streaming CPG build progressed (nodes
    /// stored, the spill tier's rounds, bytes and fallbacks, the resident
    /// high-water mark): the last completed run's counters once a run has
    /// finished, or the in-progress build's counters while
    /// [`run`](Self::run) is executing.
    pub fn ingest_stats(&self) -> IngestStats {
        // Each run has a builder of its own, whose counters are that run's.
        self.shared.builder().stats()
    }

    /// Returns a handle that can take consistent live snapshots from another
    /// (monitoring) thread while [`run`](Self::run) is executing. A run
    /// nobody snapshots pays nothing for it; there is no setting to enable.
    pub fn live_monitor(&self) -> LiveMonitor {
        LiveMonitor {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the application's main thread and returns the full report.
    ///
    /// Graph construction is streamed: bounded channel lanes carry every
    /// retired sub-computation to an ingest-thread pool that stores it in
    /// the sharded builder (spilling old nodes to disk when a spill tier is
    /// configured) while the application is still executing. At the end of
    /// the run the seal reads any spilled prefixes back, each followed by
    /// its thread's live suffix, into the graph's node store and derives
    /// the control, synchronization and data edges over it, on every core.
    ///
    /// Any worker threads spawned through [`ThreadCtx::spawn`] **must** be
    /// joined by the closure (as a pthreads program would); panics in
    /// workers propagate to the caller through [`ThreadCtx::join`]. A
    /// worker that is never joined keeps its end of the provenance channel
    /// open, so `run` waits for it to finish rather than returning a report
    /// with silently missing provenance.
    ///
    /// # Panics
    ///
    /// Panics if an ingest worker dies; use [`try_run`](Self::try_run) to
    /// receive the partial report as a structured [`SessionError`] instead.
    pub fn run<F>(&self, f: F) -> RunReport
    where
        F: FnOnce(&mut ThreadCtx),
    {
        self.try_run(f).unwrap_or_else(|err| panic!("{err}"))
    }

    /// Directory holding the latest run's spill artifacts (segments +
    /// `MANIFEST`), when spilling is configured and a run has started; each
    /// run has its own. After a crashed, degraded or retained run — or one
    /// whose application panicked — the directory outlives the session and
    /// can be handed to [`inspector_core::recover::recover_session`]. After
    /// a caught application panic it may still be growing: see
    /// [`try_run`](Self::try_run).
    pub fn spill_directory(&self) -> Option<std::path::PathBuf> {
        self.shared.builder().spill_directory().map(Into::into)
    }

    /// [`run`](Self::run), with ingest-worker failures reported instead of
    /// propagated. Every worker runs supervised (`catch_unwind`): when one
    /// dies, its lane closes — producers blocked on it unblock with a send
    /// error rather than deadlocking — the surviving workers drain
    /// normally, and the provenance ingested before the failure is still
    /// sealed. On failure the returned [`SessionError`] carries every dead
    /// worker's panic message plus that partial report.
    ///
    /// If the application closure panics, the panic unwinds out of this
    /// call without joining the ingest workers, and nothing is sealed.
    /// Joining them could block forever: a thread the app never joined may
    /// wait on a barrier the dead root thread never reaches. So after a
    /// caught app panic the workers may keep ingesting, and spilling into
    /// [`spill_directory`](Self::spill_directory), until the app's last
    /// unjoined thread ends: recovering the directory before then sees a
    /// prefix of what it will hold.
    pub fn try_run<F>(&self, f: F) -> Result<RunReport, SessionError>
    where
        F: FnOnce(&mut ThreadCtx),
    {
        let start = Instant::now();
        let plan = self.shared.config.fault_plan;
        let builder = Arc::new(ShardedCpgBuilder::with_shards_and_spill(
            DEFAULT_SHARDS,
            spill_settings_for(&self.shared.config),
        ));
        *self.shared.builder.lock() = Arc::clone(&builder);
        let lanes = self.shared.config.ingest_threads.max(1);
        let mut senders = Vec::with_capacity(lanes);
        let mut workers = Vec::with_capacity(lanes);
        for index in 0..lanes {
            let (tx, rx) = lane::<IngestMsg>(LANE_DEPTH);
            senders.push(tx);
            let builder = Arc::clone(&builder);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("inspector-cpg-ingest-{index}"))
                    .spawn(move || {
                        // Supervised: a panicking worker unwinds out of
                        // `ingest_loop`, dropping `rx` — the lane closes
                        // and producers blocked on it fail fast instead of
                        // deadlocking on a dead consumer.
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            ingest_loop(rx, builder, plan, index)
                        }))
                    })
                    // Before any app thread exists, so nothing is lost: an
                    // OS that cannot start one thread cannot start the app.
                    .expect("failed to spawn CPG ingest worker"),
            );
        }
        *self.shared.ingest_tx.lock() = Some(senders);

        {
            // Clear the senders even on panic so the ingest workers never
            // block on channels that can no longer receive messages.
            let _guard = SenderGuard(&self.shared);
            let mut root = ThreadCtx::new_root(Arc::clone(&self.shared));
            f(&mut root);
            root.finish(None);
        }

        let mut done = Vec::new();
        let mut busy_total = Duration::ZERO;
        let mut busy_max = Duration::ZERO;
        let mut failures = Vec::new();
        for (lane, worker) in workers.into_iter().enumerate() {
            // Collect every worker's verdict instead of aborting on the
            // first dead one: the surviving lanes' statistics still count,
            // and the error lists all failures, not just the first.
            let result = match worker.join() {
                Ok(result) => result,
                Err(payload) => Err(payload),
            };
            match result {
                Ok(outcome) => {
                    done.extend(outcome.done);
                    busy_total += outcome.busy;
                    busy_max = busy_max.max(outcome.busy);
                }
                Err(payload) => failures.push(WorkerFailure {
                    lane,
                    message: panic_message(payload.as_ref()),
                }),
            }
        }
        let wall_time = start.elapsed();
        let report =
            self.assemble_report(wall_time, done, busy_total, busy_max, lanes, failures.len());
        if failures.is_empty() {
            Ok(report)
        } else {
            Err(SessionError {
                failures,
                report: Box::new(report),
            })
        }
    }

    fn assemble_report(
        &self,
        wall_time: Duration,
        mut done: Vec<ThreadDone>,
        ingest_busy_total: Duration,
        ingest_busy_max: Duration,
        ingest_workers: usize,
        worker_failures: usize,
    ) -> RunReport {
        done.sort_by_key(|o| o.thread);
        let mut stats = RunStats {
            wall_time,
            threads: done.len(),
            graph_ingest_time: ingest_busy_max,
            graph_ingest_cpu_time: ingest_busy_total,
            ingest_workers,
            worker_failures: worker_failures as u64,
            ..RunStats::default()
        };
        for o in &done {
            stats.mem.merge(&o.mem);
            stats.pt.merge(&o.pt);
            stats.recorder.page_reads += o.recorder.page_reads;
            stats.recorder.page_writes += o.recorder.page_writes;
            stats.recorder.branches += o.recorder.branches;
            stats.recorder.subcomputations += o.recorder.subcomputations;
            stats.recorder.sync_ops += o.recorder.sync_ops;
            stats.spawn_time += o.spawn_overhead;
        }
        // Loss accounting: every AUX overflow episode (and its lost bytes)
        // reported by the producers surfaces in the run report, so "the
        // graph is missing events" is always observable, never silent.
        stats.gaps = stats.pt.gaps;
        stats.lost_bytes = stats.pt.bytes_lost;
        let cpg = if self.shared.config.mode == ExecutionMode::Inspector {
            let builder = self.shared.builder();
            // The PT cross-check of every thread that reported; it runs
            // before the seal because the forensics test below reads it.
            let corrupt_aux_at = self.shared.config.fault_plan.corrupt_aux_at;
            let logs = self.shared.logs.lock();
            for thread in &done {
                let log = logs.get(&thread.thread).map_or(&[][..], Vec::as_slice);
                check_thread_log(log, corrupt_aux_at, thread, &mut stats);
            }
            drop(logs);
            // Forensics contract: a run already known to be degraded keeps
            // its spill directory and manifest through the seal, whatever
            // the configured retain policy says — damaged runs are exactly
            // the ones whose on-disk record matters. The seal has not run, so
            // `spill_fallbacks` is still 0 here.
            if is_degraded(&stats) {
                builder.set_seal_retain(true);
            }
            let seal_start = Instant::now();
            let cpg = builder.seal();
            let seal = seal_start.elapsed();
            // The seal runs on the caller's critical path, so it counts
            // toward both the critical-path and the CPU attribution.
            stats.graph_ingest_time += seal;
            stats.graph_ingest_cpu_time += seal;
            // Spill-stage attribution from the sealed build's counters. The
            // workers' busy time already includes the encode cost (spilling
            // happens inside `ingest`); reporting it separately lets the
            // Figure 6 breakdown show what bounding memory costs.
            let ingest = builder.stats();
            stats.spilled_subs = ingest.spilled_subs;
            stats.spill_bytes = ingest.spill_bytes;
            stats.spill_time = ingest.spill_time;
            stats.peak_resident_subs = ingest.peak_resident_subs;
            stats.spill_fallbacks = ingest.spill_fallbacks;
            cpg
        } else {
            Cpg::default()
        };
        stats.degraded = is_degraded(&stats);
        let space = if self.shared.config.mode == ExecutionMode::Inspector {
            SpaceReport::from_log(&self.provenance_log(), stats.pt.branches, wall_time)
        } else {
            Default::default()
        };
        RunReport {
            mode: self.shared.config.mode,
            cpg,
            stats,
            space,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::{InspBarrier, InspCondvar, InspMutex, InspSemaphore};
    use inspector_core::event::SyncKind;
    use inspector_core::graph::EdgeKind;
    use inspector_core::ids::PageId;
    use inspector_core::query::{EdgeFilter, ProvenanceQuery};

    #[test]
    fn single_thread_run_produces_graph() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let region = session.map_region("data", 4096);
        let report = session.run(|ctx| {
            ctx.write_u64(region.base(), 41);
            let v = ctx.read_u64(region.base());
            ctx.write_u64(region.base(), v + 1);
            ctx.branch(true);
        });
        assert_eq!(report.mode, ExecutionMode::Inspector);
        assert_eq!(report.stats.threads, 1);
        assert!(report.cpg.node_count() >= 1);
        assert!(report.stats.mem.write_faults >= 1);
        assert!(report.stats.pt.branches >= 1);
        assert!(report.cpg.validate().is_ok());
        // The final value is visible in the shared image after the run.
        assert_eq!(session.image().read_u64_direct(region.base()), 42);
    }

    #[test]
    fn native_run_skips_provenance() {
        let session = InspectorSession::new(SessionConfig::native());
        let region = session.map_region("data", 4096);
        let report = session.run(|ctx| {
            ctx.write_u64(region.base(), 7);
            ctx.branch(true);
        });
        assert_eq!(report.mode, ExecutionMode::Native);
        assert_eq!(report.cpg.node_count(), 0);
        assert_eq!(report.stats.mem.total_faults(), 0);
        assert_eq!(report.stats.pt.branches, 0);
        assert_eq!(session.ingest_stats().ingested, 0);
        assert_eq!(session.image().read_u64_direct(region.base()), 7);
    }

    #[test]
    fn two_workers_with_mutex_share_data_correctly() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let region = session.map_region("counter", 8);
        let base = region.base();
        let lock = Arc::new(InspMutex::new());
        let report = session.run(|ctx| {
            let mut handles = Vec::new();
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                handles.push(ctx.spawn(move |ctx| {
                    for _ in 0..10 {
                        lock.lock(ctx);
                        let v = ctx.read_u64(base);
                        ctx.write_u64(base, v + 1);
                        lock.unlock(ctx);
                    }
                }));
            }
            for h in handles {
                ctx.join(h);
            }
        });
        assert_eq!(session.image().read_u64_direct(base), 40);
        assert_eq!(report.stats.threads, 5);
        let stats = report.cpg.stats();
        assert!(stats.sync_edges > 0, "expected synchronization edges");
        assert!(stats.data_edges > 0, "expected data edges");
        assert!(report.cpg.validate().is_ok());
    }

    #[test]
    fn streaming_overlaps_graph_construction_with_execution() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let region = session.map_region("cell", 8);
        let base = region.base();
        let lock = Arc::new(InspMutex::new());
        let shared = Arc::clone(&session.shared);
        let report = session.run(move |ctx| {
            for i in 0..50 {
                lock.lock(ctx);
                ctx.write_u64(base, i);
                lock.unlock(ctx);
            }
            // While the application is still inside `run`, earlier
            // sub-computations must already have been ingested (streamed),
            // not parked in the recorder until the end.
            assert!(shared.ingest_tx.lock().is_some(), "run in progress");
            shared.flush_barrier();
            assert!(
                shared.builder().stats().ingested >= 100,
                "mid-run the builder should already hold streamed nodes"
            );
        });
        // The graph phase is attributed in the report.
        assert!(report.stats.graph_ingest_time > Duration::ZERO);
        assert_eq!(
            session.ingest_stats().ingested as usize,
            report.cpg.node_count()
        );
    }

    #[test]
    fn each_thread_hands_its_log_over_once_at_exit() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let lock = Arc::new(InspMutex::new());
        let observer = &session;
        let boundaries = |ctx: &mut ThreadCtx, lock: &InspMutex| {
            for i in 0..100u64 {
                ctx.branch(i % 2 == 0);
                lock.lock(ctx);
                ctx.branch(i % 3 == 0);
                lock.unlock(ctx);
            }
        };
        let report = session.run(move |ctx| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    let lock = Arc::clone(&lock);
                    ctx.spawn(move |ctx| boundaries(ctx, &lock))
                })
                .collect();
            let ids: Vec<_> = workers.iter().map(|w| w.thread()).collect();
            for worker in workers {
                ctx.join(worker);
            }
            // Exactly the joined workers' logs, in thread-id order: each
            // decodes to its worker's 200 branches.
            let joined: Vec<u8> = {
                let logs = observer.shared.logs.lock();
                assert_eq!(logs.keys().copied().collect::<Vec<_>>(), ids);
                for log in logs.values() {
                    let mut decoder = StreamingDecoder::counting_only();
                    decoder.push(log);
                    decoder.finish();
                    assert_eq!(decoder.stats().branches, 200);
                }
                logs.values().flatten().copied().collect()
            };
            assert_eq!(observer.provenance_log(), joined);
            // The root's 200 boundaries add nothing to it.
            boundaries(ctx, &lock);
            assert_eq!(observer.provenance_log(), joined);
        });
        assert_eq!(report.stats.threads, 4);
        assert_eq!(session.shared.logs.lock().len(), 4);
        assert_eq!(
            session.provenance_log().len() as u64,
            report.stats.pt.trace_bytes
        );
    }

    #[test]
    fn barrier_phases_are_ordered_in_the_graph() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let a = session.map_region("a", 8).base();
        let b = session.map_region("b", 8).base();
        let barrier = Arc::new(InspBarrier::new(2));
        let report = session.run(|ctx| {
            let barrier2 = Arc::clone(&barrier);
            let worker = ctx.spawn(move |ctx| {
                ctx.write_u64(a, 1); // phase 1: produce a
                barrier2.wait(ctx);
                let _ = ctx.read_u64(b); // phase 2: consume b
            });
            let _ = ctx.read_u64(a); // these reads happen in phase 2
            barrier.wait(ctx);
            ctx.write_u64(b, 2);
            ctx.join(worker);
        });
        // Writer of `a` (worker, before barrier) must happen-before the
        // main thread's post-barrier sub-computations.
        let q = ProvenanceQuery::new(&report.cpg);
        assert!(q.writers_of(PageId::new(a.raw() / 4096)).next().is_some());
        assert!(report.cpg.validate().is_ok());
        assert!(report.cpg.stats().sync_edges >= 1);
    }

    #[test]
    fn producer_consumer_data_flow_appears_in_graph() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let buf = session.map_region("buf", 4096).base();
        let sem_items = Arc::new(InspSemaphore::new(0));
        let report = session.run(|ctx| {
            let sem = Arc::clone(&sem_items);
            let producer = ctx.spawn(move |ctx| {
                ctx.write_u64(buf, 1234);
                sem.post(ctx);
            });
            sem_items.wait(ctx);
            let v = ctx.read_u64(buf);
            assert_eq!(v, 1234);
            ctx.join(producer);
        });
        // There must be a data edge from the producer's writing
        // sub-computation to the consumer's reading sub-computation.
        let page = PageId::new(buf.raw() / 4096);
        let has_flow = report
            .cpg
            .edges_of_kind(EdgeKind::Data)
            .any(|e| e.pages.contains(&page) && e.src.thread != e.dst.thread);
        assert!(
            has_flow,
            "expected cross-thread data edge for the buffer page"
        );
    }

    #[test]
    fn condvar_orders_signaller_before_waiter() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let cell = session.map_region("cell", 8).base();
        let lock = Arc::new(InspMutex::new());
        let cond = Arc::new(InspCondvar::new());
        let report = session.run(|ctx| {
            let lock2 = Arc::clone(&lock);
            let cond2 = Arc::clone(&cond);
            let worker = ctx.spawn(move |ctx| {
                lock2.lock(ctx);
                ctx.write_u64(cell, 9);
                cond2.signal(ctx);
                lock2.unlock(ctx);
            });
            lock.lock(ctx);
            while ctx.read_u64(cell) != 9 {
                cond.wait(ctx, &lock);
            }
            lock.unlock(ctx);
            ctx.join(worker);
        });
        assert_eq!(session.image().read_u64_direct(cell), 9);
        assert!(report.cpg.validate().is_ok());
    }

    #[test]
    fn heap_allocations_are_tracked_like_any_shared_page() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let report = session.run(|ctx| {
            let a = ctx.alloc(64);
            ctx.write_u64(a, 5);
            assert_eq!(ctx.read_u64(a), 5);
            ctx.free(a);
        });
        assert!(report.stats.mem.write_faults >= 1);
        assert_eq!(session.allocator().stats().frees, 1);
    }

    #[test]
    fn input_mapping_shows_up_as_read_dependency() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let input = session.map_input("input.txt", &[7u8; 8192]);
        let out = session.map_region("out", 8);
        let report = session.run(|ctx| {
            let mut sum = 0u64;
            for i in 0..8192 {
                sum += ctx.read_u8(input.at(i)) as u64;
            }
            ctx.write_u64(out.base(), sum);
        });
        assert_eq!(session.image().read_u64_direct(out.base()), 7 * 8192);
        // The input pages appear in some read set.
        let q = ProvenanceQuery::new(&report.cpg);
        let first_input_page = PageId::new(input.base().raw() / 4096);
        assert!(q.readers_of(first_input_page).next().is_some());
    }

    #[test]
    fn space_report_reflects_pt_log() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let report = session.run(|ctx| {
            ctx.set_pc(0x40_1000);
            for i in 0..50_000u64 {
                ctx.branch(i % 3 == 0);
            }
        });
        assert!(report.space.log_bytes > 0);
        assert!(report.space.compression_ratio >= 1.0);
        assert_eq!(report.stats.pt.branches, 50_000);
        assert!(report.stats.pt_time() > Duration::ZERO);
    }

    #[test]
    fn live_monitor_takes_consistent_snapshots() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let region = session.map_region("data", 4096);
        let monitor = session.live_monitor();
        let lock = Arc::new(InspMutex::new());
        let mut snap = None;
        let _report = session.run(|ctx| {
            for i in 0..20 {
                lock.lock(ctx);
                ctx.write_u64(region.base(), i);
                lock.unlock(ctx);
                if i == 10 {
                    snap = Some(monitor.snapshot());
                }
            }
        });
        let snap = snap.expect("snapshot taken");
        assert!(snap.cpg.node_count() > 0);
        assert_eq!(snap.cut.len(), snap.cpg.node_count());
        assert!(snap.cpg.validate().is_ok());
        // After run() the provenance is sealed into the report; a late
        // snapshot is empty, not a panic.
        let late = monitor.snapshot();
        assert!(late.cut.is_empty());
        assert_eq!(late.cpg.node_count(), 0);
    }

    #[test]
    fn post_run_decode_cross_checks_the_recorder() {
        let session = InspectorSession::new(SessionConfig::inspector().with_ingest_threads(2));
        let lock = Arc::new(InspMutex::new());
        let report = session.run(|ctx| {
            let lock2 = Arc::clone(&lock);
            let worker = ctx.spawn(move |ctx| {
                for i in 0..500u64 {
                    ctx.branch(i % 2 == 0);
                    if i % 50 == 0 {
                        lock2.lock(ctx);
                        lock2.unlock(ctx);
                    }
                }
            });
            for i in 0..500u64 {
                ctx.call(0x40_0000 + i * 16);
                if i % 50 == 0 {
                    lock.lock(ctx);
                    lock.unlock(ctx);
                }
            }
            ctx.join(worker);
        });
        assert_eq!(report.stats.decode_errors, 0);
        assert_eq!(report.stats.decode_mismatches, 0);
        assert!(report.stats.decoded_branches > 0);
        // Every recorded branch is decoded back out of the packet stream.
        assert_eq!(report.stats.decoded_branches, report.stats.pt.branches);
        assert!(report.stats.decode_bytes > 0);
        assert!(report.stats.pt_decode_time() > Duration::ZERO);
        // The check decoded exactly the bytes the session keeps.
        assert_eq!(
            report.stats.decode_bytes,
            session.provenance_log().len() as u64
        );
    }

    #[test]
    fn spill_threshold_bounds_resident_subs_and_preserves_graph() {
        let run = |config: SessionConfig| {
            let session = InspectorSession::new(config);
            let region = session.map_region("counter", 8);
            let base = region.base();
            let lock = Arc::new(InspMutex::new());
            session.run(move |ctx| {
                for i in 0..60u64 {
                    lock.lock(ctx);
                    let v = ctx.read_u64(base);
                    ctx.write_u64(base, v + i);
                    lock.unlock(ctx);
                }
            })
        };
        let plain = run(SessionConfig::inspector());
        let spilled = run(SessionConfig::inspector().with_spill_threshold(1));

        // The spill stage fired and bounded the resident window.
        assert!(spilled.stats.spilled_subs > 0, "{:?}", spilled.stats);
        assert!(spilled.stats.spill_bytes > 0);
        assert!(
            spilled.stats.peak_resident_subs < spilled.stats.recorder.subcomputations / 2,
            "peak resident {} vs {} recorded",
            spilled.stats.peak_resident_subs,
            spilled.stats.recorder.subcomputations
        );
        // And the graph is unchanged: same nodes, same edge multiset.
        assert_eq!(spilled.cpg.node_count(), plain.cpg.node_count());
        let fingerprint = |cpg: &Cpg| -> std::collections::BTreeSet<String> {
            cpg.edges().map(|e| format!("{e:?}")).collect()
        };
        assert_eq!(fingerprint(&spilled.cpg), fingerprint(&plain.cpg));
        assert!(spilled.cpg.validate().is_ok());
    }

    #[test]
    fn spill_off_leaves_spill_counters_zero() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let report = session.run(|ctx| {
            for i in 0..20u64 {
                ctx.branch(i % 2 == 0);
                let obj = crate::ctx::fresh_sync_object();
                ctx.sync_boundary(&obj, SyncKind::Release);
            }
        });
        assert_eq!(report.stats.spilled_subs, 0);
        assert_eq!(report.stats.spill_bytes, 0);
        assert_eq!(report.stats.spill_time, Duration::ZERO);
        // The resident peak is still measured (it is the whole build here).
        assert!(report.stats.peak_resident_subs > 0);
    }

    #[test]
    fn unjoined_worker_panics_propagate_on_join() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.run(|ctx| {
                let h = ctx.spawn(|_ctx| panic!("worker failure"));
                ctx.join(h);
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn injected_overflow_degrades_but_terminates() {
        use crate::config::FaultPlan;
        let plan = FaultPlan {
            overflow_bytes: 512,
            ..FaultPlan::default()
        };
        let session = InspectorSession::new(SessionConfig::inspector().with_fault_plan(plan));
        let report = session.run(|ctx| {
            let worker = ctx.spawn(|ctx| {
                for i in 0..200u64 {
                    ctx.branch(i % 2 == 0);
                }
            });
            for i in 0..200u64 {
                ctx.branch(i % 3 == 0);
            }
            ctx.join(worker);
        });
        // Every Inspector thread's trace got exactly one injected overflow
        // episode, and the loss shows up in the run report, not silently.
        assert_eq!(report.stats.gaps, report.stats.threads as u64);
        assert_eq!(report.stats.lost_bytes, report.stats.gaps * 512);
        // The decoder saw the gap markers: the branch-count cross-check is
        // skipped (accounted, not asserted) for every lossy stream.
        assert!(report.stats.decode_degraded > 0, "{:?}", report.stats);
        assert_eq!(report.stats.decode_mismatches, 0);
        assert!(report.stats.degraded);
        // The graph over what *was* captured is still sound.
        assert!(report.cpg.node_count() > 0);
        assert!(report.cpg.validate().is_ok());
    }

    #[test]
    fn worker_panic_yields_structured_error_with_partial_report() {
        use crate::config::FaultPlan;
        let plan = FaultPlan {
            panic_worker: 1,
            panic_at_batch: 1,
            ..FaultPlan::default()
        };
        let session = InspectorSession::new(
            SessionConfig::inspector()
                .with_ingest_threads(1)
                .with_fault_plan(plan),
        );
        let region = session.map_region("counter", 8);
        let base = region.base();
        let lock = Arc::new(InspMutex::new());
        // Must terminate: the dead lane is closed, producers fail fast
        // instead of blocking on a full channel forever.
        let err = session
            .try_run(move |ctx| {
                for _ in 0..50u64 {
                    lock.lock(ctx);
                    let v = ctx.read_u64(base);
                    ctx.write_u64(base, v + 1);
                    lock.unlock(ctx);
                }
            })
            .expect_err("the only ingest worker was killed by the plan");
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].lane, 0);
        assert!(
            err.failures[0].message.contains("injected fault"),
            "unexpected payload: {}",
            err.failures[0].message
        );
        assert_eq!(err.report.stats.worker_failures, 1);
        assert!(err.report.stats.degraded);
        // Display renders the per-worker outcomes.
        let rendered = err.to_string();
        assert!(rendered.contains("lane 0"), "{rendered}");
        // The application itself still ran to completion on shared memory.
        assert_eq!(session.image().read_u64_direct(base), 50);
    }

    #[test]
    fn spill_write_fault_falls_back_to_memory_with_identical_graph() {
        use crate::config::FaultPlan;
        let run = |config: SessionConfig| {
            let session = InspectorSession::new(config);
            let region = session.map_region("counter", 8);
            let base = region.base();
            let lock = Arc::new(InspMutex::new());
            session.run(move |ctx| {
                for i in 0..60u64 {
                    lock.lock(ctx);
                    let v = ctx.read_u64(base);
                    ctx.write_u64(base, v + i);
                    lock.unlock(ctx);
                }
            })
        };
        let plain = run(SessionConfig::inspector());
        let plan = FaultPlan {
            fail_spill_write: 1,
            ..FaultPlan::default()
        };
        let faulted = run(SessionConfig::inspector()
            .with_spill_threshold(1)
            .with_fault_plan(plan));
        // Every spill attempt hit the persistent write fault; each store
        // stopped and its shard kept its nodes resident instead of aborting
        // or losing data.
        assert!(faulted.stats.spill_fallbacks > 0, "{:?}", faulted.stats);
        assert!(faulted.stats.degraded);
        assert_eq!(faulted.cpg.node_count(), plain.cpg.node_count());
        let fingerprint = |cpg: &Cpg| -> std::collections::BTreeSet<String> {
            cpg.edges().map(|e| format!("{e:?}")).collect()
        };
        assert_eq!(fingerprint(&faulted.cpg), fingerprint(&plain.cpg));
        assert!(faulted.cpg.validate().is_ok());
    }

    #[test]
    fn corrupt_aux_byte_terminates_with_consistent_accounting() {
        use crate::config::FaultPlan;
        // Corruption detection is best-effort (a flipped byte may surface as
        // a decode error, a count mismatch, or a silently different branch
        // target) — the guarantees under test are termination, that the
        // counters stay internally consistent, and that the flips this
        // stream's grammar can see are seen. The run writes a 114-byte log:
        // offsets 1 and 7 hit packet headers, 64 a TNT payload the count
        // survives, and 333 lies past the end, so nothing is flipped.
        for (offset, expect_detected) in [(1u64, true), (7, true), (64, false), (333, false)] {
            let plan = FaultPlan {
                corrupt_aux_at: offset,
                ..FaultPlan::default()
            };
            let session = InspectorSession::new(SessionConfig::inspector().with_fault_plan(plan));
            let report = session.run(|ctx| {
                for i in 0..500u64 {
                    ctx.branch(i % 2 == 0);
                }
            });
            assert!(report.cpg.validate().is_ok());
            let s = &report.stats;
            assert_eq!(report.space.log_bytes, 114, "{s:?}");
            let detected = s.decode_errors + s.decode_mismatches > 0;
            assert_eq!(detected, expect_detected, "offset {offset}: {s:?}");
            assert_eq!(s.degraded, detected, "offset {offset}: {s:?}");
            // Undetected corruption must not have disturbed the count: the
            // cross-check either fired or the totals still line up.
            assert!(
                detected || s.decoded_branches == s.pt.branches,
                "undetected count drift at offset {offset}: {s:?}"
            );
        }
        // The flip is applied where the check reads, not in the kept log.
        let plan = FaultPlan {
            corrupt_aux_at: 1,
            ..FaultPlan::default()
        };
        let logs: Vec<Vec<u8>> = [FaultPlan::default(), plan]
            .into_iter()
            .map(|plan| {
                let session =
                    InspectorSession::new(SessionConfig::inspector().with_fault_plan(plan));
                session.run(|ctx| ctx.branch(true));
                session.provenance_log()
            })
            .collect();
        assert_eq!(logs[0], logs[1]);
    }

    #[test]
    fn lock_hand_offs_keep_the_batch_graph_and_their_sync_edges() {
        use inspector_core::testing::{edge_fingerprint, node_fingerprint, rebatch};
        const ROUNDS: usize = 200;
        let session = InspectorSession::new(SessionConfig::inspector());
        let counter = session.map_region("counter", 8).base();
        let lock = Arc::new(InspMutex::new());
        // The counter value each critical section read: the holders' order.
        let reads = Arc::new(std::sync::Mutex::new(vec![Vec::new(); 2]));
        let mut workers = Vec::new();
        let report = session.run(|ctx| {
            let handles: Vec<_> = (0..2)
                .map(|w| {
                    let (lock, reads) = (Arc::clone(&lock), Arc::clone(&reads));
                    ctx.spawn(move |ctx| {
                        let mut seen = Vec::with_capacity(ROUNDS);
                        for _ in 0..ROUNDS {
                            lock.lock(ctx);
                            let v = ctx.read_u64(counter);
                            ctx.write_u64(counter, v + 1);
                            lock.unlock(ctx);
                            seen.push(v);
                        }
                        reads.lock().unwrap()[w] = seen;
                    })
                })
                .collect();
            for h in handles {
                workers.push(h.thread());
                ctx.join(h);
            }
        });
        assert_eq!(session.image().read_u64_direct(counter), 2 * ROUNDS as u64);
        let cpg = &report.cpg;
        let oracle = rebatch(cpg);
        assert_eq!(node_fingerprint(cpg), node_fingerprint(&oracle));
        assert_eq!(edge_fingerprint(cpg), edge_fingerprint(&oracle));

        // Each worker's critical sections are its sub-computations that
        // ended in an unlock; each began right after the lock's acquire.
        let ends_with = |sub: &inspector_core::subcomputation::SubComputation, kind| {
            sub.terminator
                .is_some_and(|p| p.object == lock.id() && p.kind == kind)
        };
        let mut holders = vec![None; 2 * ROUNDS];
        for (w, &thread) in workers.iter().enumerate() {
            let ids = cpg.thread_sequence(thread);
            let sections: Vec<_> = ids
                .windows(2)
                .filter(|pair| {
                    let (before, at) = (cpg.node(pair[0]).unwrap(), cpg.node(pair[1]).unwrap());
                    ends_with(before, SyncKind::Acquire) && ends_with(at, SyncKind::Release)
                })
                .map(|pair| pair[1])
                .collect();
            let seen = &reads.lock().unwrap()[w];
            assert_eq!(sections.len(), seen.len());
            for (&v, &id) in seen.iter().zip(&sections) {
                holders[v as usize] = Some(id);
            }
        }
        let holders: Vec<_> = holders.into_iter().map(Option::unwrap).collect();
        // Each critical section is entered from the latest one the other
        // worker ran before it (none before that worker's first), and the
        // lock carries no other edge.
        let expected: std::collections::BTreeSet<_> = (0..holders.len())
            .filter_map(|j| {
                let dst = holders[j];
                let src = holders[..j]
                    .iter()
                    .rev()
                    .find(|id| id.thread != dst.thread)?;
                Some((*src, dst))
            })
            .collect();
        let edges: std::collections::BTreeSet<_> = cpg
            .edges_of_kind(EdgeKind::Synchronization)
            .filter(|e| e.object == Some(lock.id()))
            .map(|e| (e.src, e.dst))
            .collect();
        assert_eq!(edges, expected);
    }

    #[test]
    fn sync_boundary_is_usable_for_custom_primitives() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let report = session.run(|ctx| {
            let obj = crate::ctx::fresh_sync_object();
            ctx.sync_boundary(&obj, SyncKind::Release);
            ctx.sync_boundary(&obj, SyncKind::Acquire);
        });
        assert!(report.stats.recorder.sync_ops >= 2);
        // Backward slice across the custom edges still works.
        let q = ProvenanceQuery::new(&report.cpg);
        let ids: Vec<_> = report.cpg.nodes().map(|n| n.id).collect();
        let last = *ids.last().unwrap();
        assert!(!q.backward_slice(last, EdgeFilter::ALL).is_empty());
    }

    #[test]
    fn an_app_panic_leaves_a_recoverable_spill_directory() {
        use inspector_core::recover::recover_session;
        use inspector_core::spill::SpillDurability;
        use inspector_core::testing::TempDir;
        let tmp = TempDir::new("session-panic");
        // `Flush` publishes the manifest at every round, and at threshold 1
        // every ingest is a round: the manifest names everything ingested.
        let session = InspectorSession::new(
            SessionConfig::inspector()
                .with_spill_threshold(1)
                .with_spill_durability(SpillDurability::Flush)
                .with_spill_dir(tmp.path()),
        );
        let monitor = session.live_monitor();
        let lock = InspMutex::new();
        let mut seen = None;
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.run(|ctx| {
                for i in 0..20 {
                    lock.lock(ctx);
                    ctx.branch(i % 3 == 0);
                    lock.unlock(ctx);
                }
                // The flush barrier: everything closed so far is ingested.
                seen = Some(monitor.snapshot());
                panic!("the application died");
            })
        }));
        assert!(died.is_err());
        let seen = seen.expect("snapshot taken before the panic");
        assert!(seen.cpg.node_count() > 0);
        let dir = session.spill_directory().expect("spill directory");
        let builder = Arc::downgrade(&session.shared.builder());
        drop((session, monitor));
        // The ingest workers drain their lanes after the session is gone;
        // the run's builder, never sealed, goes with the last of them.
        let deadline = Instant::now() + Duration::from_secs(30);
        while builder.strong_count() > 0 {
            assert!(Instant::now() < deadline, "ingest workers never exited");
            std::thread::sleep(Duration::from_millis(1));
        }

        let recovery = recover_session(&dir).expect("recovery I/O");
        let report = &recovery.report;
        assert!(
            report.manifest_found && !report.manifest_clean,
            "{report:?}"
        );
        assert_eq!(
            report.missing_segments + report.missing_bytes,
            0,
            "{report:?}"
        );
        assert_eq!(report.lost_bytes, 0, "{report:?}");
        assert!(recovery.cpg.validate().is_ok());
        // Everything the run had ingested before it died is recovered.
        for node in seen.cpg.nodes() {
            assert_eq!(recovery.cpg.node(node.id), Some(node));
        }
    }
}
