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
//! With [`SessionConfig::decode_online`] the lanes additionally carry the
//! threads' AUX chunks: each worker keeps one
//! [`StreamingDecoder`] per thread it serves, decodes the PT packets back
//! into branch events **while the application runs**, cross-checks the
//! decoded branch count against the recorder when the thread reports done,
//! and forwards the bytes to the perf session. The cost is attributed as
//! the `pt_decode` phase (`RunStats::{decoded_branches, decode_errors,
//! decode_time, ...}`).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use inspector_core::graph::Cpg;
use inspector_core::ids::ThreadId;
use inspector_core::recorder::{RecorderStats, SyncClockRegistry};
use inspector_core::sharded::{IngestStats, ShardedCpgBuilder};
use inspector_core::snapshot::{Snapshot, SnapshotRing};
use inspector_core::subcomputation::SubComputation;
use inspector_mem::alloc::HeapAllocator;
use inspector_mem::region::Region;
use inspector_mem::shared::SharedImage;
use inspector_mem::stats::MemStats;
use inspector_perf::cgroup::{Cgroup, ProcessId};
use inspector_perf::event::PerfEvent;
use inspector_perf::session::TraceSession;
use inspector_pt::stats::PtStats;
use inspector_pt::stream::StreamingDecoder;

use crate::config::{ExecutionMode, SessionConfig};
use crate::ctx::ThreadCtx;
use crate::lane::{lane, LaneReceiver, LaneSender, LANE_DEPTH};
use crate::report::{RunReport, RunStats};

/// Size of the shared heap mapped at session creation. Pages are
/// materialised lazily, so a generous reservation costs nothing.
const HEAP_BYTES: u64 = 256 << 20;

/// Lock stripes of the session's streaming builder. Not a setting: the
/// pool × stripe grid recorded on one core (the numbers CHANGES.md keeps)
/// reads 969 / 947 / 950 ns per sub-computation at 1 / 4 / 8 stripes (one
/// ingest worker) and stays within 10 % at every other pool width, so no
/// measured value beats another and the one every session has always run
/// with stays. `benches/micro.rs` in `inspector-bench` sweeps the same grid
/// live as `cpg_ingest/pool{1,2,4}/shards{1,4,8}`.
const CPG_SHARDS: usize = 8;

/// Resolves the spill configuration for a session's streaming builder:
/// `None` when spilling is off (threshold 0 or a native run, which never
/// ingests), otherwise a session-unique subdirectory under the configured
/// [`SessionConfig::spill_dir`] (or the system temp dir), so concurrent
/// sessions never collide on segment files.
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
    // unique per (process, session) so recovery can reject segments that
    // leaked in from another run sharing the directory.
    let session_id = ((std::process::id() as u64) << 32) | (sequence & 0xFFFF_FFFF);
    Some(
        inspector_core::spill::SpillSettings::new(config.spill_threshold, unique)
            .with_durability(config.spill_durability)
            .with_session_id(session_id)
            .with_retain_on_seal(config.spill_retain),
    )
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
    /// One AUX chunk, routed through the lane when
    /// [`SessionConfig::decode_online`] is set: the worker pushes it
    /// through the producing thread's streaming decoder (the lane's FIFO
    /// is per-thread recording order) and then forwards the bytes to the
    /// perf session.
    Aux {
        /// The producing thread — the decoder key.
        thread: ThreadId,
        /// The backing process — the perf attribution.
        pid: ProcessId,
        /// The PT packet bytes.
        data: Vec<u8>,
    },
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
    pub(crate) registry: Arc<SyncClockRegistry>,
    pub(crate) perf: TraceSession,
    pub(crate) allocator: HeapAllocator,
    pub(crate) builder: Arc<ShardedCpgBuilder>,
    next_thread: AtomicU32,
    next_pid: AtomicU64,
    spawned_threads: AtomicU64,
    /// Sender sides of the ingest-pool lanes of the *current* run (one per
    /// pool worker). Present only while [`InspectorSession::run`] is
    /// executing; thread contexts clone their lane at construction.
    ingest_tx: Mutex<Option<Vec<LaneSender<IngestMsg>>>>,
}

impl Shared {
    pub(crate) fn allocate_thread_id(&self) -> ThreadId {
        ThreadId::new(self.next_thread.fetch_add(1, Ordering::Relaxed))
    }

    pub(crate) fn allocate_pid(&self) -> ProcessId {
        ProcessId(self.next_pid.fetch_add(1, Ordering::Relaxed))
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

    /// True while a run (and therefore an ingest pool) is active.
    pub(crate) fn ingest_active(&self) -> bool {
        self.ingest_tx.lock().is_some()
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

/// Aggregates of one worker's online-decode stage (the `pt_decode` phase).
#[derive(Debug, Default)]
pub(crate) struct DecodeAgg {
    /// Time spent inside the streaming decoders.
    pub(crate) time: Duration,
    /// AUX payload bytes decoded.
    pub(crate) bytes: u64,
    /// Branch events decoded (conditional + indirect).
    pub(crate) branches: u64,
    /// In-band decode errors.
    pub(crate) errors: u64,
    /// Threads whose clean decode disagreed with the recorder.
    pub(crate) mismatches: u64,
    /// Threads whose cross-check was skipped because their stream was
    /// degraded (decode errors or AUX loss) — gap-aware accounting, not a
    /// mismatch.
    pub(crate) degraded: u64,
}

impl DecodeAgg {
    /// Folds one finished per-thread decoder into the aggregate.
    fn absorb(&mut self, stats: inspector_pt::StreamStats) {
        self.bytes += stats.bytes_consumed;
        self.branches += stats.branches;
        self.errors += stats.errors;
    }
}

/// What one pool worker hands back when its lane disconnects.
pub(crate) struct WorkerOutcome {
    /// Exit statistics of the threads that reported on this lane.
    pub(crate) done: Vec<ThreadDone>,
    /// Time spent applying sub-computations to the sharded builder
    /// (blocking on the empty lane is overlap, not cost).
    pub(crate) busy: Duration,
    /// Online-decode aggregates (zeroed when `decode_online` is off — no
    /// Aux messages are routed through the lanes then).
    pub(crate) decode: DecodeAgg,
}

/// One pool worker's ingest loop: applies every sub-computation streamed on
/// its lane to the sharded builder, runs routed AUX chunks through
/// per-thread streaming decoders (decode-while-running), and collects
/// per-thread statistics.
fn ingest_loop(rx: LaneReceiver<IngestMsg>, shared: Arc<Shared>, lane: usize) -> WorkerOutcome {
    let mut done = Vec::new();
    let mut busy = Duration::ZERO;
    let mut decode = DecodeAgg::default();
    let mut decoders: HashMap<ThreadId, StreamingDecoder> = HashMap::new();
    let plan = shared.config.fault_plan;
    // Deterministic worker-death injection: this lane dies on its Nth
    // provenance message. The supervisor in `try_run` catches the unwind;
    // dropping `rx` mid-loop closes the lane so producers fail fast.
    let panic_at = (plan.panic_worker == lane as u64 + 1)
        .then_some(plan.panic_at_batch)
        .filter(|&at| at > 0);
    let mut batches = 0u64;
    // Per-thread cumulative AUX offsets for the corruption fault.
    let mut aux_offsets: HashMap<ThreadId, u64> = HashMap::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            IngestMsg::Sub(sub) => {
                batches += 1;
                if panic_at == Some(batches) {
                    panic!("injected fault: ingest worker {lane} died at message {batches}");
                }
                let start = Instant::now();
                shared.builder.ingest(sub);
                busy += start.elapsed();
            }
            IngestMsg::Aux {
                thread,
                pid,
                mut data,
            } => {
                if plan.corrupt_aux_at > 0 {
                    // XOR-flip the byte at the armed 1-based cumulative
                    // offset of this thread's AUX stream — in-flight trace
                    // corruption, seen by decoder and perf log alike.
                    let seen = aux_offsets.entry(thread).or_insert(0);
                    let target = plan.corrupt_aux_at - 1;
                    if target >= *seen && target - *seen < data.len() as u64 {
                        data[(target - *seen) as usize] ^= 0xFF;
                    }
                    *seen += data.len() as u64;
                }
                let data = data;
                let start = Instant::now();
                // No sink: the cross-check needs the decoders' counters,
                // not the event stream.
                let dec = decoders
                    .entry(thread)
                    .or_insert_with(StreamingDecoder::counting_only);
                dec.push(&data);
                decode.time += start.elapsed();
                // Decode borrowed the bytes; the perf session takes them
                // whole, exactly as the direct (decode-off) path would.
                shared.perf.submit(PerfEvent::Aux { pid, data });
            }
            IngestMsg::Done(stats) => {
                if let Some(mut dec) = decoders.remove(&stats.thread) {
                    let start = Instant::now();
                    dec.finish();
                    decode.time += start.elapsed();
                    let s = dec.stats();
                    // Cross-check: on a loss- and error-free stream the
                    // decoded branches must equal what the recorder saw.
                    // With gaps or errors the expected count is unknowable,
                    // so the check degrades to accounting instead.
                    if s.errors == 0 && stats.pt.bytes_lost == 0 && stats.pt.gaps == 0 {
                        if s.branches != stats.pt.branches {
                            decode.mismatches += 1;
                        }
                    } else {
                        decode.degraded += 1;
                    }
                    decode.absorb(s);
                }
                done.push(stats);
            }
            IngestMsg::Barrier(ack) => {
                let _ = ack.send(());
            }
        }
    }
    // Threads that never reported Done (the app closure panicked mid-run):
    // still account their partial decode work, without a cross-check.
    for (_, mut dec) in decoders {
        let start = Instant::now();
        dec.finish();
        decode.time += start.elapsed();
        decode.absorb(dec.stats());
    }
    WorkerOutcome { done, busy, decode }
}

/// Handle for taking consistent snapshots while the traced program runs
/// (the §VI live-analysis facility). Snapshots are cut directly from the
/// streaming builder's shard store; without
/// [`SessionConfig::with_live_snapshots`] the facility is disabled and
/// snapshots come out empty.
#[derive(Debug, Clone)]
pub struct LiveMonitor {
    shared: Arc<Shared>,
    ring: Arc<Mutex<SnapshotRing>>,
}

impl LiveMonitor {
    /// Takes a consistent snapshot of the provenance recorded so far and
    /// stores it in the snapshot ring. Returns the snapshot's sequence
    /// number.
    ///
    /// A flush barrier is pushed through the ingest channel first, so the
    /// snapshot contains at least every sub-computation that was flushed
    /// before this call; the consistent-cut computation then trims whatever
    /// in-flight suffix would violate causality.
    ///
    /// Without [`SessionConfig::with_live_snapshots`] the facility is
    /// disabled: an empty snapshot is stored, as in the batch design.
    ///
    /// Once [`InspectorSession::run`](super::InspectorSession::run) has
    /// returned, the recorded provenance has been sealed into the
    /// [`crate::RunReport`] and the shard store is empty; calling this then
    /// does not overwrite earlier snapshots — it returns the most recent
    /// stored sequence number instead.
    pub fn take_snapshot(&self) -> u64 {
        if !self.shared.config.live_snapshots {
            return self.ring.lock().take_snapshot(&BTreeMap::new()).sequence;
        }
        self.shared.flush_barrier();
        let ring = Arc::clone(&self.ring);
        self.shared.builder.with_sequences(|sequences| {
            let mut ring = ring.lock();
            // The store-empty check happens under the stripe locks, so a
            // run sealing concurrently cannot slip an empty store past a
            // stale "run active" observation: whatever we see here is what
            // gets snapshotted.
            if sequences.values().all(|s| s.is_empty()) {
                if let Some(latest) = ring.latest() {
                    return latest.sequence;
                }
            }
            ring.take_snapshot(sequences).sequence
        })
    }

    /// The most recent snapshot, if any has been taken.
    pub fn latest(&self) -> Option<Snapshot> {
        self.ring.lock().latest().cloned()
    }

    /// Number of snapshots currently held in the ring.
    pub fn stored(&self) -> usize {
        self.ring.lock().len()
    }

    /// Removes and returns the oldest stored snapshot, freeing its slot.
    pub fn consume_oldest(&self) -> Option<Snapshot> {
        self.ring.lock().consume_oldest()
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
/// The session owns the shared memory image, the perf/PT plumbing and the
/// streaming provenance pipeline. Map shared regions and inputs first, then
/// call [`run`](Self::run) with the application's main-thread closure.
#[derive(Debug)]
pub struct InspectorSession {
    shared: Arc<Shared>,
    monitor_ring: Arc<Mutex<SnapshotRing>>,
}

impl InspectorSession {
    /// Creates a session with the given configuration.
    pub fn new(config: SessionConfig) -> Self {
        let image = SharedImage::with_default_page_size();
        let heap_region = image.map_region("shared-heap", HEAP_BYTES);
        let allocator = HeapAllocator::new(heap_region);
        let cgroup = Arc::new(Cgroup::new("inspector"));
        let perf = TraceSession::new(cgroup);
        let slots = config.snapshot_slots.max(1);
        let builder = Arc::new(ShardedCpgBuilder::with_shards_and_spill(
            CPG_SHARDS,
            spill_settings_for(&config),
        ));
        let shared = Arc::new(Shared {
            config,
            image,
            registry: SyncClockRegistry::shared(),
            perf,
            allocator,
            builder,
            next_thread: AtomicU32::new(0),
            next_pid: AtomicU64::new(1),
            spawned_threads: AtomicU64::new(0),
            ingest_tx: Mutex::new(None),
        });
        InspectorSession {
            shared,
            monitor_ring: Arc::new(Mutex::new(SnapshotRing::new(slots))),
        }
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
    /// reading inputs) and reports it to the perf session so the trace
    /// decoder can attribute the pages.
    pub fn map_input(&self, name: impl Into<String> + Clone, data: &[u8]) -> Region {
        let region = self.shared.image.map_input(name.clone(), data);
        // The mapping is performed by the INSPECTOR library itself before the
        // traced application starts; report it from the library's own pid so
        // the decoder can attribute the pages.
        self.shared.perf.cgroup().add(ProcessId(0));
        self.shared.perf.submit(PerfEvent::Mmap {
            pid: ProcessId(0),
            addr: region.base().raw(),
            len: region.len(),
            filename: name.into(),
        });
        region
    }

    /// The shared heap allocator (also reachable from every
    /// [`ThreadCtx::alloc`]).
    pub fn allocator(&self) -> &HeapAllocator {
        &self.shared.allocator
    }

    /// The raw provenance log (concatenated per-thread Intel PT packet
    /// streams) collected so far — what `perf record` would have written to
    /// disk. Empty for native runs.
    pub fn provenance_log(&self) -> Vec<u8> {
        self.shared.perf.full_log()
    }

    /// Counters describing how the streaming CPG build progressed (shard
    /// ingestion, eager vs. deferred synchronization-edge resolution):
    /// the last completed run's counters once a run has finished, or the
    /// in-progress build's counters while [`run`](Self::run) is executing.
    pub fn ingest_stats(&self) -> IngestStats {
        if self.shared.ingest_active() {
            // A run is in progress: report the live build, not the counters
            // frozen at the previous seal.
            return self.shared.builder.stats();
        }
        self.shared
            .builder
            .last_sealed_stats()
            .unwrap_or_else(|| self.shared.builder.stats())
    }

    /// Returns a handle that can take consistent live snapshots from another
    /// (monitoring) thread while [`run`](Self::run) is executing.
    pub fn live_monitor(&self) -> LiveMonitor {
        LiveMonitor {
            shared: Arc::clone(&self.shared),
            ring: Arc::clone(&self.monitor_ring),
        }
    }

    /// Runs the application's main thread and returns the full report.
    ///
    /// Graph construction is streamed: bounded channel lanes carry every
    /// retired sub-computation to an ingest-thread pool that applies it to
    /// the sharded builder while the application is still executing —
    /// control, synchronization and data edges included — so the
    /// end-of-run work collapses to moving the nodes into the final graph.
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

    /// Directory holding this session's spill artifacts (segments +
    /// `MANIFEST`), when spilling is configured. After a crashed or
    /// retained run the directory outlives the session and can be handed
    /// to [`inspector_core::recover::recover_session`].
    pub fn spill_directory(&self) -> Option<std::path::PathBuf> {
        self.shared.builder.spill_directory().map(Into::into)
    }

    /// [`run`](Self::run), with ingest-worker failures reported instead of
    /// propagated. Every worker runs supervised (`catch_unwind`): when one
    /// dies, its lane closes — producers blocked on it unblock with a send
    /// error rather than deadlocking — the surviving workers drain
    /// normally, and the provenance ingested before the failure is still
    /// sealed. On failure the returned [`SessionError`] carries every dead
    /// worker's panic message plus that partial report.
    pub fn try_run<F>(&self, f: F) -> Result<RunReport, SessionError>
    where
        F: FnOnce(&mut ThreadCtx),
    {
        let start = Instant::now();
        let plan = self.shared.config.fault_plan;
        if plan.fail_spill_write > 0 {
            self.shared
                .builder
                .inject_spill_write_failure(plan.fail_spill_write);
        }
        if plan.crash_at_spill > 0 {
            self.shared.builder.inject_spill_crash(plan.crash_at_spill);
        }
        let lanes = self.shared.config.ingest_threads.max(1);
        let mut senders = Vec::with_capacity(lanes);
        let mut workers = Vec::with_capacity(lanes);
        for index in 0..lanes {
            let (tx, rx) = lane::<IngestMsg>(LANE_DEPTH);
            senders.push(tx);
            let shared = Arc::clone(&self.shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("inspector-cpg-ingest-{index}"))
                    .spawn(move || {
                        // Supervised: a panicking worker unwinds out of
                        // `ingest_loop`, dropping `rx` — the lane closes
                        // and producers blocked on it fail fast instead of
                        // deadlocking on a dead consumer.
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            ingest_loop(rx, shared, index)
                        }))
                    })
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
        let mut decode = DecodeAgg::default();
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
                    decode.time += outcome.decode.time;
                    decode.bytes += outcome.decode.bytes;
                    decode.branches += outcome.decode.branches;
                    decode.errors += outcome.decode.errors;
                    decode.mismatches += outcome.decode.mismatches;
                    decode.degraded += outcome.decode.degraded;
                }
                Err(payload) => failures.push(WorkerFailure {
                    lane,
                    message: panic_message(payload.as_ref()),
                }),
            }
        }
        let wall_time = start.elapsed();
        let report = self.assemble_report(
            wall_time,
            done,
            busy_total,
            busy_max,
            lanes,
            decode,
            failures.len(),
        );
        if failures.is_empty() {
            Ok(report)
        } else {
            Err(SessionError {
                failures,
                report: Box::new(report),
            })
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble_report(
        &self,
        wall_time: Duration,
        mut done: Vec<ThreadDone>,
        ingest_busy_total: Duration,
        ingest_busy_max: Duration,
        ingest_workers: usize,
        decode: DecodeAgg,
        worker_failures: usize,
    ) -> RunReport {
        done.sort_by_key(|o| o.thread);
        let mut stats = RunStats {
            wall_time,
            threads: done.len(),
            graph_ingest_time: ingest_busy_max,
            graph_ingest_cpu_time: ingest_busy_total,
            ingest_workers,
            decoded_branches: decode.branches,
            decode_errors: decode.errors,
            decode_mismatches: decode.mismatches,
            decode_bytes: decode.bytes,
            decode_time: decode.time,
            decode_degraded: decode.degraded,
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
            // Forensics contract: a run already known to be degraded keeps
            // its spill directory and manifest through the seal, whatever
            // the configured retain policy says — damaged runs are exactly
            // the ones whose on-disk record matters.
            let keep_forensics = stats.gaps != 0
                || stats.lost_bytes != 0
                || stats.decode_errors != 0
                || stats.decode_degraded != 0
                || stats.worker_failures != 0;
            if keep_forensics {
                self.shared.builder.set_seal_retain(true);
            }
            let seal_start = Instant::now();
            let cpg = self.shared.builder.seal();
            let seal = seal_start.elapsed();
            // The seal runs on the caller's critical path, so it counts
            // toward both the critical-path and the CPU attribution.
            stats.graph_ingest_time += seal;
            stats.graph_ingest_cpu_time += seal;
            // Spill-stage attribution from the sealed build's counters. The
            // workers' busy time already includes the encode cost (spilling
            // happens inside `ingest`); reporting it separately lets the
            // Figure 6 breakdown show what bounding memory costs.
            let ingest = self.shared.builder.last_sealed_stats().unwrap_or_default();
            stats.spilled_subs = ingest.spilled_subs;
            stats.spill_bytes = ingest.spill_bytes;
            stats.spill_time = ingest.spill_time;
            stats.peak_resident_subs = ingest.peak_resident_subs;
            stats.spill_fallbacks = ingest.spill_fallbacks;
            cpg
        } else {
            Cpg::default()
        };
        stats.degraded = stats.gaps != 0
            || stats.lost_bytes != 0
            || stats.decode_errors != 0
            || stats.decode_degraded != 0
            || stats.spill_fallbacks != 0
            || stats.worker_failures != 0;
        let space = if self.shared.config.mode == ExecutionMode::Inspector {
            self.shared.perf.space_report(stats.pt.branches, wall_time)
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
            assert!(shared.ingest_active(), "run in progress");
            shared.flush_barrier();
            assert!(
                shared.builder.ingested_nodes() >= 100,
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
    fn aux_data_is_consumed_incrementally() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let lock = Arc::new(InspMutex::new());
        let _ = session.run(move |ctx| {
            for i in 0..100u64 {
                ctx.branch(i % 2 == 0);
                lock.lock(ctx);
                ctx.branch(i % 3 == 0);
                lock.unlock(ctx);
            }
        });
        // One AUX record per sync boundary with pending branches — far more
        // than the single teardown record the batch design produced.
        assert!(
            session.shared.perf.stats().aux_records > 10,
            "expected incremental AUX submission, got {:?}",
            session.shared.perf.stats()
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
        // And the perf session recorded the mmap event.
        assert_eq!(session.shared.perf.mmaps().len(), 1);
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
        let session = InspectorSession::new(SessionConfig::inspector().with_live_snapshots(4));
        let region = session.map_region("data", 4096);
        let monitor = session.live_monitor();
        let lock = Arc::new(InspMutex::new());
        let _report = session.run(|ctx| {
            for i in 0..20 {
                lock.lock(ctx);
                ctx.write_u64(region.base(), i);
                lock.unlock(ctx);
                if i == 10 {
                    monitor.take_snapshot();
                }
            }
        });
        assert_eq!(monitor.stored(), 1);
        let snap = monitor.latest().expect("snapshot taken");
        assert!(snap.cpg.node_count() > 0);
        assert!(snap.cpg.validate().is_ok());
        // After run() the provenance is sealed into the report; a late
        // take_snapshot must not shadow the real snapshot with an empty one.
        let late_sequence = monitor.take_snapshot();
        assert_eq!(late_sequence, snap.sequence);
        assert_eq!(monitor.stored(), 1);
        assert!(monitor.latest().expect("still stored").cpg.node_count() > 0);
        assert!(monitor.consume_oldest().is_some());
        assert_eq!(monitor.stored(), 0);
    }

    #[test]
    fn online_decode_cross_checks_the_recorder() {
        let session = InspectorSession::new(
            SessionConfig::inspector()
                .with_decode_online(true)
                .with_ingest_threads(2),
        );
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
        // The AUX bytes still reached the perf session through the workers.
        assert_eq!(
            session.shared.perf.stats().aux_bytes,
            report.stats.decode_bytes
        );
    }

    #[test]
    fn decode_off_leaves_decode_counters_zero() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let report = session.run(|ctx| {
            for i in 0..100u64 {
                ctx.branch(i % 3 == 0);
            }
        });
        assert!(report.stats.pt.branches >= 100);
        assert_eq!(report.stats.decoded_branches, 0);
        assert_eq!(report.stats.decode_errors, 0);
        assert_eq!(report.stats.decode_bytes, 0);
        assert_eq!(report.stats.decode_time, Duration::ZERO);
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
                let obj = crate::ctx::fresh_sync_id();
                ctx.sync_boundary(obj, SyncKind::Release);
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
        let session = InspectorSession::new(
            SessionConfig::inspector()
                .with_decode_online(true)
                .with_fault_plan(plan),
        );
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
        // Every spill attempt hit the persistent write fault; the builder
        // reverted to in-memory retention instead of aborting or losing data.
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
        // target) — the guarantees under test are termination and that the
        // counters stay internally consistent.
        for offset in [1u64, 7, 64, 333] {
            let plan = FaultPlan {
                corrupt_aux_at: offset,
                ..FaultPlan::default()
            };
            let session = InspectorSession::new(
                SessionConfig::inspector()
                    .with_decode_online(true)
                    .with_fault_plan(plan),
            );
            let report = session.run(|ctx| {
                for i in 0..500u64 {
                    ctx.branch(i % 2 == 0);
                }
            });
            assert!(report.cpg.validate().is_ok());
            let s = &report.stats;
            let detected = s.decode_errors > 0 || s.decode_mismatches > 0;
            // Undetected corruption must not have disturbed the count: the
            // cross-check either fired or the totals still line up.
            assert!(
                detected || s.decoded_branches == s.pt.branches,
                "undetected count drift at offset {offset}: {s:?}"
            );
        }
    }

    #[test]
    fn sync_boundary_is_usable_for_custom_primitives() {
        let session = InspectorSession::new(SessionConfig::inspector());
        let report = session.run(|ctx| {
            let obj = crate::ctx::fresh_sync_id();
            ctx.sync_boundary(obj, SyncKind::Release);
            ctx.sync_boundary(obj, SyncKind::Acquire);
        });
        assert!(report.stats.recorder.sync_ops >= 2);
        // Backward slice across the custom edges still works.
        let q = ProvenanceQuery::new(&report.cpg);
        let ids: Vec<_> = report.cpg.nodes().map(|n| n.id).collect();
        let last = *ids.last().unwrap();
        assert!(!q.backward_slice(last, EdgeFilter::ALL).is_empty());
    }
}
