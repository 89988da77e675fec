//! Streaming, sharded node store for the Concurrent Provenance Graph.
//!
//! The CPG is a function of its nodes: a sub-computation's vector clock and
//! its read/write sets pin every edge into it (paper §IV). So the streaming
//! builder keeps the two halves of the batch derivation apart in time —
//! **ingest stores, seal derives**:
//!
//! * **Ingest stores.** Sub-computations are moved in **by value** — no
//!   clone on the ingest path — into `N` lock stripes keyed by [`ThreadId`]
//!   (`thread.index() % N`). A stripe holds one run per thread, in α order.
//!   An ingest checks that order, appends the batch to its thread's run and
//!   runs the spill stage; it derives nothing. That is the one lock family:
//!   an ingest takes exactly one node stripe, and concurrent producers
//!   delivering different threads contend only when their threads share a
//!   stripe.
//! * **Seal derives.** [`ShardedCpgBuilder::seal`] replays the spilled
//!   prefixes, concatenates the per-thread runs in thread order — a thread
//!   lives in exactly one stripe, so its replayed prefix and its live suffix
//!   are one contiguous piece of the graph's id-sorted node store — and
//!   derives the edges over that store with the same parallel derivation
//!   [`CpgBuilder::into_cpg`](crate::graph::CpgBuilder::into_cpg) and
//!   [`recover_session`](crate::recover::recover_session) end in. The
//!   streamed graph is therefore node- and edge-identical to the batch
//!   oracle by construction, for any delivery interleaving that is FIFO per
//!   thread, any batch chunking and any stripe count;
//!   `tests/streaming_equivalence.rs` and `tests/spill_equivalence.rs`
//!   check it.
//! * **Batched ingest.** [`ShardedCpgBuilder::ingest_batch`] applies one
//!   thread's α-contiguous retirement batch under one stripe lock
//!   ([`ingest`](ShardedCpgBuilder::ingest) is the batch of one).
//! * **Bounded resident memory (spill).** With [`SpillSettings`] the
//!   builder keeps only an *active window* of sub-computations in memory:
//!   once a stripe holds `threshold` nodes ingested since its last round, a
//!   round encodes every resident node of the stripe into the stripe's
//!   append-only [`SpillStore`] and evicts them. A round is the unit of I/O:
//!   its records are staged back to back and committed with **one write**,
//!   and memory is touched only after that write succeeded, so a failed
//!   round leaves the stripe as it was. Any per-thread prefix is a valid
//!   round, because the on-disk image promises only durable prefixes and
//!   offline recovery computes the consistent cut itself. Live snapshots
//!   replay the stripe's segments to fault spilled prefixes back in, and
//!   the seal replays them into the final graph, making peak resident
//!   memory O(active window) instead of O(trace length) (paper §VI).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::graph::Cpg;
use crate::ids::ThreadId;
use crate::spill::{ManifestWriter, Replay, SpillDurability, SpillSettings, SpillStore};
use crate::subcomputation::SubComputation;

/// Default number of lock stripes.
const DEFAULT_SHARDS: usize = 8;

/// Counters describing how a streamed build progressed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Sub-computations ingested.
    pub ingested: u64,
    /// Always 0: the seal derives every edge, so no synchronization edge is
    /// ever left for a seal-time safety net. Kept only because the
    /// repository benchmark (`benchmark/`) still reads it; the next change
    /// to the benchmark deletes it.
    pub sync_resolved_at_seal: u64,
    /// Always 0, like
    /// [`sync_resolved_at_seal`](Self::sync_resolved_at_seal), and kept for
    /// the same reason until the same change.
    pub data_resolved_at_seal: u64,
    /// Sub-computations moved out of memory into the spill segments. Zero
    /// unless the builder was created with [`SpillSettings`].
    pub spilled_subs: u64,
    /// Bytes appended to the spill segments (record framing included).
    pub spill_bytes: u64,
    /// CPU time spent encoding and appending spill records.
    pub spill_time: Duration,
    /// Largest number of sub-computations ever resident in memory at once.
    /// With spilling enabled this is the measured active window — about the
    /// threshold per stripe — rather than the trace length.
    pub peak_resident_subs: u64,
    /// Times the spill stage *degraded* instead of aborting: a spill write
    /// failed after bounded retries (ENOSPC, injected fault) and the shard
    /// fell back to in-memory retention, a store could not be created, or
    /// a seal-time replay hit unreadable/torn records. As long as the
    /// spilled data stayed readable, a fallback loses nothing — the shard
    /// replays its segments back into memory and the final graph is
    /// complete.
    pub spill_fallbacks: u64,
    /// `write` calls issued on spill segments: one per opened segment (its
    /// header) plus one per round commit attempt — never one per record.
    pub spill_writes: u64,
}

/// One thread's stored execution sequence inside a shard: the live suffix
/// plus the length of the spilled prefix.
#[derive(Debug, Default)]
struct ThreadSeq {
    /// Number of sub-computations already spilled to disk; the live suffix
    /// starts at α = `base`.
    base: u64,
    /// Resident sub-computations, in α order.
    live: Vec<SubComputation>,
}

impl ThreadSeq {
    /// Total sub-computations ingested for this thread (spilled + live).
    fn len(&self) -> u64 {
        self.base + self.live.len() as u64
    }
}

/// One thread-keyed lock stripe: node storage and its spill store.
#[derive(Debug, Default)]
struct Shard {
    /// Per-thread execution sequences in ingest (= α) order.
    sequences: BTreeMap<ThreadId, ThreadSeq>,
    /// Append-only on-disk store for spilled prefixes (`None` when
    /// spilling is disabled).
    spill: Option<SpillStore>,
    /// Sub-computations ingested into this stripe since its last committed
    /// round — its resident count while the store works. A round is due
    /// once it reaches the threshold.
    unspilled: usize,
    /// Set when a spill write failed *and* the already-spilled records
    /// could not be replayed back into memory: the store is kept so the
    /// seal can retry the read, but no further spill attempt is made.
    spill_disabled: bool,
}

/// RAII registration of an in-flight `ingest()` call, backing the quiesce
/// guard in [`ShardedCpgBuilder::seal`].
struct ProducerGuard<'a>(&'a AtomicUsize);

impl<'a> ProducerGuard<'a> {
    fn enter(counter: &'a AtomicUsize) -> Self {
        counter.fetch_add(1, Ordering::AcqRel);
        ProducerGuard(counter)
    }
}

impl Drop for ProducerGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Streaming, lock-striped builder producing the same [`Cpg`] as
/// [`CpgBuilder`](crate::graph::CpgBuilder) without buffering the whole
/// trace twice.
///
/// Ingestion is internally synchronized: any number of producer threads may
/// call [`ingest`](Self::ingest) / [`ingest_batch`](Self::ingest_batch)
/// concurrently, as long as each *thread's* sub-computations arrive in α
/// order (which a per-thread FIFO hand-off — e.g. the runtime's
/// lane-per-worker ingest pool routing by `ThreadId % pool` — guarantees).
#[derive(Debug)]
pub struct ShardedCpgBuilder {
    /// Thread-keyed node stripes.
    shards: Vec<Mutex<Shard>>,
    /// Spill configuration; `None` (or threshold 0) keeps every node
    /// resident until the seal.
    spill: Option<SpillSettings>,
    /// Sub-computations ingested in the current build.
    ingested: AtomicU64,
    /// Sub-computations spilled to disk in the current build.
    spilled_subs: AtomicU64,
    /// Bytes appended to the spill segments in the current build.
    spill_bytes: AtomicU64,
    /// Nanoseconds spent in the spill stage in the current build.
    spill_time_nanos: AtomicU64,
    /// Sub-computations currently resident in the shards.
    resident: AtomicU64,
    /// Largest `resident` value observed in the current build.
    peak_resident: AtomicU64,
    /// Times the spill stage degraded to in-memory retention in the
    /// current build (write failure after retries, store creation failure,
    /// unreadable or torn records at replay).
    spill_fallbacks: AtomicU64,
    /// Segment `write` calls issued in the current build.
    spill_writes: AtomicU64,
    /// Spill-write attempts since the injection counter was armed; only
    /// advanced while `fail_spill_write_at` is nonzero.
    spill_appends: AtomicU64,
    /// Fault injection: fail the Nth (1-based) spill-write attempt and
    /// every later one, like a disk that filled up and stayed full.
    /// `0` = disabled. Survives seals (it is configuration, not a counter).
    fail_spill_write_at: AtomicU64,
    /// Per-session manifest publisher (`None` when spilling is disabled).
    spill_manifest: Option<ManifestWriter>,
    /// Fault injection: simulate a whole-process crash after the Nth spill
    /// record — record N+1 reaches the disk as a torn frame, the manifest
    /// freezes, and every store detaches keeping its files, exactly the
    /// on-disk state a dead process leaves behind.
    /// `0` = disabled. Survives seals (it is configuration, not a counter).
    crash_spill_at: AtomicU64,
    /// Spill records staged so far; only advanced while
    /// `crash_spill_at` is armed.
    spill_record_count: AtomicU64,
    /// Set once the injected crash fired.
    spill_crashed: AtomicBool,
    /// Session-requested retention: keep spill artifacts (segments plus
    /// manifest) at seal even though the seal itself completes. Set by
    /// the session when the run degraded before the seal.
    seal_retain: AtomicBool,
    /// Final counters of the most recently sealed build.
    last_sealed: Mutex<Option<IngestStats>>,
    /// Number of `ingest()` calls currently in flight (quiesce guard).
    active_producers: AtomicUsize,
}

impl Default for ShardedCpgBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedCpgBuilder {
    /// Creates a builder with the default stripe count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates a builder with `shards` thread-keyed lock stripes (at least
    /// one).
    pub fn with_shards(shards: usize) -> Self {
        Self::with_shards_and_spill(shards, None)
    }

    /// Creates a builder with `shards` lock stripes and, when `spill` names
    /// a positive threshold, an on-disk [`SpillStore`] per shard under
    /// `spill.dir`. The directory should be dedicated to this builder —
    /// segment file names only encode the shard index. A shard whose store
    /// cannot be created keeps its nodes in memory instead and the failure
    /// is counted in [`IngestStats::spill_fallbacks`].
    pub fn with_shards_and_spill(shards: usize, spill: Option<SpillSettings>) -> Self {
        let shards = shards.max(1);
        let spill = spill.filter(|s| s.threshold > 0);
        let mut create_fallbacks = 0u64;
        let shard_stripes: Vec<Mutex<Shard>> = (0..shards)
            .map(|i| {
                let store = spill.as_ref().and_then(|s| {
                    SpillStore::create(s, i)
                        .inspect_err(|_| create_fallbacks += 1)
                        .ok()
                });
                Mutex::new(Shard {
                    spill: store,
                    ..Shard::default()
                })
            })
            .collect();
        let spill_manifest = spill
            .as_ref()
            .map(|s| ManifestWriter::new(&s.dir, s.session_id, s.durability));
        if let Some(manifest) = spill_manifest.as_ref() {
            // The stores above created the session directory; stamp it with
            // the (empty) manifest immediately so even a crash during the
            // very first append leaves one behind for recovery.
            let _ = manifest.publish();
        }
        ShardedCpgBuilder {
            shards: shard_stripes,
            spill,
            ingested: AtomicU64::new(0),
            spilled_subs: AtomicU64::new(0),
            spill_bytes: AtomicU64::new(0),
            spill_time_nanos: AtomicU64::new(0),
            resident: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
            spill_fallbacks: AtomicU64::new(create_fallbacks),
            spill_writes: AtomicU64::new(0),
            spill_appends: AtomicU64::new(0),
            fail_spill_write_at: AtomicU64::new(0),
            spill_manifest,
            crash_spill_at: AtomicU64::new(0),
            spill_record_count: AtomicU64::new(0),
            spill_crashed: AtomicBool::new(false),
            seal_retain: AtomicBool::new(false),
            last_sealed: Mutex::new(None),
            active_producers: AtomicUsize::new(0),
        }
    }

    /// The spill threshold, when spilling is enabled.
    fn spill_threshold(&self) -> Option<usize> {
        self.spill.as_ref().map(|s| s.threshold)
    }

    /// The stripe a thread's sub-computations are stored in.
    pub fn shard_for(&self, thread: ThreadId) -> usize {
        thread.index() % self.shards.len()
    }

    /// Snapshot of every builder-level counter.
    fn counters_snapshot(&self) -> IngestStats {
        IngestStats {
            ingested: self.ingested.load(Ordering::Acquire),
            sync_resolved_at_seal: 0,
            data_resolved_at_seal: 0,
            spilled_subs: self.spilled_subs.load(Ordering::Acquire),
            spill_bytes: self.spill_bytes.load(Ordering::Acquire),
            spill_time: Duration::from_nanos(self.spill_time_nanos.load(Ordering::Acquire)),
            peak_resident_subs: self.peak_resident.load(Ordering::Acquire),
            spill_fallbacks: self.spill_fallbacks.load(Ordering::Acquire),
            spill_writes: self.spill_writes.load(Ordering::Acquire),
        }
    }

    /// Arms deterministic spill fault injection: the `nth` (1-based)
    /// spill-write attempt — and every attempt after it — fails, modelling
    /// a disk that filled up and stayed full. A round is one write, so
    /// attempts count **rounds** (and their retries), not records. `0`
    /// disarms. Callable on the shared builder; writes already in flight
    /// may complete first.
    pub fn inject_spill_write_failure(&self, nth: u64) {
        self.fail_spill_write_at.store(nth, Ordering::Release);
    }

    /// Arms deterministic crash injection: the (`nth`+1)-th spill
    /// **record** (1-based, across all shards) is the one the process dies
    /// in — its round's write carries the whole frames staged before it
    /// and only a torn prefix of that one — and then the builder behaves
    /// as if the process died: the manifest freezes where it was, every
    /// store detaches keeping its files, and the seal retains all spill
    /// artifacts for offline recovery. `0` disarms. The build itself still
    /// completes, degraded: everything spilled is restored into memory
    /// first, so the sealed graph loses nothing in-process.
    pub fn inject_spill_crash(&self, nth: u64) {
        self.crash_spill_at.store(nth, Ordering::Release);
    }

    /// Whether the injected spill crash has fired in the current build.
    pub fn spill_crash_triggered(&self) -> bool {
        self.spill_crashed.load(Ordering::Acquire)
    }

    /// Asks the seal to keep all spill artifacts (segments + manifest) on
    /// disk even though it completes normally. The session sets this when
    /// the run degraded before the seal, so forensic material survives.
    pub fn set_seal_retain(&self, retain: bool) {
        self.seal_retain.store(retain, Ordering::Release);
    }

    /// The spill directory, when spilling is enabled.
    pub fn spill_directory(&self) -> Option<&Path> {
        self.spill.as_ref().map(|s| s.dir.as_path())
    }

    /// Counts one staged spill record against the armed crash point.
    /// Returns `true` when this record is the one that "kills" the
    /// process. Costs one atomic load while disarmed.
    fn spill_crash_due(&self) -> bool {
        let at = self.crash_spill_at.load(Ordering::Acquire);
        if at == 0 {
            return false;
        }
        self.spill_record_count.fetch_add(1, Ordering::AcqRel) + 1 > at
    }

    /// Runs one round's write with bounded retries. Injected failures
    /// consume the same attempt budget as real ones. Returns `false` when
    /// the write never succeeded — the caller falls back to in-memory
    /// retention.
    fn try_spill_append(&self, mut attempt: impl FnMut() -> std::io::Result<()>) -> bool {
        const BACKOFF_MICROS: [u64; 3] = [0, 50, 200];
        for backoff in BACKOFF_MICROS {
            if backoff > 0 {
                std::thread::sleep(Duration::from_micros(backoff));
            }
            let fail_at = self.fail_spill_write_at.load(Ordering::Acquire);
            if fail_at > 0 {
                let n = self.spill_appends.fetch_add(1, Ordering::AcqRel) + 1;
                if n >= fail_at {
                    continue;
                }
            }
            if attempt().is_ok() {
                return true;
            }
        }
        false
    }

    /// Counters of the build currently in progress (reset by
    /// [`seal`](Self::seal)).
    pub fn stats(&self) -> IngestStats {
        self.counters_snapshot()
    }

    /// Final counters of the most recently sealed build, if any. Unlike
    /// [`stats`](Self::stats) this includes the seal pass itself and is not
    /// affected by a subsequent build starting.
    pub fn last_sealed_stats(&self) -> Option<IngestStats> {
        *self.last_sealed.lock()
    }

    /// Number of sub-computations ingested so far.
    pub fn ingested_nodes(&self) -> u64 {
        self.ingested.load(Ordering::Acquire)
    }

    /// Ingests one retired sub-computation **by value** — the batch of one;
    /// see [`ingest_batch`](Self::ingest_batch). A reused thread-local
    /// buffer keeps this path allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if a thread's sub-computations are delivered out of α order.
    pub fn ingest(&self, sub: SubComputation) {
        thread_local! {
            static SINGLE: std::cell::RefCell<Vec<SubComputation>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        SINGLE.with(|buf| {
            let mut buf = buf.borrow_mut();
            // A panicking ingest (α-order violation) leaves its sub behind;
            // clear on entry so the next call from this thread cannot form
            // a phantom batch with it.
            buf.clear();
            buf.push(sub);
            self.ingest_run(&mut buf);
        });
    }

    /// Ingests one thread's α-contiguous batch of retired sub-computations
    /// **by value**, under one node-stripe lock: the batch is appended to
    /// its thread's run and the stripe's spill stage runs.
    ///
    /// # Panics
    ///
    /// Panics if the batch mixes threads, is not contiguous in α, or is
    /// delivered out of α order with respect to earlier ingests.
    pub fn ingest_batch(&self, mut batch: Vec<SubComputation>) {
        self.ingest_run(&mut batch);
    }

    /// The ingest body: drains `batch` (leaving its capacity to the
    /// caller, which is what keeps [`ingest`](Self::ingest) reusing one
    /// buffer).
    fn ingest_run(&self, batch: &mut Vec<SubComputation>) {
        let Some(first) = batch.first() else {
            return;
        };
        let _quiesce = ProducerGuard::enter(&self.active_producers);
        let (thread, first_alpha) = (first.id.thread, first.id.alpha);
        for (i, sub) in batch.iter().enumerate() {
            assert_eq!(
                sub.id.thread, thread,
                "an ingest batch must carry a single thread's sub-computations"
            );
            assert_eq!(
                sub.id.alpha,
                first_alpha + i as u64,
                "an ingest batch must be contiguous in α"
            );
        }
        let batch_len = batch.len();
        let stripe = self.shard_for(thread);
        let mut guard = self.shards[stripe].lock();
        let shard = &mut *guard;
        let seq = shard.sequences.entry(thread).or_default();
        assert_eq!(
            seq.len(),
            first_alpha,
            "sub-computations of {thread} must be ingested in α order"
        );
        seq.live.append(batch);
        self.ingested.fetch_add(batch_len as u64, Ordering::AcqRel);
        let resident =
            self.resident.fetch_add(batch_len as u64, Ordering::AcqRel) + batch_len as u64;
        self.peak_resident.fetch_max(resident, Ordering::AcqRel);

        if shard.spill.is_some() && !shard.spill_disabled {
            if let Some(threshold) = self.spill_threshold() {
                shard.unspilled += batch_len;
                if shard.unspilled >= threshold {
                    self.spill_shard(stripe, shard);
                }
            }
        }
    }

    /// Runs one spill round over `shard` and accounts its time.
    ///
    /// A round is every resident node of every thread of the stripe,
    /// staged as back-to-back frames and committed with one write. Memory
    /// is touched only after that write succeeded — the runs are emptied
    /// and their bases advanced — so a failed round leaves the shard
    /// exactly as it was.
    fn spill_shard(&self, stripe: usize, shard: &mut Shard) {
        let started = Instant::now();
        self.spill_round(stripe, shard);
        self.spill_time_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::AcqRel);
    }

    fn spill_round(&self, stripe: usize, shard: &mut Shard) {
        // After a simulated crash nothing spills any more: each store is
        // lazily restored into memory (the dead process's graph work was
        // already restored at the crash point; intact shards restore here
        // or at seal) and detached with its files kept for recovery.
        if self.spill_crashed.load(Ordering::Acquire) {
            self.restore_and_detach(shard);
            return;
        }
        let Shard {
            sequences,
            spill: Some(store),
            ..
        } = shard
        else {
            return;
        };

        // Stage the round. Every record counts against the armed crash
        // point; the one that "kills" the process ends the round there.
        let bytes_before = store.bytes_written();
        let writes_before = store.writes();
        store.begin_round();
        let mut crashed = false;
        let mut staged = 0u64;
        'stage: for seq in sequences.values() {
            for sub in &seq.live {
                store.stage_node(sub);
                staged += 1;
                if self.spill_crash_due() {
                    crashed = true;
                    break 'stage;
                }
            }
        }
        if staged == 0 {
            return;
        }

        let committed = if crashed {
            // Die inside the round's write, leaving a torn frame.
            let _ = store.commit_torn();
            None
        } else {
            let mut rolled = false;
            self.try_spill_append(|| store.commit_round().map(|r| rolled = r))
                .then_some(rolled)
        };
        self.spill_writes
            .fetch_add(store.writes() - writes_before, Ordering::AcqRel);

        let Some(rolled) = committed else {
            self.spill_fallbacks.fetch_add(1, Ordering::AcqRel);
            if crashed {
                // Freeze the manifest exactly where the "dead" process
                // left it, restore every committed round back into the
                // shard so the in-process graph stays complete, and detach
                // the store keeping every byte on disk for offline
                // recovery.
                self.spill_crashed.store(true, Ordering::Release);
                if let Some(manifest) = self.spill_manifest.as_ref() {
                    manifest.freeze();
                }
                self.restore_and_detach(shard);
            } else {
                // Bounded retries exhausted (ENOSPC, injected fault): fall
                // back to in-memory retention. The earlier rounds are
                // replayed back into the shard so nothing is lost, and the
                // store is dropped.
                match store.drain_all() {
                    Ok(replay) => {
                        self.restore_replay_into_shard(shard, replay);
                        shard.spill = None;
                    }
                    // The spilled prefix cannot be read back right now;
                    // keep the store so the seal can retry the replay, but
                    // make no further spill attempt.
                    Err(_) => shard.spill_disabled = true,
                }
            }
            return;
        };

        // The round is on disk: detach it from memory.
        for seq in sequences.values_mut() {
            seq.base += seq.live.len() as u64;
            seq.live.clear();
        }
        shard.unspilled = 0;
        self.resident.fetch_sub(staged, Ordering::AcqRel);
        self.spilled_subs.fetch_add(staged, Ordering::AcqRel);
        self.spill_bytes
            .fetch_add(store.bytes_written() - bytes_before, Ordering::AcqRel);
        // Push the round to stable storage per the durability policy, then
        // let the manifest name it. With no durability promised only a
        // round that opened a segment publishes. A sync failure just leaves
        // the manifest at the previous round — it must never name
        // non-durable bytes.
        let durable = self
            .spill
            .as_ref()
            .is_some_and(|s| s.durability != SpillDurability::None);
        if let Some(manifest) = self.spill_manifest.as_ref() {
            if (durable || rolled) && store.sync_for_cut().is_ok() {
                let _ = manifest.update_shard(stripe, store.manifest_snapshot());
            }
        }
    }

    /// Replays the shard's store back into memory (best effort) and
    /// detaches it with its files kept — what every shard does once the
    /// injected crash has fired.
    fn restore_and_detach(&self, shard: &mut Shard) {
        if let Some(mut store) = shard.spill.take() {
            if let Ok(replay) = store.replay() {
                self.restore_replay_into_shard(shard, replay);
            }
            store.detach_keeping_files();
        }
    }

    /// Merges a spill replay back into the shard's live state: nodes
    /// re-enter their sequences ahead of the current live suffix and the
    /// residency counters are adjusted. A replay holds exactly the
    /// committed rounds, i.e. the nodes that had left the residency
    /// accounting.
    fn restore_replay_into_shard(&self, shard: &mut Shard, replay: Replay) {
        let restored: u64 = replay.nodes.values().map(|run| run.len() as u64).sum();
        for (t, mut live) in replay.nodes {
            let seq = shard.sequences.entry(t).or_default();
            live.append(&mut seq.live);
            seq.live = live;
            seq.base = 0;
        }
        if restored > 0 {
            let resident = self.resident.fetch_add(restored, Ordering::AcqRel) + restored;
            self.peak_resident.fetch_max(resident, Ordering::AcqRel);
            self.spilled_subs.fetch_sub(restored, Ordering::AcqRel);
        }
    }

    /// Runs `f` over the complete per-thread sequences ingested so far, with
    /// every stripe locked for the duration. Used by the live-snapshot
    /// facility to obtain a stable view; without spilling nothing is cloned.
    /// Threads with a spilled prefix are faulted back in from the spill
    /// segments first, so the view always starts at α = 0 — snapshots and
    /// taint queries see spilled history transparently.
    pub fn with_sequences<R>(
        &self,
        f: impl FnOnce(&BTreeMap<ThreadId, &[SubComputation]>) -> R,
    ) -> R {
        let guards: Vec<_> = self.shards.iter().map(Mutex::lock).collect();
        // Fault spilled prefixes into owned storage: one sequential segment
        // replay per shard (not a seek per node — the stripe locks are held
        // for the duration, so the fault path must scale with segment
        // count, not trace length). Only shards that actually spilled pay.
        // A prefix that cannot be read back (segment damaged or gone) is a
        // counted degradation, never a panic with every stripe locked: the
        // thread is left out of the view, and the snapshot's consistent-cut
        // trim drops whatever then lacks its causal context.
        let mut faulted: Vec<(ThreadId, Vec<SubComputation>)> = Vec::new();
        for guard in &guards {
            let spilled_any = guard.sequences.values().any(|seq| seq.base > 0);
            if !spilled_any {
                continue;
            }
            let mut prefixes = match guard.spill.as_ref().map(SpillStore::replay) {
                Some(Ok(replay)) => replay.nodes,
                _ => BTreeMap::new(),
            };
            let mut complete = true;
            for (&t, seq) in &guard.sequences {
                if seq.base == 0 {
                    continue;
                }
                let mut full = prefixes.remove(&t).unwrap_or_default();
                if full.len() as u64 == seq.base {
                    full.extend(seq.live.iter().cloned());
                    faulted.push((t, full));
                } else {
                    complete = false;
                }
            }
            if !complete {
                self.spill_fallbacks.fetch_add(1, Ordering::AcqRel);
            }
        }
        let mut map: BTreeMap<ThreadId, &[SubComputation]> = BTreeMap::new();
        for guard in &guards {
            for (&t, seq) in &guard.sequences {
                if seq.base == 0 {
                    map.insert(t, seq.live.as_slice());
                }
            }
        }
        for (t, full) in &faulted {
            map.insert(*t, full.as_slice());
        }
        f(&map)
    }

    /// Finishes the graph: replays every stripe's spilled prefixes,
    /// concatenates each thread's prefix and live suffix in thread order —
    /// the graph's id-sorted node store — and derives the edges over it
    /// with the parallel derivation
    /// [`CpgBuilder::into_cpg`](crate::graph::CpgBuilder::into_cpg) ends
    /// in. The builder is left completely empty — node store, spill stores
    /// *and* counters — ready for another run; the finished build's
    /// counters remain available through
    /// [`last_sealed_stats`](Self::last_sealed_stats).
    ///
    /// # Quiescence
    ///
    /// Callers must quiesce every producer before sealing — the runtime
    /// joins its ingest pool first. Sealing while an `ingest` is still in
    /// flight would drain the stripes out from under it, landing the late
    /// sub-computation in the *next* build; in debug builds an explicit
    /// producer refcount turns that silent loss into a panic.
    pub fn seal(&self) -> Cpg {
        #[cfg(debug_assertions)]
        {
            let in_flight = self.active_producers.load(Ordering::Acquire);
            assert!(
                in_flight == 0,
                "seal() called with {in_flight} ingest call(s) still in flight — \
                 quiesce every producer before sealing"
            );
        }

        // Per-thread node runs: a thread is stored in exactly one stripe,
        // its live sequence is in α order and a spill replay arrives
        // bucketed per thread in α order, so a thread's replayed prefix
        // followed by its live suffix is one contiguous run of the graph's
        // (thread, α)-sorted node store.
        let mut runs: BTreeMap<ThreadId, [Vec<SubComputation>; 2]> = BTreeMap::new();
        let crashed = self.spill_crashed.load(Ordering::Acquire);
        let retain = self.seal_retain.load(Ordering::Acquire)
            || self.spill.as_ref().is_some_and(|s| s.retain_on_seal);
        // Set when any spill artifact must outlive the seal (crash,
        // retention, or an unreadable store kept for forensics): the
        // directory and manifest are then left in place.
        let mut artifacts_kept = crashed;
        // Cleared when the retained on-disk copy is incomplete (a replay,
        // commit or sync failed): the manifest then stays unclean.
        let mut retained_complete = true;
        // Spilled prefixes first: every shard's segments are replayed in one
        // fan-out, so the cores stay busy across shard boundaries. The
        // stores are lent out of their shards for it (producers are
        // quiesced) and put back below.
        let mut stores: Vec<Option<SpillStore>> =
            self.shards.iter().map(|s| s.lock().spill.take()).collect();
        let replays = SpillStore::replay_all(&stores.iter().flatten().collect::<Vec<_>>());
        let mut replays = replays.into_iter();
        for (index, lent) in stores.iter_mut().enumerate() {
            let mut guard = self.shards[index].lock();
            let shard = &mut *guard;
            shard.spill = lent.take();
            // The replayed segments are concatenated back into the final
            // graph. A simulated crash (a dead process drains and deletes
            // nothing) and a retaining seal leave every file in place;
            // otherwise the segments are deleted so the store is empty for
            // the next build.
            let mut detach_store = crashed || retain;
            if let Some(store) = shard.spill.as_mut() {
                let replayed = replays.next().unwrap_or_else(|| Ok(Replay::default()));
                if replayed.is_ok() && !detach_store {
                    store.forget_drained();
                }
                match replayed {
                    Ok(replay) => {
                        // Torn tails are skipped by the replay; each one is
                        // a degradation the caller can observe.
                        if replay.torn_tails > 0 {
                            self.spill_fallbacks
                                .fetch_add(replay.torn_tails, Ordering::AcqRel);
                            retained_complete = false;
                        }
                        for (thread, prefix) in replay.nodes {
                            runs.entry(thread).or_default()[0] = prefix;
                        }
                    }
                    Err(_) => {
                        // The spilled prefix is unreadable: seal what is
                        // still in memory and account the degradation
                        // instead of aborting the whole build. The store is
                        // detached with its files kept — never delete
                        // material a forensic recovery might still read.
                        self.spill_fallbacks.fetch_add(1, Ordering::AcqRel);
                        retained_complete = false;
                        if let Some(manifest) = self.spill_manifest.as_ref() {
                            manifest.set_shard(index, store.manifest_snapshot());
                        }
                        detach_store = true;
                        artifacts_kept = true;
                    }
                }
                if retain && !crashed {
                    // Retained seal: complete the on-disk copy with one
                    // more round holding every still-live node, sync, and
                    // hand the manifest the final entry. The directory
                    // becomes a recoverable image of the full graph.
                    let writes_before = store.writes();
                    store.begin_round();
                    for seq in shard.sequences.values() {
                        for sub in &seq.live {
                            store.stage_node(sub);
                        }
                    }
                    let appended = self.try_spill_append(|| store.commit_round().map(drop));
                    self.spill_writes
                        .fetch_add(store.writes() - writes_before, Ordering::AcqRel);
                    let synced = store.sync_for_cut().is_ok();
                    if let Some(manifest) = self.spill_manifest.as_ref().filter(|_| synced) {
                        manifest.set_shard(index, store.manifest_snapshot());
                    }
                    if !appended || !synced {
                        self.spill_fallbacks.fetch_add(1, Ordering::AcqRel);
                        retained_complete = false;
                    }
                    artifacts_kept = true;
                }
                if detach_store {
                    store.detach_keeping_files();
                    shard.spill = None;
                }
            }
            for (thread, seq) in std::mem::take(&mut shard.sequences) {
                runs.entry(thread).or_default()[1] = seq.live;
            }
            shard.unspilled = 0;
            shard.spill_disabled = false;
        }
        // Spill-artifact epilogue. A retained seal that completed its
        // on-disk copy publishes the clean manifest (a frozen, crashed
        // manifest ignores this); a clean non-retaining seal removes the
        // manifest and the now-empty session directory so nothing
        // accumulates under the spill root across runs. Kept artifacts
        // (crash, retention, unreadable store) are never touched.
        if let Some(settings) = self.spill.as_ref() {
            if artifacts_kept {
                if let Some(manifest) = self.spill_manifest.as_ref() {
                    if retain && retained_complete && !crashed {
                        let _ = manifest.mark_clean();
                    } else if !crashed {
                        // Incomplete retention / unreadable store: publish
                        // the entries handed over above, but the manifest
                        // stays unclean.
                        let _ = manifest.publish();
                    }
                }
            } else {
                if let Some(manifest) = self.spill_manifest.as_ref() {
                    manifest.cleanup();
                }
                let _ = std::fs::remove_dir(&settings.dir);
            }
        }

        *self.last_sealed.lock() = Some(self.counters_snapshot());
        for counter in [
            &self.ingested,
            &self.spilled_subs,
            &self.spill_bytes,
            &self.spill_time_nanos,
            &self.resident,
            &self.peak_resident,
            &self.spill_fallbacks,
            &self.spill_writes,
            &self.spill_appends,
            &self.spill_record_count,
            // fail_spill_write_at and crash_spill_at are configuration,
            // not counters: they survive the seal like the spill settings
            // themselves.
        ] {
            counter.store(0, Ordering::Release);
        }
        self.spill_crashed.store(false, Ordering::Release);
        self.seal_retain.store(false, Ordering::Release);

        // The runs concatenate in thread order straight into the graph's
        // sorted node store: one bulk move per run, no merge, no sort.
        let total_nodes = runs.values().flatten().map(Vec::len).sum();
        let mut nodes: Vec<SubComputation> = Vec::with_capacity(total_nodes);
        for run in runs.into_values().flatten() {
            nodes.extend(run);
        }
        Cpg::derived(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::ids::SubId;
    use crate::testing::{batch_build, edge_fingerprint, TempDir};

    fn lock_heavy_sequences(threads: u32) -> Vec<Vec<SubComputation>> {
        crate::testing::lock_heavy_sequences(threads, 20, 8, 8)
    }

    #[test]
    fn shard_routing_wraps_on_thread_id_boundaries() {
        let builder = ShardedCpgBuilder::with_shards(4);
        assert_eq!(builder.shards.len(), 4);
        assert_eq!(builder.shard_for(ThreadId::new(0)), 0);
        assert_eq!(builder.shard_for(ThreadId::new(3)), 3);
        // Exactly at the stripe-count boundary the routing wraps...
        assert_eq!(builder.shard_for(ThreadId::new(4)), 0);
        assert_eq!(builder.shard_for(ThreadId::new(5)), 1);
        // ...and stays a plain modulus for arbitrarily large ids.
        assert_eq!(
            builder.shard_for(ThreadId::new(u32::MAX)),
            u32::MAX as usize % 4
        );
        // A single-stripe builder degenerates to one shard for everyone.
        let single = ShardedCpgBuilder::with_shards(1);
        assert_eq!(single.shard_for(ThreadId::new(7)), 0);
        // Zero stripes are clamped rather than dividing by zero.
        assert_eq!(ShardedCpgBuilder::with_shards(0).shards.len(), 1);
    }

    #[test]
    fn streamed_graph_matches_batch_graph() {
        let sequences = lock_heavy_sequences(4);

        let reference = batch_build(&sequences);

        let streaming = ShardedCpgBuilder::with_shards(3);
        // Round-robin delivery across threads, FIFO within each thread.
        let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
            sequences.into_iter().map(|s| s.into_iter()).collect();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for cursor in &mut cursors {
                if let Some(sub) = cursor.next() {
                    streaming.ingest(sub);
                    progressed = true;
                }
            }
        }
        let sealed = streaming.seal();

        assert_eq!(sealed.node_count(), reference.node_count());
        assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
        assert!(sealed.validate().is_ok());
    }

    #[test]
    fn batched_ingest_matches_per_sub_ingest() {
        // Chunking each thread's sequence into arbitrary α-contiguous
        // batches must produce the same graph as one sub per call.
        let sequences = lock_heavy_sequences(4);
        let reference = batch_build(&sequences);

        for chunk in [1usize, 3, 7, 64] {
            let streaming = ShardedCpgBuilder::with_shards(3);
            for seq in sequences.clone() {
                let mut seq = seq.into_iter().peekable();
                while seq.peek().is_some() {
                    let batch: Vec<SubComputation> = seq.by_ref().take(chunk).collect();
                    streaming.ingest_batch(batch);
                }
            }
            let sealed = streaming.seal();
            assert_eq!(
                edge_fingerprint(&sealed),
                edge_fingerprint(&reference),
                "chunk={chunk}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "single thread")]
    fn mixed_thread_batches_are_rejected() {
        let sequences = lock_heavy_sequences(2);
        let builder = ShardedCpgBuilder::new();
        let mixed = vec![sequences[0][0].clone(), sequences[1][0].clone()];
        builder.ingest_batch(mixed);
    }

    #[test]
    #[should_panic(expected = "contiguous in α")]
    fn gapped_batches_are_rejected() {
        let sequences = lock_heavy_sequences(1);
        let builder = ShardedCpgBuilder::new();
        let gapped = vec![sequences[0][0].clone(), sequences[0][2].clone()];
        builder.ingest_batch(gapped);
    }

    #[test]
    fn concurrent_producers_match_batch() {
        // Four producers ingesting four threads' sequences concurrently
        // (FIFO per thread by construction: one producer per thread).
        let sequences = lock_heavy_sequences(4);
        let reference = batch_build(&sequences);

        let streaming = ShardedCpgBuilder::with_shards(4);
        std::thread::scope(|scope| {
            for seq in sequences {
                let streaming = &streaming;
                scope.spawn(move || {
                    for sub in seq {
                        streaming.ingest(sub);
                    }
                });
            }
        });
        let sealed = streaming.seal();
        assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
    }

    #[test]
    fn builder_is_reusable_after_seal() {
        let sequences = lock_heavy_sequences(2);
        let streaming = ShardedCpgBuilder::new();
        for seq in &sequences {
            for sub in seq.clone() {
                streaming.ingest(sub);
            }
        }
        let first = streaming.seal();
        assert!(first.node_count() > 0);
        let empty = streaming.seal();
        assert_eq!(empty.node_count(), 0);
        assert_eq!(empty.edge_count(), 0);

        for seq in sequences {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        let second = streaming.seal();
        assert_eq!(edge_fingerprint(&second), edge_fingerprint(&first));
        // Per-build counters: the second build's stats cover only the
        // second ingestion round.
        let stats = streaming.last_sealed_stats().expect("sealed");
        assert_eq!(stats.ingested as usize, second.node_count());
    }

    #[test]
    #[should_panic(expected = "α order")]
    fn out_of_order_delivery_panics() {
        let sequences = lock_heavy_sequences(1);
        let streaming = ShardedCpgBuilder::new();
        let mut subs = sequences.into_iter().next().unwrap().into_iter();
        let first = subs.next().unwrap();
        let second = subs.next().unwrap();
        streaming.ingest(second);
        streaming.ingest(first);
    }

    fn spill_settings(threshold: usize, dir: &Path) -> SpillSettings {
        SpillSettings {
            // Small segments so the tests exercise segment rolling too.
            segment_bytes: 512,
            ..SpillSettings::new(threshold, dir)
        }
    }

    #[test]
    fn spilled_build_matches_batch_graph() {
        let sequences = lock_heavy_sequences(4);
        let reference = batch_build(&sequences);

        for threshold in [1usize, 2, 8] {
            let tmp = TempDir::new("sharded-spill");
            let streaming = ShardedCpgBuilder::with_shards_and_spill(
                3,
                Some(spill_settings(threshold, tmp.path())),
            );
            let mut cursors: Vec<std::vec::IntoIter<SubComputation>> = sequences
                .clone()
                .into_iter()
                .map(|s| s.into_iter())
                .collect();
            let mut progressed = true;
            while progressed {
                progressed = false;
                for cursor in &mut cursors {
                    if let Some(sub) = cursor.next() {
                        streaming.ingest(sub);
                        progressed = true;
                    }
                }
            }
            let sealed = streaming.seal();
            assert_eq!(
                sealed.node_count(),
                reference.node_count(),
                "threshold={threshold}"
            );
            assert_eq!(
                edge_fingerprint(&sealed),
                edge_fingerprint(&reference),
                "threshold={threshold}"
            );
            let stats = streaming.last_sealed_stats().expect("sealed");
            assert!(stats.spilled_subs > 0, "threshold={threshold}: {stats:?}");
            assert!(stats.spill_bytes > 0, "threshold={threshold}: {stats:?}");
        }
    }

    #[test]
    fn spill_threshold_one_bounds_resident_window() {
        // Threshold 1: every ingest is a round, so each sub spills right
        // after ingestion and the peak resident count is a small active
        // window, not the trace length.
        let sequences = lock_heavy_sequences(4);
        let total: usize = sequences.iter().map(|s| s.len()).sum();
        let tmp = TempDir::new("sharded-spill");
        let streaming =
            ShardedCpgBuilder::with_shards_and_spill(2, Some(spill_settings(1, tmp.path())));
        for seq in sequences {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        let stats = streaming.stats();
        assert!(stats.spilled_subs > 0, "{stats:?}");
        assert!(
            stats.peak_resident_subs < total as u64 / 4,
            "peak resident {} should be far below the {} ingested",
            stats.peak_resident_subs,
            total
        );
        let sealed = streaming.seal();
        assert_eq!(sealed.node_count(), total);
        assert!(sealed.validate().is_ok());
    }

    #[test]
    fn with_sequences_faults_spilled_prefixes_back_in() {
        let sequences = lock_heavy_sequences(2);
        let expected: usize = sequences.iter().map(|s| s.len()).sum();
        let tmp = TempDir::new("sharded-spill");
        let streaming =
            ShardedCpgBuilder::with_shards_and_spill(2, Some(spill_settings(1, tmp.path())));
        let mut cursors: Vec<std::vec::IntoIter<SubComputation>> =
            sequences.into_iter().map(|s| s.into_iter()).collect();
        let mut progressed = true;
        while progressed {
            progressed = false;
            for cursor in &mut cursors {
                if let Some(sub) = cursor.next() {
                    streaming.ingest(sub);
                    progressed = true;
                }
            }
        }
        assert!(streaming.stats().spilled_subs > 0);
        // The live view still exposes every sub-computation from α = 0, in
        // order, with spilled nodes transparently faulted back in.
        streaming.with_sequences(|map| {
            let seen: usize = map.values().map(|s| s.len()).sum();
            assert_eq!(seen, expected);
            for (&t, seq) in map {
                for (i, sub) in seq.iter().enumerate() {
                    assert_eq!(sub.id, SubId::new(t, i as u64));
                }
            }
        });
    }

    #[test]
    fn with_sequences_survives_a_vanished_segment() {
        // A segment deleted between a spill and a snapshot must degrade the
        // view, not abort the caller with every stripe locked.
        let sequences = lock_heavy_sequences(2);
        let tmp = TempDir::new("sharded-spill");
        let streaming =
            ShardedCpgBuilder::with_shards_and_spill(2, Some(spill_settings(1, tmp.path())));
        for seq in sequences.clone() {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        assert!(streaming.stats().spilled_subs > 0);
        assert_eq!(streaming.stats().spill_fallbacks, 0);
        // Thread 0 spills through shard 0: take its first segment away.
        let dir = streaming.spill_directory().expect("spilling").to_path_buf();
        std::fs::remove_file(dir.join(crate::spill::segment_file_name(0, 0))).unwrap();
        streaming.with_sequences(|map| {
            // The thread whose prefix is gone is left out; the other
            // shard's thread is complete from α = 0.
            assert!(!map.contains_key(&ThreadId::new(0)));
            let other = map[&ThreadId::new(1)];
            assert_eq!(other.len(), sequences[1].len());
            assert_eq!(other[0].id.alpha, 0);
        });
        assert_eq!(streaming.stats().spill_fallbacks, 1);
        // The seal degrades the same way instead of panicking.
        let sealed = streaming.seal();
        assert!(sealed.node_count() < sequences.iter().map(Vec::len).sum());
    }

    #[test]
    fn a_failed_round_leaves_the_shard_untouched() {
        // All-or-nothing: a round whose write fails on every attempt (each
        // one part-way through) detaches nothing.
        let sequences = lock_heavy_sequences(2);
        // A threshold nothing reaches, so the only round is the one below.
        let tmp = TempDir::new("sharded-spill");
        let streaming =
            ShardedCpgBuilder::with_shards_and_spill(1, Some(spill_settings(10_000, tmp.path())));
        for seq in sequences {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        let snapshot = |shard: &Shard| -> Vec<_> {
            shard
                .sequences
                .iter()
                .map(|(&t, seq)| (t, seq.base, seq.live.clone()))
                .collect()
        };
        let mut guard = streaming.shards[0].lock();
        let before = snapshot(&guard);
        let resident = streaming.resident.load(Ordering::Acquire);
        guard
            .spill
            .as_mut()
            .expect("store")
            .fail_next_writes(&[9, 200, 1]);
        streaming.spill_shard(0, &mut guard);
        assert_eq!(snapshot(&guard), before);
        assert!(guard.spill.is_none(), "the shard fell back to memory");
        drop(guard);
        let stats = streaming.stats();
        assert_eq!(stats.spilled_subs, 0);
        assert_eq!(stats.spill_bytes, 0);
        assert_eq!(stats.spill_fallbacks, 1);
        // The segment header and three attempts.
        assert_eq!(stats.spill_writes, 4);
        assert_eq!(streaming.resident.load(Ordering::Acquire), resident);
    }

    #[test]
    fn spilling_builder_is_reusable_after_seal() {
        let sequences = lock_heavy_sequences(2);
        let tmp = TempDir::new("sharded-spill");
        let streaming =
            ShardedCpgBuilder::with_shards_and_spill(2, Some(spill_settings(2, tmp.path())));
        let mut first: Option<std::collections::BTreeSet<String>> = None;
        for _ in 0..2 {
            for seq in sequences.clone() {
                for sub in seq {
                    streaming.ingest(sub);
                }
            }
            let sealed = streaming.seal();
            let fingerprint = edge_fingerprint(&sealed);
            if let Some(prev) = &first {
                assert_eq!(&fingerprint, prev);
            }
            first = Some(fingerprint);
            let stats = streaming.last_sealed_stats().expect("sealed");
            assert!(stats.spilled_subs > 0);
            // Counters are per build.
            assert_eq!(streaming.stats().spilled_subs, 0);
        }
    }

    #[test]
    fn spill_write_failure_falls_back_to_memory_without_loss() {
        let sequences = lock_heavy_sequences(3);
        let reference = batch_build(&sequences);

        // Fail from the very first spill write, and after letting a few
        // writes land first (so already-spilled records must be replayed
        // back): both degrade to in-memory retention and the final graph
        // is complete.
        for fail_at in [1u64, 10] {
            let tmp = TempDir::new("sharded-spill");
            let streaming =
                ShardedCpgBuilder::with_shards_and_spill(2, Some(spill_settings(1, tmp.path())));
            streaming.inject_spill_write_failure(fail_at);
            for seq in sequences.clone() {
                for sub in seq {
                    streaming.ingest(sub);
                }
            }
            let sealed = streaming.seal();
            assert_eq!(
                sealed.node_count(),
                reference.node_count(),
                "fail_at={fail_at}"
            );
            assert_eq!(
                edge_fingerprint(&sealed),
                edge_fingerprint(&reference),
                "fail_at={fail_at}"
            );
            let stats = streaming.last_sealed_stats().expect("sealed");
            assert!(stats.spill_fallbacks > 0, "fail_at={fail_at}: {stats:?}");
        }
    }

    #[test]
    fn unusable_spill_dir_degrades_to_in_memory() {
        // Occupy the spill directory path with a plain file so no store
        // can be created: the builder must run fully in memory and report
        // the degradation instead of panicking.
        let tmp = TempDir::new("sharded-spill");
        let settings = spill_settings(1, &tmp.path().join("file"));
        std::fs::create_dir_all(tmp.path()).unwrap();
        std::fs::write(&settings.dir, b"not a directory").expect("plant blocking file");
        let streaming = ShardedCpgBuilder::with_shards_and_spill(2, Some(settings));
        let sequences = lock_heavy_sequences(2);
        let total: usize = sequences.iter().map(|s| s.len()).sum();
        for seq in sequences {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        let sealed = streaming.seal();
        assert_eq!(sealed.node_count(), total);
        assert!(sealed.validate().is_ok());
        let stats = streaming.last_sealed_stats().expect("sealed");
        assert_eq!(stats.spill_fallbacks, 2, "{stats:?}");
        assert_eq!(stats.spilled_subs, 0, "{stats:?}");
    }

    #[test]
    fn with_sequences_exposes_live_view() {
        let sequences = lock_heavy_sequences(2);
        let streaming = ShardedCpgBuilder::with_shards(2);
        let mut expected = 0usize;
        for seq in sequences {
            for sub in seq {
                streaming.ingest(sub);
                expected += 1;
            }
        }
        let seen: usize = streaming.with_sequences(|map| map.values().map(|s| s.len()).sum());
        assert_eq!(seen, expected);
        assert_eq!(streaming.ingested_nodes(), expected as u64);
    }
}
