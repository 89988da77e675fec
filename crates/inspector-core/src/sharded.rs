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
//! * **Seal derives.** [`ShardedCpgBuilder::seal`] reads the spilled
//!   prefixes through recovery's core ([`crate::recover`]) — the reader and
//!   the torn / CRC / missing / poison policy offline recovery uses, with
//!   each store's committed lengths as the plan — with every thread's live
//!   suffix behind its prefix, so the node store arrives in (thread, α)
//!   order. A clean read is the whole run; a read that lost spilled bytes
//!   is **cut only on loss**, to the maximal consistent cut, as recovery
//!   cuts it. It then derives the edges over that store with the same
//!   parallel derivation
//!   [`CpgBuilder::into_cpg`](crate::graph::CpgBuilder::into_cpg) and
//!   [`recover_session`](crate::recover::recover_session) end in. The
//!   streamed graph is therefore node- and edge-identical to the batch
//!   oracle by construction, for any delivery interleaving that is FIFO per
//!   thread, any batch chunking and any stripe count; the equivalence
//!   harness in `tests/equivalence/` checks it. Over damaged spill files it
//!   is the graph recovery rebuilds from them (`tests/crash_recovery.rs`).
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
//!   offline recovery computes the consistent cut itself. A live
//!   [`snapshot`](ShardedCpgBuilder::snapshot) and the seal read the
//!   spilled stripes back through recovery's core, in one fan-out over
//!   every stripe's segments; the seal cuts only on loss, a snapshot always
//!   takes its consistent cut. Peak resident memory is O(active window)
//!   instead of O(trace length) (paper §VI).
//! * **A store only appends or stops.** A round whose write still fails
//!   after bounded retries stops its stripe's store; the injected crash
//!   stops every stripe's. A stopped store keeps on disk what it committed
//!   and takes no further round, and its stripe keeps the rest resident.
//!   Nothing is read back, dropped or deleted during ingest: the seal reads
//!   every store, stopped or not, and is the only place a spill file is
//!   deleted. A builder that is never sealed leaves a recoverable image.
//! * **One build per builder.** A builder is one run's store: its spill
//!   settings, fault points included, are fixed at construction, its
//!   counters are that build's, and [`seal`](ShardedCpgBuilder::seal) runs
//!   once. An `ingest` after the seal, or a second seal, panics — checked
//!   under the stripe locks both already take, in every build profile.
//! * **A run lives in the arena of the thread that opened it.** This is
//!   the rule the spill reader's scan buffers and the derivation's edge
//!   parts already follow (`pool::caller_buffer`): a buffer the sealing
//!   thread makes stays in that thread's allocator arena, however a worker
//!   grows it, because `realloc` keeps a block in its own arena. The seal
//!   frees every run on the sealing thread, so
//!   [`open_run`](ShardedCpgBuilder::open_run) there, before the thread's
//!   first ingest, returns a run's memory to the arena the next build
//!   draws from. A run that an ingest creates instead is grown on the
//!   worker, whose arena keeps it after the worker exits. The runtime
//!   opens every thread's run where it allocates the thread's id.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use crate::clock::VectorClock;
use crate::graph::Cpg;
use crate::ids::ThreadId;
use crate::pool;
use crate::recover::{read_segments, RecoveryReport, Tail};
use crate::snapshot::{clock_follows, cut_in_place, Snapshot};
use crate::spill::{ManifestSegment, ManifestWriter, SpillDurability, SpillSettings, SpillStore};
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
    /// Times the spill stage *degraded* instead of aborting: a shard's
    /// store could not be created; a round's write failed after bounded
    /// retries (ENOSPC, injected fault) and the shard's store stopped; the
    /// injected crash fired; a retaining seal could not complete its
    /// on-disk copy; or a read of the spilled prefixes — by the seal or a
    /// snapshot — lost bytes its stores had committed (one per such read).
    /// A stopped store loses nothing: its committed prefix stays on disk,
    /// the rest of its stripe stays in memory, and the seal reads both, so
    /// the final graph is complete. A lossy read leaves the seal the
    /// maximal consistent cut over what could be read.
    pub spill_fallbacks: u64,
    /// `write` calls issued on spill segments: one per opened segment (its
    /// header) plus one per round commit attempt — never one per record.
    pub spill_writes: u64,
}

/// One thread's stored execution sequence inside a shard: the live suffix
/// plus the length and last clock of the spilled prefix.
#[derive(Debug, Default)]
struct ThreadSeq {
    /// Number of sub-computations already spilled to disk; the live suffix
    /// starts at α = `base`.
    base: u64,
    /// Resident sub-computations, in α order.
    live: Vec<SubComputation>,
    /// The clock of the last spilled sub-computation (`None` before the
    /// first spill), which the next ingest is checked against while the live
    /// suffix is empty.
    spilled_clock: Option<VectorClock>,
}

impl ThreadSeq {
    /// Total sub-computations ingested for this thread (spilled + live).
    fn len(&self) -> u64 {
        self.base + self.live.len() as u64
    }

    /// The clock of the thread's last ingested sub-computation.
    fn last_clock(&self) -> Option<&VectorClock> {
        self.live
            .last()
            .map(|sub| &sub.clock)
            .or(self.spilled_clock.as_ref())
    }
}

/// One thread-keyed lock stripe: node storage and its spill store.
#[derive(Debug, Default)]
struct Shard {
    /// Per-thread execution sequences in ingest (= α) order.
    sequences: BTreeMap<ThreadId, ThreadSeq>,
    /// Append-only on-disk store for spilled prefixes (`None` when
    /// spilling is disabled or the store could not be created).
    spill: Option<SpillStore>,
    /// Sub-computations ingested into this stripe since its last committed
    /// round — its resident count while the store works. A round is due
    /// once it reaches the threshold.
    unspilled: usize,
    /// Set when a round's write still failed after the bounded retries, or
    /// once the injected crash fired: the store keeps what it committed,
    /// for the seal to read, and takes no further round.
    stopped: bool,
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
/// It builds one graph: [`seal`](Self::seal) ends it.
#[derive(Debug)]
pub struct ShardedCpgBuilder {
    /// Thread-keyed node stripes.
    shards: Vec<Mutex<Shard>>,
    /// Spill configuration; `None` (or threshold 0) keeps every node
    /// resident until the seal.
    spill: Option<SpillSettings>,
    /// Sub-computations ingested.
    ingested: AtomicU64,
    /// Sub-computations spilled to disk.
    spilled_subs: AtomicU64,
    /// Bytes appended to the spill segments.
    spill_bytes: AtomicU64,
    /// Nanoseconds spent in the spill stage.
    spill_time_nanos: AtomicU64,
    /// Sub-computations currently resident in the shards.
    resident: AtomicU64,
    /// Largest `resident` value observed.
    peak_resident: AtomicU64,
    /// Times the spill stage degraded (see
    /// [`IngestStats::spill_fallbacks`]).
    spill_fallbacks: AtomicU64,
    /// Segment `write` calls issued.
    spill_writes: AtomicU64,
    /// Spill-write attempts; only advanced while
    /// [`SpillSettings::fail_write_at`] is armed.
    spill_appends: AtomicU64,
    /// Per-session manifest publisher (`None` when spilling is disabled).
    spill_manifest: Option<ManifestWriter>,
    /// Spill records staged; only advanced while
    /// [`SpillSettings::crash_after_records`] is armed.
    spill_record_count: AtomicU64,
    /// Set once the injected crash fired.
    spill_crashed: AtomicBool,
    /// Session-requested retention: keep spill artifacts (segments plus
    /// manifest) at seal even though the seal itself completes. Set by
    /// the session when the run degraded before the seal.
    seal_retain: AtomicBool,
    /// Set by the seal, under every stripe lock, once the build's counters
    /// are final. An ingest reads it under its stripe lock.
    sealed: AtomicBool,
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
            spill_manifest,
            spill_record_count: AtomicU64::new(0),
            spill_crashed: AtomicBool::new(false),
            seal_retain: AtomicBool::new(false),
            sealed: AtomicBool::new(false),
        }
    }

    /// The spill threshold, when spilling is enabled.
    fn spill_threshold(&self) -> Option<usize> {
        self.spill.as_ref().map(|s| s.threshold)
    }

    /// The stripe a thread's sub-computations are stored in.
    fn shard_for(&self, thread: ThreadId) -> usize {
        thread.index() % self.shards.len()
    }

    /// The build's counters: live while it ingests, final once it is
    /// sealed.
    pub fn stats(&self) -> IngestStats {
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

    /// Whether the injected spill crash
    /// ([`SpillSettings::crash_after_records`]) has fired.
    pub fn spill_crash_triggered(&self) -> bool {
        self.spill_crashed.load(Ordering::Acquire)
    }

    /// Asks the seal to keep all spill artifacts (segments + manifest) on
    /// disk even though it completes normally. The session sets this when
    /// the run degraded before the seal, so forensic material survives.
    pub fn set_seal_retain(&self, retain: bool) {
        self.seal_retain.store(retain, Ordering::Release);
    }

    /// Whether the seal keeps the spill image on disk: the session retains
    /// it, or asked the seal to.
    fn retains_spill(&self) -> bool {
        self.seal_retain.load(Ordering::Acquire)
            || self.spill.as_ref().is_some_and(|s| s.retain_on_seal)
    }

    /// The spill directory, when spilling is enabled.
    pub fn spill_directory(&self) -> Option<&Path> {
        self.spill.as_ref().map(|s| s.dir.as_path())
    }

    /// Counts one staged spill record against the armed crash point.
    /// Returns `true` when this record is the one that "kills" the
    /// process.
    fn spill_crash_due(&self) -> bool {
        let at = self.spill.as_ref().map_or(0, |s| s.crash_after_records);
        if at == 0 {
            return false;
        }
        self.spill_record_count.fetch_add(1, Ordering::AcqRel) + 1 > at
    }

    /// Runs one round's write with bounded retries. Injected failures
    /// consume the same attempt budget as real ones. Returns `false` when
    /// the write never succeeded — the caller stops the store.
    fn try_spill_append(&self, mut attempt: impl FnMut() -> std::io::Result<()>) -> bool {
        const BACKOFF_MICROS: [u64; 3] = [0, 50, 200];
        let fail_at = self.spill.as_ref().map_or(0, |s| s.fail_write_at);
        for backoff in BACKOFF_MICROS {
            if backoff > 0 {
                std::thread::sleep(Duration::from_micros(backoff));
            }
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

    /// The build's final counters, once the builder is sealed: what
    /// [`stats`](Self::stats) then returns. `None` before the seal.
    pub fn last_sealed_stats(&self) -> Option<IngestStats> {
        self.sealed.load(Ordering::Acquire).then(|| self.stats())
    }

    /// Opens `thread`'s run: creates it empty, on the calling thread, with
    /// 4 KiB of room. Opening a run that exists does nothing; an
    /// [`ingest`](Self::ingest) of a thread nobody opened creates its run
    /// itself.
    ///
    /// This is placement, not bookkeeping. A run's first block comes from
    /// the arena of the thread that opens it, and every `realloc` that
    /// grows it stays in that arena, whichever ingest worker makes it. The
    /// seal frees the runs on the sealing thread. Opened there, a run's
    /// memory goes back to the arena it was taken from, and that arena
    /// serves the next build; grown from nothing on a worker, it stays
    /// behind in the worker's arena when the worker exits. The room is what
    /// pins the first block: a block of one node's size may come from the
    /// thread's cache of freed small blocks, which any thread's arena can
    /// have filled.
    ///
    /// # Panics
    ///
    /// Panics if the builder is sealed.
    pub fn open_run(&self, thread: ThreadId) {
        let mut shard = self.shards[self.shard_for(thread)].lock();
        assert!(
            !self.sealed.load(Ordering::Acquire),
            "run opened in a sealed ShardedCpgBuilder: a builder builds one graph"
        );
        shard.sequences.entry(thread).or_insert_with(|| ThreadSeq {
            live: pool::caller_buffer(1),
            ..ThreadSeq::default()
        });
    }

    /// Ingests one retired sub-computation **by value** — the batch of one;
    /// see [`ingest_batch`](Self::ingest_batch).
    ///
    /// # Panics
    ///
    /// Panics if a thread's sub-computations are delivered out of α order,
    /// if its clock goes backwards against the thread's previous one, or if
    /// the builder is sealed.
    pub fn ingest(&self, sub: SubComputation) {
        self.append(sub.id.thread, sub.id.alpha, std::iter::once(sub));
    }

    /// Ingests one thread's α-contiguous batch of retired sub-computations
    /// **by value**, under one node-stripe lock: the batch is appended to
    /// its thread's run and the stripe's spill stage runs.
    ///
    /// # Panics
    ///
    /// Panics if the batch mixes threads, is not contiguous in α, or is
    /// delivered out of α order with respect to earlier ingests, if a clock
    /// in it goes backwards against the thread's previous one, or if the
    /// builder is sealed.
    pub fn ingest_batch(&self, batch: Vec<SubComputation>) {
        let Some(first) = batch.first() else {
            return;
        };
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
        self.append(thread, first_alpha, batch.into_iter());
    }

    /// The ingest body: under `thread`'s stripe lock, refuses a sealed
    /// builder, checks that `subs` continue the thread's run at
    /// `first_alpha` with clocks that never go backwards (the rule
    /// [`cut_in_place`] starts each thread's cut with), moves them onto it
    /// and runs the stripe's spill stage.
    fn append(
        &self,
        thread: ThreadId,
        first_alpha: u64,
        subs: impl ExactSizeIterator<Item = SubComputation>,
    ) {
        let batch_len = subs.len();
        let stripe = self.shard_for(thread);
        let mut guard = self.shards[stripe].lock();
        assert!(
            !self.sealed.load(Ordering::Acquire),
            "ingest into a sealed ShardedCpgBuilder: a builder builds one graph"
        );
        let shard = &mut *guard;
        let seq = shard.sequences.entry(thread).or_default();
        assert_eq!(
            seq.len(),
            first_alpha,
            "sub-computations of {thread} must be ingested in α order"
        );
        seq.live.reserve(batch_len);
        for sub in subs {
            assert!(
                seq.last_clock()
                    .is_none_or(|last| clock_follows(last, &sub.clock)),
                "the clock of {} goes backwards: a builder ingests recorder output",
                sub.id
            );
            seq.live.push(sub);
        }
        self.ingested.fetch_add(batch_len as u64, Ordering::AcqRel);
        let resident =
            self.resident.fetch_add(batch_len as u64, Ordering::AcqRel) + batch_len as u64;
        self.peak_resident.fetch_max(resident, Ordering::AcqRel);

        if shard.spill.is_some() && !shard.stopped {
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
    /// and their bases advanced — so a failed round leaves the shard's
    /// nodes exactly as they were, and stops its store.
    fn spill_shard(&self, stripe: usize, shard: &mut Shard) {
        let started = Instant::now();
        self.spill_round(stripe, shard);
        self.spill_time_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::AcqRel);
    }

    fn spill_round(&self, stripe: usize, shard: &mut Shard) {
        let Shard {
            sequences,
            spill: Some(store),
            unspilled,
            stopped,
        } = shard
        else {
            return;
        };
        // The injected crash stops every stripe: a dead process writes
        // nothing more.
        if self.spill_crashed.load(Ordering::Acquire) {
            *stopped = true;
            return;
        }

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
            // Bounded retries exhausted (ENOSPC, injected fault) or the
            // process "died": the store stops. What it committed stays on
            // disk for the seal to read; the round's nodes stay resident,
            // and so does whatever the stripe ingests from now on. A crash
            // also freezes the manifest exactly where the dead process left
            // it.
            self.spill_fallbacks.fetch_add(1, Ordering::AcqRel);
            *stopped = true;
            if crashed {
                self.spill_crashed.store(true, Ordering::Release);
                if let Some(manifest) = self.spill_manifest.as_ref() {
                    manifest.freeze();
                }
            }
            return;
        };

        // The round is on disk: detach it from memory.
        for seq in sequences.values_mut() {
            seq.base += seq.live.len() as u64;
            if let Some(last) = seq.live.last_mut() {
                seq.spilled_clock = Some(std::mem::take(&mut last.clock));
            }
            seq.live.clear();
        }
        *unspilled = 0;
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

    /// Every stored node in (thread, α) order: the segments `plan` names,
    /// read through recovery's core in one fan-out, each thread's live
    /// suffix — taken or cloned by `live` — behind its prefix. A stripe
    /// that lost spilled bytes loses its live suffixes too, as in recovery
    /// the rest of a damaged shard is lost. A read that lost spilled bytes
    /// is a counted fallback. Returns the store and whether anything was
    /// lost.
    fn read_back(
        &self,
        plan: &[ManifestSegment],
        stripes: &mut [MutexGuard<'_, Shard>],
        live: impl Fn(&mut ThreadSeq) -> Vec<SubComputation>,
    ) -> (Vec<SubComputation>, bool) {
        let mut tails: Vec<Tail> = Vec::new();
        for (stripe, shard) in stripes.iter_mut().enumerate() {
            for (&thread, seq) in &mut shard.sequences {
                tails.push((thread, stripe, live(seq)));
            }
        }
        tails.sort_by_key(|tail| tail.0);
        let (dir, session_id) = self
            .spill
            .as_ref()
            .map_or((Path::new(""), 0), |s| (s.dir.as_path(), s.session_id));
        let mut report = RecoveryReport::default();
        let (nodes, _) = read_segments(dir, session_id, plan, tails, &mut report);
        let lost = report.lost_vouched();
        if lost {
            self.spill_fallbacks.fetch_add(1, Ordering::AcqRel);
        }
        (nodes, lost)
    }

    /// The read plan of every stripe's store: the segments each vouches
    /// for, stripe after stripe.
    fn plan(stripes: &[MutexGuard<'_, Shard>]) -> Vec<ManifestSegment> {
        stripes
            .iter()
            .filter_map(|shard| shard.spill.as_ref())
            .flat_map(SpillStore::plan)
            .collect()
    }

    /// Every sub-computation ingested so far, as an owned, id-sorted node
    /// store: each thread's spilled prefix, read back from its segments,
    /// then a clone of its live suffix — snapshots see spilled history
    /// transparently. The stripe locks are held while gathering only. A
    /// prefix that cannot be read back (segment damaged or gone) is a
    /// counted degradation, never a panic with every stripe locked: what
    /// the read lost leaves holes, and the snapshot's cut drops whatever
    /// then lacks its causal context. A sealed builder holds nothing: the
    /// seal took its nodes, and an image it kept is recovery's.
    pub(crate) fn gather(&self) -> Vec<SubComputation> {
        let mut stripes: Vec<_> = self.shards.iter().map(Mutex::lock).collect();
        if self.sealed.load(Ordering::Acquire) {
            return Vec::new();
        }
        let plan = Self::plan(&stripes);
        self.read_back(&plan, &mut stripes, |seq| seq.live.clone())
            .0
    }

    /// A consistent snapshot of everything ingested so far: every stored
    /// node, gathered under the stripe locks, cut to the maximal consistent
    /// cut, with the edges derived over it as the seal derives them. Only
    /// the gathering holds the locks; the cut and the derivation run on the
    /// calling thread while ingest goes on.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::of(self.gather())
    }

    /// Finishes the graph: reads every stripe's spilled prefixes through
    /// recovery's core, each thread's live suffix behind its prefix, into
    /// the graph's id-sorted node store; cuts it to the maximal consistent
    /// cut only if the read lost spilled bytes; and derives the edges over
    /// it with the parallel derivation
    /// [`CpgBuilder::into_cpg`](crate::graph::CpgBuilder::into_cpg) ends
    /// in. The seal ends the builder's one build and resets nothing:
    /// [`stats`](Self::stats) stay the build's final counters, which
    /// [`last_sealed_stats`](Self::last_sealed_stats) now returns, and a
    /// [`snapshot`](Self::snapshot) is empty.
    ///
    /// The seal is the only place a spill file is deleted. A crashed build,
    /// a retaining seal and a read that lost spilled bytes keep the image;
    /// otherwise every segment, the manifest and the directory go. A builder
    /// that is never sealed deletes nothing and leaves a recoverable image,
    /// as a crashed process does.
    ///
    /// # Quiescence
    ///
    /// Callers quiesce every producer before sealing — the runtime joins
    /// its ingest pool first. The builder checks it, in every build
    /// profile: the seal holds every stripe lock, so an `ingest` either
    /// finished before it and is in the graph, or takes its stripe lock
    /// after it and panics.
    ///
    /// # Panics
    ///
    /// Panics if the builder is already sealed.
    pub fn seal(&self) -> Cpg {
        let mut stripes: Vec<_> = self.shards.iter().map(Mutex::lock).collect();
        assert!(
            !self.sealed.load(Ordering::Acquire),
            "ShardedCpgBuilder sealed twice: a builder builds one graph"
        );
        let crashed = self.spill_crashed.load(Ordering::Acquire);
        let retain = self.retains_spill();
        let plan = Self::plan(&stripes);
        if retain && !crashed {
            // A retaining seal completes the on-disk copy with one more
            // round per store, holding the stripe's live nodes, so the
            // directory becomes a recoverable image of the whole graph. The
            // read below takes those nodes from memory, behind the prefixes
            // the plan vouched for before this round. A stopped store takes
            // no round, this one included.
            for shard in &mut stripes {
                let Shard {
                    sequences,
                    spill: Some(store),
                    stopped: false,
                    ..
                } = &mut **shard
                else {
                    continue;
                };
                let writes_before = store.writes();
                store.begin_round();
                for sub in sequences.values().flat_map(|seq| &seq.live) {
                    store.stage_node(sub);
                }
                if !self.try_spill_append(|| store.commit_round().map(drop)) {
                    self.spill_fallbacks.fetch_add(1, Ordering::AcqRel);
                }
                self.spill_writes
                    .fetch_add(store.writes() - writes_before, Ordering::AcqRel);
            }
        }
        let (mut nodes, lost) =
            self.read_back(&plan, &mut stripes, |seq| std::mem::take(&mut seq.live));

        // What outlives the seal: a crash (a dead process deletes nothing),
        // a retaining seal and a lossy read keep every spill file and hand
        // the manifest each store's durable state (a crashed, frozen
        // manifest ignores it); the manifest is clean only if the build
        // degraded nowhere. Otherwise the files, the manifest and the
        // session directory are deleted, so nothing accumulates under the
        // spill root.
        let keep = crashed || retain || lost;
        for (stripe, shard) in stripes.iter_mut().enumerate() {
            let Some(store) = shard.spill.as_mut() else {
                continue;
            };
            if !keep {
                store.clear();
                continue;
            }
            match store.sync_for_cut() {
                Ok(()) => {
                    if let Some(manifest) = self.spill_manifest.as_ref() {
                        manifest.set_shard(stripe, store.manifest_snapshot());
                    }
                }
                Err(_) => {
                    self.spill_fallbacks.fetch_add(1, Ordering::AcqRel);
                }
            }
        }
        // The counters are final: mark the build sealed before the stripe
        // locks go, so an ingest that was waiting on one panics.
        self.sealed.store(true, Ordering::Release);
        drop(stripes);
        if let (Some(settings), Some(manifest)) = (&self.spill, &self.spill_manifest) {
            if !keep {
                manifest.cleanup();
                let _ = std::fs::remove_dir(&settings.dir);
            } else if retain && self.spill_fallbacks.load(Ordering::Acquire) == 0 {
                let _ = manifest.mark_clean();
            } else {
                let _ = manifest.publish();
            }
        }

        if lost {
            cut_in_place(&mut nodes, |_| usize::MAX);
        }
        Cpg::derived(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn a_sealed_builder_keeps_its_final_counters() {
        let sequences = lock_heavy_sequences(2);
        let total: usize = sequences.iter().map(Vec::len).sum();
        let streaming = ShardedCpgBuilder::new();
        for seq in sequences {
            streaming.ingest_batch(seq);
        }
        assert_eq!(streaming.last_sealed_stats(), None);
        let sealed = streaming.seal();
        assert_eq!(sealed.node_count(), total);
        let stats = streaming.last_sealed_stats().expect("sealed");
        assert_eq!(stats.ingested as usize, total);
        assert_eq!(streaming.stats(), stats, "the seal resets nothing");
        assert_eq!(streaming.snapshot().cpg.node_count(), 0);
    }

    #[test]
    #[should_panic(expected = "sealed ShardedCpgBuilder")]
    fn ingest_after_seal_panics() {
        let sequence = lock_heavy_sequences(1).remove(0);
        let first = sequence[0].clone();
        let streaming = ShardedCpgBuilder::new();
        streaming.ingest_batch(sequence);
        streaming.seal();
        // α 0 again: what a second build would start with.
        streaming.ingest(first);
    }

    #[test]
    #[should_panic(expected = "sealed twice")]
    fn sealing_twice_panics() {
        let streaming = ShardedCpgBuilder::new();
        streaming.ingest_batch(lock_heavy_sequences(1).remove(0));
        streaming.seal();
        streaming.seal();
    }

    /// The sealed graph, the snapshot taken halfway through ingest and every
    /// file of the retained spill image (name → bytes) of one build:
    /// `lock_heavy_sequences(6, 4000, 16, 16)` delivered round-robin into 8
    /// stripes at threshold 8, sealed retaining. With `open`, every
    /// thread's run is opened before the first ingest, and so is the run
    /// of a seventh thread that never ingests.
    fn retained_build(open: bool) -> (String, String, BTreeMap<String, Vec<u8>>) {
        let sequences = crate::testing::lock_heavy_sequences(6, 4000, 16, 16);
        let half = sequences.iter().map(Vec::len).sum::<usize>() / 2;
        let tmp = TempDir::new("sharded-open-run");
        let settings = SpillSettings::new(8, tmp.path()).with_retain_on_seal(true);
        let streaming = ShardedCpgBuilder::with_shards_and_spill(8, Some(settings));
        if open {
            for thread in 0..=sequences.len() as u32 {
                streaming.open_run(ThreadId::new(thread));
            }
        }
        let (mut ingested, mut snapshot) = (0, String::new());
        crate::testing::ingest_round_robin(&streaming, sequences, |builder| {
            ingested += 1;
            if ingested == half {
                snapshot = format!("{:?}", builder.snapshot());
            }
        });
        let sealed = format!("{:?}", streaming.seal());
        let files = std::fs::read_dir(tmp.path())
            .expect("a retained image")
            .map(|entry| {
                let path = entry.expect("a directory entry").path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).expect("a readable file"))
            })
            .collect();
        (sealed, snapshot, files)
    }

    #[test]
    fn opened_runs_change_no_byte_of_the_build() {
        let (sealed, snapshot, files) = retained_build(false);
        let (opened_sealed, opened_snapshot, opened_files) = retained_build(true);
        assert!(!snapshot.is_empty());
        assert!(opened_sealed == sealed, "the sealed graph differs");
        assert!(opened_snapshot == snapshot, "the halfway snapshot differs");
        assert!(
            files.contains_key(crate::spill::MANIFEST_FILE),
            "{:?}",
            files.keys()
        );
        assert!(files.len() > 8, "segments rolled: {:?}", files.keys());
        assert_eq!(
            opened_files.keys().collect::<Vec<_>>(),
            files.keys().collect::<Vec<_>>()
        );
        for (name, bytes) in &files {
            assert!(opened_files[name] == *bytes, "{name} differs");
        }
    }

    #[test]
    fn opening_a_run_twice_does_nothing() {
        let sequence = lock_heavy_sequences(1).remove(0);
        let reference = batch_build(std::slice::from_ref(&sequence));
        let thread = sequence[0].id.thread;
        let streaming = ShardedCpgBuilder::new();
        streaming.open_run(thread);
        streaming.open_run(thread);
        assert!(streaming.gather().is_empty());
        let (head, tail) = sequence.split_at(5);
        streaming.ingest_batch(head.to_vec());
        // The run keeps its nodes: the next ingest continues at α 5.
        streaming.open_run(thread);
        streaming.ingest_batch(tail.to_vec());
        let sealed = streaming.seal();
        assert!(sealed.nodes().eq(reference.nodes()));
        assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&reference));
    }

    #[test]
    #[should_panic(expected = "sealed ShardedCpgBuilder")]
    fn opening_a_run_after_the_seal_panics() {
        let streaming = ShardedCpgBuilder::new();
        streaming.ingest_batch(lock_heavy_sequences(1).remove(0));
        streaming.seal();
        streaming.open_run(ThreadId::new(1));
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

    /// The clock rule holds across a spill: the damaged sub-computation
    /// arrives when its thread's live run is empty, and is checked against
    /// the clock of the last spilled one.
    #[test]
    #[should_panic(expected = "goes backwards")]
    fn a_clock_that_goes_backwards_is_refused_after_a_spill() {
        let tmp = TempDir::new("sharded-test");
        let mut sequence = lock_heavy_sequences(1).remove(0);
        sequence[4].clock = VectorClock::new();
        let streaming =
            ShardedCpgBuilder::with_shards_and_spill(1, Some(spill_settings(2, tmp.path())));
        for sub in sequence {
            let alpha = sub.id.alpha;
            streaming.ingest(sub);
            if alpha == 3 {
                assert_eq!(streaming.stats().spilled_subs, 4, "nothing left live");
            }
        }
    }

    fn spill_settings(threshold: usize, dir: &Path) -> SpillSettings {
        SpillSettings {
            // Small segments so the tests exercise segment rolling too.
            segment_bytes: 512,
            ..SpillSettings::new(threshold, dir)
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
    fn gather_faults_spilled_prefixes_back_in() {
        let sequences = lock_heavy_sequences(2);
        let expected = sequences.concat();
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
        // The gathered store holds every sub-computation from α = 0, in
        // (thread, α) order, with spilled nodes transparently faulted back in.
        assert_eq!(streaming.gather(), expected);
    }

    #[test]
    fn gather_survives_a_vanished_segment() {
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
        // The thread whose prefix is gone is left out; the other shard's
        // thread is complete from α = 0.
        let nodes = streaming.gather();
        assert_eq!(nodes, sequences[1]);
        assert_eq!(streaming.stats().spill_fallbacks, 1);
        // The seal degrades the same way instead of panicking.
        let sealed = streaming.seal();
        assert!(sealed.node_count() < sequences.iter().map(Vec::len).sum());
    }

    #[test]
    fn seal_over_a_lost_prefix_is_the_consistent_cut() {
        // The vanished-segment setup at threshold 4: thread 0 keeps a live
        // suffix beyond its lost prefix, and thread 1's clocks reference
        // the lost work. The seal must not keep either as it stands.
        let sequences = lock_heavy_sequences(2);
        let total: usize = sequences.iter().map(Vec::len).sum();
        let tmp = TempDir::new("sharded-spill");
        let streaming =
            ShardedCpgBuilder::with_shards_and_spill(2, Some(spill_settings(4, tmp.path())));
        for seq in sequences {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        let dir = streaming.spill_directory().expect("spilling").to_path_buf();
        std::fs::remove_file(dir.join(crate::spill::segment_file_name(0, 0))).unwrap();
        let view = Snapshot::of(streaming.gather());
        let sealed = streaming.seal();
        // The sealed graph is the live view's consistent cut, node for node
        // and edge for edge.
        assert!(sealed.nodes().eq(view.cpg.nodes()));
        assert_eq!(edge_fingerprint(&sealed), edge_fingerprint(&view.cpg));
        assert!(sealed.node_count() < total);
        assert!(sealed.validate().is_ok());
        // Every thread's run starts at α = 0 and is contiguous.
        for thread in sealed.threads() {
            let run = sealed.thread_sequence(thread);
            assert!(
                run.iter().enumerate().all(|(i, id)| id.alpha == i as u64),
                "{thread}: {run:?}"
            );
        }
        let stats = streaming.last_sealed_stats().expect("sealed");
        assert!(stats.spill_fallbacks > 0, "{stats:?}");
    }

    #[test]
    fn a_failed_round_leaves_the_shard_untouched() {
        // All-or-nothing: a round whose write fails on every attempt (each
        // one part-way through) detaches nothing, and stops the store.
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
        assert!(guard.spill.is_some(), "the store is kept for the seal");
        assert!(guard.stopped, "and takes no further round");
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
    fn spill_write_failure_falls_back_to_memory_without_loss() {
        let sequences = lock_heavy_sequences(3);
        let reference = batch_build(&sequences);

        // Fail from the very first spill write, and after letting a few
        // writes land first: each stripe's store stops, the rounds it
        // committed stay on disk, the rest stays resident, and the seal
        // reads both into a complete graph.
        for fail_at in [1u64, 10] {
            let tmp = TempDir::new("sharded-spill");
            let settings = SpillSettings {
                fail_write_at: fail_at,
                ..spill_settings(1, tmp.path())
            };
            let streaming = ShardedCpgBuilder::with_shards_and_spill(2, Some(settings));
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
            if fail_at > 1 {
                // The prefix written before the failure is still counted.
                assert!(stats.spilled_subs > 0, "fail_at={fail_at}: {stats:?}");
            }
        }
    }

    #[test]
    fn an_unsealed_builder_leaves_a_recoverable_image() {
        // A builder dropped without a seal — a run whose app panicked —
        // deletes nothing: every segment its manifest names is still there.
        let sequences = lock_heavy_sequences(4);
        let tmp = TempDir::new("sharded-spill");
        let streaming =
            ShardedCpgBuilder::with_shards_and_spill(2, Some(spill_settings(1, tmp.path())));
        for seq in sequences.clone() {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        assert!(streaming.stats().spilled_subs > 0);
        let dir = streaming.spill_directory().expect("spilling").to_path_buf();
        drop(streaming);

        let recovery = crate::recover::recover_session(&dir).expect("recovery I/O");
        let report = &recovery.report;
        assert!(
            report.manifest_found && !report.manifest_clean,
            "{report:?}"
        );
        assert_eq!(report.missing_segments, 0, "{report:?}");
        assert!(!report.lost_vouched(), "{report:?}");
        assert!(report.recovered_nodes > 0, "{report:?}");
        // What came back is the manifested prefix, node for node.
        for node in recovery.cpg.nodes() {
            let thread = node.id.thread.index();
            assert_eq!(&sequences[thread][node.id.alpha as usize], node);
        }
    }

    #[test]
    fn a_retaining_fallback_keeps_the_segments_its_manifest_names() {
        // A write failure after some rounds landed: the shard's store
        // stops, the session retains its spill image, and the manifest
        // published before the failure names those rounds' segments.
        let sequences = lock_heavy_sequences(3);
        let tmp = TempDir::new("sharded-spill");
        let settings = SpillSettings {
            fail_write_at: 30,
            ..spill_settings(1, tmp.path()).with_retain_on_seal(true)
        };
        let streaming = ShardedCpgBuilder::with_shards_and_spill(2, Some(settings));
        let dir = streaming.spill_directory().expect("spilling").to_path_buf();
        for seq in sequences {
            for sub in seq {
                streaming.ingest(sub);
            }
        }
        let sealed = streaming.seal();
        let stats = streaming.last_sealed_stats().expect("sealed");
        assert!(stats.spill_fallbacks > 0, "{stats:?}");
        assert!(stats.spill_bytes > 0, "{stats:?}");
        // The kept image is recovery's: the sealed builder shows nothing.
        assert_eq!(streaming.snapshot().cpg.node_count(), 0);

        let recovery = crate::recover::recover_session(&dir).expect("retained image");
        let report = &recovery.report;
        assert!(report.manifest_found);
        assert!(!report.manifest_clean, "a fallback leaves it unclean");
        assert!(!report.lost_vouched(), "{report:?}");
        assert_eq!(report.missing_segments, 0, "{report:?}");
        assert!(report.recovered_nodes > 0, "{report:?}");
        // Every node the manifest vouched for came back as it was sealed.
        for node in recovery.cpg.nodes() {
            assert_eq!(sealed.node(node.id), Some(node));
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
    fn gather_exposes_live_view() {
        let sequences = lock_heavy_sequences(2);
        let streaming = ShardedCpgBuilder::with_shards(2);
        let mut expected = 0usize;
        for seq in sequences {
            for sub in seq {
                streaming.ingest(sub);
                expected += 1;
            }
        }
        assert_eq!(streaming.gather().len(), expected);
        assert_eq!(streaming.stats().ingested, expected as u64);
    }
}
