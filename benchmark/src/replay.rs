//! The traced pass over the app workloads: each layer's public functions
//! replayed, one layer at a time and on one thread, over the artefacts of
//! the traced run itself — the per-thread sequences, read/write sets and
//! branch records stored in `report.cpg`. Every call into a layer is inside
//! a span; the per-layer numbers are span self times over the counts read
//! at the same boundary.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use inspector_core::event::BranchKind;
use inspector_core::graph::{Cpg, CpgBuilder};
use inspector_core::sharded::{IngestStats, ShardedCpgBuilder};
use inspector_core::spill::{SpillDurability, SpillSettings};
use inspector_core::subcomputation::SubComputation;
use inspector_core::testing::announce_all;
use inspector_mem::addr::VirtAddr;
use inspector_mem::alloc::HeapAllocator;
use inspector_mem::commit::diff_page;
use inspector_mem::shared::SharedImage;
use inspector_mem::thread_mem::{ThreadMemory, TrackingMode};
use inspector_perf::cgroup::{Cgroup, ProcessId};
use inspector_perf::compress::lz_compress;
use inspector_perf::event::PerfEvent;
use inspector_perf::session::TraceSession;
use inspector_pt::branch::BranchEvent;
use inspector_pt::trace::ThreadTrace;

use crate::apps::{Pair, SPILL_THRESHOLD};
use crate::metrics::{Checks, Layers};
use crate::span::Tracer;

const PAGE: usize = 4096;
/// Sub-computations per ingest batch: `SessionConfig::ingest_batch`'s
/// default, the α-run a lane message carries.
const INGEST_BATCH: usize = 64;
/// Lock stripes of the replay builders: `SessionConfig::cpg_shards`'s
/// default.
const SHARDS: usize = 8;

const MIB: f64 = 1024.0 * 1024.0;
const GIB: f64 = MIB * 1024.0;

/// Totals the replays of one traced run accumulate across its apps; the
/// denominators of the per-layer ratios.
#[derive(Debug, Default)]
pub struct Replay {
    faults: u64,
    pages_examined: u64,
    branches: u64,
    aux_bytes: u64,
    subs: u64,
    log_bytes: u64,
    compressed_bytes: u64,
    spilled_replay_subs: u64,
    spill_bytes: u64,
    recovered_subs: u64,
    threads: u64,
    spawn_secs: f64,
}

/// The per-thread execution sequences of a sealed graph, cloned out of its
/// node store (sorted by thread, then α).
pub fn sequences_of(cpg: &Cpg) -> Vec<Vec<SubComputation>> {
    let mut sequences: Vec<Vec<SubComputation>> = Vec::new();
    for node in cpg.nodes() {
        match sequences.last_mut() {
            Some(seq) if seq[0].id.thread == node.id.thread => seq.push(node.clone()),
            _ => sequences.push(vec![node.clone()]),
        }
    }
    sequences
}

/// Node- and edge-set equality of two graphs.
pub fn same_graph(a: &Cpg, b: &Cpg) -> bool {
    let edge_keys = |g: &Cpg| {
        let mut keys: Vec<_> = g
            .edges()
            .map(|e| (e.src, e.dst, e.kind, e.object, e.pages.clone()))
            .collect();
        keys.sort();
        keys
    };
    a.node_count() == b.node_count()
        && a.edge_count() == b.edge_count()
        && a.nodes().eq(b.nodes())
        && edge_keys(a) == edge_keys(b)
}

impl Replay {
    /// Replays every layer over one traced pair and folds its counts into
    /// `layers`. `spill_dir` is set for the spilling workload.
    pub fn pair(
        &mut self,
        tracer: &mut Tracer,
        layers: &mut Layers,
        checks: &mut Checks,
        pair: &Pair,
        spill_dir: Option<&Path>,
    ) {
        let (Some(native), Some(tracked)) = (&pair.native.value, &pair.tracked.value) else {
            return;
        };
        let app = pair.app;
        let report = &tracked.report;
        let stats = &report.stats;
        let graph = report.cpg.stats();

        // Program-made counts, read at the run's own boundary.
        layers.add("mem.faults", stats.mem.total_faults() as f64);
        layers.add("mem.pages_copied", stats.mem.pages_copied as f64);
        layers.add("mem.bytes_committed", stats.mem.bytes_committed as f64);
        layers.add("mem.commits", stats.mem.commits as f64);
        layers.add("pt.branches", stats.pt.branches as f64);
        layers.add("pt.trace_bytes", stats.pt.trace_bytes as f64);
        layers.add("perf.log_bytes", report.space.log_bytes as f64);
        self.log_bytes += report.space.log_bytes;
        self.compressed_bytes += report.space.compressed_bytes;
        layers.add("core.subs", graph.nodes as f64);
        layers.add("core.edges.control", graph.control_edges as f64);
        layers.add("core.edges.sync", graph.sync_edges as f64);
        layers.add("core.edges.data", graph.data_edges as f64);
        layers.add("core.index_entries_live", stats.index_entries_live as f64);
        layers.add("core.index_entries_gcd", stats.index_entries_gcd as f64);
        layers.add("runtime.sync_ops", stats.recorder.sync_ops as f64);
        layers.add("runtime.app_wall_s", stats.wall_time.as_secs_f64());
        let gen_verify = pair.native.secs - native.report.stats.wall_time.as_secs_f64();
        layers.add("workloads.gen_verify_s", gen_verify);
        let tail = pair.tracked.secs - stats.wall_time.as_secs_f64() - gen_verify;
        layers.add("runtime.tail_s", tail);
        self.spawn_secs += stats.spawn_time.as_secs_f64();
        self.threads += stats.threads as u64;

        let sequences = sequences_of(&report.cpg);
        self.subs += graph.nodes as u64;

        let mem_busiest = self.mem(tracer, &sequences);
        let (pt_busiest, chunks) = self.pt(tracer, &sequences);
        self.perf(tracer, chunks);

        let oracle = {
            let mut builder = CpgBuilder::new();
            for seq in &sequences {
                builder.add_thread(seq.clone());
            }
            tracer.span("core.batch_build", || builder.build())
        };
        checks.check(same_graph(&report.cpg, &oracle), || {
            format!("{app}: streamed graph differs from the batch rebuild of its own sequences")
        });
        let valid = tracer.span("core.validate", || report.cpg.validate());
        checks.check(valid.is_ok(), || {
            format!("{app}: graph is invalid: {valid:?}")
        });

        let (streamed, ingest, seal_secs) =
            ingest_and_seal(tracer, &sequences, None, "core.ingest", "core.seal");
        checks.check(same_graph(&streamed, &oracle), || {
            format!("{app}: replayed ingest differs from the batch rebuild")
        });
        let at_seal = ingest.sync_resolved_at_seal + ingest.data_resolved_at_seal;
        layers.add("core.resolved_at_seal", at_seal as f64);

        let explained = mem_busiest + pt_busiest + seal_secs;
        layers.add(
            "runtime.unattributed_s",
            pair.tracked.secs - pair.native.secs - explained,
        );

        let Some(dir) = spill_dir else { return };
        for (durability, ingest_span, seal_span) in [
            (
                SpillDurability::None,
                "core.spill_ingest.none",
                "core.spill_seal",
            ),
            (
                SpillDurability::Flush,
                "core.spill_ingest.flush",
                "core.spill_seal.flush",
            ),
        ] {
            let settings = SpillSettings::new(SPILL_THRESHOLD, dir.join(durability.as_str()))
                .with_durability(durability);
            let (spilled, stats, _) =
                ingest_and_seal(tracer, &sequences, Some(settings), ingest_span, seal_span);
            checks.check(
                same_graph(&spilled, &oracle) && stats.spill_fallbacks == 0,
                || {
                    format!(
                        "{app}: spilled-and-sealed graph ({durability:?}) differs from unspilled"
                    )
                },
            );
            if durability == SpillDurability::None {
                self.spilled_replay_subs += stats.ingested;
                self.spill_bytes += stats.spill_bytes;
                layers.add("core.peak_resident_subs", stats.peak_resident_subs as f64);
            }
        }
        if let Some(recovery) = pair.recovery.as_ref().and_then(|r| r.value.as_ref()) {
            checks.check(
                same_graph(&recovery.cpg, &report.cpg) && !recovery.report.degraded(),
                || format!("{app}: recovered graph differs from the sealed graph"),
            );
            self.recovered_subs += recovery.report.recovered_nodes;
            let skipped = recovery.report.lost_bytes + recovery.report.unmanifested_bytes;
            layers.add("core.recover_skipped_bytes", skipped as f64);
        }
    }

    /// `inspector-mem`: every thread's read and write sets through a
    /// tracked `ThreadMemory`, committing at each sub-computation boundary.
    /// Returns the busiest thread's time.
    fn mem(&mut self, tracer: &mut Tracer, sequences: &[Vec<SubComputation>]) -> f64 {
        let image = SharedImage::shared(PAGE);
        let mut busiest: f64 = 0.0;
        for seq in sequences {
            let mut mem = ThreadMemory::new(Arc::clone(&image), TrackingMode::Tracked);
            let span = tracer.begin("mem.replay");
            for sub in seq {
                let start = Instant::now();
                for page in &sub.read_set {
                    let addr = VirtAddr::new(page.number() * PAGE as u64);
                    std::hint::black_box(mem.read_u64(addr));
                }
                for page in &sub.write_set {
                    let addr = VirtAddr::new(page.number() * PAGE as u64);
                    mem.write_u64(addr, sub.id.alpha + 1);
                }
                tracer.leaf("mem.access", start);
                let start = Instant::now();
                mem.commit();
                tracer.leaf("mem.commit", start);
            }
            busiest = busiest.max(tracer.end(span));
            let stats = mem.stats();
            self.faults += stats.total_faults();
            self.pages_examined += stats.pages_examined;
        }
        busiest
    }

    /// `inspector-pt`: every thread's recorded branches through a
    /// `ThreadTrace`, flushed and drained at each boundary as the runtime
    /// does. Returns the busiest thread's time and the drained AUX chunks
    /// per thread.
    fn pt(
        &mut self,
        tracer: &mut Tracer,
        sequences: &[Vec<SubComputation>],
    ) -> (f64, Vec<Vec<Vec<u8>>>) {
        let mut busiest: f64 = 0.0;
        let mut chunks = Vec::new();
        for (index, seq) in sequences.iter().enumerate() {
            let mut trace = ThreadTrace::new(0x40_0000 + index as u64 * 0x1000);
            let mut drained = Vec::new();
            let span = tracer.begin("pt.replay");
            for sub in seq {
                let start = Instant::now();
                for record in sub.thunks.iter().filter_map(|thunk| thunk.terminator) {
                    trace.record(match record.kind {
                        BranchKind::ConditionalTaken => BranchEvent::Conditional { taken: true },
                        BranchKind::ConditionalNotTaken => {
                            BranchEvent::Conditional { taken: false }
                        }
                        BranchKind::Indirect => BranchEvent::Indirect { target: record.ip },
                        BranchKind::Return => BranchEvent::Return { target: record.ip },
                    });
                }
                trace.flush();
                tracer.leaf("pt.encode", start);
                let chunk = trace.drain_collected();
                if !chunk.is_empty() {
                    drained.push(chunk);
                }
            }
            let start = Instant::now();
            let (tail, stats) = trace.finish();
            tracer.leaf("pt.encode", start);
            busiest = busiest.max(tracer.end(span));
            self.branches += stats.branches;
            drained.push(tail);
            chunks.push(drained);
        }
        (busiest, chunks)
    }

    /// `inspector-perf`: the drained chunks submitted as AUX events, the
    /// log assembled and compressed as report assembly does.
    fn perf(&mut self, tracer: &mut Tracer, chunks: Vec<Vec<Vec<u8>>>) {
        let session = TraceSession::new(Arc::new(Cgroup::new("benchmark")));
        session.register_root(ProcessId(0));
        let mut events = Vec::new();
        for (index, thread_chunks) in chunks.into_iter().enumerate() {
            let pid = ProcessId(index as u64);
            if index > 0 {
                session.submit(PerfEvent::Fork {
                    parent: ProcessId(0),
                    child: pid,
                });
            }
            for data in thread_chunks {
                self.aux_bytes += data.len() as u64;
                events.push(PerfEvent::Aux { pid, data });
            }
        }
        tracer.span("perf.submit", || {
            for event in events {
                session.submit(event);
            }
        });
        let log = tracer.span("perf.full_log", || session.full_log());
        std::hint::black_box(tracer.span("perf.compress", || lz_compress(&log)));
    }

    /// Turns the accumulated span self times and counts into the per-layer
    /// ratios, and runs the two `inspector-mem` micro-replays that need no
    /// run artefact.
    pub fn finish(self, tracer: &mut Tracer, layers: &mut Layers) {
        diff_and_alloc(tracer, layers);

        let tracer = &*tracer;
        let ns = |name: &str| tracer.self_secs(name) * 1e9;
        layers.set_ratio(
            "mem.access_ns_per_fault",
            ns("mem.access"),
            self.faults as f64,
        );
        layers.set_ratio(
            "mem.commit_ns_per_page",
            ns("mem.commit"),
            self.pages_examined as f64,
        );
        layers.set_ratio(
            "mem.replay_faults_match",
            self.faults as f64,
            layers.get("mem.faults"),
        );
        layers.set_ratio(
            "pt.encode_ns_per_branch",
            ns("pt.encode"),
            self.branches as f64,
        );
        let submit = tracer.self_secs("perf.submit") + tracer.self_secs("perf.full_log");
        layers.set_ratio("perf.submit_mib_per_s", self.aux_bytes as f64 / MIB, submit);
        layers.set_ratio(
            "perf.compress_mib_per_s",
            self.aux_bytes as f64 / MIB,
            tracer.self_secs("perf.compress"),
        );
        layers.set_ratio(
            "perf.compress_ratio",
            self.log_bytes as f64,
            self.compressed_bytes as f64,
        );
        let subs = self.subs as f64;
        for (metric, span) in [
            ("core.ingest_ns_per_sub", "core.ingest"),
            ("core.seal_ns_per_sub", "core.seal"),
            ("core.batch_build_ns_per_sub", "core.batch_build"),
        ] {
            layers.set_ratio(metric, ns(span), subs);
        }
        let spilled = self.spilled_replay_subs as f64;
        for (metric, span) in [
            (
                "core.spill_ingest_ns_per_sub.none",
                "core.spill_ingest.none",
            ),
            (
                "core.spill_ingest_ns_per_sub.flush",
                "core.spill_ingest.flush",
            ),
            ("core.spill_seal_ns_per_sub", "core.spill_seal"),
        ] {
            layers.set_ratio(metric, ns(span), spilled);
        }
        layers.set_ratio("core.spill_bytes_per_sub", self.spill_bytes as f64, spilled);
        // Every traced iteration recovered once; the counts are the kept
        // iteration's, so these two are per call.
        let recover = tracer.mean_self_secs("core.recover");
        layers.set("core.recover_s", recover);
        layers.set_ratio(
            "core.recover_ns_per_sub",
            recover * 1e9,
            self.recovered_subs as f64,
        );
        if recover > 0.0 {
            layers.set("runtime.spill_run_s", tracer.mean_self_secs("app.tracked"));
        }
        layers.set("core.validate_ms", tracer.self_secs("core.validate") * 1e3);
        layers.set_ratio(
            "runtime.spawn_us_per_thread",
            self.spawn_secs * 1e6,
            self.threads as f64,
        );
    }
}

/// Streams `sequences` into a fresh builder from one producer, one α-run of
/// [`INGEST_BATCH`] at a time, and seals. The runs are delivered in causal
/// order — by the sum of the first sub-computation's vector clock, which
/// grows along every happens-before edge — the order in which the run's one
/// ingest worker received them, give or take lane skew. (Round-robin over
/// the threads delivers a lock-handoff run far out of causal order, parks
/// most acquires and measures 3-4x the cost, differently on every run.)
/// Returns the graph, the build's final counters and the seal time.
fn ingest_and_seal(
    tracer: &mut Tracer,
    sequences: &[Vec<SubComputation>],
    spill: Option<SpillSettings>,
    ingest_span: &'static str,
    seal_span: &'static str,
) -> (Cpg, IngestStats, f64) {
    let builder = ShardedCpgBuilder::with_shards_and_spill(SHARDS, spill);
    announce_all(&builder, sequences);
    // Batches are cloned up front so the span times `ingest_batch` alone.
    let mut batches: Vec<Vec<SubComputation>> = sequences
        .iter()
        .flat_map(|seq| seq.chunks(INGEST_BATCH).map(<[SubComputation]>::to_vec))
        .collect();
    batches.sort_by_key(|batch| {
        let lamport: u64 = batch[0].clock.iter().map(|(_, ticks)| ticks).sum();
        (lamport, batch[0].id)
    });
    tracer.span(ingest_span, || {
        for batch in batches {
            builder.ingest_batch(batch);
        }
    });
    let span = tracer.begin(seal_span);
    let cpg = builder.seal();
    let seal_secs = tracer.end(span);
    let stats = builder
        .last_sealed_stats()
        .expect("the builder was sealed exactly once");
    (cpg, stats, seal_secs)
}

/// `commit::diff_page` over page pairs with 16 and 4096 changed bytes, and
/// `HeapAllocator::alloc` of `reverse_index`-sized nodes.
fn diff_and_alloc(tracer: &mut Tracer, layers: &mut Layers) {
    const PAIRS: usize = 20_000;
    const ALLOCS: u64 = 200_000;
    let twin = vec![0x5Au8; PAGE];
    let mut sparse = twin.clone();
    sparse[1000..1016].fill(0xA5);
    let dense = vec![0xA5u8; PAGE];
    for (metric, span, working) in [
        ("mem.diff_gib_per_s.sparse", "mem.diff.sparse", &sparse),
        ("mem.diff_gib_per_s.dense", "mem.diff.dense", &dense),
    ] {
        tracer.span(span, || {
            for _ in 0..PAIRS {
                std::hint::black_box(diff_page(
                    std::hint::black_box(&twin),
                    std::hint::black_box(working),
                ));
            }
        });
        let gib = (PAIRS * PAGE) as f64 / GIB;
        layers.set_ratio(metric, gib, tracer.self_secs(span));
    }

    let image = SharedImage::shared(PAGE);
    let heap = HeapAllocator::new(image.map_region("heap", ALLOCS * 16));
    tracer.span("mem.alloc", || {
        for _ in 0..ALLOCS {
            std::hint::black_box(heap.alloc(16).expect("the heap holds every allocation"));
        }
    });
    layers.set_ratio(
        "mem.alloc_ns",
        tracer.self_secs("mem.alloc") * 1e9,
        ALLOCS as f64,
    );
}
