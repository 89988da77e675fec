//! Exact work counters: heap allocations counted by a wrapping global
//! allocator, per thread, over two hot paths.
//!
//! * The synchronization boundary: allocations and bytes the *application
//!   thread* pays per `sync_boundary` around a `reverse_index`-shaped loop.
//!   The boundary path is supposed to be allocation-free apart from a
//!   branch log too long to sit inline (see `inspector-runtime/src/ctx.rs`).
//!   Before the boundary stopped allocating its page sets, clocks and lane
//!   messages, this loop read 5.09 allocations and 880 bytes per boundary;
//!   with an exact-size 16-byte-per-branch log per sub-computation that
//!   branched, 0.588 and 75.8. Its six branches now fit inside the
//!   sub-computation: the loop reads 0.088 allocations per boundary with
//!   six branches, with none and with 40, and 0.588 with 41.
//! * PT decoding: neither the packet grammar nor the streaming decoder
//!   allocates, with or without an event sink: the streaming decoder
//!   decodes each chunk in place and carries a cut packet in a fixed
//!   array. Before TNT bits were packed into one word, every TNT packet
//!   allocated; before decoding in place, the carry buffer did.
//!
//! Timings on a shared box cannot pin either; a count can: it is the same
//! on every runner, so one extra allocation per boundary or per packet
//! fails here. Counts are kept per thread, so the two tests cannot see each
//! other's allocations when the harness runs them in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

use inspector::prelude::*;
use inspector::pt::branch::BranchEvent;
use inspector::pt::decode::{packet_events, PacketDecoder};
use inspector::pt::encode::PacketEncoder;
use inspector::pt::stream::StreamingDecoder;

/// Allocations and bytes requested by one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Allocs {
    allocations: u64,
    bytes: u64,
}

impl Allocs {
    fn add(&mut self, other: Allocs) {
        self.allocations += other.allocations;
        self.bytes += other.bytes;
    }
}

thread_local! {
    /// What this thread allocated while armed by [`counted`]; `None` while
    /// disarmed. Ingest workers and the test harness never arm it.
    static COUNTED: Cell<Option<Allocs>> = const { Cell::new(None) };
}

/// `System`, counting what armed threads allocate.
struct CountingAllocator;

impl CountingAllocator {
    fn note(bytes: usize) {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down.
        let _ = COUNTED.try_with(|counted| {
            if let Some(mut allocs) = counted.get() {
                allocs.add(Allocs {
                    allocations: 1,
                    bytes: bytes as u64,
                });
                counted.set(Some(allocs));
            }
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting in between touches only a
// `const`-initialised, destructor-free thread-local, which neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr` and `layout` describe a live block of this allocator,
        // i.e. of `System`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with the calling thread's allocations counted.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Allocs) {
    COUNTED.set(Some(Allocs::default()));
    let result = f();
    let allocs = COUNTED.replace(None).expect("armed above");
    (result, allocs)
}

const THREADS: u64 = 2;
const ITERATIONS: u64 = 20_000;

#[test]
fn a_boundary_costs_the_app_thread_at_most_0_15_allocations() {
    let session = InspectorSession::new(SessionConfig::inspector().with_ingest_threads(1));
    let heads = session.map_region("heads", 8 * 64).base();
    let lock = Arc::new(InspMutex::new());
    let total = Arc::new(Mutex::new(Allocs::default()));
    let report = session.run(|ctx| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let total = Arc::clone(&total);
                ctx.spawn(move |ctx| {
                    ctx.set_pc(0x49_0000);
                    // One `reverse_index` link per iteration: scan a word
                    // (branches), allocate and fill a 16-byte node, then
                    // push it onto a bucket under the lock.
                    let ((), allocs) = counted(|| {
                        for i in 0..ITERATIONS {
                            for bit in 0..6 {
                                ctx.branch((i >> bit) & 1 == 0);
                            }
                            let node = ctx.alloc(16);
                            ctx.write_u64(node, i);
                            lock.lock(ctx);
                            let head_addr = heads.add((i % 64) * 8);
                            let head = ctx.read_u64(head_addr);
                            ctx.write_u64(node.add(8), head);
                            ctx.write_u64(head_addr, node.raw());
                            lock.unlock(ctx);
                        }
                    });
                    total.lock().expect("no counting thread panics").add(allocs);
                })
            })
            .collect();
        for worker in workers {
            ctx.join(worker);
        }
    });
    assert!(!report.stats.degraded);
    assert!(report.cpg.validate().is_ok());

    // Two boundaries per iteration: the lock's acquire and its release.
    let boundaries = (THREADS * ITERATIONS * 2) as f64;
    let total = *total.lock().expect("no counting thread panics");
    let allocations = total.allocations as f64 / boundaries;
    let bytes = total.bytes as f64 / boundaries;
    println!("per boundary on the app thread: {allocations:.3} allocations, {bytes:.1} bytes");
    assert!(
        allocations <= 0.15,
        "{allocations:.3} allocations per boundary (limit 0.15)"
    );
    assert!(bytes <= 40.0, "{bytes:.1} bytes per boundary (limit 40)");
}

/// A seeded two-kind branch stream — mostly conditionals, one indirect
/// branch in eight to nearby targets — encoded until it holds at least
/// `len` bytes.
fn seeded_pt_log(len: usize) -> Vec<u8> {
    let mut enc = PacketEncoder::new();
    enc.begin(0x40_0000);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    while enc.bytes() < len {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        enc.branch(&if state & 7 == 0 {
            BranchEvent::Indirect {
                target: 0x40_0000 + (state >> 40) % 0x4000,
            }
        } else {
            BranchEvent::Conditional {
                taken: state & 0x100 != 0,
            }
        });
    }
    enc.finish()
}

/// The allocations of one pass of `decode` over `bytes`; the events it
/// reports must match the batch decoder's count.
fn decode_allocs(bytes: &[u8], decode: fn(&[u8]) -> u64) -> Allocs {
    let (events, allocs) = counted(|| decode(bytes));
    assert_eq!(
        events,
        batch(bytes),
        "event count over {} bytes",
        bytes.len()
    );
    allocs
}

/// The batch grammar and the packet→event mapping, events counted.
fn batch(bytes: &[u8]) -> u64 {
    let mut dec = PacketDecoder::new(bytes);
    let mut events = 0;
    while let Some(packet) = dec.next_packet().expect("a well-formed prefix") {
        packet_events(packet, &mut |_| events += 1);
    }
    events
}

/// The streaming decoder fed AUX-sized 4 KiB pushes, counters only.
fn push(bytes: &[u8]) -> u64 {
    let mut dec = StreamingDecoder::counting_only();
    for chunk in bytes.chunks(4096) {
        dec.push(chunk);
    }
    dec.finish();
    dec.stats().events
}

/// The streaming decoder fed 4 KiB pushes, events counted by a sink.
fn push_with(bytes: &[u8]) -> u64 {
    let mut dec = StreamingDecoder::counting_only();
    let mut events = 0;
    let mut sink = |item: Result<BranchEvent, _>| events += u64::from(item.is_ok());
    for chunk in bytes.chunks(4096) {
        dec.push_with(chunk, &mut sink);
    }
    dec.finish_with(&mut sink);
    events
}

#[test]
fn pt_decoding_allocates_a_constant_independent_of_stream_length() {
    const MIB: usize = 1 << 20;
    let long = seeded_pt_log(4 * MIB);
    let short = seeded_pt_log(MIB);

    let grammar = decode_allocs(&long, batch);
    assert_eq!(grammar, Allocs::default(), "next_packet + packet_events");

    for (name, decode) in [("push", push as fn(&[u8]) -> u64), ("push_with", push_with)] {
        let short = decode_allocs(&short, decode);
        let long = decode_allocs(&long, decode);
        println!("{name}: 1 MiB {short:?}, 4 MiB {long:?}");
        assert_eq!(
            short.allocations, long.allocations,
            "{name}: allocations must not grow with the stream"
        );
        assert_eq!(long, Allocs::default(), "{name} decodes in place");
    }
}
