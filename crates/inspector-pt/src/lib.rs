//! # inspector-pt
//!
//! A software model of **Intel Processor Trace (PT)** — the hardware
//! control-flow tracing facility INSPECTOR uses to record control
//! dependencies (paper §V-B).
//!
//! Real Intel PT logs retired branches into highly compressed packets:
//! conditional branches become single **TNT** bits, indirect branches and
//! returns become **TIP** packets carrying a (last-IP-compressed) target
//! address, and the stream is periodically re-synchronised with **PSB**
//! packets. The packets are written by the CPU into the *AUX area* ring
//! buffer exposed through the Linux `perf` interface; if the consumer cannot
//! keep up the stream has gaps (an **OVF** packet), after which IP
//! compression restarts from a zero context.
//!
//! This crate reproduces that pipeline in software with a byte-exact packet
//! format: [`encode::PacketEncoder`] turns a stream of [`branch::BranchEvent`]s
//! into packet bytes, [`aux::AuxBuffer`] models the full-trace ring buffer,
//! and [`decode::PacketDecoder`] turns captured bytes back into branch
//! events.
//! The encoder/decoder pair is what gives the evaluation its realistic trace
//! volumes, bandwidths and compression ratios (Figures 6 and 9).
//!
//! # One grammar, one carrier
//!
//! Decoding is two layers over one packet→event mapping
//! ([`decode::packet_events`]):
//!
//! * [`decode::PacketDecoder`] is the **grammar**: `next_packet` parses one
//!   packet from a complete byte slice, fails fast
//!   ([`decode::DecodeError`]) and is the semantic reference every other
//!   decode result is compared against. A [`Packet`] is `Copy` and a TNT
//!   packet's branches are one packed word ([`packet::TntBits`]), so
//!   parsing allocates nothing. It is the only code that knows how long a
//!   packet is.
//! * [`stream::StreamingDecoder`] is the **carrier** over it — a carry
//!   buffer around `PacketDecoder::next_packet` — and the one decoder the
//!   runtime's post-run check and post-mortem log decoding run. It has one
//!   mode: every push decodes all complete packets and adds to its
//!   counters once per packet, from one per-packet function beside
//!   `packet_events`; a caller that wants the events passes a sink
//!   ([`stream::StreamingDecoder::push_with`]), and the counters are the
//!   same either way. It accepts AUX chunks incrementally and upholds two
//!   contracts:
//!
//!   1. **Chunk boundaries are invisible.** A packet cut by a chunk
//!      boundary is carried (deferred), never errored; over *any* chunking
//!      of a well-formed stream the sink receives byte-for-byte the events
//!      the batch decoder produces on the concatenated bytes. A truncated
//!      tail only becomes an error at [`stream::StreamingDecoder::finish`].
//!   2. **Corruption costs at most one PSB window.** An undecodable header
//!      surfaces exactly one in-band [`decode::DecodeError::UnknownPacket`];
//!      the decoder then discards bytes until the next PSB pattern (where
//!      the IP context is reset by construction) and resumes losing only
//!      the events between the corruption point and that PSB.
//!
//! Producers never hand out a chunk that ends mid-packet, and no second
//! grammar checks it, because two facts make it so by construction:
//!
//! 1. [`encode::PacketEncoder::drain_with`] flushes pending TNT bits before
//!    it lends its output, so the encoder only ever hands out whole
//!    packets;
//! 2. [`aux::AuxBuffer::produce`] appends or drops each such output whole,
//!    straight onto the thread's log, and writes the OVF marker of a gap
//!    as one 2-byte unit.
//!
//! So every chunk [`trace::ThreadTrace::drain_collected`] returns decodes
//! on its own, and deferral only triggers for consumers that cut a log at
//! arbitrary byte offsets (post-mortem decoding in fixed-size chunks).
//!
//! ```
//! use inspector_pt::branch::BranchEvent;
//! use inspector_pt::encode::PacketEncoder;
//! use inspector_pt::decode::PacketDecoder;
//!
//! let mut enc = PacketEncoder::new();
//! enc.begin(0x4000);
//! enc.branch(&BranchEvent::Conditional { taken: true });
//! enc.branch(&BranchEvent::Indirect { target: 0x4100 });
//! let bytes = enc.finish();
//!
//! let events = PacketDecoder::new(&bytes).decode_events().unwrap();
//! assert!(events.contains(&BranchEvent::Conditional { taken: true }));
//! assert!(events.contains(&BranchEvent::Indirect { target: 0x4100 }));
//! ```

pub mod aux;
pub mod branch;
pub mod decode;
pub mod encode;
pub mod packet;
pub mod stats;
pub mod stream;
pub mod trace;

pub use aux::AuxBuffer;
pub use branch::BranchEvent;
pub use decode::{DecodeError, PacketDecoder};
pub use encode::PacketEncoder;
pub use packet::Packet;
pub use stats::PtStats;
pub use stream::{StreamStats, StreamingDecoder};
pub use trace::ThreadTrace;
