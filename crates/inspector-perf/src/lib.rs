//! # inspector-perf
//!
//! The log-size / bandwidth / compressibility accounting behind the
//! space-overhead table (Figure 9), and a software model of the Linux
//! `perf` plumbing that INSPECTOR uses to expose Intel PT to user space
//! (paper §V-B).
//!
//! The runtime uses only the accounting: it keeps each thread's PT log
//! itself, by thread id, and builds the run's [`SpaceReport`] from their
//! concatenation.
//!
//! * [`bandwidth::SpaceReport`] — log size, compression ratio and
//!   bandwidth of one run;
//! * [`compress::lz_compress`] — a self-contained LZ77 compressor used only
//!   to *measure* how compressible the provenance log is (the paper uses
//!   lz4 for the same purpose).
//!
//! The real system drives `perf record` with a PT PMU event restricted to a
//! control group that contains all of the application's thread-processes,
//! dumps the AUX data to `tmpfs`, and post-processes it with `perf script`.
//! That session model stays for the benchmark's replay, which times it:
//!
//! * [`cgroup::Cgroup`] — tracks which process ids belong to the traced
//!   application (children inherit membership, exactly like cgroups);
//! * [`session::TraceSession`] — accepts [`event::PerfEvent`]s, filters them
//!   by cgroup, and stores per-process AUX (PT) payloads.

pub mod bandwidth;
pub mod cgroup;
pub mod compress;
pub mod event;
pub mod session;

pub use bandwidth::SpaceReport;
pub use cgroup::{Cgroup, ProcessId};
pub use compress::{lz_compress, lz_decompress};
pub use event::PerfEvent;
pub use session::TraceSession;
