//! # inspector-bench
//!
//! The experiment harness: code that regenerates every table and figure of
//! the INSPECTOR evaluation (paper §VII).
//!
//! | Paper artefact | Binary | Library entry point |
//! |---|---|---|
//! | Figure 5 — overhead vs. native for 2/4/8/16 threads | `fig5_overhead` | [`figures::figure5`] |
//! | Figure 6 — overhead breakdown at 16 threads | `fig6_breakdown` | [`figures::figure6`] |
//! | Figure 7 — page faults and fault rate (table) | `fig7_faults` | [`figures::figure7`] |
//! | Figure 8 — overhead vs. input size (S/M/L) | `fig8_scalability` | [`figures::figure8`] |
//! | Figure 9 — provenance log space overheads (table) | `fig9_space` | [`figures::figure9`] |
//!
//! Numbers are produced on a software-simulated substrate (see the
//! Architecture section of ROADMAP.md), so absolute values differ from the
//! paper's Broadwell testbed; the harness exists to reproduce the *shape*
//! of each result — which applications are outliers, what dominates their
//! overhead, how overheads scale with threads and input size, and how
//! large/compressible the logs are.

pub mod figures;
pub mod harness;
pub mod ingest_bench;

pub use harness::{measure_overhead, OverheadMeasurement};
