//! Space and bandwidth accounting for the provenance log (Figure 9).

use std::time::Duration;

use crate::compress::{compression_ratio, lz_compress};

/// Space-overhead report for one application run: the columns of the paper's
/// Figure 9 table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpaceReport {
    /// Raw provenance log size in bytes: the threads' concatenated PT
    /// packet streams.
    pub log_bytes: u64,
    /// Size after LZ compression.
    pub compressed_bytes: u64,
    /// `log_bytes / compressed_bytes`.
    pub compression_ratio: f64,
    /// Log production bandwidth in bytes per second of traced execution.
    pub bandwidth_bytes_per_sec: f64,
    /// Branch instructions traced per second of traced execution.
    pub branches_per_sec: f64,
    /// Total branch instructions traced.
    pub branches: u64,
}

impl SpaceReport {
    /// Builds a report by compressing `log` and relating it to the traced
    /// execution time.
    pub fn from_log(log: &[u8], branches: u64, elapsed: Duration) -> Self {
        let compressed = lz_compress(log);
        Self::from_sizes(log.len() as u64, compressed.len() as u64, branches, elapsed)
    }

    fn from_sizes(log_bytes: u64, compressed_bytes: u64, branches: u64, elapsed: Duration) -> Self {
        let secs = elapsed.as_secs_f64().max(1e-9);
        SpaceReport {
            log_bytes,
            compressed_bytes,
            compression_ratio: compression_ratio(log_bytes as usize, compressed_bytes as usize),
            bandwidth_bytes_per_sec: log_bytes as f64 / secs,
            branches_per_sec: branches as f64 / secs,
            branches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_from_log_computes_ratio_and_bandwidth() {
        let log: Vec<u8> = std::iter::repeat_n(0xAAu8, 1 << 20).collect();
        let report = SpaceReport::from_log(&log, 500_000, Duration::from_secs(2));
        assert_eq!(report.log_bytes, 1 << 20);
        assert!(report.compression_ratio > 10.0, "constant data compresses");
        assert!((report.bandwidth_bytes_per_sec - f64::from(1 << 19)).abs() < 1e-6);
        assert!((report.branches_per_sec - 250_000.0).abs() < 1e-6);
    }

    #[test]
    fn zero_elapsed_does_not_divide_by_zero() {
        let report = SpaceReport::from_sizes(100, 50, 10, Duration::ZERO);
        assert!(report.bandwidth_bytes_per_sec.is_finite());
        assert_eq!(report.compression_ratio, 2.0);
    }
}
