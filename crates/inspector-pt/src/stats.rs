//! Aggregate PT statistics, used by the overhead breakdown (Figure 6) and the
//! space-overhead table (Figure 9).

use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Per-thread (or aggregated) PT tracing statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PtStats {
    /// Branch events recorded (conditional + indirect + returns).
    pub branches: u64,
    /// Conditional branches (TNT bits).
    pub conditional_branches: u64,
    /// Packet bytes produced by the encoder.
    pub trace_bytes: u64,
    /// Bytes lost to AUX overflow (full-trace mode).
    pub bytes_lost: u64,
    /// Distinct trace gaps.
    pub gaps: u64,
    /// Wall-clock time spent encoding packets and writing the AUX buffer
    /// (the "OS support for Intel PT" share of the overhead breakdown).
    ///
    /// A sampled estimate: `ThreadTrace::record` times one event in 64 —
    /// net of the clock read itself — and adds it scaled (1-in-64 sample,
    /// scaled); only the periodic in-`record` flush is timed exactly.
    /// Explicit `flush`/`finish` calls are the caller's to time.
    #[serde(with = "duration_nanos")]
    pub encode_time: Duration,
}

impl PtStats {
    /// Merges another thread's statistics into this one.
    pub fn merge(&mut self, other: &PtStats) {
        self.branches += other.branches;
        self.conditional_branches += other.conditional_branches;
        self.trace_bytes += other.trace_bytes;
        self.bytes_lost += other.bytes_lost;
        self.gaps += other.gaps;
        self.encode_time += other.encode_time;
    }

    /// Average packet bytes per branch (a measure of PT's compression).
    pub fn bytes_per_branch(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.trace_bytes as f64 / self.branches as f64
        }
    }
}

// The offline serde stand-in's derives ignore field adapters, leaving these
// functions unreferenced; they are the real wire format once the actual
// serde is vendored.
#[allow(dead_code)]
mod duration_nanos {
    use std::time::Duration;

    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        (d.as_nanos() as u64).serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        Ok(Duration::from_nanos(u64::deserialize(d)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = PtStats {
            branches: 10,
            trace_bytes: 100,
            encode_time: Duration::from_micros(3),
            ..PtStats::default()
        };
        let b = PtStats {
            branches: 5,
            conditional_branches: 4,
            bytes_lost: 7,
            gaps: 1,
            trace_bytes: 50,
            encode_time: Duration::from_micros(2),
        };
        a.merge(&b);
        assert_eq!(a.branches, 15);
        assert_eq!(a.conditional_branches, 4);
        assert_eq!(a.trace_bytes, 150);
        assert_eq!(a.bytes_lost, 7);
        assert_eq!(a.gaps, 1);
        assert_eq!(a.encode_time, Duration::from_micros(5));
        assert!((a.bytes_per_branch() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn bytes_per_branch_handles_zero() {
        assert_eq!(PtStats::default().bytes_per_branch(), 0.0);
    }
}
