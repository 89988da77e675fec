//! The AUX area ring buffer.
//!
//! Intel PT writes its packet stream into the perf "AUX area", a ring buffer
//! shared with user space. INSPECTOR runs it in **full-trace mode** (paper
//! §V-B and §VI): the kernel never overwrites data user space has not
//! collected; if the consumer is too slow the *producer* drops packets and
//! the trace has gaps (an OVF packet marks the spot).
//!
//! The consumer here collects in the same call that produces: a
//! [`ThreadTrace`](crate::trace::ThreadTrace) flush offers one encoder
//! output, and what the ring accepts goes straight into the trace's log.
//! The ring is therefore empty at every [`AuxBuffer::produce`], holds no
//! bytes of its own, and its capacity bounds one flush's output.

use crate::packet::{OPC_ESCAPE, OPC_OVF};

/// Byte length of the OVF marker written when the producer resumes.
const OVF_LEN: usize = 2;

/// Loss counters of one AUX buffer: the only place a trace counts them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuxStats {
    /// Bytes dropped because they did not fit.
    pub bytes_lost: u64,
    /// Number of distinct gaps (overflow episodes).
    pub gaps: u64,
}

/// A bounded full-trace ring carrying the PT packet stream into a log.
#[derive(Debug)]
pub struct AuxBuffer {
    capacity: usize,
    stats: AuxStats,
    in_overflow: bool,
}

impl AuxBuffer {
    /// Creates a buffer of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "AUX buffer capacity must be non-zero");
        AuxBuffer {
            capacity,
            stats: AuxStats::default(),
            in_overflow: false,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Loss counters so far.
    pub fn stats(&self) -> AuxStats {
        self.stats
    }

    /// Offers packet bytes (the producer side) and appends what the ring
    /// accepts to the end of `log` (the consumer side, what `perf record`
    /// copies to disk). Returns `false` if they were dropped: they do not
    /// fit in the ring — after a gap, together with the OVF marker that
    /// must precede them. `bytes` is accepted or dropped whole, never cut,
    /// so a ring offered whole packets only ever passes on whole packets.
    pub fn produce(&mut self, bytes: &[u8], log: &mut Vec<u8>) -> bool {
        let marker = if self.in_overflow { OVF_LEN } else { 0 };
        if marker + bytes.len() > self.capacity {
            self.inject_overflow(bytes.len() as u64);
            return false;
        }
        if self.in_overflow {
            // Mark the gap before resuming, like the hardware emitting OVF
            // when it recovers.
            log.extend_from_slice(&[OPC_ESCAPE, OPC_OVF]);
            self.in_overflow = false;
        }
        log.extend_from_slice(bytes);
        true
    }

    /// Forces one overflow episode of `bytes` lost bytes, as if the
    /// producer had offered that many bytes against a full ring. The loss
    /// flows through the normal accounting (`gaps` + 1, `bytes_lost` +
    /// `bytes`) and the next successful [`produce`](Self::produce) emits a
    /// real OVF recovery marker into the log — deterministic fault
    /// injection for the degraded-decode paths.
    pub fn inject_overflow(&mut self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        if !self.in_overflow {
            self.stats.gaps += 1;
            self.in_overflow = true;
        }
        self.stats.bytes_lost += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_trace_accepts_until_capacity() {
        let mut aux = AuxBuffer::new(8);
        let mut log = vec![9];
        assert!(aux.produce(&[1, 2, 3, 4, 5, 6, 7, 8], &mut log));
        // What the log already held stays in front.
        assert_eq!(log, vec![9, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(aux.stats(), AuxStats::default());
        assert_eq!(aux.capacity(), 8);
    }

    #[test]
    fn an_output_larger_than_the_capacity_is_dropped_whole() {
        let mut aux = AuxBuffer::new(4);
        let mut log = Vec::new();
        assert!(!aux.produce(&[1, 2, 3, 4, 5], &mut log));
        assert!(log.is_empty());
        assert_eq!(aux.stats().bytes_lost, 5);
        assert_eq!(aux.stats().gaps, 1);
    }

    #[test]
    fn one_ovf_marker_precedes_the_next_accepted_output() {
        let mut aux = AuxBuffer::new(4);
        let mut log = Vec::new();
        aux.produce(&[1, 2], &mut log);
        assert!(!aux.produce(&[3, 4, 5, 6, 7], &mut log));
        assert!(aux.produce(&[8], &mut log));
        assert!(aux.produce(&[9], &mut log));
        assert_eq!(log, vec![1, 2, OPC_ESCAPE, OPC_OVF, 8, 9]);
    }

    #[test]
    fn consecutive_drops_count_as_one_gap() {
        let mut aux = AuxBuffer::new(2);
        let mut log = Vec::new();
        aux.produce(&[1, 2, 3], &mut log);
        aux.produce(&[4, 5, 6], &mut log);
        assert_eq!(aux.stats().gaps, 1);
        assert_eq!(aux.stats().bytes_lost, 6);
        assert!(log.is_empty());
    }

    #[test]
    fn resuming_never_overshoots_the_capacity() {
        // After a gap the bytes fit on their own, but not behind the 2-byte
        // OVF marker: they are dropped rather than overfilling the ring.
        let mut aux = AuxBuffer::new(4);
        let mut log = Vec::new();
        aux.produce(&[1, 2, 3, 4, 5], &mut log);
        assert!(!aux.produce(&[6, 7, 8, 9], &mut log));
        assert_eq!(aux.stats().bytes_lost, 9);
        assert_eq!(aux.stats().gaps, 1);
        assert!(aux.produce(&[10, 11], &mut log));
        assert_eq!(log, vec![OPC_ESCAPE, OPC_OVF, 10, 11]);
    }

    #[test]
    fn resuming_without_room_for_the_marker_keeps_the_gap() {
        // The post-gap output fits, the OVF marker in front of it does not.
        // The output is dropped and the gap stays open, so the marker still
        // precedes the first output that gets through.
        let mut aux = AuxBuffer::new(3);
        let mut log = Vec::new();
        assert!(!aux.produce(&[1, 2, 3, 4], &mut log));
        assert!(!aux.produce(&[5, 6], &mut log));
        assert!(aux.produce(&[7], &mut log));
        assert_eq!(log, vec![OPC_ESCAPE, OPC_OVF, 7]);
        assert_eq!(aux.stats().gaps, 1);
        assert_eq!(aux.stats().bytes_lost, 6);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        AuxBuffer::new(0);
    }

    #[test]
    fn injected_overflow_accounts_and_marks_like_a_real_one() {
        let mut aux = AuxBuffer::new(16);
        let mut log = Vec::new();
        aux.produce(&[1, 2], &mut log);
        aux.inject_overflow(0); // no-op
        assert_eq!(aux.stats().gaps, 0);
        aux.inject_overflow(7);
        aux.inject_overflow(3); // same episode
        assert_eq!(aux.stats().gaps, 1);
        assert_eq!(aux.stats().bytes_lost, 10);
        aux.produce(&[9], &mut log);
        assert_eq!(log, vec![1, 2, OPC_ESCAPE, OPC_OVF, 9]);
    }
}
