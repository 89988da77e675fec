//! The AUX area ring buffer.
//!
//! Intel PT writes its packet stream into the perf "AUX area", a ring buffer
//! shared with user space. INSPECTOR runs it in **full-trace mode** (paper
//! §V-B and §VI): the kernel never overwrites data user space has not
//! collected; if the consumer is too slow the *producer* drops packets and
//! the trace has gaps (an OVF packet marks the spot).

use crate::packet::{OPC_ESCAPE, OPC_OVF};

/// Byte length of the OVF marker written when the producer resumes.
const OVF_LEN: usize = 2;

/// Statistics of one AUX buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuxStats {
    /// Bytes offered by the producer.
    pub bytes_produced: u64,
    /// Bytes accepted into the buffer.
    pub bytes_written: u64,
    /// Bytes dropped because the buffer was full.
    pub bytes_lost: u64,
    /// Number of distinct gaps (overflow episodes).
    pub gaps: u64,
}

/// A bounded ring buffer carrying the PT packet stream.
#[derive(Debug)]
pub struct AuxBuffer {
    capacity: usize,
    data: Vec<u8>,
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
            data: Vec::with_capacity(capacity.min(1 << 20)),
            stats: AuxStats::default(),
            in_overflow: false,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> AuxStats {
        self.stats
    }

    /// Offers packet bytes to the buffer (the producer side). Returns
    /// `false` if they were dropped: the ring had no room for them — after a
    /// gap, no room for them *and* the OVF marker that must precede them.
    pub fn produce(&mut self, bytes: &[u8]) -> bool {
        self.stats.bytes_produced += bytes.len() as u64;
        let marker = if self.in_overflow { OVF_LEN } else { 0 };
        if marker + bytes.len() > self.capacity - self.data.len() {
            if !self.in_overflow {
                self.stats.gaps += 1;
                self.in_overflow = true;
            }
            self.stats.bytes_lost += bytes.len() as u64;
            return false;
        }
        if self.in_overflow {
            // Mark the gap before resuming, like the hardware emitting OVF
            // when it recovers.
            self.data.extend_from_slice(&[OPC_ESCAPE, OPC_OVF]);
            self.stats.bytes_written += OVF_LEN as u64;
            self.in_overflow = false;
        }
        self.data.extend_from_slice(bytes);
        self.stats.bytes_written += bytes.len() as u64;
        true
    }

    /// Forces one overflow episode of `bytes` lost bytes, as if the
    /// producer had offered that many bytes against a full ring. The loss
    /// flows through the normal accounting (`gaps` + 1, `bytes_lost` +
    /// `bytes`) and the next successful [`produce`](Self::produce) emits a
    /// real OVF recovery marker into the stream — deterministic fault
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

    /// Collects (drains) everything currently buffered into the end of
    /// `sink` — the consumer side, equivalent to `perf record` copying the
    /// AUX area to disk. The ring keeps its storage for the next window.
    pub fn collect_into(&mut self, sink: &mut Vec<u8>) {
        sink.extend_from_slice(&self.data);
        self.data.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(aux: &mut AuxBuffer) -> Vec<u8> {
        let mut sink = Vec::new();
        aux.collect_into(&mut sink);
        sink
    }

    #[test]
    fn full_trace_accepts_until_capacity() {
        let mut aux = AuxBuffer::new(8);
        assert!(aux.produce(&[1, 2, 3, 4]));
        assert!(aux.produce(&[5, 6, 7, 8]));
        assert_eq!(aux.len(), 8);
        assert_eq!(aux.stats().bytes_lost, 0);
    }

    #[test]
    fn full_trace_drops_and_marks_gap_when_full() {
        let mut aux = AuxBuffer::new(4);
        aux.produce(&[1, 2, 3, 4]);
        assert!(!aux.produce(&[5, 6]));
        assert_eq!(aux.stats().bytes_lost, 2);
        assert_eq!(aux.stats().gaps, 1);
        // Consumer drains, producer resumes: an OVF marker precedes new data.
        let first = collect(&mut aux);
        assert_eq!(first, vec![1, 2, 3, 4]);
        assert!(aux.produce(&[7]));
        let second = collect(&mut aux);
        assert_eq!(second, vec![OPC_ESCAPE, OPC_OVF, 7]);
    }

    #[test]
    fn consecutive_drops_count_as_one_gap() {
        let mut aux = AuxBuffer::new(2);
        aux.produce(&[1, 2]);
        aux.produce(&[3]);
        aux.produce(&[4]);
        assert_eq!(aux.stats().gaps, 1);
        assert_eq!(aux.stats().bytes_lost, 2);
    }

    #[test]
    fn resuming_never_overshoots_the_capacity() {
        // After a gap the bytes fit on their own, but not behind the 2-byte
        // OVF marker: they are dropped rather than overfilling the ring.
        let mut aux = AuxBuffer::new(4);
        aux.produce(&[1, 2, 3, 4]);
        aux.produce(&[5]);
        collect(&mut aux);
        assert!(!aux.produce(&[6, 7, 8, 9]));
        assert!(aux.len() <= aux.capacity());
        assert_eq!(aux.stats().bytes_lost, 5);
        assert_eq!(aux.stats().gaps, 1);
        assert!(aux.produce(&[10, 11]));
        assert_eq!(collect(&mut aux), vec![OPC_ESCAPE, OPC_OVF, 10, 11]);
    }

    #[test]
    fn resuming_without_room_for_the_marker_keeps_the_gap() {
        // One byte free: the post-gap byte fits, the OVF marker does not.
        // The byte is dropped and the gap stays open, so the marker still
        // precedes the first byte that gets through.
        let mut aux = AuxBuffer::new(4);
        aux.produce(&[1, 2, 3]);
        assert!(!aux.produce(&[4, 5]));
        assert!(!aux.produce(&[6]));
        assert_eq!(collect(&mut aux), vec![1, 2, 3]);
        assert!(aux.produce(&[7]));
        assert_eq!(collect(&mut aux), vec![OPC_ESCAPE, OPC_OVF, 7]);
        assert_eq!(aux.stats().gaps, 1);
        assert_eq!(aux.stats().bytes_lost, 3);
    }

    #[test]
    fn collect_drains_buffer() {
        let mut aux = AuxBuffer::new(16);
        aux.produce(&[1, 2, 3]);
        assert_eq!(collect(&mut aux), vec![1, 2, 3]);
        assert!(aux.is_empty());
        // Collection appends: what the sink already held stays in front.
        aux.produce(&[4, 5]);
        let mut sink = vec![9];
        aux.collect_into(&mut sink);
        assert_eq!(sink, vec![9, 4, 5]);
        assert!(aux.is_empty());
        assert_eq!(aux.capacity(), 16);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        AuxBuffer::new(0);
    }

    #[test]
    fn injected_overflow_accounts_and_marks_like_a_real_one() {
        let mut aux = AuxBuffer::new(16);
        aux.produce(&[1, 2]);
        aux.inject_overflow(0); // no-op
        assert_eq!(aux.stats().gaps, 0);
        aux.inject_overflow(7);
        aux.inject_overflow(3); // same episode
        assert_eq!(aux.stats().gaps, 1);
        assert_eq!(aux.stats().bytes_lost, 10);
        aux.produce(&[9]);
        assert_eq!(collect(&mut aux), vec![1, 2, OPC_ESCAPE, OPC_OVF, 9]);
    }

    #[test]
    fn produced_accounting_includes_lost_bytes() {
        let mut aux = AuxBuffer::new(2);
        aux.produce(&[1, 2, 3, 4]);
        assert_eq!(aux.stats().bytes_produced, 4);
        assert_eq!(aux.stats().bytes_written, 0);
        assert_eq!(aux.stats().bytes_lost, 4);
    }
}
