//! Everything the `--seed` argument drives: the order inside a measured
//! pair, the synthetic branch stream, and the slice-query targets. Equal
//! seeds give equal inputs; every generator is built so that different
//! seeds give statistically equal work.

use inspector_core::ids::SubId;
use inspector_pt::branch::BranchEvent;

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// One independent stream per `(seed, purpose)`.
    pub fn new(seed: u64, purpose: &str) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for byte in purpose.bytes() {
            state = (state ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
        Rng(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// small `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Whether pair number `pair` runs its tracked side before its baseline
/// side. The seed picks the first pair's order and the order alternates
/// from there, so slow drift hits both sides equally.
pub fn tracked_first(seed: u64, pair: usize) -> bool {
    ((Rng::new(seed, "pair-order").next_u64() & 1) as usize + pair).is_multiple_of(2)
}

/// Conditionals per indirect branch in the synthetic stream.
const CONDITIONALS_PER_INDIRECT: u64 = 16;

/// The synthetic branch stream of `log_decode`: coin-flip conditionals with
/// one indirect branch after every sixteen, its target drawn from a
/// 64-entry table (so TIP compression sees repeated and near targets).
#[derive(Debug)]
pub struct BranchStream {
    rng: Rng,
    targets: [u64; 64],
    bits: u64,
    emitted: u64,
}

impl BranchStream {
    pub fn new(seed: u64, thread: u64) -> Self {
        let mut rng = Rng::new(
            seed ^ thread.wrapping_mul(0xA24B_AED4_963E_E407),
            "branches",
        );
        let targets = std::array::from_fn(|_| 0x40_0000 + (rng.next_u64() & 0xF_FFF0));
        BranchStream {
            rng,
            targets,
            bits: 0,
            emitted: 0,
        }
    }
}

impl Iterator for BranchStream {
    type Item = BranchEvent;

    fn next(&mut self) -> Option<BranchEvent> {
        let slot = self.emitted % (CONDITIONALS_PER_INDIRECT + 1);
        self.emitted += 1;
        if slot == CONDITIONALS_PER_INDIRECT {
            let target = self.targets[self.rng.below(64)];
            return Some(BranchEvent::Indirect { target });
        }
        if slot == 0 {
            self.bits = self.rng.next_u64();
        }
        Some(BranchEvent::Conditional {
            taken: (self.bits >> slot) & 1 == 1,
        })
    }
}

/// `count` targets for the slice queries of one kind (`purpose`) over
/// `sequences` (one id list per thread, in α order): stratum `i` of `count` equal strata of the concatenated
/// sequences yields one target at a seeded offset. Stratifying keeps the
/// summed slice size — and so the batch time — nearly the same for every
/// seed while no two seeds query the same nodes.
pub fn slice_targets(
    seed: u64,
    purpose: &str,
    sequences: &[Vec<SubId>],
    count: usize,
) -> Vec<SubId> {
    let all: Vec<SubId> = sequences.iter().flatten().copied().collect();
    assert!(!all.is_empty(), "no nodes to query");
    let mut rng = Rng::new(seed, purpose);
    (0..count)
        .map(|i| {
            let lo = i * all.len() / count;
            let hi = ((i + 1) * all.len() / count).max(lo + 1).min(all.len());
            all[(lo + rng.below(hi - lo)).min(all.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use inspector_core::ids::ThreadId;

    fn sequences() -> Vec<Vec<SubId>> {
        (0..3)
            .map(|t| (0..500).map(|a| SubId::new(ThreadId::new(t), a)).collect())
            .collect()
    }

    #[test]
    fn generators_repeat_per_seed_and_differ_across_seeds() {
        let stream = |seed| BranchStream::new(seed, 0).take(4000).collect::<Vec<_>>();
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        assert_ne!(
            BranchStream::new(7, 0).take(100).collect::<Vec<_>>(),
            BranchStream::new(7, 1).take(100).collect::<Vec<_>>()
        );

        let seqs = sequences();
        let targets = |seed, purpose| slice_targets(seed, purpose, &seqs, 32);
        assert_eq!(targets(7, "a"), targets(7, "a"));
        assert_ne!(targets(7, "a"), targets(8, "a"));
        assert_ne!(targets(7, "a"), targets(7, "b"));

        let order = |seed| (0..6).map(|p| tracked_first(seed, p)).collect::<Vec<_>>();
        assert_eq!(order(7), order(7));
        assert!((1..=16).any(|seed| order(seed) != order(7)));
    }

    #[test]
    fn branch_stream_has_one_indirect_per_sixteen_conditionals() {
        let events: Vec<_> = BranchStream::new(3, 0).take(17 * 1000).collect();
        let indirect = events
            .iter()
            .filter(|e| matches!(e, BranchEvent::Indirect { .. }))
            .count();
        assert_eq!(indirect, 1000);
        assert!(matches!(events[16], BranchEvent::Indirect { .. }));
        let taken = events
            .iter()
            .filter(|e| matches!(e, BranchEvent::Conditional { taken: true }))
            .count();
        assert!((7000..9000).contains(&taken), "coin flips, got {taken}");
    }

    #[test]
    fn pair_order_alternates() {
        for seed in 0..8 {
            for pair in 0..5 {
                assert_ne!(tracked_first(seed, pair), tracked_first(seed, pair + 1));
            }
        }
    }

    #[test]
    fn slice_targets_are_stratified() {
        let seqs = sequences();
        let all: Vec<SubId> = seqs.iter().flatten().copied().collect();
        let targets = slice_targets(11, "a", &seqs, 30);
        assert_eq!(targets.len(), 30);
        for (i, target) in targets.iter().enumerate() {
            let at = all.iter().position(|id| id == target).unwrap();
            assert!((i * 50..(i + 1) * 50).contains(&at), "stratum {i}: {at}");
        }
        // More strata than nodes still yields valid targets.
        let tiny = vec![vec![SubId::new(ThreadId::new(0), 0)]];
        assert_eq!(slice_targets(1, "a", &tiny, 4).len(), 4);
    }
}
