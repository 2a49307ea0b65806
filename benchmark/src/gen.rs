//! Seeded input generation. The system under test never sees the seed,
//! only the operation sequences made from it here.

/// Calls in one `batch_wide` flush. Wide enough that the three thread
/// wake-ups of a round trip — whose cost on a small VM flips between
/// regimes for minutes at a time — stay near a tenth of the operation;
/// at 128 calls they were a third and run-to-run spread reached 17 %.
pub const WIDE_CALLS: usize = 512;
/// Words per `batch_wide` flush the dictionary does not know, so the
/// exception path runs on every flush.
pub const WIDE_UNKNOWN: usize = 2;
/// Shared hot accounts in `edge_mix`.
pub const HOT_ACCOUNTS: usize = 16;
/// Hot accounts one `edge_mix` read batch covers (plus the caller's own).
pub const READ_HOT: usize = 8;
/// Purchases on the caller's own account in one `edge_mix` write batch
/// (plus one on a hot account).
pub const WRITE_OWN: usize = 4;
/// Read batches in one `edge_mix` cycle.
pub const CYCLE_READS: usize = 48;
/// Write batches in one `edge_mix` cycle.
pub const CYCLE_WRITES: usize = 16;
/// Distinct pre-generated operations a caller cycles through.
pub const CYCLE: usize = CYCLE_READS + CYCLE_WRITES;

/// SplitMix64: small, seedable, and good enough to shuffle workloads.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A stream for one caller of one workload, so callers differ and a
/// change to one workload's generator leaves the others' inputs alone.
fn stream(seed: u64, workload: u64, caller: usize) -> Rng {
    let mut mix = Rng::new(seed ^ (workload << 56) ^ ((caller as u64) << 40));
    Rng::new(mix.next_u64())
}

/// A word no dictionary holds.
pub fn unknown_word(n: usize) -> String {
    format!("zz-unknown-{n}")
}

/// The `batch_wide` cycle: [`CYCLE`] flushes of [`WIDE_CALLS`] words, each
/// with exactly [`WIDE_UNKNOWN`] unknown words at seed-chosen positions
/// and the rest drawn from `known`.
pub fn wide_cycle(seed: u64, known: &[String]) -> Vec<Vec<String>> {
    let mut rng = stream(seed, 2, 0);
    (0..CYCLE)
        .map(|_| {
            let mut words: Vec<String> = (0..WIDE_CALLS - WIDE_UNKNOWN)
                .map(|_| known[rng.below(known.len())].clone())
                .collect();
            words.extend((0..WIDE_UNKNOWN).map(unknown_word));
            rng.shuffle(&mut words);
            words
        })
        .collect()
}

/// One `edge_mix` operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeOp {
    /// `get_balance` on these distinct hot accounts, then on the caller's own.
    Read { hot: [usize; READ_HOT] },
    /// [`WRITE_OWN`] purchases on the caller's own account and one on this
    /// hot account.
    Write { hot: usize },
}

/// One caller's `edge_mix` cycle: exactly [`CYCLE_READS`] reads and
/// [`CYCLE_WRITES`] writes in seed-shuffled order.
pub fn edge_cycle(seed: u64, caller: usize) -> Vec<EdgeOp> {
    let mut rng = stream(seed, 4, caller);
    let mut ops: Vec<EdgeOp> = (0..CYCLE_READS)
        .map(|_| {
            let mut all: Vec<usize> = (0..HOT_ACCOUNTS).collect();
            rng.shuffle(&mut all);
            let mut hot = [0; READ_HOT];
            hot.copy_from_slice(&all[..READ_HOT]);
            EdgeOp::Read { hot }
        })
        .collect();
    ops.extend((0..CYCLE_WRITES).map(|_| EdgeOp::Write {
        hot: rng.below(HOT_ACCOUNTS),
    }));
    rng.shuffle(&mut ops);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn known() -> Vec<String> {
        ["cat", "dog", "file"]
            .iter()
            .map(|w| (*w).to_owned())
            .collect()
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        assert_eq!(wide_cycle(7, &known()), wide_cycle(7, &known()));
        assert_ne!(wide_cycle(7, &known()), wide_cycle(8, &known()));
        assert_eq!(edge_cycle(7, 3), edge_cycle(7, 3));
        assert_ne!(edge_cycle(7, 3), edge_cycle(8, 3));
        assert_ne!(edge_cycle(7, 3), edge_cycle(7, 4), "callers differ");
    }

    #[test]
    fn wide_batches_hold_exactly_two_unknown_words() {
        let known = known();
        for seed in [0, 1, 2, u64::MAX] {
            let cycle = wide_cycle(seed, &known);
            assert_eq!(cycle.len(), CYCLE);
            for words in &cycle {
                assert_eq!(words.len(), WIDE_CALLS);
                let unknown = words.iter().filter(|w| !known.contains(w)).count();
                assert_eq!(unknown, WIDE_UNKNOWN);
                assert_eq!(words.len() - unknown, 510);
            }
        }
    }

    #[test]
    fn edge_cycles_hold_exactly_48_reads_and_16_writes() {
        for seed in [0, 1, 2, u64::MAX] {
            for caller in 0..8 {
                let cycle = edge_cycle(seed, caller);
                let reads = cycle
                    .iter()
                    .filter(|op| matches!(op, EdgeOp::Read { .. }))
                    .count();
                assert_eq!((reads, cycle.len() - reads), (48, 16));
                for op in &cycle {
                    match op {
                        EdgeOp::Read { hot } => {
                            let mut distinct = hot.to_vec();
                            distinct.sort_unstable();
                            distinct.dedup();
                            assert_eq!(distinct.len(), READ_HOT);
                            assert!(hot.iter().all(|&h| h < HOT_ACCOUNTS));
                        }
                        EdgeOp::Write { hot } => assert!(*hot < HOT_ACCOUNTS),
                    }
                }
            }
        }
    }
}
