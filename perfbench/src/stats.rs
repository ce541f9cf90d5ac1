//! Pure helpers shared by the workloads: quantiles, the open-loop
//! schedule, lateness accounting, output hashes and a seeded draw.
//! Everything here is deterministic and unit-tested.

use graphner_graph::LabelDist;
use graphner_text::BioTag;

/// Median of `values` (mean of the two middle values for an even
/// count). `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank quantile: the smallest sample with at least a share
/// `q` of the samples at or below it. `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Open-loop schedule: request `i` is due `i / rate` seconds after the
/// window opens, whatever happened to earlier requests.
pub fn due_seconds(i: usize, rate: f64) -> f64 {
    i as f64 / rate
}

/// How late the generator itself sent a request. Each client has one
/// keep-alive connection, so a request can go out no earlier than its
/// due time and no earlier than the moment `free` its connection's
/// previous response arrived; lateness past the later of the two is
/// the generator's. Waiting on the connection is the server's and
/// already counts in latency, which runs from the due time. Never
/// negative.
pub fn lateness_seconds(due: f64, free: f64, sent: f64) -> f64 {
    (sent - due.max(free)).max(0.0)
}

/// Whether the generator, not the server, set the latency figures: its
/// p99 lateness exceeds half the request interval.
pub fn generator_fell_behind(late_p99_seconds: f64, rate: f64) -> bool {
    late_p99_seconds > 0.5 / rate
}

/// 64-bit FNV-1a, the hash behind every output fingerprint.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of per-sentence tag sequences; sentence boundaries are
/// hashed, so moving a tag across sentences changes the value.
pub fn hash_predictions(predictions: &[Vec<BioTag>]) -> u64 {
    let mut h = Fnv::new();
    for sentence in predictions {
        h.bytes(&(sentence.len() as u64).to_le_bytes());
        for tag in sentence {
            h.bytes(&[tag.index() as u8]);
        }
    }
    h.finish()
}

/// Fingerprint of a belief table, bit for bit.
pub fn hash_beliefs(rows: &[LabelDist]) -> u64 {
    let mut h = Fnv::new();
    for row in rows {
        for p in row {
            h.bytes(&p.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

/// Whether every row is a probability distribution (finite,
/// non-negative, summing to one within rounding).
pub fn all_distributions(rows: &[LabelDist]) -> bool {
    rows.iter().all(|row| {
        row.iter().all(|p| p.is_finite() && *p >= 0.0)
            && (row.iter().sum::<f64>() - 1.0).abs() < 1e-9
    })
}

/// SplitMix64: the benchmark's own seeded draw for request mixes and
/// derived seeds, independent of the program's generators.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// A seed for one purpose, derived from the workload seed so distinct
/// purposes never share a stream.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    SplitMix::new(seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphner_text::BioTag::*;

    #[test]
    fn open_loop_schedule_is_i_over_rate() {
        assert_eq!(due_seconds(0, 200.0), 0.0);
        assert_eq!(due_seconds(1, 200.0), 0.005);
        assert_eq!(due_seconds(400, 200.0), 2.0);
        // the schedule does not depend on what happened before
        let a: Vec<f64> = (0..10).map(|i| due_seconds(i, 50.0)).collect();
        assert!(a.windows(2).all(|w| (w[1] - w[0] - 0.02).abs() < 1e-12));
    }

    #[test]
    fn quantile_rule_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.99), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // median averages the middle pair, and ignores input order
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn lateness_accounting() {
        assert!((lateness_seconds(1.0, 0.5, 1.002) - 0.002).abs() < 1e-12);
        assert_eq!(lateness_seconds(1.0, 0.5, 0.999), 0.0);
        // the connection was busy until 1.010: a send at 1.0105 is the
        // generator's 0.5 ms, not 10.5 ms
        assert!((lateness_seconds(1.0, 1.010, 1.0105) - 0.0005).abs() < 1e-12);
        // 200 rps: an interval of 5 ms, flagged past 2.5 ms of p99 lateness
        assert!(!generator_fell_behind(0.002_4, 200.0));
        assert!(generator_fell_behind(0.002_6, 200.0));
    }

    #[test]
    fn output_hashes_see_every_bit() {
        let a = vec![vec![B, I, O], vec![O]];
        let moved = vec![vec![B, I], vec![O, O]];
        let flipped = vec![vec![B, O, O], vec![O]];
        assert_eq!(hash_predictions(&a), hash_predictions(&a.clone()));
        assert_ne!(hash_predictions(&a), hash_predictions(&moved));
        assert_ne!(hash_predictions(&a), hash_predictions(&flipped));

        let x = vec![[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]];
        let mut y = x.clone();
        y[1][0] = f64::from_bits(1.0f64.to_bits() - 1);
        assert_ne!(hash_beliefs(&x), hash_beliefs(&y));
        assert!(all_distributions(&x));
        assert!(!all_distributions(&[[0.5, 0.6, -0.1]]));
        assert!(!all_distributions(&[[0.5, 0.6, 0.1]]));
    }

    #[test]
    fn seeded_draws_repeat() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 1), derive_seed(2, 1));
        let mut r = SplitMix::new(3);
        assert!((0..1000).map(|_| r.between(1, 4)).all(|k| (1..=4).contains(&k)));
    }
}
