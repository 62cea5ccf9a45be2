//! Order statistics over latency samples.

/// Percentile `p` (0..=100) of `sorted`, linearly interpolated between
/// the closest ranks (the same definition as NumPy's default and
/// Python's `statistics.quantiles(method="inclusive")`). NaN when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median of unsorted samples. NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// Median and 99th percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub p99: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            p50: percentile(&sorted, 50.0),
            p99: percentile(&sorted, 99.0),
        }
    }
}

/// Latency samples (microseconds) grouped into consecutive blocks of a
/// run. The 95th percentile is taken per block and then the median over
/// blocks, so a burst of interference from other processes that slows
/// one block does not move it. The median, the 99th percentile and the
/// rate pool every sample: a run's requests are a mix of fast and slow
/// kinds (a dialogue's turns, a round's statement classes), and the
/// pooled figures follow the whole run's mix rather than a few blocks'.
#[derive(Debug, Clone, Default)]
pub struct Blocks {
    blocks: Vec<Vec<f64>>,
}

impl Blocks {
    /// Start a new block; later samples go into it.
    pub fn start_block(&mut self) {
        self.blocks.push(Vec::new());
    }

    pub fn push(&mut self, us: f64) {
        if self.blocks.is_empty() {
            self.start_block();
        }
        self.blocks.last_mut().expect("a block").push(us);
    }

    /// Every sample, in order.
    pub fn pooled(&self) -> Vec<f64> {
        self.blocks.concat()
    }

    /// Median of all samples.
    pub fn p50(&self) -> f64 {
        median(&self.pooled())
    }

    /// Median over blocks of each block's 95th percentile.
    pub fn p95(&self) -> f64 {
        let per_block: Vec<f64> = self
            .blocks
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| {
                let mut sorted = b.to_vec();
                sorted.sort_by(f64::total_cmp);
                percentile(&sorted, 95.0)
            })
            .collect();
        median(&per_block)
    }

    /// 99th percentile of all samples.
    pub fn p99(&self) -> f64 {
        Summary::of(&self.pooled()).p99
    }

    /// Requests completed per second of latency (one client: the
    /// inverse of the mean latency). NaN when empty.
    pub fn per_s(&self) -> f64 {
        let all = self.pooled();
        all.len() as f64 * 1e6 / all.iter().sum::<f64>()
    }
}

/// Latencies kept both as measured (wall clock) and in reference
/// microseconds: scaled by the machine's speed when they were taken
/// (see [`crate::speed_factor`]).
#[derive(Debug, Clone, Default)]
pub struct Timings {
    pub wall: Blocks,
    pub reference: Blocks,
}

impl Timings {
    pub fn start_block(&mut self) {
        self.wall.start_block();
        self.reference.start_block();
    }

    pub fn push(&mut self, us: f64, speed: f64) {
        self.wall.push(us);
        self.reference.push(us * speed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_is_taken_per_block_and_the_rest_pooled() {
        let mut b = Blocks::default();
        for block in [
            [10.0, 10.0, 10.0],
            [10.0, 10.0, 12.0],
            [100.0, 100.0, 100.0],
        ] {
            b.start_block();
            for v in block {
                b.push(v);
            }
        }
        b.start_block(); // an empty block is ignored
        assert_eq!(b.p50(), 10.0);
        assert!((b.p95() - 11.8).abs() < 1e-9);
        assert_eq!(b.per_s(), 9.0 * 1e6 / 362.0);
        assert_eq!(b.pooled().len(), 9);
        assert!((b.p99() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn timings_scale_the_reference_copy() {
        let mut t = Timings::default();
        t.start_block();
        t.push(10.0, 2.0);
        assert_eq!(t.wall.pooled(), [10.0]);
        assert_eq!(t.reference.pooled(), [20.0]);
    }

    #[test]
    fn samples_before_the_first_block_start_one() {
        let mut b = Blocks::default();
        b.push(4.0);
        assert_eq!(b.p50(), 4.0);
        assert!(Blocks::default().p50().is_nan());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!((percentile(&v, 99.0) - 3.97).abs() < 1e-12);
    }

    #[test]
    fn percentile_edge_cases() {
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 150.0), 2.0);
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!(s.p50, 3.0);
        assert!((s.p99 - 4.96).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_of_a_hundred_samples_sits_near_the_top() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v);
        assert!((s.p99 - 99.01).abs() < 1e-9);
        assert_eq!(s.p50, 50.5);
    }
}
