//! Order statistics with the benchmark's reporting rule: a tail
//! percentile is printed only when at least [`MIN_BEYOND`] samples lie
//! beyond it.

/// Samples a tail percentile needs beyond it before it may be printed.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The 1-based nearest rank of the `q`-quantile (`0 < q ≤ 1`); the
    /// epsilon keeps `0.9 × 100` from rounding up to rank 91.
    fn rank_index(&self, q: f64) -> usize {
        ((q * self.sorted.len() as f64 - 1e-9).ceil() as usize).clamp(1, self.sorted.len())
    }

    /// The median: the mean of the two middle values for an even count.
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(self.sorted[n / 2]),
            _ => Some(0.5 * (self.sorted[n / 2 - 1] + self.sorted[n / 2])),
        }
    }

    /// A tail percentile, or `None` when fewer than [`MIN_BEYOND`]
    /// samples lie beyond it.
    pub fn tail(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let idx = self.rank_index(q);
        (self.sorted.len() - idx >= MIN_BEYOND).then(|| self.sorted[idx - 1])
    }

    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_rule() {
        let s = Samples::new((1..=100).map(f64::from).collect());
        assert_eq!(s.median(), Some(50.5));
        assert_eq!(s.tail(0.9), Some(90.0));
        assert_eq!(s.tail(0.99), None, "one sample beyond p99 of 100");
        let big = Samples::new((1..=1000).map(f64::from).collect());
        assert_eq!(big.tail(0.99), Some(990.0));
    }
}
