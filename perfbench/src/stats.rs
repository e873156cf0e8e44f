//! Order statistics and the seeded generator behind flow order and check
//! stimuli.

/// SplitMix64: a small, seedable generator. The benchmark uses its own so
/// that neither the flow order nor the independent check's stimuli depend on
/// the program under test.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The `i`-th of the `n`-quantiles of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=n)[i - 1]` (the default
/// "exclusive" method), so the figures here match the ones the spread
/// checks compute from the printed results.
pub fn quantile(values: &[f64], i: usize, n: usize) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return data.first().copied().unwrap_or(f64::NAN);
    }
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    let n = n as f64;
    (data[j - 1] * (n - delta) + data[j] * delta) / n
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 1, 2)
}

/// Sample count, median and quartiles of one metric's samples.
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            n: values.len(),
            p25: quantile(values, 1, 4),
            p50: quantile(values, 2, 4),
            p75: quantile(values, 3, 4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_statistics() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&ten, 1, 4), 2.75);
        assert_eq!(quantile(&ten, 2, 4), 5.5);
        assert_eq!(quantile(&ten, 3, 4), 8.25);
        assert!((quantile(&[3.0, 1.0, 2.0], 9, 10) - 3.6).abs() < 1e-12);
        let twelve: Vec<f64> = (1..=12).map(f64::from).collect();
        assert!((quantile(&twelve, 9, 10) - 11.7).abs() < 1e-12);
        assert_eq!(quantile(&[4.0], 9, 10), 4.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..20).collect();
        let mut b = a.clone();
        SplitMix64::new(7).shuffle(&mut a);
        SplitMix64::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
