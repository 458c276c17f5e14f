//! Seeded input generation and order statistics.

/// SplitMix64: the benchmark's input generator. The same seed always gives
/// the same sessions and payloads.
#[derive(Debug, Clone)]
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
}

/// The `q` quantile of `sorted` (ascending), linearly interpolated between
/// the closest ranks; 0 for an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let position = q * last as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    let weight = position - below as f64;
    sorted[below] as f64 * (1.0 - weight) + sorted[above] as f64 * weight
}

pub fn median(values: &[u64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    quantile(&sorted, 0.5)
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}
