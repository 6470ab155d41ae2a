//! Small numeric helpers: order statistics, rank agreement and a seeded
//! shuffle.

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The sample at percentile `pct` by the nearest-rank rule.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Kendall's τ-b between two paired samples.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    let sign = |v: f64| f64::from(i8::from(v > 0.0) - i8::from(v < 0.0));
    let (mut agree, mut norm_a, mut norm_b) = (0.0, 0.0, 0.0);
    for i in 0..a.len() {
        for j in i + 1..a.len() {
            let (x, y) = (sign(a[i] - a[j]), sign(b[i] - b[j]));
            agree += x * y;
            norm_a += x * x;
            norm_b += y * y;
        }
    }
    if norm_a * norm_b > 0.0 {
        agree / (norm_a * norm_b).sqrt()
    } else {
        1.0
    }
}

/// SplitMix64: a tiny deterministic generator for input orders and seeds.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// Derive an independent seed for item `index` of stream `stream`.
pub fn mix(stream: u64, index: u64) -> u64 {
    SplitMix::new(stream ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}
