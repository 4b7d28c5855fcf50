//! Order statistics, metric-name rules, the seeded generator and the
//! content hash the correctness gates compare.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty. NaN-safe: samples are ordered by `total_cmp`.
pub fn median(xs: &[f64]) -> Option<f64> {
    let sorted = sorted(xs);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A sorted copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut out = xs.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Samples that must lie above a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency distribution: the highest nearest-rank
/// percentile, at most `cap_pct`, with at least [`TAIL_BEYOND`] samples
/// beyond it. Returns `(percentile, value)`, or `None` when there are
/// too few samples for any such percentile (11 or more are needed).
pub fn tail(xs: &[f64], cap_pct: f64) -> Option<(f64, f64)> {
    let sorted = sorted(xs);
    let n = sorted.len();
    // Nearest rank of the capped percentile, then pulled down until
    // TAIL_BEYOND samples sit above it.
    let capped = ((cap_pct / 100.0) * n as f64).ceil() as usize;
    let rank = capped.min(n.checked_sub(TAIL_BEYOND)?);
    if rank == 0 {
        return None;
    }
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1]))
}

/// True for a metric name the result line may carry: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a over `bytes` — the hash the repository pins its serialized
/// studies with.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (a client or a
    /// generator role).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_picks_the_highest_rank_with_ten_samples_beyond() {
        // 100 samples: p99 would leave 1 beyond, so the tail is p90.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), Some((90.0, 90.0)));
        // 2000 samples: p99 (rank 1980) has 20 beyond, so it stands.
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), Some((99.0, 1980.0)));
        // 11 samples: only the lowest rank has 10 beyond it.
        let xs: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let (pct, value) = tail(&xs, 99.0).unwrap();
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        // 10 or fewer: no percentile has 10 samples beyond it.
        assert_eq!(tail(&[1.0; 10], 99.0), None);
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn every_beyond_count_is_at_least_ten() {
        for n in 11..400 {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let (pct, value) = tail(&xs, 99.0).unwrap();
            let beyond = xs.iter().filter(|&&x| x > value).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}");
            assert!(pct <= 99.0, "n={n}");
            // One rank higher would leave fewer than ten, or pass p99.
            let next_rank = (value as usize) + 2;
            assert!(
                n - next_rank < TAIL_BEYOND || 100.0 * next_rank as f64 / n as f64 > 99.0,
                "n={n}"
            );
        }
    }

    #[test]
    fn metric_names_follow_the_rules() {
        assert!(valid_metric_name("interposer.layout_ms.glass25d"));
        assert!(valid_metric_name("setup_s"));
        assert!(valid_metric_name("2x-rate"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(".hidden"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("slash/name"));
        assert!(!valid_metric_name(&"a".repeat(65)));
    }

    #[test]
    fn rng_is_deterministic_per_seed_and_stream() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..16).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(8, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        let mut rng = Rng::new(1, 0);
        for _ in 0..1000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(rng.below(4) < 4);
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
