//! Seeded input generators. Every input a workload feeds the library —
//! message sizes, operation mix, payload bytes, initial fields, fault
//! plan seeds — comes from here, so the same `--seed` gives the same
//! inputs.
//!
//! Sizes are drawn *stratified*: a job of `n` steps covers its size range
//! in `n` equal log-space strata, one draw per stratum, in a seeded
//! order. Each seed still picks its own sizes, but every seed moves about
//! the same number of bytes, so run-to-run spread measures the system and
//! not the luck of the draw.

/// SplitMix64: tiny, fast, and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream `tag` of `seed` (e.g. one per workload).
    pub fn stream(seed: u64, tag: u64) -> Self {
        Rng(mix(seed ^ mix(tag.wrapping_add(0x5851_f42d_4c95_7f2d))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// The SplitMix64 finalizer, also used as a stateless hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` sizes in `[lo, hi]`, log-stratified (one uniform draw per equal
/// log-space stratum), rounded down to a multiple of `align`, in seeded
/// order.
pub fn stratified_sizes(rng: &mut Rng, n: usize, lo: usize, hi: usize, align: usize) -> Vec<usize> {
    assert!(
        n > 0 && align > 0 && lo >= align && lo <= hi,
        "bad size range"
    );
    let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
    let mut out: Vec<usize> = (0..n)
        .map(|i| {
            let u = (i as f64 + rng.unit()) / n as f64;
            let s = (llo + u * (lhi - llo)).exp() as usize;
            (s.clamp(lo, hi) / align) * align
        })
        .collect();
    rng.shuffle(&mut out);
    out
}

/// `n` indices in `0..range`, one uniform draw from each of `n` equal
/// strata, in seeded order.
pub fn stratified_indices(rng: &mut Rng, n: usize, range: usize) -> Vec<usize> {
    assert!(n > 0 && n <= range, "bad index strata");
    let mut out: Vec<usize> = (0..n)
        .map(|i| {
            let (lo, hi) = (i * range / n, (i + 1) * range / n);
            lo + rng.below((hi - lo) as u64) as usize
        })
        .collect();
    rng.shuffle(&mut out);
    out
}

/// FNV-1a accumulator for the correctness digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a bulk payload eight bytes at a time (byte-wise FNV would
    /// cost more host time than the transfer being checked).
    pub fn payload(&mut self, b: &[u8]) {
        let mut words = b.chunks_exact(8);
        for w in &mut words {
            let v = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.bytes(words.remainder());
        self.u64(b.len() as u64);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::stream(8, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stratified_sizes_cover_the_range_evenly() {
        let mut r = Rng::stream(3, 0);
        let s = stratified_sizes(&mut r, 64, 16 << 10, 1 << 20, 8);
        assert_eq!(s.len(), 64);
        assert!(s
            .iter()
            .all(|&x| (16 << 10..=1 << 20).contains(&x) && x % 8 == 0));
        // One draw per stratum: sorted, the i-th size lies in stratum i.
        let mut sorted = s.clone();
        sorted.sort_unstable();
        for (i, &x) in sorted.iter().enumerate() {
            let u = ((x as f64).ln() - (16384f64).ln()) / (64f64).ln();
            assert!(
                u * 64.0 >= i as f64 - 0.01 && u * 64.0 < i as f64 + 1.0,
                "{i}: {x}"
            );
        }
        // Different seeds draw different sizes but about the same total.
        let t = stratified_sizes(&mut Rng::stream(4, 0), 64, 16 << 10, 1 << 20, 8);
        assert_ne!(s, t);
        let (ts, tt) = (
            s.iter().sum::<usize>() as f64,
            t.iter().sum::<usize>() as f64,
        );
        assert!((ts / tt - 1.0).abs() < 0.05, "{ts} vs {tt}");
    }

    #[test]
    fn stratified_indices_hit_every_stratum() {
        let mut v = stratified_indices(&mut Rng::stream(1, 0), 8, 256);
        v.sort_unstable();
        for (i, x) in v.iter().enumerate() {
            assert!((i * 32..(i + 1) * 32).contains(x));
        }
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.value(), b.value());
    }
}
