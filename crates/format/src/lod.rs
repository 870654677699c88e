//! Level-of-detail arithmetic (§3.4).
//!
//! The format defines level `l` as a subset of at most
//! `x(n, l) = n · P · S^l` particles, where `n` is the number of processes
//! *reading* the data, `P` is the per-reader particle count of level 0, and
//! `S` is the resolution scale factor (default 2). Levels are virtual: the
//! data is stored as one randomly permuted sequence, and reading "up to
//! level l" just means reading a longer prefix. The last level holds
//! whatever remains (the paper's 100-particle example: levels of 32, 64 and
//! the remaining 4).

use spio_types::SpioError;

/// LOD parameters `(P, S)` from §3.4.
///
/// ```
/// use spio_format::LodParams;
/// // The paper's example: 100 particles, one reader, P = 32, S = 2
/// // ⇒ levels of 32, 64, and the remaining 4 particles.
/// let lod = LodParams::default();
/// assert_eq!(lod.actual_level_size(1, 0, 100), 32);
/// assert_eq!(lod.actual_level_size(1, 1, 100), 64);
/// assert_eq!(lod.actual_level_size(1, 2, 100), 4);
/// assert_eq!(lod.num_levels(1, 100), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LodParams {
    /// Particles per reading process in level 0.
    pub p: u64,
    /// Resolution scale factor between consecutive levels (≥ 1).
    pub s: u64,
}

impl Default for LodParams {
    /// The paper's defaults: `P = 32`, `S = 2`.
    fn default() -> Self {
        LodParams { p: 32, s: 2 }
    }
}

impl LodParams {
    pub fn new(p: u64, s: u64) -> Result<Self, SpioError> {
        if p == 0 {
            return Err(SpioError::Config("LOD parameter P must be positive".into()));
        }
        if s == 0 {
            return Err(SpioError::Config("LOD scale S must be at least 1".into()));
        }
        Ok(LodParams { p, s })
    }

    /// Maximum size of level `l` for `n` readers: `x(n, l) = n · P · S^l`,
    /// saturating at `u64::MAX` rather than overflowing.
    pub fn level_size(&self, n: u64, l: u32) -> u64 {
        self.s
            .checked_pow(l)
            .and_then(|sl| sl.checked_mul(self.p))
            .and_then(|v| v.checked_mul(n))
            .unwrap_or(u64::MAX)
    }

    /// Total particles in levels `0 ..= l` ignoring the dataset size:
    /// `n·P·(S^(l+1) − 1)/(S − 1)` for `S > 1`, `(l+1)·n·P` for `S = 1`.
    pub fn cumulative_size(&self, n: u64, l: u32) -> u64 {
        if self.s == 1 {
            return (l as u64 + 1).saturating_mul(self.p).saturating_mul(n);
        }
        // Sum the geometric series with saturation.
        let mut total = 0u64;
        let mut term = self.p.saturating_mul(n);
        for _ in 0..=l {
            total = total.saturating_add(term);
            term = term.saturating_mul(self.s);
            if total == u64::MAX {
                break;
            }
        }
        total
    }

    /// Actual particle count of level `l` in a dataset of `total` particles:
    /// full `x(n, l)` for interior levels, the remainder for the last.
    pub fn actual_level_size(&self, n: u64, l: u32, total: u64) -> u64 {
        let before = if l == 0 {
            0
        } else {
            self.cumulative_size(n, l - 1)
        };
        if before >= total {
            return 0;
        }
        (total - before).min(self.level_size(n, l))
    }

    /// Number of non-empty levels for a dataset of `total` particles read by
    /// `n` processes: the smallest `L` with `cumulative_size(n, L-1) ≥ total`.
    /// No readers read no levels.
    pub fn num_levels(&self, n: u64, total: u64) -> u32 {
        if total == 0 || n == 0 {
            return 0;
        }
        let mut l = 0u32;
        while self.cumulative_size(n, l) < total {
            l += 1;
        }
        l + 1
    }

    /// Particles to read in total (across all readers) when loading levels
    /// `0 ..= l` of a dataset of `total` particles.
    pub fn prefix_len(&self, n: u64, l: u32, total: u64) -> u64 {
        self.cumulative_size(n, l).min(total)
    }

    /// Split a global prefix of `global_prefix` particles (out of `total`)
    /// proportionally across a file holding `file_total` particles. Files
    /// store independent permutations, so reading a proportional prefix of
    /// every file yields a uniform subsample of the whole dataset.
    ///
    /// Rounds up so that the union over files always covers at least the
    /// requested global prefix, and clamps to the file size.
    pub fn file_prefix(file_total: u64, total: u64, global_prefix: u64) -> u64 {
        if total == 0 || file_total == 0 {
            return 0;
        }
        if global_prefix >= total {
            return file_total;
        }
        // ceil(file_total * global_prefix / total) without overflow for the
        // magnitudes in play (≤ 2^31 particles per file, ≤ 2^40 total).
        let num = (file_total as u128) * (global_prefix as u128);
        let den = total as u128;
        (num.div_ceil(den) as u64).min(file_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_100_particle_example() {
        // §3.4: 100 particles, one reader, P = 32, S = 2 ⇒ levels of 32, 64,
        // and the remaining 4.
        let lod = LodParams::default();
        assert_eq!(lod.level_size(1, 0), 32);
        assert_eq!(lod.level_size(1, 1), 64);
        assert_eq!(lod.actual_level_size(1, 0, 100), 32);
        assert_eq!(lod.actual_level_size(1, 1, 100), 64);
        assert_eq!(lod.actual_level_size(1, 2, 100), 4);
        assert_eq!(lod.actual_level_size(1, 3, 100), 0);
        assert_eq!(lod.num_levels(1, 100), 3);
    }

    #[test]
    fn paper_fig8_level_count() {
        // §5.4: 2^31 particles, n = 64, P = 32, S = 2 ⇒
        // l = log2(2^31 / (64·32)) = 20 is the highest level index.
        let lod = LodParams::default();
        let total = 1u64 << 31;
        let levels = lod.num_levels(64, total);
        assert_eq!(levels, 21, "levels 0..=20");
        assert_eq!(lod.level_size(64, 20), total);
        // Levels 0..=19 cover total − n·P = 2^31 − 2048 particles…
        assert_eq!(lod.cumulative_size(64, 19), total - 2048);
        // …so level 20 holds the remaining 2048.
        assert_eq!(lod.actual_level_size(64, 20, total), 2048);
    }

    #[test]
    fn levels_partition_dataset_exactly() {
        let lod = LodParams::new(7, 3).unwrap();
        let total = 123_456;
        let n = 5;
        let sum: u64 = (0..lod.num_levels(n, total))
            .map(|l| lod.actual_level_size(n, l, total))
            .sum();
        assert_eq!(sum, total);
    }

    #[test]
    fn s_equals_one_gives_linear_levels() {
        let lod = LodParams::new(10, 1).unwrap();
        assert_eq!(lod.level_size(2, 0), 20);
        assert_eq!(lod.level_size(2, 5), 20);
        assert_eq!(lod.cumulative_size(2, 4), 100);
        assert_eq!(lod.num_levels(2, 95), 5);
    }

    #[test]
    fn saturation_instead_of_overflow() {
        let lod = LodParams::default();
        assert_eq!(lod.level_size(u64::MAX / 2, 60), u64::MAX);
        assert_eq!(lod.cumulative_size(1 << 40, 63), u64::MAX);
    }

    #[test]
    fn prefix_len_clamps_to_total() {
        let lod = LodParams::default();
        assert_eq!(lod.prefix_len(1, 0, 100), 32);
        assert_eq!(lod.prefix_len(1, 1, 100), 96);
        assert_eq!(lod.prefix_len(1, 10, 100), 100);
    }

    #[test]
    fn file_prefix_is_proportional_and_covering() {
        // 4 files of 25 in a 100-particle dataset, asking for 50 globally.
        assert_eq!(LodParams::file_prefix(25, 100, 50), 13); // ceil(12.5)
        assert_eq!(LodParams::file_prefix(25, 100, 100), 25);
        assert_eq!(LodParams::file_prefix(25, 100, 0), 0);
        assert_eq!(LodParams::file_prefix(0, 100, 50), 0);
        // Rounding up means coverage never falls short.
        let covered: u64 = (0..4).map(|_| LodParams::file_prefix(25, 100, 30)).sum();
        assert!(covered >= 30);
    }

    #[test]
    fn rejects_degenerate_params() {
        assert!(LodParams::new(0, 2).is_err());
        assert!(LodParams::new(32, 0).is_err());
    }

    #[test]
    fn empty_dataset_has_no_levels() {
        assert_eq!(LodParams::default().num_levels(4, 0), 0);
    }

    #[test]
    fn zero_readers_have_no_levels() {
        // Every level of zero readers is empty, so the cumulative size never
        // reaches the dataset; this must not loop.
        assert_eq!(LodParams::default().num_levels(0, 100), 0);
        assert_eq!(LodParams::new(32, 1).unwrap().num_levels(0, 1), 0);
    }
}
