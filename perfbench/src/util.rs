//! Small helpers: result fingerprints, order statistics, peak memory.

use spio_types::Particle;
use std::time::Duration;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn particle_key(p: &Particle) -> u64 {
    let mut h = mix(p.id);
    for c in p.position {
        h = mix(h ^ c.to_bits());
    }
    mix(h ^ p.density.to_bits())
}

/// Order-independent fingerprint of a particle multiset: count plus two
/// independent sums of per-particle hashes of id, position and density.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SetPrint {
    pub count: u64,
    sum: u64,
    sum2: u64,
}

impl SetPrint {
    pub fn of<'a>(particles: impl IntoIterator<Item = &'a Particle>) -> SetPrint {
        let mut s = SetPrint::default();
        for p in particles {
            s.add(&SetPrint::one(p));
        }
        s
    }

    fn one(p: &Particle) -> SetPrint {
        let h = particle_key(p);
        SetPrint {
            count: 1,
            sum: h,
            sum2: mix(h ^ 0x5851_F42D_4C95_7F2D),
        }
    }

    pub fn add(&mut self, other: &SetPrint) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.sum2 = self.sum2.wrapping_add(other.sum2);
    }
}

/// Order-dependent fingerprint of a particle sequence: the served result
/// must equal the serial reader's answer element by element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqPrint {
    pub count: u64,
    hash: u64,
}

impl SeqPrint {
    pub fn of(particles: &[Particle]) -> SeqPrint {
        let hash = particles
            .iter()
            .fold(0x243F_6A88_85A3_08D3u64, |h, p| mix(h ^ particle_key(p)));
        SeqPrint {
            count: particles.len() as u64,
            hash,
        }
    }
}

/// Nearest-rank percentile of `sorted` (ascending), `p` in [0, 100].
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Size of the last-level cache in bytes, as the kernel reports it.
pub fn llc_bytes() -> Option<u64> {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().ok()?;
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<u64>().ok()? << 10
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok()? << 20
        } else {
            size.parse().ok()?
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

/// MB/s (10^6 bytes) of `bytes` moved in `d`; 0 when nothing was timed.
pub fn rate_mbps(bytes: u64, d: Duration) -> f64 {
    if d.is_zero() {
        return 0.0;
    }
    bytes as f64 / 1e6 / d.as_secs_f64()
}
