//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
//! protecting data-file headers and payload chunks in format v2. Std-only,
//! table-driven, with a streaming state so readers that fetch a payload
//! incrementally (LOD prefix reads) can verify chunk boundaries without
//! re-reading earlier bytes.
//!
//! [`Crc32::update`] uses slicing-by-16: sixteen 256-entry tables let one
//! step fold 16 input bytes into the state with 16 independent lookups
//! instead of a 16-long chain of dependent ones. Table `k` maps a byte to
//! its CRC contribution when followed by `k` zero bytes, so the result is
//! bit-identical to the byte-at-a-time loop (kept as the test oracle).

const POLY: u32 = 0xEDB8_8320;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the state
/// contribution of byte `b` followed by `k` zero bytes.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    tables[0] = make_table();
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

/// One byte-at-a-time step.
#[inline(always)]
fn step(c: u32, b: u8) -> u32 {
    TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
}

/// Streaming CRC-32 state. `finalize` does not consume the state, so a
/// caller can checkpoint the running value at chunk boundaries.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed more bytes into the running checksum: 16 bytes per step, then
    /// the tail byte by byte.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut c = self.state;
        let (blocks, tail) = bytes.as_chunks::<16>();
        for block in blocks {
            let (w, _) = block.as_chunks::<4>();
            // Only the first word depends on the running state; fold the
            // other twelve bytes on their own so the loop-carried chain is
            // four lookups and three XORs long, not sixteen.
            let [y, z, v] = [w[1], w[2], w[3]].map(u32::from_le_bytes);
            let rest = (t[11][(y & 0xFF) as usize]
                ^ t[10][((y >> 8) & 0xFF) as usize]
                ^ t[9][((y >> 16) & 0xFF) as usize]
                ^ t[8][(y >> 24) as usize])
                ^ (t[7][(z & 0xFF) as usize]
                    ^ t[6][((z >> 8) & 0xFF) as usize]
                    ^ t[5][((z >> 16) & 0xFF) as usize]
                    ^ t[4][(z >> 24) as usize])
                ^ (t[3][(v & 0xFF) as usize]
                    ^ t[2][((v >> 8) & 0xFF) as usize]
                    ^ t[1][((v >> 16) & 0xFF) as usize]
                    ^ t[0][(v >> 24) as usize]);
            let x = c ^ u32::from_le_bytes(w[0]);
            c = (t[15][(x & 0xFF) as usize] ^ t[14][((x >> 8) & 0xFF) as usize])
                ^ (t[13][((x >> 16) & 0xFF) as usize] ^ t[12][(x >> 24) as usize])
                ^ rest;
        }
        for &b in tail {
            c = step(c, b);
        }
        self.state = c;
    }

    /// The CRC of everything fed so far.
    #[inline]
    pub fn finalize(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }

    /// Reset to the empty-input state (start of a new chunk).
    #[inline]
    pub fn reset(&mut self) {
        self.state = 0xFFFF_FFFF;
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::cases;

    /// The byte-at-a-time loop `update` replaced: the oracle for it.
    fn reference_update(state: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(state, |c, &b| step(c, b))
    }

    fn reference_crc32(bytes: &[u8]) -> u32 {
        reference_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    #[test]
    fn matches_bytewise_reference_for_every_length_and_offset() {
        let buf: Vec<u8> = (0..4096 + 16)
            .map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for offset in 0..16 {
            for len in 0..=4096 {
                let bytes = &buf[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    reference_crc32(bytes),
                    "len {len} at offset {offset}"
                );
            }
        }
    }

    #[test]
    fn streaming_at_random_split_points_matches_reference() {
        cases(256, |g| {
            let data = g.bytes(0, 3000);
            let mut c = Crc32::new();
            let mut at = 0;
            while at < data.len() {
                let end = g.usize_in(at, data.len() + 1).max(at + 1);
                c.update(&data[at..end]);
                assert_eq!(
                    c.state,
                    reference_update(0xFFFF_FFFF, &data[..end]),
                    "after {end} of {} bytes",
                    data.len()
                );
                at = end;
            }
            assert_eq!(c.finalize(), reference_crc32(&data));
        });
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let whole = crc32(&data);
        for split in [0, 1, 9, 4096, 9_999, 10_000] {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = vec![0xA5u8; 512];
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn reset_restarts_the_stream() {
        let mut c = Crc32::new();
        c.update(b"garbage");
        c.reset();
        c.update(b"123456789");
        assert_eq!(c.finalize(), 0xCBF4_3926);
    }
}
