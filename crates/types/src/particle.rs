//! The particle record.
//!
//! The paper's evaluation (§5.1) uses datasets representative of the Uintah
//! simulation framework, where each particle carries 15 double-precision
//! values (a 3-component position, a 9-component stress tensor, density,
//! volume and an ID) plus one single-precision value (a material type), for a
//! total of 124 bytes per particle. We reproduce that record exactly so the
//! per-core data volumes match the paper (32 Ki particles ≈ 4 MB, 64 Ki ≈ 8 MB).

/// Serialized size of one [`Particle`] in bytes: 15 × f64 + 1 × f32.
pub const PARTICLE_BYTES: usize = 15 * 8 + 4;

/// A single simulation particle (Uintah material-point-method style record).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Spatial position (x, y, z).
    pub position: [f64; 3],
    /// Cauchy stress tensor, row-major 3×3.
    pub stress: [f64; 9],
    /// Mass density at the particle.
    pub density: f64,
    /// Volume represented by the particle.
    pub volume: f64,
    /// Globally unique particle identifier (stored as a double in the paper's
    /// record; we keep it integral and encode it as 8 bytes on disk).
    pub id: u64,
    /// Material type tag (the record's single-precision variable).
    pub ptype: f32,
}

impl Particle {
    /// A particle at `position` with the given `id` and all physical fields
    /// derived deterministically from the id (useful for tests that must
    /// detect payload corruption, not just position errors).
    pub fn synthetic(position: [f64; 3], id: u64) -> Self {
        let f = id as f64;
        let mut stress = [0.0; 9];
        for (i, s) in stress.iter_mut().enumerate() {
            *s = f * 0.25 + i as f64;
        }
        Particle {
            position,
            stress,
            density: 1.0 + (id % 97) as f64 * 0.01,
            volume: 1e-6 + (id % 13) as f64 * 1e-7,
            id,
            ptype: (id % 4) as f32,
        }
    }

    /// Encode into `out`, little-endian, in the fixed on-disk field order:
    /// position, stress, density, volume, id, type.
    pub fn encode(&self, out: &mut Vec<u8>) {
        for v in self.position {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in self.stress {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.density.to_le_bytes());
        out.extend_from_slice(&self.volume.to_le_bytes());
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.ptype.to_le_bytes());
    }

    /// Decode one encoded record.
    #[inline]
    pub fn decode_record(record: &[u8; PARTICLE_BYTES]) -> Self {
        let f = |slot: usize| record_f64(record, slot);
        let (words, _) = record.as_chunks::<4>();
        Particle {
            position: record_position(record),
            stress: std::array::from_fn(|i| f(3 + i)),
            density: f(slot::DENSITY),
            volume: f(slot::VOLUME),
            id: u64::from_le_bytes(record_slot(record, slot::ID)),
            ptype: f32::from_le_bytes(words[PARTICLE_BYTES / 4 - 1]),
        }
    }
}

/// Indices of the 8-byte slots of an encoded record (slot `k` holds bytes
/// `8k..8k+8`); the record's last 4 bytes are the material type.
pub mod slot {
    /// Position x; y and z follow in slots 1 and 2.
    pub const POSITION: usize = 0;
    pub const DENSITY: usize = 12;
    pub const VOLUME: usize = 13;
    pub const ID: usize = 14;
}

#[inline]
fn record_slot(record: &[u8; PARTICLE_BYTES], slot: usize) -> [u8; 8] {
    let (slots, _) = record.as_chunks::<8>();
    slots[slot]
}

/// The f64 field in 8-byte `slot` of an encoded record, read in place —
/// for code that moves records as bytes and needs one field of each.
#[inline]
pub fn record_f64(record: &[u8; PARTICLE_BYTES], slot: usize) -> f64 {
    f64::from_le_bytes(record_slot(record, slot))
}

/// The position of an encoded record, read in place.
#[inline]
pub fn record_position(record: &[u8; PARTICLE_BYTES]) -> [f64; 3] {
    std::array::from_fn(|a| record_f64(record, slot::POSITION + a))
}

/// Encode a slice of particles into a contiguous byte buffer.
pub fn encode_particles(particles: &[Particle]) -> Vec<u8> {
    let mut out = Vec::with_capacity(particles.len() * PARTICLE_BYTES);
    for p in particles {
        p.encode(&mut out);
    }
    out
}

/// Decode a contiguous byte buffer into particles.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of [`PARTICLE_BYTES`].
pub fn decode_particles(bytes: &[u8]) -> Vec<Particle> {
    assert_eq!(
        bytes.len() % PARTICLE_BYTES,
        0,
        "byte buffer is not a whole number of particle records"
    );
    let (records, _) = bytes.as_chunks::<PARTICLE_BYTES>();
    records.iter().map(Particle::decode_record).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particle_bytes_matches_paper_record() {
        // 15 doubles + 1 float = 124 bytes; 32 Ki particles ≈ 4 MB per core.
        assert_eq!(PARTICLE_BYTES, 124);
        let per_core = 32 * 1024 * PARTICLE_BYTES;
        assert!(per_core > 3_900_000 && per_core < 4_200_000);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = Particle::synthetic([0.1, -2.5, 3.75], 123456789);
        let mut buf = Vec::new();
        p.encode(&mut buf);
        assert_eq!(buf.len(), PARTICLE_BYTES);
        assert_eq!(Particle::decode_record(buf.first_chunk().unwrap()), p);
    }

    #[test]
    fn batch_roundtrip_preserves_order() {
        let ps: Vec<Particle> = (0..100)
            .map(|i| Particle::synthetic([i as f64, 0.0, -(i as f64)], i))
            .collect();
        let bytes = encode_particles(&ps);
        assert_eq!(bytes.len(), 100 * PARTICLE_BYTES);
        assert_eq!(decode_particles(&bytes), ps);
    }

    #[test]
    fn synthetic_fields_depend_on_id() {
        let a = Particle::synthetic([0.0; 3], 1);
        let b = Particle::synthetic([0.0; 3], 2);
        assert_ne!(a.density, b.density);
        assert_ne!(a.stress, b.stress);
    }

    #[test]
    #[should_panic(expected = "whole number of particle records")]
    fn decode_particles_rejects_ragged_buffer() {
        decode_particles(&[0u8; PARTICLE_BYTES + 1]);
    }
}
