//! Density fields: particles splatted onto a uniform grid — the substrate
//! for stencil operations and the fidelity metric of the Fig. 9
//! reproduction.

use spio_core::{DatasetReader, Storage};
use spio_types::{Aabb3, Particle, SpioError};

/// A scalar field on a uniform `nx × ny × nz` grid over some bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityField {
    pub bounds: Aabb3,
    pub dims: [usize; 3],
    /// Cell values, x-fastest.
    pub cells: Vec<f64>,
}

impl DensityField {
    /// Zero-initialized field.
    pub fn new(bounds: Aabb3, dims: [usize; 3]) -> Self {
        assert!(dims.iter().all(|&d| d > 0), "field dims must be positive");
        DensityField {
            bounds,
            dims,
            cells: vec![0.0; dims[0] * dims[1] * dims[2]],
        }
    }

    fn idx(&self, c: [usize; 3]) -> usize {
        c[0] + self.dims[0] * (c[1] + self.dims[1] * c[2])
    }

    /// Count-splat particles into the field (nearest cell).
    pub fn splat(&mut self, particles: &[Particle]) {
        for p in particles {
            if !self.bounds.contains(p.position) {
                continue;
            }
            let c = self.bounds.cell_of(self.dims, p.position);
            let i = self.idx(c);
            self.cells[i] += 1.0;
        }
    }

    /// Build from an entire dataset.
    pub fn from_dataset<S: Storage>(
        reader: &DatasetReader,
        storage: &S,
        dims: [usize; 3],
    ) -> Result<Self, SpioError> {
        let mut field = DensityField::new(reader.meta.domain, dims);
        // Per-file accumulation avoids holding the whole dataset at once.
        for idx in 0..reader.meta.entries.len() {
            field.splat(&reader.fetch(storage, idx, None)?.0);
        }
        Ok(field)
    }

    /// Total splatted weight.
    pub fn total(&self) -> f64 {
        self.cells.iter().sum()
    }

    /// Value at cell coordinates.
    pub fn at(&self, c: [usize; 3]) -> f64 {
        self.cells[self.idx(c)]
    }

    /// A 6-point Laplacian stencil of the field (zero at boundary cells) —
    /// the "stencil operations" workload of §3.
    pub fn laplacian(&self) -> DensityField {
        let mut out = DensityField::new(self.bounds, self.dims);
        let [nx, ny, nz] = self.dims;
        for z in 1..nz.saturating_sub(1) {
            for y in 1..ny.saturating_sub(1) {
                for x in 1..nx.saturating_sub(1) {
                    let c = self.at([x, y, z]);
                    let sum = self.at([x - 1, y, z])
                        + self.at([x + 1, y, z])
                        + self.at([x, y - 1, z])
                        + self.at([x, y + 1, z])
                        + self.at([x, y, z - 1])
                        + self.at([x, y, z + 1]);
                    let i = out.idx([x, y, z]);
                    out.cells[i] = sum - 6.0 * c;
                }
            }
        }
        out
    }

    /// Root-mean-square difference against another field of the same
    /// shape, with `other` scaled by `scale` first (for comparing LOD
    /// prefixes against full data).
    pub fn rms_diff(&self, other: &DensityField, scale: f64) -> f64 {
        assert_eq!(self.dims, other.dims, "field shapes must match");
        let se: f64 = self
            .cells
            .iter()
            .zip(&other.cells)
            .map(|(a, b)| {
                let d = a - b * scale;
                d * d
            })
            .sum();
        (se / self.cells.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Aabb3 {
        Aabb3::new([0.0; 3], [1.0; 3])
    }

    fn particle_at(p: [f64; 3]) -> Particle {
        Particle::synthetic(p, 0)
    }

    #[test]
    fn splat_counts_and_ignores_outside() {
        let mut f = DensityField::new(unit(), [2, 2, 2]);
        f.splat(&[
            particle_at([0.1, 0.1, 0.1]),
            particle_at([0.6, 0.1, 0.1]),
            particle_at([0.6, 0.1, 0.1]),
            particle_at([5.0, 5.0, 5.0]), // outside
        ]);
        assert_eq!(f.total(), 3.0);
        assert_eq!(f.at([0, 0, 0]), 1.0);
        assert_eq!(f.at([1, 0, 0]), 2.0);
    }

    #[test]
    fn laplacian_of_uniform_interior_is_zero() {
        let mut f = DensityField::new(unit(), [5, 5, 5]);
        f.cells.iter_mut().for_each(|c| *c = 3.0);
        let l = f.laplacian();
        assert_eq!(l.at([2, 2, 2]), 0.0);
        // A point spike produces the classic -6/+1 pattern.
        let mut f = DensityField::new(unit(), [5, 5, 5]);
        let mid = f.idx([2, 2, 2]);
        f.cells[mid] = 1.0;
        let l = f.laplacian();
        assert_eq!(l.at([2, 2, 2]), -6.0);
        assert_eq!(l.at([1, 2, 2]), 1.0);
        assert_eq!(l.at([2, 3, 2]), 1.0);
    }

    #[test]
    fn rms_diff_with_scaling() {
        let mut a = DensityField::new(unit(), [2, 1, 1]);
        let mut b = DensityField::new(unit(), [2, 1, 1]);
        a.cells = vec![4.0, 8.0];
        b.cells = vec![2.0, 4.0];
        assert!(a.rms_diff(&b, 2.0) < 1e-12, "scaled halves match");
        assert!(a.rms_diff(&b, 1.0) > 1.0);
    }

    #[test]
    #[should_panic(expected = "field shapes must match")]
    fn rms_diff_shape_mismatch_panics() {
        let a = DensityField::new(unit(), [2, 1, 1]);
        let b = DensityField::new(unit(), [1, 2, 1]);
        a.rms_diff(&b, 1.0);
    }
}
