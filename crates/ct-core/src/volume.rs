//! 3D volume container with the two memory layouts the paper contrasts.
//!
//! * [`VolumeLayout::IMajor`] — the "original" layout of Algorithm 2 /
//!   Figure 1b: `i` is the fastest-varying index
//!   (`idx = (k*Ny + j)*Nx + i`).
//! * [`VolumeLayout::KMajor`] — the proposed layout of Section 3.2.3 /
//!   Algorithm 4: `k` is fastest (`idx = (i*Ny + j)*Nz + k`), making the
//!   inner z-loop of the proposed kernel walk contiguous memory.
//!
//! Algorithm 4 line 22 (`I <- reshape(I~)`) is [`Volume::into_layout`].

use crate::error::{CtError, Result};
use crate::problem::Dims3;

/// Memory layout of a [`Volume`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VolumeLayout {
    /// `i` fastest: `idx = (k*Ny + j)*Nx + i` (standard, Algorithm 2).
    IMajor,
    /// `k` fastest: `idx = (i*Ny + j)*Nz + k` (proposed, Algorithm 4).
    KMajor,
}

/// A dense 3D volume of `f32` voxels.
#[derive(Debug, Clone, PartialEq)]
pub struct Volume {
    dims: Dims3,
    layout: VolumeLayout,
    data: Vec<f32>,
}

impl Volume {
    /// Allocate a zero-initialised volume.
    pub fn zeros(dims: Dims3, layout: VolumeLayout) -> Self {
        Self {
            dims,
            layout,
            // analyze: allow(alloc, reason = "constructor: one output-volume allocation per tile/run, amortized across the whole sweep")
            data: vec![0.0; dims.len()],
        }
    }

    /// Wrap an existing buffer. Fails if the length does not match.
    pub fn from_vec(dims: Dims3, layout: VolumeLayout, data: Vec<f32>) -> Result<Self> {
        if data.len() != dims.len() {
            return Err(CtError::ShapeMismatch {
                expected: format!("{} voxels", dims.len()),
                actual: format!("{} elements", data.len()),
            });
        }
        Ok(Self { dims, layout, data })
    }

    /// Volume dimensions.
    #[inline]
    pub fn dims(&self) -> Dims3 {
        self.dims
    }

    /// Current memory layout.
    #[inline]
    pub fn layout(&self) -> VolumeLayout {
        self.layout
    }

    /// Raw data slice in the current layout.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data slice in the current layout.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the raw buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Linear index of voxel `(i, j, k)` under the current layout.
    #[inline]
    pub fn index(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.dims.nx && j < self.dims.ny && k < self.dims.nz);
        match self.layout {
            VolumeLayout::IMajor => (k * self.dims.ny + j) * self.dims.nx + i,
            VolumeLayout::KMajor => (i * self.dims.ny + j) * self.dims.nz + k,
        }
    }

    /// Read voxel `(i, j, k)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f32 {
        self.data[self.index(i, j, k)]
    }

    /// Write voxel `(i, j, k)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: f32) {
        let idx = self.index(i, j, k);
        self.data[idx] = v;
    }

    /// Accumulate into voxel `(i, j, k)`.
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, k: usize, v: f32) {
        let idx = self.index(i, j, k);
        self.data[idx] += v;
    }

    /// Convert to the requested layout, physically permuting the buffer if
    /// needed — the `reshape` of Algorithm 4 line 22.
    pub fn into_layout(self, layout: VolumeLayout) -> Volume {
        if self.layout == layout {
            return self;
        }
        let dims = self.dims;
        let mut out = Volume::zeros(dims, layout);
        // Walk the destination in storage order for write locality.
        match layout {
            VolumeLayout::IMajor => {
                let mut idx = 0;
                for k in 0..dims.nz {
                    for j in 0..dims.ny {
                        for i in 0..dims.nx {
                            out.data[idx] = self.get(i, j, k);
                            idx += 1;
                        }
                    }
                }
            }
            VolumeLayout::KMajor => {
                let mut idx = 0;
                for i in 0..dims.nx {
                    for j in 0..dims.ny {
                        for k in 0..dims.nz {
                            out.data[idx] = self.get(i, j, k);
                            idx += 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// Extract the z-slab `k in [k0, k1)` as a new volume with the same
    /// layout. This is the unit of output decomposition in the distributed
    /// framework (each row of ranks owns a slab, Section 4.1.1).
    pub fn slab(&self, k0: usize, k1: usize) -> Result<Volume> {
        if k0 >= k1 || k1 > self.dims.nz {
            return Err(CtError::OutOfBounds {
                what: "z-slab",
                index: k1,
                bound: self.dims.nz + 1,
            });
        }
        let dims = Dims3::new(self.dims.nx, self.dims.ny, k1 - k0);
        let mut out = Volume::zeros(dims, self.layout);
        for k in k0..k1 {
            for j in 0..self.dims.ny {
                for i in 0..self.dims.nx {
                    out.set(i, j, k - k0, self.get(i, j, k));
                }
            }
        }
        Ok(out)
    }

    /// Paste `slab` into `self` starting at z index `k0`.
    pub fn set_slab(&mut self, k0: usize, slab: &Volume) -> Result<()> {
        let sd = slab.dims();
        if sd.nx != self.dims.nx || sd.ny != self.dims.ny || k0 + sd.nz > self.dims.nz {
            return Err(CtError::ShapeMismatch {
                expected: format!("<= {}x{}x{}", self.dims.nx, self.dims.ny, self.dims.nz - k0),
                actual: format!("{}x{}x{}", sd.nx, sd.ny, sd.nz),
            });
        }
        for k in 0..sd.nz {
            for j in 0..sd.ny {
                for i in 0..sd.nx {
                    self.set(i, j, k0 + k, slab.get(i, j, k));
                }
            }
        }
        Ok(())
    }

    /// The xy-slice at height `k`, as a fresh row-major (`i` fastest)
    /// buffer — the unit the framework stores to the PFS ("the volume ...
    /// is stored as slices of number Nz", Section 4.1.3).
    pub fn slice_xy(&self, k: usize) -> Result<Vec<f32>> {
        if k >= self.dims.nz {
            return Err(CtError::OutOfBounds {
                what: "slice",
                index: k,
                bound: self.dims.nz,
            });
        }
        let mut out = Vec::with_capacity(self.dims.nx * self.dims.ny);
        match self.layout {
            VolumeLayout::IMajor => {
                let base = k * self.dims.ny * self.dims.nx;
                out.extend_from_slice(&self.data[base..base + self.dims.ny * self.dims.nx]);
            }
            VolumeLayout::KMajor => {
                for j in 0..self.dims.ny {
                    for i in 0..self.dims.nx {
                        out.push(self.get(i, j, k));
                    }
                }
            }
        }
        Ok(out)
    }

    /// Scale every voxel by `s` (used for the FDK angular weighting).
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Maximum absolute voxel value.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trips_both_layouts() {
        for layout in [VolumeLayout::IMajor, VolumeLayout::KMajor] {
            let dims = Dims3::new(3, 4, 5);
            let mut v = Volume::zeros(dims, layout);
            let mut val = 0.0;
            for i in 0..3 {
                for j in 0..4 {
                    for k in 0..5 {
                        v.set(i, j, k, val);
                        val += 1.0;
                    }
                }
            }
            let mut val = 0.0;
            for i in 0..3 {
                for j in 0..4 {
                    for k in 0..5 {
                        assert_eq!(v.get(i, j, k), val);
                        val += 1.0;
                    }
                }
            }
        }
    }

    #[test]
    fn imajor_index_is_contiguous_in_i() {
        let v = Volume::zeros(Dims3::new(4, 3, 2), VolumeLayout::IMajor);
        assert_eq!(v.index(1, 0, 0) - v.index(0, 0, 0), 1);
        assert_eq!(v.index(0, 1, 0) - v.index(0, 0, 0), 4);
        assert_eq!(v.index(0, 0, 1) - v.index(0, 0, 0), 12);
    }

    #[test]
    fn kmajor_index_is_contiguous_in_k() {
        let v = Volume::zeros(Dims3::new(4, 3, 2), VolumeLayout::KMajor);
        assert_eq!(v.index(0, 0, 1) - v.index(0, 0, 0), 1);
        assert_eq!(v.index(0, 1, 0) - v.index(0, 0, 0), 2);
        assert_eq!(v.index(1, 0, 0) - v.index(0, 0, 0), 6);
    }

    #[test]
    fn layout_conversion_preserves_values() {
        let dims = Dims3::new(5, 4, 3);
        let mut v = Volume::zeros(dims, VolumeLayout::KMajor);
        for i in 0..5 {
            for j in 0..4 {
                for k in 0..3 {
                    v.set(i, j, k, (100 * i + 10 * j + k) as f32);
                }
            }
        }
        let w = v.clone().into_layout(VolumeLayout::IMajor);
        for i in 0..5 {
            for j in 0..4 {
                for k in 0..3 {
                    assert_eq!(w.get(i, j, k), v.get(i, j, k));
                }
            }
        }
        // Round trip is the identity.
        let back = w.into_layout(VolumeLayout::KMajor);
        assert_eq!(back, v);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Volume::from_vec(Dims3::cube(2), VolumeLayout::IMajor, vec![0.0; 7]).is_err());
        assert!(Volume::from_vec(Dims3::cube(2), VolumeLayout::IMajor, vec![0.0; 8]).is_ok());
    }

    #[test]
    fn slab_extract_and_paste() {
        let dims = Dims3::new(2, 2, 4);
        let mut v = Volume::zeros(dims, VolumeLayout::IMajor);
        for k in 0..4 {
            for j in 0..2 {
                for i in 0..2 {
                    v.set(i, j, k, k as f32);
                }
            }
        }
        let s = v.slab(1, 3).unwrap();
        assert_eq!(s.dims(), Dims3::new(2, 2, 2));
        assert_eq!(s.get(0, 0, 0), 1.0);
        assert_eq!(s.get(0, 0, 1), 2.0);

        let mut w = Volume::zeros(dims, VolumeLayout::IMajor);
        w.set_slab(1, &s).unwrap();
        assert_eq!(w.get(0, 0, 0), 0.0);
        assert_eq!(w.get(1, 1, 1), 1.0);
        assert_eq!(w.get(0, 1, 2), 2.0);

        assert!(v.slab(3, 3).is_err());
        assert!(v.slab(0, 5).is_err());
        let too_big = Volume::zeros(Dims3::new(2, 2, 3), VolumeLayout::IMajor);
        assert!(w.set_slab(2, &too_big).is_err());
    }

    #[test]
    fn slice_xy_matches_get_in_both_layouts() {
        for layout in [VolumeLayout::IMajor, VolumeLayout::KMajor] {
            let dims = Dims3::new(3, 2, 2);
            let mut v = Volume::zeros(dims, layout);
            for i in 0..3 {
                for j in 0..2 {
                    for k in 0..2 {
                        v.set(i, j, k, (i + 10 * j + 100 * k) as f32);
                    }
                }
            }
            let s = v.slice_xy(1).unwrap();
            for j in 0..2 {
                for i in 0..3 {
                    assert_eq!(s[j * 3 + i], v.get(i, j, 1));
                }
            }
            assert!(v.slice_xy(2).is_err());
        }
    }

    #[test]
    fn scale_and_max_abs() {
        let mut v = Volume::zeros(Dims3::cube(2), VolumeLayout::IMajor);
        v.set(1, 1, 1, -4.0);
        v.set(0, 0, 0, 3.0);
        assert_eq!(v.max_abs(), 4.0);
        v.scale(0.5);
        assert_eq!(v.get(1, 1, 1), -2.0);
        assert_eq!(v.max_abs(), 2.0);
    }
}
