//! FRAM/SRAM accounting and the platform's array restrictions.
//!
//! The MSP430FR5989 unifies code and data in 128 KB of FRAM and has just
//! 2 KB of SRAM for the stack. AmuletOS additionally restricts arrays:
//! the paper's Insight #1 reports that large arrays and 2-D arrays are
//! rejected. [`MemoryModel`] tracks region usage for the firmware
//! toolchain's static checks.

use crate::{AmuletError, FRAM_BYTES, SRAM_BYTES};

/// Maximum elements AmuletOS allows in a single array. The paper's
/// authors could not allocate beyond their two 1080-element float arrays;
/// the limit here gives exactly that much headroom.
pub const MAX_ARRAY_ELEMS: usize = 1100;

/// One memory region with a fixed capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    name: &'static str,
    capacity: usize,
    used: usize,
}

impl Region {
    /// Create a region of `capacity` bytes.
    pub fn new(name: &'static str, capacity: usize) -> Self {
        Self {
            name,
            capacity,
            used: 0,
        }
    }

    /// Reserve `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`AmuletError::OutOfMemory`] when the region cannot fit
    /// the request.
    pub fn reserve(&mut self, bytes: usize) -> Result<(), AmuletError> {
        if self.used + bytes > self.capacity {
            return Err(AmuletError::OutOfMemory {
                region: self.name,
                requested: bytes,
                available: self.capacity - self.used,
            });
        }
        self.used += bytes;
        Ok(())
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        self.capacity - self.used
    }
}

/// The device's two memory regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryModel {
    fram: Region,
    sram: Region,
}

impl Default for MemoryModel {
    fn default() -> Self {
        Self::new(FRAM_BYTES, SRAM_BYTES)
    }
}

impl MemoryModel {
    /// Create a model with explicit capacities (tests shrink them).
    pub fn new(fram_bytes: usize, sram_bytes: usize) -> Self {
        Self {
            fram: Region::new("fram", fram_bytes),
            sram: Region::new("sram", sram_bytes),
        }
    }

    /// The FRAM region.
    pub fn fram(&self) -> &Region {
        &self.fram
    }

    /// The FRAM region, mutably.
    pub fn fram_mut(&mut self) -> &mut Region {
        &mut self.fram
    }

    /// The SRAM region.
    pub fn sram(&self) -> &Region {
        &self.sram
    }

    /// The SRAM region, mutably.
    pub fn sram_mut(&mut self) -> &mut Region {
        &mut self.sram
    }

    /// Validate an array allocation request of `elems` elements of
    /// `elem_bytes` each against the platform's rules, then reserve it
    /// in FRAM (arrays live in FRAM; SRAM is stack only).
    ///
    /// # Errors
    ///
    /// Returns [`AmuletError::ArrayTooLarge`] beyond
    /// [`MAX_ARRAY_ELEMS`], or [`AmuletError::OutOfMemory`].
    pub fn alloc_array(&mut self, elems: usize, elem_bytes: usize) -> Result<(), AmuletError> {
        if elems > MAX_ARRAY_ELEMS {
            return Err(AmuletError::ArrayTooLarge {
                requested: elems,
                max: MAX_ARRAY_ELEMS,
            });
        }
        self.fram.reserve(elems * elem_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_reserve_tracks_use() {
        let mut r = Region::new("fram", 100);
        r.reserve(60).unwrap();
        assert_eq!(r.used(), 60);
        assert_eq!(r.available(), 40);
        r.reserve(40).unwrap();
        assert_eq!(r.available(), 0);
    }

    #[test]
    fn region_overflow_errors_without_mutation() {
        let mut r = Region::new("sram", 10);
        r.reserve(8).unwrap();
        let err = r.reserve(3).unwrap_err();
        assert_eq!(
            err,
            AmuletError::OutOfMemory {
                region: "sram",
                requested: 3,
                available: 2
            }
        );
        assert_eq!(r.used(), 8);
    }

    #[test]
    fn default_model_has_device_capacities() {
        let m = MemoryModel::default();
        assert_eq!(m.fram().capacity(), 128 * 1024);
        assert_eq!(m.sram().capacity(), 2 * 1024);
    }

    #[test]
    fn papers_detector_arrays_fit_exactly() {
        // "the 3 seconds ECG and ABP data had to be stored into two
        // floating type arrays (each has a size of 1080)".
        let mut m = MemoryModel::default();
        m.alloc_array(1080, 4).unwrap();
        m.alloc_array(1080, 4).unwrap();
        assert_eq!(m.fram().used(), 2 * 1080 * 4);
    }

    #[test]
    fn oversized_array_rejected() {
        let mut m = MemoryModel::default();
        let err = m.alloc_array(MAX_ARRAY_ELEMS + 1, 4).unwrap_err();
        assert!(matches!(err, AmuletError::ArrayTooLarge { .. }));
    }
}
