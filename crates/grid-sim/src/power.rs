//! Cell-resolved power maps for active layers.

use crate::GridSimError;
use liquamod_units::{Area, HeatFlux, Length, Power};

/// Power injected into each cell of a layer's `nx × nz` grid (watts per
/// cell). Column index `i` runs across the flow, row index `j` along it.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerMap {
    nx: usize,
    nz: usize,
    /// Row-major `[j][i]` watts per cell.
    watts: Vec<f64>,
}

impl PowerMap {
    /// Creates an all-zero map.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(nx: usize, nz: usize) -> Self {
        assert!(nx > 0 && nz > 0, "power map needs a non-empty grid");
        Self {
            nx,
            nz,
            watts: vec![0.0; nx * nz],
        }
    }

    /// Creates a map with a uniform areal heat flux over a die of the given
    /// extent: every cell receives `flux · cell_area`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn uniform_flux(
        flux: HeatFlux,
        nx: usize,
        nz: usize,
        die_width: Length,
        die_length: Length,
    ) -> Self {
        let mut map = Self::zeros(nx, nz);
        let cell = Area::from_si(die_width.si() / nx as f64 * die_length.si() / nz as f64);
        let w = (flux * cell).as_watts();
        map.watts.iter_mut().for_each(|v| *v = w);
        map
    }

    /// Grid dimensions `(nx, nz)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.nz)
    }

    /// Watts injected into cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn cell(&self, i: usize, j: usize) -> Power {
        assert!(i < self.nx && j < self.nz, "cell index out of range");
        Power::from_watts(self.watts[j * self.nx + i])
    }

    /// Sets the wattage of cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn set_cell(&mut self, i: usize, j: usize, power: Power) {
        assert!(i < self.nx && j < self.nz, "cell index out of range");
        self.watts[j * self.nx + i] = power.as_watts();
    }

    /// Total power over the map.
    pub fn total(&self) -> Power {
        Power::from_watts(self.watts.iter().sum())
    }

    /// Returns a copy with all cells multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            nx: self.nx,
            nz: self.nz,
            watts: self.watts.iter().map(|w| w * factor).collect(),
        }
    }

    /// Checks this map against an expected grid.
    ///
    /// # Errors
    ///
    /// [`GridSimError::PowerMapMismatch`] when dimensions differ.
    pub fn check_dims(&self, nx: usize, nz: usize) -> Result<(), GridSimError> {
        if (self.nx, self.nz) == (nx, nz) {
            Ok(())
        } else {
            Err(GridSimError::PowerMapMismatch {
                expected: (nx, nz),
                got: (self.nx, self.nz),
            })
        }
    }

    /// Raw row-major watts (plotting/export convenience).
    pub fn as_watts(&self) -> &[f64] {
        &self.watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_flux_total() {
        // 50 W/cm² over 1 cm × 1 cm = 50 W regardless of grid.
        let m = PowerMap::uniform_flux(
            HeatFlux::from_w_per_cm2(50.0),
            7,
            13,
            Length::from_centimeters(1.0),
            Length::from_centimeters(1.0),
        );
        assert!((m.total().as_watts() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn set_cell_updates_total() {
        let mut m = PowerMap::zeros(3, 3);
        m.set_cell(1, 2, Power::from_watts(2.0));
        m.set_cell(1, 2, Power::from_watts(2.5));
        assert!((m.cell(1, 2).as_watts() - 2.5).abs() < 1e-12);
        assert!((m.total().as_watts() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn scaled_map() {
        let m = PowerMap::uniform_flux(
            HeatFlux::from_w_per_cm2(10.0),
            2,
            2,
            Length::from_centimeters(1.0),
            Length::from_centimeters(1.0),
        )
        .scaled(0.5);
        assert!((m.total().as_watts() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn dims_check() {
        let m = PowerMap::zeros(4, 5);
        assert!(m.check_dims(4, 5).is_ok());
        assert!(matches!(
            m.check_dims(5, 4),
            Err(GridSimError::PowerMapMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cell_bounds() {
        PowerMap::zeros(2, 2).cell(2, 0);
    }
}
