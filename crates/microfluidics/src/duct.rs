//! Rectangular duct geometry.

use crate::MicrofluidicsError;
use liquamod_units::{Area, Length};

/// Cross-section of a rectangular microchannel.
///
/// In the paper's geometry (Fig. 2) the channel *width* `w_C` is the lateral
/// dimension that the modulation technique varies (bounded by `w_Cmin` and
/// `w_Cmax`), while the *height* `H_C` is fixed by the etching process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RectDuct {
    width: Length,
    height: Length,
}

impl RectDuct {
    /// Creates a duct cross-section from its width and height.
    ///
    /// # Errors
    ///
    /// Returns [`MicrofluidicsError::InvalidDuct`] if either dimension is not
    /// strictly positive and finite.
    pub fn new(width: Length, height: Length) -> crate::Result<Self> {
        if !(width.is_finite() && height.is_finite()) || width.si() <= 0.0 || height.si() <= 0.0 {
            return Err(MicrofluidicsError::InvalidDuct {
                width: width.si(),
                height: height.si(),
            });
        }
        Ok(Self { width, height })
    }

    /// Channel width `w_C` (the modulated dimension).
    pub const fn width(&self) -> Length {
        self.width
    }

    /// Channel height `H_C` (fixed by fabrication).
    pub const fn height(&self) -> Length {
        self.height
    }

    /// Cross-sectional flow area `A = w_C · H_C`.
    pub fn area(&self) -> Area {
        self.width * self.height
    }

    /// Hydraulic diameter `D_h = 4A/P = 2·w_C·H_C/(w_C + H_C)`.
    pub fn hydraulic_diameter(&self) -> Length {
        Length::from_meters(
            2.0 * self.width.si() * self.height.si() / (self.width.si() + self.height.si()),
        )
    }

    /// Aspect ratio `α = min(w_C, H_C)/max(w_C, H_C) ∈ (0, 1]`.
    ///
    /// The Shah–London polynomials are written in terms of this
    /// orientation-independent ratio.
    pub fn aspect_ratio(&self) -> f64 {
        let (a, b) = (self.width.si(), self.height.si());
        if a <= b {
            a / b
        } else {
            b / a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn duct(w_um: f64, h_um: f64) -> RectDuct {
        RectDuct::new(
            Length::from_micrometers(w_um),
            Length::from_micrometers(h_um),
        )
        .expect("valid duct")
    }

    #[test]
    fn rejects_degenerate() {
        assert!(RectDuct::new(Length::ZERO, Length::from_micrometers(100.0)).is_err());
        assert!(RectDuct::new(Length::from_micrometers(50.0), Length::from_meters(-1.0)).is_err());
        assert!(RectDuct::new(Length::from_meters(f64::NAN), Length::from_meters(1.0)).is_err());
    }

    #[test]
    fn square_duct_hydraulic_diameter_is_side() {
        let d = duct(100.0, 100.0);
        assert!((d.hydraulic_diameter().as_micrometers() - 100.0).abs() < 1e-9);
        assert!((d.aspect_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_max_width_duct() {
        // w = 50 µm, H = 100 µm → Dh = 2·50·100/150 = 66.67 µm, α = 0.5.
        let d = duct(50.0, 100.0);
        assert!((d.hydraulic_diameter().as_micrometers() - 200.0 / 3.0).abs() < 1e-6);
        assert!((d.aspect_ratio() - 0.5).abs() < 1e-12);
        assert!((d.area().as_m2() - 5.0e-9).abs() < 1e-20);
    }

    #[test]
    fn paper_min_width_duct() {
        // w = 10 µm, H = 100 µm → Dh = 2·10·100/110 = 18.18 µm, α = 0.1.
        let d = duct(10.0, 100.0);
        assert!((d.hydraulic_diameter().as_micrometers() - 2000.0 / 110.0).abs() < 1e-6);
        assert!((d.aspect_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn aspect_ratio_is_orientation_independent() {
        assert!(
            (duct(50.0, 100.0).aspect_ratio() - duct(100.0, 50.0).aspect_ratio()).abs() < 1e-15
        );
    }

    #[test]
    fn accessors_roundtrip() {
        let d = duct(30.0, 100.0);
        assert!((d.width().as_micrometers() - 30.0).abs() < 1e-12);
        assert!((d.height().as_micrometers() - 100.0).abs() < 1e-12);
    }
}
