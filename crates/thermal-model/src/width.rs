//! Channel width profiles `w_C(z)` — the paper's control variable.

use liquamod_units::Length;

/// A channel width as a function of the distance `z` from the inlet.
///
/// The direct sequential method of §IV-C parameterizes the control as a
/// piecewise-constant function over equal-length segments; uniform profiles
/// are the paper's min/max-width baselines. A piecewise-linear variant is
/// provided as an extension for smoother fabrication-friendly profiles.
#[derive(Debug, Clone, PartialEq)]
pub enum WidthProfile {
    /// Constant width along the whole channel.
    Uniform(Length),
    /// `widths[k]` holds over the k-th of `widths.len()` equal segments.
    PiecewiseConstant {
        /// Per-segment widths, inlet to outlet.
        widths: Vec<Length>,
    },
    /// Linear interpolation between equally spaced knots (first knot at the
    /// inlet, last at the outlet). Requires at least two knots.
    PiecewiseLinear {
        /// Knot widths, inlet to outlet.
        knots: Vec<Length>,
    },
}

impl WidthProfile {
    /// Uniform profile helper.
    pub fn uniform(width: Length) -> Self {
        WidthProfile::Uniform(width)
    }

    /// Piecewise-constant profile over equal segments.
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty — an empty control vector is a programming
    /// error in the caller, not a recoverable state.
    pub fn piecewise_constant(widths: Vec<Length>) -> Self {
        assert!(
            !widths.is_empty(),
            "piecewise-constant profile needs at least one segment"
        );
        WidthProfile::PiecewiseConstant { widths }
    }

    /// Piecewise-linear profile through equally spaced knots.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two knots are supplied.
    pub fn piecewise_linear(knots: Vec<Length>) -> Self {
        assert!(
            knots.len() >= 2,
            "piecewise-linear profile needs at least two knots"
        );
        WidthProfile::PiecewiseLinear { knots }
    }

    /// Width at distance `z` from the inlet, for a channel of length `d`.
    ///
    /// `z` is clamped into `[0, d]`, so querying slightly outside the channel
    /// (e.g. quadrature abscissae touching the ends) is safe.
    pub fn width_at(&self, z: Length, d: Length) -> Length {
        let frac = (z.si() / d.si()).clamp(0.0, 1.0);
        match self {
            WidthProfile::Uniform(w) => *w,
            WidthProfile::PiecewiseConstant { widths } => {
                let k = ((frac * widths.len() as f64) as usize).min(widths.len() - 1);
                widths[k]
            }
            WidthProfile::PiecewiseLinear { knots } => {
                let n = knots.len();
                let x = frac * (n - 1) as f64;
                let k = (x as usize).min(n - 2);
                let t = x - k as f64;
                Length::from_meters(knots[k].si() * (1.0 - t) + knots[k + 1].si() * t)
            }
        }
    }

    /// Interior breakpoints (z positions where the profile is non-smooth),
    /// exclusive of the two channel ends. Mesh generators insert these as
    /// nodes so the midpoint scheme never straddles a discontinuity.
    pub fn breakpoints(&self, d: Length) -> Vec<Length> {
        match self {
            WidthProfile::Uniform(_) => Vec::new(),
            WidthProfile::PiecewiseConstant { widths } => (1..widths.len())
                .map(|k| Length::from_meters(d.si() * k as f64 / widths.len() as f64))
                .collect(),
            WidthProfile::PiecewiseLinear { knots } => (1..knots.len() - 1)
                .map(|k| Length::from_meters(d.si() * k as f64 / (knots.len() - 1) as f64))
                .collect(),
        }
    }

    /// Appends the interior breakpoints in raw metres to `out` — the
    /// allocation-free form of [`WidthProfile::breakpoints`] used by the
    /// solve workspace's mesh cache.
    pub(crate) fn append_breakpoints_si(&self, d: Length, out: &mut Vec<f64>) {
        match self {
            WidthProfile::Uniform(_) => {}
            WidthProfile::PiecewiseConstant { widths } => {
                out.extend((1..widths.len()).map(|k| d.si() * k as f64 / widths.len() as f64));
            }
            WidthProfile::PiecewiseLinear { knots } => {
                out.extend(
                    (1..knots.len() - 1).map(|k| d.si() * k as f64 / (knots.len() - 1) as f64),
                );
            }
        }
    }

    /// The widths that define the profile: the one uniform width, the
    /// per-segment widths or the knots, inlet to outlet.
    pub fn values(&self) -> &[Length] {
        match self {
            WidthProfile::Uniform(w) => std::slice::from_ref(w),
            WidthProfile::PiecewiseConstant { widths } => widths,
            WidthProfile::PiecewiseLinear { knots } => knots,
        }
    }

    /// Smallest width anywhere on the profile.
    pub fn min_width(&self) -> Length {
        let values = self.values();
        values.iter().copied().fold(values[0], Length::min)
    }

    /// Largest width anywhere on the profile.
    pub fn max_width(&self) -> Length {
        let values = self.values();
        values.iter().copied().fold(values[0], Length::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    #[test]
    fn uniform_everywhere() {
        let p = WidthProfile::uniform(um(30.0));
        let d = Length::from_centimeters(1.0);
        for frac in [0.0, 0.3, 1.0] {
            assert_eq!(p.width_at(Length::from_meters(d.si() * frac), d), um(30.0));
        }
        assert!(p.breakpoints(d).is_empty());
        assert_eq!(p.values().len(), 1);
    }

    #[test]
    fn piecewise_constant_segments() {
        let p = WidthProfile::piecewise_constant(vec![um(50.0), um(30.0), um(10.0)]);
        let d = Length::from_centimeters(3.0);
        assert_eq!(p.width_at(Length::from_centimeters(0.5), d), um(50.0));
        assert_eq!(p.width_at(Length::from_centimeters(1.5), d), um(30.0));
        assert_eq!(p.width_at(Length::from_centimeters(2.5), d), um(10.0));
        // Exactly at a boundary the right segment starts.
        assert_eq!(p.width_at(Length::from_centimeters(1.0), d), um(30.0));
        // The outlet end maps into the last segment, not out of bounds.
        assert_eq!(p.width_at(d, d), um(10.0));
    }

    #[test]
    fn piecewise_constant_breakpoints() {
        let p = WidthProfile::piecewise_constant(vec![um(50.0), um(30.0), um(10.0)]);
        let d = Length::from_centimeters(3.0);
        let bps = p.breakpoints(d);
        assert_eq!(bps.len(), 2);
        assert!((bps[0].as_centimeters() - 1.0).abs() < 1e-12);
        assert!((bps[1].as_centimeters() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn piecewise_linear_interpolates() {
        let p = WidthProfile::piecewise_linear(vec![um(50.0), um(10.0)]);
        let d = Length::from_centimeters(1.0);
        let mid = p.width_at(Length::from_centimeters(0.5), d);
        assert!((mid.as_micrometers() - 30.0).abs() < 1e-9);
        assert_eq!(p.width_at(Length::ZERO, d), um(50.0));
        assert!((p.width_at(d, d).as_micrometers() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn piecewise_linear_breakpoints_are_interior_knots() {
        let p = WidthProfile::piecewise_linear(vec![um(50.0), um(30.0), um(20.0), um(10.0)]);
        let d = Length::from_centimeters(3.0);
        let bps = p.breakpoints(d);
        assert_eq!(bps.len(), 2);
        assert!((bps[0].as_centimeters() - 1.0).abs() < 1e-12);
        assert!((bps[1].as_centimeters() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn clamps_outside_domain() {
        let p = WidthProfile::piecewise_constant(vec![um(50.0), um(10.0)]);
        let d = Length::from_centimeters(1.0);
        assert_eq!(p.width_at(Length::from_centimeters(-1.0), d), um(50.0));
        assert_eq!(p.width_at(Length::from_centimeters(9.0), d), um(10.0));
    }

    #[test]
    fn min_max_width() {
        let p = WidthProfile::piecewise_constant(vec![um(50.0), um(30.0), um(10.0)]);
        assert_eq!(p.min_width(), um(10.0));
        assert_eq!(p.max_width(), um(50.0));
        let l = WidthProfile::piecewise_linear(vec![um(20.0), um(45.0)]);
        assert_eq!(l.min_width(), um(20.0));
        assert_eq!(l.max_width(), um(45.0));
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_piecewise_panics() {
        let _ = WidthProfile::piecewise_constant(vec![]);
    }

    #[test]
    #[should_panic(expected = "at least two knots")]
    fn single_knot_linear_panics() {
        let _ = WidthProfile::piecewise_linear(vec![um(10.0)]);
    }
}
