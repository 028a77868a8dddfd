//! Heat input profiles `q̂(z)` — power per unit channel length on an active
//! layer (the paper's `q̂_i1`, `q̂_i2`).

use liquamod_units::{Length, LinearHeatFlux, Power};

/// Heat per unit length along the flow direction, represented as a
/// piecewise-constant step function over arbitrary breakpoints.
///
/// Floorplan rasterization, the uniform Test A load and the random-segment
/// Test B load all reduce to this representation, so it is the single
/// exchange format between the workload crates and the thermal model.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatProfile {
    /// `(z_start_m, value_w_per_m)` pairs, sorted by `z_start_m`, first at 0.
    /// Each value holds from its `z_start` to the next entry's `z_start`
    /// (or to the channel outlet for the last entry).
    steps: Vec<(f64, f64)>,
}

impl HeatProfile {
    /// Profile that is zero everywhere (an unpowered layer).
    pub fn zero() -> Self {
        Self {
            steps: vec![(0.0, 0.0)],
        }
    }

    /// Uniform heat input along the channel.
    pub fn uniform(q: LinearHeatFlux) -> Self {
        Self {
            steps: vec![(0.0, q.si())],
        }
    }

    /// Equal-length segments with the given per-segment values, inlet to
    /// outlet, over a channel of length `d` (the paper's Test B shape).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or `d` is not positive — both are
    /// programming errors in the experiment definition.
    pub fn equal_segments(values: &[LinearHeatFlux], d: Length) -> Self {
        assert!(
            !values.is_empty(),
            "heat profile needs at least one segment"
        );
        assert!(d.si() > 0.0, "channel length must be positive");
        let seg = d.si() / values.len() as f64;
        Self {
            steps: values
                .iter()
                .enumerate()
                .map(|(k, q)| (k as f64 * seg, q.si()))
                .collect(),
        }
    }

    /// Builds a profile from explicit `(z_start, value)` breakpoints.
    /// Entries are sorted by position; the first entry is moved/extended to
    /// start at `z = 0` with its value.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty.
    pub fn from_steps(mut steps: Vec<(Length, LinearHeatFlux)>) -> Self {
        assert!(!steps.is_empty(), "heat profile needs at least one step");
        steps.sort_by(|a, b| a.0.si().partial_cmp(&b.0.si()).expect("finite positions"));
        let mut out: Vec<(f64, f64)> = Vec::with_capacity(steps.len() + 1);
        if steps[0].0.si() > 0.0 {
            out.push((0.0, 0.0));
        }
        for (z, q) in steps {
            out.push((z.si().max(0.0), q.si()));
        }
        Self { steps: out }
    }

    /// Heat per unit length at distance `z` from the inlet.
    pub fn value_at(&self, z: Length) -> LinearHeatFlux {
        let zm = z.si();
        // Binary search for the last step whose start is <= z.
        let idx = match self
            .steps
            .binary_search_by(|(start, _)| start.partial_cmp(&zm).expect("finite positions"))
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        LinearHeatFlux::from_w_per_m(self.steps[idx].1)
    }

    /// Appends the interior breakpoints in raw metres to `out` — the
    /// allocation-free form of [`HeatProfile::breakpoints`] used by the
    /// solve workspace's mesh cache.
    pub(crate) fn append_breakpoints_si(&self, out: &mut Vec<f64>) {
        out.extend(self.steps.iter().skip(1).map(|&(z, _)| z));
    }

    /// Interior breakpoint positions (where the profile jumps).
    pub fn breakpoints(&self) -> Vec<Length> {
        self.steps
            .iter()
            .skip(1)
            .map(|&(z, _)| Length::from_meters(z))
            .collect()
    }

    /// Total power delivered over a channel of length `d`:
    /// `∫₀ᵈ q̂(z) dz` (exact for the step representation).
    pub fn total_power(&self, d: Length) -> Power {
        let dm = d.si();
        let mut total = 0.0;
        for (k, &(z0, q)) in self.steps.iter().enumerate() {
            if z0 >= dm {
                break;
            }
            let z1 = self.steps.get(k + 1).map_or(dm, |&(z, _)| z.min(dm));
            total += q * (z1 - z0).max(0.0);
        }
        Power::from_watts(total)
    }

    /// Returns a copy with every value multiplied by `factor`
    /// (peak → average power derating, per-group scaling…).
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            steps: self.steps.iter().map(|&(z, q)| (z, q * factor)).collect(),
        }
    }

    /// Pointwise sum of two profiles (used when several floorplan blocks
    /// project onto the same channel).
    pub fn add(&self, other: &Self) -> Self {
        let mut cuts: Vec<f64> = self
            .steps
            .iter()
            .chain(other.steps.iter())
            .map(|&(z, _)| z)
            .collect();
        cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite positions"));
        cuts.dedup_by(|a, b| (*a - *b).abs() < 1e-15);
        let steps = cuts
            .into_iter()
            .map(|z| {
                let zl = Length::from_meters(z);
                (z, self.value_at(zl).si() + other.value_at(zl).si())
            })
            .collect();
        Self { steps }
    }
}

impl Default for HeatProfile {
    /// Defaults to [`HeatProfile::zero`].
    fn default() -> Self {
        Self::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wpm(v: f64) -> LinearHeatFlux {
        LinearHeatFlux::from_w_per_m(v)
    }

    fn cm(v: f64) -> Length {
        Length::from_centimeters(v)
    }

    #[test]
    fn zero_profile() {
        let p = HeatProfile::zero();
        assert_eq!(p.value_at(cm(0.5)).si(), 0.0);
        assert_eq!(p.total_power(cm(1.0)).as_watts(), 0.0);
    }

    #[test]
    fn uniform_value_and_power() {
        // Test A per layer: 50 W/cm² × 100 µm pitch = 50 W/m over 1 cm = 0.5 W.
        let p = HeatProfile::uniform(wpm(50.0));
        assert_eq!(p.value_at(cm(0.7)).si(), 50.0);
        assert!((p.total_power(cm(1.0)).as_watts() - 0.5).abs() < 1e-12);
        assert!(p.breakpoints().is_empty());
    }

    #[test]
    fn equal_segments_lookup() {
        let p = HeatProfile::equal_segments(&[wpm(10.0), wpm(20.0), wpm(30.0)], cm(3.0));
        assert_eq!(p.value_at(cm(0.5)).si(), 10.0);
        assert_eq!(p.value_at(cm(1.5)).si(), 20.0);
        assert_eq!(p.value_at(cm(2.9)).si(), 30.0);
        // Boundary belongs to the right segment.
        assert_eq!(p.value_at(cm(1.0)).si(), 20.0);
        assert_eq!(p.breakpoints().len(), 2);
    }

    #[test]
    fn equal_segments_power() {
        let p = HeatProfile::equal_segments(&[wpm(10.0), wpm(20.0)], cm(2.0));
        // 10·0.01 + 20·0.01 = 0.3 W
        assert!((p.total_power(cm(2.0)).as_watts() - 0.3).abs() < 1e-12);
        // Truncated to the first half only.
        assert!((p.total_power(cm(1.0)).as_watts() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn from_steps_sorts_and_pads() {
        let p = HeatProfile::from_steps(vec![(cm(1.0), wpm(20.0)), (cm(0.5), wpm(10.0))]);
        assert_eq!(
            p.value_at(cm(0.1)).si(),
            0.0,
            "padded zero before first step"
        );
        assert_eq!(p.value_at(cm(0.7)).si(), 10.0);
        assert_eq!(p.value_at(cm(1.5)).si(), 20.0);
    }

    #[test]
    fn scaled_profile() {
        let p = HeatProfile::uniform(wpm(100.0)).scaled(0.55);
        assert!((p.value_at(cm(0.3)).si() - 55.0).abs() < 1e-12);
    }

    #[test]
    fn add_profiles_merges_breakpoints() {
        let a = HeatProfile::equal_segments(&[wpm(10.0), wpm(20.0)], cm(2.0));
        let b = HeatProfile::from_steps(vec![(cm(0.5), wpm(5.0))]);
        let sum = a.add(&b);
        assert_eq!(sum.value_at(cm(0.25)).si(), 10.0);
        assert_eq!(sum.value_at(cm(0.75)).si(), 15.0);
        assert_eq!(sum.value_at(cm(1.5)).si(), 25.0);
        // Power adds linearly.
        let pa = a.total_power(cm(2.0)).as_watts();
        let pb = b.total_power(cm(2.0)).as_watts();
        assert!((sum.total_power(cm(2.0)).as_watts() - pa - pb).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_segments_panic() {
        let _ = HeatProfile::equal_segments(&[], cm(1.0));
    }
}
