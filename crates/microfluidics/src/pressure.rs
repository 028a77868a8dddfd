//! Pressure drop along straight and width-modulated microchannels.
//!
//! For fully developed laminar flow the Darcy–Weisbach relation gives a
//! pressure gradient `dP/dz = f · (ρ u_m²/2) / D_h` with `f = (f·Re)/Re`.
//! Eliminating `u_m` and `Re` in favour of the volumetric flow rate `V̇`
//! yields, for a rectangular channel of width `w(z)` and height `H_C`:
//!
//! `dP/dz = (f·Re)/8 · μ V̇ (H_C + w(z))² / (H_C · w(z))³`
//!
//! With [`F_TIMES_RE`] `= 64`, the circular-duct constant the paper uses, this
//! is exactly its Eq. (9) integrand `8 μ V̇ (H_C + w)²/(H_C·w)³`. The pressure
//! drop of a modulated channel is the integral of the gradient over the
//! channel length; for piecewise-constant width profiles the integral is a
//! finite sum and is computed exactly.

use crate::{Coolant, MicrofluidicsError, RectDuct};
use liquamod_units::{Length, Pressure, VolumetricFlowRate};

/// Product of the Darcy friction factor and the Reynolds number, `f·Re`, of
/// fully developed laminar flow: the circular-duct constant that turns
/// Darcy–Weisbach into the paper's Eq. (9).
pub const F_TIMES_RE: f64 = 64.0;

/// Pointwise pressure gradient `dP/dz` (Pa/m) of laminar flow through a
/// rectangular cross-section at flow rate `V̇`.
pub fn pressure_gradient(duct: &RectDuct, coolant: &Coolant, flow_rate: VolumetricFlowRate) -> f64 {
    let mu = coolant.dynamic_viscosity().si();
    let v = flow_rate.as_m3_per_s();
    let w = duct.width().si();
    let h = duct.height().si();
    F_TIMES_RE / 8.0 * mu * v * (h + w).powi(2) / (h * w).powi(3)
}

/// Pressure drop across a channel of *uniform* width.
///
/// # Errors
///
/// Returns [`MicrofluidicsError::InvalidFlow`] if `length` or `flow_rate`
/// is not strictly positive and finite.
pub fn uniform_channel_pressure_drop(
    duct: &RectDuct,
    coolant: &Coolant,
    flow_rate: VolumetricFlowRate,
    length: Length,
) -> crate::Result<Pressure> {
    validate_flow(flow_rate, length)?;
    Ok(Pressure::from_pascals(
        pressure_gradient(duct, coolant, flow_rate) * length.si(),
    ))
}

/// Pressure drop across a channel whose width is a *piecewise-constant*
/// profile: `segments[i]` is the width over the i-th of `n` equal-length
/// segments of the channel. This is the control parameterization the
/// direct-sequential optimizer uses, so the constraint evaluation is exact
/// (a finite sum), not a quadrature approximation.
///
/// # Errors
///
/// Returns [`MicrofluidicsError::InvalidFlow`] if `length` or `flow_rate` is
/// invalid or `segments` is empty, and [`MicrofluidicsError::InvalidDuct`]
/// if any segment width is non-positive.
pub fn modulated_channel_pressure_drop(
    segments: &[Length],
    height: Length,
    coolant: &Coolant,
    flow_rate: VolumetricFlowRate,
    length: Length,
) -> crate::Result<Pressure> {
    validate_flow(flow_rate, length)?;
    if segments.is_empty() {
        return Err(MicrofluidicsError::InvalidFlow {
            parameter: "segment count",
            value: 0.0,
        });
    }
    let seg_len = length.si() / segments.len() as f64;
    let mut total = 0.0;
    for &w in segments {
        let duct = RectDuct::new(w, height)?;
        total += pressure_gradient(&duct, coolant, flow_rate) * seg_len;
    }
    Ok(Pressure::from_pascals(total))
}

/// Pressure drop along an arbitrary width profile `w(z)` given as a closure,
/// integrated with composite Simpson's rule over `n_intervals` (rounded up to
/// even).
///
/// # Errors
///
/// Returns [`MicrofluidicsError::InvalidFlow`] for invalid `length`,
/// `flow_rate` or zero `n_intervals`, and [`MicrofluidicsError::InvalidDuct`]
/// if the profile returns a non-positive width anywhere it is sampled.
pub fn profile_pressure_drop(
    width_at: impl Fn(Length) -> Length,
    height: Length,
    coolant: &Coolant,
    flow_rate: VolumetricFlowRate,
    length: Length,
    n_intervals: usize,
) -> crate::Result<Pressure> {
    validate_flow(flow_rate, length)?;
    if n_intervals == 0 {
        return Err(MicrofluidicsError::InvalidFlow {
            parameter: "quadrature intervals",
            value: 0.0,
        });
    }
    let n = if n_intervals.is_multiple_of(2) {
        n_intervals
    } else {
        n_intervals + 1
    };
    let h_step = length.si() / n as f64;
    let grad = |z: f64| -> crate::Result<f64> {
        let duct = RectDuct::new(width_at(Length::from_meters(z)), height)?;
        Ok(pressure_gradient(&duct, coolant, flow_rate))
    };
    let mut sum = grad(0.0)? + grad(length.si())?;
    for i in 1..n {
        let weight = if i % 2 == 1 { 4.0 } else { 2.0 };
        sum += weight * grad(i as f64 * h_step)?;
    }
    Ok(Pressure::from_pascals(sum * h_step / 3.0))
}

fn validate_flow(flow_rate: VolumetricFlowRate, length: Length) -> crate::Result<()> {
    if !flow_rate.is_finite() || flow_rate.si() <= 0.0 {
        return Err(MicrofluidicsError::InvalidFlow {
            parameter: "flow rate",
            value: flow_rate.si(),
        });
    }
    if !length.is_finite() || length.si() <= 0.0 {
        return Err(MicrofluidicsError::InvalidFlow {
            parameter: "length",
            value: length.si(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_duct(w_um: f64) -> RectDuct {
        RectDuct::new(
            Length::from_micrometers(w_um),
            Length::from_micrometers(100.0),
        )
        .expect("valid duct")
    }

    /// The paper's Eq. (9) integrand, written verbatim for cross-checking.
    fn eq9_integrand(mu: f64, v: f64, hc: f64, wc: f64) -> f64 {
        8.0 * mu * v * (hc + wc).powi(2) / (hc * wc).powi(3)
    }

    #[test]
    fn gradient_matches_paper_eq9() {
        let water = Coolant::water_300k();
        let flow = VolumetricFlowRate::from_ml_per_min(0.3);
        for w_um in [10.0, 20.0, 35.0, 50.0] {
            let duct = paper_duct(w_um);
            let ours = pressure_gradient(&duct, &water, flow);
            let paper = eq9_integrand(
                water.dynamic_viscosity().si(),
                flow.as_m3_per_s(),
                100.0e-6,
                w_um * 1e-6,
            );
            assert!(
                ((ours - paper) / paper).abs() < 1e-12,
                "w = {w_um} um: {ours} vs {paper}"
            );
        }
    }

    #[test]
    fn uniform_drop_scales_with_length() {
        let water = Coolant::water_300k();
        let flow = VolumetricFlowRate::from_ml_per_min(0.3);
        let duct = paper_duct(50.0);
        let p1 = uniform_channel_pressure_drop(&duct, &water, flow, Length::from_centimeters(1.0))
            .unwrap();
        let p2 = uniform_channel_pressure_drop(&duct, &water, flow, Length::from_centimeters(2.0))
            .unwrap();
        assert!((p2.as_pascals() / p1.as_pascals() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn narrow_channel_costs_much_more_pressure() {
        // The trade-off driving the paper's constrained optimization.
        let water = Coolant::water_300k();
        let flow = VolumetricFlowRate::from_ml_per_min(0.3);
        let len = Length::from_centimeters(1.0);
        let wide = uniform_channel_pressure_drop(&paper_duct(50.0), &water, flow, len).unwrap();
        let narrow = uniform_channel_pressure_drop(&paper_duct(10.0), &water, flow, len).unwrap();
        let ratio = narrow.as_pascals() / wide.as_pascals();
        assert!(
            ratio > 50.0,
            "10 um should cost >50x the 50 um drop, got {ratio}"
        );
    }

    #[test]
    fn paper_flow_rate_near_limit_at_max_width() {
        // Sanity anchor of the flow-rate calibration (`ModelParams` docs in
        // thermal-model): at the Table I verbatim flow of 4.8 mL/min/channel
        // a uniform 50 µm channel sits right at the ΔP_max = 10 bar limit.
        let water = Coolant::water_300k();
        let dp = uniform_channel_pressure_drop(
            &paper_duct(50.0),
            &water,
            VolumetricFlowRate::from_ml_per_min(4.8),
            Length::from_centimeters(1.0),
        )
        .unwrap();
        assert!(
            dp.as_bar() > 8.0 && dp.as_bar() < 12.0,
            "dp = {} bar",
            dp.as_bar()
        );
    }

    #[test]
    fn modulated_equals_uniform_when_constant() {
        let water = Coolant::water_300k();
        let flow = VolumetricFlowRate::from_ml_per_min(0.3);
        let len = Length::from_centimeters(1.0);
        let h = Length::from_micrometers(100.0);
        let w = Length::from_micrometers(30.0);
        let uniform =
            uniform_channel_pressure_drop(&RectDuct::new(w, h).unwrap(), &water, flow, len)
                .unwrap();
        let modulated = modulated_channel_pressure_drop(&[w; 7], h, &water, flow, len).unwrap();
        assert!((uniform.as_pascals() - modulated.as_pascals()).abs() < 1e-6);
    }

    #[test]
    fn modulated_is_mean_of_segment_gradients() {
        let water = Coolant::water_300k();
        let flow = VolumetricFlowRate::from_ml_per_min(0.3);
        let len = Length::from_centimeters(1.0);
        let h = Length::from_micrometers(100.0);
        let widths = [
            Length::from_micrometers(50.0),
            Length::from_micrometers(10.0),
        ];
        let modulated = modulated_channel_pressure_drop(&widths, h, &water, flow, len).unwrap();
        let half = Length::from_centimeters(0.5);
        let sum: f64 = widths
            .iter()
            .map(|&w| {
                uniform_channel_pressure_drop(&RectDuct::new(w, h).unwrap(), &water, flow, half)
                    .unwrap()
                    .as_pascals()
            })
            .sum();
        assert!((modulated.as_pascals() - sum).abs() / sum < 1e-12);
    }

    #[test]
    fn profile_quadrature_matches_piecewise_closed_form() {
        let water = Coolant::water_300k();
        let flow = VolumetricFlowRate::from_ml_per_min(0.3);
        let len = Length::from_centimeters(1.0);
        let h = Length::from_micrometers(100.0);
        // Linear taper 50 µm → 20 µm.
        let width_at = |z: Length| Length::from_micrometers(50.0 - 30.0 * (z.si() / len.si()));
        let coarse = profile_pressure_drop(width_at, h, &water, flow, len, 64).unwrap();
        let fine = profile_pressure_drop(width_at, h, &water, flow, len, 4096).unwrap();
        let rel = ((coarse.as_pascals() - fine.as_pascals()) / fine.as_pascals()).abs();
        assert!(rel < 1e-6, "Simpson convergence failure: rel = {rel}");
    }

    #[test]
    fn odd_interval_count_is_rounded_up() {
        let water = Coolant::water_300k();
        let flow = VolumetricFlowRate::from_ml_per_min(0.3);
        let len = Length::from_centimeters(1.0);
        let h = Length::from_micrometers(100.0);
        let w = Length::from_micrometers(30.0);
        let odd = profile_pressure_drop(|_| w, h, &water, flow, len, 33).unwrap();
        let uniform =
            uniform_channel_pressure_drop(&RectDuct::new(w, h).unwrap(), &water, flow, len)
                .unwrap();
        assert!((odd.as_pascals() - uniform.as_pascals()).abs() / uniform.as_pascals() < 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        let water = Coolant::water_300k();
        let h = Length::from_micrometers(100.0);
        let w = Length::from_micrometers(30.0);
        assert!(uniform_channel_pressure_drop(
            &RectDuct::new(w, h).unwrap(),
            &water,
            VolumetricFlowRate::ZERO,
            Length::from_centimeters(1.0),
        )
        .is_err());
        assert!(modulated_channel_pressure_drop(
            &[],
            h,
            &water,
            VolumetricFlowRate::from_ml_per_min(0.3),
            Length::from_centimeters(1.0),
        )
        .is_err());
        assert!(modulated_channel_pressure_drop(
            &[Length::ZERO],
            h,
            &water,
            VolumetricFlowRate::from_ml_per_min(0.3),
            Length::from_centimeters(1.0),
        )
        .is_err());
        assert!(profile_pressure_drop(
            |_| w,
            h,
            &water,
            VolumetricFlowRate::from_ml_per_min(0.3),
            Length::from_centimeters(1.0),
            0,
        )
        .is_err());
    }
}
