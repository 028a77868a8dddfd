//! Fully developed laminar Nusselt number for rectangular ducts.
//!
//! The paper computes convective resistances from "Nusselt number correlations
//! (as a function of channel aspect ratio) presented by Shah & London"
//! (§III, ref. \[16\]). Shah & London, *Laminar Flow Forced Convection in
//! Ducts* (1978), give fifth-order polynomial fits in the duct aspect ratio
//! `α` for fully developed flow. The model uses the **H1** boundary
//! condition — axially constant heat flux with circumferentially constant
//! wall temperature — which matches a silicon wall (high conductivity around
//! the perimeter) carrying an imposed heat flux. Entry-length effects are
//! ignored, per the paper's assumption 2 (fully developed flow).

use crate::{Coolant, RectDuct};
use liquamod_units::HeatTransferCoefficient;

/// Fully developed H1 Nusselt number of the duct (Shah & London 1978,
/// Table 42 fit), with `α` the aspect ratio:
///
/// `Nu = 8.235 (1 − 2.0421α + 3.0853α² − 2.4765α³ + 1.0578α⁴ − 0.1861α⁵)`
pub fn nusselt(duct: &RectDuct) -> f64 {
    let a = duct.aspect_ratio();
    8.235
        * (1.0 - 2.0421 * a + 3.0853 * a.powi(2) - 2.4765 * a.powi(3) + 1.0578 * a.powi(4)
            - 0.1861 * a.powi(5))
}

/// Convective heat-transfer coefficient `h = Nu · k_f / D_h`.
pub fn heat_transfer_coefficient(duct: &RectDuct, coolant: &Coolant) -> HeatTransferCoefficient {
    let nu = nusselt(duct);
    HeatTransferCoefficient::from_w_per_m2_k(
        nu * coolant.thermal_conductivity().si() / duct.hydraulic_diameter().si(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquamod_units::Length;

    fn duct(w_um: f64, h_um: f64) -> RectDuct {
        RectDuct::new(
            Length::from_micrometers(w_um),
            Length::from_micrometers(h_um),
        )
        .expect("valid duct")
    }

    #[test]
    fn h1_known_values() {
        // Shah & London Table 42: α = 1 (square) → Nu_H1 ≈ 3.61; α → 0
        // (parallel plates) → 8.235.
        let square = nusselt(&duct(100.0, 100.0));
        assert!((square - 3.61).abs() < 0.05, "square Nu_H1 = {square}");
        let slot = nusselt(&duct(0.01, 100.0));
        assert!((slot - 8.235).abs() < 0.02, "slot Nu_H1 = {slot}");
    }

    #[test]
    fn narrower_channel_higher_h() {
        // The physical basis of channel modulation (paper §I): reducing the
        // width at constant height raises the heat-transfer coefficient.
        let water = Coolant::water_300k();
        let mut last = 0.0;
        for w in [50.0, 40.0, 30.0, 20.0, 10.0] {
            let h = heat_transfer_coefficient(&duct(w, 100.0), &water).as_w_per_m2_k();
            assert!(h > last, "h({w} um) = {h} should exceed {last}");
            last = h;
        }
    }

    #[test]
    fn h_magnitude_is_realistic() {
        // For w = 50 µm, H = 100 µm with water: h ≈ 3.8e4 W/m²K.
        let h = heat_transfer_coefficient(&duct(50.0, 100.0), &Coolant::water_300k());
        assert!(
            h.as_w_per_m2_k() > 3.0e4 && h.as_w_per_m2_k() < 5.0e4,
            "h = {} W/m2K",
            h.as_w_per_m2_k()
        );
    }
}
