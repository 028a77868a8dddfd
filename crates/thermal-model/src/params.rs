//! Model parameter sets, anchored on the paper's Table I.

use liquamod_microfluidics::Coolant;
use liquamod_units::{Length, Pressure, Temperature, ThermalConductivity, VolumetricFlowRate};

/// Physical and design parameters of a liquid-cooled 3D-IC channel system.
///
/// The defaults mirror the paper's Table I:
///
/// | parameter | value |
/// |---|---|
/// | `k_Si` silicon thermal conductivity | 130 W/(m·K) |
/// | `W` channel pitch | 100 µm |
/// | `H_Si` silicon slab height | 50 µm |
/// | `H_C` channel height | 100 µm |
/// | `c_v` coolant volumetric heat capacity | 4.17 MJ/(m³·K) |
/// | `V̇` coolant volumetric flow rate | see below |
/// | `T_C,in` coolant inlet temperature | 300 K |
/// | `ΔP_max` maximum pressure difference | 10 bar |
/// | `w_Cmin` / `w_Cmax` channel width bounds | 10 µm / 50 µm |
///
/// **Flow-rate calibration**: Table I prints
/// `4.8 mL/min/channel`, but at that rate the sensible coolant heating for the
/// paper's Test A is ≈1.5 °C — inconsistent with the 28 °C inlet→outlet
/// gradients the paper reports, which require an advection-dominated regime.
/// Calibrating the model against the paper's three Test-A observations
/// (gradient ≈ 28 °C for *both* uniform widths; optimal modulation reducing
/// it by ≈32 %) fixes the per-channel flow near `0.5 mL/min` (sensible rise
/// `2·50 W/m·1 cm / (c_v·V̇) ≈ 29 K`). [`ModelParams::date2012`] therefore
/// uses 0.5 mL/min/channel; [`ModelParams::table1_verbatim`] keeps the
/// printed 4.8 mL/min/channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// Silicon thermal conductivity `k_Si`.
    pub k_si: ThermalConductivity,
    /// Channel pitch `W` (one channel + one wall per pitch).
    pub pitch: Length,
    /// Silicon slab height `H_Si` (each of the two slabs).
    pub h_si: Length,
    /// Channel height `H_C`.
    pub h_c: Length,
    /// Coolant property set.
    pub coolant: Coolant,
    /// Volumetric flow rate per physical channel.
    pub flow_rate_per_channel: VolumetricFlowRate,
    /// Coolant inlet temperature `T_C,in`.
    pub inlet_temperature: Temperature,
    /// Maximum allowed per-channel pressure drop `ΔP_max`.
    pub dp_max: Pressure,
    /// Minimum manufacturable channel width `w_Cmin`.
    pub w_min: Length,
    /// Maximum channel width `w_Cmax` (TSV clearance).
    pub w_max: Length,
}

impl ModelParams {
    /// Table I parameters with the calibrated per-channel flow rate of
    /// 0.5 mL/min (the repository default; see the type-level docs).
    pub fn date2012() -> Self {
        Self {
            k_si: ThermalConductivity::from_w_per_m_k(130.0),
            pitch: Length::from_micrometers(100.0),
            h_si: Length::from_micrometers(50.0),
            h_c: Length::from_micrometers(100.0),
            coolant: Coolant::water_300k(),
            flow_rate_per_channel: VolumetricFlowRate::from_ml_per_min(0.5),
            inlet_temperature: Temperature::from_kelvin(300.0),
            dp_max: Pressure::from_bar(10.0),
            w_min: Length::from_micrometers(10.0),
            w_max: Length::from_micrometers(50.0),
        }
    }

    /// Table I parameters exactly as printed, including the
    /// 4.8 mL/min/channel flow rate.
    pub fn table1_verbatim() -> Self {
        Self {
            flow_rate_per_channel: VolumetricFlowRate::from_ml_per_min(4.8),
            ..Self::date2012()
        }
    }

    /// Longitudinal conductance of one active layer over one pitch,
    /// `ĝ_l = k_Si·W·H_Si` (units W·m).
    pub fn g_longitudinal(&self) -> f64 {
        self.k_si.si() * self.pitch.si() * self.h_si.si()
    }

    /// Vertical slab conductance per unit length, `ĝ_v,Si = k_Si·W/H_Si`.
    pub fn g_vertical_si(&self) -> f64 {
        self.k_si.si() * self.pitch.si() / self.h_si.si()
    }

    /// Advective capacity rate per channel, `c_v·V̇` (W/K).
    pub fn capacity_rate(&self) -> f64 {
        self.coolant.volumetric_heat_capacity().si() * self.flow_rate_per_channel.si()
    }

    /// Validates the parameter set; returns a list of human-readable
    /// violations (empty when valid).
    pub fn validation_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        let mut need_pos = |name: &str, v: f64| {
            if !(v.is_finite() && v > 0.0) {
                errors.push(format!("{name} must be positive and finite, got {v}"));
            }
        };
        need_pos("k_si", self.k_si.si());
        need_pos("pitch", self.pitch.si());
        need_pos("h_si", self.h_si.si());
        need_pos("h_c", self.h_c.si());
        need_pos("flow_rate_per_channel", self.flow_rate_per_channel.si());
        need_pos("inlet_temperature", self.inlet_temperature.si());
        need_pos("dp_max", self.dp_max.si());
        need_pos("w_min", self.w_min.si());
        need_pos("w_max", self.w_max.si());
        if self.w_min.si() >= self.w_max.si() {
            errors.push(format!(
                "w_min ({}) must be below w_max ({})",
                self.w_min, self.w_max
            ));
        }
        if self.w_max.si() >= self.pitch.si() {
            errors.push(format!(
                "w_max ({}) must leave a silicon wall within the pitch ({})",
                self.w_max, self.pitch
            ));
        }
        errors
    }
}

impl Default for ModelParams {
    /// Defaults to [`ModelParams::date2012`].
    fn default() -> Self {
        Self::date2012()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date2012_is_valid() {
        assert!(ModelParams::date2012().validation_errors().is_empty());
        assert!(ModelParams::table1_verbatim()
            .validation_errors()
            .is_empty());
    }

    #[test]
    fn table1_values() {
        let p = ModelParams::table1_verbatim();
        assert!((p.k_si.si() - 130.0).abs() < 1e-12);
        assert!((p.pitch.as_micrometers() - 100.0).abs() < 1e-9);
        assert!((p.h_si.as_micrometers() - 50.0).abs() < 1e-9);
        assert!((p.h_c.as_micrometers() - 100.0).abs() < 1e-9);
        assert!((p.flow_rate_per_channel.as_ml_per_min() - 4.8).abs() < 1e-9);
        assert!((p.inlet_temperature.as_kelvin() - 300.0).abs() < 1e-12);
        assert!((p.dp_max.as_bar() - 10.0).abs() < 1e-12);
        assert!((p.w_min.as_micrometers() - 10.0).abs() < 1e-9);
        assert!((p.w_max.as_micrometers() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn derived_circuit_parameters() {
        let p = ModelParams::date2012();
        // ĝ_l = 130 · 1e-4 · 5e-5 = 6.5e-7 W·m
        assert!((p.g_longitudinal() - 6.5e-7).abs() < 1e-18);
        // ĝ_v,Si = 130 · 1e-4/5e-5 = 260 W/(m·K)
        assert!((p.g_vertical_si() - 260.0).abs() < 1e-9);
        // c_v·V̇ = 4.17e6 · 8.333e-9 = 0.034750 W/K
        assert!((p.capacity_rate() - 0.034750).abs() < 1e-6);
    }

    #[test]
    fn calibrated_flow_is_cluster_share_of_verbatim() {
        let cal = ModelParams::date2012()
            .flow_rate_per_channel
            .as_ml_per_min();
        let verb = ModelParams::table1_verbatim()
            .flow_rate_per_channel
            .as_ml_per_min();
        assert!((verb / cal - 9.6).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_inverted_bounds() {
        let mut p = ModelParams::date2012();
        p.w_min = Length::from_micrometers(60.0);
        let errs = p.validation_errors();
        assert!(errs.iter().any(|e| e.contains("w_min")));
    }

    #[test]
    fn validation_catches_width_beyond_pitch() {
        let mut p = ModelParams::date2012();
        p.w_max = Length::from_micrometers(120.0);
        let errs = p.validation_errors();
        assert!(errs.iter().any(|e| e.contains("wall")));
    }

    #[test]
    fn validation_catches_nonpositive() {
        let mut p = ModelParams::date2012();
        p.h_c = Length::ZERO;
        assert!(!p.validation_errors().is_empty());
    }
}
