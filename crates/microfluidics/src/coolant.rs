//! Coolant property sets.

use crate::MicrofluidicsError;
use liquamod_units::{ThermalConductivity, Viscosity, VolumetricHeatCapacity};

/// A single-phase liquid coolant with constant (temperature-independent)
/// properties, per the paper's assumption 2 in §IV.
///
/// The paper's experiments use de-ionized water at an inlet temperature of
/// 300 K ([`Coolant::water_300k`]); Table I gives the volumetric heat capacity
/// `c_v = 4.17 MJ/(m³·K)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Coolant {
    thermal_conductivity: ThermalConductivity,
    volumetric_heat_capacity: VolumetricHeatCapacity,
    dynamic_viscosity: Viscosity,
    density: f64,
}

impl Coolant {
    /// Creates a coolant from explicit properties.
    ///
    /// # Errors
    ///
    /// Returns [`MicrofluidicsError::InvalidCoolant`] if any property is not
    /// strictly positive and finite.
    pub fn new(
        thermal_conductivity: ThermalConductivity,
        volumetric_heat_capacity: VolumetricHeatCapacity,
        dynamic_viscosity: Viscosity,
        density_kg_per_m3: f64,
    ) -> crate::Result<Self> {
        fn check(property: &'static str, value: f64) -> crate::Result<()> {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(MicrofluidicsError::InvalidCoolant { property, value })
            }
        }
        check("thermal conductivity", thermal_conductivity.si())?;
        check("volumetric heat capacity", volumetric_heat_capacity.si())?;
        check("dynamic viscosity", dynamic_viscosity.si())?;
        check("density", density_kg_per_m3)?;
        Ok(Self {
            thermal_conductivity,
            volumetric_heat_capacity,
            dynamic_viscosity,
            density: density_kg_per_m3,
        })
    }

    /// De-ionized water at 300 K — the paper's coolant.
    ///
    /// `k_f = 0.610 W/(m·K)`, `c_v = 4.17 MJ/(m³·K)` (Table I),
    /// `μ = 8.55·10⁻⁴ Pa·s`, `ρ = 996.5 kg/m³`.
    pub fn water_300k() -> Self {
        Self::new(
            ThermalConductivity::from_w_per_m_k(0.610),
            VolumetricHeatCapacity::from_j_per_m3_k(4.17e6),
            Viscosity::from_pa_s(8.55e-4),
            996.5,
        )
        .expect("built-in water properties are valid")
    }

    /// Thermal conductivity `k_f`.
    pub fn thermal_conductivity(&self) -> ThermalConductivity {
        self.thermal_conductivity
    }

    /// Volumetric heat capacity `c_v = ρ·c_p`.
    pub fn volumetric_heat_capacity(&self) -> VolumetricHeatCapacity {
        self.volumetric_heat_capacity
    }

    /// Dynamic viscosity `μ`.
    pub fn dynamic_viscosity(&self) -> Viscosity {
        self.dynamic_viscosity
    }

    /// Mass density `ρ` in kg/m³.
    pub fn density_kg_per_m3(&self) -> f64 {
        self.density
    }
}

impl Default for Coolant {
    /// Defaults to the paper's coolant, [`Coolant::water_300k`].
    fn default() -> Self {
        Self::water_300k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_properties_match_table1() {
        let w = Coolant::water_300k();
        assert!((w.volumetric_heat_capacity().si() - 4.17e6).abs() < 1.0);
        assert!((w.thermal_conductivity().si() - 0.610).abs() < 1e-12);
    }

    #[test]
    fn rejects_nonpositive_properties() {
        let err = Coolant::new(
            ThermalConductivity::from_w_per_m_k(0.0),
            VolumetricHeatCapacity::from_j_per_m3_k(4e6),
            Viscosity::from_pa_s(1e-3),
            1000.0,
        );
        assert!(matches!(
            err,
            Err(MicrofluidicsError::InvalidCoolant {
                property: "thermal conductivity",
                ..
            })
        ));
    }

    #[test]
    fn rejects_nan_density() {
        let err = Coolant::new(
            ThermalConductivity::from_w_per_m_k(0.6),
            VolumetricHeatCapacity::from_j_per_m3_k(4e6),
            Viscosity::from_pa_s(1e-3),
            f64::NAN,
        );
        assert!(err.is_err());
    }

    #[test]
    fn default_is_water() {
        assert_eq!(Coolant::default(), Coolant::water_300k());
    }
}
