//! Conversions between the analytical-model world and the finite-volume
//! simulator: flux grids → power maps, width profiles → per-cell widths,
//! and a one-call builder for the paper's two-die stacks.

use crate::{CoreError, Result};
use liquamod_floorplan::FluxGrid;
use liquamod_grid_sim::{
    CavitySpec, CavityWidths, PowerMap, Stack, StackBuilder, SILICON_CONDUCTIVITY,
};
use liquamod_thermal_model::{HeatProfile, ModelParams, WidthProfile};
use liquamod_units::{Length, LinearHeatFlux, Power};

/// Aggregates `group_size` adjacent grid columns (group `group`) into one
/// per-channel heat profile, scaled by `factor` — the §III model-reduction
/// exchange format ("combine two or more channels under a single set of top
/// and bottom nodes") shared by the steady MPSoC scenario
/// ([`crate::mpsoc_model`]) and the transient MPSoC stack family
/// ([`crate::mpsoc::MpsocModulated`]).
///
/// # Panics
///
/// Panics if the group's column range exceeds the grid (the callers
/// validate `group_size · n_groups == nx` at construction).
#[must_use]
pub fn group_heat_profile(
    grid: &FluxGrid,
    group: usize,
    group_size: usize,
    factor: f64,
) -> HeatProfile {
    let mut profile = HeatProfile::zero();
    for i in group * group_size..(group + 1) * group_size {
        let steps = grid
            .column_steps(i)
            .into_iter()
            .map(|(z, q)| (Length::from_meters(z), LinearHeatFlux::from_w_per_m(q)))
            .collect();
        profile = profile.add(&HeatProfile::from_steps(steps));
    }
    profile.scaled(factor)
}

/// Converts a rasterized flux grid into a grid-sim power map (same grid).
pub fn power_map_from_grid(grid: &FluxGrid) -> PowerMap {
    let (nx, nz) = grid.dims();
    let mut map = PowerMap::zeros(nx, nz);
    let watts = grid.cell_watts();
    for j in 0..nz {
        for i in 0..nx {
            map.set_cell(i, j, Power::from_watts(watts[j * nx + i]));
        }
    }
    map
}

/// Samples per-column width profiles at `nz` cell centres, expanding
/// grouped columns so that every physical channel gets its group's profile.
///
/// `profiles[g]` applies to `group_size` adjacent channels; the result has
/// `profiles.len() × group_size` columns of `nz` samples each.
pub fn cavity_widths_from_profiles(
    profiles: &[WidthProfile],
    group_size: usize,
    channel_length: Length,
    nz: usize,
) -> CavityWidths {
    let mut columns = Vec::with_capacity(profiles.len() * group_size);
    for profile in profiles {
        let samples: Vec<Length> = (0..nz)
            .map(|j| {
                let z = Length::from_meters((j as f64 + 0.5) * channel_length.si() / nz as f64);
                profile.width_at(z, channel_length)
            })
            .collect();
        for _ in 0..group_size {
            columns.push(samples.clone());
        }
    }
    CavityWidths::PerColumn(columns)
}

/// Refuses model parameters whose silicon the finite-volume plant cannot
/// represent: every plant solid conducts at grid-sim's silicon constant, so
/// a run with another `k_si` would optimize one material and step another.
pub(crate) fn check_plant_silicon(params: &ModelParams) -> Result<()> {
    let (k, plant) = (params.k_si.si(), SILICON_CONDUCTIVITY.si());
    if k == plant {
        Ok(())
    } else {
        Err(CoreError::InvalidConfig {
            what: format!(
                "k_si must be the finite-volume plant's silicon conductivity \
                 {plant} W/(m·K), got {k}"
            ),
        })
    }
}

/// The finite-volume cavity for the model's channels: `H_C`, the model's
/// coolant and per-channel flow rate, and the given widths.
pub(crate) fn cavity_spec(params: &ModelParams, widths: CavityWidths) -> Result<CavitySpec> {
    check_plant_silicon(params)?;
    Ok(CavitySpec {
        height: params.h_c,
        coolant: params.coolant.clone(),
        flow_rate_per_channel: params.flow_rate_per_channel,
        widths,
    })
}

/// Builds the paper's two-die stack (active silicon / cavity / active
/// silicon) for the finite-volume simulator:
///
/// * die extents from the flux grids;
/// * both dies as `H_Si`-thick silicon layers carrying the grids' power;
/// * one cavity at `H_C` with the given widths and the model's coolant,
///   flow rate and inlet temperature.
///
/// The paper's convention maps the *top* die onto the analytical model's
/// top layer: grid-sim layers are listed bottom→top.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] when `params.k_si` is not the plant's
/// silicon conductivity; propagates stack-validation failures (mismatched
/// grids, bad widths).
pub fn two_die_stack(
    params: &ModelParams,
    top_grid: &FluxGrid,
    bottom_grid: &FluxGrid,
    widths: CavityWidths,
) -> Result<Stack> {
    let (nx, nz) = top_grid.dims();
    let stack = StackBuilder::new(top_grid.die_width(), top_grid.die_length(), nx, nz)
        .inlet_temperature(params.inlet_temperature)
        .silicon_layer("bottom-die", params.h_si)
        .powered_by(power_map_from_grid(bottom_grid))
        .microchannel_cavity_with(cavity_spec(params, widths)?)
        .silicon_layer("top-die", params.h_si)
        .powered_by(power_map_from_grid(top_grid))
        .build()?;
    Ok(stack)
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquamod_floorplan::{arch, PowerLevel};

    #[test]
    fn power_map_conserves_power() {
        let grid = arch::arch1().top_die().rasterize(20, 22, PowerLevel::Peak);
        let map = power_map_from_grid(&grid);
        assert!(
            (map.total().as_watts() - grid.total_power().as_watts()).abs() < 1e-9,
            "map {} W vs grid {} W",
            map.total().as_watts(),
            grid.total_power().as_watts()
        );
    }

    #[test]
    fn width_sampling_expands_groups() {
        let d = Length::from_centimeters(1.0);
        let profiles = vec![
            WidthProfile::uniform(Length::from_micrometers(20.0)),
            WidthProfile::piecewise_constant(vec![
                Length::from_micrometers(50.0),
                Length::from_micrometers(10.0),
            ]),
        ];
        let widths = cavity_widths_from_profiles(&profiles, 3, d, 4);
        match widths {
            CavityWidths::PerColumn(cols) => {
                assert_eq!(cols.len(), 6);
                assert_eq!(cols[0].len(), 4);
                // First group uniform.
                assert!(cols[1]
                    .iter()
                    .all(|w| (w.as_micrometers() - 20.0).abs() < 1e-9));
                // Second group steps 50 → 10 at half length.
                assert!((cols[3][0].as_micrometers() - 50.0).abs() < 1e-9);
                assert!((cols[3][3].as_micrometers() - 10.0).abs() < 1e-9);
            }
            other => panic!("expected per-column widths, got {other:?}"),
        }
    }

    #[test]
    fn two_die_stack_builds_and_solves() {
        let params = liquamod_thermal_model::ModelParams::date2012();
        let a1 = arch::arch1();
        // Tiny grid for speed: 10 channels, 11 z-cells.
        let top = a1.top_die().rasterize(10, 11, PowerLevel::Peak);
        let bottom = a1.bottom_die().rasterize(10, 11, PowerLevel::Peak);
        let stack = two_die_stack(
            &params,
            &top,
            &bottom,
            CavityWidths::Uniform(Length::from_micrometers(50.0)),
        )
        .unwrap();
        assert_eq!(stack.n_layers(), 3);
        let field = stack.solve_steady().unwrap();
        assert!(field.peak_temperature().as_kelvin() > 300.0);
        assert!(field.energy_balance_residual() < 1e-6);
    }

    #[test]
    fn two_die_stack_refuses_a_silicon_the_plant_cannot_build() {
        // Every plant solid is silicon at grid-sim's constant: another k_si
        // would optimize one material and step another.
        let mut params = liquamod_thermal_model::ModelParams::date2012();
        assert!(check_plant_silicon(&params).is_ok());
        params.k_si = liquamod_units::ThermalConductivity::from_w_per_m_k(150.0);
        let a1 = arch::arch1();
        let top = a1.top_die().rasterize(10, 11, PowerLevel::Peak);
        let bottom = a1.bottom_die().rasterize(10, 11, PowerLevel::Peak);
        let widths = CavityWidths::Uniform(Length::from_micrometers(50.0));
        assert!(matches!(
            two_die_stack(&params, &top, &bottom, widths),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}
