//! Canned experiment definitions — one per figure of the paper's §V.
//!
//! These are the single entry points the bench harness, the integration
//! tests and the examples all share, so every reported number comes from
//! the same code path.

use crate::compare::DesignComparison;
use crate::design::OptimizationConfig;
use crate::scenario::{mpsoc_model, strip_model, MpsocScenario};
use crate::Result;
use liquamod_floorplan::arch::{self, Architecture};
use liquamod_floorplan::{testcase, PowerLevel};
use liquamod_thermal_model::{ModelParams, SolveOptions};

/// Default number of grouped channel columns used for the MPSoC scenarios
/// (100 physical channels reduced to 10 nodes, per §III's model reduction).
pub const MPSOC_GROUPS: usize = 10;

/// Fig. 5a/6a — Test A (uniform 50 W/cm² per layer) on the single-channel
/// strip: three-way comparison.
///
/// # Errors
///
/// Propagates model and optimizer failures.
pub fn test_a(params: &ModelParams, config: &OptimizationConfig) -> Result<DesignComparison> {
    let model = strip_model(&testcase::test_a(), params)?;
    DesignComparison::run(&model, config)
}

/// Fig. 5b/6b — Test B (random 50–250 W/cm² segments, deterministic seed)
/// on the single-channel strip: three-way comparison.
///
/// # Errors
///
/// Propagates model and optimizer failures.
pub fn test_b(params: &ModelParams, config: &OptimizationConfig) -> Result<DesignComparison> {
    let model = strip_model(&testcase::test_b(), params)?;
    DesignComparison::run(&model, config)
}

/// Test B with an explicit seed (robustness sweeps).
///
/// # Errors
///
/// Propagates model and optimizer failures.
pub fn test_b_seeded(
    params: &ModelParams,
    config: &OptimizationConfig,
    seed: u64,
) -> Result<DesignComparison> {
    let load = testcase::test_b_seeded(seed, testcase::TEST_B_SEGMENTS);
    let model = strip_model(&load, params)?;
    DesignComparison::run(&model, config)
}

/// One Fig. 8 bar group: the named architecture at the given power level,
/// compared across minimum/maximum/optimal widths. Returns the scenario
/// too, so callers can reuse the flux grids (Fig. 9 maps).
///
/// `arch_index` is 1-based like the paper ("Arch. 1" … "Arch. 3").
///
/// # Errors
///
/// [`crate::CoreError::InvalidConfig`] for an unknown architecture index;
/// model and optimizer failures are propagated.
pub fn mpsoc(
    arch_index: usize,
    level: PowerLevel,
    params: &ModelParams,
    config: &OptimizationConfig,
) -> Result<(MpsocScenario, DesignComparison)> {
    let scenario = mpsoc_model(&architecture(arch_index)?, level, params, MPSOC_GROUPS)?;
    let comparison = DesignComparison::run(&scenario.model, config)?;
    Ok((scenario, comparison))
}

/// The paper's architecture `arch_index` (1-based, "Arch. 1" … "Arch. 3").
fn architecture(arch_index: usize) -> Result<Architecture> {
    match arch_index {
        1 => Ok(arch::arch1()),
        2 => Ok(arch::arch2()),
        3 => Ok(arch::arch3()),
        other => Err(crate::CoreError::InvalidConfig {
            what: format!("architecture index {other} (paper defines 1..=3)"),
        }),
    }
}

/// A deliberately small two-group MPSoC-style scenario (a 2 mm-wide slice
/// of Arch. 1) for fast integration testing of the multi-column paths —
/// notably the Eq. (10) equal-pressure coupling. Not a paper figure.
///
/// # Errors
///
/// Propagates model and optimizer failures.
pub fn mpsoc_small_for_tests(
    params: &ModelParams,
    config: &OptimizationConfig,
) -> Result<(MpsocScenario, crate::DesignComparison)> {
    use liquamod_floorplan::{Block, Floorplan};
    use liquamod_units::Length;

    // A 2 mm-wide vertical slice of the Niagara die: one core column over
    // the full depth on the left half, low-power filler on the right.
    let full = liquamod_floorplan::niagara::floorplan();
    let slice_width = Length::from_millimeters(2.0);
    let depth = full.depth();
    let hot = Block::new(
        "slice-core",
        liquamod_floorplan::BlockKind::SparcCore,
        liquamod_units::Rect::from_mm(0.0, 0.0, 1.0, depth.as_millimeters()).expect("valid slice"),
        liquamod_units::Power::from_watts(4.0),
        liquamod_units::Power::from_watts(2.2),
    )?;
    let cool = Block::new(
        "slice-filler",
        liquamod_floorplan::BlockKind::Other,
        liquamod_units::Rect::from_mm(1.0, 0.0, 1.0, depth.as_millimeters()).expect("valid slice"),
        liquamod_units::Power::from_watts(0.8),
        liquamod_units::Power::from_watts(0.5),
    )?;
    let die = Floorplan::new("slice", slice_width, depth, vec![hot, cool])?;
    let architecture = Architecture::new("slice-arch", "test slice", die.clone(), die);
    let scenario = mpsoc_model(&architecture, PowerLevel::Peak, params, 2)?;
    let comparison = crate::DesignComparison::run(&scenario.model, config)?;
    Ok((scenario, comparison))
}

/// The full Fig. 8 sweep: all three architectures × {peak, average}.
/// Returns `(arch_index, level, comparison)` triples in paper order.
///
/// Note the paper's §V-B protocol: the widths are optimized at *peak* power
/// (design time), and the same geometry is then evaluated at average power.
/// This function follows that protocol: for `PowerLevel::Average` entries
/// the widths come from the peak optimization and only the loads change.
///
/// # Errors
///
/// Propagates model and optimizer failures.
pub fn fig8_sweep(
    params: &ModelParams,
    config: &OptimizationConfig,
) -> Result<Vec<(usize, PowerLevel, DesignComparison)>> {
    let mut out = Vec::with_capacity(6);
    for arch_index in 1..=3 {
        let (_, peak_cmp) = mpsoc(arch_index, PowerLevel::Peak, params, config)?;
        // Re-evaluate the peak-optimized geometry under average loads.
        let avg_cmp =
            reevaluate_at_level(arch_index, PowerLevel::Average, params, config, &peak_cmp)?;
        out.push((arch_index, PowerLevel::Peak, peak_cmp));
        out.push((arch_index, PowerLevel::Average, avg_cmp));
    }
    Ok(out)
}

/// Applies a peak-optimized design's width profiles to the same
/// architecture at another power level and recomputes all three cases
/// (the optimal case keeps the *peak* widths, per the paper's protocol).
fn reevaluate_at_level(
    arch_index: usize,
    level: PowerLevel,
    params: &ModelParams,
    config: &OptimizationConfig,
    peak: &DesignComparison,
) -> Result<DesignComparison> {
    let scenario = mpsoc_model(&architecture(arch_index)?, level, params, MPSOC_GROUPS)?;
    let mut outcome = peak.outcome.clone();
    outcome.model = scenario.model.clone();
    for (c, w) in peak.outcome.widths.iter().enumerate() {
        outcome.model.set_width_profile(c, w.clone())?;
    }
    outcome.solution = outcome
        .model
        .solve(&SolveOptions::with_mesh_intervals(config.mesh_intervals))?;
    DesignComparison::score(&scenario.model, config.mesh_intervals, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_architecture_is_rejected() {
        let params = ModelParams::date2012();
        let config = OptimizationConfig::fast();
        assert!(mpsoc(0, PowerLevel::Peak, &params, &config).is_err());
        assert!(mpsoc(4, PowerLevel::Peak, &params, &config).is_err());
    }

    // The heavier experiment paths are exercised by the integration tests
    // and the bench harness; here we only verify the wiring stays cheap to
    // misuse-check.
}
