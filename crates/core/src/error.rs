//! Error type for the core design flow.

use liquamod_floorplan::FloorplanError;
use liquamod_grid_sim::GridSimError;
use liquamod_microfluidics::MicrofluidicsError;
use liquamod_optimal_control::OptimalControlError;
use liquamod_thermal_model::ThermalModelError;
use std::fmt;

/// Error returned by the channel-modulation design flow.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A thermal-model operation failed.
    ThermalModel(ThermalModelError),
    /// A fluid-side computation failed.
    Microfluidics(MicrofluidicsError),
    /// A grid-simulation operation failed.
    GridSim(GridSimError),
    /// A floorplan/workload construction failed.
    Floorplan(FloorplanError),
    /// An optimizer configuration failed.
    OptimalControl(OptimalControlError),
    /// A design-flow configuration is invalid.
    InvalidConfig {
        /// Human-readable description.
        what: String,
    },
    /// A shared pump budget has no feasible allocation inside the valve
    /// band — either at fleet entry or mid-run after a pump-degradation
    /// fault shrank the total. Carries the offending budget so degraded-mode
    /// handlers can clamp to the nearest feasible band instead of aborting.
    BudgetInfeasible {
        /// The (possibly decayed) total flow-scale the pump sustains.
        total_scale: f64,
        /// Per-stack valve minimum, flow-scale units.
        min_scale: f64,
        /// Per-stack valve maximum, flow-scale units.
        max_scale: f64,
        /// Fleet size the budget was validated against.
        n_stacks: usize,
        /// Reallocation segment at which the violation surfaced; `None`
        /// when the budget was already infeasible at entry.
        segment: Option<usize>,
    },
    /// A JSON document (session snapshot, resume state, golden fixture,
    /// BENCH record) does not parse strictly or lacks what its schema
    /// reads — see [`crate::json`].
    InvalidDocument {
        /// Human-readable description, with the byte offset for parse
        /// errors.
        what: String,
    },
    /// A sweep/fleet worker thread panicked while evaluating one scheduling
    /// unit. The panic is caught at the fan-out boundary and surfaced as a
    /// typed error so long-running hosts (the serve pool, the bench
    /// binaries) can degrade instead of dying with the process.
    WorkerPanicked {
        /// Label of the scheduling unit that panicked (variant, chain,
        /// fleet task or serve session).
        unit: String,
        /// The panic payload, when it was a string (the common
        /// `panic!`/`assert!` case).
        payload: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ThermalModel(e) => write!(f, "thermal model: {e}"),
            CoreError::Microfluidics(e) => write!(f, "microfluidics: {e}"),
            CoreError::GridSim(e) => write!(f, "grid simulation: {e}"),
            CoreError::Floorplan(e) => write!(f, "floorplan: {e}"),
            CoreError::OptimalControl(e) => write!(f, "optimizer: {e}"),
            CoreError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            CoreError::InvalidDocument { what } => write!(f, "invalid document: {what}"),
            CoreError::BudgetInfeasible {
                total_scale,
                min_scale,
                max_scale,
                n_stacks,
                segment,
            } => {
                let n = *n_stacks as f64;
                write!(
                    f,
                    "pump budget {total_scale} is outside the feasible band \
                     [{}, {}] for {n_stacks} stacks",
                    n * min_scale,
                    n * max_scale,
                )?;
                match segment {
                    Some(s) => write!(f, " at reallocation segment {s}"),
                    None => write!(f, " at fleet entry"),
                }
            }
            CoreError::WorkerPanicked { unit, payload } => {
                write!(f, "worker panicked evaluating '{unit}': {payload}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::ThermalModel(e) => Some(e),
            CoreError::Microfluidics(e) => Some(e),
            CoreError::GridSim(e) => Some(e),
            CoreError::Floorplan(e) => Some(e),
            CoreError::OptimalControl(e) => Some(e),
            CoreError::InvalidConfig { .. }
            | CoreError::InvalidDocument { .. }
            | CoreError::BudgetInfeasible { .. }
            | CoreError::WorkerPanicked { .. } => None,
        }
    }
}

impl From<ThermalModelError> for CoreError {
    fn from(e: ThermalModelError) -> Self {
        CoreError::ThermalModel(e)
    }
}

impl From<MicrofluidicsError> for CoreError {
    fn from(e: MicrofluidicsError) -> Self {
        CoreError::Microfluidics(e)
    }
}

impl From<GridSimError> for CoreError {
    fn from(e: GridSimError) -> Self {
        CoreError::GridSim(e)
    }
}

impl From<FloorplanError> for CoreError {
    fn from(e: FloorplanError) -> Self {
        CoreError::Floorplan(e)
    }
}

impl From<OptimalControlError> for CoreError {
    fn from(e: OptimalControlError) -> Self {
        CoreError::OptimalControl(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = CoreError::InvalidConfig {
            what: "zero segments".into(),
        };
        assert!(e.to_string().contains("zero segments"));
        assert!(e.source().is_none());
        let e = CoreError::ThermalModel(ThermalModelError::NoColumns);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("thermal model"));
        let e = CoreError::BudgetInfeasible {
            total_scale: 1.2,
            min_scale: 0.5,
            max_scale: 1.5,
            n_stacks: 3,
            segment: Some(4),
        };
        assert!(e.source().is_none());
        let msg = e.to_string();
        assert!(msg.contains("1.2") && msg.contains("3 stacks") && msg.contains("segment 4"));
        let entry = CoreError::BudgetInfeasible {
            total_scale: 1.2,
            min_scale: 0.5,
            max_scale: 1.5,
            n_stacks: 3,
            segment: None,
        };
        assert!(entry.to_string().contains("at fleet entry"));
        let e = CoreError::WorkerPanicked {
            unit: "arch1 avg-peak f*1.00".into(),
            payload: "index out of bounds".into(),
        };
        assert!(e.source().is_none());
        let msg = e.to_string();
        assert!(msg.contains("arch1 avg-peak f*1.00") && msg.contains("index out of bounds"));
    }

    #[test]
    fn is_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<CoreError>();
    }
}
