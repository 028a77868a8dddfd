//! `liquamod` — thermal balancing of liquid-cooled 3D-MPSoCs using channel
//! modulation.
//!
//! A from-scratch Rust reproduction of Sabry, Sridhar & Atienza, *"Thermal
//! Balancing of Liquid-Cooled 3D-MPSoCs Using Channel Modulation"* (DATE
//! 2012). Inter-tier microchannel cooling creates inlet→outlet thermal
//! gradients; this crate implements the paper's design-time fix — *modulate
//! the channel width along the flow* — as an optimal control problem solved
//! by the direct sequential method.
//!
//! The workspace layering (each crate usable on its own):
//!
//! * [`liquamod_units`] — SI quantity newtypes;
//! * [`liquamod_microfluidics`] — the paper's fixed channel physics: the
//!   Shah–London H1 Nusselt film coefficient and the `f·Re = 64` Eq. (9)
//!   pressure drop;
//! * [`liquamod_thermal_model`] — the paper's §III analytical state-space
//!   model and its collocation BVP solver;
//! * [`liquamod_grid_sim`] — a 3D-ICE-style finite-volume simulator with
//!   silicon solids (independent validation reference, thermal maps);
//! * [`liquamod_floorplan`] — the workloads: Tests A/B, UltraSPARC T1, the
//!   Fig. 7 architectures;
//! * [`liquamod_optimal_control`] — the NLP layer (projected L-BFGS,
//!   augmented Lagrangian…);
//! * **this crate** — the §IV optimal channel-modulation flow, the
//!   min/max/optimal comparison methodology of §V, canned experiment
//!   definitions for every figure of the paper, the [`sweep`] engine
//!   that fans grids of scenario variants out across worker threads, the
//!   [`transient`] subsystem that closes the modulation loop over
//!   time-varying workload traces (epoch-based re-optimization driving the
//!   finite-volume transient stepper), the [`mpsoc`] subsystem that
//!   runs the paper's full two-die Fig. 7 stacks — two jointly optimized
//!   cavities — through that same loop, the [`fleet`] sharding layer
//!   that co-optimizes many stacks under one shared pump budget, and the
//!   [`serve`] streaming service that multiplexes long-running stack
//!   sessions — phases in, width decisions out, snapshot/restore across
//!   restarts — over the same deterministic machinery, and the [`obs`]
//!   observability layer — hierarchical spans, a named-counter registry
//!   and Perfetto-loadable trace exports, recorded thread-locally and
//!   merged through the same index-ordered join that keeps parallel runs
//!   bitwise-equal to serial ones. Every snapshot, golden fixture, BENCH
//!   record and export is written and strictly read through [`json`].
//!
//! # Quickstart
//!
//! ```
//! use liquamod::prelude::*;
//!
//! // The paper's Test A on a fast mesh: optimally modulate one channel.
//! let config = OptimizationConfig::fast();
//! let comparison = experiments::test_a(&ModelParams::date2012(), &config)?;
//! // Optimal modulation beats both uniform baselines (paper Fig. 5a).
//! assert!(comparison.optimal.gradient_k < comparison.best_uniform_gradient_k());
//! # Ok::<(), liquamod::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bridge;
pub mod chart;
mod compare;
mod csv;
mod design;
mod error;
pub mod experiments;
pub mod faults;
pub mod fleet;
pub mod json;
pub mod mpsoc;
pub mod obs;
mod scenario;
pub mod serve;
pub mod sweep;
pub mod transient;

pub use compare::{CaseResult, DesignComparison};
pub use csv::CsvTable;
pub use design::{
    optimize, optimize_min_pumping, optimize_resumed, optimize_warm, DesignOutcome,
    DesignWarmStart, OptimizationConfig,
};
pub use error::CoreError;
pub use faults::{
    run_faulted_fleet, run_faults_sweep, DegradedEvent, DegradedKind, FaultEvent, FaultScenario,
    FaultSchedule, FaultsReport, FaultsRow, FaultsSweepOptions, SegmentFaults, ValveMode,
    EXCURSION_BOUND,
};
pub use fleet::{
    allocate, run_fleet, run_fleet_sweep, BudgetPolicy, FleetGrid, FleetOutcome, FleetReport,
    FleetRow, PumpBudget,
};
pub use mpsoc::{run_mpsoc_sweep, MpsocConfig, MpsocGrid, MpsocModulated};
pub use obs::{ObsEvent, ObsReport, ObsSession, SpanRecord};
pub use scenario::{mpsoc_model, strip_model, MpsocScenario};
pub use serve::{
    run_soak, soak_outcomes_match, verify_snapshot_restore, verify_streaming_identity,
    LatencyHistogram, PoolMetrics, ServeBatch, ServeOptions, ServePool, SessionSnapshot,
    SnapshotFidelity, SoakOutcome, SoakPlan, StreamingIdentity, WidthDecision,
};
pub use sweep::{
    run_sweep, ExecutionMode, LoadSpec, SweepGrid, SweepOptions, SweepReport, SweepRow,
    SweepVariant,
};
pub use transient::{
    run_transient_sweep, CavityProfiles, EpochCandidate, EpochPolicy, ModulatedStack,
    ModulationController, ModulationPolicy, ModulationReport, ModulationRow, ResumeState,
    StripModulated, TransientConfig, TransientGrid, TransientOutcome, TransientSweepOptions,
};

pub use liquamod_floorplan as floorplan;
pub use liquamod_grid_sim as grid_sim;
pub use liquamod_microfluidics as microfluidics;
pub use liquamod_optimal_control as optimal_control;
pub use liquamod_thermal_model as thermal_model;
pub use liquamod_units as units;

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// The items most users need, re-exported flat.
pub mod prelude {
    pub use crate::experiments;
    pub use crate::{
        mpsoc_model, optimize, optimize_min_pumping, optimize_warm, strip_model, CaseResult,
        CoreError, DesignComparison, DesignOutcome, MpsocScenario, OptimizationConfig,
    };
    pub use liquamod_floorplan::{arch, niagara, testcase, PowerLevel};
    pub use liquamod_thermal_model::{
        ChannelColumn, HeatProfile, Model, ModelParams, Solution, SolveOptions, SolveWorkspace,
        WidthProfile, WorkspacePool,
    };
    pub use liquamod_units::{
        Length, LinearHeatFlux, Power, Pressure, Temperature, TemperatureDifference,
        VolumetricFlowRate,
    };
}
