//! Shared-pump multi-stack sharding: a fleet of 3D-MPSoC stacks
//! co-optimized under one flow budget.
//!
//! The paper's controller balances *one* stack; a production deployment
//! serves many — and their coolant comes from a shared pump, so per-stack
//! flow budgets cannot be fixed independently once hot-spots migrate
//! between stacks. This module closes that loop one level above
//! [`crate::mpsoc`]:
//!
//! ```text
//!                ┌────────────── fleet allocator ──────────────┐
//!   pump budget →│ allocate(policy, budget, measured gradients) │
//!                └──────┬───────────────┬───────────────┬──────┘
//!                  share₀│         share₁│         shareₙ│      (per segment)
//!                ┌───────▼──────┐┌───────▼──────┐┌───────▼──────┐
//!                │ stack 0      ││ stack 1      ││ stack n      │
//!                │ modulation   ││ modulation   ││ modulation   │  parallel_map
//!                │ loop segment ││ loop segment ││ loop segment │  (bitwise det.)
//!                └───────┬──────┘└───────┬──────┘└───────┬──────┘
//!                        └──── measured time-peak gradients ────┘
//! ```
//!
//! * [`allocate`] splits a [`PumpBudget`] (flow-scale units) across the
//!   fleet by a [`BudgetPolicy`]: `Uniform` (the static baseline),
//!   `GradientWaterfill` (water-filling on each stack's measured
//!   time-peak inter-layer gradient) or `Predictive` (one-step MPC —
//!   water-filling on *predicted* next-segment gradients, composed from a
//!   power-trace forecast and a recursively refit [`SurrogateModel`];
//!   [`allocate_with`] carries the [`PredictiveContext`]).
//! * [`run_fleet`] cuts every stack's trace into aligned reallocation
//!   segments, fans the stacks' modulation-loop segments across worker
//!   threads (the shared [`crate::sweep`] scheduler), carries each
//!   stack's thermal state exactly across reallocations
//!   ([`crate::transient::ResumeState`]) and feeds the measured
//!   gradients back to the allocator — which for `Predictive` also
//!   refits the surrogate and reads the next segment's power from the
//!   materialized trace — parallel and serial runs bitwise identical. The
//!   same segmented loop runs faulted fleets
//!   ([`crate::faults::run_faulted_fleet`]).
//! * [`run_fleet_sweep`] ladders pump budgets and runs the three-policy
//!   head-to-head per variant; the bench `sweep -- fleet` mode gates on
//!   waterfill strictly beating uniform allocation *and* predictive
//!   strictly beating waterfill on the worst stack's time-peak gradient.

mod allocator;
mod report;
mod shard;

pub use allocator::{
    allocate, allocate_with, forecast_is_informative, BudgetPolicy, PredictiveContext, PumpBudget,
    StackSurrogate, SurrogateModel,
};
pub use report::{
    run_fleet_sweep, FleetGrid, FleetReport, FleetRow, FleetSweepOptions, FleetVariant,
};
pub use shard::{
    run_fleet, FleetOptions, FleetOutcome, PredictiveDiagnostics, SegmentMetrics, StackRun,
    StackSpec,
};

#[cfg(test)]
pub(crate) use shard::tests as test_support;
pub(crate) use shard::{run_fleet_lanes, run_stack_segment, FleetLane};
