//! `liquamod::serve` — the streaming modulation service.
//!
//! The batch subsystems answer "given this whole workload trace, what are
//! the best channel widths?" This module answers the *operational* form of
//! the same question: workload phases arrive one at a time, from many
//! stacks at once, and each wants its width decision back while the pump
//! budget they share keeps being re-split underneath them.
//!
//! Data flow of one [`ServePool`]:
//!
//! ```text
//!   client                        pool                        workers
//!   ──────                       ──────                       ───────
//!   open(arch) ───────────────▶ admit session ──▶ PumpBudget revalidation
//!   submit(phase) ────────────▶ session queue        (clamp + degrade
//!                                                     when infeasible)
//!   drain_batch() ────────────▶ allocate_with(policy, budget, gradients, ctx)
//!                               one task per ready session ──▶ parallel_map
//!                                 with_flow_scale(share)        (bitwise ==
//!                                 run_segment(trace, resume)     serial)
//!   ◀─ WidthDecision stream ─── fold results back, id order
//!   ◀─ DegradedEvent stream ─── evictions, clamps, run events
//!   snapshot(id) ─────────────▶ SessionSnapshot::to_golden_json
//!                               (bitwise across a process restart)
//! ```
//!
//! Correctness is anchored to the batch path, not re-derived: a phase
//! streamed through a session is served by the exact segment step
//! ([`ModulationController::run_segment`]) the fleet wavefront runs, so
//! [`verify_streaming_identity`] can demand the streamed trajectory equal
//! the one-shot [`ModulationController::run`] **bitwise**, and
//! [`verify_snapshot_restore`] can demand a session serialized mid-stream
//! ([`SessionSnapshot::to_golden_json`], a strict [`crate::json`] document)
//! continue after a restart as if never interrupted. [`run_soak`] drives a
//! pool through the full service lifecycle — staggered arrivals into an
//! under-provisioned budget, incremental submission, snapshot/restore
//! churn, departures — and [`soak_outcomes_match`] gates that the whole
//! thing is deterministic under parallel fan-out.
//!
//! [`ModulationController::run`]: crate::transient::ModulationController::run
//! [`ModulationController::run_segment`]: crate::transient::ModulationController::run_segment

/// Service metrics, re-exported from the shared observability layer
/// ([`crate::obs`]) where [`LatencyHistogram`]/[`PoolMetrics`] now live —
/// existing `serve::metrics` call sites and tests compile unchanged.
pub mod metrics {
    pub use crate::obs::{LatencyHistogram, PoolMetrics};
}
mod pool;
mod session;
mod soak;

pub use metrics::{LatencyHistogram, PoolMetrics};
pub use pool::{ServeBatch, ServeOptions, ServePool, WidthDecision};
pub use session::SessionSnapshot;
pub use soak::{
    run_soak, soak_level, soak_outcomes_match, verify_snapshot_restore, verify_streaming_identity,
    SnapshotFidelity, SoakOutcome, SoakPlan, StreamingIdentity,
};
