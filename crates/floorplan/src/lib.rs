//! Floorplans, power models and heat-flux workloads for the DATE'12
//! channel-modulation experiments.
//!
//! This crate supplies every *workload* the paper evaluates:
//!
//! * [`testcase`] — the single-channel strip loads of Fig. 4: Test A
//!   (uniform 50 W/cm² on both active layers) and Test B (random
//!   50–250 W/cm² segments, seeded so the reproduction is deterministic);
//! * [`niagara`] — a reconstruction of the 90 nm UltraSPARC T1 (Niagara-1)
//!   floorplan with per-block peak and average power chosen to reproduce the
//!   paper's stated flux range of 8–64 W/cm² (the authors' measured traces
//!   are not public; see the [`niagara`] module docs);
//! * [`arch`] — the three two-die 3D-MPSoC arrangements of Fig. 7;
//! * [`trace`] — piecewise-constant [`trace::PowerTrace`] schedules turning
//!   the static workloads above into time-varying phases (workload bursts,
//!   migrating Test-B hotspots, Niagara average↔peak swings) for the
//!   transient channel-modulation loop;
//! * [`FluxGrid`] — rasterization of a floorplan onto a channel-aligned
//!   cell grid, the exchange format consumed by both the analytical thermal
//!   model (per-channel heat profiles) and the finite-volume simulator
//!   (power maps).
//!
//! # Example
//!
//! ```
//! use liquamod_floorplan::{arch, PowerLevel};
//!
//! let a1 = arch::arch1();
//! let grid = a1.top_die().rasterize(100, 110, PowerLevel::Peak);
//! // Peak flux of the hottest cell lands in the paper's 8-64 W/cm² band.
//! assert!(grid.max_flux_w_per_cm2() <= 64.0 + 1e-9);
//! assert!(grid.max_flux_w_per_cm2() >= 8.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arch;
mod block;
mod error;
mod floorplan;
pub mod niagara;
mod raster;
pub mod testcase;
pub mod trace;

pub use block::{Block, BlockKind};
pub use error::FloorplanError;
pub use floorplan::{Floorplan, PowerLevel};
pub use raster::FluxGrid;

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, FloorplanError>;
