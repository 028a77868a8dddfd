//! A compact finite-volume thermal simulator for 3D ICs with inter-tier
//! microchannel liquid cooling, in the style of 3D-ICE (Sridhar et al.,
//! ICCAD 2010 — the paper's ref. \[8\]).
//!
//! The DATE'12 channel-modulation paper validates its analytical model
//! against 3D-ICE; since the original C simulator is outside this
//! reproduction's dependency budget, this crate provides an independent
//! numerical reference implementing the same compact-model idea:
//!
//! * the stack is a pile of **silicon layers** and **microchannel
//!   cavities**, each one finite-volume cell thick; every solid, side walls
//!   included, is silicon at [`SILICON_CONDUCTIVITY`];
//! * every solid cell couples to its six neighbours through conduction
//!   conductances (harmonic half-cell series across layer interfaces);
//! * every cavity cell holds one channel pitch: a bulk-coolant node with
//!   upwind **advection** along the flow direction, convective exchange with
//!   the solid cells above and below (4-resistor channel cell), and a
//!   silicon **side-wall** conduction path connecting the neighbouring
//!   layers directly;
//! * channel widths may vary per column and along the flow direction, so
//!   width-modulated designs (the paper's contribution) can be simulated
//!   directly — this is how the Fig. 9 thermal maps are regenerated.
//!
//! Steady state solves the (nonsymmetric, because of advection) sparse
//! system with BiCGSTAB + Jacobi preconditioning; transients use backward
//! Euler on the same assembly.
//!
//! # Example
//!
//! ```
//! use liquamod_grid_sim::{CavityWidths, PowerMap, StackBuilder};
//! use liquamod_units::{HeatFlux, Length, Temperature};
//!
//! // A small two-active-layer stack, 10 channels × 20 cells, uniform load.
//! let stack = StackBuilder::new(
//!     Length::from_millimeters(1.0),  // die extent across the flow
//!     Length::from_millimeters(2.0),  // die extent along the flow
//!     10,                             // channel columns
//!     20,                             // cells along the flow
//! )
//! .silicon_layer("bottom-die", Length::from_micrometers(50.0))
//! .powered_by(PowerMap::uniform_flux(HeatFlux::from_w_per_cm2(50.0), 10, 20,
//!     Length::from_millimeters(1.0), Length::from_millimeters(2.0)))
//! .microchannel_cavity(CavityWidths::Uniform(Length::from_micrometers(50.0)))
//! .silicon_layer("top-die", Length::from_micrometers(50.0))
//! .powered_by(PowerMap::uniform_flux(HeatFlux::from_w_per_cm2(50.0), 10, 20,
//!     Length::from_millimeters(1.0), Length::from_millimeters(2.0)))
//! .build()?;
//! let field = stack.solve_steady()?;
//! assert!(field.peak_temperature() > Temperature::from_kelvin(300.0));
//! # Ok::<(), liquamod_grid_sim::GridSimError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ascii;
mod assemble;
mod error;
mod expstep;
mod field;
mod power;
pub mod solver;
pub mod sparse;
mod stack;
mod transient;

pub use assemble::AssemblyCache;
pub use error::GridSimError;
pub use expstep::ExponentialOptions;
pub use field::{LayerField, ThermalField};
pub use power::PowerMap;
pub use stack::{CavitySpec, CavityWidths, Stack, StackBuilder, SILICON_CONDUCTIVITY};
pub use transient::{StepperKind, TransientOptions, TransientSample, TransientStepper};

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, GridSimError>;
