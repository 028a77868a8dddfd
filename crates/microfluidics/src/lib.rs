//! Laminar single-phase microchannel hydraulics for inter-tier liquid
//! cooling of 3D ICs.
//!
//! This crate is the *hydro-thermal substrate* of the `liquamod` stack: it
//! provides every fluid-side quantity the analytical thermal model and the
//! channel-modulation optimizer need, with the physics the paper's §III
//! fixes:
//!
//! * coolant property sets ([`Coolant`], with water at 300 K as the paper's
//!   default),
//! * rectangular duct geometry ([`RectDuct`]: hydraulic diameter, aspect
//!   ratio),
//! * the film coefficient from Shah & London's fully developed laminar **H1
//!   Nusselt** fit for rectangular ducts ([`nusselt`]),
//! * the **pressure-drop integral** of the paper's Eq. (9) along a
//!   width-modulated channel, with `f·Re = 64` ([`pressure`]).
//!
//! # Example
//!
//! ```
//! use liquamod_microfluidics::{nusselt, Coolant, RectDuct};
//! use liquamod_units::Length;
//!
//! let water = Coolant::water_300k();
//! let duct = RectDuct::new(Length::from_micrometers(50.0), Length::from_micrometers(100.0))?;
//! let nu = nusselt::nusselt(&duct);
//! let h = nusselt::heat_transfer_coefficient(&duct, &water);
//! assert!(nu > 3.0 && nu < 9.0);
//! assert!(h.as_w_per_m2_k() > 1.0e4);
//! # Ok::<(), liquamod_microfluidics::MicrofluidicsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coolant;
mod duct;
mod error;
pub mod nusselt;
pub mod pressure;
mod reynolds;

pub use coolant::Coolant;
pub use duct::RectDuct;
pub use error::MicrofluidicsError;
pub use reynolds::{mean_velocity, reynolds_number};

/// Convenient result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, MicrofluidicsError>;
