//! Full-chip MPSoC channel modulation: the paper's two-die Fig. 7 stacks
//! driven through the transient modulation loop.
//!
//! The strip subsystem ([`crate::transient`]) reproduces the *mechanism* on
//! the Fig. 2 validation structure; this module reproduces the *system*: a
//! Fig. 7 [`Architecture`](liquamod_floorplan::arch::Architecture) and a
//! pair of per-die power traces become a five-layer finite-volume stack —
//!
//! ```text
//!   cap silicon        (unpowered)
//!   microchannel cavity 2   ← widths[1]
//!   top die silicon    (top-die flux grid)
//!   microchannel cavity 1   ← widths[0]
//!   bottom die silicon (bottom-die flux grid)
//! ```
//!
//! — and a [`MpsocModulated`] family drives it through the stack-generic
//! [`ModulationController`](crate::transient::ModulationController). At each
//! epoch the two cavities' per-group width profiles are optimized **jointly**:
//! one analytical model whose columns are both cavities' channel groups (the
//! top die's heat split evenly between the cavities it borders), so the §IV
//! optimizer's equal-pressure coupling spans the whole coolant network.
//!
//! [`run_mpsoc_sweep`] fans arch × trace × flow-scale variants across worker
//! threads with the sweep engines' parallel == serial bitwise-determinism
//! guarantee; the `sweep -- mpsoc` bench mode gates on every modulated run
//! strictly beating its frozen uniform-width baseline on the time-peak
//! inter-layer gradient.

mod load;
mod stack;
mod sweep;

pub use load::{arch_trace, zip_dies, MpsocLoad, MpsocTrace};
pub use stack::{MpsocConfig, MpsocModulated};
pub use sweep::{
    run_mpsoc_sweep, ArchSpec, MpsocGrid, MpsocSweepOptions, MpsocTraceSpec, MpsocVariant,
};
