//! Transient simulation by backward Euler.
//!
//! The lumped energy balance `C·dT/dt + A·T = p` is stepped implicitly:
//! `(A + C/Δt)·T_{n+1} = p + (C/Δt)·T_n`. Backward Euler is
//! unconditionally stable, which matters here because coolant cells have
//! tiny capacitances compared to the advection rates (sub-millisecond
//! thermal constants) while silicon responds over milliseconds.
//!
//! Two entry points share the same discretization:
//!
//! * [`Stack::solve_transient`] — the one-shot step-response run (fixed
//!   stack, fixed power, a given number of steps);
//! * [`Stack::transient_stepper`] — an incremental [`TransientStepper`]
//!   that advances one step at a time and whose node-temperature state can
//!   be carried into a stepper on a *different* stack with the same grid.
//!   This is what closed-loop drivers (channel modulation over time-varying
//!   workloads) build on: swap the stack (new widths, new power map), keep
//!   the temperatures.

use crate::assemble::{Assembly, AssemblyCache};
use crate::expstep::{CondensedExp, ExponentialOptions};
use crate::solver::{self, SolverOptions};
use crate::stack::Stack;
use crate::{sparse::CsrMatrix, GridSimError, Result, ThermalField};
use liquamod_units::Temperature;

/// Which integrator backend a [`TransientStepper`] advances with.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum StepperKind {
    /// Fully implicit backward Euler on the complete fine-grid system
    /// (one Jacobi-preconditioned BiCGSTAB solve per step). The accuracy
    /// reference and the default.
    #[default]
    BackwardEuler,
    /// Split-step condensed exponential integrator: implicit upwind
    /// advection on the fine grid plus an exact matrix exponential of the
    /// Galerkin-condensed conduction network, eigendecomposed once per
    /// width profile. O(n) per step after the one-time factorization; see
    /// the `expstep` module docs for the derivation and the error model.
    Exponential(ExponentialOptions),
}

/// Controls for a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientOptions {
    /// Time step (seconds).
    pub dt_seconds: f64,
    /// Number of steps to take ([`Stack::solve_transient`] only; a
    /// [`TransientStepper`] is stepped explicitly by its caller).
    pub steps: usize,
    /// Initial uniform temperature (defaults to the stack inlet).
    pub initial: Option<Temperature>,
    /// Linear-solver controls for each implicit step (backward Euler only;
    /// the exponential backend has no iterative solve).
    pub solver: SolverOptions,
    /// Integrator backend (backward Euler unless overridden).
    pub stepper: StepperKind,
}

impl Default for TransientOptions {
    fn default() -> Self {
        Self {
            dt_seconds: 1e-3,
            steps: 100,
            initial: None,
            solver: SolverOptions::default(),
            stepper: StepperKind::BackwardEuler,
        }
    }
}

/// A captured instant of a transient run.
#[derive(Debug, Clone)]
pub struct TransientSample {
    /// Simulation time (seconds).
    pub time_seconds: f64,
    /// Field at this instant.
    pub field: ThermalField,
    /// Energy stored in the lumped capacitances over the step that produced
    /// this sample: `Σᵢ Cᵢ·(T_{n+1,i} − T_{n,i})`, joules. Over one backward
    /// Euler step this equals `Δt·(P_injected − P_advected)` up to the
    /// linear-solver residual, which is what the energy-balance tests check.
    pub stored_joules: f64,
}

/// An incremental backward-Euler integrator over one assembled stack.
///
/// Created by [`Stack::transient_stepper`]. The stepper owns the implicit
/// system `(A + C/Δt)` and the node-temperature vector; every [`step`]
/// advances time by `Δt` and returns a [`TransientSample`]. The raw state
/// is exposed through [`state`]/[`set_state`] so a driver can rebuild the
/// stack mid-run (changed channel widths or power maps) and resume from the
/// exact temperatures — the node layout only has to match (`same layer
/// count and grid`), which [`set_state`] validates by length.
///
/// [`step`]: TransientStepper::step
/// [`state`]: TransientStepper::state
/// [`set_state`]: TransientStepper::set_state
#[derive(Debug)]
pub struct TransientStepper<'a> {
    stack: &'a Stack,
    asm: Assembly,
    backend: Backend,
    solver: SolverOptions,
    dt: f64,
    /// Time is tracked as `base_time + steps_taken · Δt` (not accumulated
    /// by repeated addition), so timestamps are exact multiples of `Δt` and
    /// independent of where a driver rebuilds/hands over the stepper.
    base_time: f64,
    steps_taken: usize,
    temps: Vec<f64>,
    /// Reusable scratch buffer (the per-step hot path): the implicit rhs
    /// for backward Euler, the previous temperatures for the exponential
    /// backend's stored-energy bookkeeping.
    rhs: Vec<f64>,
}

/// Per-backend state behind a [`TransientStepper`]. Both backends share the
/// stepper's assembly, temperature vector, and clock, so `state`/`set_state`
/// handovers work identically regardless of kind.
#[derive(Debug)]
enum Backend {
    /// The implicit system `(A + C/Δt)`.
    BackwardEuler { system: CsrMatrix },
    /// The condensed spectral factorization (boxed: it carries dense m×m
    /// storage).
    Exponential(Box<CondensedExp>),
}

impl Stack {
    /// Builds an incremental transient stepper for this stack, starting at
    /// time zero from a uniform temperature (`options.initial`, defaulting
    /// to the stack inlet). `options.steps` is ignored — the caller decides
    /// when to stop stepping.
    ///
    /// # Errors
    ///
    /// [`GridSimError::InvalidTransient`] for a non-positive `dt`.
    pub fn transient_stepper(&self, options: &TransientOptions) -> Result<TransientStepper<'_>> {
        validate_dt(options)?;
        self.stepper_from_assembly(options, self.assemble())
    }

    /// [`Stack::transient_stepper`] routed through an [`AssemblyCache`]: a
    /// stack on the same grid and layer structure as the cache's previous
    /// one replays its freshly generated rows into the cached sparsity
    /// pattern and skips the symbolic sort (bitwise identical to a full
    /// rebuild — see [`AssemblyCache`]). This is the epoch-loop fast path of
    /// the transient modulation controller.
    ///
    /// # Errors
    ///
    /// [`GridSimError::InvalidTransient`] for a non-positive `dt`.
    pub fn transient_stepper_cached(
        &self,
        options: &TransientOptions,
        cache: &mut AssemblyCache,
    ) -> Result<TransientStepper<'_>> {
        validate_dt(options)?;
        self.stepper_from_assembly(options, cache.assemble(self))
    }

    fn stepper_from_assembly(
        &self,
        options: &TransientOptions,
        asm: Assembly,
    ) -> Result<TransientStepper<'_>> {
        let n = asm.matrix.size();
        let backend =
            match &options.stepper {
                StepperKind::BackwardEuler => Backend::BackwardEuler {
                    system: asm
                        .matrix
                        .plus_diagonal(&asm.capacitance, 1.0 / options.dt_seconds),
                },
                StepperKind::Exponential(eopts) => Backend::Exponential(Box::new(
                    CondensedExp::build(self, &asm, eopts, options.dt_seconds)?,
                )),
            };
        let t0 = options.initial.unwrap_or(self.inlet).si();
        Ok(TransientStepper {
            stack: self,
            asm,
            backend,
            solver: options.solver.clone(),
            dt: options.dt_seconds,
            base_time: 0.0,
            steps_taken: 0,
            temps: vec![t0; n],
            rhs: vec![0.0; n],
        })
    }

    /// Runs a transient simulation from a uniform initial temperature and
    /// returns one sample per step (including the final state).
    ///
    /// # Errors
    ///
    /// * [`GridSimError::InvalidTransient`] for non-positive `dt` or zero
    ///   steps;
    /// * [`GridSimError::NoConvergence`] if an implicit step fails to solve.
    pub fn solve_transient(&self, options: &TransientOptions) -> Result<Vec<TransientSample>> {
        if options.steps == 0 {
            return Err(GridSimError::InvalidTransient {
                what: "steps must be > 0".into(),
            });
        }
        let mut stepper = self.transient_stepper(options)?;
        let mut samples = Vec::with_capacity(options.steps);
        for _ in 0..options.steps {
            samples.push(stepper.step()?);
        }
        Ok(samples)
    }
}

fn validate_dt(options: &TransientOptions) -> Result<()> {
    if !(options.dt_seconds.is_finite() && options.dt_seconds > 0.0) {
        return Err(GridSimError::InvalidTransient {
            what: format!("dt must be positive, got {}", options.dt_seconds),
        });
    }
    Ok(())
}

impl TransientStepper<'_> {
    /// The node-temperature state (kelvin), in assembly order: layers
    /// bottom→top, each `nx × nz` row-major.
    #[must_use]
    pub fn state(&self) -> &[f64] {
        &self.temps
    }

    /// Current simulation time, seconds.
    #[must_use]
    pub fn time_seconds(&self) -> f64 {
        self.base_time + self.steps_taken as f64 * self.dt
    }

    /// Overwrites the node temperatures and clock — the handover point when
    /// a driver swaps stacks mid-run.
    ///
    /// # Errors
    ///
    /// [`GridSimError::InvalidTransient`] when `temps` does not match the
    /// stack's node count or contains non-finite values, or `time_seconds`
    /// is not finite and non-negative.
    pub fn set_state(&mut self, temps: &[f64], time_seconds: f64) -> Result<()> {
        if temps.len() != self.temps.len() {
            return Err(GridSimError::InvalidTransient {
                what: format!(
                    "state has {} nodes, stack has {}",
                    temps.len(),
                    self.temps.len()
                ),
            });
        }
        if temps.iter().any(|t| !t.is_finite()) {
            return Err(GridSimError::InvalidTransient {
                what: "state contains non-finite temperatures".into(),
            });
        }
        if !(time_seconds.is_finite() && time_seconds >= 0.0) {
            return Err(GridSimError::InvalidTransient {
                what: format!("time must be finite and non-negative, got {time_seconds}"),
            });
        }
        self.temps.copy_from_slice(temps);
        self.base_time = time_seconds;
        self.steps_taken = 0;
        Ok(())
    }

    /// Advances one Δt with the configured backend and returns the sampled
    /// field.
    ///
    /// # Errors
    ///
    /// [`GridSimError::NoConvergence`] if the implicit solve fails
    /// (backward Euler only; the exponential backend is solver-free).
    pub fn step(&mut self) -> Result<TransientSample> {
        let stored_joules = match &mut self.backend {
            Backend::BackwardEuler { system } => {
                let inv_dt = 1.0 / self.dt;
                for ((rhs, &p), (&c, &t)) in self
                    .rhs
                    .iter_mut()
                    .zip(&self.asm.rhs)
                    .zip(self.asm.capacitance.iter().zip(&self.temps))
                {
                    *rhs = p + c * inv_dt * t;
                }
                let (next, _stats) =
                    solver::bicgstab(system, &self.rhs, &self.temps, &self.solver)?;
                let stored = self
                    .asm
                    .capacitance
                    .iter()
                    .zip(next.iter().zip(&self.temps))
                    .map(|(c, (t1, t0))| c * (t1 - t0))
                    .sum();
                self.temps = next;
                stored
            }
            Backend::Exponential(exp) => {
                self.rhs.copy_from_slice(&self.temps);
                exp.advance(&mut self.temps, &self.asm.capacitance);
                self.asm
                    .capacitance
                    .iter()
                    .zip(self.temps.iter().zip(&self.rhs))
                    .map(|(c, (t1, t0))| c * (t1 - t0))
                    .sum()
            }
        };
        self.steps_taken += 1;
        Ok(TransientSample {
            time_seconds: self.time_seconds(),
            field: self.stack.field_from_solution(&self.asm, &self.temps),
            stored_joules,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{CavityWidths, StackBuilder};
    use crate::PowerMap;
    use liquamod_units::{HeatFlux, Length};

    fn mm(v: f64) -> Length {
        Length::from_millimeters(v)
    }

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    fn stack() -> Stack {
        let p = PowerMap::uniform_flux(HeatFlux::from_w_per_cm2(50.0), 4, 8, mm(0.4), mm(0.8));
        StackBuilder::new(mm(0.4), mm(0.8), 4, 8)
            .silicon_layer("bottom", um(50.0))
            .powered_by(p.clone())
            .microchannel_cavity(CavityWidths::Uniform(um(50.0)))
            .silicon_layer("top", um(50.0))
            .powered_by(p)
            .build()
            .unwrap()
    }

    #[test]
    fn transient_heats_monotonically_toward_steady() {
        let s = stack();
        let steady = s.solve_steady().unwrap();
        let samples = s
            .solve_transient(&TransientOptions {
                dt_seconds: 2e-3,
                steps: 60,
                ..Default::default()
            })
            .unwrap();
        // Peak temperature rises monotonically (pure step response)…
        for w in samples.windows(2) {
            assert!(
                w[1].field.peak_temperature().as_kelvin()
                    >= w[0].field.peak_temperature().as_kelvin() - 1e-9
            );
        }
        // …and approaches the steady state from below.
        let last = samples.last().unwrap();
        let gap = steady.peak_temperature().as_kelvin() - last.field.peak_temperature().as_kelvin();
        assert!(gap >= -1e-6, "transient overshot steady state by {gap}");
        assert!(
            gap < 0.05 * (steady.peak_temperature().as_kelvin() - 300.0),
            "not converged: gap {gap}"
        );
    }

    #[test]
    fn zero_power_transient_stays_at_initial() {
        let s = StackBuilder::new(mm(0.4), mm(0.8), 4, 8)
            .silicon_layer("bottom", um(50.0))
            .microchannel_cavity(CavityWidths::Uniform(um(50.0)))
            .silicon_layer("top", um(50.0))
            .build()
            .unwrap();
        let samples = s
            .solve_transient(&TransientOptions {
                dt_seconds: 1e-3,
                steps: 5,
                ..Default::default()
            })
            .unwrap();
        for sample in &samples {
            assert!((sample.field.peak_temperature().as_kelvin() - 300.0).abs() < 1e-6);
        }
    }

    #[test]
    fn hot_start_cools_toward_steady() {
        let s = stack();
        let samples = s
            .solve_transient(&TransientOptions {
                dt_seconds: 2e-3,
                steps: 50,
                initial: Some(Temperature::from_kelvin(400.0)),
                ..Default::default()
            })
            .unwrap();
        let first = samples
            .first()
            .unwrap()
            .field
            .peak_temperature()
            .as_kelvin();
        let last = samples.last().unwrap().field.peak_temperature().as_kelvin();
        assert!(
            last < first,
            "overheated stack must cool ({first} → {last})"
        );
        let steady = s.solve_steady().unwrap().peak_temperature().as_kelvin();
        assert!((last - steady).abs() < 0.05 * (400.0 - steady));
    }

    #[test]
    fn rejects_bad_options() {
        let s = stack();
        assert!(matches!(
            s.solve_transient(&TransientOptions {
                dt_seconds: 0.0,
                ..Default::default()
            }),
            Err(GridSimError::InvalidTransient { .. })
        ));
        assert!(matches!(
            s.solve_transient(&TransientOptions {
                steps: 0,
                ..Default::default()
            }),
            Err(GridSimError::InvalidTransient { .. })
        ));
    }

    #[test]
    fn sample_times_are_uniform() {
        let s = stack();
        let samples = s
            .solve_transient(&TransientOptions {
                dt_seconds: 1e-3,
                steps: 3,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(samples.len(), 3);
        assert!((samples[0].time_seconds - 1e-3).abs() < 1e-15);
        assert!((samples[2].time_seconds - 3e-3).abs() < 1e-15);
    }

    #[test]
    fn stepper_matches_one_shot_run() {
        let s = stack();
        let options = TransientOptions {
            dt_seconds: 1e-3,
            steps: 10,
            ..Default::default()
        };
        let samples = s.solve_transient(&options).unwrap();
        let mut stepper = s.transient_stepper(&options).unwrap();
        for sample in &samples {
            let step = stepper.step().unwrap();
            assert_eq!(step.time_seconds.to_bits(), sample.time_seconds.to_bits());
            assert_eq!(step.stored_joules.to_bits(), sample.stored_joules.to_bits());
            for (a, b) in step
                .field
                .layers()
                .iter()
                .zip(sample.field.layers())
                .flat_map(|(x, y)| x.as_kelvin().iter().zip(y.as_kelvin()))
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert!((stepper.time_seconds() - 10e-3).abs() < 1e-15);
    }

    #[test]
    fn state_handover_resumes_exactly() {
        // Stepping 2 + 3 steps through a state handover (to a fresh stepper
        // over the same stack) equals stepping 5 straight.
        let s = stack();
        let options = TransientOptions {
            dt_seconds: 2e-3,
            steps: 5,
            ..Default::default()
        };
        let straight = s.solve_transient(&options).unwrap();
        let mut first = s.transient_stepper(&options).unwrap();
        first.step().unwrap();
        first.step().unwrap();
        let mut second = s.transient_stepper(&options).unwrap();
        second
            .set_state(first.state(), first.time_seconds())
            .unwrap();
        let mut last = None;
        for _ in 0..3 {
            last = Some(second.step().unwrap());
        }
        let resumed = last.unwrap();
        let reference = straight.last().unwrap();
        // Time is base + k·Δt per stepper; across a handover the two float
        // paths to 5·Δt may differ by an ulp, so compare with a tolerance
        // (the temperatures below remain bitwise).
        assert!((resumed.time_seconds - reference.time_seconds).abs() < 1e-12);
        for (a, b) in resumed
            .field
            .layers()
            .iter()
            .zip(reference.field.layers())
            .flat_map(|(x, y)| x.as_kelvin().iter().zip(y.as_kelvin()))
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn set_state_validates() {
        let s = stack();
        let mut stepper = s.transient_stepper(&TransientOptions::default()).unwrap();
        let n = stepper.state().len();
        assert!(matches!(
            stepper.set_state(&vec![300.0; n + 1], 0.0),
            Err(GridSimError::InvalidTransient { .. })
        ));
        assert!(matches!(
            stepper.set_state(&vec![f64::NAN; n], 0.0),
            Err(GridSimError::InvalidTransient { .. })
        ));
        assert!(matches!(
            stepper.set_state(&vec![300.0; n], -1.0),
            Err(GridSimError::InvalidTransient { .. })
        ));
        assert!(stepper.set_state(&vec![310.0; n], 0.5).is_ok());
        assert!((stepper.time_seconds() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn cached_stepper_matches_fresh_stepper_bitwise() {
        // Step 3 + 3 through a widths-only rebuild, once with fresh
        // assemblies and once through an AssemblyCache (which then replays
        // the new values into the cached pattern): trajectories must agree
        // bitwise.
        let build = |w_um: f64| {
            let p = PowerMap::uniform_flux(HeatFlux::from_w_per_cm2(50.0), 4, 8, mm(0.4), mm(0.8));
            StackBuilder::new(mm(0.4), mm(0.8), 4, 8)
                .silicon_layer("bottom", um(50.0))
                .powered_by(p.clone())
                .microchannel_cavity(CavityWidths::Uniform(um(w_um)))
                .silicon_layer("top", um(50.0))
                .powered_by(p)
                .build()
                .unwrap()
        };
        let options = TransientOptions {
            dt_seconds: 1e-3,
            ..Default::default()
        };
        let mut cache = AssemblyCache::new();
        let mut run = |cached: bool| -> Vec<f64> {
            let first = build(50.0);
            let mut stepper = if cached {
                first
                    .transient_stepper_cached(&options, &mut cache)
                    .unwrap()
            } else {
                first.transient_stepper(&options).unwrap()
            };
            for _ in 0..3 {
                stepper.step().unwrap();
            }
            let (state, t) = (stepper.state().to_vec(), stepper.time_seconds());
            let second = build(25.0);
            let mut stepper = if cached {
                second
                    .transient_stepper_cached(&options, &mut cache)
                    .unwrap()
            } else {
                second.transient_stepper(&options).unwrap()
            };
            stepper.set_state(&state, t).unwrap();
            for _ in 0..3 {
                stepper.step().unwrap();
            }
            stepper.state().to_vec()
        };
        let fresh = run(false);
        let cached = run(true);
        assert_eq!(
            cache.symbolic_builds(),
            1,
            "the rebuild replayed the pattern"
        );
        for (a, b) in fresh.iter().zip(&cached) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The stated accuracy gate for the condensed exponential backend: at
    /// exact condensation it integrates the condensed dynamics exactly in
    /// time, so against a fine-Δt reference it must beat backward Euler at
    /// a coarse Δt by a wide margin — here ≤ 0.05 K worst-case peak error
    /// where backward Euler's own truncation error exceeds 1 K.
    #[test]
    fn exponential_tracks_fine_reference_better_than_backward_euler() {
        let s = stack();
        let reference = s
            .solve_transient(&TransientOptions {
                dt_seconds: 1e-5,
                steps: 16_000,
                ..Default::default()
            })
            .unwrap();
        let worst_err = |kind: StepperKind| -> f64 {
            let run = s
                .solve_transient(&TransientOptions {
                    dt_seconds: 2e-3,
                    steps: 80,
                    stepper: kind,
                    ..Default::default()
                })
                .unwrap();
            let mut worst = 0.0f64;
            for sample in &run {
                let k = (sample.time_seconds / 1e-5).round() as usize - 1;
                let err = (sample.field.peak_temperature().as_kelvin()
                    - reference[k].field.peak_temperature().as_kelvin())
                .abs();
                worst = worst.max(err);
            }
            worst
        };
        let be = worst_err(StepperKind::BackwardEuler);
        let exp = worst_err(StepperKind::Exponential(crate::ExponentialOptions {
            x_cells: 4,
            z_cells: 8,
        }));
        assert!(
            exp <= 0.05,
            "exponential backend drifted {exp} K from the fine reference"
        );
        assert!(
            be > 1.0 && exp < be / 10.0,
            "expected BE truncation ≫ exponential error, got BE {be} K, exp {exp} K"
        );
    }

    /// The backward-Euler cross-check the exponential backend is gated on:
    /// every sample's peak within BE's truncation envelope (≤ 2 K at
    /// Δt = 2 ms on this ~10.6 K step response), and the *steady states*
    /// coinciding to 0.01 K — at exact condensation both methods share the
    /// fixed point `A·T = p` exactly.
    #[test]
    fn exponential_and_backward_euler_agree() {
        let s = stack();
        let run = |kind: StepperKind| {
            s.solve_transient(&TransientOptions {
                dt_seconds: 2e-3,
                steps: 80,
                stepper: kind,
                ..Default::default()
            })
            .unwrap()
        };
        let be = run(StepperKind::BackwardEuler);
        let exp = run(StepperKind::Exponential(crate::ExponentialOptions {
            x_cells: 4,
            z_cells: 8,
        }));
        for (a, b) in be.iter().zip(&exp) {
            let diff = (a.field.peak_temperature().as_kelvin()
                - b.field.peak_temperature().as_kelvin())
            .abs();
            assert!(
                diff <= 2.0,
                "t = {}: peaks differ by {diff} K",
                a.time_seconds
            );
        }
        let final_diff = (be.last().unwrap().field.peak_temperature().as_kelvin()
            - exp.last().unwrap().field.peak_temperature().as_kelvin())
        .abs();
        assert!(final_diff <= 0.01, "steady states differ by {final_diff} K");
    }

    #[test]
    fn exponential_state_handover_and_zero_power() {
        // Zero power: the forcing vector is zero and the propagator fixes
        // the uniform inlet state, like BE.
        let s = StackBuilder::new(mm(0.4), mm(0.8), 4, 8)
            .silicon_layer("bottom", um(50.0))
            .microchannel_cavity(CavityWidths::Uniform(um(50.0)))
            .silicon_layer("top", um(50.0))
            .build()
            .unwrap();
        let options = TransientOptions {
            dt_seconds: 1e-3,
            steps: 5,
            stepper: StepperKind::Exponential(crate::ExponentialOptions::default()),
            ..Default::default()
        };
        for sample in s.solve_transient(&options).unwrap() {
            assert!((sample.field.peak_temperature().as_kelvin() - 300.0).abs() < 1e-9);
        }
        // State handover: 2 + 3 steps through a fresh stepper equals 5
        // straight, bitwise — the exponential backend keeps no hidden state
        // beyond the temperatures.
        let s = stack();
        let options = TransientOptions {
            steps: 5,
            stepper: StepperKind::Exponential(crate::ExponentialOptions::default()),
            ..Default::default()
        };
        let straight = s.solve_transient(&options).unwrap();
        let mut first = s.transient_stepper(&options).unwrap();
        first.step().unwrap();
        first.step().unwrap();
        let mut second = s.transient_stepper(&options).unwrap();
        second
            .set_state(first.state(), first.time_seconds())
            .unwrap();
        let mut last = None;
        for _ in 0..3 {
            last = Some(second.step().unwrap());
        }
        for (a, b) in last
            .unwrap()
            .field
            .layers()
            .iter()
            .zip(straight.last().unwrap().field.layers())
            .flat_map(|(x, y)| x.as_kelvin().iter().zip(y.as_kelvin()))
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn exponential_rejects_zero_cells() {
        let s = stack();
        assert!(matches!(
            s.solve_transient(&TransientOptions {
                stepper: StepperKind::Exponential(crate::ExponentialOptions {
                    x_cells: 0,
                    z_cells: 4,
                }),
                ..Default::default()
            }),
            Err(GridSimError::InvalidTransient { .. })
        ));
    }

    #[test]
    fn per_step_energy_balance() {
        // Backward Euler closes the books every step: the energy stored in
        // the lumped capacitances must equal the injected power minus the
        // advected outflow over the step, up to the linear-solver residual.
        let s = stack();
        let samples = s
            .solve_transient(&TransientOptions {
                dt_seconds: 1e-3,
                steps: 40,
                solver: SolverOptions {
                    tolerance: 1e-13,
                    ..SolverOptions::default()
                },
                ..Default::default()
            })
            .unwrap();
        let dt = 1e-3;
        for sample in &samples {
            let injected = sample.field.total_power().as_watts() * dt;
            let advected = sample.field.advected_power().as_watts() * dt;
            let residual = (injected - advected - sample.stored_joules).abs();
            assert!(
                residual <= 1e-6 * injected.max(1e-12),
                "t = {}: injected {injected} J, advected {advected} J, stored {} J \
                 (residual {residual})",
                sample.time_seconds,
                sample.stored_joules
            );
        }
        // Early on most of the heat goes into the capacitances; near steady
        // state almost everything leaves through the coolant.
        let first = &samples[0];
        let last = samples.last().unwrap();
        assert!(first.stored_joules > 0.5 * first.field.total_power().as_watts() * dt);
        assert!(last.stored_joules < 0.1 * last.field.total_power().as_watts() * dt);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::stack::{CavityWidths, StackBuilder};
    use crate::{ExponentialOptions, PowerMap};
    use liquamod_units::{HeatFlux, Length};
    use proptest::prelude::*;

    fn scaled_stack(scale: f64) -> Stack {
        let mm = |v| Length::from_millimeters(v);
        let um = |v| Length::from_micrometers(v);
        let p = PowerMap::uniform_flux(
            HeatFlux::from_w_per_cm2(50.0 * scale),
            4,
            8,
            mm(0.4),
            mm(0.8),
        );
        StackBuilder::new(mm(0.4), mm(0.8), 4, 8)
            .silicon_layer("bottom", um(50.0))
            .powered_by(p.clone())
            .microchannel_cavity(CavityWidths::Uniform(um(50.0)))
            .silicon_layer("top", um(50.0))
            .powered_by(p)
            .build()
            .unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Random non-negative power traces (piecewise-constant phases,
        /// state handed over at each phase change): the exponential and
        /// backward-Euler backends track each other within backward
        /// Euler's truncation envelope at Δt = 1 ms — 25 % of the largest
        /// rise either backend has seen so far, plus 0.1 K. The envelope
        /// is set by BE's first-step damping error (measured ~16 % of the
        /// one-step rise on this stack; ~9 % over a full step response),
        /// not by the exponential backend, which is time-exact at this
        /// condensation.
        #[test]
        fn exponential_tracks_backward_euler_on_random_traces(
            scales in proptest::collection::vec(0.0f64..2.0, 2..5),
        ) {
            let run = |kind: StepperKind| -> Vec<f64> {
                let mut peaks = Vec::new();
                let mut state: Option<(Vec<f64>, f64)> = None;
                for &scale in &scales {
                    let stack = scaled_stack(scale);
                    let options = TransientOptions {
                        dt_seconds: 1e-3,
                        stepper: kind.clone(),
                        ..Default::default()
                    };
                    let mut stepper = stack.transient_stepper(&options).unwrap();
                    if let Some((temps, time)) = &state {
                        stepper.set_state(temps, *time).unwrap();
                    }
                    for _ in 0..10 {
                        let sample = stepper.step().unwrap();
                        peaks.push(sample.field.peak_temperature().as_kelvin());
                    }
                    state = Some((stepper.state().to_vec(), stepper.time_seconds()));
                }
                peaks
            };
            let be = run(StepperKind::BackwardEuler);
            let exp = run(StepperKind::Exponential(ExponentialOptions {
                x_cells: 4,
                z_cells: 8,
            }));
            let mut max_rise = 0.0f64;
            for (step, (a, b)) in be.iter().zip(&exp).enumerate() {
                max_rise = max_rise.max(a - 300.0).max(b - 300.0);
                let bound = 0.25 * max_rise + 0.1;
                let diff = (a - b).abs();
                prop_assert!(
                    diff <= bound,
                    "step {step}: peaks {a} / {b} differ by {diff} K (bound {bound} K)"
                );
            }
        }
    }
}
