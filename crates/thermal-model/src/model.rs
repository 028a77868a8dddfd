//! The channel-stack model: geometry + loads → solved profiles.

use crate::bvp::{self, BcEnd, BoundaryCondition, Coefficients};
use crate::conductance::ElementConductances;
use crate::solution::{ColumnProfiles, Solution};
use crate::workspace::SolveWorkspace;
use crate::{HeatProfile, ModelParams, Result, ThermalModelError, WidthProfile};
use liquamod_microfluidics::pressure;
use liquamod_units::{Length, Pressure, VolumetricFlowRate};

/// Direction of coolant flow through a column.
///
/// `Reverse` models the alternating/counter-flow arrangements investigated by
/// Brunschwiler et al. (the paper's ref. \[2\]) as a design-space extension:
/// the coolant enters at `z = d` and exits at `z = 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowDirection {
    /// Inlet at `z = 0` (the paper's arrangement).
    #[default]
    Forward,
    /// Inlet at `z = d` (counter-flow extension).
    Reverse,
}

/// One channel column of the stack: a width profile, the heat loads on the
/// two active layers above and below it, and an optional grouping factor
/// (one column node representing `m` adjacent physical channels, per §III).
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelColumn {
    width: WidthProfile,
    heat_top: HeatProfile,
    heat_bottom: HeatProfile,
    group_size: usize,
    flow: FlowDirection,
}

impl ChannelColumn {
    /// Creates a column with the given width profile, no heat load, group
    /// size 1 and forward flow.
    pub fn new(width: WidthProfile) -> Self {
        Self {
            width,
            heat_top: HeatProfile::zero(),
            heat_bottom: HeatProfile::zero(),
            group_size: 1,
            flow: FlowDirection::Forward,
        }
    }

    /// Sets the top-layer heat profile (aggregate over the column's group).
    pub fn with_heat_top(mut self, heat: HeatProfile) -> Self {
        self.heat_top = heat;
        self
    }

    /// Sets the bottom-layer heat profile (aggregate over the column's group).
    pub fn with_heat_bottom(mut self, heat: HeatProfile) -> Self {
        self.heat_bottom = heat;
        self
    }

    /// Sets the number of physical channels this column represents.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn with_group_size(mut self, m: usize) -> Self {
        assert!(m > 0, "group size must be at least one channel");
        self.group_size = m;
        self
    }

    /// Sets the coolant flow direction.
    pub fn with_flow_direction(mut self, flow: FlowDirection) -> Self {
        self.flow = flow;
        self
    }

    /// Replaces the width profile (the optimizer's update path).
    pub fn set_width(&mut self, width: WidthProfile) {
        self.width = width;
    }

    /// Width profile.
    pub fn width(&self) -> &WidthProfile {
        &self.width
    }

    /// Top-layer heat profile.
    pub fn heat_top(&self) -> &HeatProfile {
        &self.heat_top
    }

    /// Bottom-layer heat profile.
    pub fn heat_bottom(&self) -> &HeatProfile {
        &self.heat_bottom
    }

    /// Number of physical channels represented.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Coolant flow direction.
    pub fn flow_direction(&self) -> FlowDirection {
        self.flow
    }
}

/// Discretization options for [`Model::solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Number of uniform base mesh intervals along the channel (profile
    /// breakpoints are inserted on top). More intervals resolve the
    /// `√(ĝ_l/ĝ_v)`-scale conduction boundary layers more sharply; 512 keeps
    /// metric errors well below the physical effects under study.
    pub mesh_intervals: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            mesh_intervals: 512,
        }
    }
}

impl SolveOptions {
    /// Options with a custom base mesh resolution.
    pub fn with_mesh_intervals(n: usize) -> Self {
        Self { mesh_intervals: n }
    }
}

/// The two §IV cost integrals of one solve, evaluated directly from the
/// workspace states by [`Model::solve_costs_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostIntegrals {
    /// `∫ ‖dT/dz‖² dz` over every layer of every column (paper Eq. 7).
    pub gradient_squared: f64,
    /// `∫ ‖q‖² dz` over every layer of every column (§IV-A variant).
    pub heatflow_squared: f64,
}

/// A liquid-cooled two-active-layer channel stack: the paper's Fig. 2
/// structure, generalized to `N` laterally coupled channel columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    params: ModelParams,
    length: Length,
    columns: Vec<ChannelColumn>,
}

impl Model {
    /// Builds a model and validates parameters, geometry and width ranges.
    ///
    /// # Errors
    ///
    /// * [`ThermalModelError::InvalidParams`] if the parameter set is
    ///   inconsistent (see [`ModelParams::validation_errors`]) or the length
    ///   is not positive;
    /// * [`ThermalModelError::NoColumns`] for an empty column list;
    /// * [`ThermalModelError::InvalidWidth`] if any width profile leaves
    ///   `(0, pitch)` — note the *optimizer* constrains to `[w_min, w_max]`,
    ///   but the model accepts any physically meaningful width so that
    ///   baselines outside the optimization box can be studied.
    pub fn new(params: ModelParams, length: Length, columns: Vec<ChannelColumn>) -> Result<Self> {
        let mut problems = params.validation_errors();
        if !(length.is_finite() && length.si() > 0.0) {
            problems.push(format!("channel length must be positive, got {length}"));
        }
        if !problems.is_empty() {
            return Err(ThermalModelError::InvalidParams { problems });
        }
        if columns.is_empty() {
            return Err(ThermalModelError::NoColumns);
        }
        for (i, col) in columns.iter().enumerate() {
            let lo = col.width.min_width();
            let hi = col.width.max_width();
            if lo.si() <= 0.0 || hi.si() >= params.pitch.si() {
                return Err(ThermalModelError::InvalidWidth {
                    column: i,
                    width: if lo.si() <= 0.0 { lo.si() } else { hi.si() },
                });
            }
        }
        Ok(Self {
            params,
            length,
            columns,
        })
    }

    /// Model parameters.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Channel length `d`.
    pub fn length(&self) -> Length {
        self.length
    }

    /// Channel columns.
    pub fn columns(&self) -> &[ChannelColumn] {
        &self.columns
    }

    /// Total number of physical channels across all columns.
    pub fn n_physical_channels(&self) -> usize {
        self.columns.iter().map(|c| c.group_size).sum()
    }

    /// Replaces the width profile of column `i` (validated).
    ///
    /// # Errors
    ///
    /// [`ThermalModelError::InvalidWidth`] under the same rules as
    /// [`Model::new`].
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set_width_profile(&mut self, i: usize, width: WidthProfile) -> Result<()> {
        let lo = width.min_width();
        let hi = width.max_width();
        if lo.si() <= 0.0 || hi.si() >= self.params.pitch.si() {
            return Err(ThermalModelError::InvalidWidth {
                column: i,
                width: if lo.si() <= 0.0 { lo.si() } else { hi.si() },
            });
        }
        self.columns[i].set_width(width);
        Ok(())
    }

    /// Solves the steady-state BVP and returns the profiles and metrics.
    ///
    /// One-shot convenience over [`Model::solve_with`]: repeated solves (the
    /// optimizer's hot path) should keep a [`SolveWorkspace`] alive instead;
    /// results are bitwise identical either way.
    ///
    /// # Errors
    ///
    /// * [`ThermalModelError::InvalidOptions`] for a zero mesh;
    /// * [`ThermalModelError::Singular`] if the collocation matrix cannot be
    ///   factored (degenerate geometry);
    /// * [`ThermalModelError::Microfluidics`] if a width profile produces an
    ///   invalid duct at some position.
    pub fn solve(&self, options: &SolveOptions) -> Result<Solution> {
        self.solve_with(options, &mut SolveWorkspace::new())
    }

    /// Solves the steady-state BVP reusing `ws` for every internal buffer.
    ///
    /// The mesh, banded matrix, factorization, right-hand side and scratch
    /// buffers live in the workspace and are recycled across calls; in the
    /// steady state of an optimization loop (same model shape, varying width
    /// values) the solve-size-dominant allocations disappear, leaving only
    /// small per-solve coefficient construction and the returned
    /// [`Solution`]'s profile vectors. The workspace adapts when the model
    /// or options change, so
    /// sharing one workspace across different models is safe. See
    /// [`crate::workspace`] for the lifecycle.
    ///
    /// # Errors
    ///
    /// Same as [`Model::solve`].
    pub fn solve_with(&self, options: &SolveOptions, ws: &mut SolveWorkspace) -> Result<Solution> {
        self.solve_raw(options, ws)?;

        // Unpack node-major states into per-column profiles.
        let n_nodes = ws.mesh.len();
        let s = 5 * self.columns.len();
        let states = &ws.bvp.rhs;
        let mut columns = Vec::with_capacity(self.columns.len());
        for (i, col) in self.columns.iter().enumerate() {
            let base = 5 * i;
            let component = |offset: usize| -> Vec<f64> {
                (0..n_nodes)
                    .map(|j| states[j * s + base + offset])
                    .collect()
            };
            columns.push(ColumnProfiles {
                t_top: component(0),
                t_bottom: component(1),
                q_top: component(2),
                q_bottom: component(3),
                t_coolant: component(4),
                g_longitudinal: self.params.g_longitudinal() * col.group_size as f64,
                capacity_rate: self.params.capacity_rate() * col.group_size as f64,
            });
        }

        let total_input_power: f64 = self
            .columns
            .iter()
            .map(|c| {
                c.heat_top.total_power(self.length).as_watts()
                    + c.heat_bottom.total_power(self.length).as_watts()
            })
            .sum();

        Ok(Solution {
            z: ws.mesh.clone(),
            columns,
            total_input_power,
            inlet_temperature: self.params.inlet_temperature.si(),
        })
    }

    /// Solves the BVP and evaluates only the optimal-control cost integrals,
    /// skipping the [`Solution`] profile materialization entirely — the
    /// optimizer's objective path, which discards everything but one scalar.
    /// Bitwise-identical to computing [`Solution::cost_gradient_squared`] /
    /// [`Solution::cost_heatflow_squared`] on [`Model::solve_with`]'s result.
    ///
    /// # Errors
    ///
    /// Same as [`Model::solve`].
    pub fn solve_costs_with(
        &self,
        options: &SolveOptions,
        ws: &mut SolveWorkspace,
    ) -> Result<CostIntegrals> {
        self.solve_raw(options, ws)?;
        let n_nodes = ws.mesh.len();
        let s = 5 * self.columns.len();
        let states = &ws.bvp.rhs;
        let mut gradient_squared = 0.0;
        let mut heatflow_squared = 0.0;
        for (i, col) in self.columns.iter().enumerate() {
            let scale = 1.0 / (self.params.g_longitudinal() * col.group_size as f64);
            let q = |j: usize| (states[j * s + 5 * i + 2], states[j * s + 5 * i + 3]);
            // Trapezoid with the same per-node arithmetic as
            // `Solution::integrate_columns` (f evaluated afresh at j and
            // j+1), so the sums agree bit for bit.
            for j in 0..n_nodes - 1 {
                let h = ws.mesh[j + 1] - ws.mesh[j];
                let (t0, b0) = q(j);
                let (t1, b1) = q(j + 1);
                gradient_squared += 0.5
                    * h
                    * ((t0 * scale).powi(2)
                        + (b0 * scale).powi(2)
                        + ((t1 * scale).powi(2) + (b1 * scale).powi(2)));
                heatflow_squared += 0.5 * h * (t0.powi(2) + b0.powi(2) + (t1.powi(2) + b1.powi(2)));
            }
        }
        Ok(CostIntegrals {
            gradient_squared,
            heatflow_squared,
        })
    }

    /// Shared internals of [`Model::solve_with`] / [`Model::solve_costs_with`]:
    /// mesh refresh, assembly and the banded solve, leaving the node-major
    /// states in the workspace.
    fn solve_raw(&self, options: &SolveOptions, ws: &mut SolveWorkspace) -> Result<()> {
        let coeffs = self.prepare_solve(options, ws)?;
        bvp::solve_into(&coeffs, &ws.mesh, &ws.bcs, &mut ws.bvp)?;
        Ok(())
    }

    /// The collocation system [`Model::solve_with`] would factor, assembled
    /// but not solved (the kernel tests' view of a real model).
    #[cfg(test)]
    pub(crate) fn assembled_system(
        &self,
        options: &SolveOptions,
    ) -> Result<(crate::linalg::BandedMatrix, Vec<f64>)> {
        let mut ws = SolveWorkspace::new();
        let coeffs = self.prepare_solve(options, &mut ws)?;
        Ok(bvp::assemble(&coeffs, &ws.mesh, &ws.bcs))
    }

    /// Refreshes the workspace's mesh and boundary conditions for this
    /// model and builds its coefficient callback.
    fn prepare_solve(
        &self,
        options: &SolveOptions,
        ws: &mut SolveWorkspace,
    ) -> Result<StackCoefficients<'_>> {
        if options.mesh_intervals == 0 {
            return Err(ThermalModelError::InvalidOptions {
                what: "mesh_intervals must be at least 1".to_string(),
            });
        }
        let d = self.length.si();

        // Refresh the cached mesh only when its inputs changed. The
        // breakpoint list is collected in deterministic model order, so an
        // element-wise comparison against the cached list is exact.
        ws.bp_scratch.clear();
        for col in &self.columns {
            let bp = &mut ws.bp_scratch;
            col.width.append_breakpoints_si(self.length, bp);
            col.heat_top.append_breakpoints_si(bp);
            col.heat_bottom.append_breakpoints_si(bp);
        }
        let key = (d, options.mesh_intervals);
        if ws.mesh_key != Some(key) || ws.bp_scratch != ws.breakpoints {
            bvp::build_mesh_into(d, options.mesh_intervals, &ws.bp_scratch, &mut ws.mesh);
            std::mem::swap(&mut ws.breakpoints, &mut ws.bp_scratch);
            ws.mesh_key = Some(key);
            ws.mesh_builds += 1;
        }
        ws.solves += 1;

        let coeffs = StackCoefficients::build(self)?;
        self.boundary_conditions_into(&mut ws.bcs);
        Ok(coeffs)
    }

    /// Pressure drop of one *physical* channel in each column at the model's
    /// flow rate (paper Eq. 9). Uniform and piecewise-constant profiles are
    /// integrated exactly; piecewise-linear profiles use 512-interval
    /// Simpson quadrature.
    ///
    /// # Errors
    ///
    /// Propagates [`ThermalModelError::Microfluidics`] for unphysical widths.
    pub fn pressure_drops(&self) -> Result<Vec<Pressure>> {
        self.columns
            .iter()
            .map(|col| self.column_pressure_drop(col.width()))
            .collect()
    }

    /// Pressure drop for an arbitrary width profile under this model's
    /// parameters and length (used by the optimizer's constraint path
    /// without mutating the model).
    ///
    /// # Errors
    ///
    /// Propagates [`ThermalModelError::Microfluidics`] for unphysical widths.
    pub fn column_pressure_drop(&self, width: &WidthProfile) -> Result<Pressure> {
        let p = &self.params;
        let dp = match width {
            WidthProfile::Uniform(w) => pressure::uniform_channel_pressure_drop(
                p.friction,
                &liquamod_microfluidics::RectDuct::new(*w, p.h_c)?,
                &p.coolant,
                p.flow_rate_per_channel,
                self.length,
            )?,
            WidthProfile::PiecewiseConstant { widths } => {
                pressure::modulated_channel_pressure_drop(
                    p.friction,
                    widths,
                    p.h_c,
                    &p.coolant,
                    p.flow_rate_per_channel,
                    self.length,
                )?
            }
            WidthProfile::PiecewiseLinear { .. } => pressure::profile_pressure_drop(
                p.friction,
                |z| width.width_at(z, self.length),
                p.h_c,
                &p.coolant,
                p.flow_rate_per_channel,
                self.length,
                512,
            )?,
        };
        Ok(dp)
    }

    /// Hydraulic pump power for the whole stack: `Σ ΔPᵢ·V̇·mᵢ`.
    ///
    /// # Errors
    ///
    /// Propagates [`ThermalModelError::Microfluidics`] for unphysical widths.
    pub fn pump_power(&self) -> Result<liquamod_units::Power> {
        let drops = self.pressure_drops()?;
        let flows: Vec<VolumetricFlowRate> = self
            .columns
            .iter()
            .map(|c| self.params.flow_rate_per_channel * c.group_size as f64)
            .collect();
        Ok(liquamod_microfluidics::pump::cavity_pump_power(
            &drops, &flows,
        ))
    }

    fn boundary_conditions_into(&self, bcs: &mut Vec<BoundaryCondition>) {
        bcs.clear();
        bcs.reserve(5 * self.columns.len());
        for (i, col) in self.columns.iter().enumerate() {
            let base = 5 * i;
            bcs.push(BoundaryCondition {
                state: base + 2,
                end: BcEnd::Start,
                value: 0.0,
            });
            bcs.push(BoundaryCondition {
                state: base + 3,
                end: BcEnd::Start,
                value: 0.0,
            });
            bcs.push(BoundaryCondition {
                state: base + 2,
                end: BcEnd::End,
                value: 0.0,
            });
            bcs.push(BoundaryCondition {
                state: base + 3,
                end: BcEnd::End,
                value: 0.0,
            });
            let (end, _) = match col.flow {
                FlowDirection::Forward => (BcEnd::Start, ()),
                FlowDirection::Reverse => (BcEnd::End, ()),
            };
            bcs.push(BoundaryCondition {
                state: base + 4,
                end,
                value: self.params.inlet_temperature.si(),
            });
        }
    }
}

/// Per-column memo of width → conductances.
///
/// With the entry-length correction off (the default), the Eq. (2) circuit
/// parameters depend only on the local width — and uniform/piecewise-constant
/// profiles take a handful of distinct widths, while the assembly queries one
/// per mesh interval. Precomputing per distinct width turns the assembly's
/// dominant cost (duct + Nusselt evaluation) into a tiny table lookup. Cached
/// values are produced by the same [`ElementConductances::evaluate`] call the
/// direct path makes, so solves are bitwise identical either way.
struct ConductanceCache {
    /// `(width bits, conductances)` for each distinct profile width.
    entries: Vec<(u64, ElementConductances)>,
    /// Most recently hit entry — `z` advances monotonically during assembly,
    /// so consecutive lookups almost always land in the same segment.
    last: std::cell::Cell<usize>,
}

impl ConductanceCache {
    /// Builds the memo for `col`, or `None` when the conductances are
    /// z-dependent (developing flow) or the profile is not piecewise
    /// constant.
    fn build(params: &ModelParams, col: &ChannelColumn) -> Result<Option<Self>> {
        if params.developing_flow {
            return Ok(None);
        }
        let mut widths: Vec<Length> = match col.width() {
            WidthProfile::Uniform(w) => vec![*w],
            WidthProfile::PiecewiseConstant { widths } => widths.clone(),
            WidthProfile::PiecewiseLinear { .. } => return Ok(None),
        };
        widths.sort_by(|a, b| a.si().partial_cmp(&b.si()).expect("finite widths"));
        widths.dedup_by_key(|w| w.si().to_bits());
        let entries = widths
            .into_iter()
            .map(|w| {
                ElementConductances::evaluate(params, w, col.group_size(), Length::ZERO)
                    .map(|c| (w.si().to_bits(), c))
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Ok(Some(Self {
            entries,
            last: std::cell::Cell::new(0),
        }))
    }

    /// Looks up the conductances for `width`; `None` on a miss (the caller
    /// falls back to a direct evaluation).
    fn get(&self, width: Length) -> Option<ElementConductances> {
        let bits = width.si().to_bits();
        let last = self.last.get();
        if let Some(&(b, c)) = self.entries.get(last) {
            if b == bits {
                return Some(c);
            }
        }
        let idx = self.entries.iter().position(|&(b, _)| b == bits)?;
        self.last.set(idx);
        Some(self.entries[idx].1)
    }
}

/// Precomputed per-column closures for the coefficient callback.
struct StackCoefficients<'m> {
    model: &'m Model,
    /// Lateral conductances between columns `i` and `i+1`.
    lateral: Vec<f64>,
    /// Per-column width → conductance memos (`None` → evaluate per z).
    caches: Vec<Option<ConductanceCache>>,
}

impl<'m> StackCoefficients<'m> {
    fn build(model: &'m Model) -> Result<Self> {
        // Probe every column's width range once so invalid widths surface as
        // a model error before assembly.
        for col in model.columns() {
            let _ = ElementConductances::evaluate(
                &model.params,
                col.width().min_width(),
                col.group_size(),
                Length::ZERO,
            )?;
        }
        let caches = model
            .columns()
            .iter()
            .map(|col| ConductanceCache::build(&model.params, col))
            .collect::<Result<Vec<_>>>()?;
        let lateral = model
            .columns()
            .windows(2)
            .map(|pair| {
                ElementConductances::lateral_between(
                    &model.params,
                    pair[0].group_size(),
                    pair[1].group_size(),
                )
            })
            .collect();
        Ok(Self {
            model,
            lateral,
            caches,
        })
    }
}

impl Coefficients for StackCoefficients<'_> {
    fn n_states(&self) -> usize {
        5 * self.model.columns().len()
    }

    fn eval(&self, z: f64, a: &mut [f64], b: &mut [f64]) {
        let s = self.n_states();
        a.iter_mut().for_each(|v| *v = 0.0);
        b.iter_mut().for_each(|v| *v = 0.0);
        let d = self.model.length();
        let zl = Length::from_meters(z);
        let cols = self.model.columns();

        for (i, col) in cols.iter().enumerate() {
            let z_from_inlet = match col.flow_direction() {
                FlowDirection::Forward => zl,
                FlowDirection::Reverse => Length::from_meters(d.si() - z),
            };
            let width = col.width().width_at(zl, d);
            let cached = self.caches[i].as_ref().and_then(|cache| cache.get(width));
            let c = cached.unwrap_or_else(|| {
                ElementConductances::evaluate(
                    &self.model.params,
                    width,
                    col.group_size(),
                    z_from_inlet,
                )
                .expect("width range validated at model construction")
            });

            let t1 = 5 * i;
            let t2 = t1 + 1;
            let q1 = t1 + 2;
            let q2 = t1 + 3;
            let tc = t1 + 4;

            // dT/dz = −q/ĝ_l
            a[t1 * s + q1] = -1.0 / c.g_longitudinal;
            a[t2 * s + q2] = -1.0 / c.g_longitudinal;

            // dq/dz = q̂ − ĝ_v(T − T_C) − ĝ_w(T − T_other) [+ lateral]
            a[q1 * s + t1] += -(c.g_vertical + c.g_wall);
            a[q1 * s + t2] += c.g_wall;
            a[q1 * s + tc] += c.g_vertical;
            b[q1] = col.heat_top().value_at(zl).si();

            a[q2 * s + t2] += -(c.g_vertical + c.g_wall);
            a[q2 * s + t1] += c.g_wall;
            a[q2 * s + tc] += c.g_vertical;
            b[q2] = col.heat_bottom().value_at(zl).si();

            // c_v·V̇·dT_C/dz = ±[ĝ_v(T1 − T_C) + ĝ_v(T2 − T_C)]
            let sign = match col.flow_direction() {
                FlowDirection::Forward => 1.0,
                FlowDirection::Reverse => -1.0,
            };
            let k = sign * c.g_vertical / c.capacity_rate;
            a[tc * s + t1] += k;
            a[tc * s + t2] += k;
            a[tc * s + tc] += -2.0 * k;

            // Lateral coupling with the neighbours, on both layers.
            if i > 0 {
                let g = self.lateral[i - 1];
                let o1 = 5 * (i - 1);
                a[q1 * s + t1] += -g;
                a[q1 * s + o1] += g;
                a[q2 * s + t2] += -g;
                a[q2 * s + o1 + 1] += g;
            }
            if i + 1 < cols.len() {
                let g = self.lateral[i];
                let o1 = 5 * (i + 1);
                a[q1 * s + t1] += -g;
                a[q1 * s + o1] += g;
                a[q2 * s + t2] += -g;
                a[q2 * s + o1 + 1] += g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::sliding_row;
    use liquamod_units::LinearHeatFlux;
    use proptest::prelude::*;

    fn wpm(v: f64) -> LinearHeatFlux {
        LinearHeatFlux::from_w_per_m(v)
    }

    fn test_a_model(width_um: f64) -> Model {
        let params = ModelParams::date2012();
        let col = ChannelColumn::new(WidthProfile::uniform(Length::from_micrometers(width_um)))
            .with_heat_top(HeatProfile::uniform(wpm(50.0)))
            .with_heat_bottom(HeatProfile::uniform(wpm(50.0)));
        Model::new(params, Length::from_centimeters(1.0), vec![col]).expect("valid model")
    }

    #[test]
    fn construction_validates() {
        let params = ModelParams::date2012();
        assert!(matches!(
            Model::new(params.clone(), Length::from_centimeters(1.0), vec![]),
            Err(ThermalModelError::NoColumns)
        ));
        assert!(matches!(
            Model::new(
                params.clone(),
                Length::ZERO,
                vec![ChannelColumn::new(WidthProfile::uniform(
                    Length::from_micrometers(30.0)
                ))]
            ),
            Err(ThermalModelError::InvalidParams { .. })
        ));
        // Width at/above pitch is rejected.
        assert!(matches!(
            Model::new(
                params,
                Length::from_centimeters(1.0),
                vec![ChannelColumn::new(WidthProfile::uniform(
                    Length::from_micrometers(100.0)
                ))]
            ),
            Err(ThermalModelError::InvalidWidth { .. })
        ));
    }

    #[test]
    fn zero_heat_stays_at_inlet_temperature() {
        let params = ModelParams::date2012();
        let col = ChannelColumn::new(WidthProfile::uniform(Length::from_micrometers(30.0)));
        let model = Model::new(params, Length::from_centimeters(1.0), vec![col]).unwrap();
        let sol = model.solve(&SolveOptions::with_mesh_intervals(64)).unwrap();
        assert!((sol.peak_temperature().as_kelvin() - 300.0).abs() < 1e-9);
        assert!((sol.min_temperature().as_kelvin() - 300.0).abs() < 1e-9);
        assert!(sol.thermal_gradient().as_kelvin().abs() < 1e-9);
    }

    #[test]
    fn uniform_heat_energy_balance() {
        let model = test_a_model(50.0);
        let sol = model.solve(&SolveOptions::default()).unwrap();
        // 50 + 50 W/m over 1 cm = 1 W in; advected out must match to
        // roundoff (midpoint scheme telescopes exactly).
        assert!((sol.total_input_power().as_watts() - 1.0).abs() < 1e-12);
        assert!(
            sol.energy_balance_residual() < 1e-9,
            "residual = {}",
            sol.energy_balance_residual()
        );
    }

    #[test]
    fn coolant_heats_along_channel() {
        let model = test_a_model(50.0);
        let sol = model.solve(&SolveOptions::default()).unwrap();
        let c = sol.column(0);
        // Monotone coolant rise from 300 K by Q/cvV̇ = 1/0.03475 ≈ 28.8 K.
        assert!((c.t_coolant(0).as_kelvin() - 300.0).abs() < 1e-6);
        let rise = sol.coolant_outlet(0).as_kelvin() - 300.0;
        assert!((rise - 28.78).abs() < 0.5, "rise = {rise}");
        for j in 1..sol.n_nodes() {
            assert!(c.t_coolant_kelvin()[j] >= c.t_coolant_kelvin()[j - 1]);
        }
    }

    #[test]
    fn silicon_sits_above_coolant_under_load() {
        let model = test_a_model(50.0);
        let sol = model.solve(&SolveOptions::default()).unwrap();
        let c = sol.column(0);
        for j in 0..sol.n_nodes() {
            assert!(c.t_top_kelvin()[j] > c.t_coolant_kelvin()[j]);
            assert!(c.t_bottom_kelvin()[j] > c.t_coolant_kelvin()[j]);
        }
    }

    #[test]
    fn symmetric_load_gives_symmetric_layers() {
        let model = test_a_model(35.0);
        let sol = model.solve(&SolveOptions::default()).unwrap();
        let c = sol.column(0);
        for j in 0..sol.n_nodes() {
            assert!(
                (c.t_top_kelvin()[j] - c.t_bottom_kelvin()[j]).abs() < 1e-9,
                "layers should match under symmetric load"
            );
        }
    }

    #[test]
    fn adiabatic_ends_have_zero_heatflow() {
        let model = test_a_model(50.0);
        let sol = model.solve(&SolveOptions::default()).unwrap();
        let c = sol.column(0);
        assert!(c.q_top(0).as_watts().abs() < 1e-12);
        assert!(c.q_bottom(0).as_watts().abs() < 1e-12);
        let last = sol.n_nodes() - 1;
        assert!(c.q_top(last).as_watts().abs() < 1e-12);
        assert!(c.q_bottom(last).as_watts().abs() < 1e-12);
    }

    #[test]
    fn min_and_max_width_gradients_are_similar_advection_dominated() {
        // The paper's Fig. 5 observation: uniformly minimum and uniformly
        // maximum widths give nearly the same thermal gradient, because the
        // gradient is dominated by the coolant's sensible heating.
        let g_max = test_a_model(50.0)
            .solve(&SolveOptions::default())
            .unwrap()
            .thermal_gradient()
            .as_kelvin();
        let g_min = test_a_model(10.0)
            .solve(&SolveOptions::default())
            .unwrap()
            .thermal_gradient()
            .as_kelvin();
        let rel = (g_max - g_min).abs() / g_max.max(g_min);
        assert!(
            rel < 0.2,
            "gradients {g_max} vs {g_min} should be within 20%"
        );
    }

    #[test]
    fn tapered_width_reduces_gradient() {
        // The paper's core claim, single-channel version (Fig. 5a/6a): a
        // width taper from wide (inlet) to narrow (outlet) beats uniform.
        let uniform = test_a_model(50.0).solve(&SolveOptions::default()).unwrap();
        let mut tapered_model = test_a_model(50.0);
        let taper: Vec<Length> = (0..16)
            .map(|k| Length::from_micrometers(50.0 - 40.0 * k as f64 / 15.0))
            .collect();
        tapered_model
            .set_width_profile(0, WidthProfile::piecewise_constant(taper))
            .unwrap();
        let tapered = tapered_model.solve(&SolveOptions::default()).unwrap();
        assert!(
            tapered.thermal_gradient().as_kelvin() < uniform.thermal_gradient().as_kelvin(),
            "taper {} K should beat uniform {} K",
            tapered.thermal_gradient().as_kelvin(),
            uniform.thermal_gradient().as_kelvin()
        );
    }

    #[test]
    fn grouped_column_matches_replicated_columns() {
        // One column with group_size=4 and 4× heat should reproduce the bulk
        // behaviour of four identical independent columns (lateral coupling
        // between identical columns carries no heat).
        let params = ModelParams::date2012();
        let heat = HeatProfile::uniform(wpm(50.0));
        let four_cols: Vec<ChannelColumn> = (0..4)
            .map(|_| {
                ChannelColumn::new(WidthProfile::uniform(Length::from_micrometers(30.0)))
                    .with_heat_top(heat.clone())
                    .with_heat_bottom(heat.clone())
            })
            .collect();
        let grouped = ChannelColumn::new(WidthProfile::uniform(Length::from_micrometers(30.0)))
            .with_group_size(4)
            .with_heat_top(heat.scaled(4.0))
            .with_heat_bottom(heat.scaled(4.0));
        let d = Length::from_centimeters(1.0);
        let sol_four = Model::new(params.clone(), d, four_cols)
            .unwrap()
            .solve(&SolveOptions::with_mesh_intervals(256))
            .unwrap();
        let sol_grouped = Model::new(params, d, vec![grouped])
            .unwrap()
            .solve(&SolveOptions::with_mesh_intervals(256))
            .unwrap();
        let dg = (sol_four.thermal_gradient().as_kelvin()
            - sol_grouped.thermal_gradient().as_kelvin())
        .abs();
        assert!(dg < 1e-6, "gradient mismatch {dg}");
        let dp = (sol_four.peak_temperature().as_kelvin()
            - sol_grouped.peak_temperature().as_kelvin())
        .abs();
        assert!(dp < 1e-6, "peak mismatch {dp}");
    }

    #[test]
    fn lateral_coupling_spreads_heat_between_columns() {
        // Hot column next to a cold column: the cold one must warm above
        // inlet, the hot one must be cooler than it would be alone.
        let params = ModelParams::date2012();
        let d = Length::from_centimeters(1.0);
        let w = WidthProfile::uniform(Length::from_micrometers(30.0));
        let hot = ChannelColumn::new(w.clone())
            .with_heat_top(HeatProfile::uniform(wpm(100.0)))
            .with_heat_bottom(HeatProfile::uniform(wpm(100.0)));
        let cold = ChannelColumn::new(w.clone());
        let pair = Model::new(params.clone(), d, vec![hot.clone(), cold]).unwrap();
        let sol_pair = pair.solve(&SolveOptions::with_mesh_intervals(256)).unwrap();
        let alone = Model::new(params, d, vec![hot]).unwrap();
        let sol_alone = alone
            .solve(&SolveOptions::with_mesh_intervals(256))
            .unwrap();
        let cold_peak = sol_pair
            .column(1)
            .t_top_kelvin()
            .iter()
            .fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        assert!(
            cold_peak > 300.5,
            "unheated column warms via lateral conduction"
        );
        assert!(
            sol_pair
                .column(0)
                .t_top_kelvin()
                .iter()
                .fold(f64::NEG_INFINITY, |m, &v| m.max(v))
                < sol_alone
                    .column(0)
                    .t_top_kelvin()
                    .iter()
                    .fold(f64::NEG_INFINITY, |m, &v| m.max(v)),
            "sharing heat lowers the hot column's peak"
        );
        // Energy balance still closes with lateral exchange.
        assert!(sol_pair.energy_balance_residual() < 1e-9);
    }

    #[test]
    fn reverse_flow_mirrors_forward() {
        // A single column with an asymmetric (front-loaded) heat profile:
        // reversing the flow direction and the heat profile must mirror the
        // temperature field.
        let params = ModelParams::date2012();
        let d = Length::from_centimeters(1.0);
        let heat_front = HeatProfile::equal_segments(&[wpm(120.0), wpm(40.0)], d);
        let heat_back = HeatProfile::equal_segments(&[wpm(40.0), wpm(120.0)], d);
        let w = WidthProfile::uniform(Length::from_micrometers(30.0));
        let fwd = ChannelColumn::new(w.clone())
            .with_heat_top(heat_front.clone())
            .with_heat_bottom(heat_front);
        let rev = ChannelColumn::new(w)
            .with_heat_top(heat_back.clone())
            .with_heat_bottom(heat_back)
            .with_flow_direction(FlowDirection::Reverse);
        let sol_f = Model::new(params.clone(), d, vec![fwd])
            .unwrap()
            .solve(&SolveOptions::with_mesh_intervals(200))
            .unwrap();
        let sol_r = Model::new(params, d, vec![rev])
            .unwrap()
            .solve(&SolveOptions::with_mesh_intervals(200))
            .unwrap();
        // Compare T_top(z) against T_top(d − z).
        let n = sol_f.n_nodes();
        for j in 0..n {
            let tf = sol_f.column(0).t_top_kelvin()[j];
            let tr = sol_r.column(0).t_top_kelvin()[n - 1 - j];
            assert!(
                (tf - tr).abs() < 1e-6,
                "mirror mismatch at node {j}: {tf} vs {tr}"
            );
        }
        assert!(sol_r.energy_balance_residual() < 1e-9);
    }

    #[test]
    fn pressure_drops_match_microfluidics() {
        let model = test_a_model(50.0);
        let drops = model.pressure_drops().unwrap();
        assert_eq!(drops.len(), 1);
        // ~1.0 bar for 50 µm at 0.5 mL/min over 1 cm.
        assert!(
            drops[0].as_bar() > 0.3 && drops[0].as_bar() < 1.2,
            "dp = {}",
            drops[0].as_bar()
        );
        let power = model.pump_power().unwrap();
        assert!(power.as_watts() > 0.0);
    }

    #[test]
    fn mesh_refinement_converges() {
        let model = test_a_model(50.0);
        let coarse = model
            .solve(&SolveOptions::with_mesh_intervals(128))
            .unwrap();
        let fine = model
            .solve(&SolveOptions::with_mesh_intervals(1024))
            .unwrap();
        let dg = (coarse.thermal_gradient().as_kelvin() - fine.thermal_gradient().as_kelvin())
            .abs()
            / fine.thermal_gradient().as_kelvin();
        assert!(dg < 1e-3, "gradient not mesh-converged: rel diff {dg}");
    }

    #[test]
    fn workspace_reuse_matches_fresh_solve_bitwise() {
        // One workspace serving several models (different widths, heats and
        // mesh resolutions, so the cached mesh both hits and rebuilds) must
        // reproduce the one-shot solve bit for bit.
        let mut ws = SolveWorkspace::new();
        let cases = [
            (35.0, 128usize),
            (50.0, 128),
            (50.0, 64), // mesh rebuild: resolution change
            (20.0, 64),
        ];
        for &(width_um, intervals) in &cases {
            let model = test_a_model(width_um);
            let opts = SolveOptions::with_mesh_intervals(intervals);
            let reused = model.solve_with(&opts, &mut ws).unwrap();
            let fresh = model.solve(&opts).unwrap();
            assert_eq!(reused.n_nodes(), fresh.n_nodes());
            for (zr, zf) in reused.z_meters().iter().zip(fresh.z_meters()) {
                assert_eq!(zr.to_bits(), zf.to_bits());
            }
            for (cr, cf) in reused.columns().iter().zip(fresh.columns()) {
                for (a, b) in [
                    (cr.t_top_kelvin(), cf.t_top_kelvin()),
                    (cr.t_bottom_kelvin(), cf.t_bottom_kelvin()),
                    (cr.t_coolant_kelvin(), cf.t_coolant_kelvin()),
                ] {
                    for (va, vb) in a.iter().zip(b) {
                        assert_eq!(va.to_bits(), vb.to_bits(), "case {width_um}/{intervals}");
                    }
                }
            }
        }
        assert_eq!(ws.solves(), cases.len());
        // Same mesh inputs for the first two cases (heat/width breakpoints
        // are uniform → none): only the resolution changes force rebuilds.
        assert_eq!(ws.mesh_builds(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The collocation systems the optimizer factors, at 1, 2, 4 and 8
        /// columns with forward and reverse flow, solve bit for bit like
        /// the plain sliding-row band LU (exact zeros compared by value).
        #[test]
        fn collocation_solves_match_sliding_row_oracle_bitwise(
            reverse in 0usize..256,
            widths_um in proptest::collection::vec(10.0f64..50.0, 24..25),
            heats in proptest::collection::vec(0.0f64..200.0, 32..33),
            group_size in 1usize..50,
            mesh in 16usize..64,
        ) {
            let d = Length::from_centimeters(1.0);
            for n_cols in [1usize, 2, 4, 8] {
                let columns = (0..n_cols)
                    .map(|i| {
                        let widths = widths_um[3 * i..3 * i + 3]
                            .iter()
                            .map(|&w| Length::from_micrometers(w))
                            .collect();
                        let heat = |j: usize| {
                            let segments = [wpm(heats[4 * i + j]), wpm(heats[4 * i + j + 1])];
                            HeatProfile::equal_segments(&segments, d)
                        };
                        let flow = if reverse >> i & 1 == 1 {
                            FlowDirection::Reverse
                        } else {
                            FlowDirection::Forward
                        };
                        ChannelColumn::new(WidthProfile::piecewise_constant(widths))
                            .with_group_size(group_size)
                            .with_heat_top(heat(0))
                            .with_heat_bottom(heat(2))
                            .with_flow_direction(flow)
                    })
                    .collect();
                let model = Model::new(ModelParams::date2012(), d, columns).unwrap();
                let (matrix, rhs) = model
                    .assembled_system(&SolveOptions::with_mesh_intervals(mesh))
                    .unwrap();
                let expected = sliding_row::solve(&matrix, &rhs).unwrap();
                let got = matrix.factor().unwrap().solve(&rhs);
                prop_assert_eq!(
                    sliding_row::first_difference(&got, &expected),
                    None,
                    "{} columns",
                    n_cols
                );
            }
        }
    }

    #[test]
    fn rejects_zero_mesh() {
        let model = test_a_model(50.0);
        assert!(matches!(
            model.solve(&SolveOptions::with_mesh_intervals(0)),
            Err(ThermalModelError::InvalidOptions { .. })
        ));
    }
}
