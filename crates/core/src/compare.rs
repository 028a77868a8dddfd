//! The paper's §V comparison methodology: uniformly-minimum vs
//! uniformly-maximum vs optimally-modulated channel widths.

use crate::design::{optimize_warm, solve_uniform, DesignOutcome, OptimizationConfig};
use crate::Result;
use liquamod_thermal_model::{Model, Solution, SolveWorkspace, WidthProfile};

/// Metrics of one evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// Case label ("minimum" / "maximum" / "optimal").
    pub label: String,
    /// Thermal gradient (max − min silicon temperature), kelvin.
    pub gradient_k: f64,
    /// Peak silicon temperature, °C.
    pub peak_celsius: f64,
    /// Largest per-channel pressure drop across columns, bar.
    pub max_pressure_bar: f64,
    /// Hydraulic pump power for the whole stack, watts.
    pub pump_power_w: f64,
    /// The paper's Eq. (7) cost integral.
    pub cost_gradient_squared: f64,
}

impl CaseResult {
    fn evaluate(label: &str, model: &Model, solution: &Solution) -> Result<Self> {
        let drops = model.pressure_drops()?;
        let max_dp = drops.iter().map(|p| p.as_bar()).fold(0.0, f64::max);
        Ok(Self {
            label: label.to_string(),
            gradient_k: solution.thermal_gradient().as_kelvin(),
            peak_celsius: solution.peak_temperature().as_celsius(),
            max_pressure_bar: max_dp,
            pump_power_w: model.pump_power()?.as_watts(),
            cost_gradient_squared: solution.cost_gradient_squared(),
        })
    }
}

/// Result of the three-way comparison on one scenario.
#[derive(Debug, Clone)]
pub struct DesignComparison {
    /// Uniformly minimum channel width everywhere.
    pub minimum: CaseResult,
    /// Uniformly maximum channel width everywhere.
    pub maximum: CaseResult,
    /// Optimally modulated widths.
    pub optimal: CaseResult,
    /// Full outcome of the optimization run (profiles, solution…).
    pub outcome: DesignOutcome,
    /// Solutions of the two uniform baselines (profile plotting).
    pub minimum_solution: Solution,
    /// See [`DesignComparison::minimum_solution`].
    pub maximum_solution: Solution,
}

impl DesignComparison {
    /// Runs the full §V comparison on `model`: solve the two uniform-width
    /// baselines, run the optimizer, and collect the metrics.
    ///
    /// # Errors
    ///
    /// Propagates solver and configuration failures.
    pub fn run(model: &Model, config: &OptimizationConfig) -> Result<Self> {
        Self::run_warm(model, config, None)
    }

    /// [`DesignComparison::run`] with an optional optimizer warm start (a
    /// normalized [`DesignOutcome::x_opt`] from a neighbouring scenario; see
    /// [`optimize_warm`]). The uniform baselines are unaffected by the warm
    /// start — only the optimizer's trajectory changes.
    ///
    /// # Errors
    ///
    /// Propagates solver and configuration failures.
    pub fn run_warm(
        model: &Model,
        config: &OptimizationConfig,
        start: Option<&[f64]>,
    ) -> Result<Self> {
        let outcome = optimize_warm(model, config, start)?;
        Self::score(model, config.mesh_intervals, outcome)
    }

    /// Scores `outcome` against the uniformly-minimum and uniformly-maximum
    /// width baselines of `model`, each solved on `mesh_intervals`.
    pub(crate) fn score(
        model: &Model,
        mesh_intervals: usize,
        outcome: DesignOutcome,
    ) -> Result<Self> {
        // The two uniform baselines share one solve workspace; the width
        // ranges are plain `Copy` fields, so no ModelParams clone is needed.
        let (w_min, w_max) = (model.params().w_min, model.params().w_max);
        let mut ws = SolveWorkspace::new();
        let (min_model, min_solution) = solve_uniform(model, w_min, mesh_intervals, &mut ws)?;
        let (max_model, max_solution) = solve_uniform(model, w_max, mesh_intervals, &mut ws)?;
        Ok(Self {
            minimum: CaseResult::evaluate("minimum", &min_model, &min_solution)?,
            maximum: CaseResult::evaluate("maximum", &max_model, &max_solution)?,
            optimal: CaseResult::evaluate("optimal", &outcome.model, &outcome.solution)?,
            outcome,
            minimum_solution: min_solution,
            maximum_solution: max_solution,
        })
    }

    /// The smaller of the two uniform baselines' gradients — the reference
    /// the paper quotes its reduction percentages against ("compared to the
    /// uniform channel width case").
    #[must_use]
    pub fn best_uniform_gradient_k(&self) -> f64 {
        self.minimum.gradient_k.min(self.maximum.gradient_k)
    }

    /// Gradient reduction of the optimal design vs the best uniform
    /// baseline, as a fraction in `[0, 1]`.
    #[must_use]
    pub fn gradient_reduction(&self) -> f64 {
        let base = self.best_uniform_gradient_k();
        if base <= 0.0 {
            0.0
        } else {
            (base - self.optimal.gradient_k) / base
        }
    }

    /// The paper's §V-B side observation: the optimally modulated design's
    /// peak temperature should approach the minimum-width case's peak (the
    /// best achievable within the width range) and undercut the
    /// maximum-width case's peak.
    #[must_use]
    pub fn peak_tracks_minimum_width(&self, tolerance_k: f64) -> bool {
        self.optimal.peak_celsius <= self.minimum.peak_celsius + tolerance_k
            && self.optimal.peak_celsius <= self.maximum.peak_celsius + 1e-9
    }

    /// The optimal width profiles (one per column).
    #[must_use]
    pub fn optimal_widths(&self) -> &[WidthProfile] {
        &self.outcome.widths
    }

    /// Formats the three cases as the rows of a small report table.
    #[must_use]
    pub fn summary_rows(&self) -> Vec<Vec<String>> {
        [&self.minimum, &self.maximum, &self.optimal]
            .iter()
            .map(|c| {
                vec![
                    c.label.clone(),
                    format!("{:.2}", c.gradient_k),
                    format!("{:.2}", c.peak_celsius),
                    format!("{:.2}", c.max_pressure_bar),
                    format!("{:.4}", c.pump_power_w),
                    format!("{:.4e}", c.cost_gradient_squared),
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::strip_model;
    use liquamod_floorplan::testcase;
    use liquamod_thermal_model::ModelParams;

    #[test]
    fn comparison_on_test_a_fast() {
        let params = ModelParams::date2012();
        let model = strip_model(&testcase::test_a(), &params).unwrap();
        let cmp = DesignComparison::run(&model, &OptimizationConfig::fast()).unwrap();
        // Fig. 5a shape: the two uniform baselines nearly tie; the optimal
        // modulation beats both.
        let rel_uniform_gap =
            (cmp.minimum.gradient_k - cmp.maximum.gradient_k).abs() / cmp.maximum.gradient_k;
        assert!(
            rel_uniform_gap < 0.2,
            "uniform baselines should be close: {rel_uniform_gap}"
        );
        assert!(
            cmp.gradient_reduction() > 0.05,
            "reduction = {}",
            cmp.gradient_reduction()
        );
        // §V-B: optimal peak ≈ min-width peak ≤ max-width peak.
        assert!(cmp.peak_tracks_minimum_width(1.0));
        // Pressure ordering: narrow uniform ≫ optimal ≥ wide uniform.
        assert!(cmp.minimum.max_pressure_bar > cmp.optimal.max_pressure_bar);
        assert!(cmp.optimal.max_pressure_bar >= cmp.maximum.max_pressure_bar - 1e-9);
        // Pump power follows pressure at equal flow.
        assert!(cmp.minimum.pump_power_w > cmp.maximum.pump_power_w);
        // Report table has 3 rows × 6 columns.
        let rows = cmp.summary_rows();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.len() == 6));
    }
}
