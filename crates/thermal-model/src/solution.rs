//! Solved temperature/heat-flow profiles and the paper's evaluation metrics.

use liquamod_units::{Length, Power, Temperature, TemperatureDifference};

/// Per-column solution profiles sampled at the mesh nodes.
#[derive(Debug, Clone)]
pub struct ColumnProfiles {
    pub(crate) t_top: Vec<f64>,
    pub(crate) t_bottom: Vec<f64>,
    pub(crate) q_top: Vec<f64>,
    pub(crate) q_bottom: Vec<f64>,
    pub(crate) t_coolant: Vec<f64>,
    pub(crate) g_longitudinal: f64,
    pub(crate) capacity_rate: f64,
}

impl ColumnProfiles {
    /// Top active-layer temperature at mesh node `j`.
    pub fn t_top(&self, j: usize) -> Temperature {
        Temperature::from_kelvin(self.t_top[j])
    }

    /// Bottom active-layer temperature at mesh node `j`.
    pub fn t_bottom(&self, j: usize) -> Temperature {
        Temperature::from_kelvin(self.t_bottom[j])
    }

    /// Coolant bulk temperature at mesh node `j`.
    pub fn t_coolant(&self, j: usize) -> Temperature {
        Temperature::from_kelvin(self.t_coolant[j])
    }

    /// Longitudinal heat flow in the top layer at mesh node `j`.
    pub fn q_top(&self, j: usize) -> Power {
        Power::from_watts(self.q_top[j])
    }

    /// Longitudinal heat flow in the bottom layer at mesh node `j`.
    pub fn q_bottom(&self, j: usize) -> Power {
        Power::from_watts(self.q_bottom[j])
    }

    /// Raw top-layer temperature samples in kelvin (plotting convenience).
    pub fn t_top_kelvin(&self) -> &[f64] {
        &self.t_top
    }

    /// Raw bottom-layer temperature samples in kelvin.
    pub fn t_bottom_kelvin(&self) -> &[f64] {
        &self.t_bottom
    }

    /// Raw coolant temperature samples in kelvin.
    pub fn t_coolant_kelvin(&self) -> &[f64] {
        &self.t_coolant
    }
}

/// Result of solving a channel-stack model: state profiles on the mesh plus
/// the metrics the paper evaluates (thermal gradient, peak temperature, the
/// optimal-control cost integrals).
#[derive(Debug, Clone)]
pub struct Solution {
    pub(crate) z: Vec<f64>,
    pub(crate) columns: Vec<ColumnProfiles>,
    pub(crate) total_input_power: f64,
    pub(crate) inlet_temperature: f64,
}

impl Solution {
    /// Raw mesh positions in metres.
    pub fn z_meters(&self) -> &[f64] {
        &self.z
    }

    /// Number of mesh nodes.
    pub fn n_nodes(&self) -> usize {
        self.z.len()
    }

    /// Per-column profiles.
    pub fn columns(&self) -> &[ColumnProfiles] {
        &self.columns
    }

    /// Profiles of one column.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn column(&self, i: usize) -> &ColumnProfiles {
        &self.columns[i]
    }

    /// Iterator over all silicon temperature samples (both layers, all
    /// columns) in kelvin.
    fn silicon_temps(&self) -> impl Iterator<Item = f64> + '_ {
        self.columns
            .iter()
            .flat_map(|c| c.t_top.iter().chain(c.t_bottom.iter()).copied())
    }

    /// Peak silicon temperature anywhere in the stack.
    pub fn peak_temperature(&self) -> Temperature {
        Temperature::from_kelvin(self.silicon_temps().fold(f64::NEG_INFINITY, f64::max))
    }

    /// Minimum silicon temperature anywhere in the stack.
    pub fn min_temperature(&self) -> Temperature {
        Temperature::from_kelvin(self.silicon_temps().fold(f64::INFINITY, f64::min))
    }

    /// The paper's headline metric: the thermal gradient, defined (§V-A) as
    /// the difference between the maximum and minimum silicon temperatures.
    pub fn thermal_gradient(&self) -> TemperatureDifference {
        self.peak_temperature() - self.min_temperature()
    }

    /// Coolant outlet temperature of column `i` (the last mesh node, at
    /// `z = d`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn coolant_outlet(&self, i: usize) -> Temperature {
        Temperature::from_kelvin(*self.columns[i].t_coolant.last().expect("non-empty mesh"))
    }

    /// The paper's optimal-control cost (Eq. 7): `J = ∫ ‖dT/dz‖² dz`, summed
    /// over every layer of every column, evaluated via the exact relation
    /// `dT/dz = −q/ĝ_l` and trapezoidal quadrature on the mesh.
    pub fn cost_gradient_squared(&self) -> f64 {
        let mut total = 0.0;
        for c in &self.columns {
            let s = 1.0 / c.g_longitudinal;
            let f = |j: usize| (c.q_top[j] * s).powi(2) + (c.q_bottom[j] * s).powi(2);
            for j in 0..self.z.len() - 1 {
                let h = self.z[j + 1] - self.z[j];
                total += 0.5 * h * (f(j) + f(j + 1));
            }
        }
        total
    }

    /// Total heat input the model was solved with (W).
    pub fn total_input_power(&self) -> Power {
        Power::from_watts(self.total_input_power)
    }

    /// Total heat advected out by the coolant, `Σᵢ c_vV̇ᵢ·(T_C,out − T_C,in)`.
    pub fn advected_power(&self) -> Power {
        let total = self
            .columns
            .iter()
            .map(|c| {
                // Advected heat is capacity rate times the rise across the
                // column, regardless of flow direction: the larger terminal
                // value is the physical outlet.
                let first = *c.t_coolant.first().expect("non-empty mesh");
                let last = *c.t_coolant.last().expect("non-empty mesh");
                c.capacity_rate * (first.max(last) - self.inlet_temperature)
            })
            .sum();
        Power::from_watts(total)
    }

    /// Relative energy-balance residual `|Q_in − Q_advected| / Q_in`
    /// (zero heat input returns the absolute advected power instead).
    ///
    /// With adiabatic ends, every watt dissipated in the silicon must leave
    /// through the coolant; the midpoint scheme telescopes this identity
    /// exactly, so the residual measures only roundoff and is a strong
    /// correctness probe.
    pub fn energy_balance_residual(&self) -> f64 {
        let q_in = self.total_input_power;
        let q_out = self.advected_power().as_watts();
        if q_in.abs() < 1e-30 {
            q_out.abs()
        } else {
            ((q_in - q_out) / q_in).abs()
        }
    }

    /// Index of the mesh node nearest to `z`.
    pub fn nearest_node(&self, z: Length) -> usize {
        let target = z.si();
        let mut best = 0;
        let mut dist = f64::INFINITY;
        for (j, &zj) in self.z.iter().enumerate() {
            let d = (zj - target).abs();
            if d < dist {
                dist = d;
                best = j;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_solution() -> Solution {
        // Two nodes, one column; hand-filled values.
        Solution {
            z: vec![0.0, 0.01],
            columns: vec![ColumnProfiles {
                t_top: vec![310.0, 330.0],
                t_bottom: vec![309.0, 328.0],
                q_top: vec![0.0, 0.0],
                q_bottom: vec![0.0, 0.0],
                t_coolant: vec![300.0, 320.0],
                g_longitudinal: 6.5e-7,
                capacity_rate: 0.02,
            }],
            total_input_power: 0.4,
            inlet_temperature: 300.0,
        }
    }

    #[test]
    fn gradient_peak_min() {
        let s = toy_solution();
        assert!((s.peak_temperature().as_kelvin() - 330.0).abs() < 1e-12);
        assert!((s.min_temperature().as_kelvin() - 309.0).abs() < 1e-12);
        assert!((s.thermal_gradient().as_kelvin() - 21.0).abs() < 1e-12);
    }

    #[test]
    fn energy_residual() {
        let s = toy_solution();
        // Advected: 0.02 × 20 K = 0.4 W — matches input exactly.
        assert!((s.advected_power().as_watts() - 0.4).abs() < 1e-12);
        assert!(s.energy_balance_residual() < 1e-12);
    }

    #[test]
    fn costs_zero_for_zero_heatflow() {
        let s = toy_solution();
        assert_eq!(s.cost_gradient_squared(), 0.0);
    }

    #[test]
    fn costs_trapezoid() {
        let mut s = toy_solution();
        s.columns[0].q_top = vec![1.0, 3.0];
        // ∫ q² over [0, 0.01] trapezoid: 0.5·0.01·(1 + 9) = 0.05, scaled
        // by 1/ĝ_l² through dT/dz = −q/ĝ_l.
        let scale = (1.0 / 6.5e-7_f64).powi(2);
        assert!((s.cost_gradient_squared() - 0.05 * scale).abs() < scale * 1e-12);
    }

    #[test]
    fn nearest_node_lookup() {
        let s = toy_solution();
        assert_eq!(s.nearest_node(Length::from_meters(0.002)), 0);
        assert_eq!(s.nearest_node(Length::from_meters(0.009)), 1);
    }

    #[test]
    fn accessors() {
        let s = toy_solution();
        assert_eq!(s.n_nodes(), 2);
        assert_eq!(s.columns().len(), 1);
        let c = s.column(0);
        assert!((c.t_top(1).as_kelvin() - 330.0).abs() < 1e-12);
        assert!((c.t_bottom(0).as_kelvin() - 309.0).abs() < 1e-12);
        assert!((c.t_coolant(1).as_kelvin() - 320.0).abs() < 1e-12);
        assert_eq!(c.q_top(0).as_watts(), 0.0);
        assert_eq!(c.q_bottom(1).as_watts(), 0.0);
        assert!((s.coolant_outlet(0).as_kelvin() - 320.0).abs() < 1e-12);
        assert_eq!(s.z_meters().len(), 2);
    }
}
