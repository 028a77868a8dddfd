//! Stack description: layers, cavities, and the builder API.

use crate::{GridSimError, PowerMap};
use liquamod_microfluidics::Coolant;
use liquamod_units::{
    Length, Temperature, ThermalConductivity, VolumetricFlowRate, VolumetricHeatCapacity,
};

/// Thermal conductivity of every solid in the stack — the dies and the
/// channel side walls are silicon at the paper's Table I value.
pub const SILICON_CONDUCTIVITY: ThermalConductivity = ThermalConductivity::from_w_per_m_k(130.0);

/// Volumetric heat capacity of every solid in the stack (bulk silicon),
/// used by the transient steppers.
pub(crate) const SILICON_HEAT_CAPACITY: VolumetricHeatCapacity =
    VolumetricHeatCapacity::from_j_per_m3_k(1.66e6);

/// Channel widths inside a cavity.
///
/// Width-modulated designs supply per-column, per-cell samples (one value
/// per `z` cell for each channel column, typically produced by sampling a
/// width profile at the cell centres).
#[derive(Debug, Clone, PartialEq)]
pub enum CavityWidths {
    /// Every channel has this constant width.
    Uniform(Length),
    /// `columns[i][j]` is the width of channel column `i` at `z` cell `j`.
    PerColumn(Vec<Vec<Length>>),
}

impl CavityWidths {
    /// Width of column `i` at cell `j`.
    ///
    /// # Panics
    ///
    /// Panics if the indices exceed the sampled grid (checked at build time).
    pub fn at(&self, i: usize, j: usize) -> Length {
        match self {
            CavityWidths::Uniform(w) => *w,
            CavityWidths::PerColumn(cols) => cols[i][j],
        }
    }
}

/// Full description of one microchannel cavity layer. The wall-to-coolant
/// film coefficient comes from the fully developed H1 Nusselt number, and
/// the side walls are silicon.
#[derive(Debug, Clone, PartialEq)]
pub struct CavitySpec {
    /// Channel height `H_C`.
    pub height: Length,
    /// Coolant property set.
    pub coolant: Coolant,
    /// Volumetric flow rate per channel.
    pub flow_rate_per_channel: VolumetricFlowRate,
    /// Channel widths.
    pub widths: CavityWidths,
}

impl CavitySpec {
    /// Table-I-flavoured cavity: 100 µm tall channels, water at 300 K,
    /// 0.5 mL/min/channel (the calibrated default flow).
    pub fn date2012(widths: CavityWidths) -> Self {
        Self {
            height: Length::from_micrometers(100.0),
            coolant: Coolant::water_300k(),
            flow_rate_per_channel: VolumetricFlowRate::from_ml_per_min(0.5),
            widths,
        }
    }
}

/// One layer of the stack (bottom to top).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Layer {
    Solid {
        name: String,
        thickness: Length,
        power: Option<PowerMap>,
    },
    Cavity(CavitySpec),
}

/// Builder for [`Stack`].
///
/// Layers are appended bottom-to-top; [`StackBuilder::powered_by`] attaches a
/// power map to the most recently added solid layer.
#[derive(Debug, Clone)]
pub struct StackBuilder {
    die_width: Length,
    die_length: Length,
    nx: usize,
    nz: usize,
    inlet: Temperature,
    layers: Vec<Layer>,
}

impl StackBuilder {
    /// Starts a stack over a die of `die_width` (across the flow, divided
    /// into `nx` cells — one channel column each) and `die_length` (along
    /// the flow, `nz` cells), with a 300 K coolant inlet.
    pub fn new(die_width: Length, die_length: Length, nx: usize, nz: usize) -> Self {
        Self {
            die_width,
            die_length,
            nx,
            nz,
            inlet: Temperature::from_kelvin(300.0),
            layers: Vec::new(),
        }
    }

    /// Sets the coolant inlet temperature (applies to all cavities).
    pub fn inlet_temperature(mut self, t: Temperature) -> Self {
        self.inlet = t;
        self
    }

    /// Appends a silicon layer.
    pub fn silicon_layer(mut self, name: impl Into<String>, thickness: Length) -> Self {
        self.layers.push(Layer::Solid {
            name: name.into(),
            thickness,
            power: None,
        });
        self
    }

    /// Attaches a power map to the most recently added solid layer.
    ///
    /// # Panics
    ///
    /// Panics if no solid layer has been added yet — attaching power to
    /// nothing is a construction bug, reported immediately.
    pub fn powered_by(mut self, power: PowerMap) -> Self {
        match self.layers.last_mut() {
            Some(Layer::Solid { power: p, .. }) => {
                *p = Some(power);
                self
            }
            _ => panic!("powered_by must follow a solid layer"),
        }
    }

    /// Appends a microchannel cavity with Table-I defaults and the given
    /// widths.
    pub fn microchannel_cavity(self, widths: CavityWidths) -> Self {
        self.microchannel_cavity_with(CavitySpec::date2012(widths))
    }

    /// Appends a microchannel cavity with a fully custom spec.
    pub fn microchannel_cavity_with(mut self, spec: CavitySpec) -> Self {
        self.layers.push(Layer::Cavity(spec));
        self
    }

    /// Validates and freezes the stack.
    ///
    /// # Errors
    ///
    /// [`GridSimError::InvalidStack`] when the description is inconsistent
    /// (empty stack, cavity on the boundary or adjacent to another cavity,
    /// non-positive or non-finite dimensions, flow rates or inlet
    /// temperature, width samples of the wrong shape, widths not inside
    /// `(0, pitch)`, NaN included), and
    /// [`GridSimError::PowerMapMismatch`] when a power map grid disagrees
    /// with the stack grid.
    pub fn build(self) -> Result<Stack, GridSimError> {
        let fail = |what: &str| {
            Err(GridSimError::InvalidStack {
                what: what.to_string(),
            })
        };
        if self.nx == 0 || self.nz == 0 {
            return fail("grid must be at least 1x1");
        }
        let extents = [self.die_width, self.die_length];
        if !extents.iter().all(|e| e.si() > 0.0 && e.is_finite()) {
            return fail("die extents must be positive and finite");
        }
        if !(self.inlet.si() > 0.0 && self.inlet.is_finite()) {
            return fail("coolant inlet temperature must be positive and finite");
        }
        if self.layers.is_empty() {
            return fail("stack has no layers");
        }
        if !self.layers.iter().any(|l| matches!(l, Layer::Solid { .. })) {
            return fail("stack needs at least one solid layer");
        }
        let pitch = self.die_width.si() / self.nx as f64;
        for (idx, layer) in self.layers.iter().enumerate() {
            match layer {
                Layer::Solid {
                    thickness,
                    power,
                    name,
                    ..
                } => {
                    if !(thickness.is_finite() && thickness.si() > 0.0) {
                        return Err(GridSimError::InvalidStack {
                            what: format!("layer '{name}' thickness must be positive and finite"),
                        });
                    }
                    if let Some(p) = power {
                        p.check_dims(self.nx, self.nz)?;
                    }
                }
                Layer::Cavity(spec) => {
                    if idx == 0 || idx + 1 == self.layers.len() {
                        return fail("cavity layers must sit between solid layers");
                    }
                    if matches!(self.layers[idx - 1], Layer::Cavity(_))
                        || matches!(self.layers[idx + 1], Layer::Cavity(_))
                    {
                        return fail("two cavities cannot be adjacent");
                    }
                    if !(spec.height.is_finite() && spec.height.si() > 0.0) {
                        return fail("cavity height must be positive and finite");
                    }
                    let flow = spec.flow_rate_per_channel;
                    if !(flow.si() > 0.0 && flow.is_finite()) {
                        return fail("cavity flow rate must be positive and finite");
                    }
                    // Written so that a NaN width fails the range check too.
                    let outside = |w: &Length| !(w.si() > 0.0 && w.si() < pitch);
                    match &spec.widths {
                        CavityWidths::Uniform(w) => {
                            if outside(w) {
                                return fail("channel width must be inside (0, pitch)");
                            }
                        }
                        CavityWidths::PerColumn(cols) => {
                            if cols.len() != self.nx {
                                return fail("per-column widths must have nx columns");
                            }
                            for col in cols {
                                if col.len() != self.nz {
                                    return fail("per-column widths must have nz samples");
                                }
                                if col.iter().any(outside) {
                                    return fail("channel width must be inside (0, pitch)");
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(Stack {
            die_width: self.die_width,
            die_length: self.die_length,
            nx: self.nx,
            nz: self.nz,
            inlet: self.inlet,
            layers: self.layers,
        })
    }
}

/// A validated 3D stack ready for simulation.
#[derive(Debug, Clone)]
pub struct Stack {
    pub(crate) die_width: Length,
    pub(crate) die_length: Length,
    pub(crate) nx: usize,
    pub(crate) nz: usize,
    pub(crate) inlet: Temperature,
    pub(crate) layers: Vec<Layer>,
}

impl Stack {
    /// Grid dimensions `(nx, nz)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.nz)
    }

    /// Number of layers (solid + cavity).
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Channel pitch implied by the grid (`die_width / nx`).
    pub fn pitch(&self) -> Length {
        Length::from_meters(self.die_width.si() / self.nx as f64)
    }

    /// Cell length along the flow (`die_length / nz`).
    pub fn dz(&self) -> Length {
        Length::from_meters(self.die_length.si() / self.nz as f64)
    }

    /// Coolant inlet temperature.
    pub fn inlet_temperature(&self) -> Temperature {
        self.inlet
    }

    /// Total power injected by all power maps.
    pub fn total_power(&self) -> liquamod_units::Power {
        let watts: f64 = self
            .layers
            .iter()
            .map(|l| match l {
                Layer::Solid { power: Some(p), .. } => p.total().as_watts(),
                _ => 0.0,
            })
            .sum();
        liquamod_units::Power::from_watts(watts)
    }

    /// Names of layers, bottom to top (cavities are labelled `"<cavity>"`).
    pub fn layer_names(&self) -> Vec<String> {
        self.layers
            .iter()
            .map(|l| match l {
                Layer::Solid { name, .. } => name.clone(),
                Layer::Cavity(_) => "<cavity>".to_string(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquamod_units::HeatFlux;

    fn mm(v: f64) -> Length {
        Length::from_millimeters(v)
    }

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    fn basic_builder() -> StackBuilder {
        StackBuilder::new(mm(1.0), mm(2.0), 10, 20)
    }

    #[test]
    fn builds_sandwich() {
        let stack = basic_builder()
            .silicon_layer("bottom", um(50.0))
            .microchannel_cavity(CavityWidths::Uniform(um(50.0)))
            .silicon_layer("top", um(50.0))
            .build()
            .unwrap();
        assert_eq!(stack.n_layers(), 3);
        assert_eq!(stack.dims(), (10, 20));
        assert!((stack.pitch().as_micrometers() - 100.0).abs() < 1e-9);
        assert!((stack.dz().as_micrometers() - 100.0).abs() < 1e-9);
        assert_eq!(stack.layer_names(), vec!["bottom", "<cavity>", "top"]);
    }

    #[test]
    fn rejects_cavity_on_boundary() {
        let err = basic_builder()
            .silicon_layer("only", um(50.0))
            .microchannel_cavity(CavityWidths::Uniform(um(50.0)))
            .build();
        assert!(matches!(err, Err(GridSimError::InvalidStack { .. })));
    }

    #[test]
    fn rejects_adjacent_cavities() {
        let err = basic_builder()
            .silicon_layer("a", um(50.0))
            .microchannel_cavity(CavityWidths::Uniform(um(50.0)))
            .microchannel_cavity(CavityWidths::Uniform(um(50.0)))
            .silicon_layer("b", um(50.0))
            .build();
        assert!(matches!(err, Err(GridSimError::InvalidStack { .. })));
    }

    #[test]
    fn rejects_width_beyond_pitch() {
        let err = basic_builder()
            .silicon_layer("a", um(50.0))
            .microchannel_cavity(CavityWidths::Uniform(um(150.0)))
            .silicon_layer("b", um(50.0))
            .build();
        assert!(matches!(err, Err(GridSimError::InvalidStack { .. })));
    }

    #[test]
    fn rejects_nan_dimensions_instead_of_panicking_later() {
        let nan = Length::from_meters(f64::NAN);
        let cavity = |widths| {
            basic_builder()
                .silicon_layer("a", um(50.0))
                .microchannel_cavity(widths)
                .silicon_layer("b", um(50.0))
                .build()
        };
        // A NaN uniform width, and a NaN in one cell of per-column widths.
        let mut one_cell = vec![vec![um(30.0); 20]; 10];
        one_cell[7][13] = nan;
        for widths in [
            CavityWidths::Uniform(nan),
            CavityWidths::PerColumn(one_cell),
        ] {
            assert!(matches!(
                cavity(widths),
                Err(GridSimError::InvalidStack { .. })
            ));
        }
        // Infinite die extents (they used to build, then stall the solver
        // for 20 000 iterations on a NaN residual).
        let inf = Length::from_meters(f64::INFINITY);
        for (w, l) in [(inf, mm(2.0)), (mm(1.0), inf)] {
            let stack = StackBuilder::new(w, l, 10, 20)
                .silicon_layer("a", um(50.0))
                .build();
            assert!(matches!(stack, Err(GridSimError::InvalidStack { .. })));
        }
        // NaN layer thickness and cavity height.
        let thick = basic_builder().silicon_layer("a", nan).build();
        assert!(matches!(thick, Err(GridSimError::InvalidStack { .. })));
        let tall = basic_builder()
            .silicon_layer("a", um(50.0))
            .microchannel_cavity_with(CavitySpec {
                height: nan,
                ..CavitySpec::date2012(CavityWidths::Uniform(um(50.0)))
            })
            .silicon_layer("b", um(50.0))
            .build();
        assert!(matches!(tall, Err(GridSimError::InvalidStack { .. })));
    }

    #[test]
    fn rejects_non_physical_flow_rates_and_inlet_temperatures() {
        // Each of these used to build, then solve to a nonsense field (zero
        // flow: a peak of -4e46 K; negative flow: upwind advection running
        // backwards) or stall the iterative solver (NaN, infinity).
        let two_die = |flow: VolumetricFlowRate, inlet: Temperature| {
            StackBuilder::new(mm(0.4), mm(0.6), 4, 6)
                .inlet_temperature(inlet)
                .silicon_layer("bottom", um(50.0))
                .microchannel_cavity_with(CavitySpec {
                    flow_rate_per_channel: flow,
                    ..CavitySpec::date2012(CavityWidths::Uniform(um(50.0)))
                })
                .silicon_layer("top", um(50.0))
                .build()
        };
        let ml_min = VolumetricFlowRate::from_ml_per_min;
        let kelvin = Temperature::from_kelvin;
        assert!(two_die(ml_min(0.5), kelvin(300.0)).is_ok());
        for (flow, inlet) in [
            (ml_min(0.0), kelvin(300.0)),
            (ml_min(-0.5), kelvin(300.0)),
            (ml_min(f64::NAN), kelvin(300.0)),
            (ml_min(f64::INFINITY), kelvin(300.0)),
            (ml_min(0.5), kelvin(-5.0)),
            (ml_min(0.5), kelvin(f64::NAN)),
        ] {
            assert!(
                matches!(two_die(flow, inlet), Err(GridSimError::InvalidStack { .. })),
                "flow {flow:?}, inlet {inlet:?} must be refused"
            );
        }
    }

    #[test]
    fn rejects_misshapen_per_column_widths() {
        let err = basic_builder()
            .silicon_layer("a", um(50.0))
            .microchannel_cavity(CavityWidths::PerColumn(vec![vec![um(30.0); 20]; 3]))
            .silicon_layer("b", um(50.0))
            .build();
        assert!(matches!(err, Err(GridSimError::InvalidStack { .. })));
    }

    #[test]
    fn accepts_per_column_widths() {
        let stack = basic_builder()
            .silicon_layer("a", um(50.0))
            .microchannel_cavity(CavityWidths::PerColumn(vec![vec![um(30.0); 20]; 10]))
            .silicon_layer("b", um(50.0))
            .build();
        assert!(stack.is_ok());
    }

    #[test]
    fn rejects_power_map_mismatch() {
        let err = basic_builder()
            .silicon_layer("a", um(50.0))
            .powered_by(PowerMap::zeros(5, 5))
            .microchannel_cavity(CavityWidths::Uniform(um(50.0)))
            .silicon_layer("b", um(50.0))
            .build();
        assert!(matches!(err, Err(GridSimError::PowerMapMismatch { .. })));
    }

    #[test]
    #[should_panic(expected = "must follow a solid layer")]
    fn powered_by_needs_solid() {
        let _ = basic_builder().powered_by(PowerMap::zeros(10, 20));
    }

    #[test]
    fn total_power_sums_layers() {
        let p = PowerMap::uniform_flux(HeatFlux::from_w_per_cm2(10.0), 10, 20, mm(1.0), mm(2.0));
        let stack = basic_builder()
            .silicon_layer("a", um(50.0))
            .powered_by(p.clone())
            .microchannel_cavity(CavityWidths::Uniform(um(50.0)))
            .silicon_layer("b", um(50.0))
            .powered_by(p)
            .build()
            .unwrap();
        // 10 W/cm² × 0.02 cm² × 2 layers = 0.4 W.
        assert!((stack.total_power().as_watts() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn rejects_empty_and_zero_grid() {
        assert!(StackBuilder::new(mm(1.0), mm(1.0), 0, 5)
            .silicon_layer("a", um(50.0))
            .build()
            .is_err());
        assert!(basic_builder().build().is_err());
    }
}
