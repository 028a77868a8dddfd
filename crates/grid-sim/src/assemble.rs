//! Finite-volume assembly of the conductance matrix, power vector and
//! capacitance vector.
//!
//! Node layout: every layer (solid or cavity) contributes an `nx × nz` grid
//! of nodes; global index = `layer_offset + j·nx + i` with `i` across the
//! flow and `j` along it. Cavity nodes are bulk-coolant temperatures.
//!
//! Couplings:
//!
//! * solid in-plane: `k·(face area)/(centre distance)` between neighbours;
//! * solid–solid vertical: half-cell resistances in series;
//! * solid–coolant: half-cell conduction over the full pitch in series with
//!   the convective film `h·(w_C + H_C)·Δz` (one layer's share of the wetted
//!   perimeter — identical to the analytical model's `ĥ`);
//! * solid–solid through the cavity's side walls: `(pitch − w_C)·Δz` cross
//!   section over the path `t_lo/2 + H_C + t_hi/2`;
//! * coolant advection: upwind transport `c_v·V̇` along `+z`, with the inlet
//!   cell fed from the reservoir at the stack inlet temperature.
//!
//! The assembly is generated **per layer** ([`Stack::layer_block`]): each
//! layer owns a contiguous block of triplets, right-hand-side entries and
//! capacitances, and the full [`Assembly`] is the in-order concatenation of
//! the blocks. [`crate::sparse::TripletMatrix::to_csr`] sums duplicates in
//! insertion order (its sort is stable), so replaying a regenerated
//! sequence of blocks into a recorded [`CsrPattern`] reproduces the full
//! compression **bitwise** — which is what [`AssemblyCache`] exploits:
//! between transient rebuilds on one grid and layer structure, the
//! sparsity pattern is kept and the symbolic sort is skipped.

use crate::sparse::{CsrMatrix, CsrPattern, TripletMatrix};
use crate::stack::{CavitySpec, Layer, Stack, SILICON_CONDUCTIVITY, SILICON_HEAT_CAPACITY};
use liquamod_microfluidics::{nusselt, RectDuct};

/// Assembled steady-state system `A·T = p` plus the lumped capacitances
/// needed by the transient stepper.
#[derive(Debug, Clone)]
pub(crate) struct Assembly {
    pub matrix: CsrMatrix,
    pub rhs: Vec<f64>,
    /// Per-node lumped heat capacity (J/K).
    pub capacitance: Vec<f64>,
    /// Node count per layer.
    pub nodes_per_layer: usize,
}

/// One layer's contribution to the assembly: the triplets it emits (global
/// indices, in emission order) plus the right-hand-side and capacitance
/// entries at its own nodes.
#[derive(Debug, Clone)]
struct LayerBlock {
    triplets: Vec<(usize, usize, f64)>,
    /// `(global node index, value)` — accumulated with `+=` into the rhs.
    rhs: Vec<(usize, f64)>,
    /// `(global node index, value)` — each node is set exactly once.
    cap: Vec<(usize, f64)>,
}

impl Stack {
    pub(crate) fn assemble(&self) -> Assembly {
        let blocks: Vec<LayerBlock> = (0..self.layers.len())
            .map(|l| self.layer_block(l))
            .collect();
        self.assembly_from_blocks(&blocks)
    }

    /// Concatenates per-layer blocks, in layer order, into the full system.
    fn assembly_from_blocks(&self, blocks: &[LayerBlock]) -> Assembly {
        self.assembly_from_blocks_with_pattern(blocks).0
    }

    /// [`Stack::assembly_from_blocks`] that also captures the sparsity
    /// pattern of the compression, for later values-only refreshes.
    fn assembly_from_blocks_with_pattern(&self, blocks: &[LayerBlock]) -> (Assembly, CsrPattern) {
        let npl = self.nx * self.nz;
        let n = self.layers.len() * npl;
        let mut m = TripletMatrix::new(n);
        for block in blocks {
            for &(i, j, v) in &block.triplets {
                m.add(i, j, v);
            }
        }
        let (matrix, pattern) = m.to_csr_with_pattern();
        let (rhs, capacitance) = self.system_vectors(blocks);
        (
            Assembly {
                matrix,
                rhs,
                capacitance,
                nodes_per_layer: npl,
            },
            pattern,
        )
    }

    /// Accumulates the right-hand side and capacitance vectors from blocks
    /// (shared by symbolic builds and values-only refreshes).
    fn system_vectors(&self, blocks: &[LayerBlock]) -> (Vec<f64>, Vec<f64>) {
        let n = self.layers.len() * self.nx * self.nz;
        let mut rhs = vec![0.0; n];
        let mut cap = vec![0.0; n];
        for block in blocks {
            for &(i, v) in &block.rhs {
                rhs[i] += v;
            }
            for &(i, v) in &block.cap {
                cap[i] = v;
            }
        }
        (rhs, cap)
    }

    /// Generates layer `l`'s block. The emission order inside a block — and
    /// the block order inside [`Stack::assemble`] — is the contract that
    /// keeps cached refreshes bitwise identical to full rebuilds; do not
    /// reorder.
    fn layer_block(&self, l: usize) -> LayerBlock {
        let nx = self.nx;
        let nz = self.nz;
        let npl = nx * nz;
        let dx = self.pitch().si();
        let dz = self.dz().si();
        let idx = |l: usize, i: usize, j: usize| l * npl + j * nx + i;
        let mut block = LayerBlock {
            triplets: Vec::new(),
            rhs: Vec::new(),
            cap: Vec::new(),
        };
        let m = &mut block.triplets;
        let k = SILICON_CONDUCTIVITY.si();

        match &self.layers[l] {
            Layer::Solid {
                thickness, power, ..
            } => {
                let t = thickness.si();
                for j in 0..nz {
                    for i in 0..nx {
                        let me = idx(l, i, j);
                        // In-plane x.
                        if i + 1 < nx {
                            let g = k * dz * t / dx;
                            couple(m, me, idx(l, i + 1, j), g);
                        }
                        // In-plane z.
                        if j + 1 < nz {
                            let g = k * dx * t / dz;
                            couple(m, me, idx(l, i, j + 1), g);
                        }
                        // Vertical to the layer above, when solid–solid.
                        if l + 1 < self.layers.len() {
                            if let Layer::Solid {
                                thickness: t_hi, ..
                            } = &self.layers[l + 1]
                            {
                                let a = dx * dz;
                                let r = 0.5 * t / (k * a) + 0.5 * t_hi.si() / (k * a);
                                couple(m, me, idx(l + 1, i, j), 1.0 / r);
                            }
                        }
                        // Power injection and capacitance.
                        if let Some(p) = power {
                            block.rhs.push((me, p.cell(i, j).as_watts()));
                        }
                        block
                            .cap
                            .push((me, SILICON_HEAT_CAPACITY.si() * dx * dz * t));
                    }
                }
            }
            Layer::Cavity(spec) => {
                // Validated at build time: cavities always sit between
                // two solid layers.
                let t_lo = solid_thickness(&self.layers[l - 1]);
                let t_hi = solid_thickness(&self.layers[l + 1]);
                let hc = spec.height.si();
                let cv_flow =
                    spec.coolant.volumetric_heat_capacity().si() * spec.flow_rate_per_channel.si();
                for j in 0..nz {
                    for i in 0..nx {
                        let me = idx(l, i, j);
                        let w = spec.widths.at(i, j).si();
                        let h_film = film_coefficient(spec, i, j);
                        // Convective paths to the two solid neighbours:
                        // half-cell conduction over the full pitch in
                        // series with the film over (w + H_C)·dz.
                        let g_film = h_film * (w + hc) * dz;
                        let a_pitch = dx * dz;
                        let g_lo = series(k * a_pitch / (0.5 * t_lo), g_film);
                        let g_hi = series(k * a_pitch / (0.5 * t_hi), g_film);
                        couple(m, me, idx(l - 1, i, j), g_lo);
                        couple(m, me, idx(l + 1, i, j), g_hi);
                        // Side-wall conduction bypassing the coolant.
                        let a_wall = (dx - w).max(0.0) * dz;
                        if a_wall > 0.0 {
                            let r_wall = 0.5 * t_lo / (k * a_wall)
                                + hc / (k * a_wall)
                                + 0.5 * t_hi / (k * a_wall);
                            couple(m, idx(l - 1, i, j), idx(l + 1, i, j), 1.0 / r_wall);
                        }
                        // Upwind advection along +z.
                        m.push((me, me, cv_flow));
                        if j == 0 {
                            block.rhs.push((me, cv_flow * self.inlet.si()));
                        } else {
                            m.push((me, idx(l, i, j - 1), -cv_flow));
                        }
                        block.cap.push((
                            me,
                            spec.coolant.volumetric_heat_capacity().si() * w * hc * dz,
                        ));
                    }
                }
            }
        }
        block
    }
}

/// Keeps the compressed-sparse-row (CSR) sparsity pattern across
/// [`Stack`] rebuilds, so a driver that swaps stacks mid-run (the transient
/// modulation controller) skips the symbolic sort whenever the structure is
/// unchanged.
///
/// Every assembly regenerates all layer blocks and replays them into the
/// cached pattern, checking each emission's coordinates on the way. New
/// widths or power maps on the same grid and layer structure keep the
/// coordinate sequence (they move conductance *values*), so the replay is a
/// values-only refresh. A stack whose coordinates differ — another grid or
/// layer structure, or a width that removes an emission — fails the check
/// and falls back to a symbolic build, which records the new pattern.
///
/// Refreshed and symbolic assemblies are **bitwise identical** to a fresh
/// assembly of the stack (locked down by regression tests and a
/// proptest): the replay sums every triplet in emission order, exactly as
/// the stable sort of a fresh compression does.
#[derive(Debug, Default)]
pub struct AssemblyCache {
    pattern: Option<CsrPattern>,
    values_refreshes: usize,
    symbolic_builds: usize,
}

impl AssemblyCache {
    /// An empty cache; the first assembly through it is a symbolic build.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// How many assemblies were served as values-only refreshes of the
    /// cached sparsity pattern (no re-symbolization).
    #[must_use]
    pub fn values_refreshes(&self) -> usize {
        self.values_refreshes
    }

    /// How many assemblies paid for a full symbolic compression (sort +
    /// structure allocation) — the cold build plus any structural change.
    #[must_use]
    pub fn symbolic_builds(&self) -> usize {
        self.symbolic_builds
    }

    /// Assembles `stack`, replaying its blocks into the cached pattern when
    /// the coordinates match and re-symbolizing otherwise.
    pub(crate) fn assemble(&mut self, stack: &Stack) -> Assembly {
        let blocks: Vec<LayerBlock> = (0..stack.layers.len())
            .map(|l| stack.layer_block(l))
            .collect();
        let refreshed = self
            .pattern
            .as_ref()
            .and_then(|pattern| replay_blocks(&blocks, pattern));
        if let Some(matrix) = refreshed {
            self.values_refreshes += 1;
            let (rhs, capacitance) = stack.system_vectors(&blocks);
            return Assembly {
                matrix,
                rhs,
                capacitance,
                nodes_per_layer: stack.nx * stack.nz,
            };
        }
        self.symbolic_builds += 1;
        let (assembly, pattern) = stack.assembly_from_blocks_with_pattern(&blocks);
        self.pattern = Some(pattern);
        assembly
    }
}

/// Replays `blocks` into `pattern`, checking every emission's coordinates.
/// `None` when the structure drifted — e.g. a width hitting the full pitch
/// zeroes the side-wall area and removes an emission — in which case the
/// caller re-symbolizes.
fn replay_blocks(blocks: &[LayerBlock], pattern: &CsrPattern) -> Option<CsrMatrix> {
    let mut refresh = pattern.refresh();
    for &(i, j, v) in blocks.iter().flat_map(|block| &block.triplets) {
        if !refresh.push(i, j, v) {
            return None;
        }
    }
    refresh.finish()
}

/// Adds a symmetric conduction coupling of conductance `g` between two
/// nodes. Zero-valued entries are dropped later by
/// [`TripletMatrix::add`], so blocks may carry them without affecting the
/// compressed system.
fn couple(m: &mut Vec<(usize, usize, f64)>, a: usize, b: usize, g: f64) {
    m.push((a, a, g));
    m.push((b, b, g));
    m.push((a, b, -g));
    m.push((b, a, -g));
}

fn series(g1: f64, g2: f64) -> f64 {
    if g1 <= 0.0 || g2 <= 0.0 {
        0.0
    } else {
        1.0 / (1.0 / g1 + 1.0 / g2)
    }
}

fn solid_thickness(layer: &Layer) -> f64 {
    match layer {
        Layer::Solid { thickness, .. } => thickness.si(),
        Layer::Cavity(_) => unreachable!("cavity adjacency validated at build time"),
    }
}

fn film_coefficient(spec: &CavitySpec, i: usize, j: usize) -> f64 {
    let duct = RectDuct::new(spec.widths.at(i, j), spec.height)
        .expect("cavity widths validated at build time");
    nusselt::heat_transfer_coefficient(&duct, &spec.coolant).si()
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

    #[test]
    fn assembly_dimensions() {
        let stack = StackBuilder::new(mm(0.4), mm(0.6), 4, 6)
            .silicon_layer("a", um(50.0))
            .microchannel_cavity(CavityWidths::Uniform(um(50.0)))
            .silicon_layer("b", um(50.0))
            .build()
            .unwrap();
        let asm = stack.assemble();
        assert_eq!(asm.matrix.size(), 3 * 24);
        assert_eq!(asm.rhs.len(), 72);
        assert_eq!(asm.nodes_per_layer, 24);
        assert!(asm.capacitance.iter().all(|&c| c > 0.0));
    }

    #[test]
    fn conduction_rows_sum_to_zero_without_advection() {
        // A purely solid stack: every row of the conductance matrix must sum
        // to zero (heat flows only between nodes).
        let stack = StackBuilder::new(mm(0.4), mm(0.4), 4, 4)
            .silicon_layer("a", um(50.0))
            .silicon_layer("b", um(100.0))
            .build()
            .unwrap();
        let asm = stack.assemble();
        let ones = vec![1.0; asm.matrix.size()];
        let sums = asm.matrix.mul(&ones);
        for (r, s) in sums.iter().enumerate() {
            assert!(s.abs() < 1e-9, "row {r} sums to {s}");
        }
    }

    #[test]
    fn rhs_carries_power_and_inlet() {
        let p = PowerMap::uniform_flux(HeatFlux::from_w_per_cm2(10.0), 4, 4, mm(0.4), mm(0.4));
        let stack = StackBuilder::new(mm(0.4), mm(0.4), 4, 4)
            .silicon_layer("a", um(50.0))
            .powered_by(p)
            .microchannel_cavity(CavityWidths::Uniform(um(50.0)))
            .silicon_layer("b", um(50.0))
            .build()
            .unwrap();
        let asm = stack.assemble();
        // Power rows: bottom layer nodes each get flux·cell = 10·1e4·1e-8 W.
        let per_cell = 10.0 * 1e4 * (1e-4 * 1e-4);
        for j in 0..4 {
            for i in 0..4 {
                let r = j * 4 + i;
                assert!((asm.rhs[r] - per_cell).abs() < 1e-12);
            }
        }
        // Inlet rows: cavity layer j = 0 cells carry cv·V̇·T_in.
        let cv_flow = 4.17e6 * (0.5e-6 / 60.0);
        for i in 0..4 {
            let r = 16 + i;
            assert!((asm.rhs[r] - cv_flow * 300.0).abs() < 1e-6);
        }
        // Downstream cavity rows carry no source.
        for i in 0..4 {
            let r = 16 + 4 + i;
            assert!(asm.rhs[r].abs() < 1e-12);
        }
    }

    #[test]
    fn advection_is_upwind() {
        let stack = StackBuilder::new(mm(0.2), mm(0.4), 2, 4)
            .silicon_layer("a", um(50.0))
            .microchannel_cavity(CavityWidths::Uniform(um(50.0)))
            .silicon_layer("b", um(50.0))
            .build()
            .unwrap();
        let asm = stack.assemble();
        let npl = 8;
        let cv_flow = 4.17e6 * (0.5e-6 / 60.0);
        // Coolant node (0, j=1) couples to (0, j=0) with −cv·V̇ and not the
        // other way round.
        let c_prev = npl;
        let c_here = npl + 2;
        assert!((asm.matrix.get(c_here, c_prev) + cv_flow).abs() < 1e-9);
        assert!(
            asm.matrix.get(c_prev, c_here).abs() < cv_flow * 1e-9,
            "no downstream-to-upstream advection"
        );
    }

    // ---- AssemblyCache -----------------------------------------------

    /// A 5-layer two-cavity stack (the MPSoC shape) with tunable widths and
    /// bottom-die power.
    fn two_cavity_stack(w_um: f64, flux_w_cm2: f64) -> Stack {
        let p =
            PowerMap::uniform_flux(HeatFlux::from_w_per_cm2(flux_w_cm2), 4, 6, mm(0.4), mm(0.6));
        StackBuilder::new(mm(0.4), mm(0.6), 4, 6)
            .silicon_layer("bottom", um(50.0))
            .powered_by(p.clone())
            .microchannel_cavity(CavityWidths::Uniform(um(w_um)))
            .silicon_layer("mid", um(50.0))
            .powered_by(p)
            .microchannel_cavity(CavityWidths::Uniform(um(w_um * 0.8)))
            .silicon_layer("cap", um(50.0))
            .build()
            .unwrap()
    }

    fn assert_assemblies_bitwise_equal(a: &Assembly, b: &Assembly, what: &str) {
        assert_eq!(a.matrix, b.matrix, "{what}: CSR structure/values differ");
        assert_eq!(a.rhs.len(), b.rhs.len());
        for (i, (x, y)) in a.rhs.iter().zip(&b.rhs).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: rhs[{i}]");
        }
        for (i, (x, y)) in a.capacitance.iter().zip(&b.capacitance).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: cap[{i}]");
        }
        assert_eq!(a.nodes_per_layer, b.nodes_per_layer);
    }

    /// The ISSUE's contract: a cached rebuild after a cavity-widths-only
    /// change is bitwise identical to assembling the new stack from scratch.
    #[test]
    fn cached_cavity_width_update_matches_full_rebuild_bitwise() {
        let before = two_cavity_stack(30.0, 25.0);
        let after = two_cavity_stack(42.0, 25.0);
        let mut cache = AssemblyCache::new();
        let first = cache.assemble(&before);
        assert_assemblies_bitwise_equal(&first, &before.assemble(), "cold cache");
        let partial = cache.assemble(&after);
        assert_assemblies_bitwise_equal(&partial, &after.assemble(), "width update");
    }

    /// Power-map changes (a new workload phase) also reproduce the full
    /// rebuild bitwise through the cache.
    #[test]
    fn cached_power_update_matches_full_rebuild_bitwise() {
        let before = two_cavity_stack(30.0, 25.0);
        let after = two_cavity_stack(30.0, 60.0);
        let mut cache = AssemblyCache::new();
        let _ = cache.assemble(&before);
        let partial = cache.assemble(&after);
        assert_assemblies_bitwise_equal(&partial, &after.assemble(), "power update");
    }

    /// The values-only refresh: a width-only epoch must not re-symbolize —
    /// and the refreshed assembly must still equal the full rebuild bitwise.
    #[test]
    fn width_epochs_are_values_only_refreshes() {
        let mut cache = AssemblyCache::new();
        let first = cache.assemble(&two_cavity_stack(30.0, 25.0));
        assert_eq!(cache.symbolic_builds(), 1, "cold build is symbolic");
        assert_eq!(cache.values_refreshes(), 0);
        assert_assemblies_bitwise_equal(&first, &two_cavity_stack(30.0, 25.0).assemble(), "cold");
        // A sweep of width-only epochs: every one is a values-only refresh.
        for (k, w) in [42.0, 35.5, 18.0, 49.9].into_iter().enumerate() {
            let stack = two_cavity_stack(w, 25.0);
            let refreshed = cache.assemble(&stack);
            assert_eq!(cache.values_refreshes(), k + 1, "width epoch {k}");
            assert_eq!(cache.symbolic_builds(), 1, "no re-symbolization");
            assert_assemblies_bitwise_equal(&refreshed, &stack.assemble(), "width epoch");
        }
        // A power-only phase change also keeps the pattern (power moves the
        // rhs, not the matrix structure).
        let hotter = two_cavity_stack(49.9, 60.0);
        let refreshed = cache.assemble(&hotter);
        assert_eq!(cache.values_refreshes(), 5);
        assert_eq!(cache.symbolic_builds(), 1);
        assert_assemblies_bitwise_equal(&refreshed, &hotter.assemble(), "power epoch");
    }

    /// Builder-valid stacks keep widths strictly inside `(0, pitch)`, so
    /// their emission structure never drifts — but [`replay_blocks`] still
    /// guards against it. Exercise the guard directly with a tampered block.
    #[test]
    fn structural_drift_in_replay_is_detected() {
        let stack = two_cavity_stack(30.0, 25.0);
        let blocks: Vec<LayerBlock> = (0..stack.layers.len())
            .map(|l| stack.layer_block(l))
            .collect();
        let (_, pattern) = stack.assembly_from_blocks_with_pattern(&blocks);
        // Untampered replay succeeds.
        assert!(replay_blocks(&blocks, &pattern).is_some());
        // A block that lost an emission is caught by the coordinate check
        // (or, at the latest, by the final count check).
        let mut dropped = blocks.clone();
        dropped[1].triplets.remove(7);
        assert!(replay_blocks(&dropped, &pattern).is_none());
        // A block with a moved coordinate is caught even when the emission
        // count is unchanged.
        let mut moved = blocks.clone();
        moved[1].triplets[3].0 += 1;
        assert!(replay_blocks(&moved, &pattern).is_none());
    }

    /// A structurally different stack falls back to a full rebuild instead
    /// of mixing incompatible blocks.
    #[test]
    fn structure_change_falls_back_to_full_rebuild() {
        let five = two_cavity_stack(30.0, 25.0);
        let three = StackBuilder::new(mm(0.4), mm(0.6), 4, 6)
            .silicon_layer("a", um(50.0))
            .microchannel_cavity(CavityWidths::Uniform(um(30.0)))
            .silicon_layer("b", um(50.0))
            .build()
            .unwrap();
        let mut cache = AssemblyCache::new();
        let _ = cache.assemble(&five);
        let rebuilt = cache.assemble(&three);
        assert_assemblies_bitwise_equal(&rebuilt, &three.assemble(), "structure change");
        assert_eq!(
            cache.symbolic_builds(),
            2,
            "the new structure re-symbolizes"
        );
    }

    /// Layer structures of [`random_stack`], solid `false` and cavity
    /// `true`: 3 and 5 layers, and two 4-layer orders that emit the same
    /// number of triplets at different coordinates (so only the replay's
    /// coordinate check tells them apart).
    const STRUCTURES: [&[bool]; 4] = [
        &[false, true, false],
        &[false, true, false, true, false],
        &[false, true, false, false],
        &[false, false, true, false],
    ];

    /// A builder-valid stack drawn from `seed`, with its shape: one of two
    /// grids, one of [`STRUCTURES`], random solid thicknesses and power
    /// maps (some layers unpowered), and random per-cell cavity widths.
    fn random_stack(seed: usize) -> (Stack, (usize, usize)) {
        // SplitMix64: a fixed, dependency-free stream per seed.
        let mut state = seed as u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as f64 / u64::MAX as f64
        };
        let (nx, nz) = if next() < 0.5 { (4, 6) } else { (3, 5) };
        let structure = ((next() * STRUCTURES.len() as f64) as usize).min(STRUCTURES.len() - 1);
        // A 100 µm pitch: widths are drawn inside (0, pitch).
        let mut builder = StackBuilder::new(mm(0.1 * nx as f64), mm(0.1 * nz as f64), nx, nz);
        for (l, &cavity) in STRUCTURES[structure].iter().enumerate() {
            if cavity {
                let widths = (0..nx)
                    .map(|_| (0..nz).map(|_| um(5.0 + 90.0 * next())).collect())
                    .collect();
                builder = builder.microchannel_cavity(CavityWidths::PerColumn(widths));
                continue;
            }
            builder = builder.silicon_layer(format!("die{l}"), um(20.0 + 80.0 * next()));
            if next() < 0.75 {
                let mut power = PowerMap::zeros(nx, nz);
                for j in 0..nz {
                    for i in 0..nx {
                        power.set_cell(i, j, liquamod_units::Power::from_watts(next()));
                    }
                }
                builder = builder.powered_by(power);
            }
        }
        (builder.build().unwrap(), (nx, structure))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Random sequences of builder-valid stacks through one cache: every
        /// assembly equals a fresh [`Stack::assemble`] bitwise, and only the
        /// first stack and a change of grid or layer structure re-symbolize.
        #[test]
        fn cached_assembly_matches_fresh_assembly_on_random_stack_sequences(
            seeds in proptest::collection::vec(0usize..1 << 48, 1..10),
        ) {
            let mut cache = AssemblyCache::new();
            let mut shape = None;
            let mut symbolic = 0;
            for (k, &seed) in seeds.iter().enumerate() {
                let (stack, next_shape) = random_stack(seed);
                if shape != Some(next_shape) {
                    symbolic += 1;
                }
                shape = Some(next_shape);
                let cached = cache.assemble(&stack);
                assert_assemblies_bitwise_equal(&cached, &stack.assemble(), "random stack");
                proptest::prop_assert_eq!(cache.symbolic_builds(), symbolic);
                proptest::prop_assert_eq!(cache.values_refreshes(), k + 1 - symbolic);
            }
        }
    }
}
