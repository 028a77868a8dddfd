//! The MPSoC modulation sweep: arch × trace × flow-scale variants through
//! the deterministic parallel fan-out.

use super::load::arch_trace;
use super::stack::{MpsocConfig, MpsocModulated};
use crate::sweep::ExecutionMode;
use crate::transient::{run_modulation_sweep, EpochPolicy, ModulationPolicy, ModulationReport};
use crate::Result;
use liquamod_floorplan::arch::{self, Architecture};
use liquamod_floorplan::PowerLevel;

/// Which Fig. 7 architecture a sweep variant runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchSpec {
    /// Arch. 1 — aligned Niagara-1 dies (stacked hotspots).
    Arch1,
    /// Arch. 2 — Niagara-1 over its inverted layout (staggered hotspots).
    Arch2,
    /// Arch. 3 — Niagara-1 logic die over an all-cache die.
    Arch3,
}

impl ArchSpec {
    /// All three architectures in paper order.
    #[must_use]
    pub fn all() -> Vec<ArchSpec> {
        vec![ArchSpec::Arch1, ArchSpec::Arch2, ArchSpec::Arch3]
    }

    /// Materializes the architecture.
    #[must_use]
    pub fn architecture(&self) -> Architecture {
        match self {
            ArchSpec::Arch1 => arch::arch1(),
            ArchSpec::Arch2 => arch::arch2(),
            ArchSpec::Arch3 => arch::arch3(),
        }
    }

    /// Short label used in report rows.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ArchSpec::Arch1 => "arch1",
            ArchSpec::Arch2 => "arch2",
            ArchSpec::Arch3 => "arch3",
        }
    }
}

/// Which two-die workload trace a sweep variant runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpsocTraceSpec {
    /// Both dies stepping through a sequence of power levels (the Niagara
    /// average/peak phase schedule).
    LevelSteps {
        /// Power levels, one phase each.
        levels: Vec<PowerLevel>,
    },
}

impl MpsocTraceSpec {
    /// The default average→peak burst.
    #[must_use]
    pub fn avg_to_peak() -> Self {
        MpsocTraceSpec::LevelSteps {
            levels: vec![PowerLevel::Average, PowerLevel::Peak],
        }
    }

    /// A single peak burst inside an otherwise-average schedule of
    /// `phases` phases: `Peak` at `hot_phase` (clamped into range),
    /// `Average` everywhere else. Staggering `hot_phase` across a fleet's
    /// stacks makes the hot-spot *migrate* between stacks at phase
    /// boundaries — the scenario where a reactive allocator is always one
    /// segment behind and predictive allocation earns its keep.
    #[must_use]
    pub fn migrating_peak(hot_phase: usize, phases: usize) -> Self {
        let phases = phases.max(1);
        let hot_phase = hot_phase.min(phases - 1);
        MpsocTraceSpec::LevelSteps {
            levels: (0..phases)
                .map(|p| {
                    if p == hot_phase {
                        PowerLevel::Peak
                    } else {
                        PowerLevel::Average
                    }
                })
                .collect(),
        }
    }

    /// Short label used in report rows, e.g. `avg-peak`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            MpsocTraceSpec::LevelSteps { levels } => levels
                .iter()
                .map(|l| match l {
                    PowerLevel::Average => "avg",
                    PowerLevel::Peak => "peak",
                })
                .collect::<Vec<_>>()
                .join("-"),
        }
    }

    /// Materializes the trace for one architecture.
    #[must_use]
    pub fn trace(
        &self,
        architecture: &Architecture,
        phase_seconds: f64,
        nx: usize,
        nz: usize,
    ) -> super::MpsocTrace {
        match self {
            MpsocTraceSpec::LevelSteps { levels } => {
                arch_trace(architecture, levels, phase_seconds, nx, nz)
            }
        }
    }
}

/// The axes of an MPSoC sweep; variants are the cartesian product.
#[derive(Debug, Clone, PartialEq)]
pub struct MpsocGrid {
    /// Architectures to run.
    pub archs: Vec<ArchSpec>,
    /// Workload traces to run.
    pub traces: Vec<MpsocTraceSpec>,
    /// Multipliers applied to the per-channel coolant flow rate.
    pub flow_scales: Vec<f64>,
}

impl MpsocGrid {
    /// The default 6-variant bench grid: all three Fig. 7 architectures
    /// through the average→peak burst, at reduced and nominal flow.
    #[must_use]
    pub fn bench_default() -> Self {
        Self {
            archs: ArchSpec::all(),
            traces: vec![MpsocTraceSpec::avg_to_peak()],
            flow_scales: vec![0.75, 1.0],
        }
    }

    /// Number of variants in the grid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.archs.len() * self.traces.len() * self.flow_scales.len()
    }

    /// `true` when any axis is empty (no variants).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid in stable report order: architectures outermost,
    /// then traces, then flow scales.
    #[must_use]
    pub fn variants(&self) -> Vec<MpsocVariant> {
        let mut out = Vec::with_capacity(self.len());
        for &arch in &self.archs {
            for trace in &self.traces {
                for &flow_scale in &self.flow_scales {
                    out.push(MpsocVariant {
                        index: out.len(),
                        arch,
                        trace: trace.clone(),
                        flow_scale,
                    });
                }
            }
        }
        out
    }
}

/// One concrete point of an MPSoC sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MpsocVariant {
    /// Position in grid order (also the row position in the report).
    pub index: usize,
    /// Architecture.
    pub arch: ArchSpec,
    /// Workload trace.
    pub trace: MpsocTraceSpec,
    /// Flow-rate multiplier.
    pub flow_scale: f64,
}

impl MpsocVariant {
    /// Human-readable variant label, e.g. `arch1 avg-peak f*0.75`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{} {} f*{:.2}",
            self.arch.label(),
            self.trace.label(),
            self.flow_scale
        )
    }
}

/// Configuration of one MPSoC sweep run.
#[derive(Debug, Clone, PartialEq)]
pub struct MpsocSweepOptions {
    /// Base configuration each variant perturbs.
    pub config: MpsocConfig,
    /// Epoch policy of the modulated run in each variant.
    pub policy: EpochPolicy,
    /// Duration of every trace phase, seconds.
    pub phase_seconds: f64,
    /// Scheduling mode.
    pub mode: ExecutionMode,
}

impl MpsocSweepOptions {
    /// The fast configuration: 16-step phases with an 8-step epoch cadence.
    #[must_use]
    pub fn fast(mode: ExecutionMode) -> Self {
        Self {
            config: MpsocConfig::fast(),
            policy: EpochPolicy::FixedCadence { epoch_steps: 8 },
            phase_seconds: 0.032,
            mode,
        }
    }

    /// The worker count this sweep will request (capped at the unit
    /// count, two per variant, when the sweep runs).
    #[must_use]
    pub fn resolved_workers(&self) -> usize {
        self.mode.resolved_workers()
    }
}

/// Runs every variant of `grid` under `options` and collects the report:
/// per variant, the full-chip controller under `options.policy` against
/// the frozen uniform-width baseline on the same trace, scheduled as two
/// units by the modulated-vs-frozen engine it shares with
/// [`crate::transient::run_transient_sweep`].
///
/// Rows come back in grid order whatever the scheduling; parallel and
/// serial runs of the same grid produce bitwise-identical rows (each half
/// is an independent scheduling unit — epoch warm starts chain only
/// *within* one run — and every family operation is a pure function with
/// single-threaded finite differences).
///
/// # Errors
///
/// Returns the first controller failure in (variant,
/// modulated-before-frozen) order and discards the partial report.
pub fn run_mpsoc_sweep(grid: &MpsocGrid, options: &MpsocSweepOptions) -> Result<ModulationReport> {
    run_modulation_sweep(
        &grid.variants(),
        options.resolved_workers(),
        ModulationPolicy::Modulated(options.policy),
        MpsocVariant::label,
        |variant, policy| {
            let config = options.config.with_flow_scale(variant.flow_scale)?;
            let architecture = variant.arch.architecture();
            let trace =
                variant
                    .trace
                    .trace(&architecture, options.phase_seconds, config.nx, config.nz);
            MpsocModulated::for_arch(&architecture, config)?
                .controller(policy)?
                .run(&trace)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expansion_and_labels() {
        let grid = MpsocGrid::bench_default();
        assert_eq!(grid.len(), 6);
        assert!(!grid.is_empty());
        let variants = grid.variants();
        assert!(variants.iter().enumerate().all(|(i, v)| v.index == i));
        assert_eq!(variants[0].label(), "arch1 avg-peak f*0.75");
        assert_eq!(variants[5].label(), "arch3 avg-peak f*1.00");
        let empty = MpsocGrid {
            archs: vec![],
            traces: vec![MpsocTraceSpec::avg_to_peak()],
            flow_scales: vec![1.0],
        };
        assert!(empty.is_empty());
    }

    #[test]
    fn arch_specs_cover_the_paper() {
        let archs = ArchSpec::all();
        assert_eq!(archs.len(), 3);
        assert_eq!(archs[0].architecture().name(), "Arch. 1");
        assert_eq!(archs[2].architecture().name(), "Arch. 3");
        assert_eq!(MpsocTraceSpec::avg_to_peak().label(), "avg-peak");
    }
}
