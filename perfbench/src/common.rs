//! Pieces every workload shares: the per-round record, the deterministic
//! output fingerprint, statistics and the stamped run conditions.

use liquamod::grid_sim::{ExponentialOptions, StepperKind};
use liquamod::mpsoc::MpsocConfig;
use std::fmt::Write as _;

/// The stepper every workload uses, so numbers compare across workloads.
pub fn stepper() -> StepperKind {
    StepperKind::Exponential(ExponentialOptions::default())
}

/// The full-grid stack (100 channels × 22 cells, 4 width groups per
/// cavity) on the exponential stepper.
pub fn full_config() -> MpsocConfig {
    let mut config = MpsocConfig::fast();
    config.stepper = stepper();
    config
}

/// The coarse stack: 11 cells along the flow and 2 width groups per
/// cavity, so the reduced model has 4 BVP columns.
pub fn coarse_config() -> MpsocConfig {
    let mut config = full_config();
    config.nz = 11;
    config.n_groups = 2;
    config
}

/// One-line description of a stack configuration.
pub fn geometry(config: &MpsocConfig) -> String {
    format!(
        "nx={} nz={} groups/cavity={} bvp_columns={} mesh={} dt={}ms",
        config.nx,
        config.nz,
        config.n_groups,
        2 * config.n_groups,
        config.optimizer.mesh_intervals,
        config.dt_seconds * 1e3
    )
}

/// The deterministic outputs of one round, as named value lists in a
/// fixed order: what the reference file stores and what repeated rounds
/// must reproduce.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outputs(pub Vec<(String, Vec<f64>)>);

impl Outputs {
    pub fn push(&mut self, key: impl Into<String>, values: Vec<f64>) {
        self.0.push((key.into(), values));
    }

    pub fn get(&self, key: &str) -> Option<&[f64]> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
    }

    /// Reference-file lines for this round: `workload seed key values…`.
    pub fn to_lines(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        for (key, values) in &self.0 {
            let _ = write!(out, "{workload} {seed} {key}");
            for v in values {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
        out
    }
}

/// What one round of a workload measured and produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Per-request latency, seconds: what a caller waits on one decision.
    pub latencies_s: Vec<f64>,
    /// Simulated stack time advanced over the round, summed over stacks, ms.
    pub sim_stack_ms: f64,
    /// Wall time of the round, seconds.
    pub wall_s: f64,
    /// Operations attempted and failed (errors, evictions, epoch
    /// fallbacks, broken invariants).
    pub attempted: usize,
    pub failed: usize,
    /// Why operations failed, for the log.
    pub problems: Vec<String>,
    pub outputs: Outputs,
    /// Modulation epochs run and adopted.
    pub epochs: usize,
    pub adopted: usize,
    /// Latest per-stack gradient feedback, kelvin (allocator replay input).
    pub gradients_k: Vec<f64>,
    /// `drain_batch` wall times, seconds (serve only).
    pub batch_walls_s: Vec<f64>,
    /// Snapshot close → JSON → parse → restore times, ms, and document
    /// sizes, bytes (serve only).
    pub snapshot_ms: Vec<f64>,
    pub snapshot_bytes: Vec<usize>,
}

impl Round {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }
}

/// Quantile by linear interpolation between order statistics (the
/// "type 7" estimator), `q` in `[0, 1]`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Worker threads the benchmark uses: the machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The conditions every result is stamped with.
pub fn conditions(workload: &str, seed: u64, config: &MpsocConfig, workers: usize) -> String {
    format!(
        "conditions: workload={workload} seed={seed} nproc={} cpu=\"{}\" rustc=\"{}\" \
         stepper=exponential(x_cells={}, z_cells={}) geometry=[{}] workers={workers}",
        nproc(),
        cpu_model(),
        env!("PERFBENCH_RUSTC"),
        ExponentialOptions::default().x_cells,
        ExponentialOptions::default().z_cells,
        geometry(config),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
    }
}
