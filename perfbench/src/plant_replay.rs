//! `plant-replay`: frozen-uniform runs of the three architectures at two
//! flow scales on the full grid. It never calls the optimizer, so it
//! isolates stack assembly, propagator builds and stepping: short phases
//! are dominated by builds, long ones by steps.

use crate::common::{full_config, Round};
use crate::gen::{level_schedule, Rng};
use crate::layers::{Feed, FeedStack};
use liquamod::floorplan::trace::{Phase, PowerTrace};
use liquamod::floorplan::PowerLevel;
use liquamod::mpsoc::{ArchSpec, MpsocLoad, MpsocModulated, MpsocTrace};
use liquamod::transient::{ModulationController, ModulationPolicy, TransientOutcome};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub const NAME: &str = "plant-replay";

const FLOW_SCALES: [f64; 2] = [0.75, 1.0];
/// Short phases per trace (16 steps each) and their peak count.
const SHORTS: usize = 12;
const SHORT_PEAKS: usize = 6;
const SHORT_STEPS: usize = 16;
/// The two long phases (steps): one runs at peak, one at average power.
const LONG_STEPS: [usize; 2] = [150, 300];

pub struct Run {
    pub arch: ArchSpec,
    pub flow_scale: f64,
    pub trace: MpsocTrace,
    pub controller: ModulationController<MpsocModulated>,
}

pub struct Inputs {
    pub runs: Vec<Run>,
    /// Each architecture's phases (level, seconds), in run order.
    pub schedules: Vec<(ArchSpec, Vec<(PowerLevel, f64)>)>,
}

/// Seeded inputs: architecture order, and per architecture the order of
/// its short and long phases and which phases run at peak power.
pub fn setup(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, NAME);
    let config = full_config();
    let dt = config.dt_seconds;
    let mut archs = ArchSpec::all();
    rng.shuffle(&mut archs);
    let mut runs = Vec::new();
    let mut schedules = Vec::new();
    for arch in archs {
        let architecture = arch.architecture();
        let average =
            MpsocLoad::from_arch(&architecture, PowerLevel::Average, config.nx, config.nz);
        let peak = MpsocLoad::from_arch(&architecture, PowerLevel::Peak, config.nx, config.nz);
        let mut phases: Vec<(usize, PowerLevel)> = level_schedule(&mut rng, SHORTS, SHORT_PEAKS)
            .into_iter()
            .map(|l| (SHORT_STEPS, l))
            .collect();
        let long_levels = level_schedule(&mut rng, LONG_STEPS.len(), 1);
        phases.extend(LONG_STEPS.iter().copied().zip(long_levels));
        rng.shuffle(&mut phases);
        let trace = PowerTrace::new(
            phases
                .iter()
                .map(|&(steps, level)| Phase {
                    label: format!("{}@{level:?}x{steps}", arch.label()),
                    duration_seconds: steps as f64 * dt,
                    load: match level {
                        PowerLevel::Average => average.clone(),
                        PowerLevel::Peak => peak.clone(),
                    },
                })
                .collect(),
        )
        .expect("generated phases are valid");
        schedules.push((
            arch,
            phases
                .iter()
                .map(|&(steps, l)| (l, steps as f64 * dt))
                .collect(),
        ));
        for scale in FLOW_SCALES {
            let controller = config
                .with_flow_scale(scale)
                .and_then(|c| MpsocModulated::for_arch(&architecture, c))
                .and_then(|f| f.controller(ModulationPolicy::FrozenUniform))
                .expect("the full-grid family builds");
            runs.push(Run {
                arch,
                flow_scale: scale,
                trace: trace.clone(),
                controller,
            });
        }
    }
    Inputs { runs, schedules }
}

/// Replays every run once, `workers` runs at a time. With one worker the
/// runs execute on the calling thread, where an active `ObsSession`
/// records them.
pub fn round(inputs: &Inputs, workers: usize) -> Round {
    let started = Instant::now();
    let replay = |run: &Run| {
        let t = Instant::now();
        let outcome = run.controller.run(&run.trace);
        Some((t.elapsed().as_secs_f64(), outcome))
    };
    let results: Vec<Option<(f64, liquamod::Result<TransientOutcome>)>> = if workers <= 1 {
        inputs.runs.iter().map(replay).collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots = Mutex::new((0..inputs.runs.len()).map(|_| None).collect::<Vec<_>>());
        std::thread::scope(|scope| {
            for _ in 0..workers.min(inputs.runs.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(run) = inputs.runs.get(i) else { break };
                    let result = replay(run);
                    slots
                        .lock()
                        .expect("no replay thread panics while holding the lock")[i] = result;
                });
            }
        });
        slots.into_inner().expect("replay threads finished")
    };
    let mut r = Round::default();
    let mut max_gradient = f64::NEG_INFINITY;
    for (i, (run, slot)) in inputs.runs.iter().zip(results).enumerate() {
        r.attempted += 1;
        let Some((latency, outcome)) = slot else {
            r.fail(format!("run {i} never ran"));
            continue;
        };
        match outcome {
            Ok(o) => {
                r.latencies_s.push(latency);
                r.sim_stack_ms += o.snapshots.len() as f64 * o.dt_seconds * 1e3;
                let inlet = run
                    .controller
                    .family()
                    .config()
                    .params
                    .inlet_temperature
                    .as_kelvin();
                if o.snapshots.iter().any(|s| s.min_k < inlet - 1e-9) {
                    r.fail(format!("run {i}: silicon below the inlet"));
                }
                max_gradient = max_gradient.max(o.peak_gradient_k());
                let last = o.snapshots.last().map_or(f64::NAN, |s| s.peak_k);
                r.outputs.push(
                    format!("run{i}.{}x{}", run.arch.label(), run.flow_scale),
                    vec![
                        o.snapshots.len() as f64,
                        o.peak_gradient_k(),
                        o.peak_temperature_k(),
                        last,
                    ],
                );
                r.gradients_k.push(o.peak_gradient_k());
            }
            Err(e) => r.fail(format!("run {i}: {e}")),
        }
    }
    r.outputs
        .push("decisions", vec![r.latencies_s.len() as f64]);
    r.outputs.push("max_gradient_k", vec![max_gradient]);
    r.wall_s = started.elapsed().as_secs_f64();
    r
}

/// The loads the layer replays run on: every architecture's own schedule.
pub fn feed(inputs: &Inputs, r: &Round) -> Feed {
    Feed {
        stacks: inputs
            .schedules
            .iter()
            .map(|(arch, phases)| FeedStack {
                arch: *arch,
                phases: phases.clone(),
            })
            .collect(),
        config: full_config(),
        policy: ModulationPolicy::FrozenUniform,
        gradients_k: r.gradients_k.clone(),
    }
}
