//! `fleet-ladder`: the three-stack migrating-peak fleet on the coarse
//! stack under two under-provisioned pump budgets. Every (budget, policy)
//! lane is one `run_fleet` call.

use crate::common::{coarse_config, Outputs, Round};
use crate::gen::Rng;
use crate::layers::{Feed, FeedStack};
use liquamod::fleet::{run_fleet, BudgetPolicy, FleetOptions, FleetOutcome, PumpBudget, StackSpec};
use liquamod::mpsoc::{ArchSpec, MpsocTraceSpec};
use liquamod::sweep::ExecutionMode;
use liquamod::transient::ModulationPolicy;
use std::num::NonZeroUsize;
use std::time::Instant;

pub const NAME: &str = "fleet-ladder";

const BUDGETS: [f64; 2] = [0.75, 0.85];
const POLICIES: [BudgetPolicy; 3] = [
    BudgetPolicy::Uniform,
    BudgetPolicy::GradientWaterfill,
    BudgetPolicy::Predictive,
];

#[derive(Debug)]
pub struct Inputs {
    pub stacks: Vec<StackSpec>,
    /// One entry per lane, budget-major.
    pub lanes: Vec<FleetOptions>,
}

fn mode(workers: usize) -> ExecutionMode {
    ExecutionMode::Parallel {
        workers: NonZeroUsize::new(workers),
    }
}

/// Seeded inputs: the order of the stacks in the fleet. Each architecture
/// keeps its peak phase (arch1 first, then arch2, then arch3), so the hot
/// spot migrates through the fleet the same way under every seed: which
/// architecture peaks after which changes the worst gradient by up to 60 %
/// under the reactive policies, far more than any change to the code under
/// test would.
pub fn setup(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, NAME);
    let archs = ArchSpec::all();
    let phases = archs.len();
    let mut stacks: Vec<StackSpec> = archs
        .into_iter()
        .enumerate()
        .map(|(hot, arch)| StackSpec {
            arch,
            trace: MpsocTraceSpec::migrating_peak(hot, phases),
        })
        .collect();
    rng.shuffle(&mut stacks);
    let mut lanes = Vec::new();
    for scale in BUDGETS {
        for policy in POLICIES {
            let mut o = FleetOptions::fast(stacks.len(), mode(1));
            o.config = coarse_config();
            o.allocation = policy;
            o.budget = PumpBudget::per_stack(scale, stacks.len());
            lanes.push(o);
        }
    }
    Inputs { stacks, lanes }
}

/// Runs the first `lanes` lanes once, in lane order.
pub fn round(inputs: &Inputs, workers: usize, lanes: usize) -> Round {
    let mut r = Round::default();
    let started = Instant::now();
    let mut max_gradient = f64::NEG_INFINITY;
    for (i, lane) in inputs.lanes.iter().enumerate().take(lanes) {
        let options = FleetOptions {
            mode: mode(workers),
            ..lane.clone()
        };
        r.attempted += 1;
        let t = Instant::now();
        let outcome = run_fleet(&inputs.stacks, &options);
        let latency = t.elapsed().as_secs_f64();
        match outcome {
            Ok(o) => {
                r.latencies_s.push(latency);
                let simulated: f64 = inputs
                    .stacks
                    .iter()
                    .map(|s| match &s.trace {
                        MpsocTraceSpec::LevelSteps { levels } => levels.len() as f64,
                    })
                    .sum::<f64>()
                    * options.phase_seconds
                    * 1e3;
                r.sim_stack_ms += simulated;
                check_lane(&o, &options, i, &mut r);
                max_gradient = max_gradient.max(o.worst_stack_peak_gradient_k());
                record_lane(&o, i, &mut r.outputs);
                r.gradients_k = o
                    .stacks
                    .iter()
                    .map(|s| s.segments.last().map_or(0.0, |m| m.peak_gradient_k))
                    .collect();
            }
            Err(e) => r.fail(format!("lane {i}: {e}")),
        }
    }
    r.outputs
        .push("decisions", vec![r.latencies_s.len() as f64]);
    r.outputs.push("max_gradient_k", vec![max_gradient]);
    r.wall_s = started.elapsed().as_secs_f64();
    r
}

/// Budget conservation and the valve band at every reallocation.
fn check_lane(o: &FleetOutcome, options: &FleetOptions, lane: usize, r: &mut Round) {
    let b = options.budget;
    for (k, shares) in o.allocations.iter().enumerate() {
        let sum: f64 = shares.iter().sum();
        let in_band = shares
            .iter()
            .all(|&s| s >= b.min_scale - 1e-12 && s <= b.max_scale + 1e-12);
        if (sum - b.total_scale).abs() > 1e-9 * b.total_scale || !in_band {
            r.fail(format!(
                "lane {lane} segment {k}: allocation {shares:?} breaks {b:?}"
            ));
        }
    }
    for s in &o.stacks {
        r.epochs += s.epochs();
        r.adopted += s.epochs_adopted();
    }
}

fn record_lane(o: &FleetOutcome, lane: usize, out: &mut Outputs) {
    out.push(
        format!("lane{lane}.evaluations"),
        o.stacks
            .iter()
            .flat_map(|s| s.segments.iter().map(|m| m.evaluations as f64))
            .collect(),
    );
    out.push(
        format!("lane{lane}.allocations"),
        o.allocations.iter().flatten().copied().collect(),
    );
    out.push(
        format!("lane{lane}.worst_gradient_k"),
        vec![o.worst_stack_peak_gradient_k()],
    );
}

/// The loads the layer replays run on: every stack's own phase schedule.
pub fn feed(inputs: &Inputs, r: &Round) -> Feed {
    let lane = &inputs.lanes[0];
    Feed {
        config: lane.config.clone(),
        policy: ModulationPolicy::Modulated(lane.policy),
        stacks: inputs
            .stacks
            .iter()
            .map(|s| FeedStack {
                arch: s.arch,
                phases: match &s.trace {
                    MpsocTraceSpec::LevelSteps { levels } => {
                        levels.iter().map(|&l| (l, lane.phase_seconds)).collect()
                    }
                },
            })
            .collect(),
        gradients_k: r.gradients_k.clone(),
    }
}
