//! Per-layer replays for the traced run. Each one times calls into one
//! layer's public functions on the loads of the workload being traced, so
//! no probe inside the program is needed.

use crate::common::{median, Round};
use liquamod::fleet::{allocate_with, BudgetPolicy, PredictiveContext, PumpBudget, SurrogateModel};
use liquamod::floorplan::trace::{Phase, PowerTrace};
use liquamod::floorplan::PowerLevel;
use liquamod::grid_sim::{AssemblyCache, TransientOptions};
use liquamod::mpsoc::{ArchSpec, MpsocConfig, MpsocLoad, MpsocModulated};
use liquamod::serve::{ServeOptions, ServePool, SessionSnapshot};
use liquamod::thermal_model::{SolveOptions, SolveWorkspace};
use liquamod::transient::{ModulatedStack, ModulationPolicy};
use std::hint::black_box;
use std::time::Instant;

/// One stack of a workload: its architecture and its phases in order.
#[derive(Debug, Clone)]
pub struct FeedStack {
    pub arch: ArchSpec,
    pub phases: Vec<(PowerLevel, f64)>,
}

/// Everything the replays need from a workload.
#[derive(Debug, Clone)]
pub struct Feed {
    /// The workload's stack configuration.
    pub config: MpsocConfig,
    /// The modulation policy the workload runs its stacks under.
    pub policy: ModulationPolicy,
    pub stacks: Vec<FeedStack>,
    /// Gradient feedback the workload's allocator saw, kelvin.
    pub gradients_k: Vec<f64>,
}

/// A named per-layer measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.to_string(),
        value,
        unit,
    });
}

fn load(config: &MpsocConfig, arch: ArchSpec, level: PowerLevel) -> MpsocLoad {
    MpsocLoad::from_arch(&arch.architecture(), level, config.nx, config.nz)
}

fn family(
    config: &MpsocConfig,
    arch: ArchSpec,
    n_groups: usize,
) -> liquamod::Result<MpsocModulated> {
    let mut c = config.clone();
    c.n_groups = n_groups;
    MpsocModulated::for_arch(&arch.architecture(), c)
}

/// The distinct levels of a stack's schedule, in first-use order.
fn distinct_levels(stack: &FeedStack) -> Vec<PowerLevel> {
    let mut levels: Vec<PowerLevel> = Vec::new();
    for (l, _) in &stack.phases {
        if !levels.contains(l) {
            levels.push(*l);
        }
    }
    levels
}

/// Runs every replay; `round` is the traced pass (serve-soak reads its
/// batch and snapshot timings from it instead of replaying them).
pub fn probe(
    feed: &Feed,
    round: &Round,
    workers: usize,
    serve_native: bool,
) -> liquamod::Result<Vec<Metric>> {
    let mut out = Vec::new();
    bvp(feed, &mut out)?;
    optimizer(feed, round, &mut out)?;
    grid_sim(feed, &mut out)?;
    allocator(feed, &mut out)?;
    if serve_native {
        metric(
            &mut out,
            "serve.drain_batch_s",
            median(&round.batch_walls_s),
            "s",
        );
        metric(
            &mut out,
            "serve.snapshot_ms",
            median(&round.snapshot_ms),
            "ms",
        );
        let bytes: Vec<f64> = round.snapshot_bytes.iter().map(|&b| b as f64).collect();
        metric(&mut out, "serve.snapshot_bytes", median(&bytes), "bytes");
    } else {
        serve(feed, workers, &mut out)?;
    }
    Ok(out)
}

/// `Model::solve_with` on the reduced model of every stack's loads, at 4
/// and at 8 BVP columns.
fn bvp(feed: &Feed, out: &mut Vec<Metric>) -> liquamod::Result<()> {
    let options = SolveOptions::with_mesh_intervals(feed.config.optimizer.mesh_intervals);
    for (groups, name) in [
        (2, "thermal_model.bvp_solve_ms.4col"),
        (4, "thermal_model.bvp_solve_ms.8col"),
    ] {
        let mut times = Vec::new();
        let mut ws = SolveWorkspace::new();
        for stack in &feed.stacks {
            let fam = family(&feed.config, stack.arch, groups)?;
            for level in distinct_levels(stack) {
                let model = fam.reduced_model(&load(&feed.config, stack.arch, level))?;
                for _ in 0..8 {
                    let t = Instant::now();
                    black_box(model.solve_with(&options, &mut ws)?);
                    times.push(t.elapsed().as_secs_f64() * 1e3);
                }
            }
        }
        metric(out, name, median(&times), "ms");
    }
    Ok(())
}

/// One cold and one warm `optimize_epoch` per replayed stack, on the
/// 2-group (4-column) reduction: the first phase cold, then the next phase
/// of another level warm-started from it.
fn optimizer(feed: &Feed, round: &Round, out: &mut Vec<Metric>) -> liquamod::Result<()> {
    let (mut cold_s, mut warm_s, mut cold_n, mut warm_n) = (vec![], vec![], vec![], vec![]);
    let (mut replayed, mut would_adopt) = (0usize, 0usize);
    let mut ws = SolveWorkspace::new();
    for stack in feed.stacks.iter().take(2) {
        let fam = family(&feed.config, stack.arch, 2)?;
        let levels = distinct_levels(stack);
        let first = load(&feed.config, stack.arch, levels[0]);
        let second = load(
            &feed.config,
            stack.arch,
            *levels.last().expect("a stack has phases"),
        );
        let t = Instant::now();
        let cold = fam.optimize_epoch(&first, &fam.uniform_widths(), None, &mut ws)?;
        cold_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let warm = fam.optimize_epoch(&second, &cold.widths, Some(&cold.warm), &mut ws)?;
        warm_s.push(t.elapsed().as_secs_f64());
        cold_n.push(cold.evaluations as f64);
        warm_n.push(warm.evaluations as f64);
        for c in [&cold, &warm] {
            replayed += 1;
            would_adopt += usize::from(c.gradient_k <= c.incumbent_gradient_k);
        }
    }
    metric(out, "optimizer.epoch_cold_s", median(&cold_s), "s");
    metric(out, "optimizer.epoch_warm_s", median(&warm_s), "s");
    // Counts are exact: the first replayed stack's.
    metric(out, "optimizer.evals_cold", cold_n[0], "count");
    metric(out, "optimizer.evals_warm", warm_n[0], "count");
    // A workload that never modulates (plant-replay) has no epochs of its
    // own: the replayed epochs' adopt rule stands in.
    let adopt = if round.epochs > 0 {
        round.adopted as f64 / round.epochs as f64
    } else {
        would_adopt as f64 / replayed as f64
    };
    metric(out, "optimizer.adopt_frac", adopt, "fraction");
    Ok(())
}

/// `build_stack` + `transient_stepper_cached` for every phase of every
/// stack (one assembly cache per stack, as the controller keeps), then
/// `TransientStepper::step` on each built stepper.
fn grid_sim(feed: &Feed, out: &mut Vec<Metric>) -> liquamod::Result<()> {
    let c = &feed.config;
    let options = TransientOptions {
        dt_seconds: c.dt_seconds,
        steps: 1,
        initial: None,
        solver: c.solver.clone(),
        stepper: c.stepper.clone(),
    };
    let (mut build_ms, mut step_us) = (Vec::new(), Vec::new());
    for stack in &feed.stacks {
        let fam = family(c, stack.arch, c.n_groups)?;
        let widths = fam.uniform_widths();
        let loads: Vec<(PowerLevel, MpsocLoad)> = distinct_levels(stack)
            .into_iter()
            .map(|l| (l, load(c, stack.arch, l)))
            .collect();
        let mut cache = AssemblyCache::new();
        let mut state: Option<Vec<f64>> = None;
        for (level, _) in stack.phases.iter().take(8) {
            let phase_load = &loads
                .iter()
                .find(|(l, _)| l == level)
                .expect("level loaded")
                .1;
            let t = Instant::now();
            let built = fam.build_stack(phase_load, &widths)?;
            let mut stepper = built.transient_stepper_cached(&options, &mut cache)?;
            build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Some(s) = &state {
                stepper.set_state(s, 0.0)?;
            }
            for _ in 0..16 {
                let t = Instant::now();
                black_box(stepper.step()?);
                step_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            state = Some(stepper.state().to_vec());
        }
    }
    metric(out, "grid_sim.propagator_build_ms", median(&build_ms), "ms");
    metric(out, "grid_sim.step_us", median(&step_us), "us");
    Ok(())
}

/// `allocate_with` under the predictive policy on the workload's own
/// gradient feedback, with a power forecast from each stack's schedule and
/// a surrogate fitted to two observations.
fn allocator(feed: &Feed, out: &mut Vec<Metric>) -> liquamod::Result<()> {
    let gradients = &feed.gradients_k;
    let n = gradients.len();
    let budget = PumpBudget::per_stack(0.85, n);
    let shares = vec![budget.uniform_share(n); n];
    let ratios: Vec<f64> = (0..n)
        .map(|i| {
            let s = &feed.stacks[i % feed.stacks.len()];
            let p = |k: usize| {
                let level = s.phases[k % s.phases.len()].0;
                load(&feed.config, s.arch, level).total_power().as_watts()
            };
            p(1) / p(0)
        })
        .collect();
    let mut surrogate = SurrogateModel::new(n);
    surrogate.observe(&shares, gradients);
    let nudged: Vec<f64> = shares
        .iter()
        .enumerate()
        .map(|(i, s)| s * (1.0 + 0.02 * (i + 1) as f64))
        .collect();
    let cooler: Vec<f64> = gradients.iter().map(|g| g * 0.97).collect();
    surrogate.observe(&nudged, &cooler);
    let ctx = PredictiveContext {
        last_shares: &shares,
        forecast_ratio: Some(&ratios),
        surrogate: &surrogate,
    };
    const CALLS: usize = 20_000;
    let mut per_call_us = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..CALLS {
            black_box(allocate_with(
                BudgetPolicy::Predictive,
                black_box(&budget),
                black_box(gradients),
                Some(&ctx),
            )?);
        }
        per_call_us.push(t.elapsed().as_secs_f64() * 1e6 / CALLS as f64);
    }
    metric(out, "fleet.allocate_us", median(&per_call_us), "us");
    Ok(())
}

/// Streams every stack's phases through a `ServePool` as sessions, one
/// phase per batch, then snapshots and restores the first session.
fn serve(feed: &Feed, workers: usize, out: &mut Vec<Metric>) -> liquamod::Result<()> {
    let c = &feed.config;
    let mut pool = ServePool::new(ServeOptions {
        config: c.clone(),
        policy: feed.policy,
        budget_policy: BudgetPolicy::GradientWaterfill,
        avg_scale: 1.0,
        planned_capacity: feed.stacks.len(),
        workers,
    })?;
    let mut ids = Vec::new();
    for s in &feed.stacks {
        ids.push(pool.open(s.arch)?);
    }
    let mut walls = Vec::new();
    let phases = feed
        .stacks
        .iter()
        .map(|s| s.phases.len())
        .max()
        .unwrap_or(0);
    for k in 0..phases {
        for (s, &id) in feed.stacks.iter().zip(&ids) {
            if let Some(&(level, seconds)) = s.phases.get(k) {
                let trace = PowerTrace::new(vec![Phase {
                    label: format!("{}@{level:?}", s.arch.label()),
                    duration_seconds: seconds,
                    load: load(c, s.arch, level),
                }])
                .expect("a one-phase trace is valid");
                pool.submit(id, trace)?;
            }
        }
        let t = Instant::now();
        pool.drain_batch()?;
        walls.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let doc = pool.close(ids[0])?.to_golden_json();
    pool.restore(&SessionSnapshot::from_golden_json(&doc)?)?;
    let snapshot_ms = t.elapsed().as_secs_f64() * 1e3;
    metric(out, "serve.drain_batch_s", median(&walls), "s");
    metric(out, "serve.snapshot_ms", snapshot_ms, "ms");
    metric(out, "serve.snapshot_bytes", doc.len() as f64, "bytes");
    Ok(())
}
