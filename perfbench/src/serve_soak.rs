//! `serve-soak`: a closed-loop streaming service. One thread owns a
//! `ServePool` and plays four clients. Each client keeps one session open
//! and submits its next phase only once the decision for the previous one
//! came back; when its session's schedule is done, the session departs and
//! the client opens the next one. A recurring close → JSON → parse →
//! restore churn exercises the snapshot documents under load.

use crate::common::{coarse_config, Round};
use crate::gen::{level_schedule, Rng};
use crate::layers::{Feed, FeedStack};
use liquamod::fleet::BudgetPolicy;
use liquamod::floorplan::PowerLevel;
use liquamod::mpsoc::ArchSpec;
use liquamod::serve::{ServeOptions, ServePool, SessionSnapshot};
use liquamod::transient::ModulationPolicy;
use liquamod::DegradedKind;
use std::collections::BTreeMap;
use std::time::Instant;

pub const NAME: &str = "serve-soak";

/// Clients, sessions per round, and the phases a full session streams.
/// The clients' first sessions are 1/4, 2/4, 3/4 and 4/4 of a full one, so
/// arrivals are staggered one every 4 batches while 4 sessions stay live:
/// a quarter of all batches carries a cold first decision (the p90
/// population), the rest are warm 4-session batches (the p50 population).
/// With 8 arrivals after the first batch, p90 falls in the middle of the
/// arrival batches rather than on the second slowest of a few.
const CLIENTS: usize = 4;
const SESSIONS: usize = 12;
const PHASES: usize = 16;
/// The lowest-id live session is snapshotted and restored every this many
/// batches.
const CHURN_EVERY: usize = 5;
/// Phase length: 16 steps of 2 ms, one modulation epoch per phase.
const PHASE_SECONDS: f64 = 0.032;
const EPOCH_STEPS: usize = 16;

/// One planned session: its architecture and its level schedule.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    pub arch: ArchSpec,
    pub levels: Vec<PowerLevel>,
}

#[derive(Debug)]
pub struct Inputs {
    pub options: ServeOptions,
    pub sessions: Vec<SessionPlan>,
}

/// The pool configuration; each round sets its own worker count.
fn options() -> ServeOptions {
    ServeOptions {
        config: coarse_config(),
        policy: ModulationPolicy::every(EPOCH_STEPS),
        budget_policy: BudgetPolicy::GradientWaterfill,
        avg_scale: 1.0,
        planned_capacity: CLIENTS,
        workers: 1,
    }
}

/// Seeded inputs: each session's level schedule.
pub fn setup(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, NAME);
    // Arrival order is fixed (arch1, arch2, arch3, …): seeding it moves the
    // worst gradient by ~17 % between seeds, seeding the schedules alone
    // by ~6 %.
    let all = ArchSpec::all();
    let sessions = (0..SESSIONS)
        .map(|i| {
            let arch = all[i % all.len()];
            let len = if i < CLIENTS {
                PHASES * (i + 1) / CLIENTS
            } else {
                PHASES
            };
            // A session boots at average power: its first decision gets no
            // gradient feedback yet, so the allocator grants it the floor
            // share. Half of the remaining phases run at peak.
            let mut levels = vec![PowerLevel::Average];
            levels.extend(level_schedule(&mut rng, len - 1, len / 2));
            SessionPlan { arch, levels }
        })
        .collect();
    let options = options();
    // Building a pool validates the options; every round starts its own.
    ServePool::new(options.clone()).expect("serve options are valid");
    Inputs { options, sessions }
}

struct Live {
    plan: usize,
    /// Phases submitted so far (the next level index).
    submitted: usize,
    submitted_at: Instant,
}

fn submit(
    pool: &mut ServePool,
    id: u64,
    live: &mut Live,
    plan: &SessionPlan,
) -> liquamod::Result<()> {
    pool.submit_level(id, plan.levels[live.submitted], PHASE_SECONDS)?;
    live.submitted += 1;
    live.submitted_at = Instant::now();
    Ok(())
}

/// Runs the whole soak once with `workers` fan-out threads.
pub fn round(inputs: &Inputs, workers: usize) -> Round {
    let mut r = Round::default();
    let started = Instant::now();
    if let Err(e) = drive(inputs, workers, &mut r) {
        r.attempted += 1;
        r.fail(format!("serve round aborted: {e}"));
    }
    r.wall_s = started.elapsed().as_secs_f64();
    r
}

fn drive(inputs: &Inputs, workers: usize, r: &mut Round) -> liquamod::Result<()> {
    let options = ServeOptions {
        workers,
        ..inputs.options.clone()
    };
    let inlet_k = options.config.params.inlet_temperature.as_kelvin();
    let mut pool = ServePool::new(options)?;
    let mut live: BTreeMap<u64, Live> = BTreeMap::new();
    let mut opened = 0usize;
    let mut batch = 0usize;
    let mut evaluations = Vec::new();
    let mut allocations = Vec::new();
    let mut final_widths: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    let mut max_gradient = f64::NEG_INFINITY;
    let mut largest_batch = 0usize;
    let mut arrivals = CLIENTS;
    loop {
        while arrivals > 0 && opened < inputs.sessions.len() {
            let id = pool.open(inputs.sessions[opened].arch)?;
            let mut l = Live {
                plan: opened,
                submitted: 0,
                submitted_at: Instant::now(),
            };
            submit(&mut pool, id, &mut l, &inputs.sessions[opened])?;
            live.insert(id, l);
            opened += 1;
            arrivals -= 1;
        }
        if pool.pending_total() == 0 {
            break;
        }
        let budget = pool.effective_budget().total_scale;
        let b = pool.drain_batch()?;
        let returned = Instant::now();
        r.batch_walls_s.push(b.wall_seconds);
        let shares: f64 = b.decisions.iter().map(|d| d.flow_scale).sum();
        if (shares - budget).abs() > 1e-9 * budget {
            r.fail(format!(
                "batch {batch}: shares sum to {shares}, budget {budget}"
            ));
        }
        for e in &b.events {
            if matches!(
                e.kind,
                DegradedKind::SessionEvicted | DegradedKind::EpochFallback
            ) {
                r.fail(format!("batch {batch}: {} — {}", e.kind.label(), e.detail));
            }
        }
        if b.decisions.len() >= largest_batch {
            largest_batch = b.decisions.len();
            r.gradients_k = b.decisions.iter().map(|d| d.peak_gradient_k).collect();
        }
        for d in &b.decisions {
            r.attempted += 1;
            let Some(l) = live.get_mut(&d.session_id) else {
                r.fail(format!("decision for unknown session {}", d.session_id));
                continue;
            };
            r.latencies_s
                .push((returned - l.submitted_at).as_secs_f64());
            r.sim_stack_ms += PHASE_SECONDS * 1e3;
            r.epochs += d.outcome.epochs.len();
            r.adopted += d.epochs_adopted;
            evaluations.extend(d.outcome.epochs.iter().map(|e| e.evaluations as f64));
            allocations.push(d.flow_scale);
            max_gradient = max_gradient.max(d.peak_gradient_k);
            if d.outcome.snapshots.iter().any(|s| s.min_k < inlet_k - 1e-9) {
                r.fail(format!("session {}: silicon below the inlet", d.session_id));
            }
            let plan = &inputs.sessions[l.plan];
            if l.submitted < plan.levels.len() {
                submit(&mut pool, d.session_id, l, plan)?;
            } else {
                final_widths.insert(l.plan, (d.min_width_um, d.max_width_um));
                live.remove(&d.session_id);
                pool.close(d.session_id)?;
                arrivals += 1;
            }
        }
        batch += 1;
        if batch.is_multiple_of(CHURN_EVERY) {
            if let Some((&id, _)) = live.iter().next() {
                churn(&mut pool, id, live.get_mut(&id).expect("live"), inputs, r)?;
            }
        }
    }
    if !live.is_empty() {
        r.fail(format!("{} sessions never finished", live.len()));
    }
    r.outputs.push("decisions", vec![allocations.len() as f64]);
    r.outputs.push("max_gradient_k", vec![max_gradient]);
    r.outputs.push("epoch_evaluations", evaluations);
    r.outputs.push("allocations", allocations);
    r.outputs.push(
        "final_widths_um",
        final_widths
            .values()
            .flat_map(|&(lo, hi)| [lo, hi])
            .collect(),
    );
    r.outputs.push(
        "snapshot_bytes",
        r.snapshot_bytes.iter().map(|&b| b as f64).collect(),
    );
    Ok(())
}

/// Close → serialize → parse → restore, then re-submit the phase the close
/// dropped. The document must re-serialize byte for byte.
fn churn(
    pool: &mut ServePool,
    id: u64,
    l: &mut Live,
    inputs: &Inputs,
    r: &mut Round,
) -> liquamod::Result<()> {
    let t = Instant::now();
    let snapshot = pool.close(id)?;
    let doc = snapshot.to_golden_json();
    let parsed = SessionSnapshot::from_golden_json(&doc)?;
    let restored = pool.restore(&parsed)?;
    r.snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
    r.snapshot_bytes.push(doc.len());
    r.attempted += 1;
    if parsed.to_golden_json() != doc || restored != id {
        r.fail(format!(
            "session {id}: snapshot round trip is not byte-identical"
        ));
    }
    l.submitted = parsed.segments_done;
    submit(pool, id, l, &inputs.sessions[l.plan])
}

/// The loads the layer replays run on: each architecture's average and
/// peak phase, in first-arrival order.
pub fn feed(inputs: &Inputs, r: &Round) -> Feed {
    let mut stacks: Vec<FeedStack> = Vec::new();
    for s in &inputs.sessions {
        if stacks.iter().all(|f| f.arch != s.arch) {
            stacks.push(FeedStack {
                arch: s.arch,
                phases: vec![
                    (PowerLevel::Average, PHASE_SECONDS),
                    (PowerLevel::Peak, PHASE_SECONDS),
                ],
            });
        }
    }
    Feed {
        config: inputs.options.config.clone(),
        policy: inputs.options.policy,
        stacks,
        gradients_k: r.gradients_k.clone(),
    }
}
