//! The serve pool: multiplexing concurrent streaming modulation sessions
//! over the sweep engine's worker pool, under one shared pump budget.
//!
//! A [`ServePool`] admits stacks ([`ServePool::open`]), accepts their
//! workload phases incrementally ([`ServePool::submit`] /
//! [`ServePool::submit_level`]) and serves one queued phase per ready
//! session per [`ServePool::drain_batch`], fanning the segment runs across
//! worker threads with the same deterministic scheduler the batch sweeps
//! use — so a drained batch produces **bitwise** the same width decisions
//! at any worker count. Between batches the shared [`PumpBudget`] is split
//! across the *live* sessions by the configured [`BudgetPolicy`], and every
//! arrival or departure re-validates the provisioned budget against the new
//! fleet size, degrading (never dying) through
//! [`PumpBudget::clamped_feasible`] when the live set is too small or too
//! large for the valve band.

use std::collections::BTreeMap;
use std::time::Instant;

use liquamod_floorplan::{FluxGrid, PowerLevel};

use crate::faults::{DegradedEvent, DegradedKind, SegmentFaults};
use crate::fleet::{
    allocate_with, run_stack_segment, BudgetPolicy, PredictiveContext, PumpBudget, SurrogateModel,
};
use crate::mpsoc::{arch_trace, ArchSpec, MpsocConfig, MpsocModulated, MpsocTrace};
use crate::obs;
use crate::serve::metrics::PoolMetrics;
use crate::serve::session::{ServeSession, SessionSnapshot};
use crate::sweep::parallel_map;
use crate::transient::{resume_mismatch, ModulationPolicy, ResumeState, TransientOutcome};
use crate::{CoreError, Result};

/// Configuration of a [`ServePool`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The per-stack base configuration (its flow rate is the 1.0 point of
    /// the flow-scale axis; every session runs this config rescaled by its
    /// allocated share).
    pub config: MpsocConfig,
    /// The modulation policy every session's controller applies. For the
    /// streaming path to be bitwise-identical to a one-shot run the epoch
    /// cadence must align with the submitted phase lengths (e.g. a
    /// fixed cadence whose `epoch_steps` divides the steps per phase).
    pub policy: ModulationPolicy,
    /// How the shared budget splits across live sessions between batches.
    pub budget_policy: BudgetPolicy,
    /// Average provisioned flow scale per planned session.
    pub avg_scale: f64,
    /// Sessions the pump was provisioned for: the budget is
    /// [`PumpBudget::per_stack`]`(avg_scale, planned_capacity)` and stays
    /// fixed for the pool's lifetime — the live set grows and shrinks
    /// around it.
    pub planned_capacity: usize,
    /// Worker threads for batch fan-out (1 = serial).
    pub workers: usize,
}

impl ServeOptions {
    /// The single-session identity configuration: capacity 1 at average
    /// scale 1.0 under uniform allocation, serial execution — every
    /// decision runs at exactly the base config's flow, which is what the
    /// streaming-vs-one-shot identity gate requires.
    #[must_use]
    pub fn single(config: MpsocConfig, policy: ModulationPolicy) -> Self {
        Self {
            config,
            policy,
            budget_policy: BudgetPolicy::Uniform,
            avg_scale: 1.0,
            planned_capacity: 1,
            workers: 1,
        }
    }

    fn validate(&self) -> Result<()> {
        self.config.validate()?;
        if self.planned_capacity == 0 {
            return Err(CoreError::InvalidConfig {
                what: "planned_capacity must be ≥ 1".into(),
            });
        }
        if !(self.avg_scale.is_finite() && self.avg_scale > 0.0) {
            return Err(CoreError::InvalidConfig {
                what: format!(
                    "avg_scale must be positive and finite, got {}",
                    self.avg_scale
                ),
            });
        }
        Ok(())
    }
}

/// One width decision served to a session: the outcome of running one
/// submitted phase through the session's modulation controller.
#[derive(Debug, Clone, PartialEq)]
pub struct WidthDecision {
    /// The session served.
    pub session_id: u64,
    /// The session's architecture.
    pub arch: ArchSpec,
    /// Zero-based index of the phase within the session's stream.
    pub segment: usize,
    /// Session clock at the end of the served phase, seconds.
    pub time_seconds: f64,
    /// The flow share the allocator granted for this segment.
    pub flow_scale: f64,
    /// Time-peak inter-layer gradient over the segment, kelvin.
    pub peak_gradient_k: f64,
    /// Time-peak silicon temperature over the segment, kelvin.
    pub peak_temperature_k: f64,
    /// Narrowest channel width in the adopted design, µm.
    pub min_width_um: f64,
    /// Widest channel width in the adopted design, µm.
    pub max_width_um: f64,
    /// Modulation epochs adopted during the segment.
    pub epochs_adopted: usize,
    /// Optimizer objective evaluations spent on the segment.
    pub evaluations: usize,
    /// The full transient record of the segment (snapshot timestamps are
    /// segment-local, per the [`ModulationController::run_segment`]
    /// contract).
    ///
    /// [`ModulationController::run_segment`]: crate::transient::ModulationController::run_segment
    pub outcome: TransientOutcome,
}

/// Everything one [`ServePool::drain_batch`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBatch {
    /// Zero-based batch index (only batches that served work count).
    pub index: u64,
    /// One decision per served session, in session-id order.
    pub decisions: Vec<WidthDecision>,
    /// Degraded-mode events surfaced during the batch, in session-id order.
    pub events: Vec<DegradedEvent>,
    /// Wall-clock duration of the batch (measurement only — excluded from
    /// every determinism gate).
    pub wall_seconds: f64,
}

/// The per-width-decision extremes of a resume state's adopted design, µm.
fn width_band_um(resume: &ResumeState) -> (f64, f64) {
    let mut min_um = f64::INFINITY;
    let mut max_um = f64::NEG_INFINITY;
    for profile in resume.widths.iter().flatten() {
        min_um = min_um.min(profile.min_width().si() * 1e6);
        max_um = max_um.max(profile.max_width().si() * 1e6);
    }
    if min_um.is_finite() && max_um.is_finite() {
        (min_um, max_um)
    } else {
        (0.0, 0.0)
    }
}

/// The first cell flux of `grid` that is negative or not finite, W/m².
/// Scans the cells themselves: the grid's min/max folds skip a NaN.
fn invalid_flux(grid: &FluxGrid) -> Option<f64> {
    let (nx, nz) = grid.dims();
    (0..nz)
        .flat_map(|j| (0..nx).map(move |i| grid.flux_w_per_m2(i, j)))
        .find(|f| !(f.is_finite() && *f >= 0.0))
}

/// A long-running modulation service: concurrent streaming sessions over
/// one shared pump. See the [module docs](crate::serve) for the data flow.
#[derive(Debug)]
pub struct ServePool {
    options: ServeOptions,
    /// The provisioned budget (fixed at construction).
    budget: PumpBudget,
    /// The budget the allocator actually runs against: the provisioned one,
    /// or its [`PumpBudget::clamped_feasible`] relaxation when the live
    /// session count left the feasible band.
    effective: PumpBudget,
    sessions: BTreeMap<u64, ServeSession>,
    next_id: u64,
    metrics: PoolMetrics,
    events: Vec<DegradedEvent>,
}

impl ServePool {
    /// Builds an empty pool, provisioning the shared budget for
    /// `planned_capacity` sessions at `avg_scale` each.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for a base configuration every session
    /// would fail on (see [`MpsocModulated::new`]), a zero capacity or a
    /// non-positive average scale.
    pub fn new(options: ServeOptions) -> Result<Self> {
        options.validate()?;
        let budget = PumpBudget::per_stack(options.avg_scale, options.planned_capacity);
        budget.validate(options.planned_capacity)?;
        Ok(Self {
            options,
            budget,
            effective: budget,
            sessions: BTreeMap::new(),
            next_id: 0,
            metrics: PoolMetrics::default(),
            events: Vec::new(),
        })
    }

    /// The pool configuration.
    #[must_use]
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// The provisioned budget.
    #[must_use]
    pub fn budget(&self) -> &PumpBudget {
        &self.budget
    }

    /// The budget currently in force (clamped when the live session count
    /// is outside the provisioned band).
    #[must_use]
    pub fn effective_budget(&self) -> &PumpBudget {
        &self.effective
    }

    /// Pool-wide metrics.
    #[must_use]
    pub fn metrics(&self) -> &PoolMetrics {
        &self.metrics
    }

    /// Every degraded-mode event the pool has recorded, in order.
    #[must_use]
    pub fn events(&self) -> &[DegradedEvent] {
        &self.events
    }

    /// Number of live sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when no session is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Live session ids, ascending.
    #[must_use]
    pub fn session_ids(&self) -> Vec<u64> {
        self.sessions.keys().copied().collect()
    }

    /// Queued (not yet served) phases of one session.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an unknown session.
    pub fn queue_depth(&self, id: u64) -> Result<usize> {
        Ok(self.session(id)?.queued_len())
    }

    /// Total queued phases across all sessions.
    #[must_use]
    pub fn pending_total(&self) -> usize {
        self.sessions.values().map(ServeSession::queued_len).sum()
    }

    fn session(&self, id: u64) -> Result<&ServeSession> {
        self.sessions
            .get(&id)
            .ok_or_else(|| CoreError::InvalidConfig {
                what: format!("unknown session {id}"),
            })
    }

    /// The pool's served horizon: the latest session clock, the timestamp
    /// lifecycle events are stamped with.
    fn horizon_seconds(&self) -> f64 {
        self.sessions
            .values()
            .map(ServeSession::clock_seconds)
            .fold(0.0, f64::max)
    }

    /// Re-checks the provisioned budget against the live session count and
    /// swaps in the clamped band (recording a [`DegradedKind::BudgetClamped`]
    /// event) when it is infeasible — arrivals and departures degrade the
    /// allocation, they never kill the service.
    fn revalidate_budget(&mut self) -> Result<()> {
        let n = self.sessions.len();
        if n == 0 {
            self.effective = self.budget;
            return Ok(());
        }
        match self
            .budget
            .validate_at(n, Some(self.metrics.batches as usize))
        {
            Ok(()) => {
                self.effective = self.budget;
                Ok(())
            }
            Err(CoreError::BudgetInfeasible { .. }) => {
                self.effective = self.budget.clamped_feasible(n);
                let event = DegradedEvent {
                    kind: DegradedKind::BudgetClamped,
                    segment: Some(self.metrics.batches as usize),
                    stack: None,
                    time_seconds: self.horizon_seconds(),
                    detail: format!(
                        "budget provisioned for {} sessions clamped to serve {n} live \
                         (band [{}, {}] → [{}, {}] flow-scale units)",
                        self.options.planned_capacity,
                        self.budget.min_scale,
                        self.budget.max_scale,
                        self.effective.min_scale,
                        self.effective.max_scale,
                    ),
                };
                obs::event(event.kind.label(), event.detail.clone());
                self.events.push(event);
                self.metrics.degraded_events += 1;
                Ok(())
            }
            Err(other) => Err(other),
        }
    }

    /// Admits a new session on `arch`, re-validating the shared budget for
    /// the grown fleet. Over-subscribing past `planned_capacity` is allowed
    /// and degrades through the clamped band.
    ///
    /// # Errors
    ///
    /// Propagates budget-configuration errors (never mere infeasibility —
    /// that degrades instead).
    pub fn open(&mut self, arch: ArchSpec) -> Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.sessions.insert(id, ServeSession::new(id, arch));
        self.metrics.sessions_opened += 1;
        self.revalidate_budget()?;
        Ok(id)
    }

    /// Restores a session from a snapshot (same id, same trajectory),
    /// re-validating the budget like [`ServePool::open`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the snapshot's id is already live;
    /// [`CoreError::InvalidDocument`] when the pool could not serve it: an
    /// id it cannot advance past, a negative or non-finite clock, a
    /// non-positive or non-finite last power, a non-finite predictor field,
    /// or a resume state that does not fit the pool's stacks (see
    /// [`ModulationController::run_segment`]). Either way the pool is left
    /// unchanged.
    ///
    /// [`ModulationController::run_segment`]: crate::transient::ModulationController::run_segment
    pub fn restore(&mut self, snapshot: &SessionSnapshot) -> Result<u64> {
        let id = snapshot.session_id;
        if self.sessions.contains_key(&id) {
            return Err(CoreError::InvalidConfig {
                what: format!("session {id} is already live; cannot restore over it"),
            });
        }
        if let Some(what) = self.snapshot_misfit(snapshot)? {
            return Err(CoreError::InvalidDocument { what });
        }
        self.sessions
            .insert(id, ServeSession::from_snapshot(snapshot));
        self.next_id = self.next_id.max(id + 1);
        self.metrics.sessions_opened += 1;
        self.revalidate_budget()?;
        Ok(id)
    }

    /// What keeps the pool from serving `snapshot`, or `None` when it fits.
    fn snapshot_misfit(&self, snapshot: &SessionSnapshot) -> Result<Option<String>> {
        let clock = snapshot.clock_seconds;
        let p = &snapshot.predictor;
        let misfit = if snapshot.session_id == u64::MAX {
            Some("snapshot session id leaves no id to advance to".to_string())
        } else if !(clock.is_finite() && clock >= 0.0) {
            Some(format!(
                "snapshot clock {clock} s must be finite and non-negative"
            ))
        } else if let Some(w) = snapshot
            .last_power_w
            .filter(|w| !(w.is_finite() && *w > 0.0))
        {
            Some(format!(
                "snapshot last power {w} W must be finite and positive"
            ))
        } else if [p.slope_k_per_scale, p.last_share, p.last_gradient_k]
            .iter()
            .any(|v| !v.is_finite())
        {
            Some(format!("snapshot predictor state {p:?} must be finite"))
        } else {
            None
        };
        match (&misfit, &snapshot.resume) {
            (None, Some(resume)) => {
                let arch = snapshot.arch.architecture();
                let family = MpsocModulated::for_arch(&arch, self.options.config.clone())?;
                Ok(resume_mismatch(&family, resume))
            }
            _ => Ok(misfit),
        }
    }

    /// Departs a session, returning its final snapshot (resumable later via
    /// [`ServePool::restore`]) and re-validating the budget for the shrunk
    /// fleet. Queued phases the session never served are dropped.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an unknown session.
    pub fn close(&mut self, id: u64) -> Result<SessionSnapshot> {
        let session = self
            .sessions
            .remove(&id)
            .ok_or_else(|| CoreError::InvalidConfig {
                what: format!("unknown session {id}"),
            })?;
        self.metrics.sessions_closed += 1;
        self.revalidate_budget()?;
        Ok(session.snapshot())
    }

    /// The restartable state of a live session right now.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an unknown session.
    pub fn snapshot(&self, id: u64) -> Result<SessionSnapshot> {
        Ok(self.session(id)?.snapshot())
    }

    /// Queues one workload trace (usually a single phase) for a session.
    /// Served in submission order, one trace per batch.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an unknown session, a trace whose
    /// load grids do not match the pool's `nx × nz` configuration, or a
    /// cell flux that is negative or not finite; the queue is then left
    /// unchanged.
    pub fn submit(&mut self, id: u64, trace: MpsocTrace) -> Result<()> {
        let expected = (self.options.config.nx, self.options.config.nz);
        for phase in trace.phases() {
            let dims = phase.load.dims();
            if dims != expected {
                return Err(CoreError::InvalidConfig {
                    what: format!(
                        "phase '{}' load grid {}x{} does not match the pool's {}x{}",
                        phase.label, dims.0, dims.1, expected.0, expected.1
                    ),
                });
            }
            for (die, grid) in [("top", &phase.load.top), ("bottom", &phase.load.bottom)] {
                if let Some(flux) = invalid_flux(grid) {
                    return Err(CoreError::InvalidConfig {
                        what: format!(
                            "phase '{}' {die}-die flux {flux} W/m² must be finite and non-negative",
                            phase.label
                        ),
                    });
                }
            }
        }
        let session = self
            .sessions
            .get_mut(&id)
            .ok_or_else(|| CoreError::InvalidConfig {
                what: format!("unknown session {id}"),
            })?;
        session.enqueue(trace);
        Ok(())
    }

    /// [`ServePool::submit`] for the common streaming client: rasterizes
    /// one `duration_seconds`-long phase of the session's architecture at
    /// `level` and queues it.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] for an unknown session; trace
    /// construction errors for a non-positive duration.
    pub fn submit_level(
        &mut self,
        id: u64,
        level: PowerLevel,
        duration_seconds: f64,
    ) -> Result<()> {
        if !(duration_seconds.is_finite() && duration_seconds > 0.0) {
            return Err(CoreError::InvalidConfig {
                what: format!("phase duration must be positive, got {duration_seconds}"),
            });
        }
        let arch = self.session(id)?.arch();
        let trace = arch_trace(
            &arch.architecture(),
            &[level],
            duration_seconds,
            self.options.config.nx,
            self.options.config.nz,
        );
        self.submit(id, trace)
    }

    /// Serves one queued phase of every ready session: allocates the
    /// effective budget across the live sessions (gradient feedback from
    /// each session's last decision), fans the segment runs across the
    /// worker pool, and folds the results back into the sessions in id
    /// order — bitwise identical at any worker count.
    ///
    /// A session whose run *fails* (optimizer, model or panic payload) is
    /// evicted with a [`DegradedKind::SessionEvicted`] event rather than
    /// poisoning the batch; the other sessions' decisions still land.
    ///
    /// # Errors
    ///
    /// Allocation errors (non-finite gradient feedback, degenerate budget
    /// bounds) — the per-session run errors degrade instead.
    pub fn drain_batch(&mut self) -> Result<ServeBatch> {
        let index = self.metrics.batches;
        struct BatchTask {
            id: u64,
            arch: ArchSpec,
            label: String,
            trace: MpsocTrace,
            share: f64,
            resume: Option<ResumeState>,
            segment: usize,
        }

        let live: Vec<u64> = self.sessions.keys().copied().collect();
        let gradients: Vec<f64> = live
            .iter()
            .map(|id| self.sessions[id].last_gradient_k())
            .collect();
        let ready: Vec<u64> = live
            .iter()
            .copied()
            .filter(|id| self.sessions[id].queued_len() > 0)
            .collect();
        if ready.is_empty() {
            return Ok(ServeBatch {
                index,
                decisions: Vec::new(),
                events: Vec::new(),
                wall_seconds: 0.0,
            });
        }
        let _batch_span = obs::span("serve.batch");
        // Predictive serving: the lookahead is *partial* — only the
        // submitted-but-undrained front of each session's queue is known —
        // and the per-session surrogates (refit from every served decision,
        // carried through snapshot/restore) supply the trace-unknown half.
        let predictive = (self.options.budget_policy == BudgetPolicy::Predictive).then(|| {
            let last_shares: Vec<f64> = live
                .iter()
                .map(|id| self.sessions[id].predictor().last_share)
                .collect();
            let ratios: Vec<f64> = live
                .iter()
                .map(|id| self.sessions[id].forecast_power_ratio())
                .collect();
            let surrogate = SurrogateModel::from_stacks(
                live.iter()
                    .map(|id| *self.sessions[id].predictor())
                    .collect(),
            );
            (last_shares, ratios, surrogate)
        });
        let ctx = predictive
            .as_ref()
            .map(|(last_shares, ratios, surrogate)| PredictiveContext {
                last_shares,
                forecast_ratio: Some(ratios),
                surrogate,
            });
        let shares = allocate_with(
            self.options.budget_policy,
            &self.effective,
            &gradients,
            ctx.as_ref(),
        )?;
        let share_of: BTreeMap<u64, f64> = live.iter().copied().zip(shares).collect();

        let started = Instant::now();
        let mut tasks: Vec<BatchTask> = Vec::with_capacity(ready.len());
        for id in ready {
            let session = self.sessions.get_mut(&id).expect("ready session is live");
            let trace = session
                .pop_trace()
                .expect("ready session has a queued trace");
            tasks.push(BatchTask {
                id,
                arch: session.arch(),
                label: format!("{} segment {}", session.label(), session.segments_done()),
                trace,
                share: share_of[&id],
                resume: session.resume().cloned(),
                segment: session.segments_done(),
            });
        }

        let base_config = self.options.config.clone();
        let policy = self.options.policy;
        let run_one = |task: &BatchTask| -> Result<(TransientOutcome, ResumeState, f64)> {
            let _span = obs::lane_span("serve.decision", task.id as u32);
            obs::add("serve.decisions", 1);
            let arch = task.arch.architecture();
            let t0 = Instant::now();
            let (outcome, resume) = run_stack_segment(
                &arch,
                &base_config,
                task.share,
                policy,
                &task.trace,
                task.resume.clone(),
                &SegmentFaults::default(),
            )?;
            Ok((outcome, resume, t0.elapsed().as_secs_f64()))
        };
        let task_label = |task: &BatchTask| task.label.clone();
        let results = parallel_map(&tasks, self.options.workers, task_label, run_one);

        let mut decisions = Vec::with_capacity(tasks.len());
        let mut events = Vec::new();
        let mut departed = false;
        for (task, result) in tasks.into_iter().zip(results) {
            match result {
                Ok((outcome, resume, latency_seconds)) => {
                    let duration = task.trace.total_duration_seconds();
                    let (min_width_um, max_width_um) = width_band_um(&resume);
                    let epochs = outcome.epochs.len();
                    let evaluations = outcome.total_evaluations();
                    let degraded = outcome.degraded.len();
                    let gradient_k = outcome.peak_gradient_k();
                    // The served segment's closing power: the denominator
                    // of the session's next forecast ratio.
                    let power_w = task
                        .trace
                        .phases()
                        .last()
                        .map_or(0.0, |p| p.load.total_power().as_watts());
                    for run_event in &outcome.degraded {
                        let mut event = run_event.clone();
                        event.segment = Some(task.segment);
                        event.stack = Some(task.id as usize);
                        events.push(event);
                    }
                    let session = self.sessions.get_mut(&task.id).expect("session is live");
                    let decision = WidthDecision {
                        session_id: task.id,
                        arch: session.arch(),
                        segment: task.segment,
                        time_seconds: session.clock_seconds() + duration,
                        flow_scale: task.share,
                        peak_gradient_k: outcome.peak_gradient_k(),
                        peak_temperature_k: outcome.peak_temperature_k(),
                        min_width_um,
                        max_width_um,
                        epochs_adopted: outcome.epochs_adopted(),
                        evaluations,
                        outcome,
                    };
                    session.apply_decision(resume, duration);
                    if self.options.budget_policy == BudgetPolicy::Predictive {
                        session.observe_prediction(task.share, gradient_k, power_w);
                    }
                    self.metrics.latency.record(latency_seconds);
                    self.metrics.decisions += 1;
                    self.metrics.epochs += epochs as u64;
                    self.metrics.evaluations += evaluations as u64;
                    self.metrics.degraded_events += degraded as u64;
                    decisions.push(decision);
                }
                Err(error) => {
                    let clock = self
                        .sessions
                        .get(&task.id)
                        .map_or(0.0, ServeSession::clock_seconds);
                    self.sessions.remove(&task.id);
                    self.metrics.sessions_failed += 1;
                    self.metrics.degraded_events += 1;
                    let event = DegradedEvent {
                        kind: DegradedKind::SessionEvicted,
                        segment: Some(task.segment),
                        stack: Some(task.id as usize),
                        time_seconds: clock,
                        detail: format!("segment run failed, session evicted: {error}"),
                    };
                    obs::event(event.kind.label(), event.detail.clone());
                    events.push(event);
                    departed = true;
                }
            }
        }
        if departed {
            self.revalidate_budget()?;
        }
        self.metrics.batches += 1;
        self.events.extend(events.iter().cloned());
        Ok(ServeBatch {
            index,
            decisions,
            events,
            wall_seconds: started.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transient::ModulationPolicy;

    fn tiny_options() -> ServeOptions {
        let mut config = MpsocConfig::fast();
        config.nz = 11;
        config.n_groups = 2;
        ServeOptions {
            config,
            policy: ModulationPolicy::every(8),
            budget_policy: BudgetPolicy::Uniform,
            avg_scale: 1.0,
            planned_capacity: 4,
            workers: 1,
        }
    }

    #[test]
    fn invalid_options_are_rejected() {
        let mut o = tiny_options();
        o.planned_capacity = 0;
        assert!(ServePool::new(o).is_err());
        let mut o = tiny_options();
        o.avg_scale = -1.0;
        assert!(ServePool::new(o).is_err());
    }

    #[test]
    fn lifecycle_errors_are_typed() {
        let mut pool = ServePool::new(tiny_options()).unwrap();
        assert!(pool.close(0).is_err());
        assert!(pool.snapshot(0).is_err());
        assert!(pool.queue_depth(0).is_err());
        assert!(pool.submit_level(0, PowerLevel::Average, 0.032).is_err());
        let id = pool.open(ArchSpec::Arch1).unwrap();
        assert!(pool.submit_level(id, PowerLevel::Average, -1.0).is_err());
        let snap = pool.snapshot(id).unwrap();
        assert!(pool.restore(&snap).is_err(), "id still live");
    }

    #[test]
    fn undersubscribed_pool_clamps_the_budget_and_degrades() {
        // Provisioned for 4 sessions; one live session can draw at most
        // 1.5× average — less than the 4× total — so validate_at fails
        // high-side and the band must relax.
        let mut pool = ServePool::new(tiny_options()).unwrap();
        let id = pool.open(ArchSpec::Arch1).unwrap();
        assert_eq!(pool.len(), 1);
        assert!(!pool.events().is_empty(), "clamp must be surfaced");
        assert!(pool
            .events()
            .iter()
            .all(|e| e.kind == DegradedKind::BudgetClamped));
        assert!(pool.effective_budget().max_scale >= 4.0);
        assert_eq!(pool.metrics().degraded_events, pool.events().len() as u64);
        // Closing the only session restores the provisioned band.
        pool.close(id).unwrap();
        assert_eq!(pool.effective_budget(), pool.budget());
    }

    #[test]
    fn fully_subscribed_pool_keeps_the_provisioned_band() {
        let mut pool = ServePool::new(tiny_options()).unwrap();
        for _ in 0..4 {
            pool.open(ArchSpec::Arch2).unwrap();
        }
        // 4 live sessions match the provisioned capacity: feasible, and the
        // only degraded events are the clamps from the under-subscribed
        // arrivals along the way (1..3 live).
        assert_eq!(pool.effective_budget(), pool.budget());
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn draining_an_idle_pool_is_a_no_op() {
        let mut pool = ServePool::new(tiny_options()).unwrap();
        pool.open(ArchSpec::Arch3).unwrap();
        let batch = pool.drain_batch().unwrap();
        assert!(batch.decisions.is_empty());
        assert!(batch.events.is_empty());
        assert_eq!(pool.metrics().batches, 0, "empty drains do not count");
    }

    #[test]
    fn submitted_traces_must_match_the_pool_grid() {
        let mut pool = ServePool::new(tiny_options()).unwrap();
        let id = pool.open(ArchSpec::Arch1).unwrap();
        // A trace rasterized at the wrong resolution is rejected on submit,
        // not at run time.
        let wrong = arch_trace(
            &ArchSpec::Arch1.architecture(),
            &[PowerLevel::Average],
            0.032,
            50,
            11,
        );
        assert!(pool.submit(id, wrong).is_err());
        assert_eq!(pool.queue_depth(id).unwrap(), 0);
        pool.submit_level(id, PowerLevel::Average, 0.032).unwrap();
        assert_eq!(pool.queue_depth(id).unwrap(), 1);
        assert_eq!(pool.pending_total(), 1);
    }

    #[test]
    fn restore_resumes_ids_past_the_snapshot() {
        let mut pool = ServePool::new(tiny_options()).unwrap();
        let id = pool.open(ArchSpec::Arch2).unwrap();
        let snap = pool.close(id).unwrap();
        let mut other = ServePool::new(tiny_options()).unwrap();
        let restored = other.restore(&snap).unwrap();
        assert_eq!(restored, id);
        // Fresh opens after a restore never collide with the restored id.
        let fresh = other.open(ArchSpec::Arch1).unwrap();
        assert!(fresh > restored);
    }
}
