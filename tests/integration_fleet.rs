//! End-to-end tests of the shared-pump fleet sharding layer: allocation
//! invariants under random budgets and random/adversarial predictive
//! contexts (proptest), the waterfill-beats-uniform acceptance on a
//! heterogeneous fleet, the differential degradations pinning
//! `Predictive` as a strict generalization of `GradientWaterfill`,
//! bitwise determinism of the fleet sweep and of the stateful predictive
//! lane across worker counts, and the segmented-resume identity that the
//! fleet's reallocation machinery rests on.

use liquamod::fleet::{
    allocate, allocate_with, run_fleet, run_fleet_sweep, BudgetPolicy, FleetGrid, FleetOptions,
    FleetSweepOptions, PredictiveContext, PumpBudget, StackSpec, StackSurrogate, SurrogateModel,
};
use liquamod::floorplan::{testcase, trace, PowerLevel};
use liquamod::mpsoc::{ArchSpec, MpsocConfig, MpsocTraceSpec};
use liquamod::transient::{
    EpochPolicy, ModulationController, ModulationPolicy, TransientConfig, TransientOutcome,
};
use liquamod::{ExecutionMode, OptimizationConfig, SegmentFaults};
use proptest::prelude::*;
use std::num::NonZeroUsize;

/// A small-but-real per-stack configuration: 20 channel columns in 2
/// groups, 11 cells along the flow, 2-segment control profiles.
fn small_config() -> MpsocConfig {
    MpsocConfig {
        optimizer: OptimizationConfig {
            segments: 2,
            mesh_intervals: 32,
            ..OptimizationConfig::fast()
        },
        nx: 20,
        nz: 11,
        n_groups: 2,
        ..MpsocConfig::fast()
    }
}

fn small_sweep_options(mode: ExecutionMode) -> FleetSweepOptions {
    let config = small_config();
    FleetSweepOptions {
        policy: EpochPolicy::FixedCadence { epoch_steps: 6 },
        phase_seconds: 12.0 * config.dt_seconds,
        segments_per_phase: 2,
        config,
        mode,
    }
}

fn heterogeneous_fleet() -> Vec<StackSpec> {
    // Aligned hotspots (hottest), staggered hotspots, and the all-cache die
    // (coolest): enough spread that the allocator has something to exploit.
    ArchSpec::all()
        .into_iter()
        .map(|arch| StackSpec {
            arch,
            trace: MpsocTraceSpec::avg_to_peak(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every policy's allocation sums to the pump budget (1e-9) with every
    /// share non-negative and inside the valve band, for random fleet
    /// sizes, gradients and per-stack provisioning.
    #[test]
    fn allocations_sum_to_the_pump_budget(
        gradients in proptest::collection::vec(0.0f64..120.0, 1..9),
        avg_scale in 0.3f64..2.0,
    ) {
        let budget = PumpBudget::per_stack(avg_scale, gradients.len());
        for policy in BudgetPolicy::all() {
            let alloc = allocate(policy, &budget, &gradients).unwrap();
            prop_assert_eq!(alloc.len(), gradients.len());
            let sum: f64 = alloc.iter().sum();
            prop_assert!(
                (sum - budget.total_scale).abs() < 1e-9,
                "{policy:?}: sum {sum} vs budget {}", budget.total_scale
            );
            for &share in &alloc {
                prop_assert!(share >= 0.0, "{policy:?}: negative share {share}");
                prop_assert!(
                    share >= budget.min_scale - 1e-12 && share <= budget.max_scale + 1e-12,
                    "{policy:?}: share {share} outside [{}, {}]",
                    budget.min_scale,
                    budget.max_scale
                );
            }
        }
    }

    /// The invariants hold for arbitrary feasible valve bands too — not
    /// just the `per_stack` defaults — including budgets pinned at the
    /// band's edges and gradient vectors with idle (zero) stacks.
    #[test]
    fn allocations_respect_arbitrary_feasible_budgets(
        gradients in proptest::collection::vec(0.0f64..60.0, 2..7),
        min_scale in 0.1f64..0.6,
        headroom in 0.0f64..1.5,
        fill in 0.0f64..1.0,
    ) {
        let n = gradients.len() as f64;
        let budget = PumpBudget {
            total_scale: n * (min_scale + fill * headroom),
            min_scale,
            max_scale: min_scale + headroom,
        };
        for policy in BudgetPolicy::all() {
            let alloc = allocate(policy, &budget, &gradients).unwrap();
            let sum: f64 = alloc.iter().sum();
            prop_assert!(
                (sum - budget.total_scale).abs() < 1e-9,
                "{policy:?}: sum {sum} vs budget {} ({alloc:?})", budget.total_scale
            );
            for &share in &alloc {
                prop_assert!(
                    share >= budget.min_scale - 1e-12 && share <= budget.max_scale + 1e-12,
                    "{policy:?}: share {share} outside band ({alloc:?})"
                );
            }
        }
    }

    /// The predictive allocator keeps the budget invariants under a *live*
    /// context: random forecast ratios and a surrogate fitted with random
    /// (but finite) slopes — the one-step-MPC correction can steer the
    /// split, never break it.
    #[test]
    fn predictive_allocations_respect_the_budget_under_random_contexts(
        n in 1usize..8,
        gradients_raw in proptest::collection::vec(0.0f64..120.0, 8..9),
        last_shares_raw in proptest::collection::vec(0.2f64..2.0, 8..9),
        ratios_raw in proptest::collection::vec(0.5f64..2.0, 8..9),
        slopes_raw in proptest::collection::vec(-500.0f64..500.0, 8..9),
        avg_scale in 0.3f64..2.0,
    ) {
        let gradients = &gradients_raw[..n];
        let last_shares = &last_shares_raw[..n];
        let ratios = &ratios_raw[..n];
        let surrogate = SurrogateModel::from_stacks(
            (0..n)
                .map(|i| StackSurrogate {
                    slope_k_per_scale: slopes_raw[i],
                    last_share: last_shares_raw[i],
                    last_gradient_k: gradients_raw[i],
                    observed: true,
                })
                .collect(),
        );
        let budget = PumpBudget::per_stack(avg_scale, n);
        let ctx = PredictiveContext {
            last_shares,
            forecast_ratio: Some(ratios),
            surrogate: &surrogate,
        };
        let alloc =
            allocate_with(BudgetPolicy::Predictive, &budget, gradients, Some(&ctx)).unwrap();
        let sum: f64 = alloc.iter().sum();
        prop_assert!((sum - budget.total_scale).abs() < 1e-9, "sum {sum} ({alloc:?})");
        for &share in &alloc {
            prop_assert!(share.is_finite(), "non-finite share ({alloc:?})");
            prop_assert!(
                share >= budget.min_scale - 1e-12 && share <= budget.max_scale + 1e-12,
                "share {share} outside band ({alloc:?})"
            );
        }
    }

    /// Adversarial contexts — NaN/infinite/negative forecast ratios, huge
    /// or non-finite surrogate slopes, garbage base shares, mis-sized
    /// slices — are sanitized away: the predictive allocator never panics,
    /// never errors, and still lands inside the budget.
    #[test]
    fn predictive_survives_adversarial_contexts(
        gradients in proptest::collection::vec(0.0f64..100.0, 2..6),
        ratio_sel in proptest::collection::vec(0usize..6, 1..9),
        slope_sel in proptest::collection::vec(0usize..4, 1..9),
        share_sel in proptest::collection::vec(0usize..4, 1..9),
        magnitude in 1e-30f64..1.0,
    ) {
        let ratio_raw: Vec<f64> = ratio_sel
            .iter()
            .map(|&s| match s {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -3.0,
                4 => 0.0,
                _ => magnitude * 1e30,
            })
            .collect();
        let slope_raw: Vec<f64> = slope_sel
            .iter()
            .map(|&s| match s {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => magnitude * 1e18,
            })
            .collect();
        let share_raw: Vec<f64> = share_sel
            .iter()
            .map(|&s| match s {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -magnitude * 10.0,
                _ => magnitude * 10.0,
            })
            .collect();
        let n = gradients.len();
        let surrogate = SurrogateModel::from_stacks(
            (0..slope_raw.len())
                .map(|i| StackSurrogate {
                    slope_k_per_scale: slope_raw[i],
                    last_share: share_raw.get(i).copied().unwrap_or(1.0),
                    last_gradient_k: gradients.get(i).copied().unwrap_or(0.0),
                    observed: true,
                })
                .collect(),
        );
        let budget = PumpBudget::per_stack(0.8, n);
        // Deliberately mis-sized slices: the allocator must resize/pad.
        let ctx = PredictiveContext {
            last_shares: &share_raw,
            forecast_ratio: Some(&ratio_raw),
            surrogate: &surrogate,
        };
        let alloc =
            allocate_with(BudgetPolicy::Predictive, &budget, &gradients, Some(&ctx)).unwrap();
        prop_assert_eq!(alloc.len(), n);
        let sum: f64 = alloc.iter().sum();
        prop_assert!((sum - budget.total_scale).abs() < 1e-9, "sum {sum} ({alloc:?})");
        for &share in &alloc {
            prop_assert!(share.is_finite(), "non-finite share ({alloc:?})");
            prop_assert!(
                share >= budget.min_scale - 1e-12 && share <= budget.max_scale + 1e-12,
                "share {share} outside band ({alloc:?})"
            );
        }
    }

    /// The recursive surrogate never panics on degenerate feedback
    /// histories — repeated identical shares (zero secant denominator),
    /// NaN/infinite gradients, wild share jumps — and its effective slope
    /// always stays finite and inside the clamp.
    #[test]
    fn surrogate_refit_never_panics_on_degenerate_history(
        share_raw in proptest::collection::vec(0.0f64..3.0, 24..25),
        gradient_raw in proptest::collection::vec(-50.0f64..150.0, 24..25),
        sel in proptest::collection::vec(0usize..6, 24..25),
        len in 0usize..25,
    ) {
        let mut surrogate = StackSurrogate::default();
        for i in 0..len {
            // Degenerate cases interleaved with plain ones: repeated
            // identical shares, NaN shares, NaN/infinite gradients.
            let share = match sel[i] {
                0 | 1 => 1.0,
                2 => f64::NAN,
                _ => share_raw[i],
            };
            let gradient_k = match sel[i] {
                3 => f64::NAN,
                4 => f64::INFINITY,
                _ => gradient_raw[i],
            };
            surrogate.observe(share, gradient_k);
            let slope = surrogate.effective_slope_k_per_scale();
            prop_assert!(slope.is_finite(), "slope {slope} after ({share}, {gradient_k})");
            prop_assert!(slope.abs() <= 1e4 + 1e-9, "slope {slope} escaped the clamp");
        }
    }

    /// Differential degradation, half one: with zero lookahead (no ratios)
    /// and a flat surrogate, `Predictive` IS `GradientWaterfill` —
    /// bitwise, for arbitrary gradients, budgets and base shares.
    #[test]
    fn predictive_with_flat_context_is_waterfill_bitwise(
        gradients in proptest::collection::vec(0.0f64..120.0, 1..8),
        avg_scale in 0.3f64..2.0,
        last_share in 0.2f64..2.0,
    ) {
        let budget = PumpBudget::per_stack(avg_scale, gradients.len());
        let last_shares = vec![last_share; gradients.len()];
        let uninformative = vec![1.0; gradients.len()];
        let flat = SurrogateModel::new(gradients.len());
        let waterfill = allocate(BudgetPolicy::GradientWaterfill, &budget, &gradients).unwrap();
        for forecast_ratio in [None, Some(uninformative.as_slice())] {
            let ctx = PredictiveContext {
                last_shares: &last_shares,
                forecast_ratio,
                surrogate: &flat,
            };
            let predictive =
                allocate_with(BudgetPolicy::Predictive, &budget, &gradients, Some(&ctx)).unwrap();
            prop_assert_eq!(predictive.len(), waterfill.len());
            for (p, w) in predictive.iter().zip(&waterfill) {
                prop_assert_eq!(p.to_bits(), w.to_bits(), "{:?} vs {:?}", &predictive, &waterfill);
            }
        }
    }
}

/// The fleet acceptance test at test scale: on a heterogeneous fleet
/// under an under-provisioned shared pump, gradient water-filling strictly
/// beats the uniform split on the worst stack's time-peak gradient, and
/// the allocator visibly steers flow toward the hotter stacks.
#[test]
fn waterfill_beats_uniform_on_a_heterogeneous_fleet() {
    let stacks = heterogeneous_fleet();
    let config = small_config();
    let run = |allocation: BudgetPolicy| {
        run_fleet(
            &stacks,
            &FleetOptions {
                config: config.clone(),
                policy: EpochPolicy::FixedCadence { epoch_steps: 6 },
                allocation,
                budget: PumpBudget::per_stack(0.85, stacks.len()),
                phase_seconds: 12.0 * config.dt_seconds,
                segments_per_phase: 2,
                mode: ExecutionMode::Serial,
            },
        )
        .unwrap()
    };
    let uniform = run(BudgetPolicy::Uniform);
    let waterfill = run(BudgetPolicy::GradientWaterfill);
    assert!(
        waterfill.worst_stack_peak_gradient_k() < uniform.worst_stack_peak_gradient_k(),
        "waterfill {} K must undercut uniform {} K",
        waterfill.worst_stack_peak_gradient_k(),
        uniform.worst_stack_peak_gradient_k()
    );
    // Under uniform allocation every segment splits the budget evenly…
    let share = 0.85;
    for alloc in &uniform.allocations {
        assert!(alloc.iter().all(|&s| (s - share).abs() < 1e-12));
    }
    // …while waterfill's post-measurement segments give the aligned-hotspot
    // arch1 more flow than the all-cache arch3.
    let last = waterfill.allocations.last().unwrap();
    assert!(last[0] > last[2], "allocations {last:?}");
    // Budget conservation end to end, on every segment's decision.
    for alloc in &waterfill.allocations {
        let sum: f64 = alloc.iter().sum();
        assert!((sum - 0.85 * 3.0).abs() < 1e-9, "{alloc:?}");
    }
}

/// Fleet sweeps are bitwise deterministic across execution modes and
/// worker counts — the allocator runs between segments on the calling
/// thread, and each stack segment is a pure function, so the schedule
/// cannot leak into the rows.
#[test]
fn fleet_sweep_parallel_matches_serial_bitwise() {
    let grid = FleetGrid {
        stacks: heterogeneous_fleet(),
        budget_scales: vec![0.9],
    };
    let serial = run_fleet_sweep(&grid, &small_sweep_options(ExecutionMode::Serial)).unwrap();
    assert_eq!(serial.rows.len(), 1);
    assert_eq!(serial.workers, 1);
    for workers in [2usize, 3] {
        let parallel = run_fleet_sweep(
            &grid,
            &small_sweep_options(ExecutionMode::Parallel {
                workers: NonZeroUsize::new(workers),
            }),
        )
        .unwrap();
        // PartialEq on FleetRow compares every f64 exactly.
        assert_eq!(serial.rows, parallel.rows, "workers = {workers}");
        assert_eq!(parallel.workers, workers.min(grid.stacks.len()));
    }
    let row = &serial.rows[0];
    assert_eq!(row.variant.label(), "fleet3 B*0.90");
    assert!(row.worst_gradient_uniform_k.is_finite());
    assert_eq!(row.waterfill_final_allocation.len(), 3);
    assert!(row.evaluations > 0);
}

/// Differential degradation, half two: on a constant (phase-free) trace
/// there is nothing to forecast — every inter-segment power ratio is
/// exactly 1.0 and the first boundary's surrogate is still flat — so the
/// predictive fleet must match the water-filling fleet within 1e-12 end to
/// end: every allocation decision and every segment's measured physics.
#[test]
fn predictive_on_a_constant_trace_matches_waterfill() {
    let constant = MpsocTraceSpec::LevelSteps {
        levels: vec![PowerLevel::Average],
    };
    let stacks: Vec<StackSpec> = ArchSpec::all()
        .into_iter()
        .map(|arch| StackSpec {
            arch,
            trace: constant.clone(),
        })
        .collect();
    let config = small_config();
    let run = |allocation: BudgetPolicy| {
        run_fleet(
            &stacks,
            &FleetOptions {
                config: config.clone(),
                policy: EpochPolicy::FixedCadence { epoch_steps: 6 },
                allocation,
                budget: PumpBudget::per_stack(0.85, stacks.len()),
                phase_seconds: 12.0 * config.dt_seconds,
                segments_per_phase: 2,
                mode: ExecutionMode::Serial,
            },
        )
        .unwrap()
    };
    let waterfill = run(BudgetPolicy::GradientWaterfill);
    let predictive = run(BudgetPolicy::Predictive);
    assert_eq!(predictive.allocations.len(), waterfill.allocations.len());
    for (p, w) in predictive.allocations.iter().zip(&waterfill.allocations) {
        for (ps, ws) in p.iter().zip(w) {
            assert!((ps - ws).abs() <= 1e-12, "allocations {p:?} vs {w:?}");
        }
    }
    for (ps, ws) in predictive.stacks.iter().zip(&waterfill.stacks) {
        for (pm, wm) in ps.segments.iter().zip(&ws.segments) {
            assert!(
                (pm.peak_gradient_k - wm.peak_gradient_k).abs() <= 1e-12,
                "gradient {} vs {}",
                pm.peak_gradient_k,
                wm.peak_gradient_k
            );
            assert!(
                (pm.peak_temperature_k - wm.peak_temperature_k).abs() <= 1e-12,
                "temperature {} vs {}",
                pm.peak_temperature_k,
                wm.peak_temperature_k
            );
        }
    }
    // The predictive lane still ran its machinery — it carries diagnostics
    // (with no informative forecast on a constant trace), the waterfill
    // lane does not.
    let diag = predictive.predictive.expect("predictive diagnostics");
    assert_eq!(diag.forecast_hits, 0, "constant trace cannot forecast");
    assert!(diag.surrogate_refits > 0, "feedback must still refit");
    assert!(waterfill.predictive.is_none());
}

/// The predictive lane's surrogate state lives on the calling thread and
/// is updated only between wavefronts, so the one *stateful* policy is
/// still bitwise deterministic across 1/2/4 workers.
#[test]
fn predictive_fleet_is_bitwise_deterministic_across_worker_counts() {
    let stacks: Vec<StackSpec> = ArchSpec::all()
        .into_iter()
        .enumerate()
        .map(|(i, arch)| StackSpec {
            arch,
            trace: MpsocTraceSpec::migrating_peak(i, 3),
        })
        .collect();
    let config = small_config();
    let run = |mode: ExecutionMode| {
        run_fleet(
            &stacks,
            &FleetOptions {
                config: config.clone(),
                policy: EpochPolicy::FixedCadence { epoch_steps: 6 },
                allocation: BudgetPolicy::Predictive,
                budget: PumpBudget::per_stack(0.9, stacks.len()),
                phase_seconds: 6.0 * config.dt_seconds,
                segments_per_phase: 1,
                mode,
            },
        )
        .unwrap()
    };
    let serial = run(ExecutionMode::Serial);
    // A migrating-peak fleet must actually exercise the predictive path.
    let diag = serial.predictive.expect("predictive diagnostics");
    assert!(diag.forecast_hits > 0, "no informative forecasts: {diag:?}");
    for workers in [2usize, 4] {
        let parallel = run(ExecutionMode::Parallel {
            workers: NonZeroUsize::new(workers),
        });
        // PartialEq on StackRun/SegmentMetrics compares every f64 exactly.
        assert_eq!(serial.stacks, parallel.stacks, "workers = {workers}");
        assert_eq!(
            serial.allocations, parallel.allocations,
            "workers = {workers}"
        );
        assert_eq!(
            serial.predictive, parallel.predictive,
            "workers = {workers}"
        );
    }
}

/// The identity the fleet's reallocation machinery rests on: chaining
/// `run_segment` over segments reproduces the one-shot `run` bitwise when
/// the segments align with the epoch cadence and nothing else changes
/// between them.
#[test]
fn segmented_resume_matches_one_shot_run_bitwise() {
    let config = TransientConfig {
        optimizer: OptimizationConfig {
            segments: 2,
            mesh_intervals: 32,
            ..OptimizationConfig::fast()
        },
        nz: 20,
        ..TransientConfig::fast()
    };
    let dt = config.dt_seconds;
    let controller = ModulationController::new(config, ModulationPolicy::every(4)).unwrap();
    // Two 8-step phases; 4-step segments align with the epoch cadence, so
    // the one-shot run fires epochs at exactly the segment boundaries.
    let trace = trace::test_b_phases(testcase::TEST_B_DEFAULT_SEED, 2, 8.0 * dt);
    let one_shot = controller.run(&trace).unwrap();

    let segment = |phase: usize, k: usize| {
        trace::PowerTrace::new(vec![trace::Phase {
            label: format!("{}#{k}", trace.phases()[phase].label),
            duration_seconds: 4.0 * dt,
            load: trace.phases()[phase].load.clone(),
        }])
        .unwrap()
    };
    let mut resume = None;
    let mut outcomes: Vec<TransientOutcome> = Vec::new();
    for seg in 0..4 {
        let (outcome, next) = controller
            .run_segment(
                &segment(seg / 2, seg % 2),
                resume,
                &SegmentFaults::default(),
                None,
            )
            .unwrap();
        // The hand-over carries the segment's last measured gradient,
        // bitwise (the serve pool allocates the next batch on it).
        assert_eq!(
            next.last_gradient_k.to_bits(),
            outcome.snapshots.last().unwrap().gradient_k.to_bits(),
            "segment {seg}"
        );
        outcomes.push(outcome);
        resume = Some(next);
    }

    let stitched: Vec<_> = outcomes.iter().flat_map(|o| &o.snapshots).collect();
    assert_eq!(stitched.len(), one_shot.snapshots.len());
    for (a, b) in stitched.iter().zip(&one_shot.snapshots) {
        // Timestamps restart per segment by contract; every physical
        // channel must agree bitwise.
        assert_eq!(a.peak_k.to_bits(), b.peak_k.to_bits());
        assert_eq!(a.min_k.to_bits(), b.min_k.to_bits());
        assert_eq!(a.gradient_k.to_bits(), b.gradient_k.to_bits());
        assert_eq!(a.injected_w.to_bits(), b.injected_w.to_bits());
        assert_eq!(a.advected_w.to_bits(), b.advected_w.to_bits());
        assert_eq!(a.stored_joules.to_bits(), b.stored_joules.to_bits());
    }
    let stitched_epochs: Vec<_> = outcomes.iter().flat_map(|o| &o.epochs).collect();
    assert_eq!(stitched_epochs.len(), one_shot.epochs.len());
    for (a, b) in stitched_epochs.iter().zip(&one_shot.epochs) {
        assert_eq!(
            a.candidate_gradient_k.to_bits(),
            b.candidate_gradient_k.to_bits()
        );
        assert_eq!(
            a.incumbent_gradient_k.to_bits(),
            b.incumbent_gradient_k.to_bits()
        );
        assert_eq!(a.adopted, b.adopted);
        assert_eq!(a.widths_um, b.widths_um);
    }
}
