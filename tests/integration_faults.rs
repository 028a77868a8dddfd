//! End-to-end tests of the fault-injection layer: random seeded
//! [`FaultSchedule`]s driven through the faulted fleet loop (proptest)
//! never panic, every segment's allocation sums to the *decayed* pump
//! budget with each share inside the (possibly relaxed) valve band, and
//! silicon never reads below the coolant inlet no matter which fault
//! combination is active.

use liquamod::faults::{run_faulted_fleet, FaultEvent, FaultSchedule};
use liquamod::fleet::{FleetOptions, FleetOutcome, StackSpec};
use liquamod::mpsoc::{ArchSpec, MpsocConfig, MpsocTraceSpec};
use liquamod::transient::EpochPolicy;
use liquamod::{ExecutionMode, OptimizationConfig};
use proptest::prelude::*;

/// A small-but-real two-stack fleet: the aligned-hotspot Arch. 1 die next
/// to the all-cache Arch. 3 die, both through the average→peak burst.
fn two_stacks() -> Vec<StackSpec> {
    vec![
        StackSpec {
            arch: ArchSpec::Arch1,
            trace: MpsocTraceSpec::avg_to_peak(),
        },
        StackSpec {
            arch: ArchSpec::Arch3,
            trace: MpsocTraceSpec::avg_to_peak(),
        },
    ]
}

/// Two 12 ms phases cut into one reallocation segment each — the smallest
/// clocking that still exercises the feedback/reallocation boundary.
fn tiny_options() -> FleetOptions {
    let config = MpsocConfig {
        optimizer: OptimizationConfig {
            segments: 2,
            mesh_intervals: 32,
            ..OptimizationConfig::fast()
        },
        nx: 20,
        nz: 11,
        n_groups: 2,
        ..MpsocConfig::fast()
    };
    FleetOptions {
        policy: EpochPolicy::FixedCadence { epoch_steps: 6 },
        phase_seconds: 6.0 * config.dt_seconds,
        segments_per_phase: 1,
        config,
        ..FleetOptions::fast(2, ExecutionMode::Serial)
    }
}

/// Checks the budget-conservation and band invariants on one outcome.
///
/// Segment `seg` allocates at the schedule's decayed budget
/// `total × pump_factor(t_mid)`; aware runs must also keep every share
/// inside the valve band — relaxed to admit the uniform share when the
/// decay leaves the nominal band infeasible — while the oblivious
/// baseline's static provisioning is exactly the rescaled uniform share.
fn assert_budget_invariants(
    outcome: &FleetOutcome,
    aware: bool,
    options: &FleetOptions,
    schedule: &FaultSchedule,
) {
    let n = outcome.allocations[0].len() as f64;
    let seg_seconds = options.phase_seconds / options.segments_per_phase as f64;
    for (seg, alloc) in outcome.allocations.iter().enumerate() {
        let factor = schedule.pump_factor((seg as f64 + 0.5) * seg_seconds);
        let decayed_total = options.budget.total_scale * factor;
        let sum: f64 = alloc.iter().sum();
        assert!(
            (sum - decayed_total).abs() < 1e-9,
            "segment {seg}: allocation sum {sum} vs decayed budget {decayed_total}"
        );
        let share = decayed_total / n;
        let (lo, hi) = if aware {
            (
                options.budget.min_scale.min(share),
                options.budget.max_scale.max(share),
            )
        } else {
            (share, share)
        };
        for &s in alloc {
            assert!(
                s >= lo - 1e-12 && s <= hi + 1e-12,
                "segment {seg}: share {s} outside [{lo}, {hi}] (aware = {aware})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random seeded schedules — any mix of pump ramps, stuck valves,
    /// inlet excursions, noise and dropouts — drive both the aware
    /// controller and the oblivious baseline to completion without
    /// panicking, conserving the decayed budget on every segment.
    #[test]
    fn random_fault_schedules_degrade_gracefully(seed in 0usize..1_000_000) {
        let stacks = two_stacks();
        let options = tiny_options();
        let horizon = 2.0 * options.phase_seconds;
        let schedule = FaultSchedule::random(seed as u64, horizon, stacks.len());
        schedule.validate(stacks.len()).unwrap();
        for aware in [true, false] {
            let outcome = run_faulted_fleet(&stacks, &options, &schedule, aware).unwrap();
            prop_assert_eq!(outcome.allocations.len(), 2);
            assert_budget_invariants(&outcome, aware, &options, &schedule);
            prop_assert!(outcome.worst_stack_peak_gradient_k().is_finite());
        }
    }

    /// The physical floor: under a deliberately stacked worst case — deep
    /// pump decay, a stuck valve, a fleet-wide hot-inlet excursion and
    /// noisy/dropped feedback all at once — silicon never reads below the
    /// *nominal* coolant inlet (hot excursions only push it further up).
    #[test]
    fn silicon_stays_above_inlet_under_combined_faults(
        final_factor in 0.45f64..1.0,
        delta_k in 0.0f64..10.0,
    ) {
        let stacks = two_stacks();
        let options = tiny_options();
        let horizon = 2.0 * options.phase_seconds;
        let inlet_k = options.config.params.inlet_temperature.as_kelvin();
        let schedule = FaultSchedule {
            seed: 11,
            events: vec![
                FaultEvent::PumpRamp {
                    start_seconds: 0.0,
                    end_seconds: 0.5 * horizon,
                    final_factor,
                },
                FaultEvent::StuckValve { stack: 0, from_seconds: 0.25 * horizon },
                FaultEvent::InletExcursion {
                    stack: None,
                    start_seconds: 0.0,
                    end_seconds: 0.6 * horizon,
                    delta_k,
                },
                FaultEvent::FeedbackNoise { amplitude_k: 0.2 },
                FaultEvent::FeedbackDropout {
                    stack: 1,
                    start_seconds: 0.4 * horizon,
                    end_seconds: horizon,
                },
            ],
        };
        schedule.validate(stacks.len()).unwrap();
        for aware in [true, false] {
            let outcome = run_faulted_fleet(&stacks, &options, &schedule, aware).unwrap();
            for stack in &outcome.stacks {
                for seg in &stack.segments {
                    prop_assert!(
                        seg.peak_temperature_k >= inlet_k - 1e-9,
                        "aware {}: {} K below the {} K inlet",
                        aware,
                        seg.peak_temperature_k,
                        inlet_k
                    );
                    prop_assert!(seg.peak_gradient_k.is_finite());
                }
            }
            assert_budget_invariants(&outcome, aware, &options, &schedule);
        }
    }
}
