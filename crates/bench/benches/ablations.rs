//! Ablation benches for the modeling choices: Nusselt correlation, friction
//! model and objective form. Each ablation runs the fast Test-A design flow
//! under one variation and reports wall time; the direction each choice
//! moves the results is asserted in `tests/integration_ablations.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use liquamod::microfluidics::{friction::FrictionModel, nusselt::NusseltCorrelation};
use liquamod::prelude::*;

fn tiny() -> OptimizationConfig {
    OptimizationConfig {
        segments: 4,
        mesh_intervals: 48,
        ..OptimizationConfig::fast()
    }
}

fn bench_nusselt(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/nusselt");
    group.sample_size(10);
    for (name, correlation, developing) in [
        ("H1", NusseltCorrelation::ShahLondonH1, false),
        ("T", NusseltCorrelation::ShahLondonT, false),
        ("H1_developing", NusseltCorrelation::ShahLondonH1, true),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            let mut params = ModelParams::date2012();
            params.nusselt = correlation;
            params.developing_flow = developing;
            let config = tiny();
            b.iter(|| experiments::test_a(&params, &config).expect("runs"));
        });
    }
    group.finish();
}

fn bench_friction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/friction");
    group.sample_size(10);
    for (name, model) in [
        ("laminar64", FrictionModel::LaminarCircular),
        ("shah_london", FrictionModel::ShahLondonRect),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            let mut params = ModelParams::date2012();
            params.friction = model;
            let config = tiny();
            b.iter(|| experiments::test_a(&params, &config).expect("runs"));
        });
    }
    group.finish();
}

fn bench_objective(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/objective");
    group.sample_size(10);
    for (name, objective) in [
        ("gradient_sq", ObjectiveKind::GradientSquared),
        ("heatflow_sq", ObjectiveKind::HeatflowSquared),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            let params = ModelParams::date2012();
            let config = OptimizationConfig {
                objective,
                ..tiny()
            };
            b.iter(|| experiments::test_a(&params, &config).expect("runs"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_nusselt, bench_friction, bench_objective);
criterion_main!(benches);
