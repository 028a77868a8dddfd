//! Performance of the analytical-model BVP solve — the inner loop of the
//! whole design flow (every optimizer cost evaluation is one of these).
//! Sweeps mesh resolution and channel-column count, and times the reduced
//! MPSoC models the modulation epochs solve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use liquamod::mpsoc::{ArchSpec, MpsocConfig, MpsocLoad, MpsocModulated};
use liquamod::prelude::*;

fn strip(params: &ModelParams, n_cols: usize) -> Model {
    let cols: Vec<ChannelColumn> = (0..n_cols)
        .map(|i| {
            ChannelColumn::new(WidthProfile::uniform(params.w_max))
                .with_heat_top(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(
                    40.0 + 10.0 * i as f64,
                )))
                .with_heat_bottom(HeatProfile::uniform(LinearHeatFlux::from_w_per_m(50.0)))
        })
        .collect();
    Model::new(params.clone(), Length::from_centimeters(1.0), cols).expect("model builds")
}

fn bench_mesh(c: &mut Criterion) {
    let params = ModelParams::date2012();
    let model = strip(&params, 1);
    let mut group = c.benchmark_group("bvp_solve/mesh");
    for mesh in [64usize, 128, 256, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(mesh), &mesh, |b, &mesh| {
            let opts = SolveOptions::with_mesh_intervals(mesh);
            b.iter(|| model.solve(&opts).expect("solves"));
        });
    }
    group.finish();
}

fn bench_columns(c: &mut Criterion) {
    let params = ModelParams::date2012();
    let mut group = c.benchmark_group("bvp_solve/columns");
    group.sample_size(10);
    for n_cols in [1usize, 2, 5, 10] {
        let model = strip(&params, n_cols);
        group.bench_with_input(BenchmarkId::from_parameter(n_cols), &n_cols, |b, _| {
            let opts = SolveOptions::with_mesh_intervals(128);
            b.iter(|| model.solve(&opts).expect("solves"));
        });
    }
    group.finish();
}

/// The two-cavity reduced models of the coarse MPSoC stack (11 cells
/// along the flow, so the heat profiles are piecewise) at 2 and 4 width
/// groups per cavity, i.e. 4 and 8 BVP columns, on the 48-interval mesh of
/// `MpsocConfig::fast`: the shapes every modulation epoch solves, and the
/// ones `perfbench` reports as `thermal_model.bvp_solve_ms.{4col,8col}`.
fn bench_reduced(c: &mut Criterion) {
    let arch = ArchSpec::Arch1.architecture();
    let mut group = c.benchmark_group("bvp_solve/reduced");
    group.sample_size(100);
    for n_groups in [2usize, 4] {
        let mut config = MpsocConfig::fast();
        config.nz = 11;
        config.n_groups = n_groups;
        let load = MpsocLoad::from_arch(&arch, PowerLevel::Peak, config.nx, config.nz);
        let model = MpsocModulated::for_arch(&arch, config.clone())
            .and_then(|family| family.reduced_model(&load))
            .expect("reduced model builds");
        let opts = SolveOptions::with_mesh_intervals(config.optimizer.mesh_intervals);
        let id = BenchmarkId::from_parameter(format!("{}col", 2 * n_groups));
        group.bench_with_input(id, &model, |b, model| {
            let mut ws = SolveWorkspace::new();
            b.iter(|| model.solve_with(&opts, &mut ws).expect("solves"));
        });
    }
    group.finish();
}

fn bench_pressure(c: &mut Criterion) {
    let params = ModelParams::date2012();
    let model = strip(&params, 1);
    let taper = WidthProfile::piecewise_constant(
        (0..16)
            .map(|k| Length::from_micrometers(50.0 - 2.0 * k as f64))
            .collect(),
    );
    c.bench_function("pressure_drop/piecewise16", |b| {
        b.iter(|| model.column_pressure_drop(&taper).expect("pressure"));
    });
}

criterion_group!(
    benches,
    bench_mesh,
    bench_columns,
    bench_reduced,
    bench_pressure
);
criterion_main!(benches);
