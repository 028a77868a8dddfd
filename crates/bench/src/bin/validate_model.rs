//! Model validation — the paper's §III states its analytical model "has
//! been validated against the numerical simulator 3D-ICE". This binary
//! plays that role with the in-repo finite-volume simulator: matched
//! structures are solved by both models and the temperature fields
//! compared.
//!
//! The two models are genuinely independent discretizations (1D collocation
//! on the analytical circuit vs a 3D upwind finite-volume network), so
//! agreement within a few percent of the temperature rise validates both.
//!
//! Run with: `cargo run --release -p bench --bin validate_model`
//!
//! `LIQUAMOD_FAST=1` runs a reduced grid (the CI smoke configuration). The
//! binary exits nonzero when the two models disagree by more than
//! [`MAX_ERR_PERCENT_OF_RISE`] of the temperature rise or an energy balance
//! drifts — so paper-validation regressions fail the pipeline instead of
//! only shifting printed numbers.

use liquamod::bridge;
use liquamod::floorplan::FluxGrid;
use liquamod::grid_sim::CavityWidths;
use liquamod::prelude::*;
use liquamod_bench::{banner, fast_mode, print_table};
use std::process::ExitCode;

/// Regression gate: worst per-cell disagreement, as % of the temperature
/// rise. The healthy value is ≤ 0.5% on both the full and reduced grids;
/// 2% leaves headroom for discretization noise without letting a real
/// modeling regression through.
const MAX_ERR_PERCENT_OF_RISE: f64 = 2.0;

/// Regression gate: both solvers must conserve energy to this residual.
const MAX_ENERGY_RESIDUAL: f64 = 1e-4;

/// Compares the analytical solution of a single-channel strip against the
/// finite-volume solution of the equivalent 1-channel-wide stack. Returns
/// the worst error as a percentage of the temperature rise.
fn strip_case(
    name: &str,
    top_flux: &dyn Fn(f64) -> f64,
    bottom_flux: &dyn Fn(f64) -> f64,
    width: Length,
    nz: usize,
    mesh_intervals: usize,
    table: &mut liquamod::CsvTable,
) -> Result<f64, String> {
    let params = ModelParams::date2012();
    let d = Length::from_centimeters(1.0);

    // Analytical side: heat profiles sampled on the nz grid.
    let steps = |f: &dyn Fn(f64) -> f64| {
        let values: Vec<LinearHeatFlux> = (0..nz)
            .map(|j| {
                let z = (j as f64 + 0.5) * d.si() / nz as f64;
                LinearHeatFlux::from_w_per_m(f(z) * params.pitch.si())
            })
            .collect();
        HeatProfile::equal_segments(&values, d)
    };
    let column = ChannelColumn::new(WidthProfile::uniform(width))
        .with_heat_top(steps(top_flux))
        .with_heat_bottom(steps(bottom_flux));
    let model = Model::new(params.clone(), d, vec![column]).expect("model builds");
    let analytical = model
        .solve(&SolveOptions::with_mesh_intervals(mesh_intervals))
        .expect("analytical solve");

    // Finite-volume side: 1 channel × nz cells, flux functions per cell.
    let top_grid = FluxGrid::from_fn(1, nz, params.pitch, d, |_, z| top_flux(z.si()));
    let bottom_grid = FluxGrid::from_fn(1, nz, params.pitch, d, |_, z| bottom_flux(z.si()));
    let stack = bridge::two_die_stack(
        &params,
        &top_grid,
        &bottom_grid,
        CavityWidths::Uniform(width),
    )
    .expect("stack builds");
    let field = stack.solve_steady().expect("fv solve");
    let fv_top = field.layer_by_name("top-die").expect("layer");

    // Compare top-layer temperatures along z.
    let mut max_err: f64 = 0.0;
    let mut sum_err = 0.0;
    for j in 0..nz {
        let z = Length::from_meters((j as f64 + 0.5) * d.si() / nz as f64);
        let t_fv = fv_top.cell(0, j).as_kelvin();
        let t_an = {
            let node = analytical.nearest_node(z);
            analytical.column(0).t_top(node).as_kelvin()
        };
        let err = (t_fv - t_an).abs();
        max_err = max_err.max(err);
        sum_err += err;
    }
    let rise = analytical.peak_temperature().as_kelvin() - 300.0;
    let mean_err = sum_err / nz as f64;
    let res_an = analytical.energy_balance_residual();
    let res_fv = field.energy_balance_residual();
    table.push_row(vec![
        name.to_string(),
        format!("{:.2}", rise),
        format!("{:.3}", mean_err),
        format!("{:.3}", max_err),
        format!("{:.1}", 100.0 * mean_err / rise),
        format!("{:.1}", 100.0 * max_err / rise),
        format!("{:.2e}", res_an),
        format!("{:.2e}", res_fv),
    ]);
    if res_an > MAX_ENERGY_RESIDUAL || res_fv > MAX_ENERGY_RESIDUAL {
        return Err(format!(
            "case '{name}': energy balance residual too large (analytical {res_an:.2e}, FV {res_fv:.2e}, limit {MAX_ENERGY_RESIDUAL:.0e})"
        ));
    }
    Ok(100.0 * max_err / rise)
}

fn main() -> ExitCode {
    banner("validation: analytical state-space model vs finite-volume simulator");
    // Reduced smoke grid under LIQUAMOD_FAST (CI); full grid otherwise.
    let (nz, mesh_intervals) = if fast_mode() { (50, 150) } else { (200, 600) };
    println!("grid: {nz} cells along the flow, {mesh_intervals} collocation intervals\n");
    let mut table = liquamod::CsvTable::new(vec![
        "case",
        "dT rise [K]",
        "mean err [K]",
        "max err [K]",
        "mean err [%]",
        "max err [%]",
        "energy res (analytical)",
        "energy res (FV)",
    ]);

    type FluxFn = fn(f64) -> f64;
    let cases: [(&str, FluxFn, FluxFn, f64); 4] = [
        (
            "uniform 50 W/cm^2, w = 50 um",
            |_| 50.0 * 1e4,
            |_| 50.0 * 1e4,
            50.0,
        ),
        (
            "uniform 50 W/cm^2, w = 10 um",
            |_| 50.0 * 1e4,
            |_| 50.0 * 1e4,
            10.0,
        ),
        (
            "step: hot first half top layer",
            |z| if z < 0.005 { 150.0 * 1e4 } else { 30.0 * 1e4 },
            |_| 50.0 * 1e4,
            30.0,
        ),
        (
            "asymmetric ramp",
            |z| (40.0 + 160.0 * z / 0.01) * 1e4,
            |z| (200.0 - 180.0 * z / 0.01) * 1e4,
            40.0,
        ),
    ];

    let mut worst: (f64, &str) = (0.0, "-");
    for (name, top, bottom, width_um) in cases {
        match strip_case(
            name,
            &top,
            &bottom,
            Length::from_micrometers(width_um),
            nz,
            mesh_intervals,
            &mut table,
        ) {
            Ok(err_percent) => {
                if err_percent > worst.0 {
                    worst = (err_percent, name);
                }
            }
            Err(e) => {
                print_table(&table);
                eprintln!("VALIDATION FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    print_table(&table);
    println!("the models share the film-coefficient correlation but differ in");
    println!("dimensionality and discretization; percent-level agreement of the");
    println!("temperature fields is the validation test (paper: 'validated");
    println!("against 3D-ICE').");
    println!(
        "\nworst disagreement: {:.2}% of the temperature rise ({}); limit {MAX_ERR_PERCENT_OF_RISE}%",
        worst.0, worst.1
    );
    if worst.0 > MAX_ERR_PERCENT_OF_RISE {
        eprintln!("VALIDATION FAILED: models drifted apart — investigate before merging");
        return ExitCode::FAILURE;
    }
    println!("validation PASSED");
    ExitCode::SUCCESS
}
