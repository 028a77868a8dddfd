//! Quickstart: optimally modulate one microchannel and compare against the
//! uniform-width baselines (the paper's Test A, Fig. 5a/6a).
//!
//! Run with: `cargo run --release --example quickstart`

use liquamod::prelude::*;

fn main() -> Result<(), CoreError> {
    // Table I parameters with the calibrated per-channel flow rate.
    let params = ModelParams::date2012();

    // `OptimizationConfig::fast()` refined to 12 segments on 256 mesh
    // intervals (the figure binaries' non-FAST setting); `fast()` itself
    // gives a few-second smoke run.
    let config = OptimizationConfig {
        segments: 12,
        mesh_intervals: 256,
        ..OptimizationConfig::fast()
    };

    println!("== liquamod quickstart: Test A (uniform 50 W/cm2 per layer) ==\n");
    let cmp = experiments::test_a(&params, &config)?;

    let mut table = liquamod::CsvTable::new(vec![
        "case",
        "gradient [K]",
        "peak [degC]",
        "max dP [bar]",
        "pump [W]",
        "cost J",
    ]);
    for row in cmp.summary_rows() {
        table.push_row(row);
    }
    println!("{}", table.to_aligned());

    println!(
        "gradient reduction vs best uniform: {:.1}% (paper reports ~32% for Test A)",
        100.0 * cmp.gradient_reduction()
    );
    println!(
        "optimal peak tracks the minimum-width peak: {}",
        cmp.peak_tracks_minimum_width(1.0)
    );

    // The optimal width profile tapers from inlet to outlet (Fig. 6a).
    if let WidthProfile::PiecewiseConstant { widths } = &cmp.optimal_widths()[0] {
        let profile: Vec<String> = widths
            .iter()
            .map(|w| format!("{:.1}", w.as_micrometers()))
            .collect();
        println!(
            "\noptimal widths inlet->outlet [um]: {}",
            profile.join("  ")
        );
    }
    Ok(())
}
