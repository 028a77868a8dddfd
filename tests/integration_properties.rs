//! Property-based invariants spanning the whole stack, checked with
//! randomized inputs under proptest.

use liquamod::bridge;
use liquamod::floorplan::FluxGrid;
use liquamod::grid_sim::CavityWidths;
use liquamod::microfluidics::{nusselt, pressure, Coolant, RectDuct};
use liquamod::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Energy conservation of the analytical model under arbitrary
    /// segmented loads and widths: heat in == heat advected out.
    #[test]
    fn analytical_energy_balance(
        seed_fluxes in proptest::collection::vec(0.0f64..250.0, 1..6),
        width_um in 10.0f64..50.0,
    ) {
        let params = ModelParams::date2012();
        let d = Length::from_centimeters(1.0);
        let q: Vec<LinearHeatFlux> = seed_fluxes
            .iter()
            .map(|f| LinearHeatFlux::from_w_per_m(f * 1e4 * params.pitch.si()))
            .collect();
        let col = ChannelColumn::new(WidthProfile::uniform(Length::from_micrometers(width_um)))
            .with_heat_top(HeatProfile::equal_segments(&q, d))
            .with_heat_bottom(HeatProfile::equal_segments(&q, d));
        let model = Model::new(params, d, vec![col]).expect("model builds");
        let sol = model.solve(&SolveOptions::with_mesh_intervals(96)).expect("solves");
        prop_assert!(sol.energy_balance_residual() < 1e-8,
            "residual {}", sol.energy_balance_residual());
    }

    /// Silicon temperatures never drop below the coolant inlet temperature
    /// (no spurious cooling) and peak under load.
    #[test]
    fn temperatures_bounded_below_by_inlet(
        flux in 1.0f64..200.0,
        width_um in 10.0f64..50.0,
    ) {
        let params = ModelParams::date2012();
        let d = Length::from_centimeters(1.0);
        let q = LinearHeatFlux::from_w_per_m(flux * 1e4 * params.pitch.si());
        let col = ChannelColumn::new(WidthProfile::uniform(Length::from_micrometers(width_um)))
            .with_heat_top(HeatProfile::uniform(q));
        let model = Model::new(params.clone(), d, vec![col]).expect("model builds");
        let sol = model.solve(&SolveOptions::with_mesh_intervals(64)).expect("solves");
        prop_assert!(sol.min_temperature().as_kelvin() >= params.inlet_temperature.as_kelvin() - 1e-6);
        prop_assert!(sol.peak_temperature().as_kelvin() > params.inlet_temperature.as_kelvin());
    }

    /// More heat never cools the chip: peak temperature is monotone in a
    /// uniform load scale factor.
    #[test]
    fn peak_monotone_in_load(scale in 0.1f64..4.0, width_um in 10.0f64..50.0) {
        let params = ModelParams::date2012();
        let d = Length::from_centimeters(1.0);
        let solve = SolveOptions::with_mesh_intervals(64);
        let build = |s: f64| {
            let q = LinearHeatFlux::from_w_per_m(50.0 * s);
            let col = ChannelColumn::new(
                WidthProfile::uniform(Length::from_micrometers(width_um)),
            )
            .with_heat_top(HeatProfile::uniform(q))
            .with_heat_bottom(HeatProfile::uniform(q));
            Model::new(params.clone(), d, vec![col]).expect("builds")
        };
        let lo = build(scale).solve(&solve).expect("solves");
        let hi = build(scale * 1.5).solve(&solve).expect("solves");
        prop_assert!(hi.peak_temperature().as_kelvin() > lo.peak_temperature().as_kelvin());
    }

    /// Pressure drop is strictly decreasing in channel width (the Eq. 9
    /// trade-off the optimizer exploits) and linear in flow rate.
    #[test]
    fn pressure_monotonicity(
        w1_um in 10.0f64..49.0,
        delta_um in 0.5f64..10.0,
        flow in 0.1f64..2.0,
    ) {
        let params = ModelParams::date2012();
        let coolant = Coolant::water_300k();
        let d = Length::from_centimeters(1.0);
        let w2_um = (w1_um + delta_um).min(50.0);
        let dp = |w_um: f64, f_scale: f64| {
            pressure::uniform_channel_pressure_drop(
                &RectDuct::new(Length::from_micrometers(w_um), params.h_c).expect("duct"),
                &coolant,
                VolumetricFlowRate::from_ml_per_min(flow * f_scale),
                d,
            )
            .expect("pressure")
            .as_pascals()
        };
        prop_assert!(dp(w1_um, 1.0) > dp(w2_um, 1.0), "narrower must cost more");
        let ratio = dp(w1_um, 2.0) / dp(w1_um, 1.0);
        prop_assert!((ratio - 2.0).abs() < 1e-9, "laminar dp is linear in flow, got {ratio}");
    }

    /// The film coefficient rises monotonically as the channel narrows at
    /// fixed height — the physical basis of channel modulation.
    #[test]
    fn film_coefficient_monotone(w_um in 10.0f64..49.0, delta in 0.5f64..10.0) {
        let coolant = Coolant::water_300k();
        let h_c = Length::from_micrometers(100.0);
        let narrow = RectDuct::new(Length::from_micrometers(w_um), h_c).expect("duct");
        let wide = RectDuct::new(
            Length::from_micrometers((w_um + delta).min(50.0)),
            h_c,
        ).expect("duct");
        let h_narrow = nusselt::heat_transfer_coefficient(&narrow, &coolant);
        let h_wide = nusselt::heat_transfer_coefficient(&wide, &coolant);
        prop_assert!(h_narrow.as_w_per_m2_k() > h_wide.as_w_per_m2_k());
    }

    /// Rasterization conserves power for arbitrary grids.
    #[test]
    fn raster_conserves_power(nx in 3usize..40, nz in 3usize..40) {
        let die = liquamod::floorplan::niagara::floorplan();
        let grid = die.rasterize(nx, nz, PowerLevel::Peak);
        let total = die.total_power(PowerLevel::Peak).as_watts();
        prop_assert!((grid.total_power().as_watts() - total).abs() / total < 1e-9);
    }

    /// Width profiles sample within their own min/max everywhere.
    #[test]
    fn width_profile_sampling_bounded(
        widths_um in proptest::collection::vec(10.0f64..50.0, 1..12),
        frac in 0.0f64..1.0,
    ) {
        let d = Length::from_centimeters(1.0);
        let profile = WidthProfile::piecewise_constant(
            widths_um.iter().map(|w| Length::from_micrometers(*w)).collect(),
        );
        let w = profile.width_at(Length::from_meters(d.si() * frac), d);
        prop_assert!(w.si() <= profile.max_width().si() + 1e-15);
        prop_assert!(w.si() >= profile.min_width().si() - 1e-15);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Finite-volume energy balance under random uniform loads and widths.
    #[test]
    fn fv_energy_balance(flux_w_cm2 in 5.0f64..150.0, width_um in 10.0f64..50.0) {
        let params = ModelParams::date2012();
        let d = Length::from_millimeters(4.0);
        let grid = FluxGrid::from_fn(4, 8, Length::from_millimeters(0.4), d,
            |_, _| flux_w_cm2 * 1e4);
        let stack = bridge::two_die_stack(
            &params,
            &grid,
            &grid,
            CavityWidths::Uniform(Length::from_micrometers(width_um)),
        ).expect("stack builds");
        let field = stack.solve_steady().expect("solves");
        prop_assert!(field.energy_balance_residual() < 1e-5,
            "residual {}", field.energy_balance_residual());
    }

    /// Grouped-column reduction is consistent: grouping four equal channels
    /// into one node preserves gradient and peak.
    #[test]
    fn grouping_invariance(flux in 10.0f64..120.0, width_um in 12.0f64..48.0) {
        let params = ModelParams::date2012();
        let d = Length::from_centimeters(1.0);
        let solve = SolveOptions::with_mesh_intervals(96);
        let q = LinearHeatFlux::from_w_per_m(flux);
        let w = WidthProfile::uniform(Length::from_micrometers(width_um));
        let separate: Vec<ChannelColumn> = (0..4)
            .map(|_| ChannelColumn::new(w.clone())
                .with_heat_top(HeatProfile::uniform(q))
                .with_heat_bottom(HeatProfile::uniform(q)))
            .collect();
        let grouped = ChannelColumn::new(w.clone())
            .with_group_size(4)
            .with_heat_top(HeatProfile::uniform(q).scaled(4.0))
            .with_heat_bottom(HeatProfile::uniform(q).scaled(4.0));
        let s4 = Model::new(params.clone(), d, separate).expect("builds")
            .solve(&solve).expect("solves");
        let s1 = Model::new(params, d, vec![grouped]).expect("builds")
            .solve(&solve).expect("solves");
        let dg = (s4.thermal_gradient().as_kelvin() - s1.thermal_gradient().as_kelvin()).abs();
        prop_assert!(dg < 1e-6, "gradient differs by {dg}");
    }

    /// Floorplan rasterization conserves power exactly for random block
    /// layouts: whatever the grid resolution (cells cutting blocks at
    /// arbitrary fractions), the summed `FluxGrid` power equals the summed
    /// block powers within 1e-9.
    #[test]
    fn rasterization_conserves_power_for_random_layouts(
        cols in 1usize..4,
        rows in 1usize..4,
        nx in 1usize..13,
        nz in 1usize..13,
        insets in proptest::collection::vec(0.02f64..0.45, 9..10),
        fluxes in proptest::collection::vec(0.0f64..200.0, 9..10),
    ) {
        use liquamod::floorplan::{Block, BlockKind, Floorplan};
        use liquamod::units::Rect;
        // Random non-overlapping layout: one randomly inset block per slot
        // of a cols × rows partition of an 8 mm × 6 mm die.
        let (die_w_mm, die_d_mm) = (8.0, 6.0);
        let (slot_w, slot_d) = (die_w_mm / cols as f64, die_d_mm / rows as f64);
        let mut blocks = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let k = r * cols + c;
                let inset = insets[k];
                let (w, d) = (slot_w * (1.0 - 2.0 * inset), slot_d * (1.0 - 2.0 * inset));
                let outline = Rect::from_mm(
                    c as f64 * slot_w + inset * slot_w,
                    r as f64 * slot_d + inset * slot_d,
                    w,
                    d,
                ).expect("slot-inset rects are valid");
                // flux [W/cm²] × area [cm²]; average at half activity.
                let peak = fluxes[k] * (w * d * 1e-2);
                blocks.push(Block::new(
                    format!("b{k}"),
                    BlockKind::Other,
                    outline,
                    Power::from_watts(peak),
                    Power::from_watts(0.5 * peak),
                ).expect("block powers are valid"));
            }
        }
        let expected_peak: f64 = blocks.iter().map(|b| b.power_peak().as_watts()).sum();
        let fp = Floorplan::new(
            "random",
            Length::from_millimeters(die_w_mm),
            Length::from_millimeters(die_d_mm),
            blocks,
        ).expect("slot layouts never overlap");
        for (level, expected) in [
            (PowerLevel::Peak, expected_peak),
            (PowerLevel::Average, 0.5 * expected_peak),
        ] {
            let got = fp.rasterize(nx, nz, level).total_power().as_watts();
            prop_assert!(
                (got - expected).abs() <= 1e-9 * expected.max(1.0),
                "{level:?} at {nx}x{nz}: grid {got} W vs blocks {expected} W"
            );
        }
    }
}
