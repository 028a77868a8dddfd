//! Table I — system parameters, plus the derived hydro-thermal quantities
//! the rest of the reproduction rests on.
//!
//! Run with: `cargo run --release -p bench --bin table1`

use liquamod::microfluidics::{nusselt, reynolds_number, RectDuct};
use liquamod::prelude::*;
use liquamod_bench::{banner, print_table};

fn main() {
    banner("Table I: values of the system parameters");

    for (label, params) in [
        (
            "calibrated default (see the ModelParams docs)",
            ModelParams::date2012(),
        ),
        ("Table I verbatim", ModelParams::table1_verbatim()),
    ] {
        println!("--- parameter set: {label} ---\n");
        let mut t = liquamod::CsvTable::new(vec!["parameter", "definition", "value"]);
        t.push_row(vec![
            "k_Si".to_string(),
            "silicon thermal conductivity".to_string(),
            format!("{:.0} W/(m.K)", params.k_si.si()),
        ]);
        t.push_row(vec![
            "W".to_string(),
            "channel pitch".to_string(),
            format!("{:.0} um", params.pitch.as_micrometers()),
        ]);
        t.push_row(vec![
            "H_Si".to_string(),
            "silicon slab height".to_string(),
            format!("{:.0} um", params.h_si.as_micrometers()),
        ]);
        t.push_row(vec![
            "H_C".to_string(),
            "channel height".to_string(),
            format!("{:.0} um", params.h_c.as_micrometers()),
        ]);
        t.push_row(vec![
            "c_v".to_string(),
            "coolant volumetric heat capacity".to_string(),
            format!(
                "{:.2e} J/(m^3.K)",
                params.coolant.volumetric_heat_capacity().si()
            ),
        ]);
        t.push_row(vec![
            "V_dot".to_string(),
            "coolant flow rate per channel".to_string(),
            format!("{:.2} mL/min", params.flow_rate_per_channel.as_ml_per_min()),
        ]);
        t.push_row(vec![
            "T_C,in".to_string(),
            "coolant inlet temperature".to_string(),
            format!("{:.0} K", params.inlet_temperature.as_kelvin()),
        ]);
        t.push_row(vec![
            "dP_max".to_string(),
            "maximum pressure difference".to_string(),
            format!("{:.0e} Pa", params.dp_max.as_pascals()),
        ]);
        t.push_row(vec![
            "w_Cmin".to_string(),
            "minimum channel width".to_string(),
            format!("{:.0} um", params.w_min.as_micrometers()),
        ]);
        t.push_row(vec![
            "w_Cmax".to_string(),
            "maximum channel width".to_string(),
            format!("{:.0} um", params.w_max.as_micrometers()),
        ]);
        print_table(&t);

        // Derived quantities at the two width extremes.
        let mut d = liquamod::CsvTable::new(vec![
            "width [um]",
            "D_h [um]",
            "aspect",
            "Nu (H1)",
            "h [W/m^2K]",
            "Re",
            "dP over 1 cm [bar]",
        ]);
        for w_um in [params.w_min.as_micrometers(), params.w_max.as_micrometers()] {
            let duct = RectDuct::new(Length::from_micrometers(w_um), params.h_c)
                .expect("table widths are valid");
            let nu = nusselt::nusselt(&duct);
            let h = nusselt::heat_transfer_coefficient(&duct, &params.coolant);
            let re = reynolds_number(&duct, &params.coolant, params.flow_rate_per_channel);
            let dp = liquamod::microfluidics::pressure::uniform_channel_pressure_drop(
                &duct,
                &params.coolant,
                params.flow_rate_per_channel,
                Length::from_centimeters(1.0),
            )
            .expect("valid pressure inputs");
            d.push_row(vec![
                format!("{w_um:.0}"),
                format!("{:.1}", duct.hydraulic_diameter().as_micrometers()),
                format!("{:.2}", duct.aspect_ratio()),
                format!("{nu:.2}"),
                format!("{:.0}", h.as_w_per_m2_k()),
                format!("{re:.1}"),
                format!("{:.2}", dp.as_bar()),
            ]);
        }
        print_table(&d);
    }
}
