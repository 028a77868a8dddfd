//! Fig. 7 — the layouts of the three two-die 3D-MPSoC arrangements used in
//! the §V-B experiments (reconstructed; see the `floorplan::niagara` module
//! docs).
//!
//! Run with: `cargo run --release -p bench --bin fig7_floorplans`

use liquamod::floorplan::{arch, PowerLevel};
use liquamod_bench::{banner, print_table};

fn main() {
    for a in arch::all() {
        banner(&format!("{} — {}", a.name(), a.description()));
        for (which, die) in [("top die", a.top_die()), ("bottom die", a.bottom_die())] {
            println!(
                "{which}: '{}' ({:.0} x {:.0} mm, flow upward)",
                die.name(),
                die.width().as_millimeters(),
                die.depth().as_millimeters()
            );
            println!("{}", die.layout_ascii(40, 11));
            let mut t = liquamod::CsvTable::new(vec![
                "block",
                "kind",
                "area [mm^2]",
                "peak [W]",
                "avg [W]",
                "peak flux [W/cm^2]",
            ]);
            for b in die.blocks() {
                t.push_row(vec![
                    b.name().to_string(),
                    format!("{:?}", b.kind()),
                    format!("{:.2}", b.outline().area().as_mm2()),
                    format!("{:.2}", b.power_peak().as_watts()),
                    format!("{:.2}", b.power_average().as_watts()),
                    format!("{:.1}", b.flux_peak().as_w_per_cm2()),
                ]);
            }
            print_table(&t);
            println!(
                "die totals: peak {:.1} W, average {:.1} W\n",
                die.total_power(PowerLevel::Peak).as_watts(),
                die.total_power(PowerLevel::Average).as_watts()
            );
        }
    }
}
