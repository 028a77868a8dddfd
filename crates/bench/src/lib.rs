//! Shared plumbing for the reproduction harness binaries.
//!
//! Every `fig*`/`table*`/`validate*` binary in this crate regenerates one
//! table or figure of the DATE'12 paper. Each prints an aligned text table
//! (for humans) and a CSV block (for plotting scripts) to stdout.
//!
//! Set `LIQUAMOD_FAST=1` to run every experiment with the coarse
//! configuration (useful on laptops/CI; the *shape* of all results is
//! preserved, the absolute numbers shift by a few percent).
//!
//! # Example
//!
//! ```
//! // Whatever LIQUAMOD_FAST says, the selected configuration is never
//! // coarser than the fast baseline every binary can fall back to.
//! let fast = liquamod::OptimizationConfig::fast();
//! let selected = liquamod_bench::config_from_env();
//! assert!(selected.segments >= fast.segments);
//! assert!(selected.mesh_intervals >= fast.mesh_intervals);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use liquamod::prelude::*;

/// Optimization configuration selected by the `LIQUAMOD_FAST` environment
/// variable: [`OptimizationConfig::fast`] (8 segments on 96 mesh
/// intervals) in fast mode, otherwise the same configuration refined to
/// 12 segments on 256 intervals. Both run the optimizer's one fixed solver
/// schedule; only the control and mesh resolution differ.
pub fn config_from_env() -> OptimizationConfig {
    if fast_mode() {
        OptimizationConfig::fast()
    } else {
        OptimizationConfig {
            segments: 12,
            mesh_intervals: 256,
            ..OptimizationConfig::fast()
        }
    }
}

/// `true` when `LIQUAMOD_FAST` requests the coarse configuration.
pub fn fast_mode() -> bool {
    std::env::var("LIQUAMOD_FAST").is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"))
}

/// Prints a prominent section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

/// Prints a table both aligned and as CSV.
pub fn print_table(table: &liquamod::CsvTable) {
    println!("{}", table.to_aligned());
    println!("CSV:\n{}", table.to_csv());
}

/// Formats a comparison as the standard three-row summary table.
pub fn comparison_table(cmp: &DesignComparison) -> liquamod::CsvTable {
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
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_toggle_parses() {
        // Not set in the test environment unless exported by the caller;
        // both outcomes are legal, the call just must not panic.
        let _ = fast_mode();
        let _ = config_from_env();
    }
}
