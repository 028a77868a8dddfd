//! Workspace-root package wiring the top-level `tests/` and `examples/`
//! directories into the Cargo workspace.
//!
//! The actual library lives in [`liquamod`] (crates/core); this crate only
//! re-exports it so integration tests and examples resolve against one
//! package, plus the [`golden`] fixture helper the tests share.

#![forbid(unsafe_code)]

pub use liquamod;

/// Golden-fixture plumbing shared by the integration tests: the one place
/// that decides whether a run regenerates a checked-in fixture or is
/// compared against it.
pub mod golden {
    use std::path::PathBuf;

    /// The checked-in fixture `tests/golden/<name>`.
    #[must_use]
    pub fn path(name: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name)
    }

    /// Checks a run's `actual` output against the fixture `name`.
    ///
    /// With `LIQUAMOD_REGEN_GOLDEN=1` — exactly `1`, any other value
    /// compares — the fixture is overwritten with `actual` and the check
    /// passes (re-run without the variable to verify, and review the diff
    /// before committing). Otherwise `compare(expected, actual)` runs on
    /// the fixture's text.
    ///
    /// # Panics
    ///
    /// When the fixture cannot be read or written, and whenever `compare`
    /// panics.
    pub fn check(name: &str, actual: &str, compare: impl FnOnce(&str, &str)) {
        let path = path(name);
        if std::env::var("LIQUAMOD_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
            std::fs::write(&path, actual)
                .unwrap_or_else(|e| panic!("cannot write fixture {}: {e}", path.display()));
            eprintln!("regenerated {}", path.display());
            return;
        }
        let expected = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
        compare(&expected, actual);
    }
}
