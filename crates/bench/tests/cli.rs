//! The `sweep` CLI's input boundary: every malformed argument exits 1 with
//! an `error:` line on stderr before the run starts, and never panics.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `sweep` on the coarse configuration with `args` and checks that it
/// exits 1 with an `error:` line and no panic, and prints nothing on stdout:
/// the refusal comes before the banner, not after a run.
fn assert_refused<S: AsRef<std::ffi::OsStr>>(args: &[S]) {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .env("LIQUAMOD_FAST", "1")
        .output()
        .expect("sweep starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let shown: Vec<_> = args.iter().map(|a| a.as_ref().to_string_lossy()).collect();
    assert_eq!(out.status.code(), Some(1), "{shown:?}: {stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error:")),
        "{shown:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{shown:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{shown:?}: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn malformed_flag_values_and_unknown_arguments_exit_1() {
    for args in [
        &["--workers"][..],
        &["--workers", "x"],
        &["--workers", "-1"],
        &["--workers", "0"],
        &["--workers", "99999999999999999999999"],
        &["--stepper"],
        &["--stepper", "foo"],
        &["--frobnicate"],
        &["steady-state"],
    ] {
        assert_refused(args);
    }
}

/// A scratch directory for one test, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("liquamod-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn unwritable_output_paths_exit_1() {
    let scratch = ScratchDir::new("paths");
    let dir = scratch.path().to_string_lossy().into_owned();
    let missing = scratch.path().join("missing").join("out.json");
    let missing = missing.to_string_lossy().into_owned();
    for flag in ["--json", "--trace", "--counters"] {
        for path in [&dir, &missing] {
            assert_refused(&["--no-baseline", flag, path.as_str()]);
        }
    }
}

#[cfg(unix)]
#[test]
fn non_utf8_arguments_exit_1() {
    use std::ffi::OsString;
    use std::os::unix::ffi::OsStringExt;
    let bad = OsString::from_vec(vec![0xff]);
    assert_refused(&[bad]);
    let scratch = ScratchDir::new("utf8");
    let path = scratch
        .path()
        .join(OsString::from_vec(b"\xff.json".to_vec()));
    assert_refused(&[OsString::from("--json"), path.into_os_string()]);
}
