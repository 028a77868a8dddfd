//! The stored reference outputs and the comparison against them.
//!
//! `reference.txt` holds one line per output of one seed's round:
//! `workload seed key value…`. It is compiled into the binary, so the
//! benchmark reads no file at run time. Regenerate it with
//! `--print-reference` (see README.md).

use crate::common::Outputs;

const REFERENCE: &str = include_str!("../reference.txt");

/// Relative tolerance on stored values. Counts must match exactly; floats
/// are printed in shortest round-trip form, so the tolerance only absorbs
/// platform math-library differences.
const RTOL: f64 = 1e-9;

/// The stored outputs of `workload` under `seed`, if that seed is stored.
pub fn stored(workload: &str, seed: u64) -> Option<Outputs> {
    let seed = seed.to_string();
    let mut out = Outputs::default();
    for line in REFERENCE.lines() {
        let mut fields = line.split_whitespace();
        if fields.next() != Some(workload) || fields.next() != Some(seed.as_str()) {
            continue;
        }
        let Some(key) = fields.next() else { continue };
        let values = fields
            .map(|v| v.parse::<f64>().unwrap_or(f64::NAN))
            .collect();
        out.push(key, values);
    }
    (!out.0.is_empty()).then_some(out)
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= RTOL * a.abs().max(b.abs())
}

/// Every difference between the expected and the produced outputs.
pub fn compare(expected: &Outputs, got: &Outputs) -> Vec<String> {
    let mut problems = Vec::new();
    if expected.0.len() != got.0.len() {
        problems.push(format!(
            "{} outputs stored, {} produced",
            expected.0.len(),
            got.0.len()
        ));
    }
    for ((ek, ev), (gk, gv)) in expected.0.iter().zip(&got.0) {
        if ek != gk {
            problems.push(format!("output '{gk}' where '{ek}' is stored"));
        } else if ev.len() != gv.len() {
            problems.push(format!(
                "{ek}: {} values stored, {} produced",
                ev.len(),
                gv.len()
            ));
        } else if let Some(i) = (0..ev.len()).find(|&i| !close(ev[i], gv[i])) {
            problems.push(format!("{ek}[{i}]: stored {}, produced {}", ev[i], gv[i]));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_flags_each_kind_of_difference() {
        let mut a = Outputs::default();
        a.push("decisions", vec![3.0]);
        a.push("max_gradient_k", vec![9.5]);
        let mut b = a.clone();
        assert!(compare(&a, &b).is_empty());
        b.0[1].1[0] = 9.5 * (1.0 + 1e-12);
        assert!(compare(&a, &b).is_empty(), "within tolerance");
        b.0[0].1[0] = 4.0;
        assert_eq!(compare(&a, &b).len(), 1);
        b.0.pop();
        assert_eq!(compare(&a, &b).len(), 2);
    }
}
