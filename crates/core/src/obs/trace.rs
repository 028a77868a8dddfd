//! Chrome trace-event JSON export: the `{"traceEvents": [...]}` object
//! format loadable by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
//!
//! Mapping: each fleet lane becomes a Perfetto *process* (`pid` = lane + 1;
//! `pid` 0 holds unlaned spans), each recording thread a *thread* (`tid` =
//! worker id, 0 = the calling thread). Spans are complete (`"X"`) events
//! with microsecond `ts`/`dur`; `args` carries the span's `depth` and
//! `parent` sequence index so tools can rebuild the hierarchy without
//! relying on timestamps (the checked-in golden trace has them zeroed).

use super::report::ObsReport;
use crate::json::Json;
use std::collections::BTreeSet;

/// The `pid` a span renders under: lanes are 1-based processes, everything
/// else is process 0.
fn pid(lane: Option<u32>) -> u32 {
    lane.map_or(0, |l| l + 1)
}

/// Renders the report as a Chrome trace-event JSON string: the
/// `{"traceEvents": [` envelope around one inline event per line.
pub(super) fn render(report: &ObsReport) -> String {
    let meta = |name: &str, pid: u32, tid: u32, label: String| {
        Json::object([
            ("ph", "M".into()),
            ("name", name.into()),
            ("pid", pid.into()),
            ("tid", tid.into()),
            ("args", Json::object([("name", label.into())])),
        ])
    };
    // Metadata: name every process and thread that appears.
    let pids: BTreeSet<u32> = report.spans.iter().map(|s| pid(s.lane)).collect();
    let processes = pids.into_iter().map(|p| {
        let label = if p == 0 {
            "liquamod".into()
        } else {
            format!("lane {}", p - 1)
        };
        meta("process_name", p, 0, label)
    });
    let tids: BTreeSet<(u32, u32)> = report
        .spans
        .iter()
        .map(|s| (pid(s.lane), s.worker))
        .collect();
    let threads = tids.into_iter().map(|(p, t)| {
        let label = if t == 0 {
            "caller".into()
        } else {
            format!("worker {t}")
        };
        meta("thread_name", p, t, label)
    });
    // Spans, in the deterministic merged order.
    let spans = report.spans.iter().enumerate().map(|(seq, s)| {
        Json::object([
            ("ph", "X".into()),
            ("name", s.name.into()),
            ("cat", "liquamod".into()),
            ("pid", pid(s.lane).into()),
            ("tid", s.worker.into()),
            ("ts", Json::fixed(s.start_ns as f64 / 1e3, 3)),
            ("dur", Json::fixed(s.dur_ns as f64 / 1e3, 3)),
            (
                "args",
                Json::object([
                    ("seq", seq.into()),
                    ("depth", s.depth.into()),
                    ("parent", s.parent.into()),
                ]),
            ),
        ])
    });
    let events: Vec<String> = processes
        .chain(threads)
        .chain(spans)
        .map(|event| format!("  {event}"))
        .collect();
    format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::super::report::SpanRecord;
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn trace_has_metadata_and_complete_events() {
        let report = ObsReport {
            spans: vec![
                SpanRecord {
                    name: "fleet.run",
                    lane: None,
                    parent: None,
                    depth: 0,
                    start_ns: 0,
                    dur_ns: 5_000,
                    worker: 0,
                },
                SpanRecord {
                    name: "fleet.segment",
                    lane: Some(2),
                    parent: Some(0),
                    depth: 1,
                    start_ns: 1_000,
                    dur_ns: 3_000,
                    worker: 1,
                },
            ],
            counters: BTreeMap::new(),
            events: vec![],
        };
        let trace = report.to_chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\": ["));
        assert!(trace.contains("\"name\": \"process_name\""));
        assert!(trace.contains("\"name\": \"lane 2\""));
        assert!(trace.contains("\"name\": \"worker 1\""));
        assert!(trace.contains("\"ph\": \"X\""));
        // Lane 2 renders as pid 3; the span carries its parent seq.
        assert!(trace.contains("\"pid\": 3"));
        assert!(trace.contains("\"parent\": 0"));
        // Microsecond timestamps: 1000 ns = 1.000 µs.
        assert!(trace.contains("\"ts\": 1.000"));
    }
}
