//! The liquamod benchmark: three seeded workloads driven through the
//! library's public API on the exponential stepper.
//!
//! ```text
//! perfbench --workload serve-soak|fleet-ladder|plant-replay --seed N \
//!           --seconds S --trace 0|1 [--print-reference]
//! ```
//!
//! `--trace 0` repeats the workload's round until `S` seconds have passed
//! (serve-soak: at least twice; plant-replay: at least five times) and
//! prints the end-to-end metrics, read from the fastest round and from each
//! decision's fastest latency; `--trace 1` runs one untraced round,
//! one traced round and one single-worker round, replays the workload's
//! loads through each layer's public calls, and prints the per-layer
//! metrics. The last line of standard output is one JSON object; the exit
//! code is nonzero when any output check fails. See README.md.

mod common;
mod fleet_ladder;
mod gen;
mod layers;
mod plant_replay;
mod reference;
mod serve_soak;

use common::{median, nproc, peak_rss_mb, quantile, Outputs, Round};
use layers::{Feed, Metric};
use liquamod::mpsoc::MpsocConfig;
use liquamod::ObsSession;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups before the first round, at least; `setup_s` is the median of
/// all set-ups of a run.
const SETUPS: usize = 51;
/// Seconds of set-ups before the first round and after every round, at
/// least. One set-up takes well
/// under a millisecond, so a run's set-ups back to back would sample a
/// single moment of the host's load; spread over the run they sample it
/// as the rounds do.
const SETUP_SECONDS: f64 = 0.25;

/// Sets the workload up again and again, for at least `SETUP_SECONDS` and
/// at least `min` times, and appends each set-up's time to `times`. Returns
/// the last workload built, or `None` for an unknown workload name.
fn time_setups(args: &Args, min: usize, times: &mut Vec<f64>) -> Option<Workload> {
    let started = Instant::now();
    let mut made = 0;
    loop {
        let t = Instant::now();
        let workload = Workload::setup(&args.workload, args.seed);
        times.push(t.elapsed().as_secs_f64());
        made += 1;
        if workload.is_none() || (made >= min && started.elapsed().as_secs_f64() >= SETUP_SECONDS) {
            return workload;
        }
    }
}

enum Workload {
    Serve(Box<serve_soak::Inputs>),
    Fleet(fleet_ladder::Inputs),
    Plant(plant_replay::Inputs),
}

impl Workload {
    fn setup(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            serve_soak::NAME => Workload::Serve(Box::new(serve_soak::setup(seed))),
            fleet_ladder::NAME => Workload::Fleet(fleet_ladder::setup(seed)),
            plant_replay::NAME => Workload::Plant(plant_replay::setup(seed)),
            _ => return None,
        })
    }

    fn round(&self, workers: usize) -> Round {
        match self {
            Workload::Serve(i) => serve_soak::round(i, workers),
            Workload::Fleet(i) => fleet_ladder::round(i, workers, i.lanes.len()),
            Workload::Plant(i) => plant_replay::round(i, workers),
        }
    }

    /// The round the traced run repeats three times: the fleet traces the
    /// lanes of its first budget only, to stay well inside the run's time
    /// limit.
    fn trace_round(&self, workers: usize) -> Round {
        match self {
            Workload::Fleet(i) => fleet_ladder::round(i, workers, i.lanes.len() / 2),
            _ => self.round(workers),
        }
    }

    fn feed(&self, r: &Round) -> Feed {
        match self {
            Workload::Serve(i) => serve_soak::feed(i, r),
            Workload::Fleet(i) => fleet_ladder::feed(i, r),
            Workload::Plant(i) => plant_replay::feed(i, r),
        }
    }

    /// Workers for the traced round. The library merges worker-thread
    /// records into the calling thread through its own fan-out; the plant
    /// replay fans out on the benchmark's threads, so it is traced serially.
    fn traced_workers(&self, workers: usize) -> usize {
        match self {
            Workload::Plant(_) => 1,
            Workload::Serve(_) | Workload::Fleet(_) => workers,
        }
    }

    /// Rounds a `--trace 0` run completes at least. The timing metrics read
    /// each decision at its fastest over the rounds (see `end_to_end`), so
    /// more rounds ride out more of the host's slow stretches. A serve-soak
    /// round has only 9 cold-start batches of ~1 s, and its p90 falls among
    /// them, so it runs twice; a plant-replay round lasts ~1.5 s, so five
    /// cost little. A fleet-ladder round fills a run on its own.
    fn min_rounds(&self) -> usize {
        match self {
            Workload::Serve(_) => 2,
            Workload::Fleet(_) => 1,
            Workload::Plant(_) => 5,
        }
    }

    fn config(&self) -> MpsocConfig {
        match self {
            Workload::Serve(_) | Workload::Fleet(_) => common::coarse_config(),
            Workload::Plant(_) => common::full_config(),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        print_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--print-reference" => args.print_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Failures and attempts across the run, with the reasons.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, r: &Round) {
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.problems.extend(r.problems.iter().cloned());
    }

    /// One output check: counts as an attempted operation, and as a failed
    /// one when it found differences.
    fn check(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems
                .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
        }
    }

    /// Compares a round with the stored reference. A `partial` round (the
    /// fleet's traced half round) is compared on its per-lane outputs only.
    fn check_reference(&mut self, workload: &str, seed: u64, outputs: &Outputs, partial: bool) {
        match reference::stored(workload, seed) {
            Some(mut expected) => {
                let mut got = outputs.clone();
                if partial {
                    let per_lane = |k: &str| k.contains('.');
                    got.0.retain(|(k, _)| per_lane(k));
                    expected.0.retain(|(k, _)| got.get(k).is_some());
                }
                let problems = reference::compare(&expected, &got);
                println!(
                    "output check: stored reference for seed {seed}: {}",
                    if problems.is_empty() {
                        "match"
                    } else {
                        "MISMATCH"
                    }
                );
                self.check("reference", problems);
            }
            None => println!(
                "output check: no stored reference for seed {seed}; invariants and \
                 round-to-round identity checked"
            ),
        }
    }
}

fn same_outputs(a: &Outputs, b: &Outputs) -> Vec<String> {
    if a == b {
        Vec::new()
    } else {
        reference::compare(a, b)
            .into_iter()
            .chain(std::iter::once("outputs differ".to_string()))
            .take(4)
            .collect()
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_result(tally: &Tally, metrics: &[Metric]) {
    for p in tally.problems.iter().take(20) {
        println!("problem: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

fn push(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value,
        unit,
    });
}

/// The untraced run: repeat rounds until `seconds` have passed.
fn end_to_end(
    args: &Args,
    w: &Workload,
    setup_s: &mut Vec<f64>,
    workers: usize,
) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let r = w.round(workers);
        time_setups(args, 1, setup_s);
        tally.absorb(&r);
        rounds.push(r);
        // Stop at the round boundary nearest to the requested duration.
        let elapsed = started.elapsed().as_secs_f64();
        if rounds.len() >= w.min_rounds()
            && elapsed + 0.5 * rounds[rounds.len() - 1].wall_s >= args.seconds
        {
            break;
        }
    }
    let first = &rounds[0].outputs;
    tally.check_reference(&args.workload, args.seed, first, false);
    for (i, r) in rounds.iter().enumerate().skip(1) {
        tally.check(
            &format!("round {i} vs round 0"),
            same_outputs(first, &r.outputs),
        );
    }

    // Every round repeats the same work, decision for decision (the checks
    // above hold their outputs identical). On a shared host, co-tenant load
    // slows stretches of seconds by up to 1.7×, and whole-run figures
    // follow the share of such stretches in the run. So the timing metrics
    // are read where the host was quiet: throughput from the fastest round,
    // and each decision's latency as its fastest over the rounds.
    let fastest = rounds
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("a run completes at least one round");
    let wall = fastest.wall_s;
    let sim_ms = fastest.sim_stack_ms;
    let latencies: Vec<f64> = (0..fastest.latencies_s.len())
        .map(|i| {
            rounds
                .iter()
                .filter_map(|r| r.latencies_s.get(i))
                .fold(f64::INFINITY, |a, &b| a.min(b))
        })
        .collect();
    let n = latencies.len();
    let beyond = |q: f64| n - (q * n as f64).ceil() as usize;
    println!(
        "{} rounds; fastest round: {n} decisions in {wall:.3} s; p50 over the {n} \
         decisions' fastest latencies ({} beyond), p90 ({} beyond); setup median of {} \
         set-ups; failed {}/{} operations",
        rounds.len(),
        beyond(0.5),
        beyond(0.9),
        setup_s.len(),
        tally.failed,
        tally.attempted,
    );
    let setups: Vec<String> = [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&q| format!("{:.6}", quantile(setup_s, q)))
        .collect();
    println!("set-up quartiles p0..p100 (s): {}", setups.join(" "));
    let walls: Vec<String> = rounds.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    println!("round walls (s): {}", walls.join(" "));
    let deciles: Vec<String> = (1..=10)
        .map(|d| format!("{:.3}", quantile(&latencies, d as f64 / 10.0)))
        .collect();
    println!(
        "decision latency deciles p10..p100 (s): {}",
        deciles.join(" ")
    );
    let max_gradient = first.get("max_gradient_k").map_or(f64::NAN, |v| v[0]);
    let mut m = Vec::new();
    push(&mut m, "setup_s", median(setup_s), "s");
    push(&mut m, "sim_ms_per_s", sim_ms / wall, "ms/s");
    push(&mut m, "decisions_per_s", n as f64 / wall, "1/s");
    push(&mut m, "decision_p50_s", quantile(&latencies, 0.5), "s");
    push(&mut m, "decision_p90_s", quantile(&latencies, 0.9), "s");
    push(&mut m, "max_gradient_k", max_gradient, "K");
    push(&mut m, "peak_rss_mb", peak_rss_mb(), "MiB");
    for x in &m {
        println!("  {:<18} {:>14.6} {}", x.name, x.value, x.unit);
    }
    println!(
        "  failed_frac        {:>14.6} fraction",
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    (tally, m)
}

/// Counters the library's observability layer keeps.
const COUNTERS: [&str; 13] = [
    "optimizer.evaluations",
    "optimizer.warm_start_hits",
    "epoch.adopted",
    "epoch.rejected",
    "assembly.values_only_refreshes",
    "assembly.full_rebuilds",
    "expstep.matrix_rebuilds",
    "fleet.segments",
    "fleet.dedup_hits",
    "allocator.forecast_hits",
    "allocator.surrogate_refits",
    "serve.decisions",
    "obs.events",
];

/// Spans whose share of traced self time is reported.
const SELF_SHARES: [&str; 3] = ["epoch.solve", "assembly.rebuild", "stepper.advance"];

/// Per-layer metric → layer → the end-to-end metric it should move.
const LAYER_MAP: [(&str, &str, &str); 18] = [
    ("thermal_model.bvp_solve_ms.4col", "thermal-model", "decision_p50_s, decisions_per_s (serve-soak); sim_ms_per_s (fleet-ladder); none (plant-replay)"),
    ("thermal_model.bvp_solve_ms.8col", "thermal-model", "as the 4-column solve, at the full 4-group reduction"),
    ("optimizer.epoch_cold_s", "optimal-control", "decision_p90_s (serve-soak)"),
    ("optimizer.epoch_warm_s", "optimal-control", "decision_p50_s (serve-soak)"),
    ("optimizer.evals_cold", "optimal-control", "decisions_per_s (serve-soak), exact count"),
    ("optimizer.evals_warm", "optimal-control", "decisions_per_s (serve-soak), exact count"),
    ("optimizer.adopt_frac", "transient controller", "sim_ms_per_s (fleet-ladder): solves wasted on rejected epochs"),
    ("grid_sim.propagator_build_ms", "grid-sim", "sim_ms_per_s (plant-replay, dominant; fleet-ladder)"),
    ("grid_sim.step_us", "grid-sim", "sim_ms_per_s (plant-replay long phases)"),
    ("fleet.allocate_us", "fleet", "none expected (guard)"),
    ("fleet.fanout_speedup", "fleet / sweep fan-out", "sim_ms_per_s (fleet-ladder)"),
    ("serve.drain_batch_s", "serve", "decision_p50_s (serve-soak)"),
    ("serve.snapshot_ms", "serve", "decision_p90_s (serve-soak)"),
    ("serve.snapshot_bytes", "serve", "decision_p90_s (serve-soak)"),
    ("obs.tracing_overhead", "obs", "none: traced / untraced wall - 1"),
    ("obs.self_share.epoch.solve", "obs", "counts only"),
    ("obs.self_share.assembly.rebuild", "obs", "counts only"),
    ("obs.self_share.stepper.advance", "obs", "counts only"),
];

/// The traced run: untraced rounds at `workers` and at one worker, a traced
/// round, then the layer replays.
fn per_layer(args: &Args, w: &Workload, workers: usize) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let a = w.trace_round(workers);
    let c = w.trace_round(1);
    let traced_workers = w.traced_workers(workers);
    let session = ObsSession::start();
    let b = w.trace_round(traced_workers);
    let report = session.finish();
    let untraced = if traced_workers == 1 { &c } else { &a };
    for r in [&a, &b, &c] {
        tally.absorb(r);
    }
    tally.check_reference(
        &args.workload,
        args.seed,
        &a.outputs,
        matches!(w, Workload::Fleet(_)),
    );
    tally.check("traced vs untraced", same_outputs(&a.outputs, &b.outputs));
    tally.check("1 worker vs nproc", same_outputs(&a.outputs, &c.outputs));

    let mut m = match layers::probe(&w.feed(&a), &b, workers, matches!(w, Workload::Serve(_))) {
        Ok(m) => m,
        Err(e) => {
            tally.check("layer replays", vec![e.to_string()]);
            Vec::new()
        }
    };
    push(&mut m, "fleet.fanout_speedup", c.wall_s / a.wall_s, "x");
    push(
        &mut m,
        "obs.tracing_overhead",
        b.wall_s / untraced.wall_s - 1.0,
        "fraction",
    );
    let self_ns = report.self_times_ns();
    let total: u64 = self_ns.iter().sum();
    for name in SELF_SHARES {
        let own: u64 = report
            .spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns)
            .sum();
        push(
            &mut m,
            &format!("obs.self_share.{name}"),
            own as f64 / total.max(1) as f64,
            "fraction",
        );
    }
    for name in COUNTERS {
        push(
            &mut m,
            &format!("obs.{name}"),
            report.counter(name) as f64,
            "count",
        );
    }
    println!(
        "rounds: untraced {:.3} s at {workers} workers, {:.3} s at 1 worker; traced {:.3} s \
         at {traced_workers}",
        a.wall_s, c.wall_s, b.wall_s
    );
    println!(
        "{:<36} {:>14} {:<9} {:<22} should move",
        "metric", "value", "unit", "layer"
    );
    for x in &m {
        let (layer, moves) = LAYER_MAP
            .iter()
            .find(|(n, _, _)| *n == x.name)
            .map_or(("obs counter", "counts only"), |&(_, l, s)| (l, s));
        println!(
            "{:<36} {:>14.6} {:<9} {:<22} {moves}",
            x.name, x.value, x.unit, layer
        );
    }
    (tally, m)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let workers = nproc();
    let mut setup_s = Vec::new();
    let Some(w) = time_setups(&args, SETUPS, &mut setup_s) else {
        eprintln!(
            "error: unknown workload '{}' (serve-soak, fleet-ladder or plant-replay)",
            args.workload
        );
        return ExitCode::FAILURE;
    };
    if args.print_reference {
        let r = w.round(workers);
        if r.failed > 0 {
            eprintln!("error: the round failed: {:?}", r.problems);
            return ExitCode::FAILURE;
        }
        print!("{}", r.outputs.to_lines(&args.workload, args.seed));
        return ExitCode::SUCCESS;
    }
    println!(
        "{}",
        common::conditions(&args.workload, args.seed, &w.config(), workers)
    );
    let (tally, metrics) = if args.trace {
        per_layer(&args, &w, workers)
    } else {
        end_to_end(&args, &w, &mut setup_s, workers)
    };
    print_result(&tally, &metrics);
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
