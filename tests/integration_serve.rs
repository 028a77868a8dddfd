//! End-to-end tests of the streaming modulation service: the
//! [`liquamod::transient::ResumeState`] golden-JSON round trip (bitwise),
//! the pinned bytes of a session snapshot document, the streamed-equals-
//! one-shot identity, snapshot→restore→continue fidelity through the
//! serialized document, and bitwise determinism of a churning soak across
//! worker counts.
//!
//! Regenerate the snapshot fixture after an *intentional* document change
//! with:
//!
//! ```text
//! LIQUAMOD_REGEN_GOLDEN=1 cargo test --test integration_serve
//! ```

use liquamod::fleet::StackSurrogate;
use liquamod::floorplan::trace::{Phase, PowerTrace};
use liquamod::floorplan::FluxGrid;
use liquamod::json::Json;
use liquamod::mpsoc::{arch_trace, ArchSpec, MpsocConfig, MpsocLoad, MpsocTrace};
use liquamod::prelude::PowerLevel;
use liquamod::serve::{
    run_soak, soak_outcomes_match, verify_snapshot_restore, verify_streaming_identity,
    ServeOptions, ServePool, SessionSnapshot, SoakPlan,
};
use liquamod::thermal_model::WidthProfile;
use liquamod::transient::{ModulationPolicy, ResumeState};
use liquamod::units::Length;
use liquamod::{BudgetPolicy, CoreError, DegradedKind, DesignWarmStart, OptimizationConfig};
use liquamod_repro::golden;
use proptest::prelude::*;

/// The fleet tests' small-but-real per-stack configuration: 20 channel
/// columns in 2 groups, 11 cells along the flow, 2-segment profiles.
fn small_config() -> MpsocConfig {
    MpsocConfig {
        optimizer: OptimizationConfig {
            segments: 2,
            mesh_intervals: 32,
            ..OptimizationConfig::fast()
        },
        nx: 20,
        nz: 11,
        n_groups: 2,
        ..MpsocConfig::fast()
    }
}

fn serve_options(workers: usize, planned_capacity: usize) -> ServeOptions {
    ServeOptions {
        config: small_config(),
        policy: ModulationPolicy::every(6),
        budget_policy: BudgetPolicy::GradientWaterfill,
        avg_scale: 1.0,
        planned_capacity,
        workers,
    }
}

#[test]
fn resume_state_golden_json_round_trips_bitwise() {
    // Adversarial numerics: negative zero, a subnormal, a shortest-repr
    // torture value, and a full warm-start chain.
    let state = ResumeState {
        state: vec![300.15, -0.0, f64::MIN_POSITIVE / 4.0, 0.1 + 0.2, 1.0 / 3.0],
        widths: vec![
            vec![
                WidthProfile::Uniform(Length::from_micrometers(100.0)),
                WidthProfile::piecewise_constant(vec![
                    Length::from_micrometers(53.7),
                    Length::from_micrometers(87.1),
                ]),
            ],
            vec![WidthProfile::piecewise_linear(vec![
                Length::from_micrometers(50.0),
                Length::from_micrometers(66.6),
                Length::from_micrometers(100.0),
            ])],
        ],
        warm: Some(DesignWarmStart {
            x: vec![0.3, -1.5e-7, 2.0 / 7.0],
            inequality_multipliers: vec![0.0, 4.25],
            equality_multipliers: vec![-3.5e-2],
            penalty: 10.0,
        }),
        last_gradient_k: 6.125 + 1e-13,
    };
    let doc = state.to_golden_json();
    let back = ResumeState::from_golden_json(&doc).unwrap();
    assert_eq!(back.state.len(), state.state.len());
    for (a, b) in back.state.iter().zip(&state.state) {
        assert_eq!(a.to_bits(), b.to_bits(), "state channel must be bitwise");
    }
    assert_eq!(
        back.widths, state.widths,
        "profiles must reconstruct exactly"
    );
    let (wa, wb) = (back.warm.clone().unwrap(), state.warm.unwrap());
    for (a, b) in wa.x.iter().zip(&wb.x) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(wa.inequality_multipliers, wb.inequality_multipliers);
    assert_eq!(wa.equality_multipliers, wb.equality_multipliers);
    assert_eq!(wa.penalty.to_bits(), wb.penalty.to_bits());
    assert_eq!(
        back.last_gradient_k.to_bits(),
        state.last_gradient_k.to_bits()
    );
    // And the re-rendered document is byte-identical: serialize ∘ parse is
    // the identity on documents, not just on values.
    assert_eq!(back.to_golden_json(), doc);
}

/// A hand-built session snapshot touching every branch of the document:
/// all three width-profile kinds, negative zero and a subnormal in the node
/// temperatures, a warm start with an empty multiplier array, a predictor
/// partway through its fit and a recorded closing power. No solver runs,
/// so the pinned bytes do not depend on the platform's libm.
fn pinned_snapshot() -> SessionSnapshot {
    SessionSnapshot {
        session_id: 11,
        arch: ArchSpec::Arch2,
        segments_done: 3,
        clock_seconds: 3.0 * 0.032,
        predictor: StackSurrogate {
            slope_k_per_scale: -7.25 + 1e-13,
            last_share: 1.0 / 3.0,
            last_gradient_k: 4.25,
            observed: true,
        },
        last_power_w: Some(123.456789 + 1e-10),
        resume: Some(ResumeState {
            state: vec![300.15, -0.0, f64::MIN_POSITIVE / 4.0, 0.1 + 0.2, 1.0 / 3.0],
            widths: vec![
                vec![
                    WidthProfile::Uniform(Length::from_micrometers(100.0)),
                    WidthProfile::piecewise_constant(vec![
                        Length::from_micrometers(53.7),
                        Length::from_micrometers(87.1),
                    ]),
                ],
                vec![WidthProfile::piecewise_linear(vec![
                    Length::from_micrometers(50.0),
                    Length::from_micrometers(66.6),
                    Length::from_micrometers(100.0),
                ])],
            ],
            warm: Some(DesignWarmStart {
                x: vec![0.3, -1.5e-7, 2.0 / 7.0],
                inequality_multipliers: vec![],
                equality_multipliers: vec![-3.5e-2],
                penalty: 12.345678,
            }),
            last_gradient_k: 6.125 + 1e-13,
        }),
    }
}

/// The session snapshot document is pinned byte for byte: the writer must
/// reproduce the fixture exactly, and the fixture must parse back to the
/// same bits (negative zero and the subnormal included).
#[test]
fn session_snapshot_bytes_match_the_golden_fixture() {
    let snapshot = pinned_snapshot();
    golden::check(
        "serve_snapshot.json",
        &snapshot.to_golden_json(),
        |expected, actual| {
            assert_eq!(
                actual, expected,
                "the snapshot writer drifted from its fixture"
            );
            let parsed = SessionSnapshot::from_golden_json(expected).unwrap();
            assert_eq!(parsed, snapshot);
            assert_eq!(parsed.to_golden_json(), expected);
            let state = &parsed.resume.as_ref().unwrap().state;
            assert_eq!(state[1].to_bits(), (-0.0f64).to_bits());
            assert_eq!(state[2].to_bits(), (f64::MIN_POSITIVE / 4.0).to_bits());
        },
    );
}

// ---- the strict reader under adversarial input -------------------------

/// Two documents the reader fuzz runs over: the pinned snapshot and a
/// golden fleet fixture.
fn fuzz_documents() -> [String; 2] {
    [
        pinned_snapshot().to_golden_json(),
        std::fs::read_to_string(golden::path("faults_pump_ramp.json")).unwrap(),
    ]
}

/// Whether two values carry the same bits (NaN matches NaN).
fn same_bits(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Number(x, _), Json::Number(y, _)) => {
            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
        }
        (Json::Array(x), Json::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same_bits(x, y))
        }
        (Json::Object(x), Json::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((k, x), (l, y))| k == l && same_bits(x, y))
        }
        _ => a == b,
    }
}

/// The reader's contract on any input, at the document level and through
/// the session-snapshot schema: a typed `InvalidDocument` error, or a value
/// that re-renders and re-parses to the same bits.
fn assert_typed_error_or_round_trip(text: &str) {
    match Json::parse(text) {
        Err(CoreError::InvalidDocument { .. }) => {}
        Err(e) => panic!("untyped error {e:?} for {text:?}"),
        Ok(value) => {
            let rendered = value.to_document();
            let again = Json::parse(&rendered).expect("a rendered document re-parses");
            assert!(same_bits(&value, &again), "{text:?} did not round-trip");
        }
    }
    match SessionSnapshot::from_golden_json(text) {
        Err(CoreError::InvalidDocument { .. }) => {}
        Err(e) => panic!("untyped error {e:?} for {text:?}"),
        Ok(snapshot) => {
            let doc = snapshot.to_golden_json();
            let again =
                SessionSnapshot::from_golden_json(&doc).expect("a written snapshot re-reads");
            assert_eq!(again.to_golden_json(), doc, "{text:?} did not round-trip");
        }
    }
}

fn rejected(text: &str) -> bool {
    matches!(
        SessionSnapshot::from_golden_json(text),
        Err(CoreError::InvalidDocument { .. })
    )
}

/// The pinned snapshot with `key`'s value text replaced by `value`.
fn with_value(key: &str, value: &str) -> String {
    let doc = pinned_snapshot().to_golden_json();
    let tag = format!("\"{key}\": ");
    let start = doc.find(&tag).unwrap() + tag.len();
    let end = start + doc[start..].find([',', '\n']).unwrap();
    format!("{}{value}{}", &doc[..start], &doc[end..])
}

#[test]
fn truncated_documents_are_typed_errors() {
    for doc in fuzz_documents() {
        let close = doc.rfind('}').unwrap();
        for cut in 0..=doc.len() {
            let prefix = &doc[..cut];
            assert_typed_error_or_round_trip(prefix);
            if cut <= close {
                assert!(Json::parse(prefix).is_err(), "prefix {cut} parsed");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn single_byte_mutations_never_panic(at in 0usize..1_000_000, byte in 0usize..128) {
        for doc in fuzz_documents() {
            let mut bytes = doc.into_bytes();
            let at = at % bytes.len();
            bytes[at] = byte as u8;
            let text = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            assert_typed_error_or_round_trip(&text);
        }
    }
}

#[test]
fn duplicated_keys_are_typed_errors() {
    for doc in fuzz_documents() {
        let Json::Object(members) = Json::parse(&doc).unwrap() else {
            panic!("not an object");
        };
        for (key, _) in &members {
            let duplicate = doc.replacen("{\n", &format!("{{\n  \"{key}\": \"other\",\n"), 1);
            assert!(Json::parse(&duplicate).is_err(), "duplicate {key} accepted");
            assert_typed_error_or_round_trip(&duplicate);
        }
    }
}

#[test]
fn reordered_members_restore_the_same_snapshot() {
    let doc = pinned_snapshot().to_golden_json();
    let Json::Object(mut members) = Json::parse(&doc).unwrap() else {
        panic!("not an object");
    };
    members.reverse();
    let reordered = Json::Object(members).to_document();
    assert_ne!(reordered, doc);
    let back = SessionSnapshot::from_golden_json(&reordered).unwrap();
    assert_eq!(back.to_golden_json(), doc);
}

#[test]
fn non_finite_and_malformed_number_tokens() {
    let doc = pinned_snapshot().to_golden_json();
    let Json::Object(members) = Json::parse(&doc).unwrap() else {
        panic!("not an object");
    };
    for (key, value) in &members {
        if !matches!(value, Json::Number(..)) {
            continue;
        }
        for token in ["NaN", "inf", "-inf"] {
            assert_typed_error_or_round_trip(&with_value(key, token));
        }
        for token in ["+Infinity", "Infinity", "nan", "01", "1.", ".5"] {
            assert!(rejected(&with_value(key, token)), "{key}: {token} accepted");
        }
    }
    // A non-finite clock is a value, not a malformed token: it survives
    // the document as written.
    let nan_clock = SessionSnapshot::from_golden_json(&with_value("clock_seconds", "NaN")).unwrap();
    assert!(nan_clock.clock_seconds.is_nan());
}

#[test]
fn spliced_trailing_and_deeply_nested_documents_are_typed_errors() {
    for doc in fuzz_documents() {
        let nested = format!("{{\"nested\": {}}}", doc.trim_end());
        assert!(rejected(&nested));
        assert_typed_error_or_round_trip(&nested);
        for tail in ["x", "{}", ",", "\u{0}", doc.as_str()] {
            let trailing = format!("{doc}{tail}");
            assert!(
                Json::parse(&trailing).is_err(),
                "trailing {tail:?} accepted"
            );
            assert_typed_error_or_round_trip(&trailing);
        }
    }
    let deep = "[".repeat(100_000);
    assert!(matches!(
        Json::parse(&deep),
        Err(CoreError::InvalidDocument { .. })
    ));
    assert!(rejected(&format!("{{\"state\": {deep}")));
}

// The five ways the first-textual-match scanner used to accept a broken
// snapshot, each a typed error now.

#[test]
fn snapshot_truncated_inside_its_last_number_is_rejected() {
    let doc = pinned_snapshot().to_golden_json();
    let cut = doc.find("1.2345678e1").unwrap() + "1.23".len();
    assert!(rejected(&doc[..cut]));
}

#[test]
fn snapshot_with_a_second_clock_seconds_is_rejected() {
    let doc = pinned_snapshot().to_golden_json();
    let twice = doc.replace(
        "  \"resume_present\"",
        "  \"clock_seconds\": 9.9e1,\n  \"resume_present\"",
    );
    assert!(rejected(&twice));
}

#[test]
fn snapshot_with_trailing_garbage_is_rejected() {
    let doc = pinned_snapshot().to_golden_json();
    assert!(rejected(&format!("{doc}garbage")));
}

#[test]
fn snapshot_body_inside_a_nested_object_is_rejected() {
    let doc = pinned_snapshot().to_golden_json();
    assert!(rejected(&format!(
        "{{\n  \"inner\": {}}}\n",
        doc.trim_end()
    )));
}

#[test]
fn snapshot_with_plus_infinity_is_rejected() {
    assert!(rejected(&with_value("clock_seconds", "+Infinity")));
}

#[test]
fn resume_state_rejects_malformed_documents() {
    let good = ResumeState {
        state: vec![1.0],
        widths: vec![vec![WidthProfile::Uniform(Length::from_micrometers(80.0))]],
        warm: None,
        last_gradient_k: 0.0,
    }
    .to_golden_json();
    assert!(ResumeState::from_golden_json(&good).is_ok());
    assert!(ResumeState::from_golden_json("{}").is_err());
    assert!(ResumeState::from_golden_json(&good.replace("\"state\"", "\"stale\"")).is_err());
    // An unknown width-kind code must not reconstruct silently.
    assert!(ResumeState::from_golden_json(
        &good.replace("\"width_kinds\": [0e0]", "\"width_kinds\": [7e0]")
    )
    .is_err());
    // Counts whose sum overflows are a typed error, not a panic or a
    // wrapped total that happens to match.
    let huge = format!("{:e}", 2f64.powi(63));
    let overflowing = good
        .replace(
            "\"width_cavity_counts\": [1e0]",
            &format!("\"width_cavity_counts\": [{huge}, {huge}, 2e0]"),
        )
        .replace(
            "\"width_value_counts\": [1e0]",
            &format!("\"width_value_counts\": [{huge}, 2e0]"),
        );
    assert!(matches!(
        ResumeState::from_golden_json(&overflowing),
        Err(CoreError::InvalidDocument { .. })
    ));
}

#[test]
fn streaming_decisions_match_one_shot_run_bitwise() {
    let config = small_config();
    // 12-step phases against a 6-step epoch cadence: the streamed segment
    // boundaries land exactly on one-shot epoch steps.
    let identity = verify_streaming_identity(
        &config,
        ModulationPolicy::every(6),
        ArchSpec::Arch1,
        &[PowerLevel::Average, PowerLevel::Peak],
        12.0 * config.dt_seconds,
    )
    .unwrap();
    assert_eq!(identity.steps, 24);
    assert!(identity.epochs >= 2, "the cadence must actually fire");
    assert!(
        identity.bitwise,
        "streamed trajectory diverged from one-shot by {} K",
        identity.max_abs_diff_k
    );
    assert_eq!(identity.max_abs_diff_k, 0.0);
}

#[test]
fn snapshot_restore_continues_the_stream_within_1e9() {
    let config = small_config();
    let fidelity = verify_snapshot_restore(
        &config,
        ModulationPolicy::every(6),
        ArchSpec::Arch2,
        &[
            PowerLevel::Average,
            PowerLevel::Peak,
            PowerLevel::Average,
            PowerLevel::Peak,
        ],
        6.0 * config.dt_seconds,
    )
    .unwrap();
    assert_eq!(fidelity.steps, 24);
    assert!(
        fidelity.json_round_trip,
        "the snapshot document must re-serialize byte-identically"
    );
    assert!(fidelity.snapshot_bytes > 0);
    assert!(
        fidelity.max_abs_diff_k <= 1e-9,
        "restored continuation diverged by {} K",
        fidelity.max_abs_diff_k
    );
    // The JSON round trip is bitwise, so the contract actually holds
    // exactly, not just at the gate tolerance.
    assert!(fidelity.bitwise);
}

#[test]
fn live_session_snapshot_with_warm_chain_survives_the_document() {
    // Run one real phase so the snapshot carries a ResumeState with an
    // adopted epoch's warm start, then round-trip the full document.
    let mut pool = ServePool::new(ServeOptions::single(
        small_config(),
        ModulationPolicy::every(6),
    ))
    .unwrap();
    let id = pool.open(ArchSpec::Arch3).unwrap();
    pool.submit_level(id, PowerLevel::Peak, 6.0 * small_config().dt_seconds)
        .unwrap();
    let batch = pool.drain_batch().unwrap();
    assert_eq!(batch.decisions.len(), 1);
    let snapshot = pool.snapshot(id).unwrap();
    assert_eq!(snapshot.segments_done, 1);
    let resume = snapshot.resume.as_ref().expect("one segment was served");
    assert!(!resume.state.is_empty());
    let doc = snapshot.to_golden_json();
    let parsed = SessionSnapshot::from_golden_json(&doc).unwrap();
    assert_eq!(parsed.to_golden_json(), doc);
    assert_eq!(parsed.arch, ArchSpec::Arch3);
    let restored = parsed.resume.expect("resume state rides along");
    assert_eq!(restored.state.len(), resume.state.len());
    for (a, b) in restored.state.iter().zip(&resume.state) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(restored.widths, resume.widths);
    assert_eq!(restored.warm.is_some(), resume.warm.is_some());
}

/// The predictive allocator's per-session surrogate survives a restart
/// *mid-fit*: a pool under `BudgetPolicy::Predictive` is snapshotted
/// through the JSON document after two served batches (slope fitted, last
/// power recorded, one phase still queued), restored into a fresh pool,
/// and the continuation reproduces the uninterrupted pool's decisions
/// bitwise.
#[test]
fn restore_mid_surrogate_fit_continues_the_predictive_stream_bitwise() {
    let config = small_config();
    let phase = 6.0 * config.dt_seconds;
    let options = || ServeOptions {
        config: small_config(),
        policy: ModulationPolicy::every(6),
        budget_policy: BudgetPolicy::Predictive,
        avg_scale: 0.9,
        planned_capacity: 2,
        workers: 1,
    };
    // Alternating peak/average streams, all three phases queued up front,
    // so every batch allocates with real submitted-but-undrained lookahead.
    let levels = [PowerLevel::Peak, PowerLevel::Average, PowerLevel::Peak];
    let open_and_queue = |pool: &mut ServePool| -> Vec<u64> {
        [ArchSpec::Arch1, ArchSpec::Arch3]
            .iter()
            .map(|&arch| {
                let id = pool.open(arch).unwrap();
                for &level in &levels {
                    pool.submit_level(id, level, phase).unwrap();
                }
                id
            })
            .collect()
    };

    let mut reference = ServePool::new(options()).unwrap();
    let ids = open_and_queue(&mut reference);
    let mut reference_decisions = Vec::new();
    for _ in 0..3 {
        reference_decisions.extend(reference.drain_batch().unwrap().decisions);
    }

    // The interrupted twin: serve two of the three batches, then restart.
    let mut interrupted = ServePool::new(options()).unwrap();
    assert_eq!(open_and_queue(&mut interrupted), ids);
    let mut decisions = Vec::new();
    for _ in 0..2 {
        decisions.extend(interrupted.drain_batch().unwrap().decisions);
    }
    let mut resumed = ServePool::new(options()).unwrap();
    for &id in &ids {
        let snapshot = interrupted.snapshot(id).unwrap();
        // The fit must genuinely be in progress when the restart hits.
        assert!(snapshot.predictor.observed, "surrogate never saw feedback");
        assert!(
            snapshot.last_power_w.is_some(),
            "no closing power recorded for the forecast ratio"
        );
        let parsed = SessionSnapshot::from_golden_json(&snapshot.to_golden_json()).unwrap();
        assert_eq!(
            parsed.predictor.slope_k_per_scale.to_bits(),
            snapshot.predictor.slope_k_per_scale.to_bits(),
            "the fitted slope must ride the document bitwise"
        );
        resumed.restore(&parsed).unwrap();
        // Snapshots do not carry the queue: re-submit the undrained phase.
        resumed.submit_level(id, levels[2], phase).unwrap();
    }
    decisions.extend(resumed.drain_batch().unwrap().decisions);

    assert_eq!(decisions.len(), reference_decisions.len());
    for (a, b) in decisions.iter().zip(&reference_decisions) {
        assert_eq!(a.session_id, b.session_id);
        assert_eq!(a.segment, b.segment);
        assert_eq!(
            a.flow_scale.to_bits(),
            b.flow_scale.to_bits(),
            "segment {} of session {}: share {} vs {}",
            a.segment,
            a.session_id,
            a.flow_scale,
            b.flow_scale
        );
        assert_eq!(a.peak_gradient_k.to_bits(), b.peak_gradient_k.to_bits());
        assert_eq!(
            a.peak_temperature_k.to_bits(),
            b.peak_temperature_k.to_bits()
        );
        assert_eq!(a.time_seconds.to_bits(), b.time_seconds.to_bits());
    }
}

#[test]
fn soak_is_bitwise_deterministic_across_worker_counts() {
    let config = small_config();
    let plan = SoakPlan {
        sessions: vec![ArchSpec::Arch1, ArchSpec::Arch2, ArchSpec::Arch3],
        phases_per_session: 2,
        phase_seconds: 6.0 * config.dt_seconds,
        initial_sessions: 2,
        arrivals_per_batch: 1,
        restore_at_batch: Some(1),
    };
    let serial = run_soak(&serve_options(1, 3), &plan).unwrap();
    let parallel = run_soak(&serve_options(4, 3), &plan).unwrap();
    assert_eq!(serial.decisions.len(), 6, "3 sessions × 2 phases");
    assert!(
        soak_outcomes_match(&serial, &parallel),
        "parallel soak must reproduce the serial one bitwise"
    );
    assert_eq!(serial.sessions_served, 3);
    assert_eq!(serial.metrics.decisions, 6);
    assert!(serial.metrics.latency.count() >= 6);
}

#[test]
fn undersubscribed_soak_surfaces_clamp_and_restore_churn() {
    let config = small_config();
    // Provisioned for 4 sessions but only 2 ever arrive (1 up front): the
    // live set never reaches the feasible band, so every arrival and
    // departure revalidation clamps — and the service keeps serving.
    let plan = SoakPlan {
        sessions: vec![ArchSpec::Arch1, ArchSpec::Arch3],
        phases_per_session: 2,
        phase_seconds: 6.0 * config.dt_seconds,
        initial_sessions: 1,
        arrivals_per_batch: 1,
        restore_at_batch: Some(1),
    };
    let outcome = run_soak(&serve_options(2, 4), &plan).unwrap();
    assert_eq!(outcome.decisions.len(), 4, "2 sessions × 2 phases");
    assert_eq!(outcome.sessions_served, 2);
    assert!(
        outcome
            .events
            .iter()
            .any(|e| e.kind == DegradedKind::BudgetClamped),
        "under-subscription must surface budget clamps"
    );
    assert!(
        outcome
            .events
            .iter()
            .all(|e| e.kind != DegradedKind::SessionEvicted),
        "healthy sessions must not be evicted"
    );
    // Restore churn adds a mid-run snapshot on top of the final ones.
    assert!(
        outcome.snapshots.len() >= 3,
        "got {}",
        outcome.snapshots.len()
    );
    assert!(outcome
        .snapshots
        .iter()
        .all(|s| s.segments_done <= plan.phases_per_session));
}

/// The length of every phase the client-boundary tests submit: six steps
/// of `small_config()`'s 2 ms, one epoch of `serve_options`' cadence.
const BOUNDARY_PHASE_SECONDS: f64 = 6.0 * 2e-3;

/// One phase of Arch. 1 at average power on the small grid, with cell
/// `cell` (row-major) of die `die` (0 top, 1 bottom) set to `flux` W/m².
fn poisoned_trace(die: usize, cell: usize, flux: f64) -> MpsocTrace {
    let config = small_config();
    let (nx, nz) = (config.nx, config.nz);
    let healthy =
        MpsocLoad::from_arch(&ArchSpec::Arch1.architecture(), PowerLevel::Average, nx, nz);
    let poison = |grid: &FluxGrid, hit: bool| {
        let (w, d) = (grid.die_width(), grid.die_length());
        FluxGrid::from_fn(nx, nz, w, d, |x, z| {
            // Cell centres map back to their own indices.
            let i = (x.si() / w.si() * nx as f64) as usize;
            let j = (z.si() / d.si() * nz as f64) as usize;
            if hit && j * nx + i == cell {
                flux
            } else {
                grid.flux_w_per_m2(i, j)
            }
        })
    };
    let load = MpsocLoad::new(
        poison(&healthy.top, die == 0),
        poison(&healthy.bottom, die == 1),
    )
    .unwrap();
    PowerTrace::new(vec![Phase {
        label: "poisoned".into(),
        duration_seconds: BOUNDARY_PHASE_SECONDS,
        load,
    }])
    .unwrap()
}

/// A pool with a healthy neighbour session holding one queued phase, plus
/// the session under test (nothing queued).
fn pool_with_neighbour() -> (ServePool, u64, u64) {
    let mut pool = ServePool::new(serve_options(1, 2)).unwrap();
    let neighbour = pool.open(ArchSpec::Arch2).unwrap();
    pool.submit_level(neighbour, PowerLevel::Peak, BOUNDARY_PHASE_SECONDS)
        .unwrap();
    let probe = pool.open(ArchSpec::Arch1).unwrap();
    (pool, neighbour, probe)
}

/// Drains one batch and checks that only the neighbour's decision lands,
/// with no eviction.
fn assert_neighbour_served(pool: &mut ServePool, neighbour: u64) {
    let batch = pool.drain_batch().unwrap();
    let served: Vec<u64> = batch.decisions.iter().map(|d| d.session_id).collect();
    assert_eq!(served, vec![neighbour]);
    assert!(batch.events.is_empty(), "events: {:?}", batch.events);
}

#[test]
fn submit_refuses_non_finite_or_negative_flux() {
    let (mut pool, neighbour, probe) = pool_with_neighbour();
    // The grid's min/max folds skip a NaN, so the scan must see every cell.
    for flux in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -100.0e4] {
        for (die, cell) in [(0, 0), (1, 219), (0, 117)] {
            let refused = pool.submit(probe, poisoned_trace(die, cell, flux));
            assert!(
                matches!(refused, Err(CoreError::InvalidConfig { .. })),
                "flux {flux} at die {die} cell {cell}: {refused:?}"
            );
        }
    }
    assert_eq!(pool.queue_depth(probe).unwrap(), 0);
    assert_eq!(pool.pending_total(), 1, "only the neighbour's phase");
    assert_neighbour_served(&mut pool, neighbour);
    // A healthy grid of the same construction is accepted.
    let healthy = poisoned_trace(0, 0, 1.0e4);
    pool.submit(probe, healthy).unwrap();
    assert_eq!(pool.queue_depth(probe).unwrap(), 1);
}

#[test]
fn submit_boundary_cases_refuse_without_touching_the_queue() {
    let (mut pool, neighbour, probe) = pool_with_neighbour();
    for duration in [0.0, -BOUNDARY_PHASE_SECONDS, f64::NAN, f64::INFINITY] {
        let refused = pool.submit_level(probe, PowerLevel::Peak, duration);
        assert!(
            matches!(refused, Err(CoreError::InvalidConfig { .. })),
            "duration {duration}: {refused:?}"
        );
    }
    // A grid rasterized at another resolution than the pool's.
    let config = small_config();
    let wrong = arch_trace(
        &ArchSpec::Arch1.architecture(),
        &[PowerLevel::Peak],
        BOUNDARY_PHASE_SECONDS,
        config.nx / 2,
        config.nz,
    );
    assert!(matches!(
        pool.submit(probe, wrong),
        Err(CoreError::InvalidConfig { .. })
    ));
    assert_eq!(pool.queue_depth(probe).unwrap(), 0);
    assert_neighbour_served(&mut pool, neighbour);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_poisoned_cell_is_refused_at_submit(
        die in 0usize..2,
        cell in 0usize..220,
        kind in 0usize..4,
        magnitude in 1.0e-3f64..1.0e7,
    ) {
        let flux = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -magnitude][kind];
        let mut pool = ServePool::new(serve_options(1, 1)).unwrap();
        let id = pool.open(ArchSpec::Arch1).unwrap();
        let refused = pool.submit(id, poisoned_trace(die, cell, flux));
        prop_assert!(matches!(refused, Err(CoreError::InvalidConfig { .. })));
        prop_assert_eq!(pool.queue_depth(id).unwrap(), 0);
    }
}

/// A real snapshot of a closed Arch. 1 session after one served phase on
/// `serve_options`' stacks, renumbered to an id no test pool uses: its
/// resume state carries the pool's node state, adopted widths and a warm
/// start, so a copy with one field broken has exactly one defect.
fn served_snapshot() -> SessionSnapshot {
    let mut pool = ServePool::new(serve_options(1, 1)).unwrap();
    let id = pool.open(ArchSpec::Arch1).unwrap();
    pool.submit_level(id, PowerLevel::Peak, BOUNDARY_PHASE_SECONDS)
        .unwrap();
    assert_eq!(pool.drain_batch().unwrap().decisions.len(), 1);
    let mut snapshot = pool.close(id).unwrap();
    let resume = snapshot.resume.as_ref().expect("one phase was served");
    assert!(resume.warm.is_some(), "the first epoch was adopted");
    snapshot.session_id = 40;
    snapshot
}

/// `restore` checks every snapshot field the pool reads: a copy of a real
/// snapshot with one field broken is refused with the pool unchanged,
/// where it used to be admitted and then evicted, panic a worker, or stop
/// every later batch.
#[test]
fn restore_refuses_snapshots_that_do_not_fit_the_pool() {
    let (mut pool, neighbour, probe) = pool_with_neighbour();
    pool.close(probe).unwrap();
    let fits = served_snapshot();
    fn resume(s: &mut SessionSnapshot) -> &mut ResumeState {
        s.resume.as_mut().unwrap()
    }
    fn warm(s: &mut SessionSnapshot) -> &mut DesignWarmStart {
        resume(s).warm.as_mut().unwrap()
    }
    fn width(um: f64) -> WidthProfile {
        WidthProfile::uniform(Length::from_micrometers(um))
    }
    type Defect = fn(&mut SessionSnapshot);
    let defects: [(&str, Defect); 20] = [
        (
            "3 profiles in the first cavity instead of the pool's 2 groups",
            |s| {
                resume(s).widths = vec![vec![width(50.0); 3], vec![width(50.0); 2]];
            },
        ),
        ("one cavity instead of two", |s| {
            resume(s).widths = vec![vec![width(50.0); 2]];
        }),
        ("one profile short in the second cavity", |s| {
            resume(s).widths = vec![vec![width(50.0); 2], vec![width(50.0)]];
        }),
        ("a NaN width in a piecewise profile", |s| {
            let nan = [
                Length::from_micrometers(40.0),
                Length::from_meters(f64::NAN),
            ];
            resume(s).widths[1][1] = WidthProfile::piecewise_constant(nan.to_vec());
        }),
        ("a width of -50 um", |s| {
            resume(s).widths[0][1] = width(-50.0)
        }),
        ("a width of 150 um, beyond the pitch", |s| {
            resume(s).widths[1][0] = width(150.0);
        }),
        ("a 5-node state", |s| resume(s).state.truncate(5)),
        ("a NaN node temperature", |s| resume(s).state[17] = f64::NAN),
        ("a NaN last gradient", |s| {
            resume(s).last_gradient_k = f64::NAN
        }),
        ("an infinite last gradient", |s| {
            resume(s).last_gradient_k = f64::INFINITY;
        }),
        ("a warm start of dimension 3", |s| warm(s).x.truncate(3)),
        ("a NaN warm-start coordinate", |s| warm(s).x[0] = f64::NAN),
        ("1 of 4 pressure-cap multipliers", |s| {
            warm(s).inequality_multipliers.truncate(1);
        }),
        ("0 of 4 equal-pressure multipliers", |s| {
            warm(s).equality_multipliers.clear();
        }),
        ("a NaN penalty", |s| warm(s).penalty = f64::NAN),
        ("a penalty of -5", |s| warm(s).penalty = -5.0),
        ("a NaN clock", |s| s.clock_seconds = f64::NAN),
        ("a NaN last power", |s| s.last_power_w = Some(f64::NAN)),
        ("a NaN predictor slope", |s| {
            s.predictor.slope_k_per_scale = f64::NAN;
        }),
        // `next_id` must advance past the restored id.
        ("the largest session id", |s| s.session_id = u64::MAX),
    ];
    let state = |pool: &ServePool| {
        (
            pool.session_ids(),
            pool.pending_total(),
            pool.metrics().clone(),
        )
    };
    let before = state(&pool);
    let mut admitted = Vec::new();
    for (what, defect) in defects {
        let mut snapshot = fits.clone();
        defect(&mut snapshot);
        match pool.restore(&snapshot) {
            Err(CoreError::InvalidDocument { .. }) => {}
            other => admitted.push(format!("{what}: {other:?}")),
        }
        assert_eq!(
            state(&pool),
            before,
            "{what}: a refused restore leaves the pool unchanged"
        );
    }
    assert!(admitted.is_empty(), "restored misfits: {admitted:#?}");
    // The neighbour's queued phase is still served, with no eviction.
    assert_neighbour_served(&mut pool, neighbour);
    // The real snapshot fits and is admitted.
    assert_eq!(pool.restore(&fits).unwrap(), 40);
}
