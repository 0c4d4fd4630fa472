//! End-to-end telemetry contract: every numeric format and a
//! fault-injected recovery run must produce (a) a JSON run report that
//! parses back through the hand-rolled parser, passes the report's own
//! schema check, and whose phase total matches the in-process
//! [`PhaseReport`] exactly, and (b) a Chrome trace with non-decreasing
//! timestamps and balanced B/E events. A malformed report is rejected
//! with the JSON pointer of the field at fault.

mod common;

use common::{config_for, gpu_for, gpu_with_plan, mutated};
use gplu_core::{
    check_run_report, LuFactorization, LuOptions, NumericFormat, PivotPolicy, RunReport,
    SymbolicEngine, DEFAULT_PIVOT_TAU,
};
use gplu_sim::{CostModel, DeviceFleet, FaultPlan, Gpu};
use gplu_sparse::gen::circuit::{circuit, CircuitParams};
use gplu_sparse::gen::hard::HardKind;
use gplu_sparse::gen::random::random_dominant;
use gplu_sparse::Csr;
use gplu_trace::{chrome_trace, json, JsonValue, Recorder, TraceEvent};

fn traced_run(gpu: &Gpu, a: &Csr, opts: &LuOptions) -> (LuFactorization, Vec<TraceEvent>) {
    let recorder = Recorder::new();
    let f = LuFactorization::compute_traced(gpu, a, opts, &recorder).expect("pipeline ok");
    (f, recorder.into_events())
}

/// The acceptance contract: report totals equal `PhaseReport::total()` to
/// 1e-9 ns, per-level records exist, and the trace is ordered and
/// balanced.
fn check_artifacts(f: &LuFactorization, events: &[TraceEvent], label: &str) {
    assert!(!events.is_empty(), "{label}: no events recorded");

    // --- JSON report round-trip.
    let run = RunReport::new(
        f.preprocessed.n_rows(),
        f.preprocessed.nnz(),
        f.report.clone(),
        events,
    );
    let text = run.to_json_string();
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{label}: report reparse: {e}"));

    check_run_report(&doc).unwrap_or_else(|e| panic!("{label}: {e}"));
    let total_json = doc.number_at("/phases/total_ns");
    assert!(
        (total_json - f.report.total().as_ns()).abs() <= 1e-9,
        "{label}: report total {total_json} != PhaseReport::total() {}",
        f.report.total().as_ns()
    );
    assert_eq!(
        doc.array_at("/levels").len(),
        f.report.n_levels,
        "{label}: one record per schedule level"
    );
    // Why a level paid a host launch is on its span end: here only the
    // kick-off does, it is the numeric phase's one launch, and every later
    // level continues its kernel behind an in-kernel dependency wait.
    let launches: Vec<_> = events
        .iter()
        .filter(|e| e.name == "numeric.level")
        .filter_map(|e| e.attr("launch")?.as_str())
        .collect();
    let reasons: Vec<_> = events
        .iter()
        .filter_map(|e| e.attr("host_reason")?.as_str())
        .collect();
    assert_eq!(launches.len(), f.report.n_levels, "{label}");
    assert_eq!(
        (launches[0], reasons.as_slice()),
        ("host", &["kickoff"][..])
    );
    assert!(launches[1..].iter().all(|&l| l == "continue"), "{label}");
    let numeric = &f.report.phase_stats.numeric;
    assert_eq!(
        (numeric.kernels_host, numeric.kernels_device),
        (1, 0),
        "{label}"
    );
    assert!(
        numeric.dependency_waits as usize >= f.report.n_levels - 1,
        "{label}"
    );
    // Levelize is three host launches (`cons_graph`, `cnt_indegree`,
    // `Topo`), Topo's one child launch, and two in-kernel waits per Kahn
    // wavefront — one wavefront per level.
    let levelize = &f.report.phase_stats.levelize;
    assert_eq!(
        (
            levelize.kernels_host,
            levelize.kernels_device,
            levelize.dependency_waits
        ),
        (3, 1, 2 * f.report.n_levels as u64),
        "{label}"
    );

    // --- Chrome trace: ordered and balanced.
    let trace = chrome_trace(events);
    let doc = json::parse(&trace).unwrap_or_else(|e| panic!("{label}: trace reparse: {e}"));
    let list = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents");
    assert!(!list.is_empty(), "{label}: empty trace");

    let mut last_ts = f64::NEG_INFINITY;
    let mut open: Vec<&str> = Vec::new();
    for (i, e) in list.iter().enumerate() {
        let ts = e.get("ts").and_then(JsonValue::as_f64).expect("ts");
        assert!(
            ts >= last_ts,
            "{label}: ts decreases at event {i}: {ts} < {last_ts}"
        );
        last_ts = ts;
        let name = e.get("name").and_then(JsonValue::as_str).expect("name");
        match e.get("ph").and_then(JsonValue::as_str).expect("ph") {
            "B" => open.push(name),
            "E" => {
                let j = open
                    .iter()
                    .rposition(|n| *n == name)
                    .unwrap_or_else(|| panic!("{label}: unmatched E '{name}' at {i}"));
                open.remove(j);
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "{label}: spans left open: {open:?}");
}

#[test]
fn all_numeric_formats_produce_valid_artifacts() {
    let a = random_dominant(250, 4.0, 310);
    for format in [
        NumericFormat::Auto,
        NumericFormat::Dense,
        NumericFormat::Sparse,
        NumericFormat::SparseMerge,
    ] {
        let opts = LuOptions {
            format,
            ..Default::default()
        };
        let gpu = gpu_for(&a);
        let (f, events) = traced_run(&gpu, &a, &opts);
        check_artifacts(&f, &events, &format!("{format:?}"));
    }
}

#[test]
fn fault_injected_run_produces_valid_artifacts_and_recovery_instants() {
    let a = random_dominant(200, 4.0, 311);
    let opts = LuOptions {
        symbolic: SymbolicEngine::Ooc,
        ..Default::default()
    };
    // Ordinal 3 is the symbolic state chunk: the engine backs off its
    // chunk size and recovers.
    let gpu = gpu_with_plan(&a, FaultPlan::new().oom_on_alloc(3));
    let (f, events) = traced_run(&gpu, &a, &opts);
    assert!(
        !f.report.recovery.is_empty(),
        "fault plan must trigger recovery"
    );
    check_artifacts(&f, &events, "faulted");

    // Every recovery action appears as a `recovery` instant with both
    // attributes populated.
    let instants: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "recovery").collect();
    assert_eq!(
        instants.len(),
        f.report.recovery.len(),
        "one instant per recovery action"
    );
    for i in &instants {
        assert!(i.attr("phase").is_some() && i.attr("action").is_some());
    }
}

#[test]
fn phase_spans_cover_the_whole_run() {
    let a = random_dominant(200, 4.0, 312);
    let gpu = gpu_for(&a);
    let (f, events) = traced_run(&gpu, &a, &LuOptions::default());

    for phase in [
        "phase.preprocess",
        "phase.symbolic",
        "phase.levelize",
        "phase.numeric",
    ] {
        let begins = events
            .iter()
            .filter(|e| e.name == phase && e.kind == gplu_trace::EventKind::Begin)
            .count();
        let ends = events
            .iter()
            .filter(|e| e.name == phase && e.kind == gplu_trace::EventKind::End)
            .count();
        assert_eq!((begins, ends), (1, 1), "{phase} span must appear once");
    }

    // The per-phase snapshot deltas are populated: the symbolic phase ran
    // kernels, and the phase stats' clock deltas sum to the report total.
    let stats = &f.report.phase_stats;
    assert!(stats.symbolic.kernels_host + stats.symbolic.kernels_device > 0);
    let stats_total =
        stats.preprocess.now + stats.symbolic.now + stats.levelize.now + stats.numeric.now;
    assert!(
        (stats_total.as_ns() - f.report.total().as_ns()).abs() <= 1e-6,
        "phase snapshot clocks {} must cover the report total {}",
        stats_total,
        f.report.total()
    );
}

/// The run report of `gplu factorize` on `gplu gen circuit 500 6`, on
/// `devices` devices under `faults`.
fn circuit_report(devices: usize, faults: &str) -> JsonValue {
    let a = circuit(&CircuitParams {
        n: 500,
        nnz_per_row: 6.0,
        seed: 42,
        ..Default::default()
    });
    let plans = FaultPlan::parse_fleet(faults, devices).expect("fault plan");
    let cfg = config_for(&a);
    let fleet = DeviceFleet::with_fault_plans(devices, cfg, CostModel::default(), &plans);
    let recorder = Recorder::new();
    let opts = LuOptions::default();
    let f = match devices {
        1 => LuFactorization::compute_traced(fleet.device(0), &a, &opts, &recorder),
        _ => LuFactorization::compute_fleet_traced(&fleet, &a, &opts, &recorder),
    }
    .expect("pipeline ok");
    let events = recorder.into_events();
    let run = RunReport::new(a.n_rows(), a.nnz(), f.report, &events);
    json::parse(&run.to_json_string()).expect("report parses")
}

/// The run report of a factorization under threshold pivoting that
/// swaps rows and expands the filled pattern to cover them.
fn swapping_report() -> JsonValue {
    let a = HardKind::NearSingular.generate(200, 3);
    let opts = LuOptions::default().with_pivot(PivotPolicy::Threshold {
        tau: DEFAULT_PIVOT_TAU,
    });
    let recorder = Recorder::new();
    let f = LuFactorization::compute_traced(&gpu_for(&a), &a, &opts, &recorder).expect("pivoted");
    let events = recorder.into_events();
    let run = RunReport::new(a.n_rows(), a.nnz(), f.report, &events);
    let doc = json::parse(&run.to_json_string()).expect("report parses");
    assert!(doc.number_at("/pivot/swaps") > 0.0, "the matrix must swap");
    assert!(doc.number_at("/pivot/pattern_expanded") > 0.0, "and expand");
    doc
}

/// Each malformed report is rejected, and the error starts with `blames`.
fn assert_rejected(doc: &JsonValue, cases: &[(&str, Option<&str>, &str)]) {
    check_run_report(doc).expect("the real report is valid");
    for &(ptr, value, blames) in cases {
        let bad = mutated(doc, ptr, value);
        match check_run_report(&bad) {
            Ok(()) => panic!("{ptr} = {value:?}: accepted"),
            Err(e) => assert!(e.starts_with(blames), "{ptr} = {value:?}: {e}"),
        }
    }
}

#[test]
fn malformed_run_reports_are_rejected_at_their_pointer() {
    let one = circuit_report(1, "");
    assert_rejected(
        &one,
        &[
            ("/schema_version", Some("2.7"), "/schema_version"),
            ("/matrix", Some("{}"), "/matrix"),
            ("/matrix/n", Some("-5"), "/matrix/n"),
            ("/gpu", Some("{}"), "/gpu"),
            ("/symbolic/iterations", None, "/symbolic/iterations"),
            ("/numeric/probes", Some("\"lots\""), "/numeric/probes"),
            ("/levels/0/mode", Some("7"), "/levels/0/mode"),
            ("/levels/0/width", Some("-3"), "/levels/0/width"),
            ("/recovery", Some("\"none\""), "/recovery"),
        ],
    );
    // Only a pass that ran threshold-pivot discovery carries `pivot`.
    assert_eq!(one.pointer("/pivot"), None);
    assert_rejected(
        &swapping_report(),
        &[
            ("/pivot", Some("[]"), "/pivot"),
            ("/pivot/swaps", Some("-1"), "/pivot/swaps"),
            ("/pivot/discovery_ns", None, "/pivot/discovery_ns"),
        ],
    );
    let four = circuit_report(4, "dev=2:oom:alloc=1");
    assert_eq!(
        four.pointer("/fleet/dead"),
        Some(&json::parse("[2]").unwrap())
    );
    assert_rejected(
        &four,
        &[
            ("/fleet/dead", Some("[-1]"), "/fleet/dead"),
            ("/fleet/dead", Some("[2.5]"), "/fleet/dead"),
            ("/fleet/dead", Some("[2,2,2]"), "/fleet/dead"),
            ("/fleet/devices", Some("4.5"), "/fleet/devices"),
        ],
    );
}

#[test]
fn every_run_report_rule_rejects_its_violation() {
    let one = circuit_report(1, "");
    assert_rejected(
        &one,
        &[
            ("/phases/total_ns", Some("1"), "/phases/total_ns"),
            ("/levels", Some("[]"), "/levels"),
            ("/levels/0/gemm_tiles", Some("5"), "/numeric/gemm_tiles"),
            ("/levels/0/blocks", Some("3"), "/levels/0/mean_block_width"),
        ],
    );
    let four = circuit_report(4, "dev=2:oom:alloc=1");
    assert_rejected(
        &four,
        &[
            ("/fleet/devices", Some("0"), "/fleet/devices"),
            (
                "/fleet/per_device_ns",
                Some("[1, 2]"),
                "/fleet/per_device_ns",
            ),
            (
                "/fleet/per_device_busy_ns",
                Some("[0]"),
                "/fleet/per_device_busy_ns",
            ),
            (
                "/fleet/per_device_busy_ns/1",
                Some("1e30"),
                "/fleet/per_device_busy_ns/1",
            ),
            ("/fleet/dead", Some("[0, 4]"), "/fleet/dead/1"),
            ("/fleet/dead", Some("[0, 1, 2, 3]"), "/fleet/dead"),
            ("/fleet/resharded_rows", Some("0"), "/fleet/resharded_cols"),
        ],
    );
    assert_rejected(
        &swapping_report(),
        &[("/pivot/swaps", Some("0"), "/pivot/pattern_expanded")],
    );
}
