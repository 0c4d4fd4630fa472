//! `telemetry_check` — CI validator for the run's durable artifacts.
//!
//! ```text
//! telemetry_check <report.json> [trace.json]
//! telemetry_check --manifest <checkpoint-dir>
//! telemetry_check --service <service-report.json> [trace.json]
//! telemetry_check --slo [--min-disk-hit-rate X] <service-report.json> [trace.json]
//! ```
//!
//! Checks that a `--report-json` file is schema-versioned, internally
//! consistent (the phase totals add up), and carries per-level records,
//! and that a `--trace-out` file is a balanced, time-ordered Chrome
//! trace. With `--manifest`, validates a `--checkpoint-dir` instead:
//! the manifest parses, every listed snapshot exists with the advertised
//! size and whole-file hash, every snapshot passes its own structural
//! checks, and the latest-valid-wins load succeeds. With `--service`,
//! validates a `gplu serve --stress --service-report` file: schema
//! version, all sections present (tiered cache, fleet scheduler), job
//! totals consistent, hit rates in range, percentiles ordered, and the
//! observability sections (metrics registry, SLO verdict, drift table)
//! structurally sound when present. `--slo` is the CI gate: all the
//! `--service` checks, and additionally the report MUST carry the
//! observability sections, the SLO verdict must be `pass`, and no
//! cost-model span kind may be drift-flagged; `--min-disk-hit-rate X`
//! additionally gates the restart rescue rate — the fraction of
//! pattern-building jobs served from the host/disk tiers instead of a
//! cold symbolic pass — which a rewarmed same-workload rerun should
//! drive close to 1.0. Run reports from `--devices` runs carry an
//! optional `fleet` object whose per-device timings and death list are
//! checked against the device count.
//!
//! Each validator accepts exactly the schema version its writer emits
//! (`gplu_core::SCHEMA_VERSION`, `gplu_server::SERVICE_SCHEMA_VERSION`).
//!
//! Every failure message names the first failing location as a JSON
//! pointer (`/latency/sim_p95_ns`), and the caller prefixes the file
//! path — so CI logs point straight at the offending field.

use gplu_checkpoint::{xxh64, CheckpointStore, Snapshot};
use gplu_core::SCHEMA_VERSION;
use gplu_server::SERVICE_SCHEMA_VERSION;
use gplu_trace::{json, JsonValue, MetricsRegistry};
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("telemetry_check: {msg}");
    ExitCode::FAILURE
}

/// Walks a JSON pointer (object keys and array indices, `/a/b/0/c`).
fn lookup<'a>(doc: &'a JsonValue, ptr: &str) -> Option<&'a JsonValue> {
    ptr.split('/')
        .filter(|s| !s.is_empty())
        .try_fold(doc, |d, key| match d {
            JsonValue::Arr(items) => key.parse::<usize>().ok().and_then(|i| items.get(i)),
            _ => d.get(key),
        })
}

/// A required numeric field, failure message = its JSON pointer.
fn num_at(doc: &JsonValue, ptr: &str) -> Result<f64, String> {
    lookup(doc, ptr)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("{ptr}: missing or not a number"))
}

/// A required section, failure message = its JSON pointer.
fn section_at<'a>(doc: &'a JsonValue, ptr: &str) -> Result<&'a JsonValue, String> {
    lookup(doc, ptr).ok_or_else(|| format!("{ptr}: section missing"))
}

/// How a numeric level started, on the arguments of a trace's
/// `numeric.level` end: `launch` is `host` or `continue` (an in-kernel
/// dependency wait — a numeric level is never a child launch), and
/// exactly the host launches say why the host was there.
fn check_launch(level: &JsonValue, at: &str) -> Result<(), String> {
    let field = |key: &str| level.get(key).and_then(JsonValue::as_str);
    const REASONS: [&str; 5] = ["kickoff", "hook", "split", "reentry", "reshard"];
    match (field("launch"), field("host_reason")) {
        (Some("continue"), None) => Ok(()),
        (Some("host"), Some(why)) if REASONS.contains(&why) => Ok(()),
        (launch, why) => Err(format!("{at}: launch {launch:?} with host_reason {why:?}")),
    }
}

fn check_report(doc: &JsonValue) -> Result<String, String> {
    let version = num_at(doc, "/schema_version")? as u64;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "/schema_version: version {version}, expected {SCHEMA_VERSION}"
        ));
    }

    let total = num_at(doc, "/phases/total_ns")?;
    let sum = num_at(doc, "/phases/preprocess_ns")?
        + num_at(doc, "/phases/symbolic_ns")?
        + num_at(doc, "/phases/levelize_ns")?
        + num_at(doc, "/phases/numeric_ns")?;
    if (total - sum).abs() > 1e-9 {
        return Err(format!(
            "/phases/total_ns: {total} != phase sum {sum} (diff {})",
            (total - sum).abs()
        ));
    }

    let levels = section_at(doc, "/levels")?
        .as_arr()
        .ok_or("/levels: not an array")?;
    if levels.is_empty() {
        return Err("/levels: no per-level records".into());
    }
    let mut gemm_tile_sum = 0.0f64;
    for (i, l) in levels.iter().enumerate() {
        for key in ["level", "width", "duration_ns"] {
            if l.get(key).and_then(JsonValue::as_f64).is_none() {
                return Err(format!("/levels/{i}/{key}: missing or not a number"));
            }
        }
        // Blocked-engine counters are optional per level, but when present
        // they must be coherent: a level reporting blocks must carry
        // a mean width of at least one column.
        if let Some(blocks) = l.get("blocks").and_then(JsonValue::as_f64) {
            let mean = l.get("mean_block_width").and_then(JsonValue::as_f64);
            if blocks > 0.0 && mean.is_none_or(|w| w < 1.0) {
                return Err(format!(
                    "/levels/{i}/mean_block_width: {blocks} blocks but width {mean:?}"
                ));
            }
        }
        gemm_tile_sum += l
            .get("gemm_tiles")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
    }
    let total_tiles = num_at(doc, "/numeric/gemm_tiles")?;
    if gemm_tile_sum > total_tiles {
        return Err(format!(
            "/numeric/gemm_tiles: per-level sum {gemm_tile_sum} exceeds total {total_tiles}"
        ));
    }

    for section in ["matrix", "symbolic", "schedule", "numeric", "fill", "gpu"] {
        section_at(doc, &format!("/{section}"))?;
    }

    // `--devices` runs attach a fleet object; when present it must be
    // internally consistent with its own device count.
    let mut fleet_note = String::new();
    if let Some(fleet) = doc.get("fleet") {
        let devices = num_at(fleet, "/devices").map_err(|e| format!("/fleet{e}"))? as u64;
        if devices == 0 {
            return Err("/fleet/devices: zero devices".into());
        }
        let per_device = |key: &str| -> Result<Vec<f64>, String> {
            let arr = section_at(fleet, &format!("/{key}"))
                .map_err(|e| format!("/fleet{e}"))?
                .as_arr()
                .ok_or(format!("/fleet/{key}: not an array"))?;
            if arr.len() as u64 != devices {
                return Err(format!(
                    "/fleet/{key}: {} entries for {devices} devices",
                    arr.len()
                ));
            }
            let ns = arr.iter().map(JsonValue::as_f64).collect::<Option<_>>();
            ns.ok_or(format!("/fleet/{key}: not all numbers"))
        };
        // Busy time is the clock advance less barrier waits: never more.
        let (elapsed, busy) = (
            per_device("per_device_ns")?,
            per_device("per_device_busy_ns")?,
        );
        if let Some(d) = (0..elapsed.len()).find(|&d| !(0.0..=elapsed[d]).contains(&busy[d])) {
            return Err(format!(
                "/fleet/per_device_busy_ns/{d}: {} outside 0..={} (the clock advance)",
                busy[d], elapsed[d]
            ));
        }
        let dead = section_at(fleet, "/dead")
            .map_err(|e| format!("/fleet{e}"))?
            .as_arr()
            .ok_or("/fleet/dead: not an array")?;
        for (i, d) in dead.iter().enumerate() {
            match d.as_f64() {
                Some(v) if (v as u64) < devices => {}
                _ => {
                    return Err(format!(
                        "/fleet/dead/{i}: not a device ordinal below {devices}"
                    ))
                }
            }
        }
        if dead.len() as u64 >= devices {
            return Err(format!(
                "/fleet/dead: all {devices} devices dead yet the run completed"
            ));
        }
        for key in [
            "resharded_rows",
            "resharded_cols",
            "exchanges",
            "exchange_bytes",
            "exchange_ns",
        ] {
            num_at(fleet, &format!("/{key}")).map_err(|e| format!("/fleet{e}"))?;
        }
        // Device deaths without resharded work would mean lost columns.
        if !dead.is_empty() {
            let resharded = num_at(fleet, "/resharded_rows")? + num_at(fleet, "/resharded_cols")?;
            if resharded == 0.0 {
                return Err("/fleet/resharded_cols: devices died but nothing resharded".into());
            }
        }
        fleet_note = format!(", fleet of {devices} ({} dead)", dead.len());
    }

    Ok(format!(
        "report ok: schema v{version}, total {total} ns, {} levels{fleet_note}",
        levels.len()
    ))
}

fn check_trace(doc: &JsonValue) -> Result<String, String> {
    let events = section_at(doc, "/traceEvents")?
        .as_arr()
        .ok_or("/traceEvents: not an array")?;
    if events.is_empty() {
        return Err("/traceEvents: no events".into());
    }

    let mut last_ts = f64::NEG_INFINITY;
    let mut open: Vec<&str> = Vec::new();
    let mut spans = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ts = e
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("/traceEvents/{i}/ts: missing"))?;
        if ts < last_ts {
            return Err(format!("/traceEvents/{i}/ts: decreases ({ts} < {last_ts})"));
        }
        last_ts = ts;
        let name = e
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("/traceEvents/{i}/name: missing"))?;
        match e.get("ph").and_then(JsonValue::as_str) {
            Some("B") => open.push(name),
            Some("E") => {
                let j = open
                    .iter()
                    .rposition(|n| *n == name)
                    .ok_or_else(|| format!("/traceEvents/{i}/ph: unmatched E for '{name}'"))?;
                open.remove(j);
                spans += 1;
                // A synthetic end closing an aborted span has no arguments.
                if let ("numeric.level", Some(args)) = (name, e.get("args")) {
                    check_launch(args, &format!("/traceEvents/{i}/args"))?;
                }
            }
            Some(_) => {}
            None => return Err(format!("/traceEvents/{i}/ph: missing")),
        }
    }
    if !open.is_empty() {
        return Err(format!(
            "/traceEvents: {} spans left open: {open:?}",
            open.len()
        ));
    }
    if spans == 0 {
        return Err("/traceEvents: no complete spans".into());
    }

    Ok(format!("trace ok: {} events, {spans} spans", events.len()))
}

/// Structural checks on the observability sections, applied to
/// whichever of them are present.
fn check_observability_sections(doc: &JsonValue) -> Result<(), String> {
    if let Some(metrics) = doc.get("metrics") {
        MetricsRegistry::from_json(metrics).map_err(|e| format!("/metrics: {e}"))?;
    }
    if let Some(slo) = doc.get("slo") {
        let p50 = num_at(slo, "/sim_p50_ns").map_err(|e| format!("/slo{e}"))?;
        let p95 = num_at(slo, "/sim_p95_ns").map_err(|e| format!("/slo{e}"))?;
        let p99 = num_at(slo, "/sim_p99_ns").map_err(|e| format!("/slo{e}"))?;
        if !(p50 <= p95 && p95 <= p99) {
            return Err(format!(
                "/slo/sim_p95_ns: quantiles not ordered (p50 {p50}, p95 {p95}, p99 {p99})"
            ));
        }
        let rate = num_at(slo, "/hot_hit_rate").map_err(|e| format!("/slo{e}"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("/slo/hot_hit_rate: {rate} outside 0..1"));
        }
        if lookup(slo, "/pass").and_then(JsonValue::as_bool).is_none() {
            return Err("/slo/pass: missing or not a bool".into());
        }
    }
    if let Some(drift) = doc.get("drift") {
        let kinds = section_at(drift, "/kinds")
            .map_err(|e| format!("/drift{e}"))?
            .as_arr()
            .ok_or("/drift/kinds: not an array")?;
        for (i, row) in kinds.iter().enumerate() {
            if row.get("kind").and_then(JsonValue::as_str).is_none() {
                return Err(format!("/drift/kinds/{i}/kind: missing"));
            }
            for key in [
                "samples",
                "predicted_ns",
                "observed_ns",
                "geomean_ratio",
                "drift",
            ] {
                num_at(row, &format!("/{key}")).map_err(|e| format!("/drift/kinds/{i}{e}"))?;
            }
            if row.get("flagged").and_then(JsonValue::as_bool).is_none() {
                return Err(format!("/drift/kinds/{i}/flagged: missing or not a bool"));
            }
        }
    }
    Ok(())
}

/// The fraction of pattern-building jobs rescued by the host/disk cache
/// tiers instead of paying a cold symbolic pass.
fn disk_rescue_rate(doc: &JsonValue) -> Result<f64, String> {
    let cold = num_at(doc, "/jobs/cold")?;
    let host = num_at(doc, "/jobs/warm_host")?;
    let disk = num_at(doc, "/jobs/warm_disk")?;
    Ok((host + disk) / (cold + host + disk).max(1.0))
}

fn check_service(doc: &JsonValue) -> Result<String, String> {
    let version = num_at(doc, "/service_schema_version")? as u64;
    if version != SERVICE_SCHEMA_VERSION {
        return Err(format!(
            "/service_schema_version: version {version}, expected {SERVICE_SCHEMA_VERSION}"
        ));
    }

    for section in ["jobs", "cache", "latency", "queue", "faults", "robustness"] {
        section_at(doc, &format!("/{section}"))?;
    }

    let submitted = num_at(doc, "/jobs/submitted")?;
    let completed = num_at(doc, "/jobs/completed")?;
    let failed = num_at(doc, "/jobs/failed")?;
    let cancelled = num_at(doc, "/jobs/cancelled")?;
    let deadline = num_at(doc, "/jobs/deadline_dropped")?;
    let resolved = completed + failed + cancelled + deadline;
    if resolved > submitted {
        return Err(format!(
            "/jobs/submitted: {resolved} jobs resolved but only {submitted} submitted"
        ));
    }
    // The warm tier is split by rescue provenance (device, host, disk).
    let by_tier = num_at(doc, "/jobs/cold")?
        + num_at(doc, "/jobs/warm")?
        + num_at(doc, "/jobs/cached_solve")?
        + num_at(doc, "/jobs/warm_host")?
        + num_at(doc, "/jobs/warm_disk")?;
    if (by_tier - completed).abs() > 1e-9 {
        return Err(format!(
            "/jobs/completed: tier counts sum to {by_tier}, not the {completed} completed jobs"
        ));
    }

    let rate = num_at(doc, "/cache/hot_hit_rate")?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("/cache/hot_hit_rate: {rate} outside 0..1"));
    }
    let used = num_at(doc, "/cache/used_bytes")?;
    let budget = num_at(doc, "/cache/budget_bytes")?;
    if used > budget {
        return Err(format!(
            "/cache/used_bytes: {used} exceeds budget_bytes {budget}"
        ));
    }
    for section in ["cache/host", "cache/disk"] {
        section_at(doc, &format!("/{section}"))?;
    }
    let host_used = num_at(doc, "/cache/host/used_bytes")?;
    let host_budget = num_at(doc, "/cache/host/budget_bytes")?;
    if host_used > host_budget {
        return Err(format!(
            "/cache/host/used_bytes: {host_used} exceeds budget_bytes {host_budget}"
        ));
    }
    // A report claiming disk rescues must have the disk tier enabled.
    let disk_hits = num_at(doc, "/cache/disk/hits")?;
    let enabled = lookup(doc, "/cache/disk/enabled")
        .and_then(JsonValue::as_bool)
        .ok_or("/cache/disk/enabled: missing or not a bool")?;
    if disk_hits > 0.0 && !enabled {
        return Err(format!(
            "/cache/disk/hits: {disk_hits} hits reported with the disk tier disabled"
        ));
    }
    num_at(doc, "/jobs/load_shed")?;

    for (p50, p95) in [
        ("/latency/sim_p50_ns", "/latency/sim_p95_ns"),
        ("/latency/wall_p50_ns", "/latency/wall_p95_ns"),
    ] {
        let lo = num_at(doc, p50)?;
        let hi = num_at(doc, p95)?;
        if lo > hi {
            return Err(format!("{p50}: {lo} exceeds {p95} {hi}"));
        }
    }

    let cap = num_at(doc, "/queue/capacity")?;
    let depth = num_at(doc, "/queue/max_depth")?;
    num_at(doc, "/queue/rejections")?;
    if depth > cap {
        return Err(format!("/queue/max_depth: {depth} exceeds capacity {cap}"));
    }

    num_at(doc, "/faults/injected")?;
    num_at(doc, "/faults/jobs_recovered")?;

    let gate_failures = num_at(doc, "/robustness/gate_failures")?;
    num_at(doc, "/robustness/quarantine_rejected")?;
    let quarantined = num_at(doc, "/robustness/quarantined_patterns")?;
    // Every quarantined pattern took at least one recorded strike, so the
    // counters can never invert.
    if quarantined > gate_failures {
        return Err(format!(
            "/robustness/quarantined_patterns: {quarantined} quarantined but only \
             {gate_failures} gate failures"
        ));
    }

    // The fleet scheduler section: per-device placement and hit accounting
    // that must cover every worker-processed job exactly once.
    let fleet = section_at(doc, "/fleet")?;
    let devices = num_at(fleet, "/devices").map_err(|e| format!("/fleet{e}"))?;
    if devices < 1.0 {
        return Err("/fleet/devices: zero devices".into());
    }
    if lookup(fleet, "/degraded")
        .and_then(JsonValue::as_bool)
        .is_none()
    {
        return Err("/fleet/degraded: missing or not a bool".into());
    }
    let per = section_at(fleet, "/per_device")
        .map_err(|e| format!("/fleet{e}"))?
        .as_arr()
        .ok_or("/fleet/per_device: not an array")?;
    if per.len() as f64 != devices {
        return Err(format!(
            "/fleet/per_device: {} entries for {devices} devices",
            per.len()
        ));
    }
    let mut placed = 0.0f64;
    for (i, row) in per.iter().enumerate() {
        for key in [
            "device",
            "jobs",
            "queued",
            "hot_jobs",
            "hot_hits",
            "plan_bytes",
        ] {
            num_at(row, &format!("/{key}")).map_err(|e| format!("/fleet/per_device/{i}{e}"))?;
        }
        let device_rate =
            num_at(row, "/hot_hit_rate").map_err(|e| format!("/fleet/per_device/{i}{e}"))?;
        if !(0.0..=1.0).contains(&device_rate) {
            return Err(format!(
                "/fleet/per_device/{i}/hot_hit_rate: {device_rate} outside 0..1"
            ));
        }
        let hits = num_at(row, "/hot_hits")?;
        let hot_jobs = num_at(row, "/hot_jobs")?;
        if hits > hot_jobs {
            return Err(format!(
                "/fleet/per_device/{i}/hot_hits: {hits} exceeds hot_jobs {hot_jobs}"
            ));
        }
        if row.get("dead").and_then(JsonValue::as_bool).is_none() {
            return Err(format!("/fleet/per_device/{i}/dead: missing or not a bool"));
        }
        placed += num_at(row, "/jobs")?;
    }
    // A device can only finish jobs that were actually submitted.
    if placed > submitted {
        return Err(format!(
            "/fleet/per_device: devices finished {placed} jobs but only \
             {submitted} were submitted"
        ));
    }

    check_observability_sections(doc)?;

    Ok(format!(
        "service report ok: schema v{version}, {submitted} submitted, \
         {completed} completed, hot hit rate {rate:.3}"
    ))
}

/// The SLO/drift CI gate: all `--service` checks, plus the observability
/// sections are mandatory, the SLO verdict must pass, and no span kind
/// may be drift-flagged. With `min_disk_hit_rate`, the tiered-cache
/// rescue rate is gated too (the persistence CI job's warm-restart floor).
fn check_slo(doc: &JsonValue, min_disk_hit_rate: Option<f64>) -> Result<String, String> {
    let base = check_service(doc)?;
    for section in ["metrics", "tenants", "slo", "drift"] {
        section_at(doc, &format!("/{section}"))?;
    }
    let pass = lookup(doc, "/slo/pass")
        .and_then(JsonValue::as_bool)
        .ok_or("/slo/pass: missing or not a bool")?;
    if !pass {
        let first = lookup(doc, "/slo/violations/0")
            .and_then(JsonValue::as_str)
            .unwrap_or("unspecified violation");
        return Err(format!("/slo/pass: false ({first})"));
    }
    let kinds = lookup(doc, "/drift/kinds")
        .and_then(JsonValue::as_arr)
        .ok_or("/drift/kinds: not an array")?;
    for (i, row) in kinds.iter().enumerate() {
        if row.get("flagged") == Some(&JsonValue::Bool(true)) {
            let kind = row.get("kind").and_then(JsonValue::as_str).unwrap_or("?");
            let drift = row.get("drift").and_then(JsonValue::as_f64).unwrap_or(0.0);
            return Err(format!(
                "/drift/kinds/{i}/flagged: cost model drifted {:.1}% on span kind `{kind}`",
                drift * 100.0
            ));
        }
    }
    let mut rescue_note = String::new();
    if let Some(floor) = min_disk_hit_rate {
        let rescue = disk_rescue_rate(doc)?;
        if rescue < floor {
            return Err(format!(
                "/jobs/warm_disk: tier rescue rate {rescue:.3} below the {floor:.3} floor \
                 (restart did not rewarm)"
            ));
        }
        rescue_note = format!(", tier rescue rate {rescue:.3} >= {floor:.3}");
    }
    let samples = num_at(doc, "/slo/samples")?;
    Ok(format!(
        "{base}; slo pass over {samples} windowed jobs, {} drift kinds in calibration{rescue_note}",
        kinds.len()
    ))
}

/// Validates a checkpoint directory: manifest ↔ files ↔ checksums ↔
/// structural snapshot decode, plus the latest-valid-wins load the
/// pipeline itself would perform on `--resume`.
fn check_manifest(dir: &str) -> Result<String, String> {
    let dir = std::path::Path::new(dir);
    let store = CheckpointStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let entries = store
        .read_manifest()
        .map_err(|e| format!("manifest: {e}"))?
        .ok_or("manifest: missing (no manifest.json in the directory)")?;
    if entries.is_empty() {
        return Err("manifest: empty (no snapshots listed)".into());
    }
    let mut last_seq = None;
    for e in &entries {
        if let Some(prev) = last_seq {
            if e.seq <= prev {
                return Err(format!(
                    "manifest: sequence numbers not strictly increasing ({prev} then {})",
                    e.seq
                ));
            }
        }
        last_seq = Some(e.seq);
        let path = dir.join(&e.file);
        let data = std::fs::read(&path).map_err(|err| format!("{}: {err}", path.display()))?;
        if data.len() as u64 != e.bytes {
            return Err(format!(
                "{}: size {} disagrees with manifest ({})",
                e.file,
                data.len(),
                e.bytes
            ));
        }
        let actual = xxh64(&data, 0);
        if actual != e.xxh64 {
            return Err(format!(
                "{}: whole-file hash {actual:016x} disagrees with manifest {:016x}",
                e.file, e.xxh64
            ));
        }
        Snapshot::from_bytes(&data).map_err(|err| format!("{}: {err}", e.file))?;
    }
    let (seq, snap) = store
        .load_latest()
        .map_err(|e| format!("load_latest: {e}"))?
        .ok_or("load_latest: no snapshot found despite a populated manifest")?;
    Ok(format!(
        "manifest ok: {} snapshot(s), latest seq {seq} ({} sections)",
        entries.len(),
        snap.section_ids().len()
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--manifest") {
        let Some(dir) = args.get(1) else {
            return fail("usage: telemetry_check --manifest <checkpoint-dir>");
        };
        return match check_manifest(dir) {
            Ok(msg) => {
                println!("{dir}: {msg}");
                ExitCode::SUCCESS
            }
            Err(msg) => fail(&format!("{dir}: {msg}")),
        };
    }
    if let Some(mode @ ("--service" | "--slo")) = args.first().map(String::as_str) {
        let mut rest = &args[1..];
        let mut min_disk_hit_rate = None;
        if rest.first().map(String::as_str) == Some("--min-disk-hit-rate") {
            let Some(raw) = rest.get(1) else {
                return fail("--min-disk-hit-rate needs a value in 0..1");
            };
            match raw.parse::<f64>() {
                Ok(v) if (0.0..=1.0).contains(&v) => min_disk_hit_rate = Some(v),
                _ => return fail(&format!("--min-disk-hit-rate: `{raw}` is not in 0..1")),
            }
            if mode != "--slo" {
                return fail("--min-disk-hit-rate is only valid with --slo");
            }
            rest = &rest[2..];
        }
        let service_check: Check = if mode == "--slo" {
            Box::new(move |doc| check_slo(doc, min_disk_hit_rate))
        } else {
            Box::new(check_service)
        };
        let Some(report_path) = rest.first() else {
            return fail(&format!(
                "usage: telemetry_check {mode} [--min-disk-hit-rate X] \
                 <service-report.json> [trace.json]"
            ));
        };
        let checks: Vec<(&String, Check)> = match rest.get(1) {
            Some(trace_path) => vec![
                (report_path, service_check),
                (trace_path, Box::new(check_trace)),
            ],
            None => vec![(report_path, service_check)],
        };
        return run_checks(checks);
    }
    let Some(report_path) = args.first() else {
        return fail(
            "usage: telemetry_check <report.json> [trace.json] | --manifest <dir> | \
             --service <service-report.json> [trace.json] | \
             --slo <service-report.json> [trace.json]",
        );
    };

    let checks: Vec<(&String, Check)> = match args.get(1) {
        Some(trace_path) => vec![
            (report_path, Box::new(check_report) as Check),
            (trace_path, Box::new(check_trace)),
        ],
        None => vec![(report_path, Box::new(check_report) as Check)],
    };
    run_checks(checks)
}

type Check = Box<dyn Fn(&JsonValue) -> Result<String, String>>;

fn run_checks(checks: Vec<(&String, Check)>) -> ExitCode {
    for (path, check) in checks {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail(&format!("{path}: {e}")),
        };
        let doc = match json::parse(&text) {
            Ok(d) => d,
            Err(e) => return fail(&format!("{path}: invalid JSON: {e}")),
        };
        match check(&doc) {
            Ok(msg) => println!("{path}: {msg}"),
            Err(msg) => return fail(&format!("{path}: {msg}")),
        }
    }
    ExitCode::SUCCESS
}
