//! `telemetry_check` — CI validator for the run's durable artifacts.
//!
//! ```text
//! telemetry_check <report.json> [trace.json]
//! telemetry_check --checkpoint-dir <dir>
//! telemetry_check --service <service-report.json> [trace.json]
//! telemetry_check --slo [--min-disk-hit-rate X] <service-report.json> [trace.json]
//! ```
//!
//! A `--report-json` file is checked against the run report's field
//! tables (`gplu_core::telemetry::RUN_REPORT` and the tables it nests),
//! a `serve --stress --service-report` file (`--service`) against the
//! service report's (`gplu_server::report::SERVICE_REPORT`): every field
//! present with its kind, the exact schema version, and every cross-field
//! rule. A `--trace-out` file must be a balanced, time-ordered Chrome
//! trace whose every event checks against the writer's field table
//! (`gplu_trace::CHROME_EVENT`, host `wall_ns` stamp included) and whose
//! `numeric.level` ends say how each level launched. With
//! `--checkpoint-dir`, validates a `gplu factorize --checkpoint-dir`
//! directory instead: every `snap-*.ckpt` in it decodes, and the
//! latest-valid-wins load succeeds.
//!
//! `--slo` is the CI gate: the `--service` checks, and the report MUST
//! carry the observability sections, the SLO verdict must be `pass`, and
//! no cost-model span kind may be drift-flagged. `--min-disk-hit-rate X`
//! additionally gates the restart rescue rate — the fraction of
//! pattern-building jobs served from the host/disk tiers instead of a
//! cold symbolic pass — which a rewarmed same-workload rerun should
//! drive close to 1.0.
//!
//! Every failure message names the first failing location as a JSON
//! pointer (`/latency/sim_p95_ns`) after the file path, and exits 1. A
//! usage error prints the usage and exits 2.

use gplu_checkpoint::{CheckpointStore, KeyKind, Seq};
use gplu_cli::{fraction, parse_flags, put, write_flags, CliError, Flag, Rule};
use gplu_core::{check_run_report, HOST_REASONS, SCHEMA_VERSION};
use gplu_server::{check_service_report, SERVICE_SCHEMA_VERSION};
use gplu_trace::{json, JsonValue, CHROME_EVENT};
use std::process::ExitCode;

/// What the command line asks for.
#[derive(Default)]
struct Options {
    service: bool,
    slo: bool,
    checkpoint_dir: bool,
    min_disk_hit_rate: Option<f64>,
    /// The arguments that are not flags or flag values.
    paths: Vec<String>,
}

static FLAGS: &[Flag<Options>] = &[
    Flag {
        usage: "--service",
        help: "the report is a `gplu serve --stress --service-report` file",
        set: |o, _| put(&mut o.service, Ok(true)),
    },
    Flag {
        usage: "--slo",
        help: "as --service, and gate: observability sections present, SLO verdict \
               `pass`, no drift-flagged span kind",
        set: |o, _| put(&mut o.slo, Ok(true)),
    },
    Flag {
        usage: "--checkpoint-dir",
        help: "validate the one path as a `gplu factorize --checkpoint-dir` directory",
        set: |o, _| put(&mut o.checkpoint_dir, Ok(true)),
    },
    Flag {
        usage: "--min-disk-hit-rate <X>",
        help: "with --slo: fail when less than X of the pattern-building jobs \
               were served from the host/disk cache tiers",
        set: |o, v| put(&mut o.min_disk_hit_rate, fraction(v).map(Some)),
    },
];

static RULES: &[Rule<Options>] = &[
    (
        |o| u8::from(o.service) + u8::from(o.slo) + u8::from(o.checkpoint_dir) > 1,
        "--service, --slo and --checkpoint-dir exclude each other",
    ),
    (
        |o| o.min_disk_hit_rate.is_some() && !o.slo,
        "--min-disk-hit-rate needs --slo",
    ),
    (
        |o| o.checkpoint_dir && o.paths.len() != 1,
        "--checkpoint-dir takes exactly one directory",
    ),
    (
        |o| !o.checkpoint_dir && !(1..=2).contains(&o.paths.len()),
        "give one report and at most one trace",
    ),
];

fn usage() -> String {
    let mut out = String::from(
        "usage: telemetry_check [--service | --slo [--min-disk-hit-rate X]] \
         <report.json> [trace.json]\n       telemetry_check --checkpoint-dir <dir>\n",
    );
    write_flags(&mut out, "\nflags:\n", FLAGS);
    out
}

/// Separates the paths from the flags (and their values), then reads the
/// flags.
fn parse(args: &[String]) -> Result<Options, CliError> {
    let mut o = Options::default();
    let mut flags = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            o.paths.push(arg.clone());
            continue;
        }
        flags.push(arg.clone());
        if FLAGS.iter().any(|f| f.name() == arg && f.usage != f.name()) {
            flags.extend(args.next().cloned());
        }
    }
    parse_flags(&[FLAGS], RULES, &flags, &mut o)?;
    Ok(o)
}

/// How a numeric level started, on the arguments of a trace's
/// `numeric.level` end: `launch` is `host` or `continue` (an in-kernel
/// dependency wait — a numeric level is never a child launch), and
/// exactly the host launches say why the host was there.
fn check_launch(level: &JsonValue, at: &str) -> Result<(), String> {
    let field = |key: &str| level.get(key).and_then(JsonValue::as_str);
    match (field("launch"), field("host_reason")) {
        (Some("continue"), None) => Ok(()),
        (Some("host"), Some(why)) if HOST_REASONS.contains(&why) => Ok(()),
        (launch, why) => Err(format!("{at}: launch {launch:?} with host_reason {why:?}")),
    }
}

fn check_trace(doc: &JsonValue) -> Result<String, String> {
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or("/traceEvents: missing or not an array")?;
    if events.is_empty() {
        return Err("/traceEvents: no events".into());
    }

    let mut last_ts = f64::NEG_INFINITY;
    let mut open: Vec<&str> = Vec::new();
    let mut spans = 0usize;
    for (i, e) in events.iter().enumerate() {
        json::check(CHROME_EVENT, &[], e).map_err(|err| format!("/traceEvents/{i}{err}"))?;
        let ts = e.number_at("/ts");
        if ts < last_ts {
            return Err(format!("/traceEvents/{i}/ts: decreases ({ts} < {last_ts})"));
        }
        last_ts = ts;
        let name = e
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or_default();
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
            _ => {}
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

/// The SLO/drift CI gate over a valid service report: the observability
/// sections are mandatory, the SLO verdict must pass, and no span kind
/// may be drift-flagged. With `min_disk_hit_rate`, the tiered-cache
/// rescue rate is gated too (the persistence CI job's warm-restart floor).
fn check_slo(doc: &JsonValue, min_disk_hit_rate: Option<f64>) -> Result<String, String> {
    check_service_report(doc)?;
    for section in ["/metrics", "/tenants", "/slo", "/drift"] {
        doc.pointer(section)
            .ok_or(format!("{section}: section missing"))?;
    }
    if doc.pointer("/slo/pass") != Some(&JsonValue::Bool(true)) {
        let first = doc
            .pointer("/slo/violations/0")
            .and_then(JsonValue::as_str)
            .unwrap_or("unspecified violation");
        return Err(format!("/slo/pass: false ({first})"));
    }
    let kinds = doc.array_at("/drift/kinds");
    for (i, row) in kinds.iter().enumerate() {
        if row.get("flagged") == Some(&JsonValue::Bool(true)) {
            let kind = row.get("kind").and_then(JsonValue::as_str).unwrap_or("?");
            return Err(format!(
                "/drift/kinds/{i}/flagged: cost model drifted {:.1}% on span kind `{kind}`",
                row.number_at("/drift") * 100.0
            ));
        }
    }
    let mut rescue_note = String::new();
    if let Some(floor) = min_disk_hit_rate {
        // Pattern-building jobs rescued by the host/disk cache tiers
        // instead of paying a cold symbolic pass.
        let rescued = doc.number_at("/jobs/warm_host") + doc.number_at("/jobs/warm_disk");
        let rescue = rescued / (doc.number_at("/jobs/cold") + rescued).max(1.0);
        if rescue < floor {
            return Err(format!(
                "/jobs/warm_disk: tier rescue rate {rescue:.3} below the {floor:.3} floor \
                 (restart did not rewarm)"
            ));
        }
        rescue_note = format!(", tier rescue rate {rescue:.3} >= {floor:.3}");
    }
    Ok(format!(
        "service report ok: schema v{SERVICE_SCHEMA_VERSION}; slo pass, {} drift kinds in \
         calibration{rescue_note}",
        kinds.len()
    ))
}

/// Validates a checkpoint directory: every snapshot in it decodes, and
/// the latest-valid-wins load the pipeline itself would perform on
/// `--resume` succeeds.
fn check_checkpoint_dir(dir: &str) -> Result<String, String> {
    let dir = std::path::Path::new(dir);
    // Opening a store creates its directory; a validator must not.
    if !dir.is_dir() {
        return Err("not a directory".into());
    }
    let store = CheckpointStore::open(dir).map_err(|e| e.to_string())?;
    let seqs = store.keys().map_err(|e| format!("keys: {e}"))?;
    for &seq in &seqs {
        store
            .load(seq)
            .map_err(|e| format!("{}: {e}", Seq::file_name(seq)))?;
    }
    let (seq, snap) = store
        .load_latest()
        .map_err(|e| format!("load_latest: {e}"))?
        .ok_or("no snapshot in the directory")?;
    Ok(format!(
        "checkpoint directory ok: {} snapshot(s), latest seq {seq} ({} sections)",
        seqs.len(),
        snap.section_ids().len()
    ))
}

/// Validates the `i`th path of `o` and says what it found there.
fn check(o: &Options, i: usize) -> Result<String, String> {
    let path = &o.paths[i];
    if o.checkpoint_dir {
        return check_checkpoint_dir(path);
    }
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    match i {
        1 => check_trace(&doc),
        _ if o.slo => check_slo(&doc, o.min_disk_hit_rate),
        _ if o.service => check_service_report(&doc)
            .map(|()| format!("service report ok: schema v{SERVICE_SCHEMA_VERSION}")),
        _ => check_run_report(&doc).map(|()| format!("report ok: schema v{SCHEMA_VERSION}")),
    }
}

/// Checks every path; the exit code: 0 valid, 1 invalid, 2 a usage error.
fn run(args: &[String]) -> u8 {
    let o = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("usage error: {e}\n\n{}", usage());
            return 2;
        }
    };
    for (i, path) in o.paths.iter().enumerate() {
        match check(&o, i) {
            Ok(msg) => println!("{path}: {msg}"),
            Err(msg) => {
                eprintln!("telemetry_check: {path}: {msg}");
                return 1;
            }
        }
    }
    0
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(run(&args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn paths_and_flags_mix_and_usage_errors_exit_2() {
        // A third path is a usage error, not ignored.
        assert_eq!(run(&args("a.json b.json c.json")), 2);
        // A floor after the path is still read as the floor.
        let o = parse(&args("--slo r.json --min-disk-hit-rate 0.5")).expect("parses");
        assert_eq!((o.min_disk_hit_rate, o.paths), (Some(0.5), args("r.json")));
        assert_eq!(run(&args("--service --min-disk-hit-rate 0.5 r.json")), 2);
        assert_eq!(run(&args("--slo --min-disk-hit-rate 2 r.json")), 2);
        assert_eq!(run(&args("--checkpoint-dir a b")), 2);
        // A missing checkpoint directory fails, and is not created.
        assert_eq!(run(&args("--checkpoint-dir no/such/dir")), 1);
        assert!(!std::path::Path::new("no/such/dir").exists());
        assert_eq!(run(&args("--service")), 2);
        // A failed validation exits 1.
        assert_eq!(run(&args("no/such/report.json")), 1);
    }
}
