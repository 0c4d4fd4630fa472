//! One run: set-up, passes, checks, and the printed result.
//!
//! Timed run (`--trace 0`): set-up three times (the median is `setup_s`),
//! then at least seven passes and at least `--seconds` of timed wall with
//! tracing off. Traced run (`--trace 1`): one set-up, three traced passes
//! with the layered replay, one untraced reference pass; spans are written
//! once, when the run ends.

use crate::metrics::{per_layer, END_TO_END, PER_LAYER};
use crate::stats::{median, supported_tail};
use crate::trace::{spans_json, Layers, Tracer};
use crate::workloads::{build, OpOut, Workload};
use crate::{alloc, clock};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Fewest timed passes in a run.
pub const MIN_PASSES: usize = 7;
/// Set-ups per timed run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Traced passes in a traced run.
pub const TRACED_PASSES: usize = 3;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run reports on its last line.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // `{:?}` prints every digit an f64 has and never `NaN`-free
            // shorthand; non-finite values cannot occur (ratios guard
            // their denominators).
            write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        s.push_str("}}");
        s
    }
}

/// A workload ready for timed passes.
struct SetUp {
    workload: Box<dyn Workload>,
    /// The warm-up pass's outcomes.
    warm: Vec<OpOut>,
    seconds: f64,
}

/// Builds the workload and runs the warm-up pass that completes set-up.
fn set_up(name: &str, seed: u64) -> Result<SetUp, String> {
    let t0 = Instant::now();
    let mut workload = build(name, seed).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let warm = workload.pass();
    Ok(SetUp {
        workload,
        warm,
        seconds: t0.elapsed().as_secs_f64(),
    })
}

/// The commit the checkout is at, read from `.git` without running git;
/// `unknown` outside a repository (the driver's checkouts are not one).
pub fn git_revision() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
                return rev.trim().to_string();
            }
            if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
                if let Some(line) = packed.lines().find(|l| l.ends_with(reference)) {
                    return line.split(' ').next().unwrap_or("unknown").to_string();
                }
            }
            return "unknown".into();
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    "unknown".into()
}

fn header(args: &RunArgs, passes: usize) -> String {
    use crate::workloads::serve_mix::{CLIENTS, WORKERS};
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = if args.workload == "serve_mix" {
        format!("{CLIENTS} client threads, {WORKERS} service workers")
    } else {
        "1 client".to_string()
    };
    format!(
        "workload {} | seed {} | passes {} | trace {} | {load} | available_parallelism {threads} \
         (= nproc; what each kernel launch fans out to) | git {}",
        args.workload,
        args.seed,
        passes,
        u8::from(args.trace),
        git_revision()
    )
}

/// Cross-pass invariants: every op's output hash identical in every pass,
/// and (single-client workloads) simulated time identical to the bit.
fn check_repeatability(passes: &[&[OpOut]], sim_exact: bool, problems: &mut Vec<String>) {
    let first = passes[0];
    for (p, pass) in passes.iter().enumerate().skip(1) {
        for (i, (a, b)) in first.iter().zip(*pass).enumerate() {
            if a.failure.is_none() && b.failure.is_none() && a.hash != b.hash {
                problems.push(format!(
                    "op {i}: output hash {:#018x} in pass 0 but {:#018x} in pass {p}",
                    a.hash, b.hash
                ));
            }
        }
        if sim_exact {
            let s0: f64 = first.iter().map(|o| o.sim_ns).sum();
            let sp: f64 = pass.iter().map(|o| o.sim_ns).sum();
            if s0.to_bits() != sp.to_bits() {
                problems.push(format!(
                    "simulated time {s0} ns in pass 0 but {sp} ns in pass {p}"
                ));
            }
        }
    }
}

fn failures(passes: &[Vec<OpOut>], problems: &mut Vec<String>) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for (p, pass) in passes.iter().enumerate() {
        for (i, o) in pass.iter().enumerate() {
            attempted += 1;
            if let Some(why) = &o.failure {
                failed += 1;
                problems.push(format!("op {i} in pass {p}: {why}"));
            }
        }
    }
    (attempted, failed)
}

fn print_problems(problems: &[String]) {
    for p in problems.iter().take(20) {
        println!("PROBLEM: {p}");
    }
    if problems.len() > 20 {
        println!("PROBLEM: … and {} more", problems.len() - 20);
    }
}

pub fn timed_run(args: &RunArgs) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut state: Option<SetUp> = None;
    for _ in 0..SETUPS {
        // The previous set-up's state goes first so each one starts from
        // the same heap.
        drop(state.take());
        let s = set_up(&args.workload, args.seed)?;
        setup_s.push(s.seconds);
        state = Some(s);
    }
    let SetUp {
        workload: mut w,
        warm,
        ..
    } = state.expect("SETUPS >= 1");

    alloc::reset_peak();
    let mut passes: Vec<Vec<OpOut>> = Vec::new();
    let mut wall = Vec::new();
    let mut cpu = Vec::new();
    let window = Instant::now();
    while passes.len() < MIN_PASSES || window.elapsed().as_secs_f64() < args.seconds {
        let c0 = clock::process_cpu();
        let t0 = Instant::now();
        let ops = w.pass();
        wall.push(t0.elapsed().as_secs_f64());
        cpu.push((clock::process_cpu() - c0).as_secs_f64());
        passes.push(ops);
    }
    let peak = alloc::peak_bytes();
    let sim_exact = w.sim_exact();
    drop(w);

    let mut problems = Vec::new();
    let (attempted, failed) = failures(&passes, &mut problems);
    // The warm-up pass takes part in the repeatability check, not in any
    // metric.
    let mut all: Vec<&[OpOut]> = vec![&warm];
    all.extend(passes.iter().map(Vec::as_slice));
    check_repeatability(&all, sim_exact, &mut problems);

    let lat: Vec<f64> = passes.iter().flatten().map(|o| o.lat_ms).collect();
    let sim_ms: Vec<f64> = passes
        .iter()
        .map(|p| p.iter().map(|o| o.sim_ns).sum::<f64>() / 1e6)
        .collect();
    let timed_wall: f64 = wall.iter().sum();
    let values: BTreeMap<&str, f64> = [
        ("setup_s", median(&setup_s)),
        ("wall_s", median(&wall)),
        ("cpu_s", median(&cpu)),
        ("ops_per_s", (attempted - failed) as f64 / timed_wall),
        ("lat_ms_p50", median(&lat)),
        ("sim_ms", median(&sim_ms)),
        ("peak_heap_mib", peak as f64 / (1u64 << 20) as f64),
    ]
    .into_iter()
    .collect();

    println!("{}", header(args, passes.len()));
    println!(
        "set-ups {SETUPS} (each: generate inputs, build long-lived state, one warm-up pass) | \
         timed wall {timed_wall:.3} s | ops/pass {} | latency samples {} | supported tail {}",
        passes[0].len(),
        lat.len(),
        supported_tail(lat.len()).map_or("none (p50 only)".to_string(), |p| format!("p{p}")),
    );
    println!("pass wall s: {}", join(&wall, 3));
    println!("pass cpu  s: {}", join(&cpu, 3));
    println!("set-up    s: {}", join(&setup_s, 3));
    for m in &END_TO_END {
        println!(
            "  {:<16} {:>14.6} {:<4} ({} is better, bound {})",
            m.name,
            values[m.name],
            m.unit,
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            m.bound
        );
    }
    print_problems(&problems);

    Ok(RunResult {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, values[m.name], m.unit))
            .collect(),
    })
}

fn join(v: &[f64], digits: usize) -> String {
    v.iter()
        .map(|x| format!("{x:.digits$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

pub fn traced_run(args: &RunArgs) -> Result<RunResult, String> {
    let origin = Instant::now();
    let SetUp {
        workload: mut w,
        warm,
        ..
    } = set_up(&args.workload, args.seed)?;

    let mut tracer = Tracer::new(origin);
    let mut layers: Vec<Layers> = Vec::new();
    let mut traced_ms = Vec::new();
    let mut passes: Vec<Vec<OpOut>> = Vec::new();
    for p in 0..TRACED_PASSES {
        tracer.pass = p as u32;
        let mut l = Layers::default();
        let t0 = Instant::now();
        let ops = w.traced_pass(&mut tracer, &mut l);
        traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        layers.push(l);
        passes.push(ops);
    }
    // Reference for `trace.overhead_ratio`: one more untraced pass in this
    // same process — after the traced ones, because a process that starts
    // on an idle box runs its first seconds faster than it will later.
    let t0 = Instant::now();
    let reference = w.pass();
    let untraced_ms = t0.elapsed().as_secs_f64() * 1e3;

    let sim_exact = w.sim_exact();
    let mut threads = vec![tracer.into_spans()];
    threads.extend(w.take_thread_spans());
    drop(w);

    let mut problems = Vec::new();
    let (attempted, failed) = failures(&passes, &mut problems);
    let mut all: Vec<&[OpOut]> = vec![&warm];
    all.extend(passes.iter().map(Vec::as_slice));
    all.push(&reference);
    check_repeatability(&all, sim_exact, &mut problems);

    let (values, op_samples) = per_layer(&layers, &traced_ms, untraced_ms);

    // Spans leave memory once, here.
    let n_spans: usize = threads.iter().map(Vec::len).sum();
    let path = Path::new(crate::OUT_DIR).join(format!("{}.trace.json", args.workload));
    std::fs::create_dir_all(crate::OUT_DIR).map_err(|e| format!("{}: {e}", crate::OUT_DIR))?;
    let body: Vec<String> = threads
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(i, s)| spans_json(i, s))
        .collect();
    let file = format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"git\": \"{}\",\n  \"traced_passes\": {TRACED_PASSES},\n  \"spans\": [\n{}\n  ]\n}}\n",
        args.workload,
        args.seed,
        git_revision(),
        body.join(",\n")
    );
    std::fs::write(&path, file).map_err(|e| format!("{}: {e}", path.display()))?;

    println!("{}", header(args, TRACED_PASSES));
    println!(
        "untraced reference pass {untraced_ms:.1} ms | traced passes (op + layered replay) {} ms | {n_spans} spans -> {}",
        join(&traced_ms, 1),
        path.display()
    );
    println!(
        "values are medians per pass over {TRACED_PASSES} traced passes; percentiles pool all passes \
         (op samples {op_samples}, supported tail {})",
        supported_tail(op_samples)
            .map_or("none: p90 below is indicative".to_string(), |p| format!("p{p}")),
    );
    for &(name, unit, _) in &PER_LAYER {
        println!("  {:<34} {:>16.4} {}", name, values[name], unit);
    }
    print_problems(&problems);

    Ok(RunResult {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, values[name], unit))
            .collect(),
    })
}
