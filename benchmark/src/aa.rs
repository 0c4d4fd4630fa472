//! A/A mode: the acceptance rule applied to two sets of runs of the same
//! code. Every workload (or the one named) runs `n` times (seeds `seed .. seed + n`, one
//! process each), twice; for each (workload, end-to-end metric) the table
//! shows both medians, how much worse the second is than the first, each
//! set's quartile spread as a share of its median, and the bound. The mode
//! fails if a second median is worse than the first by more than the bound
//! or — `setup_s` excepted — a spread exceeds it.

use crate::metrics::END_TO_END;
use crate::stats::{iqr_share, median};
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::process::Command;

/// One run's parsed last line.
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Parses the result line this harness prints (not general JSON: the
/// format is this program's own, see `RunResult::json_line`).
pub fn parse_result_line(line: &str) -> Option<Parsed> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")?.parse().ok()?;
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut metrics = BTreeMap::new();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for part in body.split("\"}") {
        // `"name": {"value": 1.25, "unit": "ms`
        let Some((name, rest)) = part.split_once("\": {\"value\": ") else {
            continue;
        };
        let name = name.rsplit('"').next()?;
        let value = rest.split(',').next()?.parse().ok()?;
        metrics.insert(name.to_string(), value);
    }
    Some(Parsed {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout.lines().last().and_then(parse_result_line);
    match parsed {
        Some(p) if out.status.success() && p.correct => Ok(p),
        _ => Err(format!(
            "{workload} seed {seed}: exit {:?}\n{stdout}{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// Runs the A/A comparison; `Ok(true)` when every pair is within bounds.
pub fn run(n: usize, seed: u64, seconds: f64, only: Option<&str>) -> Result<bool, String> {
    println!(
        "A/A: {n} runs x 2 sets per workload, seeds {seed}..{}, git {}",
        seed + n as u64 - 1,
        crate::run::git_revision()
    );
    println!(
        "| workload | metric | median A | median B | B worse by | spread A | spread B | bound | |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
    let mut all_ok = true;
    for (workload, _) in WORKLOADS {
        if only.is_some_and(|w| w != workload) {
            continue;
        }
        let mut sets: [BTreeMap<&str, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        let (mut attempted, mut failed) = (0, 0);
        for set in &mut sets {
            for k in 0..n as u64 {
                let parsed = run_once(workload, seed + k, seconds)?;
                attempted += parsed.attempted;
                failed += parsed.failed;
                for m in &END_TO_END {
                    set.entry(m.name).or_default().push(parsed.metrics[m.name]);
                }
            }
        }
        for m in &END_TO_END {
            let (a, b) = (&sets[0][m.name], &sets[1][m.name]);
            let (ma, mb) = (median(a), median(b));
            let worse = if m.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let (sa, sb) = if n >= 2 {
                (iqr_share(a), iqr_share(b))
            } else {
                (0.0, 0.0)
            };
            let spread_ok = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let ok = worse <= m.bound && spread_ok;
            all_ok &= ok;
            println!(
                "| {workload} | {} | {ma:.5} | {mb:.5} | {:+.2}% | {:.2}% | {:.2}% | {:.1}% | {} |",
                m.name,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "FAIL" }
            );
        }
        println!("| {workload} | ops attempted / failed | {attempted} | {failed} | | | | | |");
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunResult;

    #[test]
    fn parses_its_own_result_line() {
        let line = RunResult {
            correct: true,
            attempted: 126,
            failed: 0,
            metrics: vec![
                ("wall_s", 1.2034, "s"),
                ("ops_per_s", 15.5, "1/s"),
                ("x.y_z", 3e-7, "ms"),
            ],
        }
        .json_line();
        let p = parse_result_line(&line).expect("own format parses");
        assert!(p.correct);
        assert_eq!((p.attempted, p.failed), (126, 0));
        assert_eq!(p.metrics["wall_s"], 1.2034);
        assert_eq!(p.metrics["ops_per_s"], 15.5);
        assert_eq!(p.metrics["x.y_z"], 3e-7);
        assert_eq!(p.metrics.len(), 3);
        assert!(parse_result_line("not a result").is_none());
    }
}
