//! End-to-end benchmark for gplu. See README.md beside this package.
//!
//! ```text
//! gplu-e2e-bench --workload NAME --seed N --seconds S --trace 0|1
//! gplu-e2e-bench --aa [N] [--workload NAME] [--seed N] [--seconds S]
//! gplu-e2e-bench --list
//! ```
//!
//! The last line of standard output of a run is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod aa;
mod alloc;
mod clock;
mod gen;
mod metrics;
mod replay;
mod run;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Where the traced run writes, relative to the checkout root.
pub const OUT_DIR: &str = "benchmark/out";

/// Run length when `--seconds` is not given: with passes of at least a
/// second, seven passes always cover it.
const DEFAULT_SECONDS: f64 = 7.0;
const DEFAULT_SEED: u64 = 1;
const DEFAULT_AA_RUNS: usize = 5;

enum Mode {
    Run(run::RunArgs),
    Aa {
        n: usize,
        seed: u64,
        seconds: f64,
        only: Option<String>,
    },
    List,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage:\n  --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n  \
         --aa [N] [--workload NAME] [--seed N] [--seconds S]\n  --list",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut aa = None;
    let mut list = false;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err("--seconds must be between 0 and 600".into());
                }
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--aa" => {
                // The count is optional: `--aa` alone means the default.
                let n = match it.peek().and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => DEFAULT_AA_RUNS,
                };
                if n == 0 {
                    return Err("--aa needs at least one run per set".into());
                }
                aa = Some(n);
            }
            "--list" => list = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if list {
        return Ok(Mode::List);
    }
    if let Some(w) = &workload {
        if !workloads::WORKLOADS.iter().any(|known| known.0 == w) {
            return Err(format!("unknown workload `{w}`"));
        }
    }
    if let Some(n) = aa {
        return Ok(Mode::Aa {
            n,
            seed,
            seconds,
            only: workload,
        });
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Mode::Run(run::RunArgs {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn list() {
    println!("workloads:");
    for (name, why) in workloads::WORKLOADS {
        println!("  {name:<14} {why}");
    }
    println!("end-to-end metrics (--trace 0):");
    for m in &metrics::END_TO_END {
        println!(
            "  {:<34} {:<6} {} is better, bound {}",
            m.name,
            m.unit,
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            },
            m.bound
        );
    }
    println!("per-layer metrics (--trace 1):");
    for &(name, unit, higher) in &metrics::PER_LAYER {
        println!(
            "  {name:<34} {unit:<6} {} is better",
            if higher { "higher" } else { "lower" }
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::List => {
            list();
            ExitCode::SUCCESS
        }
        Mode::Aa {
            n,
            seed,
            seconds,
            only,
        } => match aa::run(n, seed, seconds, only.as_deref()) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("A/A: a difference or spread exceeds its bound");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("A/A: {e}");
                ExitCode::FAILURE
            }
        },
        Mode::Run(args) => {
            let result = if args.trace {
                run::traced_run(&args)
            } else {
                run::timed_run(&args)
            };
            match result {
                Ok(r) => {
                    println!("{}", r.json_line());
                    if r.correct {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let Ok(Mode::Run(a)) = parse(&args(
            "--workload serve_mix --seed 42 --seconds 7 --trace 1",
        )) else {
            panic!("a run")
        };
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mix", 42, 7.0, true)
        );
    }

    #[test]
    fn aa_count_is_optional_and_bad_input_is_refused() {
        assert!(matches!(
            parse(&args("--aa")),
            Ok(Mode::Aa {
                n: DEFAULT_AA_RUNS,
                ..
            })
        ));
        assert!(matches!(
            parse(&args("--aa 3 --seed 9")),
            Ok(Mode::Aa { n: 3, seed: 9, .. })
        ));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload cold_suite --trace 2")).is_err());
        assert!(parse(&args("--workload cold_suite --seconds -1")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("")).is_err());
    }
}
