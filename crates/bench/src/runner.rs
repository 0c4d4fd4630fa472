//! The `figures` runner: one row per experiment, one flag table parsed
//! with `gplu`'s flag machinery, and one writer for every `BENCH_*.json`.

use crate::experiments::EXPERIMENTS;
use crate::Prepared;
use gplu_cli::{parse_flags, positive_integer, put, write_flags, write_rows, CliError, Flag};
use gplu_sparse::gen::suite::SuiteEntry;
use gplu_trace::JsonValue;

/// What the flags set: each field holds the flag of its name ([`FLAGS`]
/// says what it means); `None` leaves the experiment's own default, and an
/// empty `only` selects every matrix.
#[derive(Debug, Clone, Default)]
pub struct Opts {
    pub scale: Option<usize>,
    pub quick: bool,
    pub only: Vec<String>,
    pub reps: Option<usize>,
    pub jobs: Option<usize>,
    pub patterns: Option<usize>,
    pub n: Option<usize>,
    pub chains: Option<usize>,
    pub chain_n: Option<usize>,
    pub band: Option<usize>,
}

impl Opts {
    /// Effective scale, given the experiment's default.
    pub fn scale_or(&self, default: usize) -> usize {
        let s = self.scale.unwrap_or(default);
        if self.quick {
            s * 4
        } else {
            s
        }
    }

    /// The entries of `suite` that `--only` selects, generated at `scale`
    /// one by one.
    pub fn prepared(
        &self,
        suite: Vec<SuiteEntry>,
        scale: usize,
    ) -> impl Iterator<Item = Prepared> + '_ {
        suite
            .into_iter()
            .filter(|e| {
                self.only.is_empty() || self.only.iter().any(|o| o.eq_ignore_ascii_case(e.abbr))
            })
            .map(move |e| Prepared::new(e, scale))
    }
}

fn count(v: &str) -> Result<Option<usize>, String> {
    positive_integer(v).map(Some)
}

/// Every flag any experiment reads; each row says which read it.
pub static FLAGS: &[Flag<Opts>] = &[
    Flag {
        usage: "--scale <N>",
        help: "divide the paper matrices' order by N (default 128; 1024 for the \
               Table 4 analogs)",
        set: |o, v| put(&mut o.scale, count(v)),
    },
    Flag {
        usage: "--quick",
        help: "four times the scale, for a smoke run",
        set: |o, _| put(&mut o.quick, Ok(true)),
    },
    Flag {
        usage: "--only <A,B>",
        help: "run only the suite matrices with these abbreviations",
        set: |o, v| {
            put(
                &mut o.only,
                Ok(v.split(',').map(|s| s.trim().into()).collect()),
            )
        },
    },
    Flag {
        usage: "--reps <N>",
        help: "timed repetitions per configuration (default 5; 9 for service_slo), \
               value versions per pattern for refactorization",
        set: |o, v| put(&mut o.reps, count(v)),
    },
    Flag {
        usage: "--jobs <N>",
        help: "stress-workload jobs (default 500)",
        set: |o, v| put(&mut o.jobs, count(v)),
    },
    Flag {
        usage: "--patterns <N>",
        help: "hot patterns (default 6)",
        set: |o, v| put(&mut o.patterns, count(v)),
    },
    Flag {
        usage: "--n <N>",
        help: "order of each pattern (default 320)",
        set: |o, v| put(&mut o.n, count(v)),
    },
    Flag {
        usage: "--chains <N>",
        help: "independent banded chains, at least 8 (default 2048; weak scaling \
               runs chains / 8 per device)",
        set: |o, v| put(&mut o.chains, count(v)),
    },
    Flag {
        usage: "--chain-n <N>",
        help: "order of each chain (default 10)",
        set: |o, v| put(&mut o.chain_n, count(v)),
    },
    Flag {
        usage: "--band <N>",
        help: "half-bandwidth of each chain (default 6)",
        set: |o, v| put(&mut o.band, count(v)),
    },
];

/// One row of the experiment table.
pub struct Experiment {
    /// `figures <name>`; the BENCH file, if any, is `BENCH_<name>.json`.
    pub name: &'static str,
    /// What it reproduces.
    pub summary: &'static str,
    /// The flags `run` reads, space-separated; any other is a usage error.
    pub flags: &'static str,
    /// The matrices an `--only` name must match (`Vec::new` for the
    /// experiments that do not read `--only`).
    pub suite: fn() -> Vec<SuiteEntry>,
    /// Prints the experiment; returns its BENCH document when it writes
    /// one (an object, without the `bench` key the runner adds).
    pub run: fn(&Opts) -> Option<JsonValue>,
}

/// Reads `figures <experiment> [flags]`: the experiment's row and the
/// options its flags set.
pub fn parse(args: &[String]) -> Result<(&'static Experiment, Opts), CliError> {
    let name = args
        .first()
        .ok_or_else(|| CliError::Usage("name an experiment".into()))?;
    let e = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| CliError::Usage(format!("unknown experiment '{name}'")))?;
    let mut o = Opts::default();
    for flag in parse_flags(&[FLAGS], &[], &args[1..], &mut o)? {
        if !e.flags.split_whitespace().any(|f| f == flag) {
            return Err(CliError::Usage(format!("{name} does not read {flag}")));
        }
    }
    let suite = (e.suite)();
    match o
        .only
        .iter()
        .find(|abbr| !suite.iter().any(|m| m.abbr.eq_ignore_ascii_case(abbr)))
    {
        Some(bad) => Err(CliError::Usage(format!(
            "--only {bad} names no matrix of {name}"
        ))),
        None => Ok((e, o)),
    }
}

/// The experiment table and the flags, printed on a usage error.
pub fn usage() -> String {
    let mut out = String::from(
        "figures — the paper's tables and figures, ablations and extension benches\n\n\
         usage: figures <experiment> [flags]\n",
    );
    let rows: Vec<String> = EXPERIMENTS
        .iter()
        .map(|e| format!("{} {}", e.name, e.flags).trim_end().to_string())
        .collect();
    write_rows(
        &mut out,
        "\nexperiments (and the flags each reads):\n",
        rows.iter()
            .zip(EXPERIMENTS)
            .map(|(r, e)| (r.as_str(), e.summary)),
    );
    write_flags(&mut out, "\nflags:\n", FLAGS);
    out
}

/// Runs `e` and writes the BENCH document it returns to
/// `BENCH_<name>.json` in the working directory.
pub fn run(e: &Experiment, o: &Opts) -> std::io::Result<()> {
    let Some(doc) = (e.run)(o) else {
        return Ok(());
    };
    let JsonValue::Obj(fields) = doc else {
        panic!("{}: a BENCH document is an object", e.name);
    };
    let bench = ("bench".to_string(), JsonValue::from(e.name));
    let doc = JsonValue::Obj(std::iter::once(bench).chain(fields).collect());
    let path = format!("BENCH_{}.json", e.name);
    std::fs::write(&path, doc.to_pretty())?;
    println!("wrote {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gplu_sparse::gen::suite::frontier_pair;

    /// What a command line parses to, as `figure_pins.txt` records it.
    fn pin(cmd: &str) -> String {
        let args: Vec<String> = cmd.split_whitespace().map(String::from).collect();
        let o = match parse(&args) {
            Ok((_, o)) => o,
            Err(CliError::Usage(_)) => return "usage error".into(),
            Err(e) => panic!("{cmd}: {e}"),
        };
        let counts = [
            ("scale", o.scale),
            ("reps", o.reps),
            ("jobs", o.jobs),
            ("patterns", o.patterns),
            ("n", o.n),
            ("chains", o.chains),
            ("chain-n", o.chain_n),
            ("band", o.band),
        ];
        let mut set: Vec<String> = counts
            .iter()
            .filter_map(|(k, v)| v.map(|v| format!("{k}={v}")))
            .collect();
        if o.quick {
            set.push("quick".into());
        }
        if !o.only.is_empty() {
            set.push(format!("only={}", o.only.join(",")));
        }
        if set.is_empty() {
            "-".into()
        } else {
            set.join(" ")
        }
    }

    /// Every `figures` command line in CI and the documents.
    fn documented() -> Vec<String> {
        let docs = [
            include_str!("../../../.github/workflows/ci.yml"),
            include_str!("../../../README.md"),
            include_str!("../../../DESIGN.md"),
            include_str!("../../../EXPERIMENTS.md"),
        ];
        let mut cmds = Vec::new();
        for doc in docs {
            for line in doc.replace("\\\n", " ").lines() {
                for key in ["figures -- ", "release/figures "] {
                    if let Some((_, cmd)) = line.split_once(key) {
                        let cmd = cmd.split(['`', '#', '|', '&', '>', ';']).next().unwrap();
                        cmds.push(cmd.split_whitespace().collect::<Vec<_>>().join(" "));
                    }
                }
            }
        }
        cmds
    }

    #[test]
    fn quick_quadruples_the_scale_and_only_ignores_case() {
        let args: Vec<String> = ["fig3_frontiers", "--scale", "64", "--quick", "--only", "pr"]
            .map(String::from)
            .into();
        let (_, o) = parse(&args).expect("parses");
        assert_eq!(o.scale_or(128), 256);
        assert_eq!(Opts::default().scale_or(128), 128);
        let picked: Vec<_> = o
            .prepared(frontier_pair(), 4096)
            .map(|p| p.entry.abbr)
            .collect();
        assert_eq!(picked, ["PR"]);
        let all = Opts::default().prepared(frontier_pair(), 4096).count();
        assert_eq!(all, frontier_pair().len());
    }

    #[test]
    fn figures_flag_table_parses_every_pinned_command_line() {
        let pins = include_str!("../tests/figure_pins.txt");
        let mut pinned = Vec::new();
        for line in pins.lines().filter(|l| !l.starts_with('#')) {
            let (want, cmd) = line.split_once('\t').expect("<pin>\t<command line>");
            assert_eq!(pin(cmd), want, "{cmd}");
            pinned.push(cmd);
        }
        assert!(matches!(parse(&[]), Err(CliError::Usage(_))));

        // Every documented line is pinned, so it parses as before; a line
        // naming no row (a DESIGN §4 regenerator included) would not.
        let documented = documented();
        for cmd in &documented {
            assert!(pinned.contains(&cmd.as_str()), "not pinned: {cmd}");
            assert_ne!(pin(cmd), "usage error", "{cmd}");
        }
        assert!(documented.len() >= 50, "only {} lines", documented.len());

        // Every row and every flag is in the usage text.
        let help = usage();
        let heads: Vec<&str> = help
            .lines()
            .filter_map(|l| l.strip_prefix("  "))
            .map(|l| l.split("   ").next().unwrap())
            .collect();
        for e in EXPERIMENTS {
            let head = format!("{} {}", e.name, e.flags);
            assert!(heads.contains(&head.trim_end()), "{} missing", e.name);
        }
        for f in FLAGS {
            assert!(heads.contains(&f.usage), "{} missing", f.usage);
        }
    }
}
