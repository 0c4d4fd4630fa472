//! `figures <experiment> [flags]` — runs one of the paper's tables or
//! figures, an ablation or an extension bench. With no experiment, or an
//! unknown one, it prints the experiment table and the flags.

use gplu_bench::runner::{parse, run, usage};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(e) => {
            eprintln!("usage error: {e}\n\n{}", usage());
            ExitCode::from(2)
        }
        Ok((experiment, opts)) => match run(experiment, &opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: could not write the BENCH file: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
