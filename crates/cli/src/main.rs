//! `gplu` — command-line driver for the end-to-end GPU sparse LU pipeline.
//!
//! `gplu --help` lists the commands and every flag; it is printed from the
//! same flag tables the parser matches (`gplu_cli::usage`).

use gplu_cli::{run, CliError};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args, &mut std::io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("usage error: {msg}\n\n{}", gplu_cli::usage());
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
