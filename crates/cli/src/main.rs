//! `agilepm` — command-line front end for the simulator.
//!
//! ```text
//! agilepm run      --hosts 64 --vms 384 --policy suspend [--json out.json] [--csv out.csv]
//! agilepm compare  --hosts 32 --vms 192 [--workload spiky]
//! agilepm breakeven [--profile rack|blade|legacy]
//! agilepm help
//! ```

use std::process::ExitCode;

mod args;
mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if e.is::<args::ArgError>() {
                eprintln!("run `agilepm help` for usage");
            }
            ExitCode::FAILURE
        }
    }
}
