//! `oasis-sim` — command-line front end for the OASIS simulator.
//!
//! ```sh
//! oasis-sim run --app MM --policy duplication
//! oasis-sim compare --app ST --gpus 8
//! oasis-sim characterize --app C2D
//! oasis-sim inject --seed 42
//! ```

use std::io::Write;
use std::process::ExitCode;

use oasis_cli::{run_with_stop, signal, Cli, CliError, Command};
use oasis_engine::StopHandle;

/// Exit code for a journaled sweep drained on SIGINT/SIGTERM: sysexits'
/// `EX_TEMPFAIL` ("temporary failure, retry later") — rerun with
/// `--resume-sweep` to finish.
const EXIT_RESUMABLE: u8 = 75;

fn main() -> ExitCode {
    match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => {
            // Sweep commands drain gracefully on the first SIGINT/SIGTERM
            // (and die on the second); everything else keeps the default
            // kill-now behavior.
            let stop = match cli.command {
                Command::Fuzz | Command::Inject | Command::VerifyReplay => {
                    let stop = StopHandle::new();
                    signal::install_drain(stop.clone());
                    Some(stop)
                }
                _ => None,
            };
            match run_with_stop(&cli, stop) {
                Ok(out) => {
                    // A closed pipe (`oasis-sim ... | head`) is a normal way to
                    // consume the output, not an error worth panicking over.
                    if writeln!(std::io::stdout(), "{out}").is_err() {
                        return ExitCode::FAILURE;
                    }
                    ExitCode::SUCCESS
                }
                Err(CliError::Interrupted(msg)) => {
                    eprintln!("interrupted: {msg}");
                    ExitCode::from(EXIT_RESUMABLE)
                }
                Err(CliError::Failure(msg)) => {
                    eprintln!("error: {msg}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}\nrun `oasis-sim help` for usage");
            ExitCode::FAILURE
        }
    }
}
