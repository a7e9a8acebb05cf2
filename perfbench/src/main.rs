//! One repetition of an OASIS benchmark workload, in a fresh process.
//!
//! ```text
//! oasis-perfbench --workload <dnn_train|graph_faults|fuzz_sweep> --seed <n>
//!                 [--traced] [--size full|tiny] [--work-dir <dir>]
//! ```
//!
//! Prints one JSON line: set-up and run time, output-check failures, the
//! values that must repeat exactly across runs, per-layer counts and, when
//! traced, per-layer host times. `perfbench/run.py` repeats this, checks
//! the repetitions against each other and aggregates them.

mod json;
mod spans;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Size, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("oasis-perfbench: {msg}");
    eprintln!(
        "usage: oasis-perfbench --workload <dnn_train|graph_faults|fuzz_sweep> --seed <n> \
         [--traced] [--size full|tiny] [--work-dir <dir>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut traced = false;
    let mut size = Size::Full;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--traced" {
            traced = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload '{value}'")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad seed '{value}'")),
            },
            "--size" => match value.as_str() {
                "full" => size = Size::Full,
                "tiny" => size = Size::Tiny,
                _ => return usage(&format!("unknown size '{value}'")),
            },
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return usage(&format!("unknown flag '{flag}'")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage("--workload and --seed are required");
    };
    let rep = workload::run(workload, size, seed, traced, &work_dir);
    println!("{}", rep.to_json(workload, seed, traced).render());
    ExitCode::SUCCESS
}
