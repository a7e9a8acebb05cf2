//! The `bench-smoke` throughput gate.
//!
//! Runs a benchmark matrix `--runs` times per cell and keeps the best
//! wall-clock (host noise only ever slows a run down, so best-of-N is the
//! stable estimator). Two matrices exist: `--matrix full` (the default)
//! covers every workload app under the four core policies at 8 MB
//! footprints; `--matrix quick` is its four-cell C2D/MM x on-touch/oasis
//! subset, the same cells at the same footprint, so a quick run gates
//! like for like against a full-matrix baseline. Results land in a small
//! JSON file (`oasis-bench-smoke-v2`: per-cell steps/sec and peak-RSS
//! watermark); before overwriting it, the previous file (or an explicit
//! `--baseline`) is read back and the gate fails if any cell present in
//! both regressed more than `--tolerance` percent in retired-steps/sec.
//! The matrix runs *dark* (no tracing, no metrics): it measures the
//! simulator hot path the way production sweeps run it.

use std::fmt::Write as _;

use oasis_engine::json::{self, ObjectWriter, Value};
use oasis_engine::pool::{run_sweep, Job, JobOutcome};
use oasis_mgpu::{simulate, Policy, SystemConfig};
use oasis_workloads::{generate, App, WorkloadParams, ALL_APPS};

use crate::args::Cli;

/// Default result file, at the repo root by convention.
const DEFAULT_OUT: &str = "BENCH_pr8.json";

/// Schema tag of the result file, required from every baseline.
const SCHEMA: &str = "oasis-bench-smoke-v2";

/// The four core policies every app is benchmarked under.
const CORE_POLICIES: [&str; 4] = ["on-touch", "access-counter", "duplication", "oasis"];

/// Footprint (MB) of every cell; large enough that capacity effects show
/// up in the numbers.
const FULL_FOOTPRINT_MB: u64 = 8;

/// The benchmark matrix selected by `--matrix`: (app, policy) cells, in
/// app-then-policy order. `quick` is a subset of `full`.
fn matrix(kind: &str) -> Vec<(App, &'static str)> {
    ALL_APPS
        .iter()
        .flat_map(|&app| CORE_POLICIES.iter().map(move |&policy| (app, policy)))
        .filter(|&(app, policy)| {
            kind != "quick"
                || (matches!(app, App::C2d | App::Mm) && matches!(policy, "on-touch" | "oasis"))
        })
        .collect()
}

/// One benchmark cell's best-of-N measurement.
struct Cell {
    app: &'static str,
    policy: &'static str,
    wall_clock_us: u64,
    retired_steps: u64,
    steps_per_sec: f64,
}

impl Cell {
    fn key(&self) -> String {
        format!("{}/{}", self.app, self.policy)
    }
}

/// Peak resident set size in kB (`VmHWM`), or 0 where /proc is absent.
/// It is a process-wide high-water mark, so it is reported once for the
/// whole run rather than per cell.
fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    return rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                }
            }
        }
    }
    0
}

fn policy_by_name(name: &str) -> Policy {
    match name {
        "on-touch" => Policy::OnTouch,
        "access-counter" => Policy::AccessCounter,
        "duplication" => Policy::Duplication,
        "oasis" => Policy::oasis(),
        other => unreachable!("matrix policy '{other}'"),
    }
}

fn run_cell(app: App, policy_name: &'static str, runs: usize) -> Cell {
    let mut params = WorkloadParams::paper(app, 4);
    params.footprint_mb = FULL_FOOTPRINT_MB;
    let trace = generate(app, &params);
    let policy = policy_by_name(policy_name);
    let mut best_wall = u64::MAX;
    let mut steps = 0;
    for _ in 0..runs {
        let r = simulate(&SystemConfig::default(), policy.clone(), &trace);
        steps = r.instrumentation.retired_steps;
        best_wall = best_wall.min(r.instrumentation.wall_clock_us.max(1));
    }
    Cell {
        app: app.abbr(),
        policy: policy_name,
        wall_clock_us: best_wall,
        retired_steps: steps,
        steps_per_sec: steps as f64 / (best_wall as f64 / 1e6),
    }
}

/// Renders the result file: one cell object per line, so a diff of two
/// result files reads cell by cell.
fn render_json(cells: &[Cell]) -> String {
    let rows: Vec<String> = cells
        .iter()
        .map(|c| {
            ObjectWriter::default()
                .str("app", c.app)
                .str("policy", c.policy)
                .raw("wall_clock_us", c.wall_clock_us)
                .raw("retired_steps", c.retired_steps)
                .raw("steps_per_sec", format_args!("{:.1}", c.steps_per_sec))
                .line()
        })
        .collect();
    ObjectWriter::default()
        .str("schema", SCHEMA)
        .raw("peak_rss_kb", peak_rss_kb())
        .raw("cells", format!("[\n    {}\n  ]", rows.join(",\n    ")))
        .pretty()
        + "\n"
}

/// Baseline steps/sec per `app/policy` cell key, from an
/// `oasis-bench-smoke-v2` file.
fn parse_baseline(content: &str) -> Result<Vec<(String, f64)>, String> {
    let file = json::parse_object(content)?;
    let schema = file.str("schema")?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported schema '{schema}' (expected '{SCHEMA}')"
        ));
    }
    file.array("cells")?
        .iter()
        .map(|cell| match cell {
            Value::Object(c) => Ok((
                format!("{}/{}", c.str("app")?, c.str("policy")?),
                c.f64("steps_per_sec")?,
            )),
            _ => Err("every cell should be an object".to_string()),
        })
        .collect()
}

/// Runs the matrix, writes the result file, and gates against the
/// baseline. Returns the human-readable summary, or the regression
/// message (nonzero exit) when a cell fell below tolerance.
pub(crate) fn bench_smoke(cli: &Cli) -> Result<String, String> {
    let out_path = cli.bench_out.as_deref().unwrap_or(DEFAULT_OUT);
    // Read the baseline *before* overwriting the result file.
    let baseline_path = cli.baseline.as_deref().unwrap_or(out_path);
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(content) => {
            parse_baseline(&content).map_err(|e| format!("baseline {baseline_path}: {e}"))?
        }
        Err(_) if cli.baseline.is_none() => Vec::new(),
        Err(e) => return Err(format!("--baseline {baseline_path}: {e}")),
    };

    let cells_spec = matrix(&cli.matrix);
    // The matrix fans out over the supervised pool. `--jobs` defaults to
    // 1 and should usually stay there for this command: cells measure
    // wall-clock, and concurrent cells contend for cores. The supervision
    // (panic containment, optional deadline) is what earns its keep here.
    let jobs: Vec<Job<Cell>> = cells_spec
        .iter()
        .map(|&(app, policy)| {
            let runs = cli.runs;
            Job::new(format!("{}/{policy}", app.abbr()), move |_ctx| {
                Ok(run_cell(app, policy, runs))
            })
        })
        .collect();
    let sweep = run_sweep(&crate::pool_config(cli), jobs);
    let mut cells = Vec::with_capacity(cells_spec.len());
    for record in sweep.jobs {
        match record.outcome {
            JobOutcome::Completed(cell) => cells.push(cell),
            JobOutcome::Failed(e) | JobOutcome::Quarantined(e) => {
                return Err(format!(
                    "bench cell {} failed under supervision: {e} \
                     (after {} attempt(s))",
                    record.label, record.attempts
                ))
            }
        }
    }
    // Atomic publish: a crash mid-write must not destroy the previous
    // result file, which doubles as the next run's baseline.
    oasis_engine::atomic_write(
        std::path::Path::new(out_path),
        render_json(&cells).as_bytes(),
    )
    .map_err(|e| format!("{out_path}: {e}"))?;

    let mut out = format!(
        "bench-smoke: {} matrix, best of {} run(s) per cell, tolerance {}%\n",
        cli.matrix, cli.runs, cli.tolerance
    );
    let mut regressions = Vec::new();
    for c in &cells {
        let key = c.key();
        let verdict = match baseline.iter().find(|(k, _)| *k == key) {
            Some((_, base_sps)) => {
                let floor = base_sps * (1.0 - cli.tolerance as f64 / 100.0);
                if c.steps_per_sec < floor {
                    regressions.push(format!(
                        "{key}: {:.0} steps/s fell below {floor:.0} (baseline {base_sps:.0})",
                        c.steps_per_sec
                    ));
                    "REGRESSED"
                } else {
                    "ok"
                }
            }
            None => "no-baseline",
        };
        let _ = writeln!(
            out,
            "  {key:<22} {:>12.0} steps/s  ({} steps in {:.1} ms)  {verdict}",
            c.steps_per_sec,
            c.retired_steps,
            c.wall_clock_us as f64 / 1000.0
        );
    }
    let _ = writeln!(out, "results written to {out_path}");
    if regressions.is_empty() {
        Ok(out)
    } else {
        Err(format!(
            "{out}throughput regression:\n  {}",
            regressions.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_through_the_baseline_parser() {
        let cells = vec![
            Cell {
                app: "C2D",
                policy: "on-touch",
                wall_clock_us: 2_000,
                retired_steps: 1_000,
                steps_per_sec: 500_000.0,
            },
            Cell {
                app: "MM",
                policy: "oasis",
                wall_clock_us: 4_000,
                retired_steps: 1_000,
                steps_per_sec: 250_000.0,
            },
        ];
        let json = render_json(&cells);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"schema\": \"oasis-bench-smoke-v2\""));
        assert!(json.contains(
            "\n    {\"app\": \"C2D\", \"policy\": \"on-touch\", \"wall_clock_us\": 2000, \
             \"retired_steps\": 1000, \"steps_per_sec\": 500000.0},\n"
        ));
        assert!(
            json.ends_with("\"steps_per_sec\": 250000.0}\n  ]\n}\n"),
            "{json}"
        );
        assert!(json.contains("\"peak_rss_kb\": "), "{json}");
        let parsed = parse_baseline(&json).expect("a rendered file parses");
        assert_eq!(
            parsed,
            vec![
                ("C2D/on-touch".to_string(), 500_000.0),
                ("MM/oasis".to_string(), 250_000.0),
            ]
        );
    }

    #[test]
    fn matrices_cover_what_they_claim() {
        let full = matrix("full");
        assert_eq!(full.len(), ALL_APPS.len() * CORE_POLICIES.len());
        // Every (app, policy) pair appears exactly once.
        let mut keys: Vec<String> = full
            .iter()
            .map(|&(a, p)| format!("{}/{p}", a.abbr()))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), full.len());

        // Quick is the C2D/MM x on-touch/oasis subset of full, so its
        // cells gate like for like against a full-matrix baseline.
        let quick = matrix("quick");
        assert_eq!(
            quick,
            [
                (App::C2d, "on-touch"),
                (App::C2d, "oasis"),
                (App::Mm, "on-touch"),
                (App::Mm, "oasis"),
            ]
        );
        assert!(quick.iter().all(|cell| full.contains(cell)));
    }

    #[test]
    fn v1_baselines_are_refused() {
        let v1 = "{\n  \"schema\": \"oasis-bench-smoke-v1\",\n  \"cells\": [\n    \
                  {\"app\": \"C2D\", \"policy\": \"oasis\", \"wall_clock_us\": 10, \
                  \"retired_steps\": 5, \"steps_per_sec\": 500000.0}\n  ]\n}\n";
        let err = parse_baseline(v1).expect_err("a v1 file is not a baseline");
        assert!(err.contains("'oasis-bench-smoke-v1'"), "{err}");
        // A file with no schema at all is refused too.
        let bare = "{\"cells\": []}";
        assert!(parse_baseline(bare).expect_err(bare).contains("'schema'"));
    }
}
