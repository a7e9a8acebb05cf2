//! JSON repro corpus: serialization, parsing, and file management.
//!
//! Every shrunk repro is written as one flat JSON object under
//! `tests/corpus/` so the regression suite replays it forever after. The
//! format is deliberately minimal — scalar fields only, the fault plan as
//! its spec-grammar string — and is read and written through
//! [`oasis_engine::json`].
//!
//! ```json
//! {
//!   "schema": "oasis-fuzz-scenario-v1",
//!   "oracle": "abort",
//!   "seed": 42,
//!   "app": "MT",
//!   "gpu_count": 2,
//!   "footprint_mb": 2,
//!   "workload_seed": 7,
//!   "max_phases": 1,
//!   "large_pages": false,
//!   "striped": false,
//!   "lanes_per_gpu": 4,
//!   "counter_threshold": 256,
//!   "capacity_pages": 64,
//!   "fault_plan": "seed:0"
//! }
//! ```

use std::io;
use std::path::{Path, PathBuf};

use oasis_engine::json::{self, ObjectWriter, Value};
use oasis_interconnect::FaultPlan;
use oasis_workloads::{App, ALL_APPS};

use crate::oracle::OracleKind;
use crate::scenario::Scenario;

/// Schema tag stamped into (and required from) every corpus file.
pub const SCHEMA: &str = "oasis-fuzz-scenario-v1";

/// Serializes a scenario (plus the oracle kind it violated, if any) into
/// the corpus JSON format.
pub fn to_json(scenario: &Scenario, oracle: Option<OracleKind>) -> String {
    let capacity = scenario
        .capacity_pages
        .map_or("null".into(), |c| c.to_string());
    ObjectWriter::default()
        .str("schema", SCHEMA)
        .str("oracle", oracle.map_or("none", OracleKind::as_str))
        .raw("seed", scenario.seed)
        .str("app", scenario.app.abbr())
        .raw("gpu_count", scenario.gpu_count)
        .raw("footprint_mb", scenario.footprint_mb)
        .raw("workload_seed", scenario.workload_seed)
        .raw("max_phases", scenario.max_phases)
        .raw("large_pages", scenario.large_pages)
        .raw("striped", scenario.striped)
        .raw("lanes_per_gpu", scenario.lanes_per_gpu)
        .raw("counter_threshold", scenario.counter_threshold)
        .raw("capacity_pages", capacity)
        .str("fault_plan", &scenario.fault_plan.to_spec())
        .pretty()
        + "\n"
}

/// Parses a corpus file produced by [`to_json`].
///
/// # Errors
///
/// Returns a message naming the missing or malformed field. Corpus
/// objects are flat: every field must be a string, an unsigned integer,
/// a boolean, or null, so nesting and negative or fractional numbers are
/// rejected along with duplicate keys.
pub fn from_json(text: &str) -> Result<(Scenario, Option<OracleKind>), String> {
    let fields = json::parse_object(text)?;
    let not_flat = |v: &Value| matches!(v, Value::F64(_) | Value::Array(_) | Value::Object(_));
    if let Some(key) = fields.0.iter().find_map(|(k, v)| not_flat(v).then_some(k)) {
        return Err(format!("field '{key}' is not a flat scalar"));
    }
    let schema = fields.str("schema")?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported schema '{schema}' (expected '{SCHEMA}')"
        ));
    }
    let oracle = match fields.str("oracle")? {
        "none" => None,
        s => Some(OracleKind::parse(s).ok_or_else(|| format!("unknown oracle kind '{s}'"))?),
    };
    let abbr = fields.str("app")?;
    let app = app_from_abbr(abbr).ok_or_else(|| format!("unknown app '{abbr}'"))?;
    let fault_plan = FaultPlan::parse(fields.str("fault_plan")?)
        .map_err(|e| format!("field 'fault_plan': {e}"))?;
    let gpu_count = fields.u64("gpu_count")? as usize;
    if gpu_count == 0 {
        return Err("field 'gpu_count' must be positive".to_string());
    }
    fault_plan
        .validate_for(gpu_count)
        .map_err(|e| format!("field 'fault_plan': {e}"))?;
    let scenario = Scenario {
        seed: fields.u64("seed")?,
        app,
        gpu_count,
        footprint_mb: fields.u64("footprint_mb")?.max(1),
        workload_seed: fields.u64("workload_seed")?,
        max_phases: (fields.u64("max_phases")? as usize).max(1),
        large_pages: fields.bool("large_pages")?,
        striped: fields.bool("striped")?,
        lanes_per_gpu: (fields.u64("lanes_per_gpu")? as usize).max(1),
        counter_threshold: fields.u64("counter_threshold")?.min(u64::from(u32::MAX)) as u32,
        capacity_pages: fields.opt_u64("capacity_pages")?,
        fault_plan,
    };
    Ok((scenario, oracle))
}

/// Maps a Table II abbreviation back to its [`App`].
pub fn app_from_abbr(abbr: &str) -> Option<App> {
    ALL_APPS.into_iter().find(|a| a.abbr() == abbr)
}

/// Writes the repro for a shrunk violation into `dir`, creating it if
/// needed. The filename encodes the seed and oracle kind, so distinct
/// failures never collide and replays are greppable in CI logs.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory or file cannot be
/// written.
pub fn write_repro(
    dir: &Path,
    scenario: &Scenario,
    oracle: Option<OracleKind>,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let name = format!(
        "repro-{:016x}-{}.json",
        scenario.seed,
        oracle.map_or("none", OracleKind::as_str)
    );
    let path = dir.join(name);
    oasis_engine::failpoint::on_io("corpus.write")?;
    // Atomic: a kill mid-write must never leave a torn repro for the
    // regression replay to choke on.
    oasis_engine::fsio::atomic_write(&path, to_json(scenario, oracle).as_bytes())?;
    Ok(path)
}

/// One successfully parsed corpus repro.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The file the repro was loaded from.
    pub path: PathBuf,
    /// The parsed scenario.
    pub scenario: Scenario,
    /// The oracle kind recorded with the repro, if any.
    pub oracle: Option<OracleKind>,
}

/// A directory entry `load_dir` skipped, with the typed reason — a
/// warning for the report, not an abort for the replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedFile {
    /// The offending path.
    pub path: PathBuf,
    /// Why it was skipped (wrong extension, unreadable, parse failure).
    pub reason: String,
}

/// The result of loading a corpus directory: the repros that parsed plus
/// the files that didn't. One garbage file in the directory must never
/// cost the replay of five hundred good repros.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Corpus {
    /// Parsed repros, sorted by filename for deterministic replay order.
    pub entries: Vec<CorpusEntry>,
    /// Files skipped with their reasons, sorted by filename.
    pub skipped: Vec<SkippedFile>,
}

impl Corpus {
    /// Whether no repro parsed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of parsed repros.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Loads every corpus repro in `dir`, sorted by filename for deterministic
/// replay order. A missing directory is an empty corpus. Non-`.json`
/// files and malformed repro files are *skipped with a typed warning* in
/// [`Corpus::skipped`] rather than aborting the load (subdirectories are
/// ignored silently).
///
/// # Errors
///
/// Only directory-level failures (unreadable directory) error out;
/// per-file problems land in [`Corpus::skipped`].
pub fn load_dir(dir: &Path) -> Result<Corpus, String> {
    let mut corpus = Corpus::default();
    let mut paths = Vec::new();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
                if path.is_dir() {
                    continue;
                }
                if path.extension().is_some_and(|e| e == "json") {
                    paths.push(path);
                } else {
                    corpus.skipped.push(SkippedFile {
                        path,
                        reason: "not a .json repro file".to_string(),
                    });
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(corpus),
        Err(e) => return Err(format!("{}: {e}", dir.display())),
    }
    paths.sort();
    for path in paths {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                corpus.skipped.push(SkippedFile {
                    path,
                    reason: format!("unreadable: {e}"),
                });
                continue;
            }
        };
        match from_json(&text) {
            Ok((scenario, oracle)) => corpus.entries.push(CorpusEntry {
                path,
                scenario,
                oracle,
            }),
            Err(e) => corpus.skipped.push(SkippedFile {
                path,
                reason: format!("malformed repro: {e}"),
            }),
        }
    }
    corpus.skipped.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_engine::ScratchDir;

    #[test]
    fn scenarios_round_trip_through_json() {
        for seed in 0..100u64 {
            let s = Scenario::generate(seed);
            for oracle in [None, Some(OracleKind::Abort), Some(OracleKind::Panic)] {
                let text = to_json(&s, oracle);
                let (back, kind) = from_json(&text)
                    .unwrap_or_else(|e| panic!("seed {seed}: round-trip failed: {e}\n{text}"));
                assert_eq!(back, s, "seed {seed}");
                assert_eq!(kind, oracle, "seed {seed}");
            }
        }
    }

    #[test]
    fn parser_rejects_malformed_corpus_files() {
        for (bad, why) in [
            ("", "empty"),
            ("{", "unterminated"),
            ("[]", "not an object"),
            ("{\"schema\": \"wrong\"}", "schema mismatch"),
            ("{\"a\": 1, \"a\": 2}", "duplicate key"),
            ("{\"a\": {\"nested\": 1}}", "nesting"),
            ("{\"a\": [1]}", "array"),
            ("{\"a\": -1}", "negative number"),
            ("{\"a\": 1.5}", "fractional number"),
        ] {
            assert!(from_json(bad).is_err(), "accepted {why}: {bad}");
        }
        // A valid object missing required fields is also rejected.
        assert!(from_json(&format!("{{\"schema\": \"{SCHEMA}\"}}")).is_err());
        // Every flat-scalar rule holds for an otherwise valid file too.
        let good = to_json(&Scenario::generate(4), None);
        for extra in ["{\"x\": 1}", "[]", "-1", "0.5"] {
            let bad = good.replacen('{', &format!("{{\"extra\": {extra},"), 1);
            let err = from_json(&bad).expect_err(&bad);
            assert!(err.contains("'extra'"), "{err}");
        }
        let dup = good.replacen('{', "{\"seed\": 1,", 1);
        assert!(from_json(&dup)
            .expect_err(&dup)
            .contains("duplicate field 'seed'"));
    }

    #[test]
    fn standard_string_escapes_are_accepted() {
        let s = Scenario::generate(4);
        let plain = to_json(&s, None);
        let app = format!("\"app\": \"{}\"", s.app.abbr());
        let escaped: String = s
            .app
            .abbr()
            .chars()
            .map(|c| format!("\\u{:04x}", c as u32))
            .collect();
        let text = plain.replace(&app, &format!("\"app\": \"{escaped}\""));
        assert_ne!(text, plain);
        assert_eq!(from_json(&text).expect("escaped app parses"), (s, None));
    }

    #[test]
    fn write_and_load_round_trip_on_disk() {
        let scratch = ScratchDir::new("fuzz-corpus").expect("scratch dir");
        let dir = scratch.join("corpus");
        let a = Scenario::generate(1);
        let b = Scenario::generate(2);
        let pa = write_repro(&dir, &a, Some(OracleKind::Abort)).expect("write a");
        let pb = write_repro(&dir, &b, None).expect("write b");
        assert_ne!(pa, pb);
        let corpus = load_dir(&dir).expect("load");
        assert_eq!(corpus.len(), 2);
        assert!(corpus.skipped.is_empty());
        assert!(corpus
            .entries
            .iter()
            .any(|e| e.scenario == a && e.oracle == Some(OracleKind::Abort)));
        assert!(corpus
            .entries
            .iter()
            .any(|e| e.scenario == b && e.oracle.is_none()));
        // Missing directory is an empty corpus, not an error.
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert!(load_dir(&dir).expect("missing dir").is_empty());
    }

    #[test]
    fn garbage_files_are_skipped_with_typed_warnings_not_fatal() {
        let scratch = ScratchDir::new("fuzz-corpus-garbage").expect("scratch dir");
        let dir = scratch.join("corpus");
        let good = Scenario::generate(3);
        write_repro(&dir, &good, None).expect("write good repro");
        // Plant the three failure shapes next to it: a non-JSON file, an
        // unparsable .json file, and a structurally-valid .json file with
        // a bad schema. None of them may sink the good repro.
        std::fs::write(dir.join("README.txt"), "not a repro").expect("write txt");
        std::fs::write(dir.join("broken.json"), "{ this is not json").expect("write broken");
        std::fs::write(dir.join("wrong-schema.json"), "{\"schema\": \"nope\"}")
            .expect("write wrong schema");
        std::fs::create_dir_all(dir.join("subdir")).expect("mkdir subdir");

        let corpus = load_dir(&dir).expect("directory itself is readable");
        assert_eq!(corpus.len(), 1, "the good repro survives");
        assert_eq!(corpus.entries[0].scenario, good);
        assert_eq!(corpus.skipped.len(), 3, "{:?}", corpus.skipped);
        let reason_for = |name: &str| {
            corpus
                .skipped
                .iter()
                .find(|s| s.path.file_name().is_some_and(|f| f == name))
                .unwrap_or_else(|| panic!("{name} not in skipped list"))
                .reason
                .clone()
        };
        assert!(reason_for("README.txt").contains("not a .json"));
        assert!(reason_for("broken.json").contains("malformed"));
        assert!(reason_for("wrong-schema.json").contains("malformed"));
    }
}
