//! Replays every saved fuzz repro in `tests/corpus/` against the full
//! differential oracle.
//!
//! The corpus is append-only institutional memory: whenever the fuzzer
//! finds and shrinks a violation, the minimal repro lands here (see
//! `oasis-sim fuzz`), and from then on this test guards against the bug
//! ever coming back. The seed files committed with the fuzzer are known
//! clean scenarios covering the main code paths (multi-GPU striped 2 MiB
//! pages, capacity-pressure eviction, ECC fault recovery), so this test
//! also smoke-checks the oracle harness itself on every CI run.

use oasis::fuzz::{check, load_dir, to_json};

#[test]
fn every_corpus_repro_passes_all_oracles() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let corpus = load_dir(&dir).expect("corpus directory is readable");
    assert!(
        !corpus.is_empty(),
        "tests/corpus must hold at least the seed scenarios"
    );
    assert!(
        corpus.skipped.is_empty(),
        "every committed corpus file must parse; skipped: {:?}",
        corpus.skipped
    );
    let mut failures = Vec::new();
    for entry in &corpus.entries {
        if let Some(v) = check(&entry.scenario) {
            failures.push(format!(
                "{}: {} — {}\n  repro: {}",
                entry.path.display(),
                v.kind,
                v.detail,
                entry.scenario.summary()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} corpus repro(s) regressed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The corpus format is pinned by the committed files themselves: each
/// one parses and re-serializes to exactly its own bytes.
#[test]
fn every_corpus_file_reserializes_byte_exact() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let corpus = load_dir(&dir).expect("corpus directory is readable");
    assert!(!corpus.is_empty());
    for entry in &corpus.entries {
        let bytes = std::fs::read_to_string(&entry.path).expect("corpus file is readable");
        assert_eq!(
            to_json(&entry.scenario, entry.oracle),
            bytes,
            "{}",
            entry.path.display()
        );
    }
}
