//! Kill-resilient fuzz sweeps: a journaled session resumed partway must
//! (a) skip every case the journal already adjudicates, (b) never
//! re-dispatch an adjudicated case, and (c) end in a report that is
//! byte-identical to an uninterrupted run — at any worker count.
//!
//! The partial journal here is crafted deliberately (full run, then a
//! rewritten journal holding only a prefix of its adjudications) so the
//! "kill point" is exact; the CLI e2e test covers the real-SIGKILL path.

use std::path::PathBuf;

use oasis_engine::journal::{recover, JournalRecord, JournalWriter};
use oasis_engine::ScratchDir;
use oasis_fuzz::{report_json, run_fuzz, FuzzOptions};

const MASTER_SEED: u64 = 0xFA57;
const CASES: u64 = 5;

fn opts(journal: Option<PathBuf>, resume_sweep: bool, jobs: usize) -> FuzzOptions {
    let mut o = FuzzOptions::new(MASTER_SEED, CASES);
    o.jobs = jobs;
    o.journal = journal;
    o.resume_sweep = resume_sweep;
    o
}

/// Renders the report minus the one wall-clock line.
fn deterministic_json(o: &FuzzOptions) -> String {
    let report = run_fuzz(o).expect("fuzz run");
    report_json(o, &report)
        .lines()
        .filter(|l| !l.contains("elapsed_secs"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn resuming_a_partial_journal_skips_done_cases_and_matches_byte_for_byte() {
    let dir = ScratchDir::new("fuzz-resume-partial").expect("scratch dir");

    // Reference: the same sweep with no journal at all.
    let reference = deterministic_json(&opts(None, false, 1));

    // Full journaled run, to harvest genuine adjudication payloads.
    let full_path = dir.join("full.jnl");
    let full_json = deterministic_json(&opts(Some(full_path.clone()), false, 2));
    assert_eq!(
        reference, full_json,
        "journaling must not change the report"
    );
    let full = recover(&full_path).expect("recover full journal");
    assert_eq!(full.adjudicated.len(), CASES as usize);
    assert!(!full.interrupted);

    // Craft the "killed" journal: Begin + the first 2 adjudications + a
    // clean Interrupted trailer, exactly what a drained sweep leaves.
    let partial_path = dir.join("partial.jnl");
    let mut w =
        JournalWriter::create(&partial_path, full.tag, &full.label).expect("create partial");
    for (&id, adj) in full.adjudicated.iter().take(2) {
        w.dispatched(id, 1).expect("dispatched");
        w.adjudicated(id, adj.outcome, adj.attempts, &adj.payload)
            .expect("adjudicated");
    }
    w.interrupted(2).expect("trailer");
    drop(w);

    // Resume at a *different* worker count: the report must still be
    // byte-identical to the uninterrupted serial reference.
    let resume_opts = opts(Some(partial_path.clone()), true, 3);
    let report = run_fuzz(&resume_opts).expect("resumed run");
    assert_eq!(report.resumed_cases, 2, "two cases came from the journal");
    assert!(!report.interrupted);
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    let resumed_json = report_json(&resume_opts, &report)
        .lines()
        .filter(|l| !l.contains("elapsed_secs"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(reference, resumed_json, "resume changed the report");

    // No duplicate dispatch: once a case id is adjudicated in the journal,
    // no later Dispatched record may name it.
    let after = recover(&partial_path).expect("recover resumed journal");
    assert_eq!(after.adjudicated.len(), CASES as usize);
    let mut adjudicated = std::collections::BTreeSet::new();
    for event in &after.events {
        match event {
            JournalRecord::Adjudicated { job_id, .. } => {
                adjudicated.insert(*job_id);
            }
            JournalRecord::Dispatched { job_id, .. } => {
                assert!(
                    !adjudicated.contains(job_id),
                    "case {job_id} was re-dispatched after adjudication"
                );
            }
            _ => {}
        }
    }
}

#[test]
fn resuming_a_fully_adjudicated_journal_runs_nothing_new() {
    let dir = ScratchDir::new("fuzz-resume-complete").expect("scratch dir");
    let path = dir.join("complete.jnl");
    let reference = deterministic_json(&opts(None, false, 1));
    deterministic_json(&opts(Some(path.clone()), false, 1));

    let dispatches_before = recover(&path)
        .expect("recover")
        .events
        .iter()
        .filter(|e| matches!(e, JournalRecord::Dispatched { .. }))
        .count();
    let resume_opts = opts(Some(path.clone()), true, 2);
    let report = run_fuzz(&resume_opts).expect("resumed run");
    assert_eq!(report.resumed_cases, CASES);
    let resumed_json = report_json(&resume_opts, &report)
        .lines()
        .filter(|l| !l.contains("elapsed_secs"))
        .collect::<Vec<_>>()
        .join("\n");
    assert_eq!(reference, resumed_json);
    // The journal gained no new Dispatched records: there was nothing to do.
    let dispatches_after = recover(&path)
        .expect("recover")
        .events
        .iter()
        .filter(|e| matches!(e, JournalRecord::Dispatched { .. }))
        .count();
    assert_eq!(dispatches_before, dispatches_after);
}

#[test]
fn resuming_with_the_wrong_parameters_is_a_typed_refusal() {
    let dir = ScratchDir::new("fuzz-resume-wrong-tag").expect("scratch dir");
    let path = dir.join("tagged.jnl");
    deterministic_json(&opts(Some(path.clone()), false, 1));

    // Same journal, different case count → different sweep tag → error,
    // not a silently wrong merge.
    let mut wrong = FuzzOptions::new(MASTER_SEED, CASES + 1);
    wrong.journal = Some(path.clone());
    wrong.resume_sweep = true;
    let err = run_fuzz(&wrong).expect_err("tag mismatch must refuse");
    assert!(err.contains("journal"), "{err}");
}
