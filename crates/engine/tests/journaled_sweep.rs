//! The shared journaled-sweep runner, exercised with a trivial payload
//! (job `id` completes with `id * 10`): resume merges instead of
//! re-dispatching, lost jobs replay exactly as they were recorded, foreign
//! ids warn, bad payloads and failed appends are typed errors, and a stop
//! between waves leaves a resumable journal.

use std::path::{Path, PathBuf};

use oasis_engine::codec::{ByteReader, ByteWriter, CodecError};
use oasis_engine::failpoint::{arm_thread, FailPlan, FaultKind};
use oasis_engine::journal::{recover, AdjudicatedOutcome, JournalRecord, JournalWriter};
use oasis_engine::pool::{Job, StopHandle};
use oasis_engine::sweep::{
    JournaledSweep, Outcome, PayloadCodec, Record, SweepError, SweepOptions, SweepResult,
    PAYLOAD_CLIP_CHARS,
};
use oasis_engine::ScratchDir;

const TAG: u64 = 0x5EED;
const IDS: u64 = 5;

/// Completed values travel as one little-endian u64.
struct Tenfold;

impl PayloadCodec for Tenfold {
    type Value = u64;

    fn encode(&self, value: &u64, w: &mut ByteWriter) {
        w.u64(*value);
    }

    fn decode(&self, _id: u64, r: &mut ByteReader<'_>) -> Result<u64, CodecError> {
        r.u64()
    }
}

/// A journal path in a scratch directory owned by one test alone; the
/// directory lives as long as the returned guard.
fn temp_journal(test: &str) -> (ScratchDir, PathBuf) {
    let dir = ScratchDir::new(&format!("journaled-sweep-{test}")).expect("scratch dir");
    let path = dir.join("sweep.jnl");
    (dir, path)
}

fn opts(journal: &Path, resume_sweep: bool) -> SweepOptions {
    SweepOptions {
        jobs: 2,
        journal: Some(journal.to_path_buf()),
        resume_sweep,
        ..SweepOptions::default()
    }
}

fn tenfold_job(id: u64) -> Job<u64> {
    Job::new(format!("job-{id}"), move |_ctx| Ok(id * 10))
}

/// Opens the sweep, runs every pending id as one wave, and finishes.
fn run(opts: &SweepOptions) -> Result<SweepResult<u64>, SweepError> {
    let mut sweep = JournaledSweep::open(opts, TAG, "test sweep", IDS, Tenfold)?;
    let pending = sweep.pending();
    sweep.run_wave(&pending, tenfold_job);
    sweep.finish()
}

fn lost_payload(error: &str) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.str(error);
    w.into_vec()
}

fn dispatched_ids(events: &[JournalRecord]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            JournalRecord::Dispatched { job_id, .. } => Some(*job_id),
            _ => None,
        })
        .collect()
}

#[test]
fn resume_merges_adjudicated_ids_and_dispatches_only_the_rest() {
    let (_dir, path) = temp_journal("resume");
    // A drained earlier run: ids 0 and 2 completed, id 3 lost after two
    // attempts. Non-contiguous on purpose, so the pool-id remap matters.
    let mut w = JournalWriter::create(&path, TAG, "test sweep").expect("create");
    for id in [0u64, 2] {
        w.dispatched(id, 1).expect("dispatched");
        w.adjudicated(
            id,
            AdjudicatedOutcome::Completed,
            1,
            &(id * 10).to_le_bytes(),
        )
        .expect("adjudicated");
    }
    w.dispatched(3, 1).expect("dispatched");
    w.dispatched(3, 2).expect("dispatched");
    w.adjudicated(
        3,
        AdjudicatedOutcome::Failed,
        2,
        &lost_payload("failed: boom"),
    )
    .expect("adjudicated");
    w.interrupted(3).expect("trailer");
    drop(w);
    let prefix_events = recover(&path).expect("recover prefix").events.len();

    let done = run(&opts(&path, true)).expect("resumed sweep");
    assert_eq!(done.resumed, 3);
    assert_eq!(done.retries, 1, "retries derive from journaled attempts");
    assert!(!done.interrupted);
    assert!(done.warnings.is_empty(), "{:?}", done.warnings);
    for id in [0u64, 1, 2, 4] {
        assert_eq!(done.records[&id].outcome, Outcome::Completed(id * 10));
    }
    assert_eq!(
        done.records[&3],
        Record {
            outcome: Outcome::Lost {
                error: "failed: boom".to_string(),
                quarantined: false,
            },
            attempts: 2,
        }
    );

    // Checked from the journal itself: the resume dispatched exactly the
    // missing ids, and no Dispatched{id} follows an Adjudicated{id}.
    let after = recover(&path).expect("recover resumed journal");
    assert_eq!(dispatched_ids(&after.events[prefix_events..]), vec![1, 4]);
    let mut adjudicated = std::collections::BTreeSet::new();
    for event in &after.events {
        match event {
            JournalRecord::Adjudicated { job_id, .. } => {
                adjudicated.insert(*job_id);
            }
            JournalRecord::Dispatched { job_id, .. } => {
                assert!(
                    !adjudicated.contains(job_id),
                    "job {job_id} was re-dispatched after adjudication"
                );
            }
            _ => {}
        }
    }
    assert_eq!(adjudicated.len(), IDS as usize);
}

#[test]
fn lost_jobs_resume_exactly_as_they_were_recorded() {
    let (_dir, path) = temp_journal("lost");
    // Job 1 fails with an over-long message, job 3 panics; one attempt
    // each, so the first is Failed and the second Quarantined.
    let job = |id: u64| match id {
        1 => Job::new("fails", |_ctx| Err("x".repeat(3 * PAYLOAD_CLIP_CHARS))),
        3 => Job::new("panics", |_ctx| panic!("boom")),
        _ => tenfold_job(id),
    };
    let mut sweep =
        JournaledSweep::open(&opts(&path, false), TAG, "test sweep", IDS, Tenfold).expect("open");
    let pending = sweep.pending();
    assert!(sweep.run_wave(&pending, job));
    let live = sweep.finish().expect("lost jobs are not a sweep error");

    match &live.records[&1].outcome {
        Outcome::Lost { error, quarantined } => {
            assert!(!quarantined, "a returned failure is not a quarantine");
            assert!(error.contains("xxx"), "{error}");
            assert_eq!(
                error.chars().count(),
                PAYLOAD_CLIP_CHARS,
                "error not clipped"
            );
        }
        other => panic!("job 1 should be lost: {other:?}"),
    }
    match &live.records[&3].outcome {
        Outcome::Lost { error, quarantined } => {
            assert!(quarantined, "a panic is a quarantine");
            assert!(error.contains("boom"), "{error}");
        }
        other => panic!("job 3 should be lost: {other:?}"),
    }
    let mut kinds: Vec<_> = recover(&path)
        .expect("recover")
        .events
        .iter()
        .filter_map(|e| match e {
            JournalRecord::Adjudicated {
                job_id, outcome, ..
            } if [1, 3].contains(job_id) => Some((*job_id, *outcome)),
            _ => None,
        })
        .collect();
    kinds.sort_by_key(|k| k.0);
    assert_eq!(
        kinds,
        vec![
            (1, AdjudicatedOutcome::Failed),
            (3, AdjudicatedOutcome::Quarantined)
        ]
    );

    // Every record, lost ones included, comes back from the journal as
    // it was live, and nothing is re-run.
    let resumed = run(&opts(&path, true)).expect("resume");
    assert_eq!(resumed.resumed, IDS);
    assert_eq!(resumed.records, live.records);
    assert_eq!(resumed.retries, live.retries);
}

#[test]
fn an_adjudication_outside_the_sweep_is_a_warning_not_an_error() {
    let (_dir, path) = temp_journal("out-of-range");
    let mut w = JournalWriter::create(&path, TAG, "test sweep").expect("create");
    w.adjudicated(99, AdjudicatedOutcome::Completed, 1, &990u64.to_le_bytes())
        .expect("adjudicated");
    drop(w);

    let done = run(&opts(&path, true)).expect("a foreign id is not fatal");
    assert_eq!(done.resumed, 0);
    assert_eq!(done.records.len(), IDS as usize);
    assert!(!done.records.contains_key(&99));
    assert!(
        done.warnings.iter().any(|w| w.contains("job 99")),
        "{:?}",
        done.warnings
    );
}

#[test]
fn an_undecodable_payload_is_a_typed_error_naming_the_id() {
    let (_dir, path) = temp_journal("undecodable");
    let mut w = JournalWriter::create(&path, TAG, "test sweep").expect("create");
    w.adjudicated(2, AdjudicatedOutcome::Completed, 1, &[1, 2, 3])
        .expect("adjudicated");
    drop(w);

    let err = run(&opts(&path, true)).expect_err("a bad payload must refuse");
    match &err {
        SweepError::Undecodable {
            id: 2,
            error: CodecError::Truncated { .. },
        } => {}
        other => panic!("wrong error: {other:?}"),
    }
    assert!(err.to_string().contains("journaled job 2"), "{err}");
}

#[test]
fn an_append_failure_stops_the_sweep_with_a_typed_error() {
    let (_dir, path) = temp_journal("append-failure");
    let mut plan = FailPlan::once("journal.append.write", FaultKind::Eio);
    // The first Dispatched record lands; the second append fails.
    plan.after = Some(1);
    let scope = arm_thread(plan);
    let outcome = run(&opts(&path, false));
    assert_eq!(scope.fired(), 1);
    drop(scope);

    let err = outcome.expect_err("the sweep must not run on without its journal");
    assert!(matches!(err, SweepError::Append(_)), "{err:?}");
    assert!(
        err.to_string().starts_with("sweep journal append failed: "),
        "{err}"
    );
    // The stop was raised before any worker started: nothing ran, and
    // the drained journal is marked resumable.
    let after = recover(&path).expect("recover");
    assert!(after.adjudicated.is_empty(), "a job ran after the failure");
    assert!(after.interrupted);
}

#[test]
fn a_stop_between_waves_writes_the_interrupted_trailer() {
    let (_dir, path) = temp_journal("stop");
    let stop = StopHandle::new();
    let mut o = opts(&path, false);
    o.stop = Some(stop.clone());
    let mut sweep = JournaledSweep::open(&o, TAG, "test sweep", IDS, Tenfold).expect("open");
    assert!(sweep.run_wave(&[0, 1], tenfold_job));
    stop.stop();
    assert!(!sweep.run_wave(&[2, 3, 4], tenfold_job));
    let done = sweep.finish().expect("a stop is not an error");
    assert!(done.interrupted);
    assert_eq!(done.records.len(), 2);

    let after = recover(&path).expect("recover");
    assert!(after.interrupted);
    assert_eq!(
        after.events.last(),
        Some(&JournalRecord::Interrupted { adjudicated: 2 })
    );
    assert_eq!(dispatched_ids(&after.events), vec![0, 1]);

    // The drained journal resumes to the full sweep.
    let done = run(&opts(&path, true)).expect("resume");
    assert_eq!(done.resumed, 2);
    assert_eq!(done.records.len(), IDS as usize);
    assert!(!done.interrupted);
}
