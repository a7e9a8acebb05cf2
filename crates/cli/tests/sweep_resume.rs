//! Resumed `inject` and `verify-replay` sweeps, against the real binary:
//! a journal holding only some of a straight run's adjudications (crafted,
//! so the "kill point" is exact) must resume to stdout byte-identical to
//! the straight run, dispatching exactly the ids the journal lacks.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use oasis_engine::journal::{recover, JournalRecord, JournalWriter};
use oasis_engine::ScratchDir;

const BIN: &str = env!("CARGO_BIN_EXE_oasis-sim");

/// Runs the binary with `args` plus `extra`, requiring success; returns
/// stdout.
fn stdout_of(args: &[&str], extra: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .args(extra)
        .output()
        .expect("spawn oasis-sim");
    assert!(
        out.status.success(),
        "{args:?} {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 path")
}

/// Straight journaled run, then a resume from a journal holding only the
/// adjudications of `keep`: same stdout, and only the other ids
/// dispatched.
fn assert_prefix_resume_is_byte_identical(test: &str, args: &[&str], keep: &[u64]) {
    let dir = ScratchDir::new(&format!("sweep-resume-{test}")).expect("scratch dir");
    let full_path = dir.join("full.jnl");
    let straight = stdout_of(args, &[]);
    assert_eq!(
        stdout_of(args, &["--journal", path_str(&full_path)]),
        straight,
        "journaling must not change the output"
    );
    let full = recover(&full_path).expect("recover full journal");

    let partial_path = dir.join("partial.jnl");
    let mut w =
        JournalWriter::create(&partial_path, full.tag, &full.label).expect("create partial");
    for &id in keep {
        let adj = &full.adjudicated[&id];
        w.dispatched(id, 1).expect("dispatched");
        w.adjudicated(id, adj.outcome, adj.attempts, &adj.payload)
            .expect("adjudicated");
    }
    w.interrupted(keep.len() as u64).expect("trailer");
    drop(w);
    let prefix_events = recover(&partial_path).expect("recover prefix").events.len();

    let resumed = stdout_of(
        args,
        &["--journal", path_str(&partial_path), "--resume-sweep"],
    );
    assert_eq!(resumed, straight, "resume changed the output");

    let after = recover(&partial_path).expect("recover resumed journal");
    let dispatched: BTreeSet<u64> = after.events[prefix_events..]
        .iter()
        .filter_map(|e| match e {
            JournalRecord::Dispatched { job_id, .. } => Some(*job_id),
            _ => None,
        })
        .collect();
    let missing: BTreeSet<u64> = full
        .adjudicated
        .keys()
        .copied()
        .filter(|id| !keep.contains(id))
        .collect();
    assert_eq!(dispatched, missing, "resume must dispatch only missing ids");
    assert_eq!(after.adjudicated.len(), full.adjudicated.len());
}

#[test]
fn a_resumed_inject_campaign_matches_the_straight_one() {
    assert_prefix_resume_is_byte_identical("inject", &["inject", "--seed", "0"], &[1, 4, 7]);
}

#[test]
fn a_resumed_verify_replay_matches_the_straight_one() {
    assert_prefix_resume_is_byte_identical(
        "verify-replay",
        &["verify-replay", "--app", "C2D", "--footprint-mb", "4"],
        &[0, 2],
    );
}
