//! Kill-at-any-byte durability for checkpoint writes.
//!
//! `--checkpoint-every` publishes checkpoints through
//! `oasis_engine::fsio::atomic_write`: serialize to a hidden same-directory
//! temp file, fsync, rename over the target. This test enumerates every
//! observable crash state of that protocol — the temp file cut at each
//! byte offset while the previous checkpoint still occupies the target —
//! and proves the *visible* checkpoint is always complete and resumable.

use oasis_cli::Cli;
use oasis_engine::failpoint::{arm_thread, FailPlan, FaultKind};
use oasis_engine::fsio::{atomic_write, staging_path};
use oasis_engine::ScratchDir;
use oasis_mgpu::System;
use oasis_workloads::generate;

fn parse(argv: &[&str]) -> Cli {
    Cli::parse(argv.iter().map(|s| s.to_string())).expect("parse")
}

#[test]
fn a_kill_at_any_byte_offset_leaves_a_resumable_checkpoint() {
    let cli = parse(&["run", "--app", "C2D", "--footprint-mb", "4"]);
    let trace = generate(cli.app, &cli.workload_params());
    let config = cli.system_config();

    // The "previous" checkpoint (epoch 2) and the "next" one (epoch 4),
    // exactly as `run --checkpoint-every 2` would produce them.
    let checkpoint_at = |epoch: u64| {
        let mut sys = System::new(config.clone(), &cli.policy);
        sys.run_prefix(&trace, epoch).expect("prefix run");
        let mut buf = Vec::new();
        sys.checkpoint(&mut buf).expect("checkpoint");
        buf
    };
    let old = checkpoint_at(2);
    let new = checkpoint_at(4);
    assert_ne!(old, new, "the two checkpoints must differ");

    let dir = ScratchDir::new("ckpt-atomic").expect("scratch dir");
    let path = dir.join("C2D-oasis.ckpt");
    atomic_write(&path, &old).expect("publish old checkpoint");

    // Kill states during the write of `new`: the temp holds 0..=len bytes,
    // the target still holds `old`. Every offset (strided to ~256 probes,
    // plus the exact edges) must leave the visible file resumable.
    let stride = (new.len() / 256).max(1);
    let mut offsets: Vec<usize> = (0..=new.len()).step_by(stride).collect();
    offsets.extend([0, 1, new.len().saturating_sub(1), new.len()]);
    offsets.sort_unstable();
    offsets.dedup();
    for (i, &cut) in offsets.iter().enumerate() {
        let tmp = staging_path(&path).expect("staging path");
        std::fs::write(&tmp, &new[..cut]).expect("write torn temp");

        let visible = std::fs::read(&path).expect("target readable");
        assert_eq!(visible, old, "cut at {cut}: target was modified mid-write");
        let mut sys =
            System::resume(&mut visible.as_slice(), &trace).expect("old checkpoint resumes");
        assert_eq!(sys.next_epoch(), 2, "cut at {cut}");
        // Deserializing every offset is cheap; driving the resumed system
        // to completion is not, so finish the run at the edges and a
        // handful of interior probes only.
        if i % 64 == 0 || cut == 0 || cut == new.len() {
            sys.run(&trace).expect("resumed run finishes");
        }

        std::fs::remove_file(&tmp).ok();
    }

    // The rename completed: only now does the new checkpoint become
    // visible — whole, never partially.
    atomic_write(&path, &new).expect("publish new checkpoint");
    let visible = std::fs::read(&path).expect("target readable");
    assert_eq!(visible, new);
    let sys = System::resume(&mut visible.as_slice(), &trace).expect("new checkpoint resumes");
    assert_eq!(sys.next_epoch(), 4);
}

/// Injected storage faults on every `atomic_write` leg — create, write
/// (outright and torn), fsync, rename — must error with the site name,
/// keep the previous checkpoint both visible and resumable, and remove
/// the staging temp file. This is the fault-driven twin of the
/// kill-at-any-byte test above: there the process dies mid-protocol, here
/// the OS says no and the process must clean up after itself.
#[test]
fn injected_write_faults_leave_the_old_checkpoint_and_no_temp() {
    let cli = parse(&["run", "--app", "C2D", "--footprint-mb", "4"]);
    let trace = generate(cli.app, &cli.workload_params());
    let config = cli.system_config();
    let checkpoint_at = |epoch: u64| {
        let mut sys = System::new(config.clone(), &cli.policy);
        sys.run_prefix(&trace, epoch).expect("prefix run");
        let mut buf = Vec::new();
        sys.checkpoint(&mut buf).expect("checkpoint");
        buf
    };
    let old = checkpoint_at(2);
    let new = checkpoint_at(4);

    let dir = ScratchDir::new("ckpt-inject").expect("scratch dir");
    let path = dir.join("C2D-oasis.ckpt");
    atomic_write(&path, &old).expect("publish old checkpoint");

    let cells = [
        ("fsio.create", FaultKind::Eio),
        ("fsio.create", FaultKind::Enospc),
        ("fsio.write", FaultKind::Eio),
        ("fsio.write", FaultKind::Enospc),
        ("fsio.write", FaultKind::ShortWrite),
        ("fsio.write", FaultKind::TornAppend),
        ("fsio.fsync", FaultKind::FsyncFail),
        ("fsio.fsync", FaultKind::Enospc),
        ("fsio.rename", FaultKind::RenameFail),
        ("fsio.rename", FaultKind::Eio),
    ];
    for (site, kind) in cells {
        let scope = arm_thread(FailPlan::once(site, kind));
        let err = atomic_write(&path, &new).expect_err("armed publish must fail");
        assert_eq!(scope.fired(), 1, "cell {site}/{kind}");
        drop(scope);
        assert!(
            err.to_string().contains(site),
            "cell {site}/{kind}: error must name the site: {err}"
        );

        // No staging debris anywhere in the checkpoint directory.
        let strays: Vec<String> = std::fs::read_dir(dir.path())
            .expect("read dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(strays.is_empty(), "cell {site}/{kind}: {strays:?}");

        // The visible checkpoint is still the old one, byte for byte, and
        // still resumable.
        let visible = std::fs::read(&path).expect("target readable");
        assert_eq!(visible, old, "cell {site}/{kind}: target corrupted");
        let sys = System::resume(&mut visible.as_slice(), &trace).expect("old resumes");
        assert_eq!(sys.next_epoch(), 2, "cell {site}/{kind}");
    }

    // Disarmed, the same publish succeeds and the new checkpoint resumes.
    atomic_write(&path, &new).expect("clean publish");
    let visible = std::fs::read(&path).expect("target readable");
    assert_eq!(visible, new);
    let sys = System::resume(&mut visible.as_slice(), &trace).expect("new resumes");
    assert_eq!(sys.next_epoch(), 4);
}

#[test]
fn checkpoint_runs_leave_no_stray_temp_files() {
    let dir = ScratchDir::new("ckpt-clean").expect("scratch dir");
    let cli = parse(&[
        "run",
        "--app",
        "C2D",
        "--footprint-mb",
        "4",
        "--checkpoint-every",
        "4",
        "--checkpoint-dir",
        dir.path().to_str().expect("utf-8"),
    ]);
    oasis_cli::run(&cli).expect("checkpointed run succeeds");
    let mut names: Vec<String> = std::fs::read_dir(dir.path())
        .expect("read dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert!(
        names.iter().all(|n| n.ends_with(".ckpt")),
        "staging leftovers in checkpoint dir: {names:?}"
    );
    assert_eq!(names.len(), 2, "epochs 4 and 8: {names:?}");
}
