//! Crash-safe filesystem primitives.
//!
//! Every durable artifact the workspace writes — checkpoints, repro corpus
//! files, traces, bench tables — used to go through a bare `File::create`,
//! which means a kill mid-write leaves a torn file *in place of* the
//! previous good one. [`atomic_write`] closes that window with the
//! classic same-directory rename dance:
//!
//! 1. write the full payload to a hidden temp file next to the target
//!    (same filesystem, so the rename below cannot degrade to a copy),
//! 2. `fsync` the temp file so the bytes are on disk before the name is,
//! 3. `rename` over the target — atomic on POSIX filesystems,
//! 4. `fsync` the directory so the rename itself survives a power cut.
//!
//! A kill at any byte offset therefore leaves either the previous file
//! fully intact (steps 1–3 incomplete) or the new file fully intact
//! (rename done); never a prefix of the new one under the target name.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::failpoint;

/// Process-wide counter so concurrent writers (pool workers, tests) never
/// collide on a temp name even within one pid.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The temp path `atomic_write` stages `path` through: hidden, same
/// directory, suffixed with pid + a process-wide counter. Exposed so
/// tests can enumerate the exact intermediate states a kill can leave.
pub fn staging_path(path: &Path) -> io::Result<PathBuf> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("atomic_write target has no file name: {}", path.display()),
        )
    })?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    Ok(dir.join(format!(
        ".{}.tmp.{}.{}",
        name.to_string_lossy(),
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    )))
}

/// A fresh directory `temp_dir()/oasis-<tag>-<pid>-<counter>`, removed
/// with everything in it on drop. The pid and the process-wide counter
/// give every instance its own directory, so concurrent tests and
/// processes never share one; a stale directory left under the same name
/// by an earlier process is cleared first.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates the directory.
    pub fn new(tag: &str) -> io::Result<ScratchDir> {
        let path = std::env::temp_dir().join(format!(
            "oasis-{tag}-{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `name` inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Atomically replaces `path` with `bytes`: temp file in the same
/// directory, fsync, rename, fsync the directory. On error the temp file
/// is removed; the previous contents of `path` (if any) are untouched.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = staging_path(path)?;
    let result = write_and_rename(&tmp, path, bytes);
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

fn write_and_rename(tmp: &Path, path: &Path, bytes: &[u8]) -> io::Result<()> {
    {
        failpoint::on_io("fsio.create")?;
        let mut f = File::create(tmp)?;
        match failpoint::on_write("fsio.write", bytes.len()) {
            failpoint::WriteFault::Clear => f.write_all(bytes)?,
            failpoint::WriteFault::Fail(e) => return Err(e),
            failpoint::WriteFault::Torn { cut, error } => {
                // Persist the short prefix for real so the staged file is
                // genuinely torn, then report the failure; atomic_write
                // removes the temp and the target never sees the prefix.
                f.write_all(&bytes[..cut])?;
                let _ = f.sync_all();
                return Err(error);
            }
        }
        failpoint::on_io("fsio.fsync")?;
        f.sync_all()?;
    }
    failpoint::on_io("fsio.rename")?;
    std::fs::rename(tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Fsync the directory holding `path` so a just-completed rename is
/// durable. Best-effort: some filesystems refuse to open directories for
/// writing, and a failure here never invalidates the rename itself.
fn sync_parent_dir(path: &Path) {
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> ScratchDir {
        ScratchDir::new(&format!("fsio-{tag}")).expect("create test dir")
    }

    #[test]
    fn scratch_dirs_are_distinct_and_removed_on_drop() {
        let a = scratch("scratch");
        let b = scratch("scratch");
        assert_ne!(a.path(), b.path());
        std::fs::write(a.join("f"), b"x").expect("write inside");
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists(), "{} survived the drop", kept.display());
        assert!(b.path().is_dir());
    }

    #[test]
    fn writes_new_file_and_replaces_existing() {
        let dir = scratch("basic");
        let target = dir.join("artifact.json");
        atomic_write(&target, b"first").expect("first write");
        assert_eq!(std::fs::read(&target).unwrap(), b"first");
        atomic_write(&target, b"second, longer payload").expect("second write");
        assert_eq!(std::fs::read(&target).unwrap(), b"second, longer payload");
        // No staging debris left behind.
        let leftovers: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }

    #[test]
    fn failed_write_leaves_previous_contents_and_no_temp() {
        let dir = scratch("fail");
        let target = dir.join("artifact.bin");
        atomic_write(&target, b"good").expect("seed write");
        // Point the write at a target whose parent does not exist: the
        // staging create fails and the original must be untouched.
        let bad = dir.join("missing-subdir").join("artifact.bin");
        assert!(atomic_write(&bad, b"doomed").is_err());
        assert_eq!(std::fs::read(&target).unwrap(), b"good");
    }

    /// Every injectable leg — create, write (full and torn), fsync,
    /// rename — must error with the site name, leave the previous target
    /// intact, and leave zero staging debris.
    #[test]
    fn injected_faults_leave_no_stray_temp_and_previous_contents() {
        use crate::failpoint::{arm_thread, FailPlan, FaultKind};
        let dir = scratch("inject");
        let target = dir.join("artifact.bin");
        atomic_write(&target, b"good").expect("seed write");
        let cells = [
            ("fsio.create", FaultKind::Eio),
            ("fsio.create", FaultKind::Enospc),
            ("fsio.write", FaultKind::Eio),
            ("fsio.write", FaultKind::ShortWrite),
            ("fsio.write", FaultKind::TornAppend),
            ("fsio.fsync", FaultKind::FsyncFail),
            ("fsio.rename", FaultKind::RenameFail),
        ];
        for (site, kind) in cells {
            let scope = arm_thread(FailPlan::once(site, kind));
            let err =
                atomic_write(&target, b"replacement payload").expect_err("armed write must fail");
            assert!(
                err.to_string().contains(site),
                "error must name the site: {err} (cell {site}/{kind})"
            );
            assert_eq!(
                std::fs::read(&target).unwrap(),
                b"good",
                "previous contents must survive cell {site}/{kind}"
            );
            let strays: Vec<_> = std::fs::read_dir(dir.path())
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
                .collect();
            assert!(
                strays.is_empty(),
                "staging debris after cell {site}/{kind}: {strays:?}"
            );
            drop(scope);
        }
        // Disarmed, the same write goes through.
        atomic_write(&target, b"replacement payload").expect("clean write");
        assert_eq!(std::fs::read(&target).unwrap(), b"replacement payload");
    }

    #[test]
    fn staging_path_is_hidden_and_in_the_same_directory() {
        let p = Path::new("/some/dir/report.json");
        let tmp = staging_path(p).unwrap();
        assert_eq!(tmp.parent(), Some(Path::new("/some/dir")));
        let name = tmp.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with(".report.json.tmp."), "got {name}");
        // Bare file names stage into the current directory.
        let tmp = staging_path(Path::new("report.json")).unwrap();
        assert_eq!(tmp.parent(), Some(Path::new(".")));
    }

    #[test]
    fn a_target_without_a_file_name_is_rejected() {
        assert!(staging_path(Path::new("/")).is_err());
    }
}
