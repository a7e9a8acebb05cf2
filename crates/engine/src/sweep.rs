//! The one journaled-sweep runner behind `fuzz`, `inject` and
//! `verify-replay`.
//!
//! Each caller fans a fixed id space `0..ids` out over the supervised
//! [`pool`](crate::pool) and supplies only its job bodies, a journal tag
//! and a [`PayloadCodec`] for its completed value. [`JournaledSweep`]
//! owns the rest: journal create or resume-by-tag, decoding recovered
//! adjudications, dispatching only pending ids, stopping the sweep when
//! a journal append fails, the `Interrupted` trailer, and the per-id
//! [`Record`]s. It runs wave by wave on one open journal, so a caller can
//! honor a wall-clock budget at wave boundaries. It is the only journal
//! client in the workspace.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::journal::{AdjudicatedOutcome, JournalError, JournalWriter};
use crate::pool::{
    run_sweep_controlled, Job, JobOutcome, JobRecord, PoolConfig, StopHandle, SweepControl,
};

/// Journal payloads keep strings bounded so one pathological message
/// cannot overflow the codec's u16 string prefix (2048 chars is at most
/// 8 KiB of UTF-8). Codecs clip their strings with [`clip`]; the runner
/// clips every lost job's error.
pub const PAYLOAD_CLIP_CHARS: usize = 2048;

/// `s` cut to at most [`PAYLOAD_CLIP_CHARS`] characters.
pub fn clip(s: &str) -> String {
    if s.len() <= PAYLOAD_CLIP_CHARS {
        s.to_string()
    } else {
        s.chars().take(PAYLOAD_CLIP_CHARS).collect()
    }
}

/// The supervision and durability knobs every journaled sweep shares.
/// `jobs` and `attempts` count as at least 1.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads.
    pub jobs: usize,
    /// Per-job wall-clock deadline; a job that blows it is abandoned and
    /// its worker respawned.
    pub deadline: Option<Duration>,
    /// Attempts per job before it counts as lost.
    pub attempts: u32,
    /// Write-ahead sweep journal: every dispatch and adjudication is
    /// fsync'd here, so a killed sweep can be resumed.
    pub journal: Option<PathBuf>,
    /// Merge the adjudications already in [`SweepOptions::journal`]
    /// instead of re-running them. The journal must carry the same tag.
    pub resume_sweep: bool,
    /// Cooperative stop: once raised (e.g. by a signal handler) the sweep
    /// drains — in-flight jobs finish, nothing new dispatches.
    pub stop: Option<StopHandle>,
}

impl SweepOptions {
    /// The supervised-pool shape these options select: the one place
    /// `jobs`/`deadline`/`attempts` become a [`PoolConfig`].
    pub fn pool(&self) -> PoolConfig {
        PoolConfig {
            workers: self.jobs.max(1),
            deadline: self.deadline,
            max_attempts: self.attempts.max(1),
            ..PoolConfig::default()
        }
    }
}

/// How one caller's completed values travel through the opaque payload
/// of a journal `Adjudicated` record. Lost jobs are encoded by the
/// runner itself.
pub trait PayloadCodec {
    /// What a completed job produces.
    type Value: Send + 'static;

    /// Serializes a completed value.
    fn encode(&self, value: &Self::Value, w: &mut ByteWriter);

    /// Deserializes the completed value journaled for sweep id `id`
    /// (already checked to lie inside the sweep).
    fn decode(&self, id: u64, r: &mut ByteReader<'_>) -> Result<Self::Value, CodecError>;
}

/// One id's terminal state, live or replayed from a journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<T> {
    /// The job produced a value.
    Completed(T),
    /// The job was lost to supervision (failed, panicked, timed out).
    Lost {
        /// The supervision error, rendered and clipped.
        error: String,
        /// Whether the final attempt crashed or wedged its worker.
        quarantined: bool,
    },
}

/// An id's outcome plus the attempts it consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record<T> {
    /// Terminal state.
    pub outcome: Outcome<T>,
    /// Attempts consumed (1 on a first-try success).
    pub attempts: u32,
}

/// Why a journaled sweep could not be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// A fresh journal could not be published.
    Create(PathBuf, JournalError),
    /// An existing journal could not be recovered for this sweep (a tag
    /// mismatch included).
    Resume(PathBuf, JournalError),
    /// A recovered adjudication's payload does not decode.
    Undecodable {
        /// The sweep id it adjudicates.
        id: u64,
        /// What the decoder rejected.
        error: CodecError,
    },
    /// A journal append failed mid-sweep; the sweep was stopped.
    Append(JournalError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Create(path, e) => {
                write!(f, "cannot create sweep journal {}: {e}", path.display())
            }
            SweepError::Resume(path, e) => {
                write!(f, "cannot resume sweep journal {}: {e}", path.display())
            }
            SweepError::Undecodable { id, error } => {
                write!(f, "journaled job {id} is undecodable: {error}")
            }
            SweepError::Append(e) => write!(f, "sweep journal append failed: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<SweepError> for String {
    fn from(e: SweepError) -> String {
        e.to_string()
    }
}

/// Everything a finished (or drained) sweep knows, in id order.
#[derive(Debug, Clone)]
pub struct SweepResult<T> {
    /// One record per adjudicated id — journaled and fresh alike.
    pub records: BTreeMap<u64, Record<T>>,
    /// Ids merged from a resumed journal instead of re-run.
    pub resumed: u64,
    /// Retried attempts, from per-id attempt counts: identical whether
    /// the sweep ran straight through or across several processes.
    pub retries: u64,
    /// Workers respawned after deadline abandonments.
    pub workers_respawned: u64,
    /// Whether a stop drained the sweep before every wave ran.
    pub interrupted: bool,
    /// Journal warnings (salvaged tail, duplicates, ignored ids). Never
    /// part of a byte-compared report.
    pub warnings: Vec<String>,
}

/// The journal writer and its first append failure, shared by the two
/// pool observers. A failure raises the stop: running on without
/// durability would silently break the resume promise.
struct Appender {
    writer: Option<JournalWriter>,
    failure: Option<JournalError>,
    stop: StopHandle,
}

impl Appender {
    fn append(&mut self, op: impl FnOnce(&mut JournalWriter) -> Result<(), JournalError>) {
        if let Some(Err(e)) = self.writer.as_mut().map(op) {
            self.failure.get_or_insert(e);
            self.stop.stop();
        }
    }
}

/// A sweep over ids `0..ids`, open on its (optional) journal.
pub struct JournaledSweep<C: PayloadCodec> {
    codec: C,
    ids: u64,
    pool: PoolConfig,
    appender: Appender,
    done: SweepResult<C::Value>,
}

impl<C: PayloadCodec> JournaledSweep<C> {
    /// Opens the sweep: creates the journal (labelled `label`), or — with
    /// [`SweepOptions::resume_sweep`] — recovers it, checks `tag`, and
    /// merges every adjudication it holds for an id in `0..ids`.
    pub fn open(
        opts: &SweepOptions,
        tag: u64,
        label: &str,
        ids: u64,
        codec: C,
    ) -> Result<Self, SweepError> {
        let mut done = SweepResult {
            records: BTreeMap::new(),
            resumed: 0,
            retries: 0,
            workers_respawned: 0,
            interrupted: false,
            warnings: Vec::new(),
        };
        let writer = match &opts.journal {
            None => None,
            Some(path) if opts.resume_sweep => {
                let (writer, recovery) = JournalWriter::resume(path, tag)
                    .map_err(|e| SweepError::Resume(path.clone(), e))?;
                done.warnings.extend(recovery.warnings());
                for (&id, adj) in &recovery.adjudicated {
                    if id >= ids {
                        done.warnings.push(format!(
                            "journal adjudicates job {id}, beyond the sweep's {ids}; ignored"
                        ));
                        continue;
                    }
                    let mut r = ByteReader::new("sweep-journal-payload", &adj.payload);
                    let outcome = match adj.outcome {
                        AdjudicatedOutcome::Completed => {
                            codec.decode(id, &mut r).map(Outcome::Completed)
                        }
                        lost => r.str().map(|error| Outcome::Lost {
                            error,
                            quarantined: lost == AdjudicatedOutcome::Quarantined,
                        }),
                    }
                    .map_err(|error| SweepError::Undecodable { id, error })?;
                    let attempts = adj.attempts;
                    done.records.insert(id, Record { outcome, attempts });
                }
                done.resumed = done.records.len() as u64;
                Some(writer)
            }
            Some(path) => Some(
                JournalWriter::create(path, tag, label)
                    .map_err(|e| SweepError::Create(path.clone(), e))?,
            ),
        };
        Ok(JournaledSweep {
            codec,
            ids,
            pool: opts.pool(),
            appender: Appender {
                writer,
                failure: None,
                stop: opts.stop.clone().unwrap_or_default(),
            },
            done,
        })
    }

    /// Ids in `0..ids` with no record yet, ascending.
    pub fn pending(&self) -> Vec<u64> {
        (0..self.ids)
            .filter(|id| !self.done.records.contains_key(id))
            .collect()
    }

    /// Dispatches one wave — `make_job(id)` for each of `ids` — and
    /// records its outcomes. Returns `false` once the sweep is stopped
    /// (by the caller's handle or a journal append failure): run no
    /// further waves, call [`JournaledSweep::finish`].
    pub fn run_wave(&mut self, ids: &[u64], make_job: impl FnMut(u64) -> Job<C::Value>) -> bool {
        // Nothing left to run is never an interruption, stop or not.
        if ids.is_empty() {
            return true;
        }
        let stop = self.appender.stop.clone();
        if stop.is_stopped() {
            self.done.interrupted = true;
            return false;
        }
        let jobs: Vec<Job<C::Value>> = ids.iter().copied().map(make_job).collect();
        let codec = &self.codec;
        let appender = RefCell::new(&mut self.appender);
        // Pool job ids are wave-local; the observers translate them back
        // to sweep ids before journaling.
        let mut on_dispatch = |pool_id: u64, attempt: u32| {
            appender
                .borrow_mut()
                .append(|w| w.dispatched(ids[pool_id as usize], attempt));
        };
        let mut on_adjudicated = |rec: &JobRecord<C::Value>| {
            let mut payload = ByteWriter::new();
            match &rec.outcome {
                JobOutcome::Completed(value) => codec.encode(value, &mut payload),
                JobOutcome::Failed(e) | JobOutcome::Quarantined(e) => {
                    payload.str(&clip(&e.to_string()))
                }
            }
            let id = ids[rec.id as usize];
            let outcome = AdjudicatedOutcome::of(&rec.outcome);
            appender
                .borrow_mut()
                .append(|w| w.adjudicated(id, outcome, rec.attempts, payload.as_slice()));
        };
        let ctrl = SweepControl {
            stop: Some(stop),
            on_dispatch: Some(&mut on_dispatch),
            on_adjudicated: Some(&mut on_adjudicated),
        };
        let sweep = run_sweep_controlled(&self.pool, jobs, ctrl);
        self.done.workers_respawned += sweep.workers_respawned;
        for rec in sweep.jobs {
            let quarantined = matches!(rec.outcome, JobOutcome::Quarantined(_));
            let outcome = match rec.outcome {
                JobOutcome::Completed(value) => Outcome::Completed(value),
                JobOutcome::Failed(e) | JobOutcome::Quarantined(e) => Outcome::Lost {
                    error: clip(&e.to_string()),
                    quarantined,
                },
            };
            let attempts = rec.attempts;
            self.done
                .records
                .insert(ids[rec.id as usize], Record { outcome, attempts });
        }
        self.done.interrupted |= sweep.interrupted;
        !sweep.interrupted
    }

    /// Closes the sweep: writes the `Interrupted` trailer if a stop
    /// drained it (marking the journal deliberately incomplete), then
    /// returns the records — or the append failure that stopped it.
    pub fn finish(self) -> Result<SweepResult<C::Value>, SweepError> {
        let mut done = self.done;
        let Appender {
            writer, failure, ..
        } = self.appender;
        if let (true, Some(mut w)) = (done.interrupted, writer) {
            if let Err(e) = w.interrupted(done.records.len() as u64) {
                done.warnings
                    .push(format!("could not journal the Interrupted trailer: {e}"));
            }
        }
        if let Some(e) = failure {
            return Err(SweepError::Append(e));
        }
        done.retries = done
            .records
            .values()
            .map(|r| u64::from(r.attempts.saturating_sub(1)))
            .sum();
        Ok(done)
    }
}
