//! Deterministic storage-fault injection: named failpoint sites with a
//! seed-driven [`FailPlan`].
//!
//! Journaled sweeps are crash-durable, but a process kill is not the only
//! way persistence fails: ENOSPC, EIO, and failing fsyncs are at least as
//! common. This module lets tests and the `chaos` CLI subcommand inject
//! exactly those faults at named sites threaded through the persistence
//! surface ([`atomic_write`](crate::fsio::atomic_write) legs, journal
//! appends and `Begin` publication, checkpoint emission, corpus/trace/bench
//! artifact writes), deterministically and replayably.
//!
//! # Design
//!
//! - **Sites** are static string names (the [`SITES`] registry). A site
//!   calls [`on_io`] (immediate-failure legs: create, fsync, rename) or
//!   [`on_write`] (payload legs, where a short write or torn append needs
//!   a byte count) and otherwise behaves normally.
//! - **Zero cost when disabled**: every check opens with one relaxed
//!   atomic load of a scope counter; with no plan armed anywhere in the
//!   process that load is the entire cost, so production and bench runs
//!   are unaffected.
//! - **Thread-scoped activation** ([`arm_thread`]) arms a plan for the
//!   calling thread only — parallel pool workers inject independently and
//!   concurrent tests never see each other's faults.
//! - **Deterministic and replayable**: the plan is pure configuration
//!   (spec grammar below); every firing is recorded with its site, kind,
//!   hit index, and cut, and the seed drives all derived choices through
//!   [`SimRng`], so a failure reproduces from its rendered plan alone.
//!
//! # Spec grammar
//!
//! Mirrors the PR 4 `FaultPlan` clause grammar: comma-separated
//! `key:value` clauses.
//!
//! ```text
//! seed:<n>,site:<name>,kind:<fault>[,after:<k>][,count:<n>|*][,cut:<bytes>]
//! ```
//!
//! - `site:` — a registered site name, or a `prefix.*` wildcard.
//! - `kind:` — `eio` | `enospc` | `short-write` | `fsync` | `rename` |
//!   `torn-append`.
//! - `after:` — matching hits to let through before firing (default:
//!   derived from the seed, so a bare seeded plan varies its strike
//!   point deterministically).
//! - `count:` — firings before the plan disarms (default 1; `*` = every
//!   matching hit).
//! - `cut:` — for `short-write`/`torn-append`: bytes actually persisted
//!   before the failure (default: seed-derived per firing).

use std::cell::RefCell;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU32, Ordering};

use crate::rng::SimRng;

/// Every failpoint site threaded through the workspace. The `chaos`
/// subcommand enumerates this registry; checks `debug_assert` membership
/// so a typo'd site name fails tests instead of silently never firing.
pub const SITES: &[&str] = &[
    "fsio.create",
    "fsio.write",
    "fsio.fsync",
    "fsio.rename",
    "journal.begin",
    "journal.append.write",
    "journal.append.fsync",
    "codec.checkpoint",
    "corpus.write",
];

/// True when `site` is in the [`SITES`] registry.
pub fn site_registered(site: &str) -> bool {
    SITES.contains(&site)
}

/// The storage-fault flavors a plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A generic I/O error (`EIO`): the operation fails, nothing persists.
    Eio,
    /// Device full (`ENOSPC`).
    Enospc,
    /// The write persists only a prefix of the payload, then errors.
    ShortWrite,
    /// `fsync`/`sync_data` reports failure (the lying-fsync case).
    FsyncFail,
    /// The rename leg of an atomic publish fails.
    RenameFail,
    /// A journal append persists a prefix of the record — a torn tail the
    /// recovery scan must drop — then errors.
    TornAppend,
}

impl FaultKind {
    /// All kinds, for matrix enumeration.
    pub const ALL: &'static [FaultKind] = &[
        FaultKind::Eio,
        FaultKind::Enospc,
        FaultKind::ShortWrite,
        FaultKind::FsyncFail,
        FaultKind::RenameFail,
        FaultKind::TornAppend,
    ];

    /// The spec-grammar token for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Eio => "eio",
            FaultKind::Enospc => "enospc",
            FaultKind::ShortWrite => "short-write",
            FaultKind::FsyncFail => "fsync",
            FaultKind::RenameFail => "rename",
            FaultKind::TornAppend => "torn-append",
        }
    }

    fn parse(token: &str) -> Option<FaultKind> {
        Some(match token {
            "eio" => FaultKind::Eio,
            "enospc" => FaultKind::Enospc,
            "short-write" => FaultKind::ShortWrite,
            "fsync" => FaultKind::FsyncFail,
            "rename" => FaultKind::RenameFail,
            "torn-append" => FaultKind::TornAppend,
            _ => return None,
        })
    }

    /// Whether this kind truncates the payload (vs failing outright).
    pub fn is_truncating(self) -> bool {
        matches!(self, FaultKind::ShortWrite | FaultKind::TornAppend)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed failplan spec failure, naming the offending clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailSpecError {
    /// A clause is missing its `key:value` separator.
    MissingSeparator {
        /// The clause as written.
        clause: String,
    },
    /// A numeric token failed to parse.
    BadNumber {
        /// The clause as written.
        clause: String,
        /// The offending token.
        token: String,
    },
    /// The clause key is not part of the grammar.
    UnknownKey {
        /// The clause as written.
        clause: String,
        /// The unrecognized key.
        key: String,
    },
    /// `kind:` names no known fault kind.
    UnknownKind {
        /// The unrecognized kind token.
        kind: String,
    },
    /// The plan never named a site.
    MissingSite,
    /// The plan never named a kind.
    MissingKind,
}

impl fmt::Display for FailSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailSpecError::MissingSeparator { clause } => {
                write!(f, "clause '{clause}' needs 'key:value'")
            }
            FailSpecError::BadNumber { clause, token } => {
                write!(f, "bad number '{token}' in clause '{clause}'")
            }
            FailSpecError::UnknownKey { clause, key } => {
                write!(f, "unknown failplan key '{key}' in clause '{clause}'")
            }
            FailSpecError::UnknownKind { kind } => write!(
                f,
                "unknown fault kind '{kind}' (expected eio, enospc, short-write, \
                 fsync, rename, or torn-append)"
            ),
            FailSpecError::MissingSite => write!(f, "failplan needs a 'site:' clause"),
            FailSpecError::MissingKind => write!(f, "failplan needs a 'kind:' clause"),
        }
    }
}

impl std::error::Error for FailSpecError {}

/// A declarative injection plan: which site, which fault, when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailPlan {
    /// Seed for every derived draw (`after` when unset, `cut` per firing).
    pub seed: u64,
    /// Target site name, or a `prefix.*` wildcard.
    pub site: String,
    /// The fault to inject.
    pub kind: FaultKind,
    /// Matching hits to let through before the first firing; `None`
    /// derives a small strike point from the seed.
    pub after: Option<u64>,
    /// Firings before the plan disarms (`u64::MAX` = unbounded).
    pub count: u64,
    /// Persisted-prefix length for truncating kinds; `None` derives it
    /// from the seed per firing.
    pub cut: Option<usize>,
}

impl FailPlan {
    /// A single-shot plan: fire `kind` at `site` on the first hit.
    pub fn once(site: &str, kind: FaultKind) -> FailPlan {
        FailPlan {
            seed: 0,
            site: site.to_string(),
            kind,
            after: Some(0),
            count: 1,
            cut: None,
        }
    }

    /// Parses the spec grammar (see module docs).
    ///
    /// # Errors
    ///
    /// Returns a typed [`FailSpecError`] naming the offending clause.
    pub fn parse(spec: &str) -> Result<FailPlan, FailSpecError> {
        let mut seed = 0u64;
        let mut site: Option<String> = None;
        let mut kind: Option<FaultKind> = None;
        let mut after: Option<u64> = None;
        let mut count = 1u64;
        let mut cut: Option<usize> = None;
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let clause = clause.trim();
            let (key, body) =
                clause
                    .split_once(':')
                    .ok_or_else(|| FailSpecError::MissingSeparator {
                        clause: clause.to_string(),
                    })?;
            let num = |token: &str| -> Result<u64, FailSpecError> {
                token.parse().map_err(|_| FailSpecError::BadNumber {
                    clause: clause.to_string(),
                    token: token.to_string(),
                })
            };
            match key {
                "seed" => seed = num(body)?,
                "site" => site = Some(body.to_string()),
                "kind" => {
                    kind =
                        Some(
                            FaultKind::parse(body).ok_or_else(|| FailSpecError::UnknownKind {
                                kind: body.to_string(),
                            })?,
                        )
                }
                "after" => after = Some(num(body)?),
                "count" => count = if body == "*" { u64::MAX } else { num(body)? },
                "cut" => cut = Some(num(body)? as usize),
                other => {
                    return Err(FailSpecError::UnknownKey {
                        clause: clause.to_string(),
                        key: other.to_string(),
                    })
                }
            }
        }
        Ok(FailPlan {
            seed,
            site: site.ok_or(FailSpecError::MissingSite)?,
            kind: kind.ok_or(FailSpecError::MissingKind)?,
            after,
            count,
            cut,
        })
    }

    /// Re-renders the plan in spec grammar — paste this back into
    /// `FailPlan::parse` (or a future CLI flag) to replay a firing.
    pub fn render(&self) -> String {
        let mut out = format!("seed:{},site:{},kind:{}", self.seed, self.site, self.kind);
        if let Some(after) = self.after {
            out.push_str(&format!(",after:{after}"));
        }
        if self.count == u64::MAX {
            out.push_str(",count:*");
        } else if self.count != 1 {
            out.push_str(&format!(",count:{}", self.count));
        }
        if let Some(cut) = self.cut {
            out.push_str(&format!(",cut:{cut}"));
        }
        out
    }

    fn matches(&self, site: &str) -> bool {
        match self.site.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => self.site == site,
        }
    }
}

/// One recorded firing: everything needed to explain (and replay) why an
/// operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// The site that fired.
    pub site: String,
    /// The fault injected.
    pub kind: FaultKind,
    /// The matching-hit index (0-based) the plan struck at.
    pub hit: u64,
    /// Bytes actually persisted, for truncating kinds.
    pub cut: Option<usize>,
}

struct ActiveState {
    plan: FailPlan,
    rng: SimRng,
    effective_after: u64,
    hits: u64,
    fired: u64,
    firings: Vec<Firing>,
}

impl ActiveState {
    fn new(plan: FailPlan) -> ActiveState {
        let mut rng = SimRng::seed_from_u64(plan.seed);
        // A bare seeded plan strikes at a seed-derived hit in [0, 8) —
        // deterministic variety for seed-sweep chaos campaigns.
        let effective_after = plan.after.unwrap_or_else(|| rng.next_u64() % 8);
        ActiveState {
            plan,
            rng,
            effective_after,
            hits: 0,
            fired: 0,
            firings: Vec::new(),
        }
    }

    /// Advances the hit counter for a matching site and decides whether
    /// this hit fires. Returns the fault and cut when it does.
    fn strike(&mut self, site: &str, len: Option<usize>) -> Option<(FaultKind, Option<usize>)> {
        if self.fired >= self.plan.count {
            return None;
        }
        let hit = self.hits;
        self.hits += 1;
        if hit < self.effective_after {
            return None;
        }
        self.fired += 1;
        let cut = if self.plan.kind.is_truncating() {
            let len = len.unwrap_or(0);
            Some(match self.plan.cut {
                Some(c) => c.min(len),
                // Derived cut: strictly short of the payload so the
                // truncation is real whenever there is anything to cut.
                None => (self.rng.next_u64() as usize) % len.max(1),
            })
        } else {
            None
        };
        self.firings.push(Firing {
            site: site.to_string(),
            kind: self.plan.kind,
            hit,
            cut,
        });
        Some((self.plan.kind, cut))
    }
}

/// Count of live thread scopes. The single relaxed load of this counter
/// is the only cost a disabled failpoint adds to any I/O path.
static ARMED_SCOPES: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_PLAN: RefCell<Option<ActiveState>> = const { RefCell::new(None) };
}

#[inline]
fn disabled() -> bool {
    ARMED_SCOPES.load(Ordering::Relaxed) == 0
}

/// Arms `plan` for the calling thread only. Dropping the returned scope
/// disarms it. Panics if this thread already has an armed plan (scopes do
/// not nest — a chaos cell is one plan).
pub fn arm_thread(plan: FailPlan) -> ThreadScope {
    debug_assert!(
        plan.site.ends_with('*') || site_registered(&plan.site),
        "failplan targets unregistered site '{}'",
        plan.site
    );
    THREAD_PLAN.with(|slot| {
        let mut slot = slot.borrow_mut();
        assert!(
            slot.is_none(),
            "failpoint: this thread already has an armed plan"
        );
        *slot = Some(ActiveState::new(plan));
    });
    ARMED_SCOPES.fetch_add(1, Ordering::Relaxed);
    ThreadScope { _priv: () }
}

/// A thread-scoped armed plan; disarms on drop.
pub struct ThreadScope {
    _priv: (),
}

impl ThreadScope {
    /// Every firing so far, in order.
    pub fn firings(&self) -> Vec<Firing> {
        THREAD_PLAN.with(|slot| {
            slot.borrow()
                .as_ref()
                .map(|s| s.firings.clone())
                .unwrap_or_default()
        })
    }

    /// How many times the plan has fired.
    pub fn fired(&self) -> u64 {
        THREAD_PLAN.with(|slot| slot.borrow().as_ref().map_or(0, |s| s.fired))
    }
}

impl Drop for ThreadScope {
    fn drop(&mut self) {
        THREAD_PLAN.with(|slot| slot.borrow_mut().take());
        ARMED_SCOPES.fetch_sub(1, Ordering::Relaxed);
    }
}

fn injected_error(site: &str, kind: FaultKind) -> io::Error {
    let msg = format!("failpoint {site}: injected {kind}");
    match kind {
        FaultKind::Enospc => io::Error::new(io::ErrorKind::StorageFull, msg),
        _ => io::Error::other(msg),
    }
}

/// Consults the calling thread's armed plan for one hit at `site`.
fn consult(site: &str, len: Option<usize>) -> Option<(FaultKind, Option<usize>)> {
    debug_assert!(
        site_registered(site),
        "unregistered failpoint site '{site}'"
    );
    THREAD_PLAN.with(|slot| match slot.borrow_mut().as_mut() {
        Some(state) if state.plan.matches(site) => state.strike(site, len),
        _ => None,
    })
}

/// Failpoint check for immediate-failure legs (create, fsync, rename,
/// reads). Returns the injected error when the armed plan fires at
/// `site`; truncating kinds degrade to an immediate error here since
/// there is no payload to cut.
#[inline]
pub fn on_io(site: &str) -> io::Result<()> {
    if disabled() {
        return Ok(());
    }
    match consult(site, None) {
        Some((kind, _)) => Err(injected_error(site, kind)),
        None => Ok(()),
    }
}

/// What [`on_write`] tells a payload-writing site to do.
#[derive(Debug)]
pub enum WriteFault {
    /// No fault: write the full payload normally.
    Clear,
    /// Fail without persisting anything.
    Fail(io::Error),
    /// Persist exactly `cut` bytes of the payload, then report `error` —
    /// the short-write / torn-append shape.
    Torn {
        /// Bytes to actually persist.
        cut: usize,
        /// The error to report after the truncated write.
        error: io::Error,
    },
}

/// Failpoint check for payload-writing legs. `len` is the payload size;
/// truncating kinds return [`WriteFault::Torn`] with a cut strictly
/// inside the payload (explicit `cut:` clamped to it).
#[inline]
pub fn on_write(site: &str, len: usize) -> WriteFault {
    if disabled() {
        return WriteFault::Clear;
    }
    match consult(site, Some(len)) {
        None => WriteFault::Clear,
        Some((kind, Some(cut))) => WriteFault::Torn {
            cut,
            error: injected_error(site, kind),
        },
        Some((kind, None)) => WriteFault::Fail(injected_error(site, kind)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_and_errors_are_typed() {
        let plan =
            FailPlan::parse("seed:7,site:journal.append.write,kind:torn-append,after:2,cut:3")
                .expect("parse");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.site, "journal.append.write");
        assert_eq!(plan.kind, FaultKind::TornAppend);
        assert_eq!(plan.after, Some(2));
        assert_eq!(plan.cut, Some(3));
        assert_eq!(FailPlan::parse(&plan.render()).expect("re-parse"), plan);

        let unbounded = FailPlan::parse("site:fsio.write,kind:eio,count:*").expect("parse");
        assert_eq!(unbounded.count, u64::MAX);
        assert_eq!(
            FailPlan::parse(&unbounded.render()).expect("re-parse"),
            unbounded
        );

        assert!(matches!(
            FailPlan::parse("site:fsio.write"),
            Err(FailSpecError::MissingKind)
        ));
        assert!(matches!(
            FailPlan::parse("kind:eio"),
            Err(FailSpecError::MissingSite)
        ));
        assert!(matches!(
            FailPlan::parse("site:fsio.write,kind:exotic"),
            Err(FailSpecError::UnknownKind { .. })
        ));
        assert!(matches!(
            FailPlan::parse("site:fsio.write,kind:eio,after:x"),
            Err(FailSpecError::BadNumber { .. })
        ));
        assert!(matches!(
            FailPlan::parse("site:fsio.write,kind:eio,color:red"),
            Err(FailSpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            FailPlan::parse("garbage"),
            Err(FailSpecError::MissingSeparator { .. })
        ));
    }

    #[test]
    fn disabled_checks_are_clear() {
        assert!(on_io("fsio.create").is_ok());
        assert!(matches!(on_write("fsio.write", 64), WriteFault::Clear));
    }

    #[test]
    fn thread_scope_fires_after_n_hits_then_disarms() {
        let mut plan = FailPlan::once("fsio.write", FaultKind::Eio);
        plan.after = Some(2);
        let scope = arm_thread(plan);
        assert!(matches!(on_write("fsio.write", 10), WriteFault::Clear));
        assert!(matches!(on_write("fsio.write", 10), WriteFault::Clear));
        match on_write("fsio.write", 10) {
            WriteFault::Fail(e) => {
                let msg = e.to_string();
                assert!(msg.contains("fsio.write"), "{msg}");
                assert!(msg.contains("eio"), "{msg}");
            }
            other => panic!("expected Fail, got {other:?}"),
        }
        // count:1 — the plan is spent.
        assert!(matches!(on_write("fsio.write", 10), WriteFault::Clear));
        let firings = scope.firings();
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].hit, 2);
        assert_eq!(firings[0].kind, FaultKind::Eio);
        drop(scope);
        assert!(matches!(on_write("fsio.write", 10), WriteFault::Clear));
    }

    #[test]
    fn truncating_kinds_carry_a_cut_and_explicit_cut_is_clamped() {
        let mut plan = FailPlan::once("journal.append.write", FaultKind::TornAppend);
        plan.cut = Some(1000);
        let scope = arm_thread(plan);
        match on_write("journal.append.write", 16) {
            WriteFault::Torn { cut, error } => {
                assert_eq!(cut, 16, "explicit cut clamps to the payload");
                assert!(error.to_string().contains("torn-append"));
            }
            other => panic!("expected Torn, got {other:?}"),
        }
        assert_eq!(scope.firings()[0].cut, Some(16));
        drop(scope);

        // Derived cut: strictly short of the payload, seed-deterministic.
        let mut plan = FailPlan::once("fsio.write", FaultKind::ShortWrite);
        plan.seed = 11;
        let scope = arm_thread(plan.clone());
        let first = match on_write("fsio.write", 64) {
            WriteFault::Torn { cut, .. } => cut,
            other => panic!("expected Torn, got {other:?}"),
        };
        assert!(first < 64);
        drop(scope);
        let scope = arm_thread(plan);
        let second = match on_write("fsio.write", 64) {
            WriteFault::Torn { cut, .. } => cut,
            other => panic!("expected Torn, got {other:?}"),
        };
        assert_eq!(first, second, "same seed, same derived cut");
        drop(scope);
    }

    #[test]
    fn site_wildcards_select_matches() {
        let mut plan = FailPlan::once("fsio.*", FaultKind::Eio);
        plan.count = u64::MAX;
        let scope = arm_thread(plan);
        assert!(on_io("journal.begin").is_ok());
        assert!(on_io("fsio.rename").is_err());
        assert!(on_io("fsio.fsync").is_err());
        assert_eq!(scope.fired(), 2);
        drop(scope);
    }

    #[test]
    fn enospc_maps_to_storage_full() {
        let scope = arm_thread(FailPlan::once("fsio.create", FaultKind::Enospc));
        let err = on_io("fsio.create").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        drop(scope);
    }

    #[test]
    fn thread_scopes_do_not_leak_across_threads() {
        let mut plan = FailPlan::once("fsio.write", FaultKind::Eio);
        plan.count = u64::MAX;
        let scope = arm_thread(plan);
        // Another thread sees no plan.
        let other = std::thread::spawn(|| matches!(on_write("fsio.write", 8), WriteFault::Clear))
            .join()
            .expect("thread");
        assert!(other, "sibling thread must not inherit a thread scope");
        assert!(matches!(on_write("fsio.write", 8), WriteFault::Fail(_)));
        drop(scope);
    }

    #[test]
    fn every_registered_site_is_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for site in SITES {
            assert!(seen.insert(site), "duplicate site {site}");
        }
    }
}
