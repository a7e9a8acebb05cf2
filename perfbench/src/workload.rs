//! The benchmark's workloads, each built only from the simulator's public
//! API, and the two ways one repetition runs them: plain (timed, for the
//! end-to-end metrics) and traced (spans around every public call, for the
//! per-layer metrics).
//!
//! Every repetition checks its outputs after its timing and reports the
//! values that must repeat exactly (final digest, digest trail, simulated
//! time, fuzz report) so the caller can compare runs.

use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use oasis_engine::{fnv1a, MetricsRegistry, SimRng};
use oasis_fuzz::{check, report_json, run_fuzz, FuzzOptions, FuzzReport, Scenario};
use oasis_mgpu::{Policy, RunReport, System, SystemConfig};
use oasis_workloads::{generate, App, Trace, WorkloadParams};

use crate::json::Val;
use crate::spans::Tracer;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DnnTrain,
    GraphFaults,
    FuzzSweep,
}

pub const ALL: [Workload; 3] = [
    Workload::DnnTrain,
    Workload::GraphFaults,
    Workload::FuzzSweep,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::DnnTrain => "dnn_train",
            Workload::GraphFaults => "graph_faults",
            Workload::FuzzSweep => "fuzz_sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Full size is what the benchmark measures; tiny size is for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Master seed of the fixed fuzz corpus. Fuzz case cost is heavy-tailed
/// (one 2 MiB-page, threshold-8 case can cost 100x a typical one), so a
/// sweep drawn wholly from the workload seed would measure the draw rather
/// than the program. The corpus holds most of the sweep still; two seeded
/// cases ride along (a heavy one still adds seconds to its seed's run).
const FUZZ_CORPUS_SEED: u64 = 0xA515_F022;

/// SplitMix64 finalizer: derives independent seeds from the workload seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The app, footprint and trace seed of a simulation workload.
fn sim_params(w: Workload, size: Size, seed: u64) -> (App, WorkloadParams) {
    let (app, full_mb) = match w {
        // VGG16 at its Table II footprint: 65 kernel launches, 240 objects.
        Workload::DnnTrain => (App::Vgg16, 220),
        // PageRank at 8x its Table II footprint, one kernel launch.
        Workload::GraphFaults => (App::Pr, 256),
        Workload::FuzzSweep => unreachable!("fuzz_sweep is not a single simulation"),
    };
    let params = WorkloadParams {
        gpu_count: 4,
        footprint_mb: if size == Size::Full { full_mb } else { 8 },
        seed: mix(seed, app as u64 + 1),
    };
    (app, params)
}

/// The fuzz sweeps of one repetition: `(master seed, cases)`.
fn fuzz_sweeps(size: Size, seed: u64) -> [(u64, u64); 2] {
    let seeded = mix(seed, 0xF022);
    match size {
        Size::Full => [(FUZZ_CORPUS_SEED, 98), (seeded, 2)],
        Size::Tiny => [(FUZZ_CORPUS_SEED, 3), (seeded, 1)],
    }
}

/// What one repetition reports.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    /// Operations attempted: one simulation run, or one fuzz case.
    pub ops: u64,
    pub failed_ops: u64,
    /// Simulated accesses handed to the simulator.
    pub steps: u64,
    pub workers: u64,
    /// Output-check failures, one line each.
    pub failures: Vec<String>,
    /// Values that must repeat exactly across runs, traced or not.
    pub identity: Vec<(&'static str, String)>,
    /// Deterministic counts (per-layer work done).
    pub counts: Vec<(&'static str, f64)>,
    /// Host-time per-layer numbers (traced repetitions only).
    pub timings: Vec<(&'static str, f64)>,
}

impl Rep {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn to_json(&self, w: Workload, seed: u64, traced: bool) -> Val {
        let pairs = |v: &[(&'static str, f64)]| {
            Val::Obj(
                v.iter()
                    .map(|(k, x)| (k.to_string(), Val::Num(*x)))
                    .collect(),
            )
        };
        Val::Obj(vec![
            ("workload".into(), Val::Str(w.name().into())),
            ("seed".into(), Val::Int(seed)),
            ("traced".into(), Val::Bool(traced)),
            ("setup_s".into(), Val::Num(self.setup_s)),
            ("run_s".into(), Val::Num(self.run_s)),
            ("ops".into(), Val::Int(self.ops)),
            ("failed_ops".into(), Val::Int(self.failed_ops)),
            ("steps".into(), Val::Int(self.steps)),
            ("workers".into(), Val::Int(self.workers)),
            ("peak_rss_mb".into(), Val::Num(peak_rss_mb())),
            (
                "failures".into(),
                Val::List(self.failures.iter().map(|f| Val::Str(f.clone())).collect()),
            ),
            (
                "identity".into(),
                Val::Obj(
                    self.identity
                        .iter()
                        .map(|(k, v)| (k.to_string(), Val::Str(v.clone())))
                        .collect(),
                ),
            ),
            ("counts".into(), pairs(&self.counts)),
            ("timings".into(), pairs(&self.timings)),
        ])
    }
}

/// Peak resident set of this process in MB (`VmHWM`); each repetition is
/// a fresh process, so this is the repetition's own peak.
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one repetition of `w`. `work_dir` holds the fuzz journals; a traced
/// repetition also writes its spans there.
pub fn run(w: Workload, size: Size, seed: u64, traced: bool, work_dir: &Path) -> Rep {
    let fuzz = w == Workload::FuzzSweep;
    let mut rep = if traced {
        let mut t = Tracer::new(format!("{}-{seed}-{}", w.name(), std::process::id()));
        let rep = if fuzz {
            fuzz_traced(&mut t, size, seed, work_dir)
        } else {
            sim_traced(&mut t, w, size, seed)
        };
        finish_trace(rep, &t, w, seed, work_dir)
    } else if fuzz {
        fuzz_plain(size, seed, work_dir)
    } else {
        sim_plain(w, size, seed)
    };
    rep.failed_ops = rep.failed_ops.max(u64::from(!rep.failures.is_empty()));
    rep
}

// ---------------------------------------------------------------- sims --

fn sim_plain(w: Workload, size: Size, seed: u64) -> Rep {
    let (app, params) = sim_params(w, size, seed);
    let mut rep = Rep {
        ops: 1,
        workers: 1,
        ..Rep::default()
    };
    let t0 = Instant::now();
    let trace = generate(app, &params);
    let mut sys = System::new(SystemConfig::default(), &Policy::oasis());
    if let Err(e) = sys.run_prefix(&trace, 0) {
        rep.fail(format!("load: {e}"));
        return rep;
    }
    rep.setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = sys.run(&trace);
    rep.run_s = t1.elapsed().as_secs_f64();
    match report {
        Ok(report) => check_sim(&mut rep, &trace, &sys, &report, 0),
        Err(e) => rep.fail(format!("run: {e}")),
    }
    rep
}

/// Output checks and counts of one finished simulation run; `state_bytes`
/// is the length of its checkpoint, when one was taken.
fn check_sim(rep: &mut Rep, trace: &Trace, sys: &System, report: &RunReport, state_bytes: u64) {
    let expected = trace.total_accesses() as u64;
    if report.accesses != expected {
        rep.fail(format!(
            "accesses {} != trace accesses {expected}",
            report.accesses
        ));
    }
    if report.errors_recorded != 0 {
        rep.fail(format!("{} errors recorded", report.errors_recorded));
    }
    if report.digest_trail.len() != trace.phases.len() {
        rep.fail(format!(
            "digest trail has {} entries for {} phases",
            report.digest_trail.len(),
            trace.phases.len()
        ));
    }
    if let Err(e) = sys.validate() {
        rep.fail(format!("validate: {e}"));
    }
    rep.steps = expected;
    rep.identity = vec![
        (
            "final_digest",
            format!("{:#018x}", report.digest_trail.last().copied().unwrap_or(0)),
        ),
        (
            "trail_digest",
            format!("{:#018x}", trail_digest(&report.digest_trail)),
        ),
        ("sim_time_ps", report.total_time.as_ps().to_string()),
    ];
    let mut c = Counts::default();
    c.add_run(trace, sys, report);
    c.state_bytes = state_bytes;
    rep.counts = c.finish(FuzzTally::default());
}

fn trail_digest(trail: &[u64]) -> u64 {
    let bytes: Vec<u8> = trail.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a(&bytes)
}

fn sim_traced(t: &mut Tracer, w: Workload, size: Size, seed: u64) -> Rep {
    let (app, params) = sim_params(w, size, seed);
    let mut rep = Rep {
        ops: 1,
        workers: 1,
        ..Rep::default()
    };
    let root = t.open("run", None);
    let t0 = Instant::now();
    let trace = t.span("workloads.generate", root, || generate(app, &params));
    let leg = traced_leg(t, root, &trace, SystemConfig::default(), t0);
    t.close(root);
    match leg {
        Ok(leg) => {
            rep.setup_s = leg.setup_s;
            rep.run_s = leg.run_s;
            check_sim(&mut rep, &trace, &leg.sys, &leg.report, leg.state_bytes);
            check_leg(&mut rep, &leg);
        }
        Err(e) => rep.fail(e),
    }
    rep.timings = layer_timings(t, 0.0);
    rep
}

/// One simulation driven call by call, each call in its own span.
struct Leg {
    sys: System,
    report: RunReport,
    resumed_digest: u64,
    state_bytes: u64,
    setup_s: f64,
    run_s: f64,
}

/// `System::new`, `run_prefix(0)` (load and compile), one `run_prefix`
/// per epoch followed by an extra `digest()`, the report, then an
/// in-memory `checkpoint` and `resume`. `t0` marks the start of set-up.
fn traced_leg(
    t: &mut Tracer,
    root: usize,
    trace: &Trace,
    config: SystemConfig,
    t0: Instant,
) -> Result<Leg, String> {
    let policy = Policy::oasis();
    let mut sys = t.span("mgpu.new", root, || System::new(config, &policy));
    t.span("mgpu.load_compile", root, || sys.run_prefix(trace, 0))
        .map_err(|e| format!("load: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for epoch in 1..=trace.phases.len() as u64 {
        t.span("mgpu.epoch", root, || sys.run_prefix(trace, epoch))
            .map_err(|e| format!("epoch {epoch}: {e}"))?;
        black_box(t.span("engine.digest", root, || sys.digest()));
    }
    let report = t
        .span("mgpu.report", root, || sys.run(trace))
        .map_err(|e| format!("run: {e}"))?;
    let run_s = t1.elapsed().as_secs_f64();
    let mut bytes = Vec::new();
    t.span("engine.checkpoint", root, || sys.checkpoint(&mut bytes))
        .map_err(|e| format!("checkpoint: {e}"))?;
    let resumed = t
        .span("engine.resume", root, || {
            System::resume(&mut bytes.as_slice(), trace)
        })
        .map_err(|e| format!("resume: {e}"))?;
    Ok(Leg {
        resumed_digest: resumed.digest(),
        state_bytes: bytes.len() as u64,
        sys,
        report,
        setup_s,
        run_s,
    })
}

fn check_leg(rep: &mut Rep, leg: &Leg) {
    let digest = leg.sys.digest();
    if leg.resumed_digest != digest {
        rep.fail(format!(
            "resumed digest {:#x} != checkpointed {digest:#x}",
            leg.resumed_digest
        ));
    }
}

// ---------------------------------------------------------------- fuzz --

/// One fuzz case as the benchmark sees it: the scenario `run_fuzz` will
/// draw, and the size of its trace. The trace itself is dropped once
/// counted, so the sweep's peak memory is the program's own.
struct Case {
    scenario: Scenario,
    accesses: u64,
    phases: usize,
}

/// The cases `run_fuzz` will draw for `(master, cases)`. Mirrors the
/// sweep's own derivation: case `i` is the `i`-th draw of the master
/// seed's stream. `gen` builds each case's trace.
fn case_list(master: u64, cases: u64, mut gen: impl FnMut(&Scenario) -> Trace) -> Vec<Case> {
    let mut rng = SimRng::seed_from_u64(master);
    (0..cases)
        .map(|_| {
            let scenario = Scenario::generate(rng.next_u64());
            let trace = gen(&scenario);
            Case {
                scenario,
                accesses: trace.total_accesses() as u64,
                phases: trace.phases.len(),
            }
        })
        .collect()
}

/// Simulated accesses one oracle check runs: four policies, the replay,
/// and the kill/resume leg when the trace has two or more epochs.
fn oracle_steps(case: &Case) -> u64 {
    let legs = if case.phases >= 2 { 6 } else { 5 };
    case.accesses * legs
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn fuzz_plain(size: Size, seed: u64, work_dir: &Path) -> Rep {
    let sweeps = fuzz_sweeps(size, seed);
    let mut rep = Rep {
        workers: workers() as u64,
        ..Rep::default()
    };
    let t0 = Instant::now();
    let cases: Vec<Case> = sweeps
        .iter()
        .flat_map(|&(master, n)| case_list(master, n, Scenario::trace))
        .collect();
    let journal_dir = match make_journal_dir(work_dir) {
        Ok(d) => d,
        Err(e) => {
            rep.fail(e);
            return rep;
        }
    };
    rep.setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let reports = run_sweeps(&sweeps, &journal_dir, run_fuzz);
    rep.run_s = t1.elapsed().as_secs_f64();
    let tally = check_fuzz(&mut rep, &sweeps, &cases, &reports, &journal_dir);
    let accesses: u64 = cases.iter().map(|c| c.accesses).sum();
    rep.counts = vec![
        ("workloads.accesses", accesses as f64),
        ("engine.journal_bytes", tally.journal_bytes as f64),
        ("fuzz.retries", tally.retries as f64),
        ("fuzz.violations", tally.violations as f64),
    ];
    rep
}

fn make_journal_dir(work_dir: &Path) -> Result<std::path::PathBuf, String> {
    let dir = work_dir.join(format!("journal-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("journal dir {}: {e}", dir.display()))?;
    Ok(dir)
}

type SweepResult = (FuzzOptions, Result<FuzzReport, String>);

/// Runs each sweep through `fuzz` (`run_fuzz`, possibly inside a span) on
/// every worker, with its own journal.
fn run_sweeps(
    sweeps: &[(u64, u64)],
    journal_dir: &Path,
    mut fuzz: impl FnMut(&FuzzOptions) -> Result<FuzzReport, String>,
) -> Vec<SweepResult> {
    sweeps
        .iter()
        .enumerate()
        .map(|(k, &(master, cases))| {
            let mut opts = FuzzOptions::new(master, cases);
            opts.jobs = workers();
            opts.journal = Some(journal_dir.join(format!("sweep-{k}.jnl")));
            let report = fuzz(&opts);
            (opts, report)
        })
        .collect()
}

/// What the sweeps did, beyond their verdicts.
#[derive(Default)]
struct FuzzTally {
    journal_bytes: u64,
    retries: u64,
    violations: u64,
}

/// Output checks of the sweeps: every case ran clean, and the report (all
/// of it but the elapsed time) is recorded for cross-run comparison.
fn check_fuzz(
    rep: &mut Rep,
    sweeps: &[(u64, u64)],
    cases: &[Case],
    reports: &[SweepResult],
    journal_dir: &Path,
) -> FuzzTally {
    let mut stable = String::new();
    let mut tally = FuzzTally::default();
    for (&(master, n), (opts, report)) in sweeps.iter().zip(reports) {
        rep.ops += n;
        match report {
            Ok(r) => {
                let lost = r.job_failures.len() as u64 + n.saturating_sub(r.cases_run);
                rep.failed_ops += r.violations.len() as u64 + lost;
                for v in &r.violations {
                    rep.fail(format!(
                        "sweep {master:#x} case {}: {}: {}",
                        v.case_index, v.violation.kind, v.violation.detail
                    ));
                }
                for f in &r.job_failures {
                    rep.fail(format!(
                        "sweep {master:#x} case {} lost (quarantined: {}): {}",
                        f.case_index, f.quarantined, f.error
                    ));
                }
                if r.interrupted || r.cases_run != n {
                    rep.fail(format!(
                        "sweep {master:#x} ran {} of {n} cases",
                        r.cases_run
                    ));
                }
                tally.retries += r.retries;
                tally.violations += r.violations.len() as u64;
                report_json(opts, r)
                    .lines()
                    .filter(|l| !l.contains("\"elapsed_secs\""))
                    .for_each(|l| stable.push_str(l));
            }
            Err(e) => {
                rep.failed_ops += n;
                rep.fail(format!("sweep {master:#x}: {e}"));
            }
        }
    }
    tally.journal_bytes = fs::read_dir(journal_dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let _ = fs::remove_dir_all(journal_dir);
    rep.steps = cases.iter().map(oracle_steps).sum();
    rep.identity = vec![("fuzz_report", format!("{:#018x}", fnv1a(stable.as_bytes())))];
    tally
}

/// The traced fuzz repetition: the same sweeps, then every case once more
/// through a serial `oracle::check`, then every case as one call-by-call
/// simulation under OASIS (the layers inside the oracle's runs), on a
/// trace built again for it.
fn fuzz_traced(t: &mut Tracer, size: Size, seed: u64, work_dir: &Path) -> Rep {
    let sweeps = fuzz_sweeps(size, seed);
    let mut rep = Rep {
        workers: workers() as u64,
        ..Rep::default()
    };
    let root = t.open("run", None);
    let t0 = Instant::now();
    let list = t.open("fuzz.case_list", Some(root));
    let cases: Vec<Case> = sweeps
        .iter()
        .flat_map(|&(master, n)| {
            case_list(master, n, |s| {
                t.span("workloads.generate", list, || s.trace())
            })
        })
        .collect();
    let journal_dir = make_journal_dir(work_dir);
    t.close(list);
    let journal_dir = match journal_dir {
        Ok(d) => d,
        Err(e) => {
            rep.fail(e);
            return rep;
        }
    };
    rep.setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let reports = run_sweeps(&sweeps, &journal_dir, |opts| {
        t.span("fuzz.run_fuzz", root, || run_fuzz(opts))
    });
    rep.run_s = t1.elapsed().as_secs_f64();
    for s in cases.iter().map(|c| &c.scenario) {
        if let Some(v) = t.span("fuzz.check", root, || check(s)) {
            rep.fail(format!(
                "serial check of {}: {}: {}",
                s.summary(),
                v.kind,
                v.detail
            ));
        }
    }
    let mut c = Counts::default();
    for s in cases.iter().map(|c| &c.scenario) {
        let trace = t.span("workloads.regenerate", root, || s.trace());
        match traced_leg(t, root, &trace, s.config(), Instant::now()) {
            Ok(leg) => {
                check_leg(&mut rep, &leg);
                c.add_run(&trace, &leg.sys, &leg.report);
                c.state_bytes += leg.state_bytes;
            }
            Err(e) => rep.fail(format!("leg of {}: {e}", s.summary())),
        }
    }
    t.close(root);
    let tally = check_fuzz(&mut rep, &sweeps, &cases, &reports, &journal_dir);
    rep.counts = c.finish(tally);
    let check_total_s = t.durations_ms("fuzz.check").iter().fold(0.0, |a, b| a + b) / 1e3;
    rep.timings = layer_timings(t, check_total_s);
    rep
}

// -------------------------------------------------------------- layers --

/// Counts summed over one or more finished simulation runs.
#[derive(Default)]
struct Counts {
    accesses: u64,
    local: u64,
    remote: u64,
    sim_time_ps: u64,
    l1_tlb: (u64, u64),
    l2_tlb: (u64, u64),
    l2_cache: (u64, u64),
    uvm: oasis_uvm::stats::UvmStats,
    policy_mix: [u64; 3],
    policy: [u64; 5],
    nvlink_bytes: u64,
    pcie_bytes: u64,
    state_bytes: u64,
}

impl Counts {
    fn add_run(&mut self, trace: &Trace, sys: &System, r: &RunReport) {
        let add2 = |a: &mut (u64, u64), b: (u64, u64)| {
            a.0 += b.0;
            a.1 += b.1;
        };
        self.accesses += trace.total_accesses() as u64;
        self.local += r.local_accesses;
        self.remote += r.remote_accesses;
        self.sim_time_ps += r.total_time.as_ps();
        add2(&mut self.l1_tlb, r.l1_tlb);
        add2(&mut self.l2_tlb, r.l2_tlb);
        add2(&mut self.l2_cache, r.l2_cache);
        let u = &mut self.uvm;
        u.far_faults += r.uvm.far_faults;
        u.protection_faults += r.uvm.protection_faults;
        u.migrations += r.uvm.migrations;
        u.duplications += r.uvm.duplications;
        u.collapses += r.uvm.collapses;
        u.remote_maps += r.uvm.remote_maps;
        u.evictions += r.uvm.evictions;
        u.invalidations += r.uvm.invalidations;
        for (a, b) in self.policy_mix.iter_mut().zip(r.policy_mix) {
            *a += b;
        }
        // The policy engine's own counters, published into a fresh
        // registry: the run's configuration is left as it is.
        let mut m = MetricsRegistry::enabled();
        sys.driver().policy.publish_metrics(&mut m);
        let keys = [
            "otable.relearn",
            "otable.implicit_reset",
            "otable.explicit_reset",
            "oasis.private_faults",
            "oasis.shared_faults",
        ];
        for (a, k) in self.policy.iter_mut().zip(keys) {
            *a += m.counter(k);
        }
        self.nvlink_bytes += r.nvlink_bytes;
        self.pcie_bytes += r.pcie_bytes;
    }

    fn finish(&self, fuzz: FuzzTally) -> Vec<(&'static str, f64)> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let hit_rate = |(h, m): (u64, u64)| ratio(h, h + m);
        let u = &self.uvm;
        let mix = self.policy_mix;
        let mix_total: u64 = mix.iter().sum();
        vec![
            ("workloads.accesses", self.accesses as f64),
            (
                "mgpu.local_share",
                ratio(self.local, self.local + self.remote),
            ),
            ("mgpu.sim_time_us", self.sim_time_ps as f64 / 1e6),
            ("engine.state_bytes", self.state_bytes as f64),
            ("engine.journal_bytes", fuzz.journal_bytes as f64),
            ("mem.l1_tlb_misses", self.l1_tlb.1 as f64),
            ("mem.l2_tlb_misses", self.l2_tlb.1 as f64),
            ("mem.l2_cache_misses", self.l2_cache.1 as f64),
            ("mem.l1_tlb_hit_rate", hit_rate(self.l1_tlb)),
            ("mem.l2_tlb_hit_rate", hit_rate(self.l2_tlb)),
            ("mem.l2_cache_hit_rate", hit_rate(self.l2_cache)),
            ("uvm.far_faults", u.far_faults as f64),
            ("uvm.protection_faults", u.protection_faults as f64),
            ("uvm.migrations", u.migrations as f64),
            ("uvm.duplications", u.duplications as f64),
            ("uvm.collapses", u.collapses as f64),
            ("uvm.remote_maps", u.remote_maps as f64),
            ("uvm.evictions", u.evictions as f64),
            ("uvm.invalidations", u.invalidations as f64),
            (
                "uvm.faults_per_kstep",
                ratio(u.total_faults() * 1000, self.accesses),
            ),
            (
                "uvm.collapses_per_duplication",
                ratio(u.collapses, u.duplications),
            ),
            ("core.policy_mix_on_touch", ratio(mix[0], mix_total)),
            ("core.policy_mix_access_counter", ratio(mix[1], mix_total)),
            ("core.policy_mix_duplication", ratio(mix[2], mix_total)),
            ("core.relearns", self.policy[0] as f64),
            ("core.implicit_resets", self.policy[1] as f64),
            ("core.explicit_resets", self.policy[2] as f64),
            ("core.private_faults", self.policy[3] as f64),
            ("core.shared_faults", self.policy[4] as f64),
            ("interconnect.nvlink_bytes", self.nvlink_bytes as f64),
            ("interconnect.pcie_bytes", self.pcie_bytes as f64),
            ("fuzz.retries", fuzz.retries as f64),
            ("fuzz.violations", fuzz.violations as f64),
        ]
    }
}

/// Nearest-rank quantile; 0 for no samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Per-layer host times of a traced repetition. `check_total_s` is the
/// serial oracle time of the fuzz cases (0 for a single simulation).
fn layer_timings(t: &Tracer, check_total_s: f64) -> Vec<(&'static str, f64)> {
    let sum = |name: &str| t.durations_ms(name).iter().fold(0.0, |a, b| a + b);
    let epochs = t.durations_ms("mgpu.epoch");
    let digests = t.durations_ms("engine.digest");
    let cases = t.durations_ms("fuzz.check");
    let (epoch_ms, digest_ms) = (sum("mgpu.epoch"), sum("engine.digest"));
    let share = |a: f64| if epoch_ms > 0.0 { a / epoch_ms } else { 0.0 };
    vec![
        ("workloads.generate_ms", sum("workloads.generate")),
        ("mgpu.new_ms", sum("mgpu.new")),
        ("mgpu.load_compile_ms", sum("mgpu.load_compile")),
        ("mgpu.epoch_ms_p50", quantile(&epochs, 0.5)),
        ("mgpu.epoch_ms_p80", quantile(&epochs, 0.8)),
        ("mgpu.access_path_share", share(epoch_ms - digest_ms)),
        ("engine.digest_ms_p50", quantile(&digests, 0.5)),
        ("engine.digest_ms_p80", quantile(&digests, 0.8)),
        ("engine.digest_share", share(digest_ms)),
        ("engine.checkpoint_ms", sum("engine.checkpoint")),
        ("engine.resume_ms", sum("engine.resume")),
        ("fuzz.case_ms_p50", quantile(&cases, 0.5)),
        ("fuzz.case_ms_p80", quantile(&cases, 0.8)),
        ("fuzz.check_total_s", check_total_s),
        ("workloads.self_ms", t.layer_self_ms("workloads")),
        ("mgpu.self_ms", t.layer_self_ms("mgpu")),
        ("engine.self_ms", t.layer_self_ms("engine")),
        ("fuzz.self_ms", t.layer_self_ms("fuzz")),
        ("trace.span_coverage", t.coverage(0)),
    ]
}

/// Checks span coverage and writes the spans next to the journals.
fn finish_trace(mut rep: Rep, t: &Tracer, w: Workload, seed: u64, work_dir: &Path) -> Rep {
    let coverage = t.coverage(0);
    if coverage < 0.95 {
        rep.fail(format!(
            "spans cover {:.1}% of the traced wall time",
            coverage * 100.0
        ));
    }
    let path = work_dir.join(format!("spans-{}-seed{seed}.json", w.name()));
    if let Err(e) = fs::create_dir_all(work_dir).and_then(|()| fs::write(&path, t.to_json())) {
        rep.fail(format!("writing {}: {e}", path.display()));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("oasis-perfbench-{}-{tag}", std::process::id()))
    }

    #[test]
    fn tiny_runs_pass_their_checks_and_traced_runs_match_plain_ones() {
        for w in ALL {
            let dir = work_dir(w.name());
            let plain = run(w, Size::Tiny, 7, false, &dir);
            let traced = run(w, Size::Tiny, 7, true, &dir);
            let _ = fs::remove_dir_all(&dir);
            for rep in [&plain, &traced] {
                assert!(rep.failures.is_empty(), "{}: {:?}", w.name(), rep.failures);
                assert_eq!(rep.failed_ops, 0, "{}", w.name());
                assert!(
                    rep.ops >= 1 && rep.steps > 0 && rep.run_s > 0.0,
                    "{}",
                    w.name()
                );
            }
            assert!(!plain.identity.is_empty());
            assert_eq!(
                plain.identity,
                traced.identity,
                "{}: traced run diverged",
                w.name()
            );
            let coverage = traced
                .timings
                .iter()
                .find(|(k, _)| *k == "trace.span_coverage");
            assert!(coverage.is_some_and(|&(_, c)| c >= 0.95), "{}", w.name());
        }
    }

    #[test]
    fn the_seed_reaches_the_inputs() {
        let (_, a) = sim_params(Workload::GraphFaults, Size::Full, 1);
        let (_, b) = sim_params(Workload::GraphFaults, Size::Full, 2);
        assert_ne!(a.seed, b.seed);
        assert_eq!(fuzz_sweeps(Size::Full, 1)[0], fuzz_sweeps(Size::Full, 2)[0]);
        assert_ne!(fuzz_sweeps(Size::Full, 1)[1], fuzz_sweeps(Size::Full, 2)[1]);
    }

    #[test]
    fn the_case_list_is_the_sweeps_own_draw() {
        // run_fuzz draws case i as the i-th value of the master stream.
        let list = case_list(5, 3, Scenario::trace);
        let mut rng = SimRng::seed_from_u64(5);
        for c in &list {
            let s = Scenario::generate(rng.next_u64());
            let trace = s.trace();
            assert_eq!(c.scenario, s);
            assert_eq!(c.accesses, trace.total_accesses() as u64);
            assert_eq!(c.phases, trace.phases.len());
        }
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.8), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
