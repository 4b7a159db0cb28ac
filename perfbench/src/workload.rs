//! The four workloads, their cells, and the closed-loop pass that runs
//! them.
//!
//! A pass is one complete run of a workload: every cell is generated,
//! built, loaded, run, verified and torn down. Workers pull the next
//! group of cells from a shared counter only when their last group has
//! finished (a closed loop), in the same row-major order the
//! `limitless_bench::Runner` uses. The benchmark drives the layers
//! itself rather than calling `Runner::try_run` or `check::capture`,
//! because those bundle generation, machine build, run and
//! verification into one call and the phase split is what it measures.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use limitless_apps::{registry, App, Scale};
use limitless_bench::check::{self, Artifacts};
use limitless_core::{CheckLevel, ProtocolSpec};
use limitless_machine::{Machine, MachineConfig, MachineStats};
use limitless_sim::Addr;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["paper-grid", "overflow-1024", "oracle-paper", "lanes-1024"];

/// The phases of one cell, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// `registry::build_str` + `App::programs` + `App::init_memory`.
    Generate,
    /// `Machine::new`.
    Build,
    /// `Machine::poke` + `Machine::load`.
    Load,
    /// `Machine::run`.
    Run,
    /// Expected results, oracle artifacts and `check::diff`.
    Verify,
    /// Dropping the machine and the app.
    Teardown,
}

impl Phase {
    /// Every phase, in execution order.
    pub const ALL: [Phase; 6] = [
        Phase::Generate,
        Phase::Build,
        Phase::Load,
        Phase::Run,
        Phase::Verify,
        Phase::Teardown,
    ];

    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Generate => "generate",
            Phase::Build => "build",
            Phase::Load => "load",
            Phase::Run => "run",
            Phase::Verify => "verify",
            Phase::Teardown => "teardown",
        }
    }

    /// Whether the phase happens before `Machine::run` (counts toward
    /// `setup_s`).
    pub fn is_setup(self) -> bool {
        matches!(self, Phase::Generate | Phase::Build | Phase::Load)
    }
}

/// What a job's result is used for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// An ordinary cell.
    Cell,
    /// Full-map ground truth for the oracle cells of its group; not
    /// itself an attempted cell.
    Truth,
    /// An oracle cell, diffed against its group's ground truth.
    Candidate,
}

/// One simulation: an application spec on one protocol.
#[derive(Clone, Debug)]
pub struct Job {
    /// Cell identity, `<app spec>/<protocol>`; unique within a workload.
    pub label: String,
    /// Registry spec string of the application.
    pub app: String,
    /// The coherence protocol.
    pub protocol: ProtocolSpec,
    /// What the result is used for.
    pub role: Role,
}

/// A workload: the machine shape and the cells of one pass.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Machine size of every cell.
    pub nodes: usize,
    /// Problem-size scale of every application.
    pub scale: Scale,
    /// Event lanes per machine (1 = the serial engine).
    pub shards: usize,
    /// Sanitizer level of every machine.
    pub check: CheckLevel,
    /// Closed-loop workers (clamped to the host's cores at run time).
    pub workers: usize,
    /// Jobs, grouped: a group runs in order on one worker (an oracle
    /// group starts with its ground truth), and groups are what the
    /// workers pull.
    pub groups: Vec<Vec<Job>>,
}

impl Workload {
    /// The workload `name` at workload seed `seed`, or `None` for an
    /// unknown name. The paper applications have fixed inputs and
    /// ignore the seed.
    pub fn by_name(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "paper-grid" => Some(paper_grid()),
            "overflow-1024" => Some(overflow(seed, 1)),
            "oracle-paper" => Some(oracle_paper()),
            "lanes-1024" => Some(overflow(seed, 2)),
            _ => None,
        }
    }

    /// The machine configuration of a cell on `protocol`: the same
    /// settings as `limitless_bench::cfg_sharded` and `check::capture`.
    pub fn config(&self, protocol: ProtocolSpec) -> MachineConfig {
        MachineConfig::builder()
            .nodes(self.nodes)
            .protocol(protocol)
            .victim_cache(true)
            .check_level(self.check)
            .shards(self.shards)
            .build()
    }

    /// Cells per pass that count as attempted (ground truth excluded).
    pub fn attempted_per_pass(&self) -> usize {
        self.groups
            .iter()
            .flatten()
            .filter(|j| j.role != Role::Truth)
            .count()
    }

    /// Workers a pass actually uses: never more than the host's cores
    /// or the number of groups.
    pub fn effective_workers(&self) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.workers.min(cores).min(self.groups.len()).max(1)
    }

    /// The same cells as a differential oracle: full-map ground truth
    /// first, every cell diffed against it, sanitizer fully armed. This
    /// is how cells without a pinned reference are checked.
    pub fn as_oracle(&self) -> Workload {
        let mut groups = Vec::new();
        for app in self.apps() {
            let mut group = vec![truth_job(&app)];
            group.extend(
                self.groups
                    .iter()
                    .flatten()
                    .filter(|j| j.app == app)
                    .map(|j| Job {
                        role: Role::Candidate,
                        ..j.clone()
                    }),
            );
            groups.push(group);
        }
        Workload {
            check: CheckLevel::Full,
            shards: 1,
            workers: 1,
            groups,
            ..self.clone()
        }
    }

    /// Distinct application specs, in first-use order.
    fn apps(&self) -> Vec<String> {
        let mut apps: Vec<String> = Vec::new();
        for j in self.groups.iter().flatten() {
            if !apps.contains(&j.app) {
                apps.push(j.app.clone());
            }
        }
        apps
    }
}

/// `"0 (DirnH0SNB,ACK)"` → `"DirnH0SNB,ACK"`: the space-free protocol
/// notation inside a Figure 4 series label.
fn notation(label: &str) -> &str {
    label
        .split_once('(')
        .map_or(label, |(_, rest)| rest.trim_end_matches(')'))
}

/// Protocol-major, app-minor cells (the `Runner`'s cell order), one
/// cell per group.
fn spectrum_grid(apps: &[String]) -> Vec<Vec<Job>> {
    let mut groups = Vec::new();
    for (label, protocol) in limitless_bench::fig4_spectrum() {
        for app in apps {
            groups.push(vec![Job {
                label: format!("{app}/{}", notation(label)),
                app: app.clone(),
                protocol,
                role: Role::Cell,
            }]);
        }
    }
    groups
}

fn paper_apps() -> Vec<String> {
    registry::PAPER_APPS.iter().map(|s| s.to_string()).collect()
}

fn truth_job(app: &str) -> Job {
    Job {
        label: format!("{app}/ground-truth"),
        app: app.to_string(),
        protocol: ProtocolSpec::full_map(),
        role: Role::Truth,
    }
}

/// Figure 4: the seven-protocol spectrum × the six paper apps at paper
/// scale on 64 nodes, two workers.
fn paper_grid() -> Workload {
    Workload {
        name: "paper-grid",
        nodes: 64,
        scale: Scale::Paper,
        shards: 1,
        check: CheckLevel::Off,
        workers: 2,
        groups: spectrum_grid(&paper_apps()),
    }
}

/// The seven-protocol spectrum on one wide-shared `scale:` spec seeded
/// from the workload seed, 1024 nodes, one worker; `shards` event
/// lanes per machine (2 for `lanes-1024`).
fn overflow(seed: u64, shards: usize) -> Workload {
    Workload {
        name: if shards == 1 {
            "overflow-1024"
        } else {
            "lanes-1024"
        },
        nodes: 1024,
        scale: Scale::Paper,
        shards,
        check: CheckLevel::Off,
        workers: 1,
        groups: spectrum_grid(&[format!("scale:nodes=1024,seed={seed}")]),
    }
}

/// The differential oracle over the six paper apps at paper scale on
/// 16 nodes: the nine Figure 2 protocols against full-map ground
/// truth, sanitizer fully armed, serial.
fn oracle_paper() -> Workload {
    let groups =
        paper_apps()
            .into_iter()
            .map(|app| {
                let mut group = vec![truth_job(&app)];
                group.extend(limitless_bench::fig2_protocols().into_iter().map(
                    |(label, protocol)| Job {
                        label: format!("{app}/{label}"),
                        app: app.clone(),
                        protocol,
                        role: Role::Candidate,
                    },
                ));
                group
            })
            .collect();
    Workload {
        name: "oracle-paper",
        nodes: 16,
        scale: Scale::Paper,
        shards: 1,
        check: CheckLevel::Full,
        workers: 1,
        groups,
    }
}

/// What a finished simulation produced.
#[derive(Clone, Debug)]
pub struct CellData {
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated events.
    pub events: u64,
    /// Every counter of the run.
    pub stats: MachineStats,
    /// Expected-result mismatches and missing ground truth.
    pub problems: Vec<String>,
    /// The oracle's first mismatch against ground truth, if any.
    pub divergence: Option<String>,
}

impl CellData {
    /// `(cycles, events, traps, misses)`: the numbers pinned per cell.
    pub fn key(&self) -> [u64; 4] {
        [
            self.cycles,
            self.events,
            self.stats.engine.traps,
            self.stats.misses,
        ]
    }
}

/// One job's timeline and result.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The job's cell label.
    pub label: String,
    /// The job's role.
    pub role: Role,
    /// Job start (before generation).
    pub start: Instant,
    /// Job end (after teardown).
    pub end: Instant,
    /// `(phase, start, end)` for every phase that finished.
    pub phases: Vec<(Phase, Instant, Instant)>,
    /// The result, or the panic message with which the job died.
    pub result: Result<CellData, String>,
}

impl Outcome {
    /// Host seconds spent in `phase`.
    pub fn phase_s(&self, phase: Phase) -> f64 {
        self.phases
            .iter()
            .filter(|(p, _, _)| *p == phase)
            .map(|(_, s, e)| (*e - *s).as_secs_f64())
            .sum()
    }
}

/// One pass over a workload.
#[derive(Debug)]
pub struct Pass {
    /// Pass start.
    pub start: Instant,
    /// When the last worker finished.
    pub end: Instant,
    /// Per group, its jobs' outcomes in job order.
    pub groups: Vec<Vec<Outcome>>,
    /// When each worker ran out of groups.
    pub worker_ends: Vec<Instant>,
}

impl Pass {
    /// Every outcome, in group then job order.
    pub fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.groups.iter().flatten()
    }
}

/// Runs one pass: workers pull whole groups from a shared counter.
pub fn run_pass(w: &Workload) -> Pass {
    let workers = w.effective_workers();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut done: Vec<(usize, Vec<Outcome>)> = Vec::with_capacity(w.groups.len());
    let mut worker_ends = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let g = next.fetch_add(1, Ordering::Relaxed);
                        let Some(group) = w.groups.get(g) else {
                            break;
                        };
                        mine.push((g, run_group(w, group)));
                    }
                    (mine, Instant::now())
                })
            })
            .collect();
        for h in handles {
            // Jobs catch their own panics, so a worker never dies.
            let (mine, end) = h.join().expect("benchmark worker panicked");
            done.extend(mine);
            worker_ends.push(end);
        }
    });
    done.sort_by_key(|(g, _)| *g);
    Pass {
        start,
        end: worker_ends.iter().copied().max().unwrap_or(start),
        groups: done.into_iter().map(|(_, outcomes)| outcomes).collect(),
        worker_ends,
    }
}

fn run_group(w: &Workload, group: &[Job]) -> Vec<Outcome> {
    let mut truth: Result<Artifacts, String> = Err("no ground truth ran".to_string());
    let mut out = Vec::with_capacity(group.len());
    for job in group {
        let (outcome, artifacts) = run_job(w, job, truth.as_ref());
        if job.role == Role::Truth {
            truth = match (&outcome.result, artifacts) {
                (Ok(d), Some(a)) if d.problems.is_empty() => Ok(a),
                (Ok(d), _) => Err(d.problems.join("; ")),
                (Err(panic), _) => Err(panic.clone()),
            };
        }
        out.push(outcome);
    }
    out
}

/// Runs one job, timing each phase and converting a panic anywhere in
/// it into an `Err` carrying the panic message.
fn run_job(
    w: &Workload,
    job: &Job,
    truth: Result<&Artifacts, &String>,
) -> (Outcome, Option<Artifacts>) {
    let mut phases = Vec::with_capacity(Phase::ALL.len());
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut t = Instant::now();
        let mut mark = |phase: Phase| {
            let now = Instant::now();
            phases.push((phase, t, now));
            t = now;
        };
        let app = registry::build_str(&job.app, w.scale)
            .unwrap_or_else(|e| panic!("app spec {}: {e}", job.app));
        let programs = app.programs(w.nodes);
        let init = app.init_memory();
        mark(Phase::Generate);
        let mut m = Machine::new(w.config(job.protocol));
        mark(Phase::Build);
        for (a, v) in init {
            m.poke(a, v);
        }
        m.load(programs);
        mark(Phase::Load);
        let report = m.run();
        mark(Phase::Run);
        let mut problems: Vec<String> = app
            .expected_results()
            .into_iter()
            .filter_map(|(a, want)| {
                let got = m.peek(a);
                (got != want).then(|| format!("result at {a} is {got}, expected {want}"))
            })
            .collect();
        let artifacts = (w.check == CheckLevel::Full).then(|| artifacts(&m, app.as_ref()));
        let mut divergence = None;
        if job.role == Role::Candidate {
            match (truth, &artifacts) {
                (Ok(t), Some(a)) => divergence = check::diff(t, a),
                (Err(why), _) => problems.push(format!("ground truth failed: {why}")),
                (Ok(_), None) => problems.push("oracle cell without artifacts".to_string()),
            }
        }
        mark(Phase::Verify);
        let keep = artifacts.filter(|_| job.role == Role::Truth);
        drop(m);
        drop(app);
        mark(Phase::Teardown);
        let data = CellData {
            cycles: report.cycles.as_u64(),
            events: report.events,
            stats: report.stats,
            problems,
            divergence,
        };
        (data, keep)
    }));
    let end = Instant::now();
    let (result, artifacts) = match result {
        Ok((data, artifacts)) => (Ok(data), artifacts),
        Err(payload) => (Err(panic_message(payload)), None),
    };
    let outcome = Outcome {
        label: job.label.clone(),
        role: job.role,
        start,
        end,
        phases,
        result,
    };
    (outcome, artifacts)
}

/// The oracle's post-run artifacts, with read values inside the app's
/// declared racy ranges masked to zero — the same artifacts
/// `check::capture` collects.
fn artifacts(m: &Machine, app: &dyn App) -> Artifacts {
    let racy = app.racy_read_ranges();
    let masked = |a: Addr| racy.iter().any(|&(lo, hi)| a.0 >= lo.0 && a.0 < hi.0);
    Artifacts {
        image: m.memory_image(),
        reads: m
            .read_streams()
            .expect("CheckLevel::Full records read streams")
            .iter()
            .map(|s| {
                s.iter()
                    .map(|&(a, v)| if masked(a) { (a, 0) } else { (a, v) })
                    .collect()
            })
            .collect(),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A two-cell workload small enough for unit tests.
    pub(crate) fn tiny() -> Workload {
        let app = "worker:ws=4,iters=2".to_string();
        let cell = |protocol, name: &str| Job {
            label: format!("{app}/{name}"),
            app: app.clone(),
            protocol,
            role: Role::Cell,
        };
        Workload {
            name: "tiny",
            nodes: 16,
            scale: Scale::Quick,
            shards: 1,
            check: CheckLevel::Off,
            workers: 2,
            groups: vec![
                vec![cell(ProtocolSpec::limitless(2), "DirnH2SNB")],
                vec![cell(ProtocolSpec::full_map(), "DirnHNBS-")],
            ],
        }
    }

    #[test]
    fn workloads_have_the_documented_shapes() {
        let grid = Workload::by_name("paper-grid", 1).unwrap();
        assert_eq!(grid.attempted_per_pass(), 42);
        let oracle = Workload::by_name("oracle-paper", 1).unwrap();
        assert_eq!(oracle.attempted_per_pass(), 54);
        assert_eq!(oracle.groups.len(), 6);
        let serial = Workload::by_name("overflow-1024", 9).unwrap();
        let lanes = Workload::by_name("lanes-1024", 9).unwrap();
        assert_eq!(serial.attempted_per_pass(), 7);
        assert_eq!((serial.shards, lanes.shards), (1, 2));
        let labels = |w: &Workload| -> Vec<String> {
            w.groups.iter().flatten().map(|j| j.label.clone()).collect()
        };
        assert_eq!(labels(&serial), labels(&lanes), "cells match one to one");
        assert_eq!(labels(&serial)[0], "scale:nodes=1024,seed=9/DirnH0SNB,ACK");
        assert!(Workload::by_name("nope", 1).is_none());
    }

    #[test]
    fn a_pass_times_every_phase_of_every_cell() {
        let pass = run_pass(&tiny());
        assert_eq!(pass.groups.len(), 2);
        for o in pass.outcomes() {
            let data = o.result.as_ref().expect("tiny cells run");
            assert!(data.problems.is_empty(), "{:?}", data.problems);
            assert_eq!(o.phases.len(), Phase::ALL.len());
            assert!(o.phases.windows(2).all(|p| p[0].2 == p[1].1), "contiguous");
            assert!(o.start <= o.phases[0].1 && o.phases[5].2 <= o.end);
        }
    }

    #[test]
    fn the_oracle_form_diffs_every_cell_against_ground_truth() {
        let oracle = tiny().as_oracle();
        assert_eq!(oracle.groups.len(), 1);
        assert_eq!(oracle.groups[0][0].role, Role::Truth);
        assert_eq!(oracle.attempted_per_pass(), 2);
        for o in run_pass(&oracle).outcomes() {
            let data = o.result.as_ref().unwrap();
            assert_eq!(data.divergence, None, "{}", o.label);
            assert!(data.problems.is_empty(), "{:?}", data.problems);
        }
    }

    #[test]
    fn a_panicking_cell_keeps_its_identity() {
        let mut w = tiny();
        w.groups[1][0].app = "worker:ws=0".to_string();
        let pass = run_pass(&w);
        let bad = &pass.groups[1][0];
        let msg = bad.result.as_ref().unwrap_err();
        assert!(msg.contains("worker:ws=0"), "{msg}");
        assert!(pass.groups[0][0].result.is_ok(), "the other cell still ran");
    }
}
