//! `limitless-perfbench` — the repository benchmark: end-to-end host
//! time of four simulator workloads, and, in a separate traced run,
//! per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-grid|overflow-1024|oracle-paper|lanes-1024> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The run repeats whole passes of the workload (closed loop) for
//! about `--seconds` seconds, checks every cell of every pass, and
//! prints a human-readable summary followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1`, untraced and
//! traced passes alternate and the metrics are the per-layer ones.
//! See `perfbench/NOTES.md`.

mod layers;
mod rss;
mod stats;
mod trace;
mod verify;
mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use limitless_machine::MachineStats;

use crate::layers::Metric;
use crate::trace::{json_str, Trace};
use crate::verify::{Failure, Verifier};
use crate::workload::{CellData, Pass, Phase, Workload, NAMES};

const USAGE: &str = "usage: limitless-perfbench --workload <paper-grid|overflow-1024|\
                     oracle-paper|lanes-1024> --seed <n> --seconds <1..=3600> --trace <0|1>";

/// In a traced pass, each cell's phase spans must cover its wall time
/// except for at most this share of it, or [`COVERAGE_FLOOR_NS`],
/// whichever is larger.
const COVERAGE_TOLERANCE: f64 = 0.01;
/// Absolute allowance for the glue between phases of very short cells.
const COVERAGE_FLOOR_NS: u64 = 50_000;

#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one pass contributes to the metrics, once its cells are dropped.
#[derive(Debug)]
struct PassSummary {
    traced: bool,
    /// Pass start to verified results.
    wall_s: f64,
    /// Simulated events over every simulation of the pass.
    events: u64,
    /// Σ over cells of each phase, in [`Phase::ALL`] order.
    phase_s: [f64; 6],
    /// Σ over cells of cell wall time.
    cell_s: f64,
    /// Σ over workers of the time between running out of cells and the
    /// pass end.
    idle_tail_s: f64,
    /// Each cell's wall time.
    cell_times: Vec<f64>,
    /// Σ over cells of the time no phase span covers (traced only).
    cell_self_s: f64,
    workers: usize,
}

impl PassSummary {
    fn setup_s(&self) -> f64 {
        Phase::ALL
            .iter()
            .zip(self.phase_s)
            .filter(|(p, _)| p.is_setup())
            .map(|(_, s)| s)
            .sum()
    }

    fn phase(&self, phase: Phase) -> f64 {
        self.phase_s[Phase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("a phase")]
    }
}

fn summarize(pass: &Pass, traced: bool, wall: Duration, workers: usize) -> PassSummary {
    let mut phase_s = [0.0; 6];
    let mut events = 0;
    let mut cell_times = Vec::new();
    for o in pass.outcomes() {
        for (i, &p) in Phase::ALL.iter().enumerate() {
            phase_s[i] += o.phase_s(p);
        }
        if let Ok(d) = &o.result {
            events += d.events;
        }
        cell_times.push((o.end - o.start).as_secs_f64());
    }
    let idle_tail_s = pass
        .worker_ends
        .iter()
        .map(|&e| (pass.end - e).as_secs_f64())
        .sum();
    PassSummary {
        traced,
        wall_s: wall.as_secs_f64(),
        events,
        phase_s,
        cell_s: cell_times.iter().sum(),
        idle_tail_s,
        cell_times,
        cell_self_s: 0.0,
        workers,
    }
}

/// Records the pass, its cells and their phases as spans. Returns the
/// Σ of cell self time and every cell whose phases leave more of it
/// uncovered than the stated tolerance.
fn record_spans(
    trace: &mut Trace,
    parent: usize,
    index: usize,
    pass: &Pass,
    checked: Instant,
) -> (f64, Vec<String>) {
    let pass_span = trace.add(Some(parent), "pass", None, pass.start, checked, None);
    trace.add(Some(pass_span), "check", None, pass.end, checked, None);
    let mut cell_self_ns = 0;
    let mut uncovered = Vec::new();
    for o in pass.outcomes() {
        let cell = Some((index, o.label.clone()));
        let counts = o.result.as_ref().ok().map(CellData::key);
        let id = trace.add(
            Some(pass_span),
            "cell",
            cell.clone(),
            o.start,
            o.end,
            counts,
        );
        let mut covered = 0;
        for &(phase, s, e) in &o.phases {
            trace.add(Some(id), phase.name(), cell.clone(), s, e, None);
            covered += (e - s).as_nanos() as u64;
        }
        let wall = trace.spans[id].duration_ns();
        let self_ns = wall.saturating_sub(covered);
        cell_self_ns += self_ns;
        let allowed = ((wall as f64 * COVERAGE_TOLERANCE) as u64).max(COVERAGE_FLOOR_NS);
        if self_ns > allowed {
            uncovered.push(format!(
                "pass {index} cell {}: phases leave {self_ns} ns of {wall} ns uncovered",
                o.label
            ));
        }
    }
    (cell_self_ns as f64 / 1e9, uncovered)
}

fn sum_stats(pass: &Pass) -> (MachineStats, u64) {
    let mut total = MachineStats::default();
    let mut events = 0;
    for o in pass.outcomes() {
        if let Ok(d) = &o.result {
            total.merge(&d.stats);
            events += d.events;
        }
    }
    (total, events)
}

fn cells_of(pass: &Pass) -> Vec<(String, CellData)> {
    pass.outcomes()
        .filter_map(|o| Some((o.label.clone(), o.result.clone().ok()?)))
        .collect()
}

/// Everything a run measured.
struct Run {
    passes: Vec<PassSummary>,
    failures: Vec<Failure>,
    attempted: usize,
    peak_rss_mib: f64,
    counts: (MachineStats, u64),
    diverged_per_pass: usize,
    uncovered: Vec<String>,
    trace: Trace,
}

fn measure(w: &Workload, args: &Args, pinned: BTreeMap<String, verify::Expect>) -> Run {
    let workers = w.effective_workers();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut trace = Trace::new(start);
    let root = trace.add(None, "workload", None, start, start, None);
    let mut verifier = Verifier::new(pinned);
    let mut passes = Vec::new();
    let mut failures = Vec::new();
    let mut uncovered = Vec::new();
    let mut counts = None;
    let mut diverged_per_pass = 0;
    let mut lanes_cells = Vec::new();
    let mut peak_rss_mib = 0.0;
    loop {
        let index = passes.len();
        let traced = args.trace && index % 2 == 1;
        let t0 = Instant::now();
        let pass = workload::run_pass(w);
        failures.extend(verifier.check_pass(index, &pass));
        let checked = Instant::now();
        let mut summary = summarize(&pass, traced, checked - t0, workers);
        if traced {
            let (self_s, bad) = record_spans(&mut trace, root, index, &pass, checked);
            summary.cell_self_s = self_s;
            uncovered.extend(bad);
        }
        if counts.is_none() {
            counts = Some(sum_stats(&pass));
            diverged_per_pass = pass
                .outcomes()
                .filter(|o| matches!(&o.result, Ok(d) if d.divergence.is_some()))
                .count();
        }
        if w.shards > 1 {
            lanes_cells.push((index, cells_of(&pass)));
        }
        drop(pass);
        if index == 0 {
            // The memory a user needs to run the workload once. Later
            // passes only add allocator fragmentation, which grows
            // with the number of passes that fit in the budget.
            peak_rss_mib = rss::peak_mib().unwrap_or_else(|e| {
                eprintln!("getrusage failed: {e}");
                std::process::exit(1);
            });
        }
        let last = summary.wall_s;
        passes.push(summary);
        let enough = passes.len() >= if args.trace { 2 } else { 1 };
        if enough && start.elapsed().as_secs_f64() + last > budget.as_secs_f64() {
            break;
        }
    }
    trace.close(root, Instant::now());
    let passes_run = passes.len();
    if w.shards > 1 {
        // Every lanes cell must be bit-identical to the serial engine's.
        let serial_w = Workload {
            shards: 1,
            ..w.clone()
        };
        let serial: BTreeMap<String, CellData> = cells_of(&workload::run_pass(&serial_w))
            .into_iter()
            .collect();
        for (index, cells) in &lanes_cells {
            failures.extend(verify::compare_with_serial(*index, cells, &serial));
        }
    } else if w.check != limitless_core::CheckLevel::Full
        && w.groups
            .iter()
            .flatten()
            .any(|j| !verifier.is_pinned(&j.label))
    {
        // No pinned reference for this seed: hold every cell to the
        // differential oracle as well as to the first pass.
        let oracle = workload::run_pass(&w.as_oracle());
        for f in Verifier::new(BTreeMap::new()).check_pass(0, &oracle) {
            for index in 0..passes_run {
                failures.push(Failure {
                    pass: index,
                    message: format!("oracle: {}", f.message),
                    ..f.clone()
                });
            }
        }
    }
    Run {
        attempted: w.attempted_per_pass() * passes_run,
        passes,
        failures,
        peak_rss_mib,
        counts: counts.expect("at least one pass ran"),
        diverged_per_pass,
        uncovered,
        trace,
    }
}

/// `a / b`, or 0 when nothing was timed (every cell of a pass died).
fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn median_of(passes: &[&PassSummary], f: impl Fn(&PassSummary) -> f64) -> f64 {
    stats::median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>())
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let plain: Vec<&PassSummary> = run.passes.iter().filter(|p| !p.traced).collect();
    vec![
        ("wall_s", median_of(&plain, |p| p.wall_s), "s"),
        (
            "events_per_s",
            median_of(&plain, |p| per(p.events as f64, p.wall_s)),
            "events/s",
        ),
        ("setup_s", median_of(&plain, PassSummary::setup_s), "s"),
        ("peak_rss_mib", run.peak_rss_mib, "MiB"),
    ]
}

fn per_layer(w: &Workload, run: &Run) -> Vec<Metric> {
    let traced: Vec<&PassSummary> = run.passes.iter().filter(|p| p.traced).collect();
    let plain: Vec<&PassSummary> = run.passes.iter().filter(|p| !p.traced).collect();
    let phase = |ph: Phase| median_of(&traced, |p| p.phase(ph));
    let (stats, events) = &run.counts;
    let oracle_cells = if w.check == limitless_core::CheckLevel::Full {
        w.attempted_per_pass()
    } else {
        0
    };
    let mut m = vec![
        ("apps.generate_s", phase(Phase::Generate), "s"),
        ("machine.build_s", phase(Phase::Build), "s"),
        ("machine.load_s", phase(Phase::Load), "s"),
        ("machine.run_s", phase(Phase::Run), "s"),
        (
            "machine.run_events_per_s",
            median_of(&traced, |p| per(p.events as f64, p.phase(Phase::Run))),
            "events/s",
        ),
        ("machine.teardown_s", phase(Phase::Teardown), "s"),
        ("bench.verify_s", phase(Phase::Verify), "s"),
        (
            "bench.runner.parallel_efficiency",
            median_of(&traced, |p| per(p.cell_s, p.workers as f64 * p.wall_s)),
            "ratio",
        ),
        (
            "bench.runner.idle_tail_s",
            median_of(&traced, |p| p.idle_tail_s),
            "s",
        ),
        ("check.cells", oracle_cells as f64, "count"),
        ("check.diverged", run.diverged_per_pass as f64, "count"),
        (
            "trace.overhead_s",
            median_of(&traced, |p| p.wall_s) - median_of(&plain, |p| p.wall_s),
            "s",
        ),
        (
            "trace.cell_self_s",
            median_of(&traced, |p| p.cell_self_s),
            "s",
        ),
    ];
    m.extend(layers::counts(stats, *events));
    m.extend(layers::timings(w.nodes));
    m
}

fn print_summary(w: &Workload, args: &Args, run: &Run, metrics: &[Metric], failed: usize) {
    let traced = run.passes.iter().filter(|p| p.traced).count();
    println!(
        "{} seed {}: {} passes ({traced} traced), {} worker(s) on {} core(s), {} cells per pass",
        w.name,
        args.seed,
        run.passes.len(),
        w.effective_workers(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        w.attempted_per_pass(),
    );
    let walls: Vec<f64> = run
        .passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.wall_s)
        .collect();
    if let Some((q1, q3)) = stats::quartiles(&walls) {
        println!(
            "  pass wall: median {:.4} s, quartiles {q1:.4} .. {q3:.4} s over {} untraced passes",
            stats::median(&walls),
            walls.len()
        );
    }
    let each: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("  pass walls, in run order: {} s", each.join(" "));
    let cells: Vec<f64> = run
        .passes
        .iter()
        .flat_map(|p| p.cell_times.iter().copied())
        .collect();
    match stats::tail_percentile(&cells) {
        Some((pct, v)) => println!(
            "  cell wall: median {:.4} s, p{pct} {v:.4} s over {} cells",
            stats::median(&cells),
            cells.len()
        ),
        None => println!(
            "  cell wall: median {:.4} s over {} cells",
            stats::median(&cells),
            cells.len()
        ),
    }
    for (name, value, unit) in metrics {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!(
        "  {:<34} {:>16.6} ratio  ({failed} of {} cells)",
        "failed_share",
        stats::failed_share(failed, run.attempted),
        run.attempted
    );
}

/// `pin <workload> <seed>`: runs one pass and prints its reference
/// rows, for re-pinning `reference.tsv` after a deliberate change to
/// simulated results.
fn pin(rest: &[String]) -> Result<(), String> {
    let [name, seed] = rest else {
        return Err("usage: limitless-perfbench pin <workload> <seed>".into());
    };
    let seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    let w = Workload::by_name(name, seed).ok_or(format!("unknown workload {name:?}"))?;
    for o in workload::run_pass(&w).outcomes() {
        let data = o.result.as_ref().map_err(|e| format!("{}: {e}", o.label))?;
        println!("{}", verify::reference_row(w.name, &o.label, data));
    }
    Ok(())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("pin") {
        if let Err(e) = pin(&raw[1..]) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        return;
    }
    let args = parse_args(raw).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let w = Workload::by_name(&args.workload, args.seed).expect("name checked by parse_args");
    let pinned = verify::parse_reference(verify::PINNED, w.name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let run = measure(&w, &args, pinned);

    for f in &run.failures {
        eprintln!("{f}");
    }
    for u in &run.uncovered {
        eprintln!("trace coverage: {u}");
    }
    let failed = verify::failed_cells(&run.failures);
    let correct = run.failures.iter().all(|f| f.known) && run.uncovered.is_empty();
    let metrics = if args.trace {
        let path = format!("{TRACE_DIR}/{}-seed{}.trace.ndjson", w.name, args.seed);
        match write_trace(&run.trace, &path) {
            Ok(()) => eprintln!("spans written to {path}"),
            Err(e) => eprintln!("could not write spans to {path}: {e}"),
        }
        per_layer(&w, &run)
    } else {
        end_to_end(&run)
    };
    print_summary(&w, &args, &run, &metrics, failed);
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        run.attempted,
        fields.join(", ")
    );
}

/// Where traced runs write their spans, relative to the repository root
/// the benchmark runs from. Only `out` is created, so a run from
/// anywhere else writes nothing.
const TRACE_DIR: &str = "perfbench/out";

fn write_trace(trace: &Trace, path: &str) -> std::io::Result<()> {
    match std::fs::create_dir(TRACE_DIR) {
        Err(e) if e.kind() != std::io::ErrorKind::AlreadyExists => return Err(e),
        _ => {}
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    trace.write_ndjson(&mut out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_all_required_and_checked() {
        assert_eq!(
            args("--workload paper-grid --seed 3 --seconds 10 --trace 1"),
            Ok(Args {
                workload: "paper-grid".into(),
                seed: 3,
                seconds: 10,
                trace: true
            })
        );
        for bad in [
            "--workload paper-grid --seed 3 --seconds 10",
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload paper-grid --seed -1 --seconds 10 --trace 0",
            "--workload paper-grid --seed 3 --seconds 0 --trace 0",
            "--workload paper-grid --seed 3 --seconds 10 --trace 2",
            "--workload paper-grid --seed 3 --seconds 10 --trace",
            "--workload paper-grid --seed 3 --seconds 10 --trace 0 --x 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_traced_cell_is_covered_by_its_phases() {
        let w = workload::tests::tiny();
        let t0 = Instant::now();
        let mut trace = Trace::new(t0);
        let root = trace.add(None, "workload", None, t0, t0, None);
        let pass = workload::run_pass(&w);
        let (self_s, uncovered) = record_spans(&mut trace, root, 0, &pass, Instant::now());
        assert_eq!(uncovered, Vec::<String>::new());
        assert!(self_s >= 0.0);
        let cells = trace.spans.iter().filter(|s| s.name == "cell").count();
        assert_eq!(cells, 2);
        let phases = trace.spans.iter().filter(|s| s.name == "run").count();
        assert_eq!(phases, 2);
        assert!(trace
            .spans
            .iter()
            .filter(|s| s.name == "run")
            .all(|s| s.cell.as_ref().is_some_and(|(p, _)| *p == 0)));
    }

    #[test]
    fn summaries_split_setup_from_the_rest() {
        let pass = workload::run_pass(&workload::tests::tiny());
        let s = summarize(&pass, false, Duration::from_secs(1), 2);
        let total: f64 = s.phase_s.iter().sum();
        assert!(s.setup_s() > 0.0 && s.setup_s() < total);
        assert!(s.cell_s >= total);
        assert_eq!(s.cell_times.len(), 2);
        assert!(s.events > 0);
    }
}
