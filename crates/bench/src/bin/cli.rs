//! `limitless-bench` — run any paper experiment from the command line.
//!
//! ```text
//! limitless-bench <experiment> [--paper] [--nodes N]
//! limitless-bench all [--paper]
//! limitless-bench sweep [--paper] [--nodes N] [--shards S] [--threads T]
//!                       [--min-of N] [--json PATH] [--label L] [--no-micro]
//!                       [--app SPEC ...]
//! limitless-bench micro [--json PATH] [--app SPEC ...]
//! limitless-bench check [--paper|--quick] [--nodes N] [--shards S] [--app SPEC ...]
//! limitless-bench fuzz [--specs N] [--shards S] [--nodes N] [--seed S] [--paper]
//! limitless-bench perfgate [--json PATH] [--warn-only]
//! limitless-bench serve [--threads T] [--queue CELLS] [--socket PATH] [--once]
//! ```
//!
//! `--shards S` runs every simulation on the sharded conservative
//! parallel engine with S event lanes (DESIGN.md §9); results are
//! bit-identical to the serial default, only wall time changes.
//!
//! `--app SPEC` (repeatable) selects workloads by registry spec
//! (DESIGN.md §11): `tsp`, `worker:ws=8`, or
//! `synth:seed=7,pattern=wide-shared,ws=6,rw=0.3,sync=0.01`.
//! Malformed specs are reported as typed errors at startup, never as
//! panics mid-run. `sweep --app` replaces the grid's application
//! axis, `check --app` restricts the oracle, and `micro --app` times
//! a complete end-to-end simulation of each named workload.
//!
//! `fuzz` samples `--specs N` random synthetic workloads from a fixed
//! seed range (trial i is reproducible forever) and runs every one
//! through the full differential oracle with the sanitizer armed —
//! the standing correctness campaign.
//!
//! Experiments: `table1 table2 table3 fig2 fig3 fig4 fig5 fig6
//! ablation-localbit ablation-network ablation-handlers`, plus two
//! performance probes:
//!
//! - `sweep` — the full protocol × application grid run through the
//!   threaded [`Runner`](limitless_bench::Runner), printing cycle
//!   counts and simulator throughput. `--min-of N` repeats the grid
//!   N times and keeps each cell's fastest wall time; `--json PATH`
//!   upserts the measurement into the labelled ledger at PATH
//!   (conventionally `BENCH_sweep.json` at the repo root), replacing
//!   any record with the same `--label` and keeping the rest.
//!   `--no-micro` writes the record without micro medians — use it
//!   for scaling-rung records (`--nodes 1024`) so they never become
//!   the `perfgate` baseline the default-sized sweep is held to.
//! - `micro` — data-structure micro-benchmarks, min/median over
//!   repeated batches; `--json PATH` writes the record for CI.
//!
//! There is also a correctness gate and a perf gate:
//!
//! - `check` — the differential oracle: every application × protocol
//!   cell runs with the coherence sanitizer fully armed and is diffed
//!   against full-map ground truth (final memory image + per-node read
//!   streams). Prints one PASS/FAIL line per cell; exits 1 on any
//!   failure.
//! - `perfgate` — re-runs the micro suite and diffs each median
//!   against the medians embedded in the most recent ledger record
//!   (±15%). Enforcing: any benchmark drifting beyond tolerance
//!   exits 1, as does a missing ledger or a ledger without medians.
//!   `--warn-only` restores the old advisory behaviour for noisy
//!   hosts (shared CI runners, laptops on battery).
//!
//! And the persistent sweep service:
//!
//! - `serve` — reads NDJSON job lines (one experiment grid each) from
//!   stdin, or accepts connections on `--socket PATH`, and streams one
//!   JSON line per completed cell plus per-job summaries (see
//!   DESIGN.md §13 for the schema). `--queue CELLS` bounds the work
//!   queue (over-capacity jobs are rejected whole, with the reason on
//!   the stream); `--once` exits after the first socket session.
//!   Exits 1 if any cell failed.

use limitless_apps::{registry, App, Scale};
use limitless_bench::{
    experiments, fuzz, gate, micro, runner, serve, ExperimentSpec, Harness, Runner, SweepRecord,
};
use limitless_machine::MachineConfig;
use limitless_stats::Table;

/// Resolves every `--app` spec through the registry, exiting with a
/// typed error message on the first malformed spec.
fn resolve_apps(specs: &[String], scale: Scale) -> Vec<Box<dyn App>> {
    specs
        .iter()
        .map(|s| {
            registry::build_str(s, scale).unwrap_or_else(|e| {
                eprintln!("--app {s}: {e}");
                std::process::exit(2);
            })
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        std::process::exit(2);
    }
    let mut scale = Scale::from_env();
    let mut nodes_override = None;
    let mut shards = 1usize;
    let mut threads = None;
    let mut json_path = None;
    let mut min_of = 1u32;
    let mut label = "current".to_string();
    let mut warn_only = false;
    let mut no_micro = false;
    let mut app_specs: Vec<String> = Vec::new();
    let mut fuzz_specs = fuzz::FuzzConfig::default().specs;
    let mut base_seed = fuzz::DEFAULT_BASE_SEED;
    let mut queue_capacity = serve::ServeConfig::default().queue_capacity;
    let mut socket_path: Option<String> = None;
    let mut once = false;
    let mut name = String::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--paper" => scale = Scale::Paper,
            "--quick" => scale = Scale::Quick,
            "--warn-only" => warn_only = true,
            "--no-micro" => no_micro = true,
            "--once" => once = true,
            "--queue" => {
                queue_capacity = it
                    .next()
                    .and_then(|n| n.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--queue needs a cell count >= 1");
                        std::process::exit(2);
                    });
            }
            "--socket" => {
                socket_path = it.next().or_else(|| {
                    eprintln!("--socket needs a path");
                    std::process::exit(2);
                });
            }
            "--app" => {
                app_specs.push(it.next().unwrap_or_else(|| {
                    eprintln!("--app needs a spec (e.g. `tsp` or `synth:ws=6`)");
                    std::process::exit(2);
                }));
            }
            "--specs" => {
                fuzz_specs = it
                    .next()
                    .and_then(|n| n.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--specs needs a number >= 1");
                        std::process::exit(2);
                    });
            }
            "--seed" => {
                base_seed = it.next().and_then(|n| n.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs a number");
                    std::process::exit(2);
                });
            }
            "--nodes" => {
                let n = it.next().and_then(|n| n.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--nodes needs a number");
                    std::process::exit(2);
                });
                // Reject machine sizes the builder would panic on
                // mid-run, before any cell starts.
                if let Err(e) = MachineConfig::builder().nodes(n).try_build() {
                    eprintln!("--nodes {n}: {e}");
                    std::process::exit(2);
                }
                nodes_override = Some(n);
            }
            "--shards" => {
                shards = it
                    .next()
                    .and_then(|n| n.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--shards needs a number >= 1");
                        std::process::exit(2);
                    });
            }
            "--threads" => {
                threads = it.next().and_then(|n| n.parse::<usize>().ok()).or_else(|| {
                    eprintln!("--threads needs a number");
                    std::process::exit(2);
                });
            }
            "--min-of" => {
                min_of = it
                    .next()
                    .and_then(|n| n.parse::<u32>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--min-of needs a number >= 1");
                        std::process::exit(2);
                    });
            }
            "--json" => {
                json_path = it.next().or_else(|| {
                    eprintln!("--json needs a path");
                    std::process::exit(2);
                });
            }
            "--label" => {
                label = it.next().unwrap_or_else(|| {
                    eprintln!("--label needs a name");
                    std::process::exit(2);
                });
            }
            other if name.is_empty() => name = other.to_string(),
            other => {
                eprintln!("unexpected argument `{other}`");
                std::process::exit(2);
            }
        }
    }
    let h = Harness {
        scale,
        nodes_override,
        shards,
    };
    if name == "serve" {
        let cfg = serve::ServeConfig {
            threads: threads.unwrap_or_else(|| serve::ServeConfig::default().threads),
            queue_capacity,
            scale,
            pool_capacity: serve::ServeConfig::default().pool_capacity,
        };
        let summary = match &socket_path {
            Some(path) => serve::serve_socket(&cfg, path, once).unwrap_or_else(|e| {
                eprintln!("serve: socket {path}: {e}");
                std::process::exit(1);
            }),
            None => {
                let stdin = std::io::stdin();
                serve::serve(&cfg, stdin.lock(), std::io::stdout())
            }
        };
        if summary.cells_failed > 0 {
            eprintln!(
                "serve: {} of {} cells failed",
                summary.cells_failed,
                summary.cells_completed + summary.cells_failed
            );
            std::process::exit(1);
        }
        return;
    }
    if name == "micro" {
        // `micro --app` times complete simulations of the named
        // workloads instead of the data-structure suite.
        let results = if app_specs.is_empty() {
            micro::run_all()
        } else {
            resolve_apps(&app_specs, scale)
                .iter()
                .zip(&app_specs)
                .map(|(app, spec)| {
                    let nodes = app.preferred_nodes().unwrap_or_else(|| h.nodes(16));
                    micro::run_app_micro(spec, app.as_ref(), nodes, shards)
                })
                .collect()
        };
        print!("{}", micro::render(&results));
        if let Some(path) = json_path {
            if let Err(e) = std::fs::write(&path, micro::to_json(&results)) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote {path}");
        }
        return;
    }
    if name == "check" {
        println!("== check: differential oracle vs full-map ground truth ==");
        let (reports, ok) = if app_specs.is_empty() {
            limitless_bench::run_check(h)
        } else {
            let apps = resolve_apps(&app_specs, scale);
            limitless_bench::run_check_apps(&apps, h.nodes(16), h.shards)
        };
        for r in &reports {
            let verdict = if r.passed { "PASS" } else { "FAIL" };
            if r.detail.is_empty() {
                println!("{verdict}  {:<8} x {}", r.app, r.protocol);
            } else {
                println!("{verdict}  {:<8} x {} — {}", r.app, r.protocol, r.detail);
            }
        }
        let failed = reports.iter().filter(|r| !r.passed).count();
        if ok {
            println!("all {} cells match ground truth", reports.len());
        } else {
            eprintln!(
                "{failed} of {} cells diverged from ground truth",
                reports.len()
            );
            std::process::exit(1);
        }
        return;
    }
    if name == "fuzz" {
        let cfg = fuzz::FuzzConfig {
            specs: fuzz_specs,
            shards,
            nodes: h.nodes(16),
            base_seed,
            quick: scale == Scale::Quick,
        };
        println!(
            "== fuzz: {} random synthetic workloads vs the oracle (seed {:#x}, {} lanes) ==",
            cfg.specs, cfg.base_seed, cfg.shards
        );
        let (verdicts, ok) = fuzz::run_fuzz(&cfg, |i, v| {
            let verdict = if v.passed { "PASS" } else { "FAIL" };
            println!("{verdict}  [{i:>3}] {} @ {} nodes", v.spec, v.nodes);
            for c in v.cells.iter().filter(|c| !c.passed) {
                println!("      {} — {}", c.protocol, c.detail);
            }
        });
        let failed = verdicts.iter().filter(|v| !v.passed).count();
        if ok {
            println!("all {} specs match ground truth", verdicts.len());
        } else {
            eprintln!(
                "{failed} of {} specs diverged from ground truth",
                verdicts.len()
            );
            std::process::exit(1);
        }
        return;
    }
    if name == "sweep" {
        // Oversubscribed lanes still produce bit-identical results,
        // but the wall clock stops meaning anything: more lanes than
        // cores just time the scheduler. One honest line, then run.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        if shards > cores {
            eprintln!(
                "sweep: {shards} lanes on a {cores}-core host — results are \
                 bit-identical but wall clock measures contention, not speedup"
            );
        }
        // Capture micro medians for the ledger record *before* the
        // sweep: `perfgate` measures in a fresh process, so the
        // baseline must too (a 20-second sweep leaves the heap warm
        // enough to shift allocation-heavy micros by ~20%). Scaling
        // rungs pass --no-micro: their records must never become the
        // perfgate baseline (gate::baseline picks the last record
        // *with* medians).
        let micro_medians: Vec<(String, u64)> = if json_path.is_some() && !no_micro {
            micro::run_all()
                .iter()
                .map(|r| (r.name.clone(), r.median_ns()))
                .collect()
        } else {
            Vec::new()
        };
        let spec = if app_specs.is_empty() {
            ExperimentSpec::spectrum_grid(h)
        } else {
            ExperimentSpec::spectrum_grid_for(h, &app_specs).unwrap_or_else(|e| {
                eprintln!("--app: {e}");
                std::process::exit(2);
            })
        };
        let r = match threads {
            Some(t) => Runner::with_threads(t),
            None => Runner::default(),
        };
        let result = r.try_run_min_of(&spec, min_of).unwrap_or_else(|errors| {
            // Every failed cell with its identity — a 42-cell sweep
            // that loses one cell names it instead of aborting blind.
            for e in &errors {
                eprintln!("sweep: {e}");
            }
            eprintln!("sweep: {} cell(s) failed", errors.len());
            std::process::exit(1);
        });
        println!("== sweep ==");
        println!("{}", result.table().render());
        println!("{}", runner::throughput_line(&result));
        if let Some(path) = json_path {
            let mut ledger = limitless_bench::BenchLedger::load(&path).unwrap_or_else(|e| {
                eprintln!("cannot load ledger {path}: {e}");
                std::process::exit(1);
            });
            let mut rec = SweepRecord::from_result(&label, &result);
            // The pre-sweep micro medians give `perfgate` a committed
            // baseline to diff future PRs against.
            rec.micro_median_ns = micro_medians;
            ledger.upsert(rec);
            if let Err(e) = ledger.save(&path) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("wrote record `{label}` (min of {min_of}) to {path}");
        }
        return;
    }
    if name == "perfgate" {
        let path = json_path.unwrap_or_else(|| "BENCH_sweep.json".to_string());
        // `load_existing`, not `load`: a typo'd --json path must turn
        // the gate red, not compare against a phantom empty ledger.
        let ledger = limitless_bench::BenchLedger::load_existing(&path).unwrap_or_else(|e| {
            eprintln!("perfgate: {e}");
            std::process::exit(1);
        });
        let Some(base) = gate::baseline(&ledger) else {
            // No usable baseline is a configuration error even under
            // --warn-only: a gate with nothing to compare against
            // guards nothing and must say so loudly.
            eprintln!(
                "perfgate: no record in {path} carries micro medians; \
                 record a baseline with `sweep --json {path}` first"
            );
            std::process::exit(1);
        };
        // A sharded baseline from a host with a different core budget
        // (or one that predates host metadata) cannot anchor an
        // enforcing comparison: warn instead of failing the build.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let warn_only = match gate::host_mismatch(base, cores) {
            Some(msg) => {
                eprintln!("perfgate: {msg}; demoting to warn-only");
                true
            }
            None => warn_only,
        };
        // A baseline recorded at a scaling-rung machine size (someone
        // ran `sweep --nodes 1024 --json` without --no-micro) is not
        // the workload the default gate sweep measures: advisory only.
        let warn_only = match gate::nodes_mismatch(base, h.nodes(64)) {
            Some(msg) => {
                eprintln!("perfgate: {msg}; demoting to warn-only");
                true
            }
            None => warn_only,
        };
        let mode = if warn_only { "warn-only" } else { "enforcing" };
        println!(
            "== perfgate: micro medians vs record `{}` ({mode}, ±15%) ==",
            base.label
        );
        let lines = gate::compare(base, &micro::run_all(), 0.15);
        for l in &lines {
            println!("{}", l.render());
        }
        let warned = lines.iter().filter(|l| l.warn).count();
        if warned == 0 {
            println!("perfgate: all {} benchmarks within tolerance", lines.len());
        } else if warn_only {
            // Advisory mode for noisy hosts: a drift is a flag for a
            // human, never a red build.
            println!(
                "perfgate: {warned} of {} benchmarks drifted beyond tolerance (warn-only)",
                lines.len()
            );
        } else {
            eprintln!(
                "perfgate: {warned} of {} benchmarks drifted beyond tolerance",
                lines.len()
            );
            std::process::exit(1);
        }
        return;
    }
    type Experiment = fn(Harness) -> Table;
    let all: Vec<(&str, Experiment)> = vec![
        ("table1", experiments::table1),
        ("table2", experiments::table2),
        ("table3", experiments::table3),
        ("fig2", experiments::fig2),
        ("fig3", experiments::fig3),
        ("fig4", experiments::fig4),
        ("fig5", experiments::fig5),
        ("fig6", experiments::fig6),
        ("ablation-localbit", experiments::ablation_localbit),
        ("ablation-network", experiments::ablation_network),
        ("ablation-handlers", experiments::ablation_handlers),
    ];
    if name == "all" {
        for (n, f) in &all {
            println!("== {n} ==");
            println!("{}", f(h).render());
        }
        return;
    }
    match all.iter().find(|(n, _)| *n == name) {
        Some((n, f)) => {
            println!("== {n} ==");
            println!("{}", f(h).render());
        }
        None => {
            eprintln!("unknown experiment `{name}`");
            usage();
            std::process::exit(2);
        }
    }
}

fn usage() {
    eprintln!(
        "usage: limitless-bench <experiment|all> [--paper|--quick] [--nodes N]\n\
         \x20      limitless-bench sweep [--paper|--quick] [--nodes N] [--shards S]\n\
         \x20                            [--threads T] [--min-of N] [--json PATH] [--label L]\n\
         \x20                            [--no-micro] [--app SPEC ...]\n\
         \x20      limitless-bench micro [--json PATH] [--app SPEC ...]\n\
         \x20      limitless-bench check [--paper|--quick] [--nodes N] [--shards S] [--app SPEC ...]\n\
         \x20      limitless-bench fuzz [--specs N] [--shards S] [--nodes N] [--seed S] [--paper]\n\
         \x20      limitless-bench perfgate [--json PATH] [--warn-only]\n\
         \x20      limitless-bench serve [--threads T] [--queue CELLS] [--socket PATH] [--once]\n\
         app specs: `tsp`, `worker:ws=8`, `synth:seed=7,pattern=migratory,ws=6,rw=0.3` (DESIGN.md \u{a7}11)\n\
         serve jobs (NDJSON on stdin): {{\"id\": \"j\", \"apps\": [\"tsp\"], \"protocols\": [\"DirnH4SNB\"]}}\n\
         experiments: table1 table2 table3 fig2 fig3 fig4 fig5 fig6 \
         ablation-localbit ablation-network ablation-handlers sweep micro check fuzz perfgate serve"
    );
}
