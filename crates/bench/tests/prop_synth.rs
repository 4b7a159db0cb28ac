//! The synthetic-generator determinism property (DESIGN.md §11): the
//! same synth spec must produce bit-identical results — cycle count,
//! event count, aggregate statistics, final memory image and per-home
//! block-id assignment — across repeated runs and across the serial
//! and sharded engines. Everything a [`Synth`] emits is a function of
//! its seed alone, so any divergence is an engine bug, not workload
//! noise.

use limitless_apps::{run_app_with_machine, SharingPattern, Synth};
use limitless_bench::fuzz::{sample_spec, DEFAULT_BASE_SEED};
use limitless_core::ProtocolSpec;
use limitless_machine::RunReport;

struct RunOutput {
    report: RunReport,
    image: Vec<(limitless_sim::Addr, u64)>,
    fingerprints: Vec<u64>,
}

fn run(synth: &Synth, nodes: usize, shards: usize) -> RunOutput {
    let cfg = limitless_bench::cfg_sharded(nodes, ProtocolSpec::limitless(5), shards);
    let (report, m) = run_app_with_machine(synth, cfg);
    RunOutput {
        image: m.memory_image(),
        fingerprints: m.interner_fingerprints(),
        report,
    }
}

fn assert_identical(a: &RunOutput, b: &RunOutput, what: &str, spec: &str) {
    assert_eq!(
        a.report.cycles, b.report.cycles,
        "cycle count diverged {what} ({spec})"
    );
    assert_eq!(
        a.report.events, b.report.events,
        "event count diverged {what} ({spec})"
    );
    assert_eq!(
        a.report.stats, b.report.stats,
        "aggregate statistics diverged {what} ({spec})"
    );
    assert_eq!(a.image, b.image, "memory image diverged {what} ({spec})");
    assert_eq!(
        a.fingerprints, b.fingerprints,
        "block-id assignment diverged {what} ({spec})"
    );
}

/// A hand-picked spread plus sampled fuzz specs: every sharing
/// pattern, worker sets on both sides of the five-pointer boundary.
fn property_specs() -> Vec<Synth> {
    let mut specs: Vec<Synth> = SharingPattern::ALL
        .iter()
        .map(|&pattern| Synth {
            pattern,
            ws: if pattern == SharingPattern::WideShared {
                7
            } else {
                3
            },
            sync: 0.1,
            ..Synth::new(limitless_apps::Scale::Quick)
        })
        .collect();
    specs.extend((0..3).map(|i| sample_spec(DEFAULT_BASE_SEED, i, true)));
    specs
}

#[test]
fn same_spec_is_bit_identical_across_engines_and_runs() {
    const NODES: usize = 16;
    for synth in property_specs() {
        let spec = synth.spec_string();
        let reference = run(&synth, NODES, 1);
        assert!(
            reference.fingerprints.iter().any(|&f| f != 0),
            "the workload must touch the directories ({spec})"
        );
        let repeat = run(&synth, NODES, 1);
        assert_identical(&reference, &repeat, "across repeated serial runs", &spec);
        for shards in [2usize, 4] {
            let sharded = run(&synth, NODES, shards);
            assert_identical(
                &reference,
                &sharded,
                &format!("at {shards} shards vs serial"),
                &spec,
            );
        }
    }
}

/// Rebuilding the spec from its canonical string must reproduce the
/// same workload exactly — the round trip the fuzz campaign relies on
/// when a failure is re-run by spec string.
#[test]
fn spec_string_round_trip_reproduces_the_run() {
    const NODES: usize = 16;
    let synth = sample_spec(DEFAULT_BASE_SEED, 4, true);
    let spec = synth.spec_string();
    let rebuilt = limitless_apps::registry::build_str(&spec, limitless_apps::Scale::Quick).unwrap();
    let a = run(&synth, NODES, 1);
    let (report, m) = run_app_with_machine(
        rebuilt.as_ref(),
        limitless_bench::cfg_sharded(NODES, ProtocolSpec::limitless(5), 1),
    );
    let b = RunOutput {
        image: m.memory_image(),
        fingerprints: m.interner_fingerprints(),
        report,
    };
    assert_identical(&a, &b, "after a spec-string round trip", &spec);
}
