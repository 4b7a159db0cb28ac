//! Experiment harnesses: the code that regenerates every table and
//! figure of the paper's evaluation.
//!
//! Each experiment prints one table or figure through the
//! `limitless-bench <experiment>` CLI, e.g. `limitless-bench fig2
//! --quick` (see DESIGN.md §3 for the index). Problem sizes default to
//! [`Scale::Quick`]; `--paper` (or `LIMITLESS_SCALE=paper`) selects the
//! paper's Table 3 sizes, and `--nodes N` overrides the default machine
//! sizes. `cargo bench -p limitless-bench --bench micro` runs the
//! data-structure micro-benchmarks.

use limitless_apps::{run_app, App, Scale};
use limitless_core::{HandlerImpl, ProtocolSpec};
use limitless_machine::{MachineConfig, RunReport};

#[cfg(feature = "alloc-counter")]
pub mod alloc_counter;
pub mod check;
pub mod experiments;
pub mod fuzz;
pub mod gate;
pub mod micro;
pub mod record;
pub mod runner;
pub mod serve;

pub use check::{check_app, run_check, run_check_apps, CellReport};
pub use experiments::applications;
pub use fuzz::{run_fuzz, FuzzConfig, SpecVerdict};
pub use record::{BenchLedger, CellRecord, SweepRecord};
pub use runner::{AppFactory, CellError, CellResult, ExperimentResult, ExperimentSpec, Runner};
pub use serve::{ServeConfig, ServeSummary};

/// Common knobs shared by every experiment harness.
#[derive(Clone, Copy, Debug)]
pub struct Harness {
    /// Problem-size scale.
    pub scale: Scale,
    /// Override for the experiment's default node count.
    pub nodes_override: Option<usize>,
    /// Event-lane count for every simulation (1 = the serial
    /// reference engine; results are bit-identical either way).
    pub shards: usize,
}

impl Harness {
    /// The node count to use, given an experiment default. Quick scale
    /// shrinks the paper's 64/256-node configurations to keep
    /// single-core wall time reasonable.
    pub fn nodes(&self, paper_default: usize) -> usize {
        if let Some(n) = self.nodes_override {
            return n;
        }
        match self.scale {
            Scale::Paper => paper_default,
            Scale::Quick => match paper_default {
                256 => 64,
                64 => 16,
                other => other,
            },
        }
    }
}

/// A machine configuration for one experiment cell.
pub fn cfg(nodes: usize, protocol: ProtocolSpec) -> MachineConfig {
    cfg_sharded(nodes, protocol, 1)
}

/// A machine configuration for one experiment cell with an explicit
/// event-lane count (1 selects the serial reference engine).
pub fn cfg_sharded(nodes: usize, protocol: ProtocolSpec, shards: usize) -> MachineConfig {
    MachineConfig::builder()
        .nodes(nodes)
        .protocol(protocol)
        .victim_cache(true) // the paper's default after §6/TSP
        .shards(shards)
        .build()
}

/// Runs `app` and returns the report (convenience re-export).
pub fn run(app: &dyn App, config: MachineConfig) -> RunReport {
    run_app(app, config)
}

/// The Figure 4 protocol spectrum with display labels: hardware
/// pointer counts 0, 1 (the `ACK` variant, as the paper plots), 2, 3,
/// 4, 5 and full-map.
pub fn fig4_spectrum() -> Vec<(&'static str, ProtocolSpec)> {
    vec![
        ("0 (DirnH0SNB,ACK)", ProtocolSpec::zero_ptr()),
        ("1 (DirnH1SNB,ACK)", ProtocolSpec::one_ptr_ack()),
        ("2 (DirnH2SNB)", ProtocolSpec::limitless(2)),
        ("3 (DirnH3SNB)", ProtocolSpec::limitless(3)),
        ("4 (DirnH4SNB)", ProtocolSpec::limitless(4)),
        ("5 (DirnH5SNB)", ProtocolSpec::limitless(5)),
        ("n (DirnHNBS-)", ProtocolSpec::full_map()),
    ]
}

/// The Figure 2 protocol set: the machine protocols (solid curves)
/// plus the three one-pointer variants (dashed curves).
pub fn fig2_protocols() -> Vec<(&'static str, ProtocolSpec)> {
    vec![
        ("DirnH0SNB,ACK", ProtocolSpec::zero_ptr()),
        ("DirnH1SNB,ACK", ProtocolSpec::one_ptr_ack()),
        ("DirnH1SNB,LACK", ProtocolSpec::one_ptr_lack()),
        ("DirnH1SNB", ProtocolSpec::one_ptr_hw()),
        ("DirnH2SNB", ProtocolSpec::limitless(2)),
        ("DirnH3SNB", ProtocolSpec::limitless(3)),
        ("DirnH4SNB", ProtocolSpec::limitless(4)),
        ("DirnH5SNB", ProtocolSpec::limitless(5)),
        ("DirnHNBS-", ProtocolSpec::full_map()),
    ]
}

/// Computes speedup: sequential cycles / parallel cycles.
pub fn speedup(sequential: u64, parallel: u64) -> f64 {
    sequential as f64 / parallel as f64
}

/// The `HandlerImpl` pair for Table 1/2 comparisons.
pub fn handler_impls() -> [(&'static str, HandlerImpl); 2] {
    [
        ("C", HandlerImpl::FlexibleC),
        ("Assembly", HandlerImpl::TunedAsm),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectrum_shapes() {
        assert_eq!(fig4_spectrum().len(), 7);
        assert_eq!(fig2_protocols().len(), 9);
    }

    #[test]
    fn quick_scale_shrinks_paper_machines() {
        let h = Harness {
            scale: Scale::Quick,
            nodes_override: None,
            shards: 1,
        };
        assert_eq!(h.nodes(64), 16);
        assert_eq!(h.nodes(256), 64);
        assert_eq!(h.nodes(16), 16);
        let hp = Harness {
            scale: Scale::Paper,
            nodes_override: None,
            shards: 1,
        };
        assert_eq!(hp.nodes(64), 64);
        let ho = Harness {
            scale: Scale::Quick,
            nodes_override: Some(8),
            shards: 1,
        };
        assert_eq!(ho.nodes(64), 8);
    }

    #[test]
    fn speedup_math() {
        assert_eq!(speedup(100, 50), 2.0);
    }
}
