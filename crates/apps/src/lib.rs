//! Benchmark applications for the `limitless` machine (paper §5–§6,
//! Table 3).
//!
//! | Name   | Paper language | Size (paper)     | What it stresses |
//! |--------|----------------|------------------|------------------|
//! | WORKER | synthetic      | exact worker sets| controlled protocol comparison (Fig. 2, Tables 1–2) |
//! | TSP    | Mul-T          | 10-city tour     | small worker sets + I/D cache thrashing (Figs. 3–5) |
//! | AQ     | Semi-C         | x⁴y⁴, tol 0.005  | producer–consumer sharing (Fig. 4b) |
//! | SMGRID | Mul-T          | 129×129          | nearest-neighbour + pyramid sharing (Fig. 4c) |
//! | EVOLVE | Mul-T          | 12 dimensions    | heavy-tailed worker sets (Figs. 4d, 6) |
//! | MP3D   | C              | 10 000 particles | cell contention, low speedups (Fig. 4e) |
//! | WATER  | C              | 64 molecules     | all-to-all read sharing (Fig. 4f) |
//!
//! Each application runs its real algorithm (deterministic, in plain
//! Rust) and hands every node a [`phased::Phased`] program that
//! generates the node's memory references one phase at a time — one
//! sweep, time step, round, walk or subtree — as the simulated node
//! reaches it: addresses, read/write mix, synchronization and genuine
//! data values. Tables every node reads (schedules, trajectories,
//! distance matrices) are computed once per [`App::programs`] call and
//! shared. The coherence protocols observe exactly the sharing
//! structure the algorithm produces, which is what determines protocol
//! behaviour (see DESIGN.md for the full substitution argument). TSP is
//! seeded with the optimal bound, as in the paper, precisely so that
//! its work is deterministic.

pub mod aq;
pub mod evolve;
pub mod layout;
pub mod mp3d;
pub mod phased;
pub mod registry;
pub mod smgrid;
pub mod spec;
pub mod synth;
pub mod tsp;
pub mod water;
pub mod worker;

use limitless_machine::{Machine, MachineConfig, Program, RunReport};
use limitless_sim::Addr;

pub use aq::Aq;
pub use evolve::Evolve;
pub use mp3d::Mp3d;
pub use smgrid::Smgrid;
pub use spec::{AppSpec, SpecError};
pub use synth::{Footprint, SharingPattern, Synth};
pub use tsp::Tsp;
pub use water::Water;
pub use worker::Worker;

/// Problem-size scaling: `Paper` reproduces Table 3's sizes; `Quick`
/// shrinks them so the full experiment suite runs in CI time. Shapes —
/// who wins, by roughly what factor — are preserved at both scales.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Scale {
    /// Reduced problem sizes for fast runs.
    #[default]
    Quick,
    /// The paper's Table 3 problem sizes.
    Paper,
}

impl Scale {
    /// Reads the scale from the `LIMITLESS_SCALE` environment variable
    /// (`paper` selects [`Scale::Paper`]; anything else is quick).
    pub fn from_env() -> Scale {
        match std::env::var("LIMITLESS_SCALE").as_deref() {
            Ok("paper") | Ok("PAPER") | Ok("full") => Scale::Paper,
            _ => Scale::Quick,
        }
    }
}

/// A benchmark application: produces one program per node plus the
/// metadata the experiment harnesses print.
pub trait App {
    /// Short name (Table 3 spelling).
    fn name(&self) -> &'static str;

    /// The language the paper's version was written in.
    fn language(&self) -> &'static str;

    /// Problem-size description for Table 3.
    fn size_description(&self) -> String;

    /// Builds the per-node programs for a machine of `nodes` nodes.
    fn programs(&self, nodes: usize) -> Vec<Box<dyn Program>>;

    /// Initial shared-memory contents (input data).
    fn init_memory(&self) -> Vec<(Addr, u64)> {
        Vec::new()
    }

    /// `(address, expected value)` pairs to verify after a run —
    /// genuine algorithm outputs (tour length, integral bits, …).
    fn expected_results(&self) -> Vec<(Addr, u64)> {
        Vec::new()
    }

    /// The machine size this workload was parameterized for, if any —
    /// a hint for harnesses that size the machine from the spec (the
    /// fuzz campaign honours it); [`App::programs`] must still adapt
    /// to whatever node count it is given.
    fn preferred_nodes(&self) -> Option<usize> {
        None
    }

    /// Half-open address ranges `[start, end)` whose read *values* are
    /// timing-dependent by design — deliberate unsynchronized sharing
    /// the paper's version also has (MP3D runs with its locking option
    /// off). The differential oracle masks read values in these ranges
    /// (the read *addresses* are still compared, and the final memory
    /// image is always compared in full). Empty for race-free
    /// applications.
    fn racy_read_ranges(&self) -> Vec<(Addr, Addr)> {
        Vec::new()
    }
}

/// Runs `app` on a machine built from `cfg`, verifying any expected
/// results, and returns the report.
///
/// # Panics
///
/// Panics if a declared expected result does not match (an algorithm
/// or coherence bug).
pub fn run_app(app: &dyn App, cfg: MachineConfig) -> RunReport {
    run_app_with_machine(app, cfg).0
}

/// Like [`run_app`], but also returns the machine itself so callers
/// can inspect post-run state — the differential oracle compares
/// [`Machine::memory_image`] and [`Machine::read_streams`] across
/// protocols.
///
/// # Panics
///
/// Panics if a declared expected result does not match (an algorithm
/// or coherence bug).
pub fn run_app_with_machine(app: &dyn App, cfg: MachineConfig) -> (RunReport, Machine) {
    let mut m = Machine::new(cfg);
    let report = run_app_on(app, &mut m);
    (report, m)
}

/// Runs `app` on an already-built (fresh or [`Machine::reset`])
/// machine, verifying any expected results — the machine-reuse path
/// the sweep service's workers take between cells of the same shape.
///
/// # Panics
///
/// Panics if a declared expected result does not match (an algorithm
/// or coherence bug).
pub fn run_app_on(app: &dyn App, m: &mut Machine) -> RunReport {
    let nodes = m.nodes();
    for (a, v) in app.init_memory() {
        m.poke(a, v);
    }
    m.load(app.programs(nodes));
    let report = m.run();
    for (a, want) in app.expected_results() {
        let got = m.peek(a);
        assert_eq!(
            got,
            want,
            "{}: result at {a} is {got}, expected {want}",
            app.name()
        );
    }
    report
}

/// Convenience: the sequential baseline — the same application on one
/// node with a full-map directory (no multiprocessor overhead beyond
/// the memory system itself), as the paper's speedup denominators use.
pub fn sequential_cycles(app: &dyn App) -> u64 {
    let cfg = MachineConfig::builder()
        .nodes(1)
        .protocol(limitless_core::ProtocolSpec::full_map())
        .victim_cache(true)
        .build();
    run_app(app, cfg).cycles.as_u64()
}
