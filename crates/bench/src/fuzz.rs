//! The fuzz campaign: random synthetic workloads against the full
//! coherence oracle.
//!
//! Each trial samples a random [`Synth`] spec from a *fixed* seed
//! range (trial `i` of a given base seed is the same spec on every
//! host, forever — failures reproduce by index), then runs it across
//! the whole Figure 2 protocol spectrum with the sanitizer fully
//! armed ([`CheckLevel::Full`] inside [`crate::check::capture`]) and
//! diffs every protocol against full-map ground truth. Random
//! scenarios become a standing correctness campaign: any sequential-
//! consistency violation, lost invalidation or trap-path bug that the
//! six paper applications happen not to trigger has unlimited chances
//! to show up here.
//!
//! [`CheckLevel::Full`]: limitless_core::CheckLevel

use limitless_apps::{App, Footprint, SharingPattern, Synth};
use limitless_sim::SplitMix64;

use crate::check::{check_app, CellReport};

/// The campaign's default base seed; trial `i` derives its spec from
/// `base_seed` and `i` alone.
pub const DEFAULT_BASE_SEED: u64 = 0xF0CC_5EED;

/// Campaign parameters.
#[derive(Clone, Copy, Debug)]
pub struct FuzzConfig {
    /// Number of random specs to sample and check.
    pub specs: usize,
    /// Event-lane count for every run (1 = serial reference engine).
    pub shards: usize,
    /// Machine size for specs that carry no `nodes` hint.
    pub nodes: usize,
    /// Base seed for the spec sampler.
    pub base_seed: u64,
    /// Quick mode keeps rounds and block counts CI-sized.
    pub quick: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            specs: 25,
            shards: 1,
            nodes: 16,
            base_seed: DEFAULT_BASE_SEED,
            quick: true,
        }
    }
}

/// One trial's outcome: the spec that ran and its per-protocol cells.
#[derive(Debug)]
pub struct SpecVerdict {
    /// Canonical spec string (feed back to `--app` to reproduce).
    pub spec: String,
    /// Machine size the trial ran at.
    pub nodes: usize,
    /// Per-protocol oracle cells.
    pub cells: Vec<CellReport>,
    /// Whether every cell matched ground truth.
    pub passed: bool,
}

/// Every eighth trial is a scale-out spec: see [`sample_spec`].
pub const SCALE_TRIAL_STRIDE: usize = 8;

/// Deterministically samples trial `index`'s synthetic workload. The
/// ranges deliberately straddle the interesting cliffs: worker sets
/// 1–8 around the five-pointer hardware boundary, all three sharing
/// patterns, sync densities up to 0.2 and occasional large code
/// footprints.
///
/// Every [`SCALE_TRIAL_STRIDE`]th trial instead samples a ≥512-node
/// wide-shared spec (the `nodes_hint` overrides the campaign's
/// machine size), so multi-word directory rows and the u16-id scale
/// paths sit inside the standing campaign rather than only in
/// targeted tests. Those trials stay deliberately small
/// in blocks and rounds — a 512-node oracle cell already dwarfs a
/// 16-node one.
pub fn sample_spec(base_seed: u64, index: usize, quick: bool) -> Synth {
    let mut rng = SplitMix64::new(base_seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    if index % SCALE_TRIAL_STRIDE == SCALE_TRIAL_STRIDE - 1 {
        // 512 exactly (the power-of-two rung) or an odd size just past
        // it, so presence-word seams get non-aligned machines too.
        let nodes = if rng.next_below(2) == 0 {
            512
        } else {
            513 + rng.next_below(63) as usize
        };
        // Worker sets far past every limited pointer capacity: every
        // protocol in the spectrum except full-map must trap.
        let ws = 12 + rng.next_below(21) as usize;
        return Synth {
            seed: rng.next_u64(),
            nodes_hint: Some(nodes),
            pattern: SharingPattern::WideShared,
            ws,
            jitter: rng.next_below(4) as usize,
            rw: 0.2 + rng.next_below(3) as f64 / 10.0,
            sync: 0.0,
            footprint: Footprint::None,
            blocks: 3 + rng.next_below(3) as usize,
            rounds: if quick { 2 } else { 3 },
        };
    }
    let pattern = SharingPattern::ALL[rng.next_below(3) as usize];
    let ws = 1 + rng.next_below(8) as usize;
    let jitter = rng.next_below(3) as usize;
    let rw = rng.next_below(7) as f64 / 10.0;
    let sync = rng.next_below(5) as f64 / 20.0;
    let footprint = match rng.next_below(4) {
        0 => Footprint::Small,
        1 => Footprint::Large,
        _ => Footprint::None,
    };
    let (blocks, rounds) = if quick {
        (
            8 + rng.next_below(25) as usize,
            3 + rng.next_below(4) as usize,
        )
    } else {
        (
            32 + rng.next_below(97) as usize,
            8 + rng.next_below(9) as usize,
        )
    };
    Synth {
        seed: rng.next_u64(),
        nodes_hint: None,
        pattern,
        ws,
        jitter,
        rw,
        sync,
        footprint,
        blocks,
        rounds,
    }
}

/// Runs the campaign, invoking `progress` after each trial (the CLI
/// prints a PASS/FAIL line; tests pass a no-op). Returns every verdict
/// and whether the whole campaign passed.
pub fn run_fuzz(
    cfg: &FuzzConfig,
    mut progress: impl FnMut(usize, &SpecVerdict),
) -> (Vec<SpecVerdict>, bool) {
    let mut verdicts = Vec::with_capacity(cfg.specs);
    let mut all_ok = true;
    for i in 0..cfg.specs {
        let synth = sample_spec(cfg.base_seed, i, cfg.quick);
        let nodes = synth.preferred_nodes().unwrap_or(cfg.nodes);
        let cells = check_app(&synth, nodes, cfg.shards);
        let passed = cells.iter().all(|c| c.passed);
        all_ok &= passed;
        let verdict = SpecVerdict {
            spec: synth.spec_string(),
            nodes,
            cells,
            passed,
        };
        progress(i, &verdict);
        verdicts.push(verdict);
    }
    (verdicts, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_per_index() {
        for i in 0..20 {
            assert_eq!(
                sample_spec(DEFAULT_BASE_SEED, i, true),
                sample_spec(DEFAULT_BASE_SEED, i, true),
            );
        }
        assert_ne!(
            sample_spec(DEFAULT_BASE_SEED, 0, true),
            sample_spec(DEFAULT_BASE_SEED, 1, true),
        );
    }

    #[test]
    fn samples_cover_all_patterns_and_the_pointer_boundary() {
        let specs: Vec<Synth> = (0..40)
            .map(|i| sample_spec(DEFAULT_BASE_SEED, i, true))
            .collect();
        for pattern in SharingPattern::ALL {
            assert!(
                specs.iter().any(|s| s.pattern == pattern),
                "40 samples must include {pattern:?}"
            );
        }
        assert!(specs.iter().any(|s| s.ws <= 5), "within hardware pointers");
        assert!(specs.iter().any(|s| s.ws > 5), "beyond hardware pointers");
    }

    #[test]
    fn scale_trials_pin_the_big_machine_paths() {
        for i in [7usize, 15, 23] {
            let s = sample_spec(DEFAULT_BASE_SEED, i, true);
            let nodes = s.nodes_hint.expect("scale trials carry a machine size");
            assert!((512..=576).contains(&nodes), "index {i}: {nodes}");
            assert_eq!(s.pattern, SharingPattern::WideShared);
            assert!(s.ws > 8, "past every limited pointer capacity");
            assert!(s.blocks <= 8 && s.rounds <= 3, "stay campaign-sized");
        }
        // Non-scale indices still run at the campaign's machine size.
        assert_eq!(sample_spec(DEFAULT_BASE_SEED, 6, true).nodes_hint, None);
    }

    #[test]
    fn a_tiny_campaign_passes_the_oracle() {
        let cfg = FuzzConfig {
            specs: 2,
            nodes: 8,
            ..FuzzConfig::default()
        };
        let (verdicts, ok) = run_fuzz(&cfg, |_, _| {});
        assert_eq!(verdicts.len(), 2);
        assert!(ok, "{verdicts:?}");
    }
}
