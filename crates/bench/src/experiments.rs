//! The experiment implementations, one per table/figure. Bench
//! targets and the CLI both dispatch here; every function returns the
//! rendered table so tests can assert on its content.

use limitless_apps::{registry, run_app, sequential_cycles, App, Scale, Smgrid, Worker};
use limitless_core::cost::Activity;
use limitless_core::{HandlerImpl, ProtocolSpec};
use limitless_machine::MachineConfig;
use limitless_stats::{fmt_f64, Table};

use crate::{fig2_protocols, fig4_spectrum, handler_impls, Harness};

fn worker_cfg(nodes: usize, p: ProtocolSpec, imp: HandlerImpl) -> MachineConfig {
    MachineConfig::builder()
        .nodes(nodes)
        .protocol(p)
        .handler_impl(imp)
        .victim_cache(true)
        .build()
}

/// **Table 1** — average software-extension latencies (cycles) for the
/// C and assembly handlers, `Dir_nH_5S_{NB}`, measured on WORKER with
/// 8/12/16 readers per block on a 16-node machine.
pub fn table1(h: Harness) -> Table {
    let nodes = 16; // fixed by the experiment definition
    let mut t = Table::new(&[
        "Readers/Block",
        "C Read",
        "Asm Read",
        "C Write",
        "Asm Write",
    ]);
    let readers = [8usize, 12, 16];
    for &r in &readers {
        let mut row = vec![r.to_string()];
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for (_, imp) in handler_impls() {
            let app = Worker::table1(r);
            let report = run_app(&app, worker_cfg(nodes, ProtocolSpec::limitless(5), imp));
            reads.push(report.stats.read_trap_latency.mean().unwrap_or(0.0));
            writes.push(report.stats.write_trap_latency.mean().unwrap_or(0.0));
        }
        row.push(fmt_f64(reads[0], 0));
        row.push(fmt_f64(reads[1], 0));
        row.push(fmt_f64(writes[0], 0));
        row.push(fmt_f64(writes[1], 0));
        t.row_owned(row);
    }
    let _ = h;
    t
}

/// **Table 2** — per-activity cycle breakdown of the median-latency
/// read and write handlers (8 readers, 1 writer per block), C vs
/// assembly.
pub fn table2(_h: Harness) -> Table {
    let app = Worker::table1(8);
    let mut bills = Vec::new();
    for (_, imp) in handler_impls() {
        let report = run_app(&app, worker_cfg(16, ProtocolSpec::limitless(5), imp));
        // Median-latency representative of each kind, as the paper
        // selects ("we choose a median request of each type").
        let read_bill = report.stats.read_trap_bills.median_bill();
        let write_bill = report.stats.write_trap_bills.median_bill();
        bills.push((read_bill, write_bill));
    }
    let mut t = Table::new(&["Activity", "C Read", "Asm Read", "C Write", "Asm Write"]);
    let cell = |bill: &Option<limitless_core::TrapBill>, a: Activity| -> String {
        match bill {
            Some(b) => {
                let c = b.activity(a);
                if c == 0 {
                    "N/A".to_string()
                } else {
                    c.to_string()
                }
            }
            None => "-".to_string(),
        }
    };
    for a in Activity::ALL {
        if a == Activity::DataTransmit {
            continue; // not a Table 2 row
        }
        t.row_owned(vec![
            a.label().to_string(),
            cell(&bills[0].0, a),
            cell(&bills[1].0, a),
            cell(&bills[0].1, a),
            cell(&bills[1].1, a),
        ]);
    }
    let total = |bill: &Option<limitless_core::TrapBill>| -> String {
        bill.as_ref()
            .map(|b| b.total().to_string())
            .unwrap_or_else(|| "-".into())
    };
    t.row_owned(vec![
        "total (median latency)".to_string(),
        total(&bills[0].0),
        total(&bills[1].0),
        total(&bills[0].1),
        total(&bills[1].1),
    ]);
    t
}

/// Builds the six Figure 4 applications at a given scale, resolved
/// through the app registry — the same source of truth the oracle,
/// the sweep runner and the CLI `--app` filter use.
pub fn applications(scale: Scale) -> Vec<Box<dyn App>> {
    registry::paper_suite(scale)
}

/// **Table 3** — application characteristics: language, size,
/// sequential time at 33 MHz.
pub fn table3(h: Harness) -> Table {
    let mut t = Table::new(&["Name", "Language", "Size", "Sequential"]);
    for app in applications(h.scale) {
        let seq = sequential_cycles(app.as_ref());
        t.row_owned(vec![
            app.name().to_string(),
            app.language().to_string(),
            app.size_description(),
            format!("{:.2} sec", seq as f64 / 33.0e6),
        ]);
    }
    t
}

/// **Figure 2** — WORKER run-time ratio to full-map vs worker-set
/// size, 16 nodes, across the protocol spectrum including the three
/// one-pointer variants.
pub fn fig2(h: Harness) -> Table {
    let nodes = 16;
    let sizes: &[usize] = match h.scale {
        Scale::Quick => &[1, 2, 4, 8, 12, 16],
        Scale::Paper => &[1, 2, 4, 6, 8, 10, 12, 14, 16],
    };
    let mut headers = vec!["Protocol".to_string()];
    headers.extend(sizes.iter().map(|s| format!("ws={s}")));
    let mut t = Table::new(&headers.iter().map(|s| s.as_str()).collect::<Vec<_>>());

    // Full-map baseline per size.
    let base: Vec<u64> = sizes
        .iter()
        .map(|&s| {
            run_app(
                &Worker::fig2(s),
                worker_cfg(nodes, ProtocolSpec::full_map(), HandlerImpl::FlexibleC),
            )
            .cycles
            .as_u64()
        })
        .collect();

    for (label, p) in fig2_protocols() {
        let mut row = vec![label.to_string()];
        for (i, &s) in sizes.iter().enumerate() {
            let cycles = run_app(
                &Worker::fig2(s),
                worker_cfg(nodes, p, HandlerImpl::FlexibleC),
            )
            .cycles
            .as_u64();
            row.push(fmt_f64(cycles as f64 / base[i] as f64, 2));
        }
        t.row_owned(row);
    }
    t
}

/// **Figure 3** — TSP detailed performance: base, perfect-ifetch and
/// victim-cache configurations across the spectrum (speedups over the
/// sequential baseline of the same cache configuration).
pub fn fig3(h: Harness) -> Table {
    let nodes = h.nodes(64);
    let app = registry::build_str("tsp", h.scale).expect("registry knows tsp");
    let mut t = Table::new(&["HW ptrs", "base", "perfect ifetch", "victim cache"]);
    let seq = sequential_cycles(app.as_ref());
    for (label, p) in fig4_spectrum() {
        let mut row = vec![label.to_string()];
        for mode in 0..3 {
            let mut b = MachineConfig::builder().nodes(nodes).protocol(p);
            b = match mode {
                0 => b,
                1 => b.perfect_ifetch(true),
                _ => b.victim_cache(true),
            };
            let cycles = run_app(app.as_ref(), b.build()).cycles.as_u64();
            row.push(fmt_f64(seq as f64 / cycles as f64, 1));
        }
        t.row_owned(row);
    }
    t
}

/// **Figure 4** — speedups over sequential for the six applications on
/// a 64-node machine (victim caching enabled), across the spectrum.
pub fn fig4(h: Harness) -> Table {
    let nodes = h.nodes(64);
    let apps = applications(h.scale);
    let mut headers = vec!["HW ptrs".to_string()];
    headers.extend(apps.iter().map(|a| a.name().to_string()));
    let mut t = Table::new(&headers.iter().map(|s| s.as_str()).collect::<Vec<_>>());
    let seq: Vec<u64> = apps.iter().map(|a| sequential_cycles(a.as_ref())).collect();
    for (label, p) in fig4_spectrum() {
        let mut row = vec![label.to_string()];
        for (i, app) in apps.iter().enumerate() {
            let cycles = run_app(app.as_ref(), crate::cfg(nodes, p)).cycles.as_u64();
            row.push(fmt_f64(seq[i] as f64 / cycles as f64, 1));
        }
        t.row_owned(row);
    }
    t
}

/// **Figure 5** — TSP on a 256-node machine with victim caching.
pub fn fig5(h: Harness) -> Table {
    let nodes = h.nodes(256);
    let app = registry::build_str("tsp", h.scale).expect("registry knows tsp");
    let seq = sequential_cycles(app.as_ref());
    let mut t = Table::new(&["HW ptrs", "speedup"]);
    for (label, p) in fig4_spectrum() {
        let cycles = run_app(app.as_ref(), crate::cfg(nodes, p)).cycles.as_u64();
        t.row_owned(vec![
            label.to_string(),
            fmt_f64(seq as f64 / cycles as f64, 1),
        ]);
    }
    t
}

/// **Figure 6** — histogram of EVOLVE worker-set sizes on a 64-node
/// machine.
pub fn fig6(h: Harness) -> Table {
    let nodes = h.nodes(64);
    let app = registry::build_str("evolve", h.scale).expect("registry knows evolve");
    let mut m = limitless_machine::Machine::new(
        MachineConfig::builder()
            .nodes(nodes)
            .protocol(ProtocolSpec::full_map())
            .victim_cache(true)
            .track_worker_sets(true)
            .build(),
    );
    for (a, v) in app.init_memory() {
        m.poke(a, v);
    }
    m.load(app.programs(nodes));
    let report = m.run();
    let hist = report.stats.worker_sets.expect("tracking enabled");
    let mut t = Table::new(&["Worker-set size", "Count", "log10"]);
    for (size, count) in hist.iter() {
        t.row_owned(vec![
            size.to_string(),
            count.to_string(),
            fmt_f64((count as f64).log10(), 2),
        ]);
    }
    t
}

/// **Ablation** — the one-bit local pointer: the paper reports it buys
/// only ~2 % but simplifies the protocol. Measured on WORKER and
/// SMGRID.
pub fn ablation_localbit(h: Harness) -> Table {
    let nodes = 16;
    let mut t = Table::new(&["Workload", "with local bit", "without", "delta %"]);
    let apps: Vec<(String, Box<dyn App>)> = vec![
        ("WORKER ws=4".into(), Box::new(Worker::fig2(4))),
        ("SMGRID".into(), Box::new(Smgrid::new(h.scale))),
    ];
    for (name, app) in apps {
        let with = run_app(app.as_ref(), crate::cfg(nodes, ProtocolSpec::limitless(5)))
            .cycles
            .as_u64();
        let spec_off = ProtocolSpec {
            local_bit: false,
            ..ProtocolSpec::limitless(5)
        };
        let without = run_app(app.as_ref(), crate::cfg(nodes, spec_off))
            .cycles
            .as_u64();
        let delta = (without as f64 - with as f64) / with as f64 * 100.0;
        t.row_owned(vec![
            name,
            with.to_string(),
            without.to_string(),
            fmt_f64(delta, 2),
        ]);
    }
    t
}

/// **Ablation** — the flexibility cost: end-to-end run time of the C
/// (flexible-interface) vs assembly (hand-tuned) handlers (paper §4.2).
pub fn ablation_handlers(h: Harness) -> Table {
    let nodes = 16;
    let mut t = Table::new(&["Worker set", "C cycles", "Asm cycles", "C/Asm"]);
    let sizes: &[usize] = match h.scale {
        Scale::Quick => &[8, 16],
        Scale::Paper => &[4, 8, 12, 16],
    };
    for &s in sizes {
        let app = Worker::fig2(s);
        let c = run_app(
            &app,
            worker_cfg(nodes, ProtocolSpec::limitless(5), HandlerImpl::FlexibleC),
        )
        .cycles
        .as_u64();
        let asm = run_app(
            &app,
            worker_cfg(nodes, ProtocolSpec::limitless(5), HandlerImpl::TunedAsm),
        )
        .cycles
        .as_u64();
        t.row_owned(vec![
            s.to_string(),
            c.to_string(),
            asm.to_string(),
            fmt_f64(c as f64 / asm as f64, 2),
        ]);
    }
    t
}

/// **Ablation** — network-latency sensitivity: as the mesh slows down,
/// remote misses dominate and the software-extension penalty shrinks
/// relative to full-map (the "cost and mapping of DRAM become more
/// important factors than performance" observation of §8, seen from
/// the network side).
pub fn ablation_network(_h: Harness) -> Table {
    use limitless_net::NetConfig;
    let app = Worker::fig2(8);
    let mut t = Table::new(&["hop cycles", "DirnH1SNB,LACK / full", "DirnH5SNB / full"]);
    for hop in [1u64, 4, 16] {
        let run = |p: ProtocolSpec| {
            let cfg = MachineConfig::builder()
                .nodes(16)
                .protocol(p)
                .victim_cache(true)
                .net(NetConfig {
                    hop_cycles: hop,
                    ..NetConfig::default()
                })
                .build();
            run_app(&app, cfg).cycles.as_u64()
        };
        let full = run(ProtocolSpec::full_map());
        let one = run(ProtocolSpec::one_ptr_lack());
        let five = run(ProtocolSpec::limitless(5));
        t.row_owned(vec![
            hop.to_string(),
            fmt_f64(one as f64 / full as f64, 2),
            fmt_f64(five as f64 / full as f64, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Harness {
        Harness {
            scale: Scale::Quick,
            nodes_override: Some(8),
            shards: 1,
        }
    }

    #[test]
    fn table1_magnitudes_match_paper() {
        let t = table1(quick());
        let s = t.render();
        assert!(s.contains("8"), "{s}");
        // C read traps should land in the hundreds of cycles.
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn table2_contains_every_activity_row() {
        let t = table2(quick());
        let s = t.render();
        assert!(s.contains("trap dispatch"));
        assert!(s.contains("invalidation lookup and transmit"));
        assert!(s.contains("total (median latency)"));
    }

    #[test]
    fn fig2_full_map_row_is_unity() {
        let t = fig2(Harness {
            scale: Scale::Quick,
            nodes_override: None,
            shards: 1,
        });
        let s = t.render();
        let full_map_line = s
            .lines()
            .find(|l| l.contains("DirnHNBS-"))
            .expect("full-map row");
        assert!(full_map_line.contains("1.00"), "{full_map_line}");
    }
}
