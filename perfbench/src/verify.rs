//! Per-cell correctness: every cell of every pass is checked, and every
//! mismatch is counted as a failed cell.
//!
//! A cell fails when it panics, when its app's expected results
//! mismatch, when the oracle reports a divergence, when its
//! `(cycles, events, traps, misses)` differ from the pinned reference
//! (or, on a seed with no pinned reference, from the first pass), or
//! when a `lanes-1024` cell differs from the serial run of the same
//! cell. A failure is *known* when it is exactly the divergence the
//! reference pins for that cell; known failures still count.

use std::collections::BTreeMap;

use crate::workload::{CellData, Outcome, Pass, Role};

/// The pinned reference, `workload<TAB>cell<TAB>cycles<TAB>events<TAB>
/// traps<TAB>misses<TAB>verdict` per line.
pub const PINNED: &str = include_str!("../reference.tsv");

/// What a cell is expected to produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expect {
    /// `(cycles, events, traps, misses)`.
    pub key: [u64; 4],
    /// The oracle divergence this cell is known to show, if any.
    pub divergence: Option<String>,
}

/// One failed cell of one pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// Pass index (0-based).
    pub pass: usize,
    /// Cell label.
    pub label: String,
    /// Every problem found, joined.
    pub message: String,
    /// Whether every problem is a divergence the reference pins.
    pub known: bool,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tag = if self.known { "known" } else { "NEW" };
        write!(
            f,
            "FAILED ({tag}) pass {} cell {}: {}",
            self.pass, self.label, self.message
        )
    }
}

/// Parses the pinned rows of `workload`. `lanes-1024` is checked
/// against `overflow-1024`'s rows: its cells must be bit-identical.
pub fn parse_reference(text: &str, workload: &str) -> Result<BTreeMap<String, Expect>, String> {
    let wanted = if workload == "lanes-1024" {
        "overflow-1024"
    } else {
        workload
    };
    let mut rows = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let [name, label, c, e, t, m, verdict] = f[..] else {
            return Err(format!("reference line {}: expected 7 fields", n + 1));
        };
        if name != wanted {
            continue;
        }
        let num = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("reference line {}: bad number {s:?}", n + 1))
        };
        let divergence = match verdict {
            "ok" => None,
            d => Some(d.to_string()),
        };
        let expect = Expect {
            key: [num(c)?, num(e)?, num(t)?, num(m)?],
            divergence,
        };
        if rows.insert(label.to_string(), expect).is_some() {
            return Err(format!("reference line {}: duplicate cell {label}", n + 1));
        }
    }
    Ok(rows)
}

/// Renders one reference row for a cell.
pub fn reference_row(workload: &str, label: &str, data: &CellData) -> String {
    let [c, e, t, m] = data.key();
    let verdict = data.divergence.as_deref().unwrap_or("ok");
    format!("{workload}\t{label}\t{c}\t{e}\t{t}\t{m}\t{verdict}")
}

/// Checks passes against the pinned reference, or — for cells it does
/// not pin — against the first pass (determinism across repeats).
#[derive(Debug)]
pub struct Verifier {
    pinned: BTreeMap<String, Expect>,
    first: BTreeMap<String, Expect>,
}

impl Verifier {
    /// A verifier over pinned rows.
    pub fn new(pinned: BTreeMap<String, Expect>) -> Self {
        Verifier {
            pinned,
            first: BTreeMap::new(),
        }
    }

    /// Whether `label` has a pinned reference.
    pub fn is_pinned(&self, label: &str) -> bool {
        self.pinned.contains_key(label)
    }

    /// Checks every cell of `pass` and returns the failed ones. A
    /// failed ground-truth run fails every oracle cell of its group,
    /// since none of them can be verified.
    pub fn check_pass(&mut self, index: usize, pass: &Pass) -> Vec<Failure> {
        let mut failures = Vec::new();
        for group in &pass.groups {
            let mut truth_problems: Vec<(String, bool)> = Vec::new();
            for o in group {
                let mut problems = self.check_cell(o);
                if o.role == Role::Truth {
                    truth_problems = problems
                        .into_iter()
                        .map(|(p, _)| (format!("ground truth {}: {p}", o.label), false))
                        .collect();
                    continue;
                }
                if o.role == Role::Candidate {
                    problems.extend(truth_problems.iter().cloned());
                }
                if !problems.is_empty() {
                    failures.push(Failure {
                        pass: index,
                        label: o.label.clone(),
                        known: problems.iter().all(|(_, known)| *known),
                        message: problems
                            .into_iter()
                            .map(|(p, _)| p)
                            .collect::<Vec<_>>()
                            .join("; "),
                    });
                }
            }
        }
        failures
    }

    /// `(problem, known)` for one outcome.
    fn check_cell(&mut self, o: &Outcome) -> Vec<(String, bool)> {
        let data = match &o.result {
            Ok(data) => data,
            Err(panic) => return vec![(format!("panicked: {panic}"), false)],
        };
        let mut problems: Vec<(String, bool)> =
            data.problems.iter().map(|p| (p.clone(), false)).collect();
        // Only a divergence the reference pins is known; one the first
        // pass showed is new on every pass.
        let (expect, source, pinned) = match self.pinned.get(&o.label) {
            Some(e) => (e, "pinned reference", true),
            None => match self.first.get(&o.label) {
                Some(e) => (e, "first pass", false),
                None => {
                    self.first.insert(
                        o.label.clone(),
                        Expect {
                            key: data.key(),
                            divergence: data.divergence.clone(),
                        },
                    );
                    if let Some(d) = &data.divergence {
                        problems.push((format!("oracle divergence: {d}"), false));
                    }
                    return problems;
                }
            },
        };
        if data.key() != expect.key {
            problems.push((
                format!(
                    "(cycles, events, traps, misses) = {:?}, {source} has {:?}",
                    data.key(),
                    expect.key
                ),
                false,
            ));
        }
        match (&data.divergence, &expect.divergence) {
            (Some(d), known) => problems.push((
                format!("oracle divergence: {d}"),
                pinned && known.as_ref() == Some(d),
            )),
            (None, Some(known)) => problems.push((
                format!("the {source}'s divergence no longer reproduces: {known}"),
                false,
            )),
            (None, None) => {}
        }
        problems
    }
}

/// Compares each `lanes` cell with the serial run of the same cell:
/// cycles, events and every statistic must be bit-identical.
pub fn compare_with_serial(
    index: usize,
    lanes: &[(String, CellData)],
    serial: &BTreeMap<String, CellData>,
) -> Vec<Failure> {
    let mut failures = Vec::new();
    for (label, cell) in lanes {
        let message = match serial.get(label) {
            None => "no serial run of this cell completed".to_string(),
            Some(s) if s.key() != cell.key() => format!(
                "2 lanes gave (cycles, events, traps, misses) = {:?}, serial {:?}",
                cell.key(),
                s.key()
            ),
            Some(s) if s.stats != cell.stats => "statistics differ from the serial run".to_string(),
            Some(_) => continue,
        };
        failures.push(Failure {
            pass: index,
            label: label.clone(),
            message,
            known: false,
        });
    }
    failures
}

/// Failed cells: distinct `(pass, label)` pairs.
pub fn failed_cells(failures: &[Failure]) -> usize {
    let mut cells: Vec<(usize, &str)> = failures
        .iter()
        .map(|f| (f.pass, f.label.as_str()))
        .collect();
    cells.sort_unstable();
    cells.dedup();
    cells.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run_pass, tests::tiny};

    fn pinned_from(pass: &Pass) -> BTreeMap<String, Expect> {
        let text: Vec<String> = pass
            .outcomes()
            .map(|o| reference_row("tiny", &o.label, o.result.as_ref().unwrap()))
            .collect();
        parse_reference(&text.join("\n"), "tiny").unwrap()
    }

    #[test]
    fn the_shipped_reference_parses() {
        for w in crate::workload::NAMES {
            parse_reference(PINNED, w).unwrap();
        }
        assert_eq!(parse_reference(PINNED, "paper-grid").unwrap().len(), 42);
        assert_eq!(parse_reference(PINNED, "oracle-paper").unwrap().len(), 60);
    }

    #[test]
    fn a_matching_reference_passes() {
        let pass = run_pass(&tiny());
        let mut v = Verifier::new(pinned_from(&pass));
        assert!(v.is_pinned(&pass.groups[0][0].label));
        assert_eq!(v.check_pass(0, &pass), vec![]);
    }

    #[test]
    fn a_wrong_pinned_reference_fails_the_cell() {
        let pass = run_pass(&tiny());
        let mut pinned = pinned_from(&pass);
        let label = pass.groups[1][0].label.clone();
        pinned.get_mut(&label).unwrap().key[0] += 1;
        let failures = Verifier::new(pinned).check_pass(3, &pass);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert_eq!((failures[0].pass, &failures[0].label), (3, &label));
        assert!(!failures[0].known);
        assert!(failures[0].message.contains("pinned reference"));
    }

    #[test]
    fn unpinned_cells_are_held_to_the_first_pass() {
        let pass = run_pass(&tiny());
        let mut v = Verifier::new(BTreeMap::new());
        assert_eq!(v.check_pass(0, &pass), vec![]);
        let mut again = run_pass(&tiny());
        assert_eq!(v.check_pass(1, &again), vec![], "deterministic");
        if let Ok(d) = &mut again.groups[0][0].result {
            d.events += 1;
        }
        let failures = v.check_pass(2, &again);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].message.contains("first pass"), "{failures:?}");
        // A divergence without a pinned row is new on every pass.
        let mut v = Verifier::new(BTreeMap::new());
        if let Ok(d) = &mut again.groups[1][0].result {
            d.divergence = Some("read diverges".to_string());
        }
        for index in 0..2 {
            let failures = v.check_pass(index, &again);
            assert!(failures.iter().any(|f| f.label == again.groups[1][0].label));
            assert!(failures.iter().all(|f| !f.known), "{failures:?}");
        }
    }

    #[test]
    fn a_known_divergence_still_counts_but_a_new_one_is_flagged() {
        let pass = run_pass(&tiny());
        let mut pinned = pinned_from(&pass);
        let mut diverged = run_pass(&tiny());
        for o in diverged.groups.iter_mut().flatten() {
            if let Ok(d) = &mut o.result {
                d.divergence = Some("node 0 read #3 diverges".to_string());
            }
        }
        let label = pass.groups[0][0].label.clone();
        pinned.get_mut(&label).unwrap().divergence = Some("node 0 read #3 diverges".into());
        let failures = Verifier::new(pinned).check_pass(0, &diverged);
        assert_eq!(failed_cells(&failures), 2);
        let known: Vec<bool> = failures.iter().map(|f| f.known).collect();
        assert_eq!(known, vec![true, false]);
        // A pinned divergence that stops reproducing is a mismatch too.
        let mut pinned = pinned_from(&pass);
        pinned.get_mut(&label).unwrap().divergence = Some("gone".into());
        let failures = Verifier::new(pinned).check_pass(0, &pass);
        assert_eq!(failures.len(), 1);
        assert!(!failures[0].known);
    }

    #[test]
    fn lanes_cells_must_match_the_serial_cells() {
        let pass = run_pass(&tiny());
        let cells: Vec<(String, CellData)> = pass
            .outcomes()
            .map(|o| (o.label.clone(), o.result.clone().unwrap()))
            .collect();
        let serial: BTreeMap<String, CellData> = cells.iter().cloned().collect();
        assert_eq!(compare_with_serial(0, &cells, &serial), vec![]);
        let mut off = serial.clone();
        off.get_mut(&cells[1].0).unwrap().stats.busy_retries += 1;
        let failures = compare_with_serial(4, &cells, &off);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].label, cells[1].0);
    }

    #[test]
    fn failed_cells_counts_each_cell_of_a_pass_once() {
        let f = |pass, label: &str| Failure {
            pass,
            label: label.into(),
            message: String::new(),
            known: false,
        };
        let failures = [f(0, "a"), f(0, "a"), f(0, "b"), f(1, "a")];
        assert_eq!(failed_cells(&failures), 3);
    }
}
