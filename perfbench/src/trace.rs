//! In-memory spans recorded around the benchmark's calls into the
//! simulator (workload → pass → cell → phase), written out as NDJSON
//! when the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index in the trace.
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// `workload`, `pass`, `cell`, or a phase name.
    pub name: &'static str,
    /// The cell this span belongs to (its label, with the pass index).
    pub cell: Option<(usize, String)>,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// `(cycles, events, traps, misses)` from the cell's `RunReport`.
    pub counts: Option<[u64; 4]>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one run.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    /// Every span, in the order recorded.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span and returns its id.
    pub fn add(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        cell: Option<(usize, String)>,
        start: Instant,
        end: Instant,
        counts: Option<[u64; 4]>,
    ) -> usize {
        let id = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            cell,
            start_ns,
            end_ns,
            counts,
        });
        id
    }

    /// Widens span `id` to end at `end` (a span opened before its end
    /// was known).
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    /// Writes one JSON object per span.
    pub fn write_ndjson(&self, out: &mut impl Write) -> std::io::Result<()> {
        let self_ns = self_times_ns(&self.spans);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let cell = s.cell.as_ref().map_or("null".to_string(), |(pass, label)| {
                format!("{{\"pass\":{pass},\"label\":{}}}", json_str(label))
            });
            let counts = s.counts.map_or("null".to_string(), |c| {
                format!(
                    "{{\"cycles\":{},\"events\":{},\"traps\":{},\"misses\":{}}}",
                    c[0], c[1], c[2], c[3]
                )
            });
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"cell\":{cell},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"counts\":{counts}}}",
                s.id, s.name, s.start_ns, s.end_ns, self_ns[s.id]
            )?;
        }
        out.flush()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Every span's self time: its duration minus the part of it that its
/// children cover (overlapping children count once; parts outside the
/// span are clipped).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(kids)
        .map(|(s, mut k)| {
            k.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in k {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            cell: None,
            start_ns,
            end_ns,
            counts: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),  // overlaps span 1
            span(3, Some(0), 90, 120), // runs past the parent
            span(4, Some(1), 12, 14),  // grandchild: not a child of 0
        ];
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns[0], 100 - (40 + 10));
        assert_eq!(self_ns[1], 18);
        assert_eq!(self_ns[4], 2);
    }

    #[test]
    fn contained_and_adjacent_children_are_counted_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 60),
            span(2, Some(0), 10, 20),
            span(3, Some(0), 60, 100),
        ];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn spans_serialise_one_object_per_line() {
        let t0 = Instant::now();
        let mut t = Trace::new(t0);
        let root = t.add(None, "pass", None, t0, t0, None);
        t.add(
            Some(root),
            "cell",
            Some((0, "tsp/\"x\"".into())),
            t0,
            t0,
            Some([1, 2, 3, 4]),
        );
        let mut out = Vec::new();
        t.write_ndjson(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"parent\":0"), "{}", lines[1]);
        assert!(lines[1].contains("tsp/\\\"x\\\""), "{}", lines[1]);
        assert!(lines[1].contains("\"misses\":4"), "{}", lines[1]);
    }
}
