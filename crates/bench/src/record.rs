//! The perf-trajectory ledger: `BENCH_sweep.json` at the repo root.
//!
//! Each entry is one labelled measurement of the full sweep —
//! min-of-N wall clock, aggregate throughput, and the per-cell
//! breakdown — so future PRs can compare against a committed
//! baseline instead of re-deriving one. Writing a record with an
//! existing label replaces it (re-measuring a PR updates its row);
//! new labels append, preserving the history.

use limitless_stats::{JsonError, JsonValue};

use crate::runner::ExperimentResult;

/// One cell's contribution to a sweep record.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// Protocol label (series).
    pub protocol: String,
    /// Application label (point).
    pub app: String,
    /// Simulated cycles (bit-exact across hosts).
    pub cycles: u64,
    /// Simulation events processed.
    pub events: u64,
    /// Software-extension traps taken (0 in full-map cells, and in
    /// records written before the scaling ladder stamped trap data).
    pub traps: u64,
    /// Operations that required a protocol transaction; `traps /
    /// misses` is the share of directory traffic that overflowed the
    /// hardware pointers into software (0 = unknown in old
    /// records).
    pub misses: u64,
    /// Min-of-N host wall seconds for this cell.
    pub wall_seconds: f64,
}

/// One labelled sweep measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRecord {
    /// Record label, e.g. `pr1-baseline` or `pr2-ladder`.
    pub label: String,
    /// How many full runs the per-cell min was taken over.
    pub min_of: u32,
    /// Event-lane count the sweep ran with (1 = serial engine;
    /// records written before the sharded engine existed parse as 1).
    pub shards: usize,
    /// Machine node count every cell ran at (0 = unknown: the record
    /// predates the field). Scaling-rung records (256/512/1024-node
    /// sweeps) are not throughput-comparable with default-sized ones,
    /// so the size is stamped into the ledger.
    pub nodes: usize,
    /// `available_parallelism` of the recording host (0 = unknown:
    /// the record predates host metadata). Sharded wall clock is only
    /// comparable between hosts with the same core budget.
    pub host_cores: usize,
    /// Worker threads the engine actually ran (lanes are multiplexed
    /// onto at most `host_cores` threads; 0 = unknown).
    pub host_threads: usize,
    /// Total host wall seconds (sum of per-cell minima).
    pub wall_seconds: f64,
    /// Total simulation events across all cells.
    pub events: u64,
    /// Aggregate events per wall second.
    pub events_per_sec: f64,
    /// Aggregate simulated cycles per wall second.
    pub sim_cycles_per_sec: f64,
    /// Per-cell breakdown (may be empty for hand-entered baselines).
    pub cells: Vec<CellRecord>,
    /// Median ns/iter per micro benchmark (name → median), captured
    /// alongside the sweep so the CI perf gate has a committed
    /// baseline. Empty in records written before the gate existed.
    pub micro_median_ns: Vec<(String, u64)>,
}

impl SweepRecord {
    /// Builds a record from a completed (usually min-of-N) run,
    /// stamping the host's parallelism so sharded records from
    /// differently sized hosts are never silently compared.
    pub fn from_result(label: &str, r: &ExperimentResult) -> Self {
        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        SweepRecord {
            label: label.to_string(),
            min_of: r.min_of,
            shards: r.shards,
            nodes: r.nodes,
            host_cores,
            host_threads: r.shards.max(1).min(host_cores),
            wall_seconds: r.total_wall_seconds(),
            events: r.total_events(),
            events_per_sec: r.events_per_sec(),
            sim_cycles_per_sec: r.sim_cycles_per_sec(),
            cells: r
                .cells
                .iter()
                .map(|c| CellRecord {
                    protocol: c.protocol.clone(),
                    app: c.app.clone(),
                    cycles: c.report.cycles.as_u64(),
                    events: c.report.events,
                    traps: c.report.stats.engine.traps,
                    misses: c.report.stats.misses,
                    wall_seconds: c.report.wall_seconds,
                })
                .collect(),
            micro_median_ns: Vec::new(),
        }
    }

    fn to_json_value(&self) -> JsonValue {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                JsonValue::Obj(vec![
                    ("protocol".into(), JsonValue::Str(c.protocol.clone())),
                    ("app".into(), JsonValue::Str(c.app.clone())),
                    ("cycles".into(), JsonValue::from_u64(c.cycles)),
                    ("events".into(), JsonValue::from_u64(c.events)),
                    ("traps".into(), JsonValue::from_u64(c.traps)),
                    ("misses".into(), JsonValue::from_u64(c.misses)),
                    ("wall_seconds".into(), JsonValue::from_f64(c.wall_seconds)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("label".into(), JsonValue::Str(self.label.clone())),
            ("min_of".into(), JsonValue::from_u64(u64::from(self.min_of))),
            ("shards".into(), JsonValue::from_u64(self.shards as u64)),
            ("nodes".into(), JsonValue::from_u64(self.nodes as u64)),
            (
                "host_cores".into(),
                JsonValue::from_u64(self.host_cores as u64),
            ),
            (
                "host_threads".into(),
                JsonValue::from_u64(self.host_threads as u64),
            ),
            (
                "wall_seconds".into(),
                JsonValue::from_f64(self.wall_seconds),
            ),
            ("events".into(), JsonValue::from_u64(self.events)),
            (
                "events_per_sec".into(),
                JsonValue::from_f64(self.events_per_sec),
            ),
            (
                "sim_cycles_per_sec".into(),
                JsonValue::from_f64(self.sim_cycles_per_sec),
            ),
            ("cells".into(), JsonValue::Arr(cells)),
            (
                "micro_median_ns".into(),
                JsonValue::Obj(
                    self.micro_median_ns
                        .iter()
                        .map(|(name, ns)| (name.clone(), JsonValue::from_u64(*ns)))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json_value(v: &JsonValue) -> Result<Self, JsonError> {
        let cells = v
            .get("cells")?
            .as_arr()?
            .iter()
            .map(|c| {
                Ok(CellRecord {
                    protocol: c.get("protocol")?.as_str()?.to_string(),
                    app: c.get("app")?.as_str()?.to_string(),
                    cycles: c.get("cycles")?.as_u64()?,
                    events: c.get("events")?.as_u64()?,
                    // Absent in records that predate trap stamping.
                    traps: c
                        .get("traps")
                        .ok()
                        .and_then(|t| t.as_u64().ok())
                        .unwrap_or(0),
                    misses: c
                        .get("misses")
                        .ok()
                        .and_then(|t| t.as_u64().ok())
                        .unwrap_or(0),
                    wall_seconds: c.get("wall_seconds")?.as_f64()?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        Ok(SweepRecord {
            label: v.get("label")?.as_str()?.to_string(),
            min_of: u32::try_from(v.get("min_of")?.as_u64()?)
                .map_err(|_| JsonError::new("min_of out of range"))?,
            // Absent in pre-sharded-engine records: those were serial.
            shards: v
                .get("shards")
                .ok()
                .and_then(|s| s.as_u64().ok())
                .map_or(1, |s| s as usize),
            // Absent in records that predate the scaling ladder:
            // unknown machine size.
            nodes: v
                .get("nodes")
                .ok()
                .and_then(|s| s.as_u64().ok())
                .map_or(0, |s| s as usize),
            // Absent in records that predate host metadata: unknown.
            host_cores: v
                .get("host_cores")
                .ok()
                .and_then(|s| s.as_u64().ok())
                .map_or(0, |s| s as usize),
            host_threads: v
                .get("host_threads")
                .ok()
                .and_then(|s| s.as_u64().ok())
                .map_or(0, |s| s as usize),
            wall_seconds: v.get("wall_seconds")?.as_f64()?,
            events: v.get("events")?.as_u64()?,
            events_per_sec: v.get("events_per_sec")?.as_f64()?,
            sim_cycles_per_sec: v.get("sim_cycles_per_sec")?.as_f64()?,
            cells,
            // Absent in records that predate the CI perf gate.
            micro_median_ns: match v.get("micro_median_ns") {
                Ok(JsonValue::Obj(entries)) => entries
                    .iter()
                    .map(|(name, ns)| Ok((name.clone(), ns.as_u64()?)))
                    .collect::<Result<Vec<_>, JsonError>>()?,
                _ => Vec::new(),
            },
        })
    }
}

/// The whole ledger: every labelled record, in file order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchLedger {
    /// Labelled sweep records.
    pub records: Vec<SweepRecord>,
}

impl BenchLedger {
    /// Loads a ledger from `path`; a missing file is an empty ledger
    /// (first measurement on a fresh checkout). This is the *writer's*
    /// load — `sweep --record` starting a fresh ledger is routine.
    /// Readers that need a baseline to exist (the perf gate) must use
    /// [`BenchLedger::load_existing`] instead, so a typo'd path fails
    /// loudly rather than comparing against an empty ledger.
    ///
    /// # Errors
    ///
    /// Returns an error if the file exists but is malformed.
    pub fn load(path: &str) -> Result<Self, JsonError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::from_json(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::default()),
            Err(e) => Err(JsonError::new(format!("cannot read {path}: {e}"))),
        }
    }

    /// Loads a ledger from `path`, treating a missing file as an
    /// error — the read-side counterpart of [`BenchLedger::load`] for
    /// callers (like `perfgate`) whose job is meaningless without a
    /// baseline: `perfgate --json typo.json` must exit red, not
    /// silently pass against an empty ledger.
    ///
    /// # Errors
    ///
    /// Returns an error if the file is missing, unreadable, or
    /// malformed.
    pub fn load_existing(path: &str) -> Result<Self, JsonError> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::from_json(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(JsonError::new(format!(
                "baseline ledger {path} does not exist (wrong --json path, or no baseline recorded yet?)"
            ))),
            Err(e) => Err(JsonError::new(format!("cannot read {path}: {e}"))),
        }
    }

    /// Inserts `record`, replacing any existing record with the same
    /// label (in place, keeping its position).
    pub fn upsert(&mut self, record: SweepRecord) {
        match self.records.iter_mut().find(|r| r.label == record.label) {
            Some(slot) => *slot = record,
            None => self.records.push(record),
        }
    }

    /// Looks up a record by label.
    pub fn get(&self, label: &str) -> Option<&SweepRecord> {
        self.records.iter().find(|r| r.label == label)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        JsonValue::Obj(vec![(
            "records".into(),
            JsonValue::Arr(
                self.records
                    .iter()
                    .map(SweepRecord::to_json_value)
                    .collect(),
            ),
        )])
        .pretty()
    }

    /// Parses a previously written ledger.
    ///
    /// # Errors
    ///
    /// Returns an error on malformed JSON.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let doc = JsonValue::parse(s)?;
        let records = doc
            .get("records")?
            .as_arr()?
            .iter()
            .map(SweepRecord::from_json_value)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchLedger { records })
    }

    /// Writes the ledger to `path`.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be written.
    pub fn save(&self, path: &str) -> std::io::Result<()> {
        let mut text = self.to_json();
        text.push('\n');
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(label: &str, wall: f64) -> SweepRecord {
        SweepRecord {
            label: label.to_string(),
            min_of: 5,
            shards: 1,
            nodes: 64,
            host_cores: 8,
            host_threads: 1,
            wall_seconds: wall,
            events: 1000,
            events_per_sec: 1000.0 / wall,
            sim_cycles_per_sec: 2000.0 / wall,
            cells: vec![CellRecord {
                protocol: "full-map".into(),
                app: "ws=1".into(),
                cycles: 2000,
                events: 1000,
                traps: 40,
                misses: 200,
                wall_seconds: wall,
            }],
            micro_median_ns: vec![("event_queue".into(), 1234)],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let mut ledger = BenchLedger::default();
        ledger.upsert(rec("pr1-baseline", 0.2));
        ledger.upsert(rec("pr2-ladder", 0.1));
        let back = BenchLedger::from_json(&ledger.to_json()).unwrap();
        assert_eq!(back, ledger);
    }

    #[test]
    fn upsert_replaces_by_label_in_place() {
        let mut ledger = BenchLedger::default();
        ledger.upsert(rec("a", 0.3));
        ledger.upsert(rec("b", 0.2));
        ledger.upsert(rec("a", 0.1));
        assert_eq!(ledger.records.len(), 2);
        assert_eq!(ledger.records[0].label, "a");
        assert_eq!(ledger.records[0].wall_seconds, 0.1);
        assert_eq!(ledger.records[1].label, "b");
    }

    #[test]
    fn empty_cells_tolerated_for_hand_entered_baselines() {
        let mut r = rec("pr1-baseline", 0.187);
        r.cells.clear();
        let mut ledger = BenchLedger::default();
        ledger.upsert(r);
        let back = BenchLedger::from_json(&ledger.to_json()).unwrap();
        assert!(back.get("pr1-baseline").unwrap().cells.is_empty());
    }

    #[test]
    fn records_without_shards_parse_as_serial() {
        // Ledgers written before the sharded engine existed have no
        // `shards` key; they were all serial-engine measurements.
        let text = r#"{"records": [{"label": "old", "min_of": 5,
            "wall_seconds": 0.2, "events": 1000,
            "events_per_sec": 5000.0, "sim_cycles_per_sec": 10000.0,
            "cells": []}]}"#;
        let ledger = BenchLedger::from_json(text).unwrap();
        assert_eq!(ledger.get("old").unwrap().shards, 1);
    }

    #[test]
    fn records_without_nodes_parse_as_unknown_size() {
        // Ledgers written before the scaling ladder carry no machine
        // size; 0 marks them unknown so `perfgate` can warn instead of
        // comparing a 1024-node rung against a 64-node baseline.
        let text = r#"{"records": [{"label": "old", "min_of": 5,
            "shards": 1, "wall_seconds": 0.2, "events": 1000,
            "events_per_sec": 5000.0, "sim_cycles_per_sec": 10000.0,
            "cells": [{"protocol": "full-map", "app": "ws=1",
                       "cycles": 2000, "events": 1000,
                       "wall_seconds": 0.2}]}]}"#;
        let ledger = BenchLedger::from_json(text).unwrap();
        let old = ledger.get("old").unwrap();
        assert_eq!(old.nodes, 0);
        // Pre-ladder cells carry no trap data either.
        assert_eq!((old.cells[0].traps, old.cells[0].misses), (0, 0));
        // And a fresh record round-trips the real size.
        let mut out = BenchLedger::default();
        out.upsert(rec("new", 0.1));
        let back = BenchLedger::from_json(&out.to_json()).unwrap();
        assert_eq!(back.get("new").unwrap().nodes, 64);
    }

    #[test]
    fn records_without_host_metadata_parse_as_unknown() {
        // Ledgers written before host metadata existed carry no core
        // counts; 0 marks them unknown so the gate can refuse to
        // compare sharded wall clock across them.
        let text = r#"{"records": [{"label": "old", "min_of": 5,
            "shards": 2, "wall_seconds": 0.2, "events": 1000,
            "events_per_sec": 5000.0, "sim_cycles_per_sec": 10000.0,
            "cells": []}]}"#;
        let ledger = BenchLedger::from_json(text).unwrap();
        let r = ledger.get("old").unwrap();
        assert_eq!((r.host_cores, r.host_threads), (0, 0));
    }

    #[test]
    fn host_metadata_round_trips_and_is_stamped_by_from_result() {
        let mut ledger = BenchLedger::default();
        let mut r = rec("meta", 0.2);
        r.shards = 4;
        r.host_cores = 16;
        r.host_threads = 4;
        ledger.upsert(r.clone());
        let back = BenchLedger::from_json(&ledger.to_json()).unwrap();
        assert_eq!(back.get("meta").unwrap(), &r);
    }

    #[test]
    fn missing_file_loads_as_empty() {
        let ledger = BenchLedger::load("/nonexistent/BENCH_sweep.json").unwrap();
        assert!(ledger.records.is_empty());
    }

    #[test]
    fn load_existing_rejects_missing_file() {
        let err = BenchLedger::load_existing("/nonexistent/BENCH_sweep.json")
            .expect_err("a missing baseline must not read as empty");
        let msg = err.to_string();
        assert!(msg.contains("does not exist"), "got: {msg}");
        assert!(msg.contains("/nonexistent/BENCH_sweep.json"), "got: {msg}");
    }

    #[test]
    fn load_existing_reads_a_real_ledger() {
        let mut ledger = BenchLedger::default();
        ledger.upsert(rec("pr1-baseline", 0.2));
        let path = std::env::temp_dir().join("limitless_load_existing_test.json");
        let path = path.to_str().unwrap().to_string();
        ledger.save(&path).unwrap();
        let back = BenchLedger::load_existing(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, ledger);
    }
}
