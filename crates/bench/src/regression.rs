//! Bench regression gate: run a desk-scale workload under full tracing,
//! distill it into a [`BenchRecord`], and compare against a committed
//! baseline (`BENCH_fig6.json`, `BENCH_read.json`).
//!
//! Two workloads share the record and the gate:
//!
//! * `fig6` ([`run_fig6`]) — the paper's Fig. 6 write workload at every
//!   valid partition factor. Timings are `<config>/<phase>`: the
//!   *min-across-runs* of the *max-across-ranks* phase wall time (min-of-N
//!   absorbs scheduler noise; max-of-ranks is the job's critical path,
//!   matching how Fig. 6 reports time). The fingerprint is each
//!   configuration's traffic: bytes written, bytes sent, storage-op count.
//! * `read` ([`run_read_bench`]) — a seeded multi-client query workload
//!   served by [`QueryEngine`] over a fig6-scale dataset. Timings are the
//!   min-across-runs latency of the hot-spot box query on a fresh engine
//!   (`cold_box`: storage reads + decode) and of its identical repeat
//!   (`warm_box`: cache + filter). The fingerprint is the particle count of
//!   the dataset and of the box. The replay's cache hits and misses are
//!   kept as ungated info, since concurrent eviction order is not
//!   deterministic.
//!
//! `spio bench [--read] --baseline F` replays the workload and fails if any
//! timing regressed more than [`DEFAULT_THRESHOLD`] beyond [`SLACK_US`]. A
//! workload, shape or fingerprint mismatch is an error, not a regression:
//! the baseline describes a different workload and must be re-recorded.

use spio_comm::{run_threaded_collect, Comm, TracedComm};
use spio_core::{DatasetReader, MemStorage, SpatialWriter, TracedStorage, WriterConfig};
use spio_serve::{hot_spot, replay, Query, QueryEngine, ServeConfig, WorkloadSpec};
use spio_trace::{JobReport, Trace, TraceSnapshot};
use spio_types::{Aabb3, DomainDecomposition, PartitionFactor, SpioError};
use spio_util::Json;
use std::collections::BTreeSet;

/// Relative slowdown tolerated before a timing counts as regressed.
pub const DEFAULT_THRESHOLD: f64 = 0.20;

/// Absolute slack (µs) added on top of the relative threshold. Desk-scale
/// phases run single-digit milliseconds and thread-scheduling noise on a
/// shared machine is bimodal at that scale, so the slack must cover a full
/// scheduling hiccup; the relative threshold carries the gate once phases
/// are long enough to measure honestly.
pub const SLACK_US: u64 = 20_000;

/// How to run a bench workload.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Thread-runtime writer ranks.
    pub procs: usize,
    /// Particles per rank.
    pub per_rank: usize,
    /// Repetitions; timings keep the minimum.
    pub runs: usize,
    /// Concurrent clients in the read workload's replay.
    pub clients: usize,
    /// Queries each replay client issues.
    pub queries_per_client: usize,
    /// Particle and query seed.
    pub seed: u64,
}

impl BenchConfig {
    /// The settings `BENCH_fig6.json` was recorded with.
    pub fn fig6() -> BenchConfig {
        BenchConfig {
            procs: 8,
            per_rank: 5_000,
            runs: 5,
            clients: 4,
            queries_per_client: 24,
            seed: 42,
        }
    }

    /// The settings `BENCH_read.json` was recorded with.
    pub fn read() -> BenchConfig {
        BenchConfig {
            runs: 3,
            ..BenchConfig::fig6()
        }
    }
}

/// Named `u64` values, in recording order.
pub type Named = Vec<(String, u64)>;

/// The perf record `spio bench` writes and compares
/// (`"format": "spio-bench-record"`, version 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// `fig6` or `read`.
    pub workload: String,
    /// Run parameters; records of different shapes are not comparable.
    pub shape: Named,
    /// Deterministic workload outputs; a mismatch means the baseline
    /// describes a different workload.
    pub fingerprint: Named,
    /// Gated wall times in µs.
    pub timings_us: Named,
    /// Reported, not gated.
    pub info: Named,
}

/// Everything one `spio bench` invocation produces: the comparable
/// record plus the last job's full observability artifacts.
#[derive(Debug)]
pub struct BenchRun {
    pub record: BenchRecord,
    /// Trace snapshot of the final job.
    pub snapshot: TraceSnapshot,
    /// Report derived from `snapshot` and the final job's metrics.
    pub report: JobReport,
    /// Metrics-registry dump of the final job, one JSON object per line.
    pub metrics_jsonl: String,
}

fn named<const N: usize>(pairs: [(&str, u64); N]) -> Named {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

fn lookup(list: &Named, name: &str) -> Option<u64> {
    list.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
}

/// Package the final job of a workload into a [`BenchRun`].
fn finish(record: BenchRecord, trace: Trace, nprocs: usize) -> BenchRun {
    let metrics_jsonl = trace.metrics().to_jsonl();
    let snapshot = trace.take_snapshot();
    let report = JobReport::from_snapshot(nprocs, &snapshot).with_metrics(&trace.metrics());
    BenchRun {
        record,
        snapshot,
        report,
        metrics_jsonl,
    }
}

/// Run the Fig. 6 workload under `cfg` with full tracing (phases, comm,
/// storage, metrics) and distill a `fig6` [`BenchRecord`].
///
/// The last job additionally replays a whole-domain read through a traced
/// reader, so the returned snapshot/report exercise the read path too.
pub fn run_fig6(cfg: &BenchConfig) -> Result<BenchRun, SpioError> {
    let decomp = DomainDecomposition::for_procs(Aabb3::new([0.0; 3], [1.0; 3]), cfg.procs);
    let factors: Vec<PartitionFactor> = [(1, 1, 1), (2, 2, 1), (2, 2, 2), (4, 2, 2)]
        .into_iter()
        .map(|(x, y, z)| PartitionFactor::new(x, y, z))
        .filter(|f| f.validate(decomp.dims).is_ok())
        .collect();
    let runs = cfg.runs.max(1);
    let (mut fingerprint, mut timings_us) = (Named::new(), Named::new());
    let mut last = None;
    for (fi, &factor) in factors.iter().enumerate() {
        let mut best = Named::new();
        let mut traffic = [0u64; 3];
        for run in 0..runs {
            let storage = MemStorage::new();
            let trace = Trace::collecting();
            let (t, d, s) = (trace.clone(), decomp.clone(), storage.clone());
            let (per_rank, seed) = (cfg.per_rank, cfg.seed);
            run_threaded_collect(cfg.procs, move |comm| {
                let rank = comm.rank();
                let comm = TracedComm::new(comm, t.clone());
                let traced = TracedStorage::new(s.clone(), t.clone(), rank);
                let ps = spio_workloads::uniform_patch_particles(&d, rank, per_rank, seed);
                SpatialWriter::new(d.clone(), WriterConfig::new(factor))
                    .with_trace(t.clone())
                    .write(&comm, &ps, &traced)
            })?
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
            let is_last_job = fi + 1 == factors.len() && run + 1 == runs;
            if is_last_job {
                // Whole-domain read pass through the traced reader, so the
                // exported snapshot covers reads as well as the write job.
                let traced = TracedStorage::new(storage, trace.clone(), 0);
                DatasetReader::open_traced(&traced, trace.clone(), 0)?
                    .read_box(&traced, &Aabb3::new([0.0; 3], [1.0; 3]))?;
            }
            let report = JobReport::from_snapshot(cfg.procs, &trace.snapshot());
            traffic = [
                report.storage_bytes("write_file") + report.storage_bytes("write_range"),
                report.total_bytes_sent(),
                report.storage.len() as u64,
            ];
            merge_min_phases(&mut best, &report);
            if is_last_job {
                last = Some(trace);
            }
        }
        for (what, v) in ["bytes_written", "bytes_sent", "storage_ops"]
            .into_iter()
            .zip(traffic)
        {
            fingerprint.push((format!("{factor}/{what}"), v));
        }
        timings_us.extend(
            best.into_iter()
                .map(|(p, us)| (format!("{factor}/{p}"), us)),
        );
    }
    let trace = last.ok_or_else(|| {
        SpioError::Config(format!("no valid partition factor at {} ranks", cfg.procs))
    })?;
    let record = BenchRecord {
        workload: "fig6".into(),
        shape: named([
            ("procs", cfg.procs as u64),
            ("per_rank", cfg.per_rank as u64),
        ]),
        fingerprint,
        timings_us,
        info: Named::new(),
    };
    Ok(finish(record, trace, cfg.procs))
}

/// Fold one run's per-phase critical-path times into the running minima.
fn merge_min_phases(best: &mut Named, report: &JobReport) {
    for phase in report.phase_names() {
        let micros = report.phase_max(phase).as_micros() as u64;
        match best.iter_mut().find(|(p, _)| p == phase) {
            Some((_, m)) => *m = (*m).min(micros),
            None => best.push((phase.to_string(), micros)),
        }
    }
}

/// Write the read benchmark's dataset once: the fig6 uniform workload at
/// `procs` ranks, aggregated 2×2×1.
fn build_dataset(cfg: &BenchConfig) -> Result<MemStorage, SpioError> {
    let decomp = DomainDecomposition::for_procs(Aabb3::new([0.0; 3], [1.0; 3]), cfg.procs);
    let factor = PartitionFactor::new(2, 2, 1);
    let storage = MemStorage::new();
    let (s, d, per_rank, seed) = (storage.clone(), decomp, cfg.per_rank, cfg.seed);
    run_threaded_collect(cfg.procs, move |comm| {
        let ps = spio_workloads::uniform_patch_particles(&d, comm.rank(), per_rank, seed);
        SpatialWriter::new(d.clone(), WriterConfig::new(factor)).write(&comm, &ps, &s)
    })?
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    Ok(storage)
}

/// Run the read-serving workload (cold vs warm hot-spot query, then the
/// multi-client replay) and distill a `read` [`BenchRecord`].
pub fn run_read_bench(cfg: &BenchConfig) -> Result<BenchRun, SpioError> {
    let storage = build_dataset(cfg)?;
    let spec = WorkloadSpec {
        seed: cfg.seed,
        queries_per_client: cfg.queries_per_client,
        ..WorkloadSpec::default()
    };
    let (mut cold_us, mut warm_us) = (u64::MAX, u64::MAX);
    let mut last = None;
    for _ in 0..cfg.runs.max(1) {
        let trace = Trace::collecting();
        let engine =
            QueryEngine::open_traced(storage.clone(), ServeConfig::default(), trace.clone())?;
        let hot = Query::Box(hot_spot(&engine.meta().domain));

        // Cold: first touch of the hot-spot files (storage + decode).
        let cold = engine.execute(&hot);
        if let Some(f) = cold.failures.first() {
            return Err(SpioError::Format(format!(
                "bench dataset did not serve cleanly: {f:?}"
            )));
        }
        cold_us = cold_us.min(cold.stats.latency.as_micros() as u64);

        // Warm: identical repeat, fully cached.
        let warm = engine.execute(&hot);
        warm_us = warm_us.min(warm.stats.latency.as_micros() as u64);

        // Replay: concurrent seeded clients over the mixed workload.
        let before = engine.cache_stats();
        replay(&engine, cfg.clients, &spec)?;
        let after = engine.cache_stats();
        let fingerprint = named([
            ("total_particles", engine.meta().total_particles),
            ("box_particles", cold.particles.len() as u64),
        ]);
        let info = named([
            ("cache_hits", after.hits - before.hits),
            ("cache_misses", after.misses - before.misses),
        ]);
        last = Some((trace, fingerprint, info));
    }
    let (trace, fingerprint, info) =
        last.ok_or_else(|| SpioError::Config("bench needs at least one run".into()))?;
    let record = BenchRecord {
        workload: "read".into(),
        shape: named([
            ("procs", cfg.procs as u64),
            ("per_rank", cfg.per_rank as u64),
            ("clients", cfg.clients as u64),
            ("queries_per_client", cfg.queries_per_client as u64),
        ]),
        fingerprint,
        timings_us: named([("cold_box", cold_us), ("warm_box", warm_us)]),
        info,
    };
    Ok(finish(record, trace, cfg.clients))
}

impl BenchRecord {
    pub fn to_json(&self) -> String {
        let obj = |list: &Named| {
            Json::Obj(
                list.iter()
                    .map(|(k, v)| (k.clone(), Json::u64(*v)))
                    .collect(),
            )
        };
        Json::Obj(vec![
            ("format".into(), Json::str("spio-bench-record")),
            ("version".into(), Json::u64(2)),
            ("workload".into(), Json::str(&self.workload)),
            ("shape".into(), obj(&self.shape)),
            ("fingerprint".into(), obj(&self.fingerprint)),
            ("timings_us".into(), obj(&self.timings_us)),
            ("info".into(), obj(&self.info)),
        ])
        .to_string()
    }

    pub fn from_json(text: &str) -> Result<BenchRecord, String> {
        let doc = Json::parse(text)?;
        if doc.get("format").and_then(Json::as_str) != Some("spio-bench-record") {
            return Err("not a spio bench record".into());
        }
        if doc.get("version").and_then(Json::as_u64) != Some(2) {
            return Err("unsupported bench-record version (expected 2)".into());
        }
        let list = |key: &str| -> Result<Named, String> {
            let Some(Json::Obj(fields)) = doc.get(key) else {
                return Err(format!("missing object '{key}'"));
            };
            fields
                .iter()
                .map(|(k, v)| {
                    v.as_u64()
                        .map(|v| (k.clone(), v))
                        .ok_or_else(|| format!("{key}.{k} is not a non-negative integer"))
                })
                .collect()
        };
        Ok(BenchRecord {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("missing string field 'workload'")?
                .to_string(),
            shape: list("shape")?,
            fingerprint: list("fingerprint")?,
            timings_us: list("timings_us")?,
            info: list("info")?,
        })
    }
}

/// `name base -> cur` for every name whose value differs between the two
/// lists; `-` marks a name missing from one side.
fn drift(base: &Named, cur: &Named) -> Vec<String> {
    let show = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
    let names: BTreeSet<&str> = base.iter().chain(cur).map(|(k, _)| k.as_str()).collect();
    names
        .into_iter()
        .filter_map(|name| {
            let (b, c) = (lookup(base, name), lookup(cur, name));
            (b != c).then(|| format!("{name} {} -> {}", show(b), show(c)))
        })
        .collect()
}

/// Compare a current record against a baseline.
///
/// Returns `Err` when the two records describe different workloads
/// (workload name, shape or fingerprint mismatch) or when a baseline
/// timing is missing from the current run — such baselines must be
/// re-recorded, not gated against. Returns `Ok(regressions)` otherwise;
/// an empty vector means the gate passes. A timing regresses when
/// `cur > base * (1 + threshold) + SLACK_US`.
pub fn compare(
    base: &BenchRecord,
    cur: &BenchRecord,
    threshold: f64,
) -> Result<Vec<String>, String> {
    if base.workload != cur.workload {
        return Err(format!(
            "workload mismatch: baseline is a '{}' record, current run is '{}'",
            base.workload, cur.workload
        ));
    }
    for (what, b, c) in [
        ("shape", &base.shape, &cur.shape),
        ("fingerprint", &base.fingerprint, &cur.fingerprint),
    ] {
        let d = drift(b, c);
        if !d.is_empty() {
            return Err(format!(
                "{} {what} drifted ({}); re-record the baseline",
                base.workload,
                d.join(", ")
            ));
        }
    }
    let mut regressions = Vec::new();
    for (name, b) in &base.timings_us {
        let c = lookup(&cur.timings_us, name)
            .ok_or_else(|| format!("timing '{name}' missing from current run"))?;
        let limit = (*b as f64 * (1.0 + threshold)) as u64 + SLACK_US;
        if c > limit {
            regressions.push(format!(
                "{}/{name}: {b}µs -> {c}µs (limit {limit}µs at +{:.0}% + {SLACK_US}µs slack)",
                base.workload,
                threshold * 100.0
            ));
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_fig6() -> BenchRun {
        run_fig6(&BenchConfig {
            per_rank: 200,
            runs: 1,
            ..BenchConfig::fig6()
        })
        .unwrap()
    }

    fn tiny_read() -> BenchRun {
        run_read_bench(&BenchConfig {
            per_rank: 500,
            clients: 2,
            queries_per_client: 6,
            runs: 1,
            ..BenchConfig::read()
        })
        .unwrap()
    }

    fn both() -> [BenchRun; 2] {
        [tiny_fig6(), tiny_read()]
    }

    #[test]
    fn records_roundtrip_through_json() {
        for run in both() {
            let back = BenchRecord::from_json(&run.record.to_json()).unwrap();
            assert_eq!(back, run.record);
        }
    }

    #[test]
    fn fig6_record_covers_all_valid_factors_and_phases() {
        let run = tiny_fig6();
        let r = &run.record;
        assert_eq!(r.workload, "fig6");
        for config in ["1x1x1", "2x2x1", "2x2x2"] {
            assert!(
                lookup(&r.timings_us, &format!("{config}/file_io")).is_some(),
                "{config}: no file_io phase in {:?}",
                r.timings_us
            );
            let fp = |what: &str| lookup(&r.fingerprint, &format!("{config}/{what}"));
            assert!(fp("bytes_written") > Some(0), "{config}: no bytes written");
            assert!(fp("storage_ops") > Some(0), "{config}: no storage ops");
        }
        // The last job's artifacts cover storage latency + the read pass.
        assert!(run.report.op_latency("write_file").is_some());
        assert!(!run.snapshot.events.is_empty());
        assert!(run.metrics_jsonl.contains("storage.write_file.ops"));
    }

    #[test]
    fn read_run_produces_serving_artifacts() {
        let run = tiny_read();
        let r = &run.record;
        assert_eq!(r.workload, "read");
        assert!(lookup(&r.fingerprint, "box_particles") > Some(0));
        let hits = lookup(&r.info, "cache_hits").unwrap();
        assert!(hits + lookup(&r.info, "cache_misses").unwrap() > 0);
        // The traced run surfaces query latency and cache counters.
        assert!(run.report.op_latency("serve.query").is_some());
        assert!(run
            .report
            .metric(spio_serve::cache::metric_names::HITS)
            .is_some());
        assert!(run.metrics_jsonl.contains("serve.query.latency_us"));
    }

    #[test]
    fn chrome_export_of_bench_traces_validates() {
        // Acceptance: every traced bench run must export a Chrome trace
        // that passes the schema validator, and a report that round-trips.
        let [fig6, read] = both();
        for run in [&fig6, &read] {
            let chrome = spio_trace::chrome_trace(&run.snapshot);
            spio_trace::validate_chrome_trace(&chrome).unwrap();
            let back = JobReport::from_json(&run.report.to_json()).unwrap();
            assert_eq!(back, run.report);
        }
        // The write job reports latency percentiles and per-phase imbalance.
        let lat = fig6.report.op_latency("write_file").unwrap();
        assert!(lat.p50_us <= lat.p95_us && lat.p95_us <= lat.p99_us);
        assert!(!fig6.report.imbalance.is_empty());
    }

    #[test]
    fn gate_table_over_both_workloads() {
        for run in both() {
            let base = run.record;
            let w = base.workload.clone();
            let gate = |cur: &BenchRecord| compare(&base, cur, DEFAULT_THRESHOLD);

            // Identical records pass.
            assert_eq!(gate(&base).unwrap(), Vec::<String>::new(), "{w}");

            // A 2x + 2·slack slowdown of any single timing regresses.
            assert!(!base.timings_us.is_empty(), "{w}: no gated timings");
            for i in 0..base.timings_us.len() {
                let mut slow = base.clone();
                let us = &mut slow.timings_us[i].1;
                *us = *us * 2 + 2 * SLACK_US;
                let regressions = gate(&slow).unwrap();
                assert_eq!(regressions.len(), 1, "{w}: {regressions:?}");
                assert!(regressions[0].contains(&slow.timings_us[i].0));
            }

            // Noise under the slack never regresses.
            let mut noisy = base.clone();
            for (_, us) in &mut noisy.timings_us {
                *us += SLACK_US / 2;
            }
            assert!(gate(&noisy).unwrap().is_empty(), "{w}");

            // Shape, fingerprint and workload mismatches are errors, not
            // regressions; so is a timing missing from the current run.
            for i in 0..base.shape.len() {
                let mut other = base.clone();
                other.shape[i].1 += 1;
                assert!(gate(&other).is_err(), "{w}: shape {}", other.shape[i].0);
            }
            let mut drifted = base.clone();
            drifted.fingerprint[0].1 += 1;
            assert!(gate(&drifted).is_err(), "{w}");
            let mut extra = base.clone();
            extra.fingerprint.push(("extra".into(), 1));
            assert!(gate(&extra).is_err(), "{w}");
            let mut renamed = base.clone();
            renamed.workload.push('x');
            let err = gate(&renamed).unwrap_err();
            assert!(err.contains("workload mismatch"), "{err}");
            let mut missing = base.clone();
            missing.timings_us.pop();
            assert!(gate(&missing).is_err(), "{w}");
        }
    }

    #[test]
    fn committed_baselines_parse_and_match_the_runners() {
        let names = |list: &Named| list.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        for (text, run) in [
            (include_str!("../../../BENCH_fig6.json"), tiny_fig6()),
            (include_str!("../../../BENCH_read.json"), tiny_read()),
        ] {
            let committed = BenchRecord::from_json(text).unwrap();
            let fresh = run.record;
            assert_eq!(committed.workload, fresh.workload);
            assert_eq!(names(&committed.shape), names(&fresh.shape));
            assert_eq!(lookup(&committed.shape, "procs"), Some(8));
            assert_eq!(lookup(&committed.shape, "per_rank"), Some(5_000));
            // Every gated or fingerprinted name is one the runner produces,
            // so the committed file stays comparable with a fresh run.
            assert_eq!(names(&committed.fingerprint), names(&fresh.fingerprint));
            for (name, _) in &committed.timings_us {
                assert!(lookup(&fresh.timings_us, name).is_some(), "{name}");
            }
        }
    }
}
