//! `serve_hot` and `serve_scan`: closed-loop clients replaying seeded
//! query mixes through `QueryEngine::execute_as`.
//!
//! Both write 64 ranks' uniform particles with partition factor 1x1x1
//! (64 data files) and serve them with the default engine configuration
//! (64 MiB block cache). They differ only in size and in how much traffic
//! aims at the shared hot spot:
//!
//! - `serve_hot`: 4 000 particles per rank, about 32 MB decoded — half the
//!   cache budget — and the default mix (50 % hot spot). Once warm, queries
//!   cost index probe, cache lookup, filter and assembly; storage, CRC and
//!   decode are bypassed.
//! - `serve_scan`: 16 000 particles per rank, about 127 MB decoded — twice
//!   the budget — and no hot spot. Most file blocks miss, so queries pay
//!   storage read, CRC verify, decode and eviction.

use crate::dataset::{self, Input};
use crate::ledger::{self, LayerStats};
use crate::storage::{BenchStorage, IoTotals};
use crate::util::{median, ms, percentile, rate_mbps, SeqPrint};
use crate::{closed_loop, discard, Ctx, Report, Sample, Stop, CLIENTS, SETUPS};
use spio_core::{append_box_hits, DatasetReader, LodCursor, Storage, TracedStorage};
use spio_format::data_file::decode_data_file;
use spio_format::{LodParams, SpatialMetadata};
use spio_serve::{client_queries, Query, QueryEngine, QueryStats, ServeConfig, WorkloadSpec};
use spio_trace::Trace;
use spio_types::{Particle, PartitionFactor};
use spio_util::Rng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

pub struct ServeWorkload {
    pub name: &'static str,
    pub per_rank: usize,
    pub hot_fraction: f64,
}

const RANKS: usize = 64;
/// Distinct queries in each client's replayed list; every one is checked
/// against the serial reader's answer, computed once per run.
const QUERIES_PER_CLIENT: usize = 512;
/// Distinct queries whose expected answer is also computed by the serial
/// reader itself.
const SERIAL_CHECKS: usize = 32;
/// Warm-up before an engine is measured: one pass over the query lists,
/// cut short after this long (serve_scan's pass would take ~8 s).
const WARMUP: Duration = Duration::from_secs(1);
/// Share of `--seconds` spent on write + restart cycles of the served
/// dataset before serving.
const WRITE_SHARE: f64 = 0.25;
/// Alternating untraced/traced slice pairs in a `--trace 1` run.
const TRACE_SLICES: usize = 4;

pub const HOT: ServeWorkload = ServeWorkload {
    name: "serve_hot",
    per_rank: 4_000,
    hot_fraction: 0.5,
};

pub const SCAN: ServeWorkload = ServeWorkload {
    name: "serve_scan",
    per_rank: 16_000,
    hot_fraction: 0.0,
};

/// Each client's query list, with the index of each query's expected
/// answer.
struct Plan {
    lists: Vec<Vec<(Query, usize)>>,
    distinct: Vec<Query>,
}

fn warmup() -> Stop {
    Stop {
        ops: QUERIES_PER_CLIENT,
        deadline: Some(Instant::now() + WARMUP),
    }
}

/// Each client replays its share of a fixed query pool — the traffic mix
/// is part of the workload's definition — in an order drawn from the run's
/// seed. A pool drawn from the seed too would change the mix's cost by
/// several percent from seed to seed.
fn plan(w: &ServeWorkload, seed: u64, meta: &SpatialMetadata) -> Plan {
    let spec = WorkloadSpec {
        queries_per_client: QUERIES_PER_CLIENT,
        hot_fraction: w.hot_fraction,
        ..WorkloadSpec::default()
    };
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut distinct = Vec::new();
    let lists = (0..CLIENTS)
        .map(|c| {
            let mut pool = client_queries(meta, &spec, c);
            Rng::seed_from_u64(seed ^ ((c as u64) << 32)).shuffle(&mut pool);
            pool.into_iter()
                .map(|q| {
                    let idx = *seen.entry(format!("{q:?}")).or_insert_with(|| {
                        distinct.push(q.clone());
                        distinct.len() - 1
                    });
                    (q, idx)
                })
                .collect()
        })
        .collect();
    Plan { lists, distinct }
}

/// The serial reader's answer to `q`: `DatasetReader` for box and density
/// queries, one `LodCursor` per intersecting file (ascending, filtered to
/// the region) for LOD queries — the order the engine assembles results in.
fn serial_answer<S: Storage>(
    reader: &DatasetReader,
    storage: &S,
    q: &Query,
) -> Result<Vec<Particle>, String> {
    let err = |e: spio_types::SpioError| format!("serial {} query: {e}", q.label());
    match q {
        Query::Box(r) => reader.read_box(storage, r).map(|x| x.0).map_err(err),
        Query::Density { region, lo, hi } => reader
            .read_box_density(storage, region, *lo, *hi)
            .map(|x| x.0)
            .map_err(err),
        Query::Lod { region, level } => {
            let meta = &reader.meta;
            let mut out = Vec::new();
            for idx in meta.files_intersecting(region) {
                let (prefix, _) = LodCursor::new(meta, &[idx], 1)
                    .read_through_level(storage, *level)
                    .map_err(err)?;
                out.extend(prefix.into_iter().filter(|p| region.contains(p.position)));
            }
            Ok(out)
        }
    }
}

/// The same answer from files decoded once: the serial reader's file
/// selection and filters, without re-reading and re-verifying every file
/// for every query.
fn decoded_answer(meta: &SpatialMetadata, files: &[Vec<Particle>], q: &Query) -> Vec<Particle> {
    let mut out = Vec::new();
    match q {
        Query::Box(r) => {
            for i in meta.files_intersecting(r) {
                append_box_hits(r, &meta.entries[i].bounds, &files[i], &mut out);
            }
        }
        Query::Density { region, lo, hi } => {
            for i in meta.files_for_range_query(region, *lo, *hi) {
                out.extend(files[i].iter().filter(|p| {
                    region.contains(p.position) && p.density >= *lo && p.density <= *hi
                }));
            }
        }
        Query::Lod { region, level } => {
            let total = meta.total_particles;
            let deepest = meta.lod.num_levels(1, total).saturating_sub(1);
            let global = meta.lod.prefix_len(1, (*level).min(deepest), total);
            for i in meta.files_intersecting(region) {
                let k = LodParams::file_prefix(meta.entries[i].particle_count, total, global);
                let prefix = &files[i][..k as usize];
                out.extend(prefix.iter().filter(|p| region.contains(p.position)));
            }
        }
    }
    out
}

/// Expected answers for every distinct query of the plan. The first
/// `SERIAL_CHECKS` are computed both ways and must agree, which ties the
/// decoded-once answers to the serial reader itself.
fn expected_answers<S: Storage>(
    storage: &S,
    plan: &Plan,
    report: &mut Report,
) -> Option<Vec<SeqPrint>> {
    let reader = DatasetReader::open(storage)
        .map_err(|e| report.check(Err(format!("serial open: {e}"))))
        .ok()?;
    let meta = &reader.meta;
    let mut files = Vec::with_capacity(meta.entries.len());
    for e in &meta.entries {
        let decoded = storage
            .read_file(&e.file_name())
            .and_then(|b| decode_data_file(&b))
            .map_err(|err| report.check(Err(format!("decode {}: {err}", e.file_name()))))
            .ok()?;
        files.push(decoded.1);
    }
    let answers = plan
        .distinct
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let answer = SeqPrint::of(&decoded_answer(meta, &files, q));
            if i < SERIAL_CHECKS {
                report.check(match serial_answer(&reader, storage, q) {
                    Ok(ps) if SeqPrint::of(&ps) == answer => Ok(()),
                    Ok(_) => Err(format!(
                        "{} query: serial and decoded answers differ",
                        q.label()
                    )),
                    Err(e) => Err(e),
                });
            }
            answer
        })
        .collect();
    Some(answers)
}

#[derive(Default)]
struct Served {
    latency_ms: Vec<f64>,
    stats: Vec<QueryStats>,
    wall: Duration,
}

impl Served {
    fn qps(&self) -> f64 {
        self.latency_ms.len() as f64 / self.wall.as_secs_f64()
    }

    fn extend(&mut self, other: Served) {
        self.latency_ms.extend(other.latency_ms);
        self.stats.extend(other.stats);
        self.wall += other.wall;
    }
}

/// Closed-loop replay of the plan until `budget` has passed; every result
/// is checked against the serial answer.
fn replay<S: Storage + 'static>(
    engine: &QueryEngine<S>,
    plan: &Plan,
    expected: &[SeqPrint],
    stop: Stop,
    report: &mut Report,
) -> Served {
    let (samples, wall) = closed_loop(stop, |c, i| {
        let (q, idx) = &plan.lists[c][i % plan.lists[c].len()];
        let t = Instant::now();
        let r = engine.execute_as(c, q);
        let latency = t.elapsed();
        let ok = if !r.is_complete() {
            Err(format!(
                "{} query lost {} files",
                q.label(),
                r.failures.len()
            ))
        } else if expected
            .get(*idx)
            .is_some_and(|e| *e != SeqPrint::of(&r.particles))
        {
            Err(format!(
                "{} query differs from the serial reader",
                q.label()
            ))
        } else {
            Ok(())
        };
        Sample {
            latency,
            ok,
            extra: r.stats,
        }
    });
    let mut out = Served {
        latency_ms: Vec::with_capacity(samples.len()),
        stats: Vec::with_capacity(samples.len()),
        wall,
    };
    for s in samples {
        out.latency_ms.push(ms(s.latency));
        out.stats.push(s.extra);
        report.check(s.ok);
    }
    out
}

/// What one set-up measured.
struct SetupSample {
    seconds: f64,
    open_ms: f64,
    /// Max over ranks of the writer phases, in ms.
    phases: [f64; 4],
    comm_bytes: f64,
    comm_msgs: f64,
    write_io: IoTotals,
}

/// The dataset and engine the timed replay serves.
struct Live {
    storage: BenchStorage,
    input: Input,
    engine: QueryEngine<BenchStorage>,
}

/// One set-up: generate, write, restart and verify, open the engine, and
/// warm it with one pass over the plan. With `traced`, the write runs with
/// `TracedComm` so its message counts are exact.
fn setup(
    ctx: &Ctx,
    w: &ServeWorkload,
    traced: bool,
    report: &mut Report,
) -> Option<(SetupSample, Live)> {
    let t0 = Instant::now();
    let trace = if traced {
        Trace::collecting()
    } else {
        Trace::off()
    };
    let input = Input::generate(RANKS, w.per_rank, PartitionFactor::new(1, 1, 1), ctx.seed);
    let storage = ctx.fresh_storage(w.name);
    let io_before = ctx.io.totals();
    let written = dataset::write(&input, &storage, &trace);
    let write_io = ctx.io.totals().since(&io_before);
    report.check(written.as_ref().map(|_| ()).map_err(Clone::clone));
    let restart = dataset::restart(&input, &storage);
    report.check(restart.as_ref().map(|_| ()).map_err(Clone::clone));
    let engine = QueryEngine::open(storage.clone(), ServeConfig::default());
    report.check(
        engine
            .as_ref()
            .map(|_| ())
            .map_err(|e| format!("engine open: {e}")),
    );
    let (Ok(written), Ok(restart), Ok(engine)) = (written, restart, engine) else {
        discard(&storage);
        return None;
    };
    let warm = plan(w, ctx.seed, engine.meta());
    replay(&engine, &warm, &[], warmup(), &mut Report::default());
    let m = trace.metrics();
    let ws = written.max();
    let sample = SetupSample {
        seconds: t0.elapsed().as_secs_f64(),
        open_ms: ms(restart.open),
        phases: [
            ws.aggregation_time,
            ws.shuffle_time,
            ws.file_io_time,
            ws.meta_time,
        ]
        .map(ms),
        comm_bytes: m.counter_value("comm.sent.bytes") as f64,
        comm_msgs: m.counter_value("comm.sent.msgs") as f64,
        write_io,
    };
    let live = Live {
        storage,
        input,
        engine,
    };
    Some((sample, live))
}

fn med(samples: &[SetupSample], f: impl Fn(&SetupSample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

pub fn run(ctx: &Ctx, w: &ServeWorkload, traced: bool) -> Report {
    let mut report = Report::default();
    let mut samples = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..SETUPS {
        // Keep only the latest dataset and engine.
        if let Some(old) = live.take() {
            discard(&old.storage);
        }
        let Some((sample, l)) = setup(ctx, w, traced, &mut report) else {
            return report;
        };
        samples.push(sample);
        live = Some(l);
    }
    let Live {
        storage,
        input,
        engine,
    } = live.expect("SETUPS > 0");
    let plan = plan(w, ctx.seed, engine.meta());
    let Some(expected) = expected_answers(&storage, &plan, &mut report) else {
        return report;
    };

    if !traced {
        // Write + restart cycles of the served particles, each to a fresh
        // directory, then the closed-loop replay.
        let (mut write_mbps, mut restart_mbps) = (Vec::new(), Vec::new());
        let t0 = Instant::now();
        while t0.elapsed() < ctx.measure_for(WRITE_SHARE) {
            let scratch = ctx.fresh_storage("cycle");
            let outcome = dataset::write(&input, &scratch, &Trace::off()).and_then(|wr| {
                write_mbps.push(rate_mbps(input.payload_bytes(), wr.wall));
                dataset::restart(&input, &scratch)
            });
            if let Ok(r) = &outcome {
                restart_mbps.push(rate_mbps(input.payload_bytes(), r.wall));
            }
            report.check(outcome.map(|_| ()));
            discard(&scratch);
        }
        let deadline = Instant::now() + ctx.measure_for(1.0 - WRITE_SHARE);
        let served = replay(&engine, &plan, &expected, Stop::at(deadline), &mut report);
        let qps = served.qps();
        let mut lat = served.latency_ms;
        lat.sort_by(f64::total_cmp);
        report.metric("setup_s", med(&samples, |s| s.seconds), "s");
        report.metric("write_mbps", median(&write_mbps), "MB/s");
        report.metric("restart_mbps", median(&restart_mbps), "MB/s");
        report.metric("query_qps", qps, "1/s");
        report.metric("query_p50_ms", percentile(&lat, 50.0), "ms");
        report.metric("query_p99_ms", percentile(&lat, 99.0), "ms");
        report.notes.push(format!(
            "{}: {} particles in {} files, {} write+restart cycles, {} queries ({} distinct) \
             by {CLIENTS} clients",
            w.name,
            input.particles(),
            engine.meta().entries.len(),
            write_mbps.len(),
            lat.len(),
            plan.distinct.len()
        ));
        return report;
    }

    // A second engine with the tracing hooks attached, warmed like the
    // first; then untraced and traced slices alternate so both see the
    // same machine conditions.
    let trace = Trace::collecting();
    let traced_engine = match QueryEngine::open_traced(
        TracedStorage::new(storage.clone(), trace.clone(), 0),
        ServeConfig::default(),
        trace.clone(),
    ) {
        Ok(e) => e,
        Err(e) => {
            report.check(Err(format!("traced engine open: {e}")));
            return report;
        }
    };
    replay(&traced_engine, &plan, &[], warmup(), &mut Report::default());
    let evictions_before = traced_engine.cache_stats().evictions;
    let slice = ctx.measure_for(1.0 / (2 * TRACE_SLICES) as f64);
    let (mut plain, mut tr, mut io) = (Served::default(), Served::default(), IoTotals::default());
    for _ in 0..TRACE_SLICES {
        let stop = Stop::at(Instant::now() + slice);
        plain.extend(replay(&engine, &plan, &expected, stop, &mut report));
        let io_before = ctx.io.totals();
        let stop = Stop::at(Instant::now() + slice);
        tr.extend(replay(&traced_engine, &plan, &expected, stop, &mut report));
        io.add(&ctx.io.totals().since(&io_before));
    }
    let evictions = traced_engine.cache_stats().evictions - evictions_before;
    // Reads come from the traced replay, writes from the set-up writes.
    for s in &samples {
        io.write_ops += s.write_io.write_ops;
        io.write_bytes += s.write_io.write_bytes;
        io.write_ns += s.write_io.write_ns;
    }

    let n = tr.stats.len().max(1) as f64;
    let files: usize = tr.stats.iter().map(|s| s.files_selected).sum();
    let bytes: u64 = tr.stats.iter().map(|s| s.bytes_read).sum();
    let mut layers = LayerStats {
        aggregation_ms: med(&samples, |s| s.phases[0]),
        shuffle_ms: med(&samples, |s| s.phases[1]),
        file_io_ms: med(&samples, |s| s.phases[2]),
        meta_ms: med(&samples, |s| s.phases[3]),
        comm_bytes: med(&samples, |s| s.comm_bytes),
        comm_msgs: med(&samples, |s| s.comm_msgs),
        io,
        storage_ops_per_unit: io.read_ops as f64 / n,
        bytes_per_query: bytes as f64 / n,
        open_ms: med(&samples, |s| s.open_ms),
        files_per_query: files as f64 / n,
        evictions: evictions as f64,
        overhead_frac: plain.qps() / tr.qps() - 1.0,
        ..LayerStats::default()
    };
    ledger::engine_layers(&tr.latency_ms, &tr.stats, &mut layers);
    let regions: Vec<_> = plan.distinct.iter().map(|q| *q.region()).collect();
    ledger::measure(&storage, engine.meta(), &regions, &mut layers, &mut report);
    layers.emit(&mut report);
    report.notes.push(format!(
        "{} traced: {} queries untraced ({:.1}/s), {} traced ({:.1}/s), {evictions} cache evictions",
        w.name,
        plain.latency_ms.len(),
        plain.qps(),
        tr.latency_ms.len(),
        tr.qps(),
    ));
    report
}
