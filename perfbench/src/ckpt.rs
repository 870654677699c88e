//! `ckpt_restart`: the paper's checkpoint/restart path.
//!
//! 4 ranks × 250 000 uniform particles (1 M particles, 124 MB) are written
//! in aligned mode with partition factor 1x2x1 — two aggregators, each
//! merging two ranks — to a fresh directory, read back by the serial
//! reader and verified, previewed by closed-loop LOD reads, then deleted.
//! The path runs exchange, LOD shuffle, encode + CRC and file writes on
//! the way out and file reads, CRC verify and decode on the way back. Its
//! timed work never touches the spatial index or the block cache.

use crate::dataset::{self, Input, Restart};
use crate::ledger::{self, LayerStats};
use crate::storage::{BenchStorage, IoTotals};
use crate::util::{median, ms, percentile, rate_mbps, SeqPrint};
use crate::{closed_loop, discard, Ctx, Report, Sample, Stop, CLIENTS, SETUPS};
use spio_core::{LodCursor, Storage, TracedStorage};
use spio_format::LodParams;
use spio_serve::{Query, QueryEngine, ServeConfig};
use spio_trace::Trace;
use spio_types::{Particle, PartitionFactor};
use spio_util::Rng;
use std::time::{Duration, Instant};

const RANKS: usize = 4;
const PER_RANK: usize = 250_000;
/// Closed-loop LOD preview reads per client and checkpoint: 7 of each
/// level. With an odd number of levels the median falls inside one
/// level's latencies, not on the edge between two. A run writes at least
/// 8 checkpoints, so the query percentiles rest on at least 1 000 samples.
const PREVIEWS_PER_CLIENT: usize = 63;
/// Deepest preview level: levels 0..=8 hold 32·(2^9 − 1) ≈ 16 k particles
/// (about 1.6 % of the checkpoint).
const MAX_PREVIEW_LEVEL: u32 = 8;

/// What a sequence of checkpoint cycles measured.
#[derive(Default)]
struct Cycles {
    count: u64,
    write_mbps: Vec<f64>,
    restart_mbps: Vec<f64>,
    cycle_s: Vec<f64>,
    open_ms: Vec<f64>,
    /// Per checkpoint: max over ranks of each writer phase, in ms.
    phases: [Vec<f64>; 4],
    comm_bytes: Vec<f64>,
    comm_msgs: Vec<f64>,
    preview_ms: Vec<f64>,
    preview_bytes: Vec<f64>,
    /// Per checkpoint: previews completed per second of preview time.
    preview_qps: Vec<f64>,
    io: IoTotals,
}

/// Each file's particles `[prefix(from), prefix(to))` for global LOD
/// prefixes `from` and `to`, in file order, cut from the restart's full
/// read (which returns the files in order, each whole).
fn file_slices(r: &Restart, from: u64, to: u64) -> Vec<Particle> {
    let total = r.meta.total_particles;
    let mut out = Vec::new();
    let mut start = 0usize;
    for e in &r.meta.entries {
        let lo = LodParams::file_prefix(e.particle_count, total, from) as usize;
        let hi = LodParams::file_prefix(e.particle_count, total, to) as usize;
        out.extend_from_slice(&r.particles[start + lo..start + hi]);
        start += e.particle_count as usize;
    }
    out
}

/// The serial answer to "LOD levels 0..=l of every file": the cursor
/// returns, level by level, each file's next proportional prefix slice.
fn preview_oracle(r: &Restart) -> Vec<SeqPrint> {
    let (lod, total) = (&r.meta.lod, r.meta.total_particles);
    let mut seq = Vec::new();
    (0..=MAX_PREVIEW_LEVEL)
        .map(|l| {
            let from = if l == 0 {
                0
            } else {
                lod.prefix_len(1, l - 1, total)
            };
            seq.extend(file_slices(r, from, lod.prefix_len(1, l, total)));
            SeqPrint::of(&seq)
        })
        .collect()
}

/// The checkpoint path has no block cache or serving pool. Their layers
/// are measured by serving the same previews as `Query::Lod` through a
/// traced `QueryEngine` on a checkpoint; the engine answers file by file,
/// so the expected answer is each file's whole prefix in turn.
fn engine_previews(
    storage: &BenchStorage,
    r: &Restart,
    levels: &[Vec<u32>],
    layers: &mut LayerStats,
    report: &mut Report,
) -> Result<(), String> {
    let trace = Trace::collecting();
    let engine = QueryEngine::open_traced(
        TracedStorage::new(storage.clone(), trace.clone(), 0),
        ServeConfig::default(),
        trace,
    )
    .map_err(|e| format!("engine open: {e}"))?;
    let (lod, total) = (&r.meta.lod, r.meta.total_particles);
    let expected: Vec<SeqPrint> = (0..=MAX_PREVIEW_LEVEL)
        .map(|l| SeqPrint::of(&file_slices(r, 0, lod.prefix_len(1, l, total))))
        .collect();
    let (samples, _) = closed_loop(Stop::after(PREVIEWS_PER_CLIENT), |c, i| {
        let level = levels[c][i];
        let query = Query::Lod {
            region: r.meta.domain,
            level,
        };
        let t = Instant::now();
        let res = engine.execute_as(c, &query);
        let latency = t.elapsed();
        let ok = if res.is_complete() && SeqPrint::of(&res.particles) == expected[level as usize] {
            Ok(())
        } else {
            Err(format!("engine LOD preview through level {level} differs"))
        };
        Sample {
            latency,
            ok,
            extra: res.stats,
        }
    });
    let (mut latency_ms, mut stats) = (Vec::new(), Vec::new());
    for s in samples {
        latency_ms.push(ms(s.latency));
        stats.push(s.extra);
        report.check(s.ok);
    }
    ledger::engine_layers(&latency_ms, &stats, layers);
    layers.evictions = engine.cache_stats().evictions as f64;
    Ok(())
}

/// Write, restart, verify, preview and delete one checkpoint.
fn cycle<S: Storage + Clone + 'static>(
    input: &Input,
    levels: &[Vec<u32>],
    storage: &S,
    trace: &Trace,
    out: &mut Cycles,
    report: &mut Report,
) {
    let t0 = Instant::now();
    let written = match dataset::write(input, storage, trace) {
        Ok(w) => w,
        Err(e) => return report.check(Err(e)),
    };
    report.check(Ok(()));
    let restart = match dataset::restart(input, storage) {
        Ok(r) => r,
        Err(e) => return report.check(Err(e)),
    };
    report.check(Ok(()));
    let oracle = preview_oracle(&restart);
    let files: Vec<usize> = (0..restart.meta.entries.len()).collect();
    let (samples, wall) = closed_loop(Stop::after(PREVIEWS_PER_CLIENT), |c, i| {
        let level = levels[c][i];
        let t = Instant::now();
        let got = LodCursor::new(&restart.meta, &files, 1).read_through_level(storage, level);
        let latency = t.elapsed();
        let (ok, bytes) = match got {
            Ok((ps, stats)) if SeqPrint::of(&ps) == oracle[level as usize] => {
                (Ok(()), stats.bytes_read)
            }
            Ok(_) => (Err(format!("LOD preview through level {level} differs")), 0),
            Err(e) => (Err(format!("LOD preview through level {level}: {e}")), 0),
        };
        Sample {
            latency,
            ok,
            extra: bytes,
        }
    });
    out.cycle_s.push(t0.elapsed().as_secs_f64());
    out.preview_qps
        .push(samples.len() as f64 / wall.as_secs_f64());
    for s in samples {
        out.preview_ms.push(ms(s.latency));
        out.preview_bytes.push(s.extra as f64);
        report.check(s.ok);
    }
    out.count += 1;
    let bytes = input.payload_bytes();
    out.write_mbps.push(rate_mbps(bytes, written.wall));
    out.restart_mbps.push(rate_mbps(bytes, restart.wall));
    out.open_ms.push(ms(restart.open));
    let w = written.max();
    for (v, d) in out.phases.iter_mut().zip([
        w.aggregation_time,
        w.shuffle_time,
        w.file_io_time,
        w.meta_time,
    ]) {
        v.push(ms(d));
    }
    let m = trace.metrics();
    out.comm_bytes
        .push(m.counter_value("comm.sent.bytes") as f64);
    out.comm_msgs.push(m.counter_value("comm.sent.msgs") as f64);
}

/// Run whole checkpoint cycles until `budget` has passed. With `traced`,
/// cycles alternate between untraced (first result) and traced (second),
/// so both see the same machine conditions.
fn cycles(
    ctx: &Ctx,
    input: &Input,
    levels: &[Vec<u32>],
    budget: Duration,
    traced: bool,
    report: &mut Report,
) -> (Cycles, Cycles) {
    let (mut plain, mut tr) = (Cycles::default(), Cycles::default());
    let t0 = Instant::now();
    for k in 0.. {
        if t0.elapsed() >= budget {
            break;
        }
        let storage = ctx.fresh_storage("ckpt");
        let before = ctx.io.totals();
        let out = if traced && k % 2 == 1 {
            let trace = Trace::collecting();
            let traced_storage = TracedStorage::new(storage.clone(), trace.clone(), 0);
            cycle(input, levels, &traced_storage, &trace, &mut tr, report);
            &mut tr
        } else {
            cycle(input, levels, &storage, &Trace::off(), &mut plain, report);
            &mut plain
        };
        out.io.add(&ctx.io.totals().since(&before));
        discard(&storage);
    }
    (plain, tr)
}

/// Set up: generate the particles, then run one untimed checkpoint cycle
/// as warm-up. Returns the input and the set-up time.
fn setup(ctx: &Ctx, levels: &[Vec<u32>], report: &mut Report) -> (Input, f64) {
    let t0 = Instant::now();
    let input = Input::generate(RANKS, PER_RANK, PartitionFactor::new(1, 2, 1), ctx.seed);
    let storage = ctx.fresh_storage("warmup");
    cycle(
        &input,
        levels,
        &storage,
        &Trace::off(),
        &mut Cycles::default(),
        report,
    );
    discard(&storage);
    (input, t0.elapsed().as_secs_f64())
}

pub fn run(ctx: &Ctx, traced: bool) -> Report {
    let mut report = Report::default();
    // Each client previews every level equally often, in a seeded order:
    // the cost mix is the same for every seed and client, only its order
    // changes.
    let levels: Vec<Vec<u32>> = (0..CLIENTS)
        .map(|c| {
            let mut l: Vec<u32> = (0..PREVIEWS_PER_CLIENT as u32)
                .map(|i| i % (MAX_PREVIEW_LEVEL + 1))
                .collect();
            Rng::seed_from_u64(ctx.seed ^ ((c as u64) << 32)).shuffle(&mut l);
            l
        })
        .collect();
    let mut setups = Vec::new();
    let mut input = None;
    for _ in 0..SETUPS {
        let (i, s) = setup(ctx, &levels, &mut report);
        setups.push(s);
        input = Some(i);
    }
    let input = input.expect("SETUPS > 0");

    if !traced {
        let (c, _) = cycles(
            ctx,
            &input,
            &levels,
            ctx.measure_for(1.0),
            false,
            &mut report,
        );
        let mut lat = c.preview_ms.clone();
        lat.sort_by(f64::total_cmp);
        report.metric("setup_s", median(&setups), "s");
        report.metric("write_mbps", median(&c.write_mbps), "MB/s");
        report.metric("restart_mbps", median(&c.restart_mbps), "MB/s");
        report.metric("query_qps", median(&c.preview_qps), "1/s");
        report.metric("query_p50_ms", percentile(&lat, 50.0), "ms");
        report.metric("query_p99_ms", percentile(&lat, 99.0), "ms");
        report.notes.push(format!(
            "ckpt_restart: {} checkpoints of {} particles, {} preview queries",
            c.count,
            input.particles(),
            lat.len()
        ));
        return report;
    }

    let (plain, tr) = cycles(
        ctx,
        &input,
        &levels,
        ctx.measure_for(1.0),
        true,
        &mut report,
    );
    let n = tr.count.max(1) as f64;
    let mut layers = LayerStats {
        aggregation_ms: median(&tr.phases[0]),
        shuffle_ms: median(&tr.phases[1]),
        file_io_ms: median(&tr.phases[2]),
        meta_ms: median(&tr.phases[3]),
        comm_bytes: median(&tr.comm_bytes),
        comm_msgs: median(&tr.comm_msgs),
        io: tr.io,
        storage_ops_per_unit: tr.io.ops() as f64 / n,
        bytes_per_query: tr.preview_bytes.iter().sum::<f64>()
            / tr.preview_bytes.len().max(1) as f64,
        open_ms: median(&tr.open_ms),
        overhead_frac: median(&tr.cycle_s) / median(&plain.cycle_s) - 1.0,
        ..LayerStats::default()
    };
    // The layer functions on this workload's own buffers: one aggregator's
    // 500 000-particle data file.
    let storage = ctx.fresh_storage("ledger");
    let outcome = dataset::write(&input, &storage, &Trace::off()).and_then(|_| {
        let restart = dataset::restart(&input, &storage)?;
        let meta = &restart.meta;
        // A preview reads a prefix of every file.
        layers.files_per_query = meta.entries.len() as f64;
        ledger::measure(&storage, meta, &[meta.domain], &mut layers, &mut report);
        engine_previews(&storage, &restart, &levels, &mut layers, &mut report)
    });
    report.check(outcome);
    discard(&storage);
    layers.emit(&mut report);
    report.notes.push(format!(
        "ckpt_restart traced: {} checkpoints untraced, {} traced",
        plain.count, tr.count
    ));
    report
}
