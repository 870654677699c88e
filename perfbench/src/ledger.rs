//! The per-layer ledger: what the traced run measured at each layer, plus
//! the layer functions timed on the buffers the workload itself produced.

use crate::storage::IoTotals;
use crate::util::{llc_bytes, median, ms, rate_mbps};
use crate::Report;
use spio_core::shuffle::lod_shuffle;
use spio_core::Storage;
use spio_format::data_file::{decode_data_file, encode_data_file};
use spio_format::{SpatialIndex, SpatialMetadata};
use spio_serve::QueryStats;
use spio_types::particle::{decode_particles, encode_particles};
use spio_types::Aabb3;
use spio_util::crc32;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Everything the per-layer table reports.
#[derive(Default)]
pub struct LayerStats {
    pub aggregation_ms: f64,
    pub shuffle_ms: f64,
    pub file_io_ms: f64,
    pub meta_ms: f64,
    pub comm_bytes: f64,
    pub comm_msgs: f64,
    pub shuffle_mps: f64,
    pub format_encode_mbps: f64,
    pub format_decode_mbps: f64,
    pub crc_mbps: f64,
    pub codec_encode_mbps: f64,
    pub codec_decode_mbps: f64,
    pub io: IoTotals,
    pub storage_ops_per_unit: f64,
    pub bytes_per_query: f64,
    pub open_ms: f64,
    pub index_query_us: f64,
    pub files_per_query: f64,
    pub hit_ratio: f64,
    pub hit_query_p50_ms: f64,
    pub miss_query_p50_ms: f64,
    pub evictions: f64,
    pub queue_ms: f64,
    pub engine_ms: f64,
    pub overhead_frac: f64,
}

impl LayerStats {
    pub fn emit(&self, r: &mut Report) {
        let io = &self.io;
        for (name, value, unit) in [
            ("writer.aggregation_ms", self.aggregation_ms, "ms"),
            ("writer.shuffle_ms", self.shuffle_ms, "ms"),
            ("writer.file_io_ms", self.file_io_ms, "ms"),
            ("writer.meta_ms", self.meta_ms, "ms"),
            ("comm.bytes_per_ckpt", self.comm_bytes, "bytes"),
            ("comm.msgs_per_ckpt", self.comm_msgs, "count"),
            ("shuffle.mparticles_per_s", self.shuffle_mps, "M/s"),
            ("format.encode_mbps", self.format_encode_mbps, "MB/s"),
            ("format.decode_mbps", self.format_decode_mbps, "MB/s"),
            ("crc.mbps", self.crc_mbps, "MB/s"),
            ("codec.encode_mbps", self.codec_encode_mbps, "MB/s"),
            ("codec.decode_mbps", self.codec_decode_mbps, "MB/s"),
            (
                "storage.write_mbps",
                rate_mbps(io.write_bytes, Duration::from_nanos(io.write_ns)),
                "MB/s",
            ),
            (
                "storage.read_mbps",
                rate_mbps(io.read_bytes, Duration::from_nanos(io.read_ns)),
                "MB/s",
            ),
            ("storage.ops", self.storage_ops_per_unit, "count"),
            ("storage.bytes_per_query", self.bytes_per_query, "bytes"),
            ("reader.open_ms", self.open_ms, "ms"),
            ("index.query_us", self.index_query_us, "us"),
            ("index.files_per_query", self.files_per_query, "count"),
            ("cache.hit_ratio", self.hit_ratio, "ratio"),
            ("cache.hit_query_p50_ms", self.hit_query_p50_ms, "ms"),
            ("cache.miss_query_p50_ms", self.miss_query_p50_ms, "ms"),
            ("cache.evictions", self.evictions, "count"),
            ("serve.queue_ms", self.queue_ms, "ms"),
            ("serve.engine_ms", self.engine_ms, "ms"),
            ("trace.overhead_frac", self.overhead_frac, "ratio"),
        ] {
            r.metric(name, value, unit);
        }
    }
}

/// The cache and serving-pool layers from per-query `QueryStats` (the
/// registry counters behind `cache_stats()` stay 0 on an untraced engine)
/// and the client-observed latency of the same queries.
pub fn engine_layers(latency_ms: &[f64], stats: &[QueryStats], layers: &mut LayerStats) {
    let (mut hit_ms, mut miss_ms, mut queue_ms, mut engine_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut lookups) = (0u64, 0u64);
    for (lat, s) in latency_ms.iter().zip(stats) {
        if s.cache_misses == 0 {
            hit_ms.push(*lat);
        } else {
            miss_ms.push(*lat);
        }
        // `QueryStats.latency` starts after admission; the rest of the
        // client's wait is queueing.
        let engine_lat = ms(s.latency);
        engine_ms.push(engine_lat);
        queue_ms.push(lat - engine_lat);
        hits += s.cache_hits;
        lookups += s.cache_hits + s.cache_misses;
    }
    layers.hit_ratio = hits as f64 / lookups.max(1) as f64;
    layers.hit_query_p50_ms = median(&hit_ms);
    layers.miss_query_p50_ms = median(&miss_ms);
    layers.queue_ms = median(&queue_ms);
    layers.engine_ms = median(&engine_ms);
}

/// Median rate of `units / seconds` over repeated calls of `op` on a fresh
/// `input()` each time (at least 3 calls, and at least 0.2 s of calls).
fn rate<T, R>(units: f64, input: impl Fn() -> T, op: impl Fn(T) -> R) -> f64 {
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.len() < 3 || (start.elapsed() < Duration::from_millis(200) && rates.len() < 64) {
        let x = input();
        let t = Instant::now();
        black_box(op(black_box(x)));
        rates.push(units / t.elapsed().as_secs_f64());
    }
    median(&rates)
}

/// Time the layer functions on one written data file of the workload and
/// on its query regions; the buffer's size is reported next to the
/// last-level cache so each rate reads as an in-cache or out-of-cache rate.
pub fn measure<S: Storage>(
    storage: &S,
    meta: &SpatialMetadata,
    regions: &[Aabb3],
    layers: &mut LayerStats,
    report: &mut Report,
) {
    let name = meta.entries[0].file_name();
    let file = match storage.read_file(&name) {
        Ok(b) => b,
        Err(e) => return report.check(Err(format!("ledger read {name}: {e}"))),
    };
    let (header, particles) = match decode_data_file(&file) {
        Ok(x) => x,
        Err(e) => return report.check(Err(format!("ledger decode {name}: {e}"))),
    };
    report.check(Ok(()));
    let payload = encode_particles(&particles);
    let (mb, n) = (file.len() as f64 / 1e6, particles.len() as f64);

    layers.crc_mbps = rate(mb, || (), |_| crc32(&file));
    layers.format_decode_mbps = rate(mb, || (), |_| decode_data_file(&file));
    layers.format_encode_mbps = rate(mb, || (), |_| encode_data_file(&header, &particles));
    layers.codec_encode_mbps = rate(
        payload.len() as f64 / 1e6,
        || (),
        |_| encode_particles(&particles),
    );
    layers.codec_decode_mbps = rate(
        payload.len() as f64 / 1e6,
        || (),
        |_| decode_particles(&payload),
    );
    layers.shuffle_mps = rate(
        n / 1e6,
        || particles.clone(),
        |mut p| {
            lod_shuffle(&mut p, header.shuffle_seed);
            p
        },
    );

    let index = SpatialIndex::build(meta);
    let per_call = rate(
        regions.len() as f64,
        || (),
        |_| regions.iter().map(|r| index.query(r).len()).sum::<usize>(),
    );
    layers.index_query_us = 1e6 / per_call;

    let llc = llc_bytes();
    let llc_mb = llc.map_or(f64::NAN, |b| b as f64 / 1e6);
    let place = match llc {
        Some(b) if (file.len() as u64) * 2 <= b => "in-cache",
        Some(_) => "out-of-cache",
        None => "cache size unknown",
    };
    report.notes.push(format!(
        "ledger buffer: data file '{name}' of {} particles, {mb:.2} MB encoded \
         ({:.2} MB decoded), last-level cache {llc_mb:.1} MB -> {place} rates \
         (crc32, encode/decode_data_file, encode/decode_particles, lod_shuffle); \
         index over {} regions",
        particles.len(),
        particles.len() as f64 * std::mem::size_of_val(&particles[0]) as f64 / 1e6,
        regions.len()
    ));
}
