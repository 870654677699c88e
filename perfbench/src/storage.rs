//! The benchmark's own [`Storage`] wrapper: it counts and times every read
//! and write the library issues (the `storage.*` layer metrics), and can
//! stretch each read and write by a factor for the sensitivity check.

use spio_core::{FsStorage, Storage};
use spio_types::SpioError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Operation counters. The atomics publish no other data, so `Relaxed`
/// is enough; totals are read after the threads that update them joined.
#[derive(Debug, Default)]
pub struct IoCounters {
    pub read_ops: AtomicU64,
    pub read_bytes: AtomicU64,
    pub read_ns: AtomicU64,
    pub write_ops: AtomicU64,
    pub write_bytes: AtomicU64,
    pub write_ns: AtomicU64,
}

/// A point-in-time copy of [`IoCounters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IoTotals {
    pub read_ops: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
    pub write_ops: u64,
    pub write_bytes: u64,
    pub write_ns: u64,
}

impl IoTotals {
    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &IoTotals) -> IoTotals {
        IoTotals {
            read_ops: self.read_ops - earlier.read_ops,
            read_bytes: self.read_bytes - earlier.read_bytes,
            read_ns: self.read_ns - earlier.read_ns,
            write_ops: self.write_ops - earlier.write_ops,
            write_bytes: self.write_bytes - earlier.write_bytes,
            write_ns: self.write_ns - earlier.write_ns,
        }
    }

    pub fn add(&mut self, other: &IoTotals) {
        self.read_ops += other.read_ops;
        self.read_bytes += other.read_bytes;
        self.read_ns += other.read_ns;
        self.write_ops += other.write_ops;
        self.write_bytes += other.write_bytes;
        self.write_ns += other.write_ns;
    }

    pub fn ops(&self) -> u64 {
        self.read_ops + self.write_ops
    }
}

/// [`FsStorage`] plus per-operation counting and an optional slowdown.
///
/// With `slowdown = k > 1`, every read and write sleeps `(k - 1)` times the
/// duration the filesystem took, so the operation costs `k` times as much
/// wall time — a storage regression injected below the library.
#[derive(Debug, Clone)]
pub struct BenchStorage {
    inner: FsStorage,
    slowdown: f64,
    counters: Arc<IoCounters>,
}

impl BenchStorage {
    pub fn new(inner: FsStorage, slowdown: f64, counters: Arc<IoCounters>) -> Self {
        BenchStorage {
            inner,
            slowdown,
            counters,
        }
    }

    fn timed<T>(
        &self,
        op: impl FnOnce(&FsStorage) -> Result<T, SpioError>,
        bytes: impl Fn(&T) -> u64,
        write: bool,
    ) -> Result<T, SpioError> {
        let t0 = Instant::now();
        let result = op(&self.inner);
        let took = t0.elapsed();
        if self.slowdown > 1.0 {
            std::thread::sleep(took.mul_f64(self.slowdown - 1.0));
        }
        let ns = t0.elapsed().as_nanos() as u64;
        let n = result.as_ref().map_or(0, bytes);
        let c = &self.counters;
        let (ops, byte_total, time) = if write {
            (&c.write_ops, &c.write_bytes, &c.write_ns)
        } else {
            (&c.read_ops, &c.read_bytes, &c.read_ns)
        };
        ops.fetch_add(1, Ordering::Relaxed);
        byte_total.fetch_add(n, Ordering::Relaxed);
        time.fetch_add(ns, Ordering::Relaxed);
        result
    }

    pub fn root(&self) -> &std::path::Path {
        self.inner.root()
    }
}

impl IoCounters {
    pub fn totals(&self) -> IoTotals {
        IoTotals {
            read_ops: self.read_ops.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            read_ns: self.read_ns.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
        }
    }
}

impl Storage for BenchStorage {
    fn write_file(&self, name: &str, data: &[u8]) -> Result<(), SpioError> {
        let len = data.len() as u64;
        self.timed(|s| s.write_file(name, data), |_| len, true)
    }

    fn read_file(&self, name: &str) -> Result<Vec<u8>, SpioError> {
        self.timed(|s| s.read_file(name), |b| b.len() as u64, false)
    }

    fn read_range(&self, name: &str, start: u64, end: u64) -> Result<Vec<u8>, SpioError> {
        self.timed(
            |s| s.read_range(name, start, end),
            |b| b.len() as u64,
            false,
        )
    }

    fn file_size(&self, name: &str) -> Result<u64, SpioError> {
        self.inner.file_size(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn write_range(&self, name: &str, offset: u64, data: &[u8]) -> Result<(), SpioError> {
        let len = data.len() as u64;
        self.timed(|s| s.write_range(name, offset, data), |_| len, true)
    }
}
