//! # spio-trace
//!
//! The observability layer for the I/O system. The paper's whole evaluation
//! is about *where time goes* — aggregation vs. file I/O (Fig. 6), files
//! touched per query, bytes moved per rank — and related I/O studies lean on
//! Darshan-style per-operation records to characterize behaviour. This crate
//! provides the recording substrate plus the analysis and export layers:
//!
//! * [`Trace`] — a cloneable handle shared by all ranks of a job. Disabled
//!   by default ([`Trace::off`]), in which case every recording call is a
//!   branch on a `None` and performs **no allocation and no locking**.
//!   Enabled recording goes to *per-rank sharded buffers*: each recording
//!   rank owns a shard, so its lock is uncontended and enabled tracing no
//!   longer serializes the job it is measuring. Every event carries a
//!   timestamp relative to the trace's creation (the *job epoch*), and
//!   storage-op file names are interned to `u32` ids so the hot path never
//!   clones a `String`.
//! * [`TraceEvent`] — the record kinds: per-rank *phase spans*, the
//!   per-`(src, dst, tag)` *communication matrix* entries captured by the
//!   instrumented `Comm` wrapper in `spio-comm`, Darshan-style *storage-op
//!   records* captured by the instrumented `Storage` wrappers in
//!   `spio-core`, and *fault events* (injected chaos faults and organic
//!   storage errors).
//! * [`Metrics`] — a lock-free registry of counters, gauges, and
//!   power-of-two-bucket histograms (p50/p95/p99), carried by every enabled
//!   trace and populated by the same wrappers; exported as JSONL.
//! * [`TraceSnapshot`] — the merged event stream plus the file-name table,
//!   serializable as JSON; feeds [`JobReport`] (the `spio report`
//!   summary: Fig. 6-style phase breakdown, latency percentiles,
//!   imbalance/straggler tables) and [`chrome_trace`] (Chrome trace-event
//!   export for `chrome://tracing`/Perfetto, one lane per rank).

mod chrome;
mod metrics;
mod report;
mod shard;

pub use chrome::{chrome_trace, validate_chrome_trace};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Metrics, HISTOGRAM_BUCKETS};
pub use report::{
    AggBytes, CommEntry, FaultTotal, ImbalanceRow, JobReport, MetricRow, OpLatency, PhaseTotal,
    StorageTotal, VerifyTotal,
};
pub use shard::{TraceSnapshot, SHARD_COUNT};

use shard::{EventShards, FileTable};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Message direction for communication-matrix records: each message is
/// recorded once when posted and once when its receive completes, which is
/// what lets tests assert byte conservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Sent,
    Received,
}

/// One recorded observation. Timestamps (`start_us`, `at_us`) are
/// microseconds since the job epoch — the moment the [`Trace`] was created.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A rank spent `dur` inside the named phase, starting at `start_us`.
    /// Phase names are static so recording a span never allocates.
    Phase {
        rank: usize,
        phase: &'static str,
        start_us: u64,
        dur: Duration,
    },
    /// A point-to-point message of `bytes` payload bytes between two ranks,
    /// observed at `at_us` (post time for `Sent`, completion for
    /// `Received`).
    Message {
        src: usize,
        dst: usize,
        tag: u32,
        bytes: u64,
        dir: Dir,
        at_us: u64,
    },
    /// A Darshan-style storage-operation record. `file` is an id into the
    /// trace's file table (see [`TraceSnapshot::files`]).
    StorageOp {
        rank: usize,
        op: &'static str,
        file: u32,
        bytes: u64,
        start_us: u64,
        dur: Duration,
    },
    /// A storage fault: `injected == true` for chaos-injected faults,
    /// `false` for organic errors observed by the traced wrappers. `kind`
    /// names the fault ("transient", "torn_write", "io_error", …).
    Fault {
        rank: usize,
        kind: &'static str,
        file: u32,
        injected: bool,
        at_us: u64,
    },
    /// A correctness finding emitted by the verification layer
    /// (`spio-verify`'s `CheckedComm`): a rule identifier such as
    /// "collective-mismatch", "handle-leak", or "stall", plus a
    /// human-readable detail string (the rank diff / wait-for graph).
    Verify {
        rank: usize,
        rule: &'static str,
        detail: String,
        at_us: u64,
    },
}

struct Shared {
    /// The job epoch: all event timestamps are relative to this instant.
    epoch: Instant,
    shards: EventShards,
    files: FileTable,
    metrics: Metrics,
}

/// Recording handle. Cheap to clone; clones share the same buffers, so one
/// `Trace::collecting()` handed to every rank of a threaded job yields a
/// single merged event stream.
#[derive(Clone, Default)]
pub struct Trace {
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Trace {
    /// The no-op sink: every recording call returns immediately without
    /// allocating. This is the default everywhere tracing is optional.
    pub fn off() -> Trace {
        Trace { shared: None }
    }

    /// An enabled, collecting sink. Creation time becomes the job epoch.
    pub fn collecting() -> Trace {
        Trace {
            shared: Some(Arc::new(Shared {
                epoch: Instant::now(),
                shards: EventShards::new(),
                files: FileTable::new(),
                metrics: Metrics::enabled(),
            })),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Microseconds since the job epoch (0 for a disabled trace).
    #[inline]
    pub fn now_us(&self) -> u64 {
        match &self.shared {
            Some(s) => s.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// The metrics registry carried by this trace. Disabled traces return
    /// the inert registry, so callers can register instruments
    /// unconditionally.
    pub fn metrics(&self) -> Metrics {
        match &self.shared {
            Some(s) => s.metrics.clone(),
            None => Metrics::disabled(),
        }
    }

    /// Record a phase span that *ends now*: the start timestamp is derived
    /// as `now - dur`, which matches how callers measure (an `Instant`
    /// read before the phase, `elapsed()` after).
    #[inline]
    pub fn phase(&self, rank: usize, phase: &'static str, dur: Duration) {
        if let Some(s) = &self.shared {
            let end = s.epoch.elapsed().as_micros() as u64;
            let start_us = end.saturating_sub(dur.as_micros() as u64);
            s.shards.push(
                rank,
                TraceEvent::Phase {
                    rank,
                    phase,
                    start_us,
                    dur,
                },
            );
        }
    }

    /// Record one side of a point-to-point message. The event lands in the
    /// shard of the rank doing the recording: `src` for sends, `dst` for
    /// receives.
    #[inline]
    pub fn message(&self, src: usize, dst: usize, tag: u32, bytes: u64, dir: Dir) {
        if let Some(s) = &self.shared {
            let at_us = s.epoch.elapsed().as_micros() as u64;
            let owner = match dir {
                Dir::Sent => src,
                Dir::Received => dst,
            };
            s.shards.push(
                owner,
                TraceEvent::Message {
                    src,
                    dst,
                    tag,
                    bytes,
                    dir,
                    at_us,
                },
            );
        }
    }

    /// Record a storage operation that ends now. The file name is interned
    /// into the trace's file table — after the first op on a given file the
    /// enabled hot path performs no allocation, and the disabled path never
    /// touches the name at all.
    #[inline]
    pub fn storage_op(&self, rank: usize, op: &'static str, file: &str, bytes: u64, dur: Duration) {
        if let Some(s) = &self.shared {
            let file = s.files.intern(file);
            let end = s.epoch.elapsed().as_micros() as u64;
            let start_us = end.saturating_sub(dur.as_micros() as u64);
            s.shards.push(
                rank,
                TraceEvent::StorageOp {
                    rank,
                    op,
                    file,
                    bytes,
                    start_us,
                    dur,
                },
            );
        }
    }

    /// Record a storage fault: chaos-injected (`injected == true`) or
    /// organic (an error surfaced by a real backend).
    #[inline]
    pub fn fault(&self, rank: usize, kind: &'static str, file: &str, injected: bool) {
        if let Some(s) = &self.shared {
            let file = s.files.intern(file);
            let at_us = s.epoch.elapsed().as_micros() as u64;
            s.shards.push(
                rank,
                TraceEvent::Fault {
                    rank,
                    kind,
                    file,
                    injected,
                    at_us,
                },
            );
        }
    }

    /// Record a verifier finding. `rule` is the stable identifier the job
    /// report aggregates by; `detail` carries the rank-attributed diagnosis
    /// (allocated only when a finding actually fires, so this is never on a
    /// hot path).
    #[inline]
    pub fn verify_finding(&self, rank: usize, rule: &'static str, detail: String) {
        if let Some(s) = &self.shared {
            let at_us = s.epoch.elapsed().as_micros() as u64;
            s.shards.push(
                rank,
                TraceEvent::Verify {
                    rank,
                    rule,
                    detail,
                    at_us,
                },
            );
        }
    }

    /// Clone of all events recorded so far (empty for a disabled trace),
    /// merged across shards. Prefer [`Trace::snapshot`] when file names are
    /// needed, or [`Trace::take_events`] to avoid the clone on long jobs.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.shared {
            Some(s) => s.shards.merged(),
            None => Vec::new(),
        }
    }

    /// Drain all recorded events, leaving the trace empty (and recording
    /// still enabled). Long-running jobs use this to ship events in chunks
    /// without re-cloning an ever-growing vec.
    pub fn take_events(&self) -> Vec<TraceEvent> {
        match &self.shared {
            Some(s) => s.shards.drain(),
            None => Vec::new(),
        }
    }

    /// Merged snapshot: a clone of the events plus the file-name table.
    pub fn snapshot(&self) -> TraceSnapshot {
        match &self.shared {
            Some(s) => TraceSnapshot {
                events: s.shards.merged(),
                files: s.files.names(),
            },
            None => TraceSnapshot::default(),
        }
    }

    /// Draining snapshot: like [`Trace::snapshot`] but moves the events out
    /// instead of cloning them. The file table is retained (ids stay
    /// stable across takes).
    pub fn take_snapshot(&self) -> TraceSnapshot {
        match &self.shared {
            Some(s) => TraceSnapshot {
                events: s.shards.drain(),
                files: s.files.names(),
            },
            None => TraceSnapshot::default(),
        }
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        match &self.shared {
            Some(s) => s.shards.len(),
            None => 0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let t = Trace::off();
        t.phase(0, "setup", Duration::from_millis(1));
        t.message(0, 1, 2, 100, Dir::Sent);
        t.storage_op(0, "write_file", "f.spd", 10, Duration::ZERO);
        t.fault(0, "transient", "f.spd", true);
        assert!(!t.is_enabled());
        assert!(t.is_empty());
        assert!(t.events().is_empty());
        assert!(t.snapshot().events.is_empty());
        assert!(!t.metrics().is_enabled());
    }

    #[test]
    fn collecting_shares_buffer_across_clones() {
        let t = Trace::collecting();
        let t2 = t.clone();
        t.phase(0, "setup", Duration::from_millis(1));
        t2.message(1, 0, 7, 64, Dir::Received);
        assert_eq!(t.len(), 2);
        assert_eq!(t.snapshot(), t2.snapshot());
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let t = Trace::collecting();
        let handles: Vec<_> = (0..8)
            .map(|r| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        t.message(r, (r + 1) % 8, 1, i, Dir::Sent);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), 800);
    }

    #[test]
    fn storage_op_interns_file_names() {
        let t = Trace::collecting();
        t.storage_op(0, "write_file", "a.spd", 1, Duration::ZERO);
        t.storage_op(1, "read_file", "b.spd", 2, Duration::ZERO);
        t.storage_op(2, "read_file", "a.spd", 3, Duration::ZERO);
        let snap = t.snapshot();
        assert_eq!(snap.files, vec!["a.spd", "b.spd"]);
        let ids: Vec<u32> = snap
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::StorageOp { file, .. } => *file,
                _ => unreachable!(),
            })
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 0, 1]);
    }

    #[test]
    fn take_events_drains() {
        let t = Trace::collecting();
        t.phase(0, "setup", Duration::from_millis(1));
        t.phase(1, "setup", Duration::from_millis(2));
        let taken = t.take_events();
        assert_eq!(taken.len(), 2);
        assert!(t.is_empty(), "take_events leaves the trace empty");
        t.phase(2, "setup", Duration::from_millis(3));
        assert_eq!(t.len(), 1, "recording continues after a take");
    }

    #[test]
    fn take_snapshot_keeps_file_table() {
        let t = Trace::collecting();
        t.storage_op(0, "write_file", "a.spd", 1, Duration::ZERO);
        let first = t.take_snapshot();
        assert_eq!(first.files, vec!["a.spd"]);
        t.storage_op(0, "read_file", "a.spd", 1, Duration::ZERO);
        let second = t.take_snapshot();
        // Same id resolves in the second snapshot too.
        assert_eq!(second.files, vec!["a.spd"]);
        assert_eq!(second.events.len(), 1);
    }

    #[test]
    fn timestamps_are_monotonic_per_thread() {
        let t = Trace::collecting();
        t.phase(0, "a", Duration::ZERO);
        std::thread::sleep(Duration::from_millis(1));
        t.phase(0, "b", Duration::ZERO);
        let events = t.events();
        let ts: Vec<u64> = events
            .iter()
            .map(|e| match e {
                TraceEvent::Phase { start_us, .. } => *start_us,
                _ => unreachable!(),
            })
            .collect();
        assert!(ts[0] < ts[1], "epoch-relative timestamps advance: {ts:?}");
    }

    #[test]
    fn phase_start_is_end_minus_duration() {
        let t = Trace::collecting();
        std::thread::sleep(Duration::from_millis(2));
        t.phase(0, "work", Duration::from_millis(1));
        match t.events()[0] {
            TraceEvent::Phase { start_us, dur, .. } => {
                // The span ended "now" (≥ 2ms after epoch) and started
                // `dur` earlier, so start ≥ 1ms after epoch.
                assert!(start_us >= 1_000, "start_us = {start_us}");
                assert_eq!(dur, Duration::from_millis(1));
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn metrics_shared_across_clones() {
        let t = Trace::collecting();
        t.metrics().counter("x").add(2);
        t.clone().metrics().counter("x").add(3);
        assert_eq!(t.metrics().counter_value("x"), 5);
    }
}
