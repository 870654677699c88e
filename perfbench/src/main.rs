//! One benchmark for spio's checkpoint and serving paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ckpt_restart|serve_hot|serve_scan> --seed <n> --seconds <s> --trace <0|1>
//!     [--storage-slowdown <k>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing hook
//! attached. `--trace 1` runs the workload once untraced and once with the
//! library's public hooks (`Trace::collecting`, `TracedComm`,
//! `TracedStorage`, `QueryEngine::open_traced`) and this benchmark's own
//! timing wrappers attached, then times the layer functions on the buffers
//! the workload produced, and prints the per-layer ledger. Both modes check
//! every result against the serial reader and print, as the last line, one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--storage-slowdown k` makes every storage read and write take `k` times
//! as long (the sensitivity check; see README.md).
//!
//! Work happens in `.perfbench_tmp/<pid>` under the current directory,
//! which is removed at exit.

mod ckpt;
mod dataset;
mod ledger;
mod serve;
mod storage;
mod util;

use spio_core::FsStorage;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{BenchStorage, IoCounters};

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUPS: usize = 3;
/// Closed-loop clients (the machine the benchmark targets has 2 cores).
pub const CLIENTS: usize = 2;

/// Settings of one run, shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub slowdown: f64,
    scratch: PathBuf,
    next_dir: std::sync::atomic::AtomicU64,
    pub io: Arc<IoCounters>,
}

impl Ctx {
    /// A fresh, empty dataset directory under the run's scratch directory.
    pub fn fresh_storage(&self, what: &str) -> BenchStorage {
        let n = self
            .next_dir
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = self.scratch.join(format!("{what}-{n}"));
        BenchStorage::new(FsStorage::new(dir), self.slowdown, Arc::clone(&self.io))
    }

    pub fn measure_for(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Delete a dataset directory the run no longer needs.
pub fn discard(storage: &BenchStorage) {
    // Best effort: the whole scratch directory is removed at exit anyway.
    let _ = std::fs::remove_dir_all(storage.root());
}

/// Outcome of a run: operations attempted and failed, and the metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// Count one operation; `Err` counts it as failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One closed-loop client measurement.
pub struct Sample<T> {
    pub latency: Duration,
    pub ok: Result<(), String>,
    pub extra: T,
}

/// When a closed-loop client stops: after `ops` operations or at the
/// first operation boundary past `deadline`, whichever comes first.
pub struct Stop {
    pub ops: usize,
    pub deadline: Option<Instant>,
}

impl Stop {
    pub fn after(ops: usize) -> Stop {
        Stop {
            ops,
            deadline: None,
        }
    }

    pub fn at(deadline: Instant) -> Stop {
        Stop {
            ops: usize::MAX,
            deadline: Some(deadline),
        }
    }
}

/// Run `CLIENTS` closed-loop clients: each issues its next operation only
/// when the previous one returned. `op(client, i)` performs and times the
/// client's `i`-th operation. Returns every sample and the loop's wall time.
pub fn closed_loop<T: Send>(
    stop: Stop,
    op: impl Fn(usize, usize) -> Sample<T> + Sync,
) -> (Vec<Sample<T>>, Duration) {
    let t0 = Instant::now();
    let per_client: Vec<Vec<Sample<T>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (op, stop) = (&op, &stop);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..stop.ops {
                        if stop.deadline.is_some_and(|t| Instant::now() >= t) {
                            break;
                        }
                        out.push(op(c, i));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (per_client.into_iter().flatten().collect(), t0.elapsed())
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <ckpt_restart|serve_hot|serve_scan> --seed <n> \
         --seconds <s> --trace <0|1> [--storage-slowdown <k>]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(value: &str) -> T {
    value.parse().unwrap_or_else(|_| usage())
}

fn main() {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut slowdown) = (1u64, 10.0f64, false, 1.0f64);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = parse(&value),
            "--seconds" => seconds = parse(&value),
            "--trace" => trace = parse::<u8>(&value) == 1,
            "--storage-slowdown" => slowdown = parse(&value),
            _ => usage(),
        }
    }
    if !(seconds > 0.0 && slowdown >= 1.0) {
        usage();
    }
    let scratch = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    let ctx = Ctx {
        seed,
        seconds,
        slowdown,
        scratch: scratch.clone(),
        next_dir: Default::default(),
        io: Arc::default(),
    };
    let mut report = match workload.as_deref() {
        Some("ckpt_restart") => ckpt::run(&ctx, trace),
        Some("serve_hot") => serve::run(&ctx, &serve::HOT, trace),
        Some("serve_scan") => serve::run(&ctx, &serve::SCAN, trace),
        _ => usage(),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    // Remove the parent too once no concurrent run uses it.
    let _ = std::fs::remove_dir(".perfbench_tmp");

    if !trace {
        report.metric("peak_rss_mb", util::peak_rss_mb(), "MB");
    }
    for line in &report.notes {
        println!("{line}");
    }
    println!(
        "error_frac {:.6} ratio ({} of {} operations failed, partial or wrong)",
        report.error_frac(),
        report.failed,
        report.attempted
    );
    for e in &report.errors {
        println!("error: {e}");
    }
    for (n, v, u) in &report.metrics {
        println!("{n:<28} {v:>14.4} {u}");
    }
    println!("{}", report.json());
}
