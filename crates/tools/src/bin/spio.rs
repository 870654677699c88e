//! The `spio` command-line tool: inspect, validate, query, serve and
//! convert spatially-aware particle datasets, and run the bench gates.
//!
//! ```text
//! spio inspect  <dir>
//! spio validate <dir>
//! spio gen      <dir> [procs] [per-rank]
//! spio query    <dir> <x0> <y0> <z0> <x1> <y1> <z1> [--density <lo> <hi> | --lod L]
//! spio lod      <dir> [readers]
//! spio report   <job-report.json>
//! spio trace    <trace-snapshot.json> --chrome <out.json>
//! spio check-trace <chrome-trace.json>
//! spio bench    [--read] [--procs N] [--per-rank N] [--runs N] [--baseline F]
//!               [--write F] [--trace-out F] [--report-out F] [--metrics-out F]
//!               [--clients N] [--queries N]      (the last two only with --read)
//! spio serve-bench <dir> [--clients N] [--queries N] [--workers N] [--seed N]
//!                  [--report-out F]
//! spio series   <dir>
//! spio render   <dir> <out.ppm>
//! spio lint     [root] [--update]
//! spio verify-comm [--procs N] [--seeds K]
//! spio convert-fpp <src-dir> <nwriters> <dst-dir> <PxxPyxPz> \
//!                  <x0> <y0> <z0> <x1> <y1> <z1>
//! ```

use spio_bench::regression::{self, BenchConfig, BenchRecord};
use spio_tools::open_dir;
use spio_trace::{chrome_trace, validate_chrome_trace, TraceSnapshot};
use spio_types::{Aabb3, PartitionFactor, SpioError};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  spio inspect  <dir>\n  spio validate <dir>\n  \
         spio gen      <dir> [procs] [per-rank]\n  \
         spio query    <dir> <x0> <y0> <z0> <x1> <y1> <z1> [--density <lo> <hi> | --lod L]\n  \
         spio lod      <dir> [readers]\n  \
         spio report   <job-report.json>\n  \
         spio trace    <trace-snapshot.json> --chrome <out.json>\n  \
         spio check-trace <chrome-trace.json>\n  \
         spio bench    [--read] [--procs N] [--per-rank N] [--runs N] [--baseline F] \
         [--write F] [--trace-out F] [--report-out F] [--metrics-out F] \
         [--clients N] [--queries N] (the last two only with --read)\n  \
         spio serve-bench <dir> [--clients N] [--queries N] [--workers N] [--seed N] \
         [--report-out F]\n  \
         spio series   <dir>\n  \
         spio render   <dir> <out.ppm>\n  \
         spio lint     [root] [--update]\n  \
         spio verify-comm [--procs N] [--seeds K]\n  \
         spio convert-fpp <src-dir> <nwriters> <dst-dir> <PxxPyxPz> <x0> <y0> <z0> <x1> <y1> <z1>"
    );
    ExitCode::from(2)
}

fn config_err(msg: impl Into<String>) -> SpioError {
    SpioError::Config(msg.into())
}

/// `spio trace`: export a trace snapshot to Chrome trace-event JSON (load
/// via chrome://tracing or Perfetto; one lane per rank).
fn trace_cmd(file: &str, out: &str) -> Result<(), SpioError> {
    let text = std::fs::read_to_string(file)?;
    let snapshot = TraceSnapshot::from_json(&text).map_err(SpioError::Format)?;
    std::fs::write(out, chrome_trace(&snapshot))?;
    println!("wrote {out} ({} events)", snapshot.events.len());
    Ok(())
}

/// Write one bench artifact if its flag was given.
fn write_artifact(
    out: Option<&str>,
    what: &str,
    body: impl FnOnce() -> String,
) -> Result<(), SpioError> {
    if let Some(out) = out {
        std::fs::write(out, body())?;
        println!("wrote {what} {out}");
    }
    Ok(())
}

/// `spio bench [--read]`: run the desk-scale Fig. 6 write workload, or with
/// `--read` the read-serving workload, under full tracing; optionally write
/// the record and trace artifacts, and gate against a baseline record
/// (exit 1 on regression).
fn bench_cmd(rest: &[String]) -> Result<(), SpioError> {
    let read = rest.iter().any(|a| a == "--read");
    let mut cfg = if read {
        BenchConfig::read()
    } else {
        BenchConfig::fig6()
    };
    let (mut baseline, mut write_out, mut trace_out) = (None, None, None);
    let (mut report_out, mut metrics_out) = (None, None);
    let mut args = rest.iter().map(String::as_str);
    while let Some(flag) = args.next() {
        if flag == "--read" {
            continue;
        }
        let val = args
            .next()
            .ok_or_else(|| config_err(format!("{flag} needs a value")))?;
        let parse_n = || {
            val.parse::<usize>()
                .map_err(|_| config_err(format!("{flag}: '{val}' is not a number")))
        };
        match flag {
            "--procs" => cfg.procs = parse_n()?.max(1),
            "--per-rank" => cfg.per_rank = parse_n()?,
            "--runs" => cfg.runs = parse_n()?.max(1),
            "--clients" | "--queries" if !read => {
                return Err(config_err(format!("{flag} applies only with --read")))
            }
            "--clients" => cfg.clients = parse_n()?.max(1),
            "--queries" => cfg.queries_per_client = parse_n()?,
            "--baseline" => baseline = Some(val),
            "--write" => write_out = Some(val),
            "--trace-out" => trace_out = Some(val),
            "--report-out" => report_out = Some(val),
            "--metrics-out" => metrics_out = Some(val),
            _ => return Err(config_err(format!("unknown flag {flag}"))),
        }
    }
    // Load the baseline before the (slow) workload so a bad path or
    // malformed record fails fast.
    let base = baseline
        .map(|f| BenchRecord::from_json(&std::fs::read_to_string(f)?).map_err(SpioError::Format))
        .transpose()?;
    let run = if read {
        println!(
            "running read workload: {} ranks x {} particles, {} clients x {} queries, {} run(s)",
            cfg.procs, cfg.per_rank, cfg.clients, cfg.queries_per_client, cfg.runs
        );
        regression::run_read_bench(&cfg)?
    } else {
        println!(
            "running fig6 workload: {} ranks x {} particles, {} run(s) per config",
            cfg.procs, cfg.per_rank, cfg.runs
        );
        regression::run_fig6(&cfg)?
    };
    for (name, us) in &run.record.timings_us {
        println!("  {name:<20} {us:>9} µs");
    }
    for (name, v) in &run.record.info {
        println!("  {name:<20} {v:>9}");
    }
    write_artifact(write_out, "baseline", || run.record.to_json())?;
    write_artifact(trace_out, "trace snapshot", || run.snapshot.to_json())?;
    write_artifact(report_out, "job report", || run.report.to_json())?;
    write_artifact(metrics_out, "metrics", || run.metrics_jsonl.clone())?;
    if let (Some(base), Some(base_file)) = (&base, baseline) {
        let regressions = regression::compare(base, &run.record, regression::DEFAULT_THRESHOLD)
            .map_err(SpioError::Config)?;
        if regressions.is_empty() {
            println!("bench gate PASS vs {base_file}");
        } else {
            eprintln!("bench gate FAIL vs {base_file}:");
            for r in &regressions {
                eprintln!("  REGRESSION {r}");
            }
            std::process::exit(1);
        }
    }
    Ok(())
}

/// `spio serve-bench`: replay a seeded multi-client query workload against
/// an on-disk dataset through the serving engine and print the job report.
fn serve_bench_cmd(dir: &str, rest: &[String]) -> Result<(), SpioError> {
    let mut clients = 4usize;
    let mut spec = spio_serve::WorkloadSpec::default();
    let mut config = spio_serve::ServeConfig::default();
    let mut report_out = None;
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        let val = rest
            .get(i + 1)
            .ok_or_else(|| config_err(format!("{flag} needs a value")))?;
        let parse_n = || {
            val.parse::<usize>()
                .map_err(|_| config_err(format!("{flag}: '{val}' is not a number")))
        };
        match flag {
            "--clients" => clients = parse_n()?.max(1),
            "--queries" => spec.queries_per_client = parse_n()?,
            "--workers" => config.workers = parse_n()?.max(1),
            "--seed" => spec.seed = parse_n()? as u64,
            "--report-out" => report_out = Some(val.clone()),
            _ => return Err(config_err(format!("unknown flag {flag}"))),
        }
        i += 2;
    }
    let (text, report) = spio_tools::serve_bench(&open_dir(dir), clients, &spec, config)?;
    print!("{text}");
    if let Some(out) = &report_out {
        std::fs::write(out, report.to_json())?;
        println!("wrote job report {out}");
    }
    Ok(())
}

fn parse_f64s(args: &[String]) -> Option<Vec<f64>> {
    args.iter().map(|a| a.parse().ok()).collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result = match (cmd.as_str(), &args[1..]) {
        ("inspect", [dir]) => spio_tools::inspect(&open_dir(dir)).map(|t| print!("{t}")),
        ("gen", [dir, rest @ ..]) if rest.len() <= 2 => {
            let parse = |i: usize, default: usize| match rest.get(i) {
                Some(v) => v.parse::<usize>().map_err(|_| ()),
                None => Ok(default),
            };
            let (Ok(procs), Ok(per_rank)) = (parse(0, 8), parse(1, 5_000)) else {
                return usage();
            };
            spio_tools::generate_uniform(&open_dir(dir), procs, per_rank, 42).map(|t| print!("{t}"))
        }
        ("validate", [dir]) => spio_tools::validate(&open_dir(dir)).map(|report| {
            println!(
                "checked {} files / {} particles",
                report.files_checked, report.particles_checked
            );
            if report.is_ok() {
                println!("dataset OK");
            } else {
                for p in &report.problems {
                    println!("PROBLEM: {p}");
                }
                std::process::exit(1);
            }
        }),
        ("query", rest) if rest.len() == 7 || rest.len() == 9 || rest.len() == 10 => {
            let dir = &rest[0];
            match parse_f64s(&rest[1..7]) {
                Some(c) => {
                    let q = Aabb3::new([c[0], c[1], c[2]], [c[3], c[4], c[5]]);
                    if rest.len() == 9 {
                        if rest[7] != "--lod" {
                            return usage();
                        }
                        let Ok(level) = rest[8].parse::<u32>() else {
                            return usage();
                        };
                        spio_tools::query_lod(&open_dir(dir), &q, level).map(|t| print!("{t}"))
                    } else {
                        let density = if rest.len() == 10 && rest[7] == "--density" {
                            match parse_f64s(&rest[8..10]) {
                                Some(d) => Some((d[0], d[1])),
                                None => return usage(),
                            }
                        } else if rest.len() == 10 {
                            return usage();
                        } else {
                            None
                        };
                        spio_tools::query(&open_dir(dir), &q, density).map(|t| print!("{t}"))
                    }
                }
                None => return usage(),
            }
        }
        ("report", [file]) => std::fs::read_to_string(file)
            .map_err(Into::into)
            .and_then(|json| spio_tools::report(&json))
            .map(|t| print!("{t}")),
        ("trace", [file, flag, out]) if flag == "--chrome" => trace_cmd(file, out),
        ("check-trace", [file]) => std::fs::read_to_string(file)
            .map_err(SpioError::from)
            .and_then(|json| validate_chrome_trace(&json).map_err(SpioError::Format))
            .map(|()| println!("chrome trace OK")),
        ("bench", rest) => bench_cmd(rest),
        ("serve-bench", [dir, rest @ ..]) => serve_bench_cmd(dir, rest),
        ("lint", rest) => {
            let update = rest.iter().any(|a| a == "--update");
            let roots: Vec<&String> = rest.iter().filter(|a| !a.starts_with("--")).collect();
            let root = match roots.as_slice() {
                [] => ".",
                [r] => r.as_str(),
                _ => return usage(),
            };
            spio_tools::lint_ratchet(root, update).map(|(text, ok)| {
                print!("{text}");
                if !ok {
                    std::process::exit(1);
                }
            })
        }
        ("verify-comm", rest) => {
            let mut procs = 4usize;
            let mut seeds = 16u64;
            let mut i = 0;
            let mut bad = false;
            while i < rest.len() {
                match (
                    rest[i].as_str(),
                    rest.get(i + 1).and_then(|v| v.parse::<u64>().ok()),
                ) {
                    ("--procs", Some(n)) => procs = n as usize,
                    ("--seeds", Some(n)) => seeds = n,
                    _ => {
                        bad = true;
                        break;
                    }
                }
                i += 2;
            }
            if bad {
                return usage();
            }
            spio_tools::verify_comm(procs, seeds).map(|t| print!("{t}"))
        }
        ("series", [dir]) => spio_tools::series_info(&open_dir(dir)).map(|t| print!("{t}")),
        ("render", [dir, out]) => spio_tools::render_ppm(&open_dir(dir), 640, 640)
            .and_then(|img| std::fs::write(out, img).map_err(Into::into))
            .map(|()| println!("wrote {out}")),
        ("lod", [dir]) => spio_tools::lod_stats(&open_dir(dir), 1).map(|t| print!("{t}")),
        ("lod", [dir, readers]) => match readers.parse() {
            Ok(n) if n > 0 => spio_tools::lod_stats(&open_dir(dir), n).map(|t| print!("{t}")),
            _ => return usage(),
        },
        ("convert-fpp", rest) if rest.len() == 10 => {
            let (src, dst) = (&rest[0], &rest[2]);
            let Ok(nwriters) = rest[1].parse::<usize>() else {
                return usage();
            };
            let Ok(factor) = PartitionFactor::parse(&rest[3]) else {
                return usage();
            };
            let Some(c) = parse_f64s(&rest[4..10]) else {
                return usage();
            };
            let domain = Aabb3::new([c[0], c[1], c[2]], [c[3], c[4], c[5]]);
            spio_tools::convert_fpp(&open_dir(src), nwriters, &open_dir(dst), factor, domain)
                .map(|t| print!("{t}"))
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
