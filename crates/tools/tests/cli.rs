//! The `spio` binary's argument handling, driven as a subprocess.

use std::process::Command;

#[test]
fn lod_rejects_zero_readers_with_usage() {
    // Zero readers read no levels; the command says so before it opens the
    // dataset directory.
    let dir = spio_util::tempdir::tempdir().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_spio"))
        .args(["lod", dir.path().to_str().unwrap(), "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

fn spio(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_spio"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn bench_gate_round_trip_and_workload_mismatch() {
    let dir = spio_util::tempdir::tempdir().unwrap();
    let f = dir.path().join("fig6.json");
    let f = f.to_str().unwrap();
    let small = ["bench", "--per-rank", "200", "--runs", "1"];

    let out = spio(&[&small[..], &["--write", f]].concat());
    assert!(out.status.success(), "{out:?}");
    let out = spio(&[&small[..], &["--baseline", f]].concat());
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("bench gate PASS"));

    // A fig6 record handed to the read gate, with --read after other flags.
    let read = [&small[..], &["--clients", "2", "--queries", "4", "--read"]].concat();
    let out = spio(&[&read[..], &["--baseline", f]].concat());
    assert_ne!(out.status.code(), Some(0), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("workload mismatch"), "{stderr}");
}

#[test]
fn bench_rejects_read_flags_without_read() {
    let out = spio(&["bench", "--clients", "2"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("only with --read"), "{stderr}");
}

#[test]
fn trace_without_chrome_prints_usage() {
    let dir = spio_util::tempdir::tempdir().unwrap();
    let snap = dir.path().join("snap.json");
    std::fs::write(&snap, spio_trace::TraceSnapshot::default().to_json()).unwrap();
    let out = spio(&["trace", snap.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
