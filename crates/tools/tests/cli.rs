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
