//! The command-line tools exit cleanly when their reader has gone
//! (`repro table2 | head -0`), instead of panicking on the broken pipe.

use std::process::{Command, Stdio};

#[test]
fn repro_into_a_closed_pipe_exits_cleanly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    // Close the read end before the child writes a byte.
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table2")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "repro panicked: {stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
