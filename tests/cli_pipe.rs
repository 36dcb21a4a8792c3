//! The CLI exits quietly when the reader of its stdout goes away, as in
//! `ftvod-cli fleet --seed 1 | head -1`, instead of panicking on the
//! broken pipe.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ftvod-cli"))
}

/// Spawns `ftvod-cli args`, reads `lines` lines of its stdout, closes the
/// pipe, and returns the exit code and everything it wrote to stderr.
fn run_and_hang_up(args: &[&str], lines: usize) -> (Option<i32>, String) {
    let mut child = cli()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ftvod-cli");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    for _ in 0..lines {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read a line");
        assert!(!line.is_empty(), "output ended before {lines} line(s)");
    }
    drop(stdout);
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let status = child.wait().expect("wait for ftvod-cli");
    (status.code(), stderr)
}

#[test]
fn closed_stdout_before_any_output_exits_quietly() {
    // The pipe is closed before the run has printed anything, so the
    // first write is guaranteed to fail.
    let (code, stderr) = run_and_hang_up(&["fleet", "--seed", "1", "--clients", "24"], 0);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
    assert_eq!(code, Some(141));
}

#[test]
fn closed_stdout_after_the_first_line_exits_quietly() {
    // `| head -1`: the report is longer than one line; whether the rest
    // is still buffered in the pipe when it closes or not, nothing may
    // panic.
    let (code, stderr) = run_and_hang_up(&["fleet", "--seed", "1", "--clients", "24"], 1);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(matches!(code, Some(0) | Some(141)), "exit code {code:?}");
}
