//! `ftvod-cli fleet` prints exact replication totals, and marks the lines
//! derived from an overflowed event ring as inexact.

use std::process::Command;

/// Runs `ftvod-cli fleet args` and returns its stdout.
fn fleet(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ftvod-cli"))
        .arg("fleet")
        .args(args)
        .output()
        .expect("run ftvod-cli");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The `(bringups, retires)` columns of the per-server table, summed.
fn table_totals(out: &str) -> (u64, u64) {
    out.lines()
        .skip_while(|l| !l.starts_with("server "))
        .skip(1)
        .take_while(|l| l.starts_with('n'))
        .map(|l| {
            let cols: Vec<u64> = l
                .split_whitespace()
                .skip(1)
                .map(|c| c.parse().expect("numeric column"))
                .collect();
            (cols[2], cols[3])
        })
        .fold((0, 0), |(u, d), (ups, downs)| (u + ups, d + downs))
}

fn line<'a>(out: &'a str, prefix: &str) -> &'a str {
    out.lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{out}"))
}

#[test]
fn replication_line_matches_the_server_table_when_the_ring_overflows() {
    let out = fleet(&[
        "--servers",
        "8",
        "--movies",
        "12",
        "--clients",
        "96",
        "--seed",
        "1",
    ]);
    let (ups, downs) = table_totals(&out);
    assert!(ups > 0 && downs > 0, "the run replicates:\n{out}");
    assert_eq!(
        line(&out, "replication:"),
        format!("replication: {ups} bring-up(s), {downs} retire(s)")
    );
    let report = line(&out, "report:");
    let dropped: u64 = report
        .split("(inexact: ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("report line not marked inexact: {report}"));
    assert!(dropped > 0);
}

#[test]
fn report_line_is_unmarked_when_the_ring_holds_the_run() {
    let out = fleet(&[
        "--servers",
        "4",
        "--movies",
        "6",
        "--clients",
        "48",
        "--seed",
        "1",
    ]);
    let (ups, downs) = table_totals(&out);
    assert_eq!(
        line(&out, "replication:"),
        format!("replication: {ups} bring-up(s), {downs} retire(s)")
    );
    assert!(!line(&out, "report:").contains("inexact"), "{out}");
}
