//! The `cdmm-serve` binary end to end: one batch on stdin, one row per
//! request on stdout, exit status 0 — also when an inline source
//! declares arrays too large to hold. Such a source must become a typed
//! `pipeline` row: an allocation failure would abort the whole process
//! (no `catch_unwind` contains an abort), and a wrapped element count
//! would panic the interpreter on every retry.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn oversized_inline_sources_are_typed_rows_and_the_batch_completes() {
    let batch = [
        r#"{"id":"good","workload":"MAIN","policy":"lru","frames":8}"#,
        r#"{"id":"huge","source":"PROGRAM B\nDIMENSION A(100000,100000)\nA(1,1) = 1.0\nEND\n","policy":"lru","frames":4}"#,
        r#"{"id":"wrap","source":"PROGRAM B\nDIMENSION A(4294967296,4294967296)\nA(1,1) = 1.0\nEND\n","policy":"lru","frames":4}"#,
        r#"{"id":"good2","workload":"FDJAC","policy":"cd"}"#,
    ];
    let mut child = Command::new(env!("CARGO_BIN_EXE_cdmm-serve"))
        .args(["--threads", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cdmm-serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(format!("{}\n", batch.join("\n")).as_bytes())
        .expect("write the batch");
    let out = child.wait_with_output().expect("daemon exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    let rows: Vec<&str> = stdout.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(rows.len(), 4, "{stdout}");
    for (row, (id, want)) in rows.iter().zip([
        ("good", "\"ok\":true"),
        ("huge", "\"error\":\"pipeline\""),
        ("wrap", "\"error\":\"pipeline\""),
        ("good2", "\"ok\":true"),
    ]) {
        assert!(row.contains(&format!("\"id\":\"{id}\",")), "{row}");
        assert!(row.contains(want), "{row}");
    }
    for row in &rows[1..3] {
        assert!(row.contains("compile: line 2: array `A`"), "{row}");
    }
    // The shutdown summary's latencies are log₂ bucket bounds, and it
    // labels them as bounds rather than measurements.
    let summary = stderr
        .lines()
        .find(|l| l.starts_with("cdmm-serve: 4 requests, 2 ok, 2 failed"))
        .unwrap_or_else(|| panic!("no shutdown summary in {stderr}"));
    let bounds = summary
        .split_once(" retries, ")
        .map(|(_, tail)| tail)
        .unwrap_or_else(|| panic!("{summary}"));
    let words: Vec<&str> = bounds.split(' ').collect();
    assert!(
        matches!(words[..], ["p50", "≤", p50, "ns,", "p99", "≤", p99, "ns"]
            if p50.parse::<u64>().is_ok() && p99.parse::<u64>().is_ok()),
        "{summary}"
    );
}
