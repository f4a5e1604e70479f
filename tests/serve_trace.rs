//! Serve trace-passthrough golden fixture.
//!
//! A fixed request batch — sim and fleet jobs opting into `"trace"`,
//! `"metrics"`, and `"client"`, one plain row, and one row with an
//! unknown field — runs through the batch service, and the response
//! stream must match the checked-in fixture byte for byte. Everything
//! the observability plane attaches to a response (`trace_lines`, the
//! `trace_c` stream checksum, the integer-only `metrics` digest) is
//! deterministic, so this pins the serve wire format exactly like
//! `trace_events.rs` pins the simulator event stream.
//!
//! Regenerate the fixture after an intentional format change with:
//!
//! ```text
//! CDMM_BLESS=1 cargo test --test serve_trace
//! ```

use std::path::PathBuf;

use cdmm_serve::{BatchService, ServeConfig};
use cdmm_vmsim::JsonlSink;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/serve_trace.jsonl"
);

/// The replayed batch: trace-only, metrics-only, and both, across sim
/// and fleet jobs, plus a plain row (no observability members) and a
/// typo'd field (typed `bad_request`).
fn stream() -> Vec<String> {
    vec![
        r#"{"id":"sim-both","workload":"MAIN","policy":"cd","trace":true,"metrics":true,"client":"a"}"#.into(),
        r#"{"id":"sim-trace","workload":"FDJAC","policy":"ws","tau":400,"trace":true,"client":"a"}"#.into(),
        r#"{"id":"sim-metrics","workload":"MAIN","policy":"lru","frames":8,"metrics":true,"client":"b"}"#.into(),
        r#"{"id":"sim-plain","workload":"MAIN","policy":"cd"}"#.into(),
        r#"{"id":"fleet-both","job":"fleet","tenants":12,"seed":3,"trace":true,"metrics":true,"client":"b"}"#.into(),
        r#"{"id":"typo","workload":"MAIN","policy":"cd","trase":true}"#.into(),
    ]
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdmm-serve-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run_batch(threads: usize, tag: &str) -> (Vec<String>, PathBuf) {
    let dir = scratch(tag);
    let service = BatchService::new(ServeConfig {
        threads,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("service builds");
    let lines = stream();
    let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
    (service.handle_batch(&refs), dir)
}

#[test]
fn traced_responses_match_checked_in_fixture() {
    let (rows, dir) = run_batch(2, "golden");
    let got = rows.join("\n") + "\n";
    if std::env::var_os("CDMM_BLESS").is_some() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        eprintln!("blessed {FIXTURE}");
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run `CDMM_BLESS=1 cargo test --test serve_trace`");
    assert_eq!(
        got, want,
        "the serve response stream drifted from the golden fixture.\n\
         If the change is intentional, regenerate with \
         `CDMM_BLESS=1 cargo test --test serve_trace` and commit the diff."
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_sidecars_checksum_and_match_the_in_band_digest() {
    let (rows, dir) = run_batch(2, "sidecar");
    for (row, id) in rows.iter().zip(["sim-both", "sim-trace"]) {
        assert!(row.contains(&format!("\"id\":\"{id}\"")), "{row}");
        let path = dir.join(format!("serve-{id}.trace.jsonl"));
        let lines = JsonlSink::validate_file(&path).expect("sidecar checksums");
        assert!(lines > 0, "{id}: empty trace sidecar");
        assert!(row.contains(&format!("\"trace_lines\":{lines}")), "{row}");
        let digest = JsonlSink::file_stream_checksum(&path).expect("sidecar digest");
        assert!(
            row.contains(&format!("\"trace_c\":\"{digest:016x}\"")),
            "in-band checksum does not match the sidecar: {row}"
        );
    }
    // The fleet job streams the deterministic scheduler plane.
    let fleet = dir.join("serve-fleet-both.trace.jsonl");
    assert!(JsonlSink::validate_file(&fleet).expect("fleet sidecar") > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ids_that_sanitize_alike_keep_separate_sidecars() {
    let dir = scratch("collide");
    let service = BatchService::new(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("service builds");
    let rows = service.handle_batch(&[
        r#"{"id":"a b","workload":"MAIN","policy":"cd","trace":true}"#,
        r#"{"id":"a_b","workload":"FDJAC","policy":"cd","trace":true}"#,
    ]);
    let safe = dir.join("serve-a_b.trace.jsonl");
    let mut sidecars: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("scratch dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.to_string_lossy().ends_with(".trace.jsonl"))
        .collect();
    sidecars.sort();
    assert_eq!(sidecars.len(), 2, "{sidecars:?}");
    assert!(sidecars.contains(&safe), "a safe id keeps its plain name");
    let hashed = sidecars
        .iter()
        .find(|p| **p != safe)
        .expect("second sidecar");
    for (row, path) in rows.iter().zip([hashed, &safe]) {
        let digest = JsonlSink::file_stream_checksum(path).expect("sidecar digest");
        assert!(
            row.contains(&format!("\"trace_c\":\"{digest:016x}\"")),
            "{} does not match {row}",
            path.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traced_batch_is_thread_count_invariant() {
    let (serial, d1) = run_batch(1, "serial");
    let (parallel, d2) = run_batch(8, "parallel");
    assert_eq!(serial, parallel);
    let _ = std::fs::remove_dir_all(&d1);
    let _ = std::fs::remove_dir_all(&d2);
}
