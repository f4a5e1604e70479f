//! Chaos suite for the batch service: seeded fault-injection replay.
//!
//! The contract under test (ISSUE tentpole): for a fixed request stream
//! and seed,
//!
//! - every request gets exactly one response, in request order, at any
//!   thread count;
//! - a run with injected faults answers every *surviving* request with
//!   bytes identical to the fault-free run — failures change which rows
//!   are errors (always typed), never the bytes of rows that succeed;
//! - a `kill -9` simulated by tearing the tail of the persisted result
//!   cache is survived: the restarted service quarantines the torn
//!   line, answers the replayed stream byte-identically, and still runs
//!   ≥ 90% warm.
//!
//! The seed comes from `CDMM_SERVE_SEED` (default 42) so CI can sweep a
//! small matrix; the injected-fault journal is written under
//! `target/serve-chaos/` for artifact upload.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cdmm_serve::{BatchService, FaultInjector, ServeConfig};

fn seed() -> u64 {
    std::env::var("CDMM_SERVE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// The replayed request stream: named workloads under a policy spread,
/// an inline program, and three deliberately doomed rows (malformed,
/// unknown workload, zero deadline).
fn stream() -> Vec<String> {
    let mut lines = Vec::new();
    for w in ["MAIN", "FDJAC", "TQL", "FIELD", "INIT"] {
        for (pi, policy) in [
            r#""policy":"cd""#,
            r#""policy":"cd-nolocks""#,
            r#""policy":"lru","frames":8"#,
            r#""policy":"ws","tau":400"#,
            r#""policy":"fifo","frames":6"#,
        ]
        .iter()
        .enumerate()
        {
            lines.push(format!(r#"{{"id":"{w}-{pi}","workload":"{w}",{policy}}}"#));
        }
    }
    lines.push(
        r#"{"id":"inline","source":"PROGRAM TINY\nPARAMETER (N = 32)\nDIMENSION A(N)\nDO 1 I = 1, N\n  A(I) = 0.0\n1 CONTINUE\nEND\n","name":"TINY","policy":"lru","frames":4}"#
            .to_string(),
    );
    lines.push("{broken json".to_string());
    lines.push(r#"{"id":"ghost","workload":"NOSUCH","policy":"cd"}"#.to_string());
    // The zero-deadline job uses a policy/parameter no other row uses,
    // so no run ever caches its operating point and the typed failure
    // replays identically warm or cold.
    lines.push(
        r#"{"id":"doomed","workload":"MAIN","policy":"opt","frames":3,"deadline_ms":0}"#
            .to_string(),
    );
    lines
}

fn refs(lines: &[String]) -> Vec<&str> {
    lines.iter().map(String::as_str).collect()
}

fn config() -> ServeConfig {
    ServeConfig {
        max_retries: 2,
        backoff_base: Duration::ZERO,
        seed: seed(),
        ..ServeConfig::default()
    }
}

/// Silences the panic hook around a closure that provokes (caught)
/// panics, restoring it afterwards.
fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(hook);
    match out {
        Ok(r) => r,
        Err(p) => std::panic::resume_unwind(p),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cdmm-serve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn fault_free_runs_are_byte_identical_across_thread_counts() {
    let lines = stream();
    let mut outputs = Vec::new();
    for threads in [1, 4, 8] {
        let svc = BatchService::new(ServeConfig {
            threads,
            ..config()
        })
        .expect("service");
        outputs.push(svc.handle_batch(&refs(&lines)));
    }
    assert_eq!(outputs[0], outputs[1], "1 thread == 4 threads");
    assert_eq!(outputs[0], outputs[2], "1 thread == 8 threads");
    let out = &outputs[0];
    assert_eq!(out.len(), lines.len(), "one response per request");
    // The doomed rows fail typed; everything else succeeds.
    for line in out {
        if line.contains("\"id\":\"?\"") {
            assert!(line.contains("\"error\":\"bad_request\""), "{line}");
        } else if line.contains("\"id\":\"ghost\"") {
            assert!(line.contains("\"error\":\"unknown_workload\""), "{line}");
        } else if line.contains("\"id\":\"doomed\"") {
            assert!(line.contains("\"error\":\"deadline_exceeded\""), "{line}");
        } else {
            assert!(line.contains("\"ok\":true"), "{line}");
        }
    }
}

#[test]
fn chaos_replay_preserves_surviving_response_bytes() {
    let lines = stream();
    let baseline = BatchService::new(config())
        .expect("service")
        .handle_batch(&refs(&lines));

    let injector = Arc::new(FaultInjector::new(seed()));
    let chaotic = BatchService::new(config())
        .expect("service")
        .with_faults(Arc::clone(&injector));
    let out = quiet_panics(|| chaotic.handle_batch(&refs(&lines)));

    assert_eq!(
        out.len(),
        baseline.len(),
        "no request vanishes under faults"
    );
    let mut survived = 0;
    for (fresh, base) in out.iter().zip(&baseline) {
        if fresh == base {
            survived += 1;
        } else {
            // A divergent row can only be a typed panic response — an
            // injected fault that exhausted its retries.
            assert!(
                fresh.contains("\"ok\":false") && fresh.contains("\"error\":\"panic\""),
                "divergent row is not a typed panic: {fresh}"
            );
            assert!(fresh.contains("injected fault"), "{fresh}");
        }
    }
    assert!(
        survived > 0,
        "some rows must survive the default fault rate"
    );
    // The injector journals every fault it fired; keep the journal as a
    // CI artifact so a failing seed can be replayed offline.
    let journal = injector.journal_lines();
    assert!(
        !journal.is_empty(),
        "the default 30% panic rate fires at least once over {} jobs",
        lines.len()
    );
    let dir = PathBuf::from("target/serve-chaos");
    std::fs::create_dir_all(&dir).expect("mkdir target/serve-chaos");
    let path = dir.join(format!("fault-journal-{}.jsonl", seed()));
    injector.write_journal(&path).expect("journal written");
    assert!(path.exists());
}

#[test]
fn torn_cache_tail_is_survived_with_a_warm_restart() {
    let lines = stream();
    let dir = temp_dir("restart");

    // Cold run against the persistent cache.
    let cold = BatchService::new(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..config()
    })
    .expect("service");
    let baseline = cold.handle_batch(&refs(&lines));
    drop(cold);

    // kill -9 mid-flush: the cache file loses its tail mid-record.
    let cache_file = dir.join("results.jsonl");
    let injector = FaultInjector::new(seed());
    let cut = injector.tear_tail(&cache_file, 0).expect("tear");
    assert!(cut > 0, "the tear removed bytes");

    // Restart: fsck quarantines the torn line and compacts the file.
    let warm = BatchService::new(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..config()
    })
    .expect("service survives a torn cache");
    let quarantine = dir.join("results.jsonl.quarantine");
    assert!(
        quarantine.exists(),
        "the torn line is preserved as evidence"
    );
    assert!(
        !std::fs::read_to_string(&quarantine)
            .expect("read")
            .trim()
            .is_empty(),
        "quarantine holds the damaged line"
    );

    // The replay is byte-identical (the one lost point re-simulates to
    // the same metrics) and runs ≥ 90% warm.
    let replay = warm.handle_batch(&refs(&lines));
    assert_eq!(replay, baseline, "responses replay byte-identically");
    let stats = warm.cache().stats();
    let total = stats.cache_hits + stats.cache_misses;
    let hit_rate = stats.cache_hits as f64 / total.max(1) as f64;
    assert!(
        hit_rate >= 0.90,
        "post-crash warm hit rate {hit_rate:.2} ({}/{total}) below 90%",
        stats.cache_hits
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overload_sheds_typed_and_deterministic() {
    let lines: Vec<String> = (0..6)
        .map(|i| {
            format!(
                r#"{{"id":"q{i}","workload":"MAIN","policy":"lru","frames":{}}}"#,
                4 + i
            )
        })
        .collect();
    let mut outputs = Vec::new();
    for threads in [1, 4] {
        let svc = BatchService::new(ServeConfig {
            threads,
            queue_depth: 3,
            ..config()
        })
        .expect("service");
        outputs.push(svc.handle_batch(&refs(&lines)));
    }
    assert_eq!(outputs[0], outputs[1], "shedding is deterministic");
    for (i, line) in outputs[0].iter().enumerate() {
        if i < 3 {
            assert!(line.contains("\"ok\":true"), "{line}");
        } else {
            assert!(line.contains("\"error\":\"overloaded\""), "{line}");
            assert!(line.contains(&format!("\"id\":\"q{i}\"")), "{line}");
        }
    }
}

#[test]
fn tight_deadlines_fail_typed_and_never_succeed_late() {
    // A deadline too short for the work must yield a typed
    // `deadline_exceeded` — whether it expires during trace generation
    // (a ~10M-reference inline program against 1 ms) or before any
    // phase starts (deadline_ms: 0) — and never a late success.
    let huge = r#"PROGRAM HUGE\nDIMENSION V(64)\nDO 20 J = 1, 160000\nDO 10 I = 1, 64\n  V(I) = 1.0\n10 CONTINUE\n20 CONTINUE\nEND\n"#;
    let lines = vec![
        format!(
            r#"{{"id":"huge","source":"{huge}","name":"HUGE","policy":"lru","frames":4,"deadline_ms":1}}"#
        ),
        r#"{"id":"zero","workload":"TQL","policy":"ws","tau":123,"deadline_ms":0}"#.to_string(),
    ];
    let svc = BatchService::new(config()).expect("service");
    let out = svc.handle_batch(&refs(&lines));
    assert_eq!(out.len(), lines.len());
    for line in &out {
        assert!(line.contains("\"error\":\"deadline_exceeded\""), "{line}");
        assert!(!line.contains("\"ok\":true"), "late success: {line}");
    }
    assert_eq!(svc.stats().deadline_exceeded, 2);

    // Replaying on the same (warm) service must fail the same way: a
    // cancelled prepare is never memoized, so no cached program or
    // result can turn the retry into a success. The born-expired row is
    // fully deterministic; the mid-prepare row's detail carries a
    // timing-dependent event count, so only its kind is pinned.
    let again = svc.handle_batch(&refs(&lines));
    for line in &again {
        assert!(line.contains("\"error\":\"deadline_exceeded\""), "{line}");
    }
    assert_eq!(
        out[1], again[1],
        "born-expired row replays byte-identically"
    );
    assert_eq!(svc.stats().deadline_exceeded, 4);
}

#[test]
fn oversized_requests_answer_rows_instead_of_aborting() {
    // Each line names a size no allocation can hold — a 10^12-frame
    // Clock table, a 10^12-tenant fleet, a 10^12-tenant cell — and a
    // failed allocation aborts the process, which no panic supervisor
    // catches. Every row must come back and the process survive.
    let lines = vec![
        r#"{"id":"c","workload":"MAIN","policy":"clock","frames":1000000000000}"#.to_string(),
        r#"{"id":"t","job":"fleet","tenants":1000000000000}"#.to_string(),
        r#"{"id":"k","job":"fleet","tenants":4,"cell":1000000000000}"#.to_string(),
    ];
    let svc = BatchService::new(config()).expect("service");
    let out = svc.handle_batch(&refs(&lines));
    assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
    assert!(out[0].contains("CLOCK(1000000000000)"), "{}", out[0]);
    assert!(out[1].contains("\"error\":\"bad_request\""), "{}", out[1]);
    assert!(out[1].contains("at most 10000"), "{}", out[1]);
    assert!(out[2].contains("\"ok\":true"), "{}", out[2]);
    assert!(out[2].contains("\"cells\":1,"), "{}", out[2]);
}
