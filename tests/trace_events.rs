//! Event-stream regression suite.
//!
//! A small two-level loop nest is pushed through the full pipeline and
//! a traced CD run is streamed to a [`JsonlSink`]; the resulting
//! checksummed JSONL file must match the checked-in fixture byte for
//! byte. Because the simulator, the policy, and the encoding are all
//! deterministic, any drift in the event stream — reordered events, a
//! changed clock, a new field — fails this test before it can silently
//! change what observers see.
//!
//! Regenerate the fixture after an intentional event-stream change with:
//!
//! ```text
//! CDMM_BLESS=1 cargo test --test trace_events
//! ```

use cdmm_core::{prepare, CancelToken, PipelineConfig, PolicySpec, Prepared};
use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_vmsim::{EventLog, JsonlSink, Metrics, Tracer};
use cdmm_workloads::{by_name, Scale};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/trace_events.jsonl"
);

/// A compact Figure 5-shaped nest: the outer loop carries an `ALLOCATE`
/// with one request per level and the inner loops get `LOCK`/`UNLOCK`
/// pairs, so the fixture exercises every directive-driven event kind.
const SOURCE: &str = "
PROGRAM TRACEFIX
PARAMETER (N = 64)
DIMENSION A(N), B(N), C(N), D(N)
DIMENSION CC(N,N), DD(N,N)
DO 3 I = 1, N
  A(I) = B(I) + 1.0
  DO 1 J = 1, N
    C(J) = D(J) + CC(I,J)
1 CONTINUE
  DO 2 K = 1, N
    DD(K,I) = C(K) * 2.0
2 CONTINUE
3 CONTINUE
END
";

fn prepared() -> Prepared {
    prepare("TRACEFIX", SOURCE, PipelineConfig::default()).expect("pipeline accepts the fixture")
}

const CD: PolicySpec = PolicySpec::Cd {
    selector: CdSelector::AtLevel(2),
};

/// `spec` on `p` with `tracer` attached, under an idle token.
fn traced(p: &Prepared, spec: PolicySpec, tracer: &mut dyn Tracer) -> Metrics {
    p.run_policy_traced(spec, tracer, &CancelToken::new())
        .expect("an idle token never stops a run")
}

/// Streams one traced CD run to a throwaway JSONL file and returns its
/// contents, after checking the checksums and that tracing did not
/// perturb the metrics.
fn traced_jsonl() -> String {
    let p = prepared();
    let path = std::env::temp_dir().join(format!("cdmm_trace_events_{}.jsonl", std::process::id()));
    let mut sink = JsonlSink::create(&path).expect("create jsonl sink");
    let with_sink = traced(&p, CD, &mut sink);
    let untraced = p.run_policy(CD);
    assert_eq!(with_sink, untraced, "the sink must not alter the run");

    let lines = JsonlSink::validate_file(&path).expect("every line checksums");
    assert!(lines > 0, "the traced run produced no events");
    let text = std::fs::read_to_string(&path).expect("read sink file");
    std::fs::remove_file(&path).ok();
    text
}

#[test]
fn cd_event_stream_matches_checked_in_fixture() {
    let got = traced_jsonl();
    if std::env::var_os("CDMM_BLESS").is_some() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        eprintln!("blessed {FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run `CDMM_BLESS=1 cargo test --test trace_events`");
    assert_eq!(
        got, want,
        "the CD event stream drifted from the golden fixture.\n\
         If the change is intentional, regenerate with \
         `CDMM_BLESS=1 cargo test --test trace_events` and commit the diff."
    );
}

#[test]
fn fixture_file_itself_validates() {
    let lines = JsonlSink::validate_file(std::path::Path::new(FIXTURE))
        .expect("checked-in fixture must checksum");
    assert!(lines > 0);
}

#[test]
fn event_stream_covers_the_directive_kinds() {
    let p = prepared();
    let mut log = EventLog::new(1 << 14);
    traced(&p, CD, &mut log);
    assert_eq!(log.dropped(), 0, "ring too small for the fixture run");
    let kinds: std::collections::BTreeSet<&str> = log.events().map(|e| e.event.kind()).collect();
    for want in ["alloc", "lock", "unlock", "fault", "evict"] {
        assert!(kinds.contains(want), "no `{want}` event in {kinds:?}");
    }
}

#[test]
fn recovery_skips_exactly_the_torn_tail() {
    // Write a traced run, then simulate a crash mid-append by cutting
    // the file inside its final record: the checksummed reader must
    // recover every intact line and skip exactly the torn tail.
    let p = prepared();
    let path = std::env::temp_dir().join(format!(
        "cdmm_trace_events_torn_{}.jsonl",
        std::process::id()
    ));
    let mut sink = JsonlSink::create(&path).expect("create jsonl sink");
    traced(&p, CD, &mut sink);
    let written = sink.written();
    drop(sink);

    let text = std::fs::read_to_string(&path).expect("read sink file");
    let full = JsonlSink::recover_file(&path).expect("intact file recovers");
    assert_eq!(full, (written, 0), "no torn tail before truncation");

    // Cut halfway through the last record (keep its first byte so the
    // remnant is a non-empty damaged line, not a clean trailing \n).
    let last_start = text.trim_end().rfind('\n').expect("multi-line file") + 1;
    let last_len = text.trim_end().len() - last_start;
    let cut = last_start + last_len / 2;
    std::fs::write(&path, &text.as_bytes()[..cut]).expect("truncate");

    assert!(
        JsonlSink::validate_file(&path).is_err(),
        "strict validation must reject the torn file"
    );
    let (valid, torn) = JsonlSink::recover_file(&path).expect("torn tail is recoverable");
    assert_eq!(valid, written - 1, "every line before the tear survives");
    assert_eq!(torn, 1, "exactly the torn record is skipped");

    // Mid-file damage is NOT a torn tail: corrupt an interior line and
    // recovery must refuse.
    let mut lines: Vec<&str> = text.trim_end().lines().collect();
    lines[1] = "{\"v\":1,\"at\":99,\"ev\":\"fault\",\"rotten";
    std::fs::write(&path, lines.join("\n")).expect("corrupt interior");
    let err = JsonlSink::recover_file(&path).expect_err("interior rot is fatal");
    assert!(err.contains("mid-file corruption"), "{err}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn tracing_is_inert_across_policies_and_workloads() {
    let specs = [
        CD,
        PolicySpec::Lru { frames: 8 },
        PolicySpec::Ws { tau: 2_000 },
    ];
    for name in ["MAIN", "FDJAC"] {
        let w = by_name(name, Scale::Small).expect("known workload");
        let p = prepare(w.name, &w.source, PipelineConfig::default()).expect("pipeline");
        for spec in specs {
            let plain = p.run_policy(spec);
            let mut log = EventLog::new(1 << 12).with_refs(true);
            let with_log = traced(&p, spec, &mut log);
            assert_eq!(
                plain,
                with_log,
                "{name}/{}: tracing must not alter metrics",
                p.policy_label(spec)
            );
        }
    }
}
