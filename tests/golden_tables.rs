//! Golden-metrics regression suite.
//!
//! The full Table 2/3/4 pipeline is run once serially over all nine
//! workloads and its metrics compared — as exact decimal strings, which
//! for Rust's shortest-round-trip float formatting means bit-identically
//! — against the checked-in fixture. The parallel executor must then
//! reproduce the serial output byte for byte at every thread count.
//!
//! Regenerate the fixture after an intentional metrics change with:
//!
//! ```text
//! CDMM_BLESS=1 cargo test --test golden_tables
//! ```
//!
//! CI overrides the verified thread counts with `CDMM_GOLDEN_THREADS`
//! (comma-separated, default `2,4,8`).

use std::fmt::Write as _;

use cdmm_core::experiments::Harness;
use cdmm_core::experiments::{table2, table3, table4, Table2Row, Table3Row, Table4Row};
use cdmm_core::Executor;
use cdmm_workloads::Scale;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_tables.json"
);

/// Renders the three tables as JSON. Floats use Rust's `Display`
/// (shortest representation that round-trips), so string equality is
/// bit equality.
fn render(t2: &[Table2Row], t3: &[Table3Row], t4: &[Table4Row]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"table2\": [\n");
    for (i, r) in t2.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"program\": \"{}\", \"cd_st\": {}, \"lru_pct_st\": {}, \"ws_pct_st\": {}}}{}",
            r.program,
            r.cd_st,
            r.lru_pct_st,
            r.ws_pct_st,
            if i + 1 < t2.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"table3\": [\n");
    for (i, r) in t3.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"program\": \"{}\", \"cd_mem\": {}, \"cd_pf\": {}, \"lru_dpf\": {}, \"lru_pct_st\": {}, \"ws_dpf\": {}, \"ws_pct_st\": {}}}{}",
            r.program,
            r.cd_mem,
            r.cd_pf,
            r.lru_dpf,
            r.lru_pct_st,
            r.ws_dpf,
            r.ws_pct_st,
            if i + 1 < t3.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"table4\": [\n");
    for (i, r) in t4.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"program\": \"{}\", \"cd_pf\": {}, \"lru_pct_mem\": {}, \"lru_pct_st\": {}, \"ws_pct_mem\": {}, \"ws_pct_st\": {}}}{}",
            r.program,
            r.cd_pf,
            r.lru_pct_mem,
            r.lru_pct_st,
            r.ws_pct_mem,
            r.ws_pct_st,
            if i + 1 < t4.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs the full Table 2/3/4 pipeline under one executor and renders
/// the result. Each call uses a fresh harness (fresh in-memory cache),
/// so every point is genuinely recomputed.
fn run_tables(exec: Executor) -> String {
    let mut h = Harness::new(Scale::Small).with_executor(exec);
    let t2 = table2(&mut h);
    let t3 = table3(&mut h);
    let t4 = table4(&mut h);
    assert_eq!(t2.len(), 8);
    assert_eq!(t3.len(), 14);
    assert_eq!(t4.len(), 14);
    render(&t2, &t3, &t4)
}

#[test]
fn serial_run_matches_checked_in_fixture() {
    let got = run_tables(Executor::serial());
    if std::env::var_os("CDMM_BLESS").is_some() {
        std::fs::write(FIXTURE, &got).expect("write fixture");
        eprintln!("blessed {FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run `CDMM_BLESS=1 cargo test --test golden_tables`");
    assert_eq!(
        got, want,
        "Table 2/3/4 metrics drifted from the golden fixture.\n\
         If the change is intentional, regenerate with \
         `CDMM_BLESS=1 cargo test --test golden_tables` and commit the diff."
    );
}

#[test]
fn observed_run_reproduces_the_fixture_tables() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Counts `JobDone` events so the test can prove the observer was
    /// actually consulted, not silently dropped.
    #[derive(Debug)]
    struct Counting(Arc<AtomicU64>);
    impl cdmm_vmsim::Tracer for Counting {
        fn record(&mut self, _at: u64, event: &cdmm_vmsim::SimEvent) {
            if matches!(event, cdmm_vmsim::SimEvent::JobDone { .. }) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    let serial = run_tables(Executor::serial());
    let jobs = Arc::new(AtomicU64::new(0));
    let obs = cdmm_vmsim::observe::shared(Counting(jobs.clone()));
    let observed = run_tables(Executor::with_threads(2).with_observer(obs));
    assert_eq!(
        observed, serial,
        "attaching an observer must not change the tables"
    );
    assert!(
        jobs.load(Ordering::Relaxed) > 0,
        "the observer saw no executor jobs"
    );
}

#[test]
fn metrics_registry_rerun_is_byte_identical_to_the_fixture() {
    // A full MetricsRegistry (histograms, counters, per-PI stats)
    // attached as the executor observer must leave the golden tables
    // bit-identical to the checked-in fixture: the stats layer
    // observes the simulation, never participates in it.
    let registry = std::sync::Arc::new(std::sync::Mutex::new(cdmm_vmsim::MetricsRegistry::new()));
    let got = run_tables(Executor::with_threads(2).with_observer(registry.clone()));
    if std::env::var_os("CDMM_BLESS").is_some() {
        // The serial test owns blessing; this one only compares.
        return;
    }
    let want = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing — run `CDMM_BLESS=1 cargo test --test golden_tables`");
    assert_eq!(
        got, want,
        "a metrics-enabled rerun drifted from the golden fixture"
    );
    let snap = registry.lock().expect("registry lock").snapshot();
    assert!(
        snap.counter("jobs_done") > 0,
        "the registry saw no executor jobs: {snap:?}"
    );
    assert!(
        snap.histogram("job_wall_ns").is_some(),
        "job wall-time histogram missing"
    );
}

#[test]
fn parallel_executors_reproduce_serial_bit_identically() {
    let serial = run_tables(Executor::serial());
    let threads: Vec<usize> = std::env::var("CDMM_GOLDEN_THREADS")
        .unwrap_or_else(|_| "2,4,8".to_string())
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    assert!(!threads.is_empty(), "CDMM_GOLDEN_THREADS parsed to nothing");
    for t in threads {
        let par = run_tables(Executor::with_threads(t));
        assert_eq!(
            par, serial,
            "executor with {t} threads diverged from the serial tables"
        );
    }
}
