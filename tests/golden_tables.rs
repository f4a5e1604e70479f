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
use cdmm_vmsim::ExecStats;
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
    run_tables_with_stats(exec).0
}

/// [`run_tables`], plus the harness's cache and simulation counters.
fn run_tables_with_stats(exec: Executor) -> (String, ExecStats) {
    let mut h = Harness::new(Scale::Small).with_executor(exec);
    let t2 = table2(&mut h);
    let t3 = table3(&mut h);
    let t4 = table4(&mut h);
    assert_eq!(t2.len(), 8);
    assert_eq!(t3.len(), 14);
    assert_eq!(t4.len(), 14);
    (render(&t2, &t3, &t4), h.exec_stats())
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
    // The harness's `ExecStats`, read after the run, show the parallel
    // executor really simulated points; the tables match the serial
    // run's.
    let serial = run_tables(Executor::serial());
    let (observed, stats) = run_tables_with_stats(Executor::with_threads(2));
    assert_eq!(
        observed, serial,
        "observing the run must not change the tables"
    );
    assert!(stats.sim_points > 0, "the counters saw no simulated points");
    assert!(
        stats.sim_points <= stats.cache_misses,
        "only a cache miss is ever simulated: {stats:?}"
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
