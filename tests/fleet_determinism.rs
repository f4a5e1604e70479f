//! Fleet-scheduler determinism: the central invariant of the cell
//! scheduler is that execution geometry — how many executor workers run
//! the cells — never changes a single byte of the
//! [`cdmm_vmsim::FleetReport`]. Cells are fixed by submission order
//! alone; the thread count only decides *who* runs each cell, and when.
//!
//! The suite pins three properties:
//!
//! - a seeded multi-thousand-tenant fleet produces the identical report
//!   at 1/2/4/8 threads;
//! - with an [`EventLog`] attached, both the report AND the merged
//!   scheduler event stream stay byte-identical across the same thread
//!   counts (events are buffered per cell and replayed in cell order,
//!   so tracers never observe scheduling races);
//! - a chaos tenant whose fuzzed directives trip degrade-to-LRU
//!   perturbs nothing outside its own memory cell.
//!
//! The fleet size defaults to 2000 tenants in release builds and 128
//! under `cfg(debug_assertions)`; `CDMM_FLEET_TENANTS` and
//! `CDMM_FLEET_SEED` override both.

use cdmm_core::fleet::{prepare_fleet, run_fleet_spec, ChaosSpec, FleetSpec};
use cdmm_core::PolicySpec;
use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_vmsim::{Admission, CancelToken, EventLog, FleetReport, TimedEvent};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The acceptance-gate fleet: a tight-memory mixed-policy population
/// with jitter on, large enough that every scheduler path (admission,
/// swapper, run kernels, readmission) is exercised.
fn acceptance_spec() -> FleetSpec {
    let default_tenants = if cfg!(debug_assertions) { 128 } else { 2_000 };
    FleetSpec {
        tenants: env_u64("CDMM_FLEET_TENANTS", default_tenants) as usize,
        seed: env_u64("CDMM_FLEET_SEED", 1),
        policy_mix: vec![
            PolicySpec::Cd {
                selector: CdSelector::FirstFit,
            },
            PolicySpec::Ws { tau: 2_000 },
            PolicySpec::Lru { frames: 16 },
        ],
        frames_per_cell: 24,
        tenants_per_cell: 4,
        admission: Admission::PiLevel(1),
        ..FleetSpec::default()
    }
}

fn run_at(mut spec: FleetSpec, threads: usize) -> FleetReport {
    spec.threads = threads;
    run_fleet_spec(&spec).expect("fleet runs")
}

#[test]
fn report_is_byte_identical_across_thread_counts() {
    let spec = acceptance_spec();
    let reference = run_at(spec.clone(), 1);
    assert!(reference.makespan > 0);
    assert_eq!(reference.tenants.len(), spec.tenants);
    for threads in [2, 4, 8] {
        let r = run_at(spec.clone(), threads);
        assert_eq!(
            reference, r,
            "{threads} worker threads changed the fleet report"
        );
    }
}

/// One traced run: the report plus the merged scheduler event stream
/// the attached [`EventLog`] saw.
fn run_traced_at(mut spec: FleetSpec, threads: usize) -> (FleetReport, Vec<TimedEvent>) {
    spec.threads = threads;
    let mut log = EventLog::new(1 << 18);
    let report = prepare_fleet(&spec)
        .expect("fleet prepares")
        .run_cancellable(&mut log, &CancelToken::new())
        .expect("fleet runs");
    assert_eq!(log.dropped(), 0, "event ring too small for the fleet");
    (report, log.to_vec())
}

#[test]
fn traced_report_and_event_stream_are_geometry_invariant() {
    let spec = acceptance_spec();
    let (ref_report, ref_events) = run_traced_at(spec.clone(), 1);

    // The tracer must not perturb the report itself…
    assert_eq!(
        ref_report,
        run_at(spec.clone(), 1),
        "attaching a tracer changed the fleet report"
    );
    // …and the stream must contain the scheduler plane.
    let kinds: std::collections::BTreeSet<&str> =
        ref_events.iter().map(|e| e.event.kind()).collect();
    for want in ["tenant_admitted", "tenant_finished", "queue_depth"] {
        assert!(kinds.contains(want), "no `{want}` event in {kinds:?}");
    }

    for threads in [2, 4, 8] {
        let (r, events) = run_traced_at(spec.clone(), threads);
        assert_eq!(ref_report, r, "{threads} threads changed the traced report");
        assert_eq!(
            ref_events, events,
            "{threads} threads changed the merged event stream"
        );
    }
}

#[test]
fn chaos_tenant_degrades_without_perturbing_other_cells() {
    // Small all-CD fleet, two tenants per cell: the chaos blast radius
    // is exactly cell 0 (tenants 0 and 1).
    let clean = FleetSpec {
        tenants: 12,
        seed: 9,
        policy_mix: vec![PolicySpec::Cd {
            selector: CdSelector::FirstFit,
        }],
        frames_per_cell: 24,
        tenants_per_cell: 2,
        ..FleetSpec::default()
    };
    let mut chaotic = clean.clone();
    chaotic.chaos = vec![ChaosSpec {
        tenant: 0,
        injections: 8,
        degrade_after: Some(1),
    }];

    let base = run_fleet_spec(&clean).unwrap();
    let hit = run_fleet_spec(&chaotic).unwrap();

    // The chaos tenant recovered corrupted directives and fell back to
    // LRU-mode service — and still drove its full reference string.
    let t0 = &hit.tenants[0];
    assert!(
        t0.metrics.recovered_directives > 0,
        "fuzzed directives were not detected: {:?}",
        t0.metrics
    );
    assert!(t0.metrics.degraded_refs > 0, "never degraded to LRU");
    assert_eq!(t0.metrics.refs, base.tenants[0].metrics.refs);

    // Every tenant outside cell 0 is byte-identical to the clean run:
    // corruption is contained by the cell boundary.
    for (b, h) in base.tenants.iter().zip(hit.tenants.iter()).skip(2) {
        assert_eq!(b, h, "chaos in cell 0 leaked into tenant {}", b.name);
    }
    assert_eq!(
        &base.cells[1..],
        &hit.cells[1..],
        "chaos in cell 0 leaked into other cells"
    );
}
