//! Fleet trace-overhead check: attaching a scheduler-plane tracer to
//! the fleet scheduler must cost within a small margin of the
//! `NullTracer` path, and must not perturb the deterministic report.
//!
//! ```text
//! fleet_trace_bench [--small] [--threads N] [--quick]
//! ```
//!
//! Both sides run min-of-N over the same seeded mixed fleet: the
//! baseline with `NullTracer` (the production fast path — batch
//! kernels, no event buffering) and the traced side with an in-memory
//! [`EventLog`] at [`Detail::Scheduler`], i.e. the scheduler
//! observability plane alone (admissions, deferrals, queue depth,
//! swap-outs). The binary fails when the traced side exceeds the
//! baseline by more than the threshold (default 2%, override with
//! `CDMM_OVERHEAD_PCT` — CI runners with noisy neighbors may need a
//! looser bound). Report equality is asserted first: a fast tracer
//! that changes the schedule is no win.
//!
//! `CDMM_FLEET_TENANTS` / `CDMM_FLEET_SEED` override the fleet shape.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use cdmm_bench::BenchEnv;
use cdmm_core::fleet::{prepare_fleet, FleetSpec};
use cdmm_core::pipeline::PolicySpec;
use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_vmsim::{CancelToken, Detail, EventLog, FleetReport, NullTracer, Tracer};

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// One timed fleet run; tracer construction is excluded from the
/// measurement, preparation is not (both sides pay it identically).
fn timed_run(spec: &FleetSpec, tracer: &mut dyn Tracer) -> (Duration, FleetReport) {
    let prepared = prepare_fleet(spec).expect("fleet prepares");
    let token = CancelToken::new();
    let t0 = Instant::now();
    let report = prepared
        .run_cancellable(tracer, &token)
        .expect("fleet runs");
    (t0.elapsed(), report)
}

fn main() -> ExitCode {
    let env = BenchEnv::from_env();
    let o = env.options();
    let threshold: f64 = std::env::var("CDMM_OVERHEAD_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let samples = if o.quick { 3 } else { 7 };
    let tenants = env_u64("CDMM_FLEET_TENANTS").unwrap_or(96) as usize;
    let seed = env_u64("CDMM_FLEET_SEED").unwrap_or(1);
    let spec = FleetSpec {
        tenants,
        seed,
        scale: env.scale(),
        policy_mix: vec![
            PolicySpec::Cd {
                selector: CdSelector::FirstFit,
            },
            PolicySpec::Ws { tau: 2_000 },
            PolicySpec::Lru { frames: 16 },
        ],
        frames_per_cell: 24,
        threads: o.executor().threads(),
        ..FleetSpec::default()
    };

    // Equality first, outside the timing loop.
    let (_, untraced) = timed_run(&spec, &mut NullTracer);
    let mut log = EventLog::new(1 << 20).with_detail(Detail::Scheduler);
    let (_, traced) = timed_run(&spec, &mut log);
    assert_eq!(
        untraced, traced,
        "a scheduler-plane tracer must not perturb the fleet report"
    );
    assert!(
        !log.is_empty(),
        "the scheduler plane must actually emit events"
    );

    // Interleaved min-of-N so slow machine drift lands on both sides.
    let mut min_base = Duration::MAX;
    let mut min_traced = Duration::MAX;
    for _ in 0..samples {
        min_base = min_base.min(timed_run(&spec, &mut NullTracer).0);
        let mut log = EventLog::new(1 << 20).with_detail(Detail::Scheduler);
        min_traced = min_traced.min(timed_run(&spec, &mut log).0);
    }
    let overhead = (min_traced.as_secs_f64() / min_base.as_secs_f64().max(1e-12) - 1.0) * 100.0;
    println!(
        "fleet_trace_bench: {tenants} tenants, NullTracer {min_base:.3?}, \
         scheduler-plane tracer {min_traced:.3?}, overhead {overhead:.2}% \
         (threshold {threshold:.1}%, {} events)",
        log.len()
    );
    env.finish();
    if overhead > threshold {
        eprintln!(
            "fleet_trace_bench: tracer overhead {overhead:.2}% exceeds {threshold:.1}% \
             (set CDMM_OVERHEAD_PCT to loosen on noisy machines)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
