//! Tracing-overhead check: the untraced per-reference `simulate` loop
//! must cost within a small margin of a driver loop with no tracing
//! hooks at all.
//!
//! ```text
//! trace_bench [--small] [--trace-out PATH] [--trace-events]
//! ```
//!
//! The baseline is a re-implementation of the pre-observability driver
//! loop (reference → record → degraded check, directives forwarded, no
//! tracer branches), built on the same public `Metrics`/`Policy` API.
//! Both sides run min-of-N on the same prepared workloads; the binary
//! fails when `simulate` exceeds the baseline by more than the
//! threshold (default 2%, override with `CDMM_OVERHEAD_PCT` — CI
//! runners with noisy neighbors may need a looser bound).
//!
//! With `--trace-out` it additionally demonstrates the enabled path:
//! one traced CD run per workload, streamed to the JSONL sink.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use cdmm_bench::BenchEnv;
use cdmm_core::{prepare, CancelToken, PipelineConfig, PolicySpec, Prepared};
use cdmm_trace::{EventRef, EventSource};
use cdmm_vmsim::policy::cd::{CdPolicy, CdSelector};
use cdmm_vmsim::policy::lru::Lru;
use cdmm_vmsim::policy::Policy;
use cdmm_vmsim::{simulate, Metrics, SimConfig};

/// The seed driver loop, byte-for-byte the logic `simulate` had before
/// the observability layer: no tracer, no event draining.
fn seed_loop(p: &Prepared, policy: &mut dyn Policy) -> Metrics {
    let config = SimConfig {
        fault_service: p.config().fault_service,
    };
    let mut metrics = Metrics::new(config.fault_service);
    p.plain_trace().for_each_event(|event| match event {
        EventRef::Ref(page) => {
            let fault = policy.reference(page);
            metrics.record(policy.resident(), fault);
            if policy.is_degraded() {
                metrics.degraded_refs += 1;
            }
        }
        EventRef::Directive(other) => policy.directive(other),
    });
    metrics.recovered_directives = policy.recovered_directives();
    metrics
}

/// Min-of-N for two alternating measurements. Interleaving means slow
/// drift (frequency scaling, thermal ramps) lands on both sides equally
/// instead of biasing whichever was measured second.
fn min_pair<A, B>(
    samples: u32,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (Duration, Duration) {
    let mut min_a = Duration::MAX;
    let mut min_b = Duration::MAX;
    std::hint::black_box(a());
    std::hint::black_box(b());
    for _ in 0..samples {
        let t0 = Instant::now();
        std::hint::black_box(a());
        min_a = min_a.min(t0.elapsed());
        let t0 = Instant::now();
        std::hint::black_box(b());
        min_b = min_b.min(t0.elapsed());
    }
    (min_a, min_b)
}

fn main() -> ExitCode {
    let mut env = BenchEnv::from_env();
    let threshold: f64 = std::env::var("CDMM_OVERHEAD_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    let samples = 40;
    let names = ["MAIN", "FDJAC", "CONDUCT"];
    let prepared: Vec<Prepared> = names
        .iter()
        .map(|n| {
            let w = cdmm_workloads::by_name(n, env.scale()).expect("known workload");
            prepare(w.name, &w.source, PipelineConfig::default())
                .unwrap_or_else(|e| panic!("{n}: {e}"))
        })
        .collect();

    let frames = 8;
    let cfg = SimConfig::default();
    let mut worst: f64 = f64::NEG_INFINITY;
    println!(
        "{:<10} {:>14} {:>14} {:>9}",
        "program", "seed loop", "NullTracer", "overhead"
    );
    for p in &prepared {
        let (baseline, traced) = min_pair(
            samples,
            || seed_loop(p, &mut Lru::new(frames)),
            || simulate(p.plain_trace(), &mut Lru::new(frames), cfg),
        );
        // Equal metrics first — a fast wrong path is no win.
        assert_eq!(
            seed_loop(p, &mut Lru::new(frames)),
            simulate(p.plain_trace(), &mut Lru::new(frames), cfg),
            "{}: NullTracer path must be result-identical",
            p.name()
        );
        let overhead = (traced.as_secs_f64() / baseline.as_secs_f64().max(1e-12) - 1.0) * 100.0;
        worst = worst.max(overhead);
        println!(
            "{:<10} {:>14.3?} {:>14.3?} {:>8.2}%",
            p.name(),
            baseline,
            traced,
            overhead
        );
    }

    if env.options().trace_out.is_some() {
        for p in &prepared {
            let spec = PolicySpec::Cd {
                selector: CdSelector::AtLevel(2),
            };
            let m = p
                .run_policy_traced(spec, env.tracer(), &CancelToken::new())
                .expect("an idle token never stops a run");
            let plain = {
                let mut cd =
                    CdPolicy::new(CdSelector::AtLevel(2)).with_min_alloc(p.config().min_alloc);
                simulate(p.cd_trace(), &mut cd, cfg)
            };
            assert_eq!(m, plain, "{}: traced CD run must be identical", p.name());
        }
        println!("traced CD runs streamed to the JSONL sink (metrics identical)");
    }
    env.finish();

    println!("worst overhead {worst:.2}% (threshold {threshold:.1}%)");
    if worst > threshold {
        eprintln!(
            "trace_bench: NullTracer overhead {worst:.2}% exceeds {threshold:.1}% \
             (set CDMM_OVERHEAD_PCT to loosen on noisy machines)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
