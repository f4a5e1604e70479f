//! Registry-overhead check: what attaching a `MetricsRegistry` costs a
//! run. Both sides run the one driver, `simulate_with`, on the same
//! policy and trace — once under `NullTracer` (the kernels batch and
//! carry no tracing), once feeding a fresh `MetricsRegistry` at
//! `Detail::Aggregates` (the kernels still batch and hand the registry
//! every batch and directive outcome) — and must return identical
//! metrics.
//!
//! ```text
//! trace_bench [--small] [--trace-out PATH] [--trace-events]
//! ```
//!
//! Both sides run min-of-N, interleaved, on MAIN, FDJAC and CONDUCT
//! under LRU(8). Each row prints the registry run's time as a ratio of
//! the untraced run's; the binary fails when any row's overhead exceeds
//! the threshold (default 200 %, override with `CDMM_OVERHEAD_PCT`).
//! On a shared 2-vCPU VM the rows read 46–60 % at small scale and
//! 51–77 % at paper scale (ratios 1.46–1.77×), so the default bound, a
//! 3.0× ratio, leaves 1.7× headroom over the worst row for noisy
//! runners, while a registry fed reference by reference fails it
//! (`perf_regress` read 14.7× summed, scorecard included, before the
//! registry consumed batches).
//!
//! With `--trace-out` it additionally demonstrates the enabled path:
//! one traced CD run per workload, streamed to the JSONL sink, whose
//! metrics must equal the untraced `Prepared::run_policy`.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use cdmm_bench::BenchEnv;
use cdmm_core::{prepare, CancelToken, PipelineConfig, PolicySpec, Prepared};
use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_vmsim::policy::lru::Lru;
use cdmm_vmsim::{simulate_with, Metrics, MetricsRegistry, NullTracer, SimConfig, Tracer};

/// LRU(`frames`) over `p`'s plain trace through the one driver, feeding
/// `tracer`.
fn lru_run(p: &Prepared, frames: usize, tracer: &mut dyn Tracer) -> Metrics {
    let token = CancelToken::new();
    simulate_with(
        p.plain_trace(),
        &mut Lru::new(frames),
        SimConfig::default(),
        tracer,
        &token,
    )
    .expect("an idle token never stops a run")
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
        .unwrap_or(200.0);
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
    let mut worst: f64 = f64::NEG_INFINITY;
    println!(
        "{:<10} {:>14} {:>14} {:>7} {:>9}",
        "program", "NullTracer", "registry", "ratio", "overhead"
    );
    for p in &prepared {
        let (untraced, registry) = min_pair(
            samples,
            || lru_run(p, frames, &mut NullTracer),
            || lru_run(p, frames, &mut MetricsRegistry::new()),
        );
        // Equal metrics first — observing must never alter a run.
        assert_eq!(
            lru_run(p, frames, &mut NullTracer),
            lru_run(p, frames, &mut MetricsRegistry::new()),
            "{}: a registry-fed run must be result-identical",
            p.name()
        );
        let ratio = registry.as_secs_f64() / untraced.as_secs_f64().max(1e-12);
        let overhead = (ratio - 1.0) * 100.0;
        worst = worst.max(overhead);
        println!(
            "{:<10} {:>14.3?} {:>14.3?} {:>6.2}x {:>8.1}%",
            p.name(),
            untraced,
            registry,
            ratio,
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
            assert_eq!(
                m,
                p.run_policy(spec),
                "{}: traced CD run must be identical",
                p.name()
            );
        }
        println!("traced CD runs streamed to the JSONL sink (metrics identical)");
    }
    env.finish();

    println!("worst overhead {worst:.1}% (threshold {threshold:.1}%)");
    if worst > threshold {
        eprintln!(
            "trace_bench: registry overhead {worst:.1}% exceeds {threshold:.1}% \
             (set CDMM_OVERHEAD_PCT to loosen on noisy machines)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
