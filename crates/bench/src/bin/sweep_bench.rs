//! Execution-engine benchmark: per-table speedup and cache-hit summary.
//!
//! ```text
//! sweep_bench [--small] [--threads N] [--cache-dir PATH]
//!             [--assert-hit-rate PCT] [--quick]
//!             [--trace-out PATH] [--trace-events]
//! ```
//!
//! Without `--cache-dir` the run uses an in-memory cache. A first run
//! against a persistent directory populates it; an immediate re-run
//! with `--quick --assert-hit-rate 90` verifies the warm-cache path
//! (the CI cache-warm step). With `--trace-out` the executor and cache
//! stream `job_done` / `cache_query` events into a checksummed JSONL
//! file. With `--bench-out DIR` the run writes the canonical
//! `BENCH_tables.json` artifact.

use std::process::ExitCode;

use cdmm_bench::{run_sweep_summary, BenchEnv, SweepSummaryOptions};

fn main() -> ExitCode {
    let env = BenchEnv::from_env();
    let o = env.options();
    let opts = SweepSummaryOptions {
        scale: o.scale,
        threads: o.executor().threads(),
        cache_dir: o.cache_dir.clone(),
        assert_hit_rate: o.assert_hit_rate,
        quick: o.quick,
        bench_out: o.bench_out.clone(),
    };
    let result = run_sweep_summary(&opts, env.tracer().cloned());
    env.finish();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sweep_bench: {msg}");
            ExitCode::FAILURE
        }
    }
}
