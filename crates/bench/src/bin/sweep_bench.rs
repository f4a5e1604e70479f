//! Execution-engine benchmark: per-table speedup and cache-hit summary.
//!
//! ```text
//! sweep_bench [--small] [--threads N] [--cache-dir PATH]
//!             [--assert-hit-rate PCT] [--quick] [--bench-out DIR]
//! ```
//!
//! Without `--cache-dir` the run uses an in-memory cache. A first run
//! against a persistent directory populates it; an immediate re-run
//! with `--quick --assert-hit-rate 90` verifies the warm-cache path
//! (the CI cache-warm step); the summary prints the cache's hits,
//! misses and simulated points, and any corrupt persisted entries it
//! discarded. With `--bench-out DIR` the run writes the canonical
//! `BENCH_tables.json` artifact. It runs no traced simulation, so
//! `--trace-out` leaves an empty file.

use std::process::ExitCode;

use cdmm_bench::{run_sweep_summary, BenchEnv};

fn main() -> ExitCode {
    let env = BenchEnv::from_env();
    let result = run_sweep_summary(env.options());
    env.finish();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sweep_bench: {msg}");
            ExitCode::FAILURE
        }
    }
}
