//! Shared helpers for the table-regeneration binaries and the timing
//! benches.
//!
//! Each of the paper's tables has a binary (`cargo run --release -p
//! cdmm-bench --bin tableN`) that prints the reproduced rows next to the
//! paper's published values, plus `--bin tables` to print everything, and
//! ablation binaries for the design choices DESIGN.md calls out.

use cdmm_core::experiments::{table1, table2, table3, table4, Harness, TABLE1_ROWS};
use cdmm_core::fleet::{run_fleet_spec, FleetSpec};
use cdmm_core::pipeline::{PipelineConfig, PolicySpec};
use cdmm_core::report;
use cdmm_core::sweep::{Executor, ResultCache};
use cdmm_vmsim::observe::SharedTracer;
use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_vmsim::{Admission, FleetReport};
use cdmm_workloads::Scale;

pub mod artifact;
pub mod cli;
pub mod profile;
pub mod regress;

pub use cli::{BenchEnv, CliError, Options};

fn table_harness(env: &BenchEnv) -> Harness {
    Harness::new(env.scale()).with_executor(env.executor())
}

/// Builds the `BENCH_tables.json` artifact: every deterministic
/// fault-rate metric from Tables 1–4, one entry per `(table, program)`.
/// This is the canonical machine-readable table output — `tables` and
/// `sweep_bench` both write it when `--bench-out` is given, and the
/// `perf_regress` gate compares it exactly against the checked-in
/// baseline.
pub fn tables_artifact(scale: Scale, exec: Executor) -> artifact::Artifact {
    let mut h = Harness::new(scale).with_executor(exec);
    tables_artifact_from(&mut h, scale)
}

/// [`tables_artifact`] against an existing harness, reusing whatever
/// its result cache already memoized.
pub fn tables_artifact_from(h: &mut Harness, scale: Scale) -> artifact::Artifact {
    use artifact::{Artifact, Entry};
    let mut a = Artifact::new("tables", profile::scale_tag(scale));
    for r in table1(h) {
        a.entries.push(
            Entry::new(format!("table1/{}", r.program))
                .float("mem", r.mem)
                .int("pf", r.pf)
                .float("st", r.st)
                .int("recovered", r.recovered),
        );
    }
    for r in table2(h) {
        a.entries.push(
            Entry::new(format!("table2/{}", r.program))
                .float("cd_st", r.cd_st)
                .float("lru_pct_st", r.lru_pct_st)
                .float("ws_pct_st", r.ws_pct_st),
        );
    }
    for r in table3(h) {
        a.entries.push(
            Entry::new(format!("table3/{}", r.program))
                .float("cd_mem", r.cd_mem)
                .int("cd_pf", r.cd_pf)
                .float("lru_dpf", r.lru_dpf as f64)
                .float("lru_pct_st", r.lru_pct_st)
                .float("ws_dpf", r.ws_dpf as f64)
                .float("ws_pct_st", r.ws_pct_st),
        );
    }
    for r in table4(h) {
        a.entries.push(
            Entry::new(format!("table4/{}", r.program))
                .int("cd_pf", r.cd_pf)
                .float("lru_pct_mem", r.lru_pct_mem)
                .float("lru_pct_st", r.lru_pct_st)
                .float("ws_pct_mem", r.ws_pct_mem)
                .float("ws_pct_st", r.ws_pct_st),
        );
    }
    a
}

/// Prints Table 1.
pub fn print_table1(env: &BenchEnv) {
    let mut h = table_harness(env);
    println!("{}", report::render_table1(&table1(&mut h)));
}

/// Prints Table 2.
pub fn print_table2(env: &BenchEnv) {
    let mut h = table_harness(env);
    println!("{}", report::render_table2(&table2(&mut h)));
}

/// Prints Table 3.
pub fn print_table3(env: &BenchEnv) {
    let mut h = table_harness(env);
    println!("{}", report::render_table3(&table3(&mut h)));
}

/// Prints Table 4.
pub fn print_table4(env: &BenchEnv) {
    let mut h = table_harness(env);
    println!("{}", report::render_table4(&table4(&mut h)));
}

/// Ablation: CD with and without the LOCK/UNLOCK directives honored.
/// The paper inserts LOCK but defers its evaluation ("the effectiveness
/// of LOCK and UNLOCK directives is not studied in this work") — this is
/// that missing measurement.
pub fn print_lock_ablation(env: &BenchEnv) {
    println!("Ablation: CD with vs without LOCK/UNLOCK honored");
    println!(
        "{:<8} | {:>10} {:>10} {:>12} | {:>10} {:>10} {:>12}",
        "program", "PF lock", "MEM lock", "ST lock", "PF nolock", "MEM nolock", "ST nolock"
    );
    println!("{}", "-".repeat(86));
    // Locks must be inserted for this ablation; the paper-faithful
    // default harness strips them.
    let mut h = Harness::with_config(env.scale(), PipelineConfig::default());
    for row in TABLE1_ROWS {
        let (_, variant) = h.resolve(row);
        let selector = cdmm_core::selector_for(variant.level);
        let p = h.prepared(row);
        let with = p.run_policy(PolicySpec::Cd { selector });
        let without = p.run_policy(PolicySpec::CdNoLocks { selector });
        println!(
            "{:<8} | {:>10} {:>10.2} {:>12.3e} | {:>10} {:>10.2} {:>12.3e}",
            row,
            with.faults,
            with.mean_mem(),
            with.st_cost(),
            without.faults,
            without.mean_mem(),
            without.st_cost()
        );
    }
    println!();
}

/// Ablation: ALLOCATE-only instrumentation (no LOCK at compile time)
/// versus full instrumentation.
pub fn print_insertion_ablation(env: &BenchEnv) {
    println!("Ablation: compile-time insertion of LOCK directives");
    println!(
        "{:<8} | {:>12} {:>12} | {:>12} {:>12}",
        "program", "PF full", "ST full", "PF alloc", "ST alloc"
    );
    println!("{}", "-".repeat(66));
    // `Harness::new` is already ALLOCATE-only; the "full" harness adds
    // compile-time LOCK insertion back.
    let mut h_full = Harness::with_config(env.scale(), PipelineConfig::default());
    let mut h_alloc = Harness::new(env.scale());
    for row in TABLE1_ROWS {
        let full = h_full.cd(row);
        let alloc = h_alloc.cd(row);
        println!(
            "{:<8} | {:>12} {:>12.3e} | {:>12} {:>12.3e}",
            row,
            full.faults,
            full.st_cost(),
            alloc.faults,
            alloc.st_cost()
        );
    }
    println!();
}

/// Ablation: the paper's upper-bound locality counting versus the tight
/// contiguity-aware counting (DESIGN.md §5½).
pub fn print_sizer_ablation(env: &BenchEnv) {
    use cdmm_locality::SizerMode;
    println!("Ablation: locality-size counting mode (CD at each row's default level)");
    println!(
        "{:<8} | {:>10} {:>10} {:>12} | {:>10} {:>10} {:>12}",
        "program", "PF tight", "MEM tight", "ST tight", "PF paper", "MEM paper", "ST paper"
    );
    println!("{}", "-".repeat(86));
    let paper_mode = PipelineConfig {
        insert: cdmm_locality::InsertOptions {
            allocate: true,
            lock: false,
        },
        sizer_mode: SizerMode::PaperBound,
        ..PipelineConfig::default()
    };
    let mut h_tight = Harness::new(env.scale());
    let mut h_paper = Harness::with_config(env.scale(), paper_mode);
    // The modes differ most on stencil codes, which Table 1 does not
    // include — scan those too.
    let rows = [
        "MAIN", "FDJAC", "TQL1", "FIELD", "CONDUCT", "HWSCRT", "APPROX",
    ];
    for row in rows {
        let tight = h_tight.cd(row);
        let paper = h_paper.cd(row);
        println!(
            "{:<8} | {:>10} {:>10.2} {:>12.3e} | {:>10} {:>10.2} {:>12.3e}",
            row,
            tight.faults,
            tight.mean_mem(),
            tight.st_cost(),
            paper.faults,
            paper.mean_mem(),
            paper.st_cost()
        );
    }
    println!();
}

/// Multiprogramming comparison: a CD-managed mix versus a WS-managed mix
/// of the same three programs in the same memory (the paper's future
/// work, Section 5), run through the fleet scheduler as one cell under
/// free admission.
///
/// The two mixes are independent simulations, so they run as executor
/// jobs; reports print in fixed order regardless of completion order.
pub fn print_multiprog(env: &BenchEnv, total_frames: u64) {
    print_multiprog_grid(env, &[total_frames]);
}

/// [`print_multiprog`] over several frame budgets, all simulated as one
/// executor grid.
pub fn print_multiprog_grid(env: &BenchEnv, frame_budgets: &[u64]) {
    let labels = ["CD ", "WS "];
    let reports = run_multiprog_mixes(env.scale(), frame_budgets, &env.executor());
    for (i, &total_frames) in frame_budgets.iter().enumerate() {
        println!("Multiprogramming: CD mix vs WS mix ({total_frames} shared frames)");
        for (label, r) in labels.iter().zip(&reports[i * 2..i * 2 + 2]) {
            println!(
                "{label}: makespan {:>12}  faults {:>8}  swaps {:>4}  cpu {:>5.1}%",
                r.makespan,
                r.total_faults,
                r.swap_events,
                r.cpu_utilization * 100.0
            );
            for t in &r.tenants {
                println!(
                    "      {:<11} PF {:>8}  MEM {:>7.2}  done at {:>12}",
                    t.name,
                    t.metrics.faults,
                    t.metrics.mean_mem(),
                    t.finished_at
                );
            }
        }
        println!();
    }
}

/// Runs the (frame budget × policy mix) grid through the executor and
/// returns reports in deterministic order: for each frame budget, the CD
/// mix then the WS mix. Each run is one three-tenant fleet cell with
/// jitter off — the classic shared-pool comparison, not a perturbed
/// fleet.
pub fn run_multiprog_mixes(
    scale: Scale,
    frame_budgets: &[u64],
    exec: &Executor,
) -> Vec<FleetReport> {
    let mixes = [
        PolicySpec::Cd {
            selector: CdSelector::FirstFit,
        },
        PolicySpec::Ws { tau: 2_000 },
    ];
    let grid: Vec<(u64, PolicySpec)> = frame_budgets
        .iter()
        .flat_map(|&f| mixes.iter().map(move |&p| (f, p)))
        .collect();
    exec.map(&grid, |_, &(total_frames, mix)| {
        let spec = FleetSpec {
            tenants: 3,
            scale,
            workloads: vec!["FDJAC".into(), "TQL".into(), "HYBRJ".into()],
            policy_mix: vec![mix],
            frames_per_cell: total_frames,
            tenants_per_cell: 3,
            admission: Admission::Free,
            jitter: false,
            ..FleetSpec::default()
        };
        run_fleet_spec(&spec).expect("fleet mix")
    })
}

/// Options for [`run_sweep_summary`].
#[derive(Debug, Clone)]
pub struct SweepSummaryOptions {
    /// Workload scale.
    pub scale: Scale,
    /// Worker threads for the parallel runs.
    pub threads: usize,
    /// Persistent cache directory (`None` = in-memory cache).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Fail unless the table runs reach this cache hit rate (percent).
    pub assert_hit_rate: Option<f64>,
    /// Skip the serial baselines (no speedup columns; used by the CI
    /// cache-warm re-run).
    pub quick: bool,
    /// Write the `BENCH_tables.json` artifact into this directory
    /// after the table runs — the canonical machine-readable output.
    pub bench_out: Option<std::path::PathBuf>,
}

/// Prints the execution-engine summary: a per-table
/// wall-clock/speedup/cache-hit report for Tables 2–4.
/// Returns an error when `assert_hit_rate` is not met.
///
/// With an `observer` attached, the parallel executor emits one
/// `job_done` event per sweep point and the result cache one
/// `cache_query` event per lookup.
pub fn run_sweep_summary(
    opts: &SweepSummaryOptions,
    observer: Option<SharedTracer>,
) -> Result<(), String> {
    use std::time::Instant;

    let threads = opts.threads.max(1);
    let mut exec = Executor::with_threads(threads);
    if let Some(t) = &observer {
        exec = exec.with_observer(t.clone());
    }
    println!(
        "Sweep engine summary ({:?} scale, {} threads, cache: {})",
        opts.scale,
        threads,
        match &opts.cache_dir {
            Some(d) => format!("persistent at {}", d.display()),
            None => "in-memory".to_string(),
        }
    );

    // Per-table report against the configured cache.
    let mut cache = match &opts.cache_dir {
        Some(dir) => ResultCache::at_dir(dir).map_err(|e| format!("cache at {dir:?}: {e}"))?,
        None => ResultCache::in_memory(),
    };
    if let Some(t) = &observer {
        cache = cache.with_observer(t.clone());
    }
    if cache.discarded_entries() > 0 {
        println!(
            "cache: discarded {} corrupt persisted entries",
            cache.discarded_entries()
        );
    }
    let mut serial_h = Harness::new(opts.scale)
        .with_executor(Executor::serial())
        .with_result_cache(ResultCache::disabled());
    let mut par_h = Harness::new(opts.scale)
        .with_executor(exec)
        .with_result_cache(cache);

    type TableFn = fn(&mut Harness) -> usize;
    let tables: [(&str, TableFn); 3] = [
        ("table2", |h| table2(h).len()),
        ("table3", |h| table3(h).len()),
        ("table4", |h| table4(h).len()),
    ];
    for (name, run) in tables {
        let before = par_h.exec_stats();
        let t0 = Instant::now();
        let rows = run(&mut par_h);
        let wall = t0.elapsed();
        let d = par_h.exec_stats().since(&before);
        let speedup = if opts.quick {
            String::new()
        } else {
            let t0 = Instant::now();
            run(&mut serial_h);
            let serial = t0.elapsed();
            format!(
                " | serial {:>9.3?} speedup {:.2}x",
                serial,
                serial.as_secs_f64() / wall.as_secs_f64().max(1e-9)
            )
        };
        println!(
            "{name}: {rows} rows in {wall:>9.3?}{speedup} | cache {} hits / {} misses ({:.1}% hit, {:.2}ms/point)",
            d.cache_hits,
            d.cache_misses,
            d.hit_rate(),
            d.mean_point_ns() as f64 / 1e6,
        );
    }

    let total = par_h.exec_stats();
    println!(
        "overall: {} hits / {} misses ({:.1}% hit rate), {} points simulated",
        total.cache_hits,
        total.cache_misses,
        total.hit_rate(),
        total.sim_points
    );
    if let Ok(written) = par_h.result_cache().flush() {
        if written > 0 {
            println!("cache: persisted {written} new entries");
        }
    }
    if let Some(dir) = &opts.bench_out {
        // Cheap here: every point the artifact needs is already
        // memoized in the harness cache.
        let a = tables_artifact_from(&mut par_h, opts.scale);
        let path = a
            .write_to_dir(dir)
            .map_err(|e| format!("--bench-out {}: {e}", dir.display()))?;
        println!("artifact written to {}", path.display());
    }
    if let Some(want) = opts.assert_hit_rate {
        if total.hit_rate() < want {
            return Err(format!(
                "cache hit rate {:.1}% below required {want:.1}%",
                total.hit_rate()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_env() -> BenchEnv {
        BenchEnv::new(Options {
            scale: Scale::Small,
            threads: Some(2),
            ..Options::default()
        })
    }

    #[test]
    fn small_scale_tables_print() {
        // The printing paths must not panic at small scale.
        let env = small_env();
        print_table1(&env);
        print_lock_ablation(&env);
    }

    #[test]
    fn traced_tables_write_a_validating_event_file() {
        let path =
            std::env::temp_dir().join(format!("cdmm-bench-trace-{}.jsonl", std::process::id()));
        let env = BenchEnv::new(Options {
            scale: Scale::Small,
            threads: Some(2),
            trace_out: Some(path.clone()),
            ..Options::default()
        });
        print_table1(&env);
        env.finish();
        let lines = cdmm_vmsim::JsonlSink::validate_file(&path).expect("trace validates");
        assert!(lines > 0, "table runs emit job_done events");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sweep_summary_asserts_hit_rate() {
        let dir = std::env::temp_dir().join(format!("cdmm-sweep-summary-{}", std::process::id()));
        let opts = SweepSummaryOptions {
            scale: Scale::Small,
            threads: 2,
            cache_dir: Some(dir.clone()),
            assert_hit_rate: None,
            quick: true,
            bench_out: None,
        };
        // Cold pass populates the cache; warm pass must hit ≥90%.
        run_sweep_summary(&opts, None).expect("cold pass");
        let warm = SweepSummaryOptions {
            assert_hit_rate: Some(90.0),
            ..opts
        };
        run_sweep_summary(&warm, None).expect("warm pass reaches 90% hits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_summary_writes_the_tables_artifact() {
        let dir = std::env::temp_dir().join(format!("cdmm-sweep-artifact-{}", std::process::id()));
        let opts = SweepSummaryOptions {
            scale: Scale::Small,
            threads: 2,
            cache_dir: None,
            assert_hit_rate: None,
            quick: true,
            bench_out: Some(dir.clone()),
        };
        run_sweep_summary(&opts, None).expect("sweep with artifact");
        let a = artifact::Artifact::read_from_dir(&dir, "tables").expect("artifact written");
        assert_eq!(a.scale, "small");
        // 8 + 8 + 14 + 14 rows across the four tables.
        assert_eq!(a.entries.len(), 44);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tables_artifact_is_deterministic_and_carries_recovered() {
        let a = tables_artifact(Scale::Small, Executor::with_threads(2));
        let b = tables_artifact(Scale::Small, Executor::serial());
        assert_eq!(a, b, "thread count never changes table metrics");
        let t1 = a
            .entries
            .iter()
            .find(|e| e.id == "table1/MAIN")
            .expect("table1 row");
        assert!(t1.get("recovered").is_some(), "recovered surfaced: {t1:?}");
        assert!(t1.get("pf").is_some_and(|v| v.as_f64() > 0.0));
    }
}

/// A dependency-free micro-benchmark harness: `cargo bench` runs each
/// bench binary's `main`, which times closures with [`timing::run`] and
/// prints one line per case (min / mean over a fixed sample count).
pub mod timing {
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// Times `f` for `samples` samples after one warm-up call and
    /// prints `label: min .. mean per iteration`.
    pub fn run<T>(label: &str, samples: u32, mut f: impl FnMut() -> T) {
        black_box(f());
        let mut total = Duration::ZERO;
        let mut min = Duration::MAX;
        for _ in 0..samples {
            let start = Instant::now();
            black_box(f());
            let dt = start.elapsed();
            total += dt;
            min = min.min(dt);
        }
        let mean = total / samples;
        println!("{label:<40} min {min:>12.3?}   mean {mean:>12.3?}   ({samples} samples)");
    }
}
