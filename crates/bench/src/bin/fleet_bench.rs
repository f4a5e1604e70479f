//! Fleet-scheduler benchmark: drives seeded multi-tenant fleets through
//! the cell scheduler (one executor job per cell) and writes the
//! `BENCH_fleet.json` artifact, comparing it against the checked-in
//! baseline.
//!
//! ```text
//! fleet_bench [--small] [--threads N] [--quick] [--bench-out DIR]
//!             [--trace-out PATH] [--progress-out PATH] [--progress-tty]
//! ```
//!
//! Three operating points are measured: a mixed CD/WS/LRU fleet, an
//! all-CD fleet, and an all-WS fleet, each over the default workload
//! rotation. Every deterministic field (tenant count, cells, makespan,
//! faults, swap events, ST-cost and swapper-pressure percentiles, CPU
//! permille) is exact-compared against the baseline; `wall_ns` and
//! `tenants_per_sec` are wall fields, threshold-compared (or advisory
//! under `CDMM_WALL_ADVISORY=1`). `CDMM_BLESS=1` overwrites the
//! baseline instead of comparing.
//!
//! The mixed fleet also prints its [`render_fleet`] scorecard (totals,
//! distributions, policy families, hottest cells) to stderr;
//! `--progress-out`/`--progress-tty` stream live progress frames while
//! the fleets run.
//!
//! Knobs: `CDMM_FLEET_TENANTS` / `CDMM_FLEET_SEED` override the fleet
//! shape for exploratory runs — either override skips the baseline
//! comparison, since the deterministic fields only match at the blessed
//! shape.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cdmm_bench::artifact::{Artifact, Entry};
use cdmm_bench::regress::{compare, has_hard, RegressOptions};
use cdmm_bench::{BenchEnv, Options};
use cdmm_core::fleet::{fleet_frames_sweep, prepare_fleet, FleetSpec};
use cdmm_core::pipeline::PolicySpec;
use cdmm_core::report::render_fleet;
use cdmm_core::sweep::ResultCache;
use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_vmsim::{CancelToken, FleetReport, ProgressExporter};
use cdmm_workloads::Scale;

fn baseline_dir() -> PathBuf {
    match std::env::var("CDMM_BASELINE_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/baselines")),
    }
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v == "1")
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// The three policy rotations the artifact tracks.
fn mixes() -> Vec<(&'static str, Vec<PolicySpec>)> {
    let cd = PolicySpec::Cd {
        selector: CdSelector::FirstFit,
    };
    let ws = PolicySpec::Ws { tau: 2_000 };
    vec![
        ("mixed", vec![cd, ws, PolicySpec::Lru { frames: 16 }]),
        ("cd", vec![cd]),
        ("ws", vec![ws]),
    ]
}

/// One artifact row from one fleet run.
fn entry(id: &str, r: &FleetReport, wall_ns: u64) -> Entry {
    let per_sec = r.tenants.len() as f64 / (wall_ns.max(1) as f64 / 1e9);
    Entry::new(id)
        .int("tenants", r.tenants.len() as u64)
        .int("cells", r.cells.len() as u64)
        .int("makespan", r.makespan)
        .int("refs", r.total_refs)
        .int("pf", r.total_faults)
        .int("swaps", r.swap_events)
        .int("cpu_pm", (r.cpu_utilization * 1000.0).round() as u64)
        .int("st_p50", r.st_cost.p50)
        .int("st_p99", r.st_cost.p99)
        .int("sw_p99", r.swap_pressure.p99)
        .int("wall_ns", wall_ns)
        .float("tenants_per_sec", per_sec)
}

fn run(env: &mut BenchEnv) -> Result<(), String> {
    let o = env.options().clone();
    let overridden =
        env_u64("CDMM_FLEET_TENANTS").is_some() || env_u64("CDMM_FLEET_SEED").is_some();
    let tenants = env_u64("CDMM_FLEET_TENANTS").unwrap_or(if o.quick { 64 } else { 256 }) as usize;
    let seed = env_u64("CDMM_FLEET_SEED").unwrap_or(1);
    let threads = o.executor().threads();
    let scale_tag = match env.scale() {
        Scale::Paper => "paper",
        Scale::Small => "small",
    };

    let exporter = ProgressExporter::start(
        o.progress_out.as_deref(),
        o.progress_tty,
        Duration::from_millis(250),
    )
    .map_err(|e| format!("--progress-out: {e}"))?;
    let counters = exporter.counters();
    let token = CancelToken::new();

    let mut fresh = Artifact::new("fleet", scale_tag);
    for (name, mix) in mixes() {
        let spec = FleetSpec {
            tenants,
            seed,
            scale: env.scale(),
            policy_mix: mix,
            // Tight cells: four tenants on 24 frames keeps the swapper
            // and admission paths hot instead of benching an idle pool.
            frames_per_cell: 24,
            threads,
            ..FleetSpec::default()
        };
        let prepared = prepare_fleet(&spec).map_err(|e| format!("fleet/{name}: {e}"))?;
        let t0 = Instant::now();
        let report = prepared
            .run_observed(env.tracer(), Some(&counters), &token)
            .map_err(|e| format!("fleet/{name}: {e}"))?;
        let wall_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        eprintln!(
            "fleet/{name}: {} tenants over {} cells in {:.1} ms — makespan {}, \
             {} faults, {} swap-outs",
            report.tenants.len(),
            report.cells.len(),
            wall_ns as f64 / 1e6,
            report.makespan,
            report.total_faults,
            report.swap_events,
        );
        if name == "mixed" {
            eprint!("{}", render_fleet(&report));
        }
        fresh
            .entries
            .push(entry(&format!("fleet/{name}"), &report, wall_ns));
    }
    let frames = exporter.finish();
    if frames > 0 {
        eprintln!("fleet_bench: {frames} progress frames exported");
    }

    // Table-2-style frames-per-cell sweep: the same mixed fleet at
    // tighter and looser cells, with the per-tenant standalone best-LRU
    // ST column (answered by the one-pass curve kernel) as the
    // uniprogramming reference the consolidation overhead is read
    // against. Deterministic end to end, so every field is
    // exact-compared.
    let frames_grid = [16u64, 24, 48];
    let spec = FleetSpec {
        tenants,
        seed,
        scale: env.scale(),
        policy_mix: mixes().remove(0).1,
        threads,
        ..FleetSpec::default()
    };
    let cache = ResultCache::in_memory();
    let t0 = Instant::now();
    let sweep = fleet_frames_sweep(&spec, &frames_grid, &cache)
        .map_err(|e| format!("fleet/frames: {e}"))?;
    eprintln!(
        "fleet/frames: {} cell sizes in {:.1} ms — standalone best-LRU ST {:.3e}",
        sweep.points.len(),
        t0.elapsed().as_nanos() as f64 / 1e6,
        sweep.standalone_lru_st,
    );
    for pt in &sweep.points {
        eprintln!(
            "fleet/frames/{}: makespan {}, {} faults, {} swap-outs, ST p99 {}",
            pt.frames_per_cell, pt.makespan, pt.total_faults, pt.swap_events, pt.st_p99,
        );
        fresh.entries.push(
            Entry::new(format!("fleet/frames/{}", pt.frames_per_cell))
                .int("makespan", pt.makespan)
                .int("pf", pt.total_faults)
                .int("swaps", pt.swap_events)
                .int("cpu_pm", (pt.cpu_utilization * 1000.0).round() as u64)
                .int("st_p50", pt.st_p50)
                .int("st_p99", pt.st_p99)
                .float("standalone_st", sweep.standalone_lru_st),
        );
    }

    if let Some(dir) = &o.bench_out {
        let path = fresh
            .write_to_dir(dir)
            .map_err(|e| format!("--bench-out {}: {e}", dir.display()))?;
        eprintln!("fleet_bench: artifact written to {}", path.display());
    }

    let dir = baseline_dir();
    if env_flag("CDMM_BLESS") {
        let path = fresh
            .write_to_dir(&dir)
            .map_err(|e| format!("bless {}: {e}", dir.display()))?;
        eprintln!("fleet_bench: blessed {}", path.display());
        return Ok(());
    }
    if overridden {
        eprintln!("fleet_bench: fleet shape overridden via CDMM_FLEET_*; skipping baseline gate");
        return Ok(());
    }
    let baseline = Artifact::read_from_dir(&dir, "fleet")
        .map_err(|e| format!("{e} (run with CDMM_BLESS=1 to create the baseline)"))?;
    let opts = RegressOptions {
        advisory_wall: env_flag("CDMM_WALL_ADVISORY"),
        ..RegressOptions::default()
    };
    let findings = compare(&baseline, &fresh, &opts);
    for f in &findings {
        eprintln!("fleet_bench: {f}");
    }
    if has_hard(&findings) {
        return Err("deterministic fleet metrics drifted from the baseline".to_string());
    }
    eprintln!(
        "fleet_bench: baseline gate passed ({} findings)",
        findings.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut env = BenchEnv::new(Options::from_env());
    let result = run(&mut env);
    env.finish();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("fleet_bench: {msg}");
            ExitCode::FAILURE
        }
    }
}
