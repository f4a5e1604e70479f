//! The `cdmm-serve` daemon: JSONL batch requests on stdin, JSONL
//! responses on stdout.
//!
//! Requests are grouped into batches by blank lines; each batch is
//! admitted, supervised, and answered in request order, followed by a
//! blank line. EOF drains the final batch and exits. A summary of the
//! service counters goes to stderr on shutdown.
//!
//! ```text
//! Usage: cdmm-serve [OPTIONS]
//!
//!   --threads N        worker threads (default: CDMM_THREADS or cores)
//!   --queue-depth N    jobs admitted per batch, rest shed (default 64)
//!   --deadline-ms N    default per-job deadline (default: none)
//!   --max-retries N    extra attempts after a panic (default 2)
//!   --cache-dir PATH   crash-safe result cache directory
//!   --seed N           seed for retry jitter (default 0)
//!   --chaos-seed N     enable the fault injector with this seed
//!                      (testing only: injects panics into jobs)
//!   --progress-out P   append cdmm-progress/1 JSONL frames to P
//!   --progress-tty     repaint a live status line on stderr
//!   --help             print this message
//! ```

use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use cdmm_serve::{BatchService, FaultInjector, ServeConfig};
use cdmm_vmsim::ProgressExporter;

fn usage(mut out: impl Write) {
    let _ = writeln!(
        out,
        "cdmm-serve: JSONL batch simulation service (stdin -> stdout)\n\
         \n\
         Options:\n\
           --threads N        worker threads (default: CDMM_THREADS or cores)\n\
           --queue-depth N    jobs admitted per batch, rest shed (default 64)\n\
           --deadline-ms N    default per-job deadline in milliseconds\n\
           --max-retries N    extra attempts after a panicking job (default 2)\n\
           --cache-dir PATH   crash-safe result cache directory\n\
           --seed N           seed for retry jitter (default 0)\n\
           --chaos-seed N     enable the fault injector (testing only)\n\
           --progress-out P   append cdmm-progress/1 JSONL frames to P\n\
           --progress-tty     repaint a live status line on stderr\n\
           --help             print this message"
    );
}

/// Everything the command line selects.
struct Cli {
    config: ServeConfig,
    chaos_seed: Option<u64>,
    progress_out: Option<PathBuf>,
    progress_tty: bool,
    help: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut config = ServeConfig::default();
    let mut chaos_seed = None;
    let mut progress_out = None;
    let mut progress_tty = false;
    let mut help = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => help = true,
            "--threads" => {
                config.threads = parse_num(value("--threads")?, "--threads")?;
            }
            "--queue-depth" => {
                config.queue_depth = parse_num(value("--queue-depth")?, "--queue-depth")?;
                if config.queue_depth == 0 {
                    return Err("--queue-depth must be at least 1".into());
                }
            }
            "--deadline-ms" => {
                config.default_deadline_ms =
                    Some(parse_num(value("--deadline-ms")?, "--deadline-ms")?);
            }
            "--max-retries" => {
                config.max_retries = parse_num(value("--max-retries")?, "--max-retries")?;
            }
            "--cache-dir" => {
                config.cache_dir = Some(value("--cache-dir")?.into());
            }
            "--seed" => {
                config.seed = parse_num(value("--seed")?, "--seed")?;
            }
            "--chaos-seed" => {
                chaos_seed = Some(parse_num(value("--chaos-seed")?, "--chaos-seed")?);
            }
            "--progress-out" => {
                progress_out = Some(value("--progress-out")?.into());
            }
            "--progress-tty" => progress_tty = true,
            other => return Err(format!("unknown option: {other}")),
        }
    }
    Ok(Cli {
        config,
        chaos_seed,
        progress_out,
        progress_tty,
        help,
    })
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: invalid value {v:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("cdmm-serve: {e}");
            usage(io::stderr());
            return ExitCode::FAILURE;
        }
    };
    if cli.help {
        usage(io::stdout());
        return ExitCode::SUCCESS;
    }
    let exporter = match ProgressExporter::start(
        cli.progress_out.as_deref(),
        cli.progress_tty,
        Duration::from_millis(250),
    ) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cdmm-serve: cannot open progress file: {e}");
            return ExitCode::FAILURE;
        }
    };
    let service = match BatchService::new(cli.config) {
        Ok(s) => s.with_progress(exporter.counters()),
        Err(e) => {
            eprintln!("cdmm-serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let service = match cli.chaos_seed {
        Some(seed) => {
            eprintln!("cdmm-serve: fault injection enabled (seed {seed})");
            service.with_faults(Arc::new(FaultInjector::new(seed)))
        }
        None => service,
    };

    let stdin = io::stdin();
    let stdout = io::stdout();
    if let Err(e) = service.serve_stream(stdin.lock(), stdout.lock()) {
        eprintln!("cdmm-serve: stream error: {e}");
        return ExitCode::FAILURE;
    }
    let frames = exporter.finish();
    let st = service.stats();
    eprintln!(
        "cdmm-serve: {} requests, {} ok, {} failed ({} shed, {} deadline), {} retries, p50 ≤ {} ns, p99 ≤ {} ns",
        st.requests,
        st.ok,
        st.failed,
        st.shed,
        st.deadline_exceeded,
        st.retries,
        service.latency_ns(0.50),
        service.latency_ns(0.99),
    );
    if frames > 0 {
        eprintln!("cdmm-serve: {frames} progress frames exported");
    }
    for (client, cs) in service.client_stats() {
        eprintln!(
            "cdmm-serve:   client {client}: {} requests, {} ok, {} failed",
            cs.requests, cs.ok, cs.failed
        );
    }
    ExitCode::SUCCESS
}
