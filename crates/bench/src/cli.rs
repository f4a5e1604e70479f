//! The one command-line parser shared by every bench binary.
//!
//! Every binary accepts the same flag set — `--small`, `--threads N`,
//! `--cache-dir PATH`, `--assert-hit-rate PCT`, `--quick`,
//! `--trace-out PATH`, `--trace-events`, `--bench-out DIR`,
//! `--progress-out PATH`, `--progress-tty` — parsed into [`Options`]
//! with unknown flags rejected instead of silently ignored. [`BenchEnv`]
//! turns parsed options into the runtime pieces the printing helpers
//! need: a scale, an executor, and (when `--trace-out` is given) the
//! [`JsonlSink`] a traced simulation writes to. Only `trace_bench` and
//! `fleet_bench` run traced simulations; the other binaries accept
//! `--trace-out` and leave the file empty.

use std::fmt;
use std::path::PathBuf;

use cdmm_core::sweep::Executor;
use cdmm_vmsim::{Detail, JsonlSink, NullTracer, Tracer};
use cdmm_workloads::Scale;

/// Parsed command-line options for a bench binary.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload scale (`--small` selects [`Scale::Small`]).
    pub scale: Scale,
    /// Worker threads (`--threads N`); `None` defers to `CDMM_THREADS`
    /// then the available parallelism.
    pub threads: Option<usize>,
    /// Persistent sweep-cache directory (`--cache-dir PATH`).
    pub cache_dir: Option<PathBuf>,
    /// Required cache hit rate in percent (`--assert-hit-rate PCT`).
    pub assert_hit_rate: Option<f64>,
    /// Skip serial baselines (`--quick`).
    pub quick: bool,
    /// Write a checksummed JSONL event trace here (`--trace-out PATH`;
    /// only `trace_bench` and `fleet_bench` record events, every other
    /// binary leaves the file empty). Rejected at parse time when the
    /// parent directory is missing.
    pub trace_out: Option<PathBuf>,
    /// Include per-reference events in the trace (`--trace-events`;
    /// large output — off by default).
    pub trace_events: bool,
    /// Write `BENCH_*.json` artifacts into this directory
    /// (`--bench-out DIR`; created if missing).
    pub bench_out: Option<PathBuf>,
    /// Append `cdmm-progress/1` JSONL frames here (`--progress-out
    /// PATH`). Rejected at parse time when the parent directory is
    /// missing.
    pub progress_out: Option<PathBuf>,
    /// Repaint a live status line on stderr (`--progress-tty`).
    pub progress_tty: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: Scale::Paper,
            threads: None,
            cache_dir: None,
            assert_hit_rate: None,
            quick: false,
            trace_out: None,
            trace_events: false,
            bench_out: None,
            progress_out: None,
            progress_tty: false,
        }
    }
}

/// A command-line rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag no bench binary understands.
    UnknownFlag(String),
    /// A value-taking flag at the end of the argument list.
    MissingValue(String),
    /// A value that does not parse for its flag.
    BadValue {
        /// The flag the value belonged to.
        flag: String,
        /// The rejected text.
        value: String,
    },
    /// A path whose parent directory does not exist — rejected up
    /// front instead of failing mid-run with an opaque io error.
    BadPath {
        /// The flag the path belonged to.
        flag: String,
        /// The rejected path.
        path: PathBuf,
    },
    /// `--help` was requested (not an error; callers print usage).
    Help,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag:?}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadValue { flag, value } => {
                write!(f, "{flag}: cannot parse {value:?}")
            }
            CliError::BadPath { flag, path } => {
                write!(
                    f,
                    "{flag} {}: parent directory does not exist",
                    path.display()
                )
            }
            CliError::Help => write!(f, "help requested"),
        }
    }
}

impl std::error::Error for CliError {}

/// The flag summary every binary prints on `--help` or a parse error.
pub fn usage(bin: &str) -> String {
    format!(
        "usage: {bin} [--small] [--threads N] [--cache-dir PATH]\n\
         {pad}[--assert-hit-rate PCT] [--quick]\n\
         {pad}[--trace-out PATH] [--trace-events] [--bench-out DIR]\n\
         {pad}[--progress-out PATH] [--progress-tty]\n\
         \n\
         --small            reduced workload scale (CI/tests)\n\
         --threads N        executor worker threads\n\
         --cache-dir PATH   persistent sweep-result cache\n\
         --assert-hit-rate PCT  fail unless the cache hit rate reaches PCT\n\
         --quick            skip serial baselines\n\
         --trace-out PATH   JSONL event trace (trace_bench, fleet_bench; empty elsewhere)\n\
         --trace-events     include per-reference events in the trace\n\
         --bench-out DIR    write BENCH_*.json artifacts into DIR\n\
         --progress-out PATH  append cdmm-progress/1 JSONL frames\n\
         --progress-tty     repaint a live status line on stderr",
        pad = " ".repeat(bin.len() + 8),
    )
}

impl Options {
    /// Parses flags (without the program name). Rejects unknown flags.
    pub fn parse<I>(args: I) -> Result<Options, CliError>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut opts = Options::default();
        let mut it = args.into_iter().map(Into::into);
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .ok_or_else(|| CliError::MissingValue(flag.to_string()))
            };
            match arg.as_str() {
                "--small" => opts.scale = Scale::Small,
                "--quick" => opts.quick = true,
                "--trace-events" => opts.trace_events = true,
                "--threads" => {
                    let v = value("--threads")?;
                    opts.threads = Some(parse_value("--threads", &v)?);
                }
                "--cache-dir" => opts.cache_dir = Some(value("--cache-dir")?.into()),
                "--assert-hit-rate" => {
                    let v = value("--assert-hit-rate")?;
                    opts.assert_hit_rate = Some(parse_value("--assert-hit-rate", &v)?);
                }
                "--trace-out" => {
                    opts.trace_out = Some(parse_path("--trace-out", value("--trace-out")?)?);
                }
                "--progress-out" => {
                    opts.progress_out =
                        Some(parse_path("--progress-out", value("--progress-out")?)?);
                }
                "--progress-tty" => opts.progress_tty = true,
                "--bench-out" => opts.bench_out = Some(value("--bench-out")?.into()),
                "--help" | "-h" => return Err(CliError::Help),
                other => return Err(CliError::UnknownFlag(other.to_string())),
            }
        }
        Ok(opts)
    }

    /// Parses the process arguments, printing usage and exiting on a
    /// bad or `--help` invocation (binaries only; libraries should use
    /// [`Options::parse`]).
    pub fn from_env() -> Options {
        let mut args = std::env::args();
        let bin = args.next().unwrap_or_else(|| "bench".to_string());
        match Self::parse(args) {
            Ok(opts) => opts,
            Err(CliError::Help) => {
                println!("{}", usage(&bin));
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{bin}: {e}\n\n{}", usage(&bin));
                std::process::exit(2);
            }
        }
    }

    /// The executor these options select: `--threads` wins, then
    /// `CDMM_THREADS`, then the available parallelism.
    pub fn executor(&self) -> Executor {
        match self.threads {
            Some(n) => Executor::with_threads(n),
            None => Executor::from_env(),
        }
    }
}

fn parse_value<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, CliError> {
    v.parse().map_err(|_| CliError::BadValue {
        flag: flag.to_string(),
        value: v.to_string(),
    })
}

/// An output path whose parent must already exist — fail now, not
/// minutes into the run when the sink first opens.
fn parse_path(flag: &str, v: String) -> Result<PathBuf, CliError> {
    let path: PathBuf = v.into();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            return Err(CliError::BadPath {
                flag: flag.to_string(),
                path,
            });
        }
    }
    Ok(path)
}

/// Runtime environment of one bench invocation: the parsed [`Options`]
/// plus, when `--trace-out` was given, the [`JsonlSink`] writing the
/// event stream.
#[derive(Debug)]
pub struct BenchEnv {
    opts: Options,
    sink: Option<JsonlSink>,
    null: NullTracer,
}

impl BenchEnv {
    /// Builds the environment from parsed options, opening the trace
    /// sink when one was requested.
    ///
    /// # Panics
    ///
    /// Panics when `--trace-out` names an unwritable path — a bench run
    /// that silently drops its requested trace would be worse.
    pub fn new(opts: Options) -> Self {
        let sink = opts.trace_out.as_ref().map(|path| {
            JsonlSink::create(path)
                .unwrap_or_else(|e| panic!("--trace-out {}: {e}", path.display()))
                .with_detail(if opts.trace_events {
                    Detail::References
                } else {
                    Detail::Decisions
                })
        });
        BenchEnv {
            opts,
            sink,
            null: NullTracer,
        }
    }

    /// Parses the process arguments and builds the environment
    /// (binaries only; exits on a bad invocation).
    pub fn from_env() -> Self {
        Self::new(Options::from_env())
    }

    /// The parsed options.
    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// The workload scale.
    pub fn scale(&self) -> Scale {
        self.opts.scale
    }

    /// The executor the options select.
    pub fn executor(&self) -> Executor {
        self.opts.executor()
    }

    /// The tracer a traced run takes: the `--trace-out` sink, or
    /// [`NullTracer`] when there is none.
    pub fn tracer(&mut self) -> &mut dyn Tracer {
        match &mut self.sink {
            Some(sink) => sink,
            None => &mut self.null,
        }
    }

    /// Flushes the trace sink and reports where the trace went, or the
    /// I/O error that left it incomplete. Call once at the end of
    /// `main`.
    pub fn finish(mut self) {
        if let Some(sink) = &mut self.sink {
            sink.flush();
            match sink.error() {
                None => eprintln!("trace written to {}", sink.path().display()),
                Some(e) => eprintln!("--trace-out {}: {e}", sink.path().display()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, CliError> {
        Options::parse(args.iter().copied())
    }

    #[test]
    fn defaults_are_paper_scale_untraced() {
        let opts = parse(&[]).unwrap();
        assert_eq!(opts, Options::default());
        assert_eq!(opts.scale, Scale::Paper);
        assert!(opts.trace_out.is_none());
    }

    #[test]
    fn all_flags_parse() {
        let opts = parse(&[
            "--small",
            "--threads",
            "3",
            "--cache-dir",
            "/tmp/c",
            "--assert-hit-rate",
            "90.5",
            "--quick",
            "--trace-out",
            "/tmp/t.jsonl",
            "--trace-events",
            "--bench-out",
            "/tmp/bench",
            "--progress-out",
            "/tmp/p.jsonl",
            "--progress-tty",
        ])
        .unwrap();
        assert_eq!(opts.scale, Scale::Small);
        assert_eq!(opts.threads, Some(3));
        assert_eq!(
            opts.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/c"))
        );
        assert_eq!(opts.assert_hit_rate, Some(90.5));
        assert!(opts.quick);
        assert_eq!(
            opts.trace_out.as_deref(),
            Some(std::path::Path::new("/tmp/t.jsonl"))
        );
        assert!(opts.trace_events);
        assert_eq!(
            opts.bench_out.as_deref(),
            Some(std::path::Path::new("/tmp/bench"))
        );
        assert_eq!(
            opts.progress_out.as_deref(),
            Some(std::path::Path::new("/tmp/p.jsonl"))
        );
        assert!(opts.progress_tty);
        assert_eq!(opts.executor().threads(), 3);
    }

    #[test]
    fn trace_out_with_missing_parent_dir_is_rejected_up_front() {
        let missing = "/definitely/not/a/dir/t.jsonl";
        let err = parse(&["--trace-out", missing]).unwrap_err();
        assert_eq!(
            err,
            CliError::BadPath {
                flag: "--trace-out".to_string(),
                path: missing.into(),
            }
        );
        assert!(err.to_string().contains("parent directory"), "{err}");
        assert_eq!(
            parse(&["--progress-out", missing]).unwrap_err(),
            CliError::BadPath {
                flag: "--progress-out".to_string(),
                path: missing.into(),
            }
        );
        // A bare file name (empty parent) and an existing directory
        // both still parse.
        assert!(parse(&["--trace-out", "t.jsonl"]).is_ok());
        let tmp = std::env::temp_dir().join("t.jsonl");
        assert!(parse(&["--trace-out", &tmp.to_string_lossy()]).is_ok());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        assert_eq!(
            parse(&["--smol"]),
            Err(CliError::UnknownFlag("--smol".to_string()))
        );
        assert!(parse(&["--smol"])
            .unwrap_err()
            .to_string()
            .contains("--smol"));
    }

    #[test]
    fn missing_and_bad_values_are_rejected() {
        assert_eq!(
            parse(&["--threads"]),
            Err(CliError::MissingValue("--threads".to_string()))
        );
        assert_eq!(
            parse(&["--threads", "many"]),
            Err(CliError::BadValue {
                flag: "--threads".to_string(),
                value: "many".to_string(),
            })
        );
        assert_eq!(parse(&["--help"]), Err(CliError::Help));
    }

    #[test]
    fn usage_names_every_flag() {
        let u = usage("tables");
        for flag in [
            "--small",
            "--threads",
            "--cache-dir",
            "--assert-hit-rate",
            "--quick",
            "--trace-out",
            "--trace-events",
            "--bench-out",
            "--progress-out",
            "--progress-tty",
        ] {
            assert!(u.contains(flag), "usage must mention {flag}");
        }
    }

    #[test]
    fn env_without_trace_has_no_tracer() {
        let mut env = BenchEnv::new(Options {
            scale: Scale::Small,
            ..Options::default()
        });
        assert_eq!(env.tracer().detail(), Detail::Off);
        assert_eq!(env.scale(), Scale::Small);
        env.finish();
    }

    #[test]
    fn env_with_trace_out_opens_the_sink() {
        let path = std::env::temp_dir().join(format!("cdmm-cli-{}.jsonl", std::process::id()));
        let mut env = BenchEnv::new(Options {
            scale: Scale::Small,
            trace_out: Some(path.clone()),
            ..Options::default()
        });
        assert_eq!(env.tracer().detail(), Detail::Decisions);
        env.finish();
        assert!(path.exists());
        let _ = std::fs::remove_file(&path);
    }
}
