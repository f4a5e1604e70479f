//! The batch service: parse → admit → supervise → respond.
//!
//! A [`BatchService`] turns batches of JSONL job requests into JSONL
//! responses, in request order, with a robustness layer at every stage:
//!
//! - **Admission control** — each batch admits at most `queue_depth`
//!   jobs; the rest are shed immediately with a typed `overloaded`
//!   response instead of queueing without bound.
//! - **Supervision** — every admitted job runs behind the executor's
//!   per-job `catch_unwind` isolation *and* a per-attempt retry loop
//!   with seeded, jittered exponential backoff; a panicking job costs
//!   one `panic` response, never the batch.
//! - **Deadlines** — each job gets a [`CancelToken`] created before any
//!   work starts; the trace interpreter polls it every few thousand
//!   emitted events and the simulator once per compressed trace run, so
//!   an expired deadline surfaces as a typed `deadline_exceeded`
//!   response — whether it expires during prepare or simulate — without
//!   putting a branch in the per-reference hot loop.
//! - **Crash-safe caching** — results are memoized in a [`ResultCache`]
//!   whose persistence is atomic-rename-based and fsck'd at startup, so
//!   a `kill -9` mid-flush never corrupts warm state.
//!
//! Success responses carry only deterministic simulation fields, so a
//! faulty run's surviving responses are byte-identical to a fault-free
//! run's — the chaos suite's central assertion.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cdmm_core::fleet::{prepare_fleet, FleetError};
use cdmm_core::sweep::{self, CacheKey, KeyHasher, Point, SweepPlan};
use cdmm_core::{
    panic_message, prepare_cancellable, Executor, InterpError, PipelineConfig, PipelineError,
    Prepared, ResultCache,
};
use cdmm_trace::synth::{mix, GAMMA};
use cdmm_vmsim::{
    CancelToken, Histogram, JsonlSink, MetricsRegistry, NullTracer, ProgressCounters, SimError,
    Tee, Tracer,
};
use cdmm_workloads::{by_name, Scale};

use crate::faults::FaultInjector;
use crate::request::{
    attach_fields, encode_err, encode_fleet_ok, encode_ok, encode_registry, encode_sweep_ok,
    parse_request, ErrorKind, FleetRequest, JobRequest, Request, SweepFamily, SweepRequest,
    WorkSource,
};

/// Service-wide knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (0 = honor `CDMM_THREADS`/available parallelism).
    pub threads: usize,
    /// Jobs admitted per batch; the rest are shed as `overloaded`.
    pub queue_depth: usize,
    /// Deadline applied to jobs that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Extra attempts after a panicking first try.
    pub max_retries: u32,
    /// Base of the jittered exponential backoff between attempts
    /// (zero: retry immediately — what the tests use).
    pub backoff_base: Duration,
    /// Seed for backoff jitter (and anything else that must replay).
    pub seed: u64,
    /// Cache directory (`None`: in-memory memoization only).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: 0,
            queue_depth: 64,
            default_deadline_ms: None,
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            seed: 0,
            cache_dir: None,
        }
    }
}

/// Snapshot of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Request lines seen (including malformed and shed ones).
    pub requests: u64,
    /// Successful responses.
    pub ok: u64,
    /// Typed failure responses (all kinds, shed included).
    pub failed: u64,
    /// Jobs shed by admission control.
    pub shed: u64,
    /// Jobs that failed with `deadline_exceeded`.
    pub deadline_exceeded: u64,
    /// Retry attempts performed (not counting first tries).
    pub retries: u64,
    /// Cache flushes that returned an I/O error (service kept going).
    pub flush_failures: u64,
}

/// The deterministic, jittered backoff before attempt `attempt` (≥ 1)
/// of job `job`: `base · 2^(attempt-1)` plus a jitter in `[0, base)`,
/// both scaled from the seed so replays sleep identically.
pub fn backoff_delay(seed: u64, job: u64, attempt: u32, base: Duration) -> Duration {
    if base.is_zero() {
        return Duration::ZERO;
    }
    let exp = base.saturating_mul(1u32 << (attempt - 1).min(16));
    let jitter_ns =
        mix(seed ^ job.wrapping_mul(GAMMA) ^ attempt as u64) % base.as_nanos().max(1) as u64;
    exp.saturating_add(Duration::from_nanos(jitter_ns))
}

/// Per-client request accounting, keyed by the optional `"client"`
/// request field and surfaced in the daemon's shutdown summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Requests attributed to this client (shed ones included).
    pub requests: u64,
    /// Successful responses.
    pub ok: u64,
    /// Typed failure responses.
    pub failed: u64,
}

/// How one supervised job ended, whatever its kind: its encoded
/// success row (with any opted-in observability members spliced on)
/// and the references it walked, or a typed failure.
enum JobOutcome {
    Ok { row: String, refs: u64 },
    Err { kind: ErrorKind, detail: String },
}

/// A fault-tolerant batch executor over the simulation pipeline.
pub struct BatchService {
    config: ServeConfig,
    exec: Executor,
    cache: ResultCache,
    faults: Option<Arc<FaultInjector>>,
    /// Memoized prepared programs, keyed by (name, source) hash and the
    /// whole pipeline configuration.
    programs: Mutex<HashMap<(CacheKey, PipelineConfig), Arc<Prepared>>>,
    latency: Mutex<Histogram>,
    clients: Mutex<BTreeMap<String, ClientStats>>,
    progress: Option<Arc<ProgressCounters>>,
    requests: AtomicU64,
    ok: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    deadline_exceeded: AtomicU64,
    retries: AtomicU64,
    flush_failures: AtomicU64,
}

impl BatchService {
    /// Builds a service, opening (and fsck'ing) the persistent cache
    /// when a directory is configured.
    pub fn new(config: ServeConfig) -> io::Result<Self> {
        let cache = match &config.cache_dir {
            Some(dir) => ResultCache::at_dir(dir)?,
            None => ResultCache::in_memory(),
        };
        let exec = if config.threads == 0 {
            Executor::from_env()
        } else {
            Executor::with_threads(config.threads)
        };
        Ok(BatchService {
            config,
            exec,
            cache,
            faults: None,
            programs: Mutex::new(HashMap::new()),
            latency: Mutex::new(Histogram::new()),
            clients: Mutex::new(BTreeMap::new()),
            progress: None,
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            flush_failures: AtomicU64::new(0),
        })
    }

    /// Attaches a seeded fault injector (chaos runs only).
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches shared [`ProgressCounters`]: admitted jobs bump the
    /// total/queue gauges and finished jobs the done/refs/latency ones,
    /// so a [`cdmm_vmsim::ProgressExporter`] sampling the same counters
    /// streams live frames while batches run.
    pub fn with_progress(mut self, progress: Arc<ProgressCounters>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Per-client accounting, name-ordered. Clients only appear when a
    /// request carried the optional `"client"` field.
    pub fn client_stats(&self) -> Vec<(String, ClientStats)> {
        self.clients
            .lock()
            .expect("clients lock")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    fn tally_client(&self, client: Option<&str>, ok: bool) {
        let Some(name) = client else { return };
        let mut map = self.clients.lock().expect("clients lock");
        let entry = map.entry(name.to_string()).or_default();
        entry.requests += 1;
        if ok {
            entry.ok += 1;
        } else {
            entry.failed += 1;
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The result cache (for fsck/hit-rate assertions and stats).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            flush_failures: self.flush_failures.load(Ordering::Relaxed),
        }
    }

    /// An upper bound, in nanoseconds, on the `p`-quantile request
    /// wall time (`p` in [0, 1]): the top of the log₂ [`Histogram`]
    /// bucket holding that request, clamped to the slowest request. It
    /// is within a factor of two of the true percentile, not a measured
    /// latency, so print it as a bound (`p50 ≤ … ns`).
    pub fn latency_ns(&self, p: f64) -> u64 {
        self.latency.lock().expect("latency lock").percentile(p)
    }

    /// Handles one blank-line-delimited batch of request lines and
    /// returns one response line per request, in request order.
    pub fn handle_batch(&self, lines: &[&str]) -> Vec<String> {
        self.requests
            .fetch_add(lines.len() as u64, Ordering::Relaxed);
        // Admission control only counts jobs that parse, so they could
        // actually run.
        let mut admitted: Vec<(usize, Request)> = Vec::new();
        let mut responses: Vec<Option<String>> = vec![None; lines.len()];
        // Ids of this batch's traced requests: the id names the trace
        // sidecar, so two traced jobs with one id would share a file.
        let mut sidecars: HashSet<String> = HashSet::new();
        for (i, line) in lines.iter().enumerate() {
            match parse_request(line) {
                Err(detail) => {
                    responses[i] = Some(encode_err(
                        &request_id_hint(lines[i]),
                        ErrorKind::BadRequest,
                        &detail,
                    ));
                }
                Ok(req) if req.traced() && !sidecars.insert(req.id().to_string()) => {
                    self.tally_client(req.client(), false);
                    responses[i] = Some(encode_err(
                        req.id(),
                        ErrorKind::BadRequest,
                        &format!(
                            "traced request id \"{}\" repeats an earlier traced request of \
                             this batch; the id names its trace sidecar",
                            req.id()
                        ),
                    ));
                }
                Ok(req) => {
                    if admitted.len() < self.config.queue_depth {
                        admitted.push((i, req));
                    } else {
                        self.shed.fetch_add(1, Ordering::Relaxed);
                        self.tally_client(req.client(), false);
                        responses[i] = Some(encode_err(
                            req.id(),
                            ErrorKind::Overloaded,
                            &format!("queue depth {} exceeded", self.config.queue_depth),
                        ));
                    }
                }
            }
        }

        if let Some(p) = &self.progress {
            p.add_total(admitted.len() as u64);
            p.add_queued(admitted.len() as u64);
        }
        let outcomes = self.exec.try_map(&admitted, |job_index, (_, req)| {
            let t0 = Instant::now();
            let outcome = self.supervise(job_index as u64, req);
            let wall = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.latency.lock().expect("latency lock").record(wall);
            if let Some(p) = &self.progress {
                p.sub_queued(1);
                p.add_done(1);
                p.record_latency_ms(wall / 1_000_000);
                if let JobOutcome::Ok { refs, .. } = &outcome {
                    p.add_refs(*refs);
                }
            }
            outcome
        });
        for ((i, req), outcome) in admitted.iter().zip(outcomes) {
            let line = match outcome {
                Ok(JobOutcome::Ok { row, .. }) => row,
                Ok(JobOutcome::Err { kind, detail }) => encode_err(req.id(), kind, &detail),
                // The executor's catch_unwind is the last line of
                // defense — a panic that escaped the retry loop.
                Err(job_err) => encode_err(req.id(), ErrorKind::Panic, &job_err.message),
            };
            self.tally_client(req.client(), line.contains("\"ok\":true"));
            responses[*i] = Some(line);
        }
        if self.cache.flush().is_err() {
            self.flush_failures.fetch_add(1, Ordering::Relaxed);
        }

        let out: Vec<String> = responses
            .into_iter()
            .map(|r| r.expect("every request produced a response"))
            .collect();
        for line in &out {
            if line.contains("\"ok\":true") {
                self.ok.fetch_add(1, Ordering::Relaxed);
            } else {
                self.failed.fetch_add(1, Ordering::Relaxed);
                if line.contains("\"error\":\"deadline_exceeded\"") {
                    self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        out
    }

    /// The retry loop around one job: typed failures return immediately,
    /// panics burn an attempt and back off with seeded jitter.
    fn supervise(&self, job: u64, req: &Request) -> JobOutcome {
        let attempts = self.config.max_retries + 1;
        let mut last_panic = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                let delay = backoff_delay(self.config.seed, job, attempt, self.config.backoff_base);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            let run = catch_unwind(AssertUnwindSafe(|| {
                if let Some(f) = &self.faults {
                    f.maybe_panic(job, attempt as u64);
                }
                self.execute(req)
            }));
            match run {
                Ok(outcome) => return outcome,
                Err(payload) => last_panic = panic_message(payload.as_ref()),
            }
        }
        JobOutcome::Err {
            kind: ErrorKind::Panic,
            detail: format!("{last_panic} ({attempts} attempts)"),
        }
    }

    /// One attempt: start the deadline clock, then dispatch on the job
    /// kind under one shared cancel token.
    fn execute(&self, req: &Request) -> JobOutcome {
        // The clock starts before any work: prepare — whose trace
        // generation a pathological inline source can stretch without
        // bound — counts against the deadline too.
        let token = match req.deadline_ms().or(self.config.default_deadline_ms) {
            Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
            None => CancelToken::new(),
        };
        if token.should_stop() {
            // A born-expired deadline (deadline_ms: 0) must fail
            // identically whether or not the program or its result is
            // already memoized — so it short-circuits before either
            // lookup can introduce a replay-order dependence.
            return deadline_exceeded(0);
        }
        match req {
            Request::Sim(r) => self.execute_sim(r, &token),
            Request::Fleet(r) => self.execute_fleet(r, &token),
            Request::Sweep(r) => self.execute_sweep(r, &token),
        }
    }

    /// One sim attempt: resolve the program (trace generation polls the
    /// token), then run the point through [`SweepPlan::point`] under the
    /// same token and the tracer the request's flags ask for. An
    /// untraced request may be answered from the cache; a
    /// `trace`/`metrics` request always runs — the event stream is the
    /// product — and its metrics still land in the cache for later
    /// untraced calls.
    fn execute_sim(&self, req: &JobRequest, token: &CancelToken) -> JobOutcome {
        let prepared =
            match self.resolve_program(&req.work, req.scale, req.pipeline_config(), token) {
                Ok(p) => p,
                Err(outcome) => return outcome,
            };
        let label = prepared.policy_label(req.policy);
        let plan = SweepPlan::new(&self.cache, &prepared);
        let run = self.observed(req.trace, req.metrics, &req.id, |tracer| {
            plan.point(req.policy, tracer, token)
        });
        match run {
            Err(outcome) => outcome,
            Ok((Ok(metrics), extra)) => JobOutcome::Ok {
                row: attach_fields(&encode_ok(&req.id, &label, &metrics), &extra),
                refs: metrics.refs,
            },
            Ok((Err(SimError::DeadlineExceeded { refs_done }), _)) => deadline_exceeded(refs_done),
            Ok((Err(other), _)) => JobOutcome::Err {
                kind: ErrorKind::Pipeline,
                detail: other.to_string(),
            },
        }
    }

    /// Runs `job` under the tracer a request's `trace`/`metrics` flags
    /// ask for — the JSONL sidecar, a fresh [`MetricsRegistry`], both
    /// through a [`Tee`], or none — and returns its result with the
    /// response's pre-encoded observability members. A sidecar that
    /// could not be written in full fails the job as a typed
    /// `pipeline` row, the way one that could not be opened does.
    fn observed<T>(
        &self,
        trace: bool,
        metrics: bool,
        id: &str,
        job: impl FnOnce(&mut dyn Tracer) -> T,
    ) -> Result<(T, String), JobOutcome> {
        let mut registry = metrics.then(MetricsRegistry::new);
        let mut sink = self.trace_sink(trace, id)?;
        let result = match (&mut sink, &mut registry) {
            (None, None) => job(&mut NullTracer),
            (None, Some(r)) => job(r),
            (Some(s), None) => job(s),
            (Some(s), Some(r)) => job(&mut Tee::new(s, r)),
        };
        if let Some(s) = &mut sink {
            s.flush();
            if let Some(e) = s.error() {
                return Err(JobOutcome::Err {
                    kind: ErrorKind::Pipeline,
                    detail: format!("writing trace sidecar {}: {e}", s.path().display()),
                });
            }
        }
        let extra = observability_extra(sink.as_ref(), registry.as_ref());
        Ok((result, extra))
    }

    /// Opens the checksummed JSONL sidecar a `"trace":true` request
    /// streams into, under the cache directory (the temp directory when
    /// no cache is configured): `serve-<id>.trace.jsonl` for an id in
    /// the filename-safe alphabet `[A-Za-z0-9._-]`. Any other id is
    /// sanitized to that alphabet and suffixed with `+` and a hash of
    /// the raw id, so two ids that sanitize alike never share a file.
    fn trace_sink(&self, want: bool, id: &str) -> Result<Option<JsonlSink>, JobOutcome> {
        if !want {
            return Ok(None);
        }
        let safe = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-');
        let mut name: String = id.chars().map(|c| if safe(c) { c } else { '_' }).collect();
        if !id.chars().all(safe) {
            let mut h = KeyHasher::new();
            h.write_str(id);
            name.push_str(&format!("+{:016x}", h.finish().lo));
        }
        let dir = self
            .config
            .cache_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        let path = dir.join(format!("serve-{name}.trace.jsonl"));
        JsonlSink::create(&path)
            .map(Some)
            .map_err(|e| JobOutcome::Err {
                kind: ErrorKind::Pipeline,
                detail: format!("opening trace sidecar {}: {e}", path.display()),
            })
    }

    /// One fleet attempt: assemble the tenant population (workload
    /// prepares are memoized inside `prepare_fleet` per run) and drive
    /// the fleet scheduler under the same token. Fleet results bypass
    /// the [`ResultCache`] — it stores single-program
    /// [`cdmm_vmsim::Metrics`], and a fleet row is cheap to rebuild
    /// relative to its run time — but keep the full deadline/retry/panic
    /// supervision.
    fn execute_fleet(&self, req: &FleetRequest, token: &CancelToken) -> JobOutcome {
        let spec = req.fleet_spec();
        let prepared = match prepare_fleet(&spec) {
            Ok(p) => p,
            Err(e) => {
                let kind = match &e {
                    FleetError::Empty(_) => ErrorKind::BadRequest,
                    FleetError::UnknownWorkload(_) => ErrorKind::UnknownWorkload,
                    _ => ErrorKind::Pipeline,
                };
                return JobOutcome::Err {
                    kind,
                    detail: e.to_string(),
                };
            }
        };
        let run = self.observed(req.trace, req.metrics, &req.id, |tracer| {
            prepared.run_cancellable(tracer, token)
        });
        match run {
            Err(outcome) => outcome,
            Ok((Ok(report), extra)) => JobOutcome::Ok {
                row: attach_fields(&encode_fleet_ok(&req.id, &report), &extra),
                refs: report.total_refs,
            },
            Ok((Err(FleetError::Sim(SimError::DeadlineExceeded { refs_done })), _)) => {
                deadline_exceeded(refs_done)
            }
            Ok((Err(other), _)) => JobOutcome::Err {
                kind: ErrorKind::Pipeline,
                detail: other.to_string(),
            },
        }
    }

    /// One sweep attempt: resolve the program, then answer the whole
    /// operating curve through the [`SweepPlan`] — one cancellable
    /// trace pass builds the family's curve (memoized per program in
    /// the [`ResultCache`], each materialized point warming the
    /// per-point cache that sim jobs read), and the family's grid
    /// method, the one Table 2 runs, answers the points in blocks of
    /// [`SWEEP_BLOCK`] with a token poll before each. Byte-identical to
    /// per-point simulation by the curve-equivalence gate.
    fn execute_sweep(&self, req: &SweepRequest, token: &CancelToken) -> JobOutcome {
        let prepared =
            match self.resolve_program(&req.work, req.scale, req.pipeline_config(), token) {
                Ok(p) => p,
                Err(outcome) => return outcome,
            };
        let plan = SweepPlan::new(&self.cache, &prepared);
        let keep_going = || !token.should_stop();
        let expired = || JobOutcome::Err {
            kind: ErrorKind::DeadlineExceeded,
            detail: "deadline expired during the sweep curve pass".to_string(),
        };
        let serial = Executor::serial();
        let points = match req.family {
            SweepFamily::Lru => {
                let Some(curve) = plan.lru_curve_cancellable(keep_going) else {
                    return expired();
                };
                // Allocations `1..=V`, listed one block at a time: the
                // grid at index `i` is allocation `i + 1`.
                let frames = sweep::full_lru_range(&prepared);
                in_blocks(*frames.end(), token, |block| {
                    let params: Vec<u64> =
                        (block.start + 1..=block.end).map(|m| m as u64).collect();
                    plan.lru_grid(&serial, &curve, &params)
                })
            }
            SweepFamily::Ws => {
                let taus = sweep::ws_tau_grid(&prepared, req.points.unwrap_or(6));
                let Some(curve) = plan.ws_curve_cancellable(keep_going) else {
                    return expired();
                };
                in_blocks(taus.len(), token, |block| {
                    plan.ws_grid(&serial, &curve, &taus[block])
                })
            }
        };
        let points = match points {
            Ok(points) => points,
            Err(outcome) => return outcome,
        };
        JobOutcome::Ok {
            row: encode_sweep_ok(&req.id, req.family, &points),
            // One curve pass walked the trace once, whatever the point
            // count.
            refs: points.first().map_or(0, |p| p.metrics.refs),
        }
    }

    /// Resolves and memoizes a prepared program under `cfg`. A deadline
    /// expiring during trace generation surfaces as a typed
    /// `deadline_exceeded`; cancelled prepares are never memoized (only
    /// completed ones reach the memo insert).
    fn resolve_program(
        &self,
        work: &WorkSource,
        scale: Scale,
        cfg: PipelineConfig,
        token: &CancelToken,
    ) -> Result<Arc<Prepared>, JobOutcome> {
        let (name, source) = match work {
            WorkSource::Named(n) => match by_name(n, scale) {
                Some(w) => (w.name.to_string(), w.source),
                None => {
                    return Err(JobOutcome::Err {
                        kind: ErrorKind::UnknownWorkload,
                        detail: format!("no workload named \"{n}\" at {scale:?} scale"),
                    })
                }
            },
            WorkSource::Inline { name, source } => (name.clone(), source.clone()),
        };
        let mut h = KeyHasher::new();
        h.write_str(&name);
        h.write_str(&source);
        let memo_key = (h.finish(), cfg);
        if let Some(p) = self
            .programs
            .lock()
            .expect("programs lock")
            .get(&memo_key)
            .cloned()
        {
            return Ok(p);
        }
        match prepare_cancellable(&name, &source, cfg, token) {
            Ok(p) => {
                let p = Arc::new(p);
                self.programs
                    .lock()
                    .expect("programs lock")
                    .insert(memo_key, Arc::clone(&p));
                Ok(p)
            }
            Err(PipelineError::Interp(InterpError::Cancelled { events_done })) => {
                Err(JobOutcome::Err {
                    kind: ErrorKind::DeadlineExceeded,
                    detail: format!(
                        "deadline expired after {events_done} trace events during prepare"
                    ),
                })
            }
            Err(e) => Err(JobOutcome::Err {
                kind: ErrorKind::Pipeline,
                detail: e.to_string(),
            }),
        }
    }

    /// Streams blank-line-delimited batches from `input` to `output`:
    /// one response line per request, a blank line after each batch,
    /// output flushed at every batch boundary.
    pub fn serve_stream<R: BufRead, W: Write>(&self, input: R, mut output: W) -> io::Result<()> {
        let mut batch: Vec<String> = Vec::new();
        let flush_batch = |batch: &mut Vec<String>, output: &mut W| -> io::Result<()> {
            if batch.is_empty() {
                return Ok(());
            }
            let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
            for line in self.handle_batch(&refs) {
                writeln!(output, "{line}")?;
            }
            writeln!(output)?;
            output.flush()?;
            batch.clear();
            Ok(())
        };
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                flush_batch(&mut batch, &mut output)?;
            } else {
                batch.push(line);
            }
        }
        flush_batch(&mut batch, &mut output)
    }
}

/// Points a sweep job materializes between two polls of its token. A
/// declared array can span 2^24 pages, so the grid, not only the curve
/// pass, must answer to the deadline; paper-scale grids (under 300 LRU
/// allocations, about 500 WS windows) fit in one block.
const SWEEP_BLOCK: usize = 4096;

/// Answers a sweep grid of `len` points block by block: `grid` answers
/// the points at one range of grid indices, at most [`SWEEP_BLOCK`] of
/// them, and `token` is polled before each block.
fn in_blocks(
    len: usize,
    token: &CancelToken,
    mut grid: impl FnMut(std::ops::Range<usize>) -> Vec<Point>,
) -> Result<Vec<Point>, JobOutcome> {
    let mut points = Vec::new();
    for start in (0..len).step_by(SWEEP_BLOCK) {
        if token.should_stop() {
            return Err(JobOutcome::Err {
                kind: ErrorKind::DeadlineExceeded,
                detail: format!(
                    "deadline expired after {} of {len} sweep points",
                    points.len()
                ),
            });
        }
        points.extend(grid(start..len.min(start + SWEEP_BLOCK)));
    }
    Ok(points)
}

/// The typed failure of a job its deadline stopped after `refs_done`
/// references.
fn deadline_exceeded(refs_done: u64) -> JobOutcome {
    JobOutcome::Err {
        kind: ErrorKind::DeadlineExceeded,
        detail: format!("deadline expired after {refs_done} references"),
    }
}

/// Pre-encoded observability members for a response row: the trace
/// sidecar's line count and rolling checksum (machine-independent — it
/// fingerprints the byte stream, not the path), then the integer-only
/// metrics digest. Empty when the request opted into neither.
fn observability_extra(sink: Option<&JsonlSink>, registry: Option<&MetricsRegistry>) -> String {
    let mut parts = Vec::new();
    if let Some(s) = sink {
        parts.push(format!(
            "\"trace_lines\":{},\"trace_c\":\"{:016x}\"",
            s.written(),
            s.stream_checksum()
        ));
    }
    if let Some(r) = registry {
        parts.push(encode_registry(&r.snapshot()));
    }
    parts.join(",")
}

/// Best-effort id extraction from a line that failed to parse, so even
/// `bad_request` responses stay correlated when possible.
fn request_id_hint(line: &str) -> String {
    let tag = "\"id\":\"";
    if let Some(start) = line.find(tag) {
        let rest = &line[start + tag.len()..];
        if let Some(end) = rest.find('"') {
            return rest[..end].to_string();
        }
    }
    "?".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSite;
    use cdmm_core::PolicySpec;

    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = catch_unwind(AssertUnwindSafe(f));
        std::panic::set_hook(hook);
        match out {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    fn service(config: ServeConfig) -> BatchService {
        BatchService::new(config).expect("service builds")
    }

    #[test]
    fn happy_path_batch_runs_in_order() {
        let s = service(ServeConfig::default());
        let lines = vec![
            r#"{"id":"a","workload":"MAIN","policy":"cd"}"#,
            r#"{"id":"b","workload":"MAIN","policy":"lru","frames":8}"#,
            r#"{"id":"c","workload":"MAIN","policy":"ws","tau":500}"#,
        ];
        let out = s.handle_batch(&lines);
        assert_eq!(out.len(), 3);
        for (line, id) in out.iter().zip(["a", "b", "c"]) {
            assert!(line.contains(&format!("\"id\":\"{id}\"")), "{line}");
            assert!(line.contains("\"ok\":true"), "{line}");
        }
        let st = s.stats();
        assert_eq!((st.requests, st.ok, st.failed), (3, 3, 0));
    }

    #[test]
    fn responses_are_deterministic_across_thread_counts() {
        let lines: Vec<String> = (0..12)
            .map(|i| {
                format!(
                    r#"{{"id":"j{i}","workload":"MAIN","policy":"lru","frames":{}}}"#,
                    4 + i
                )
            })
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let serial = service(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        })
        .handle_batch(&refs);
        let parallel = service(ServeConfig {
            threads: 8,
            ..ServeConfig::default()
        })
        .handle_batch(&refs);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn bad_lines_become_typed_responses_without_sinking_the_batch() {
        let s = service(ServeConfig::default());
        let lines = vec![
            "this is not json",
            r#"{"id":"good","workload":"MAIN","policy":"cd"}"#,
            r#"{"id":"ghost","workload":"NOSUCH","policy":"cd"}"#,
        ];
        let out = s.handle_batch(&lines);
        assert!(out[0].contains("\"error\":\"bad_request\""), "{}", out[0]);
        assert!(out[1].contains("\"ok\":true"), "{}", out[1]);
        assert!(
            out[2].contains("\"error\":\"unknown_workload\""),
            "{}",
            out[2]
        );
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cdmm-serve-obs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn trace_and_metrics_opt_in_yield_checksummed_extras() {
        let dir = scratch_dir("extras");
        let config = ServeConfig {
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let line = r#"{"id":"t1","workload":"MAIN","policy":"cd","trace":true,"metrics":true,"client":"alice"}"#;
        let first = service(config.clone()).handle_batch(&[line]);
        let second = service(config).handle_batch(&[line]);
        assert_eq!(first, second, "opted-in responses must stay byte-stable");
        let row = &first[0];
        assert!(row.contains("\"ok\":true"), "{row}");
        assert!(row.contains("\"trace_lines\":"), "{row}");
        assert!(row.contains("\"metrics\":{"), "{row}");
        // The in-band checksum must match a cold re-read of the sidecar.
        let c_at = row.find("\"trace_c\":\"").expect("trace_c present") + 11;
        let claimed = &row[c_at..c_at + 16];
        let path = dir.join("serve-t1.trace.jsonl");
        let on_disk = JsonlSink::file_stream_checksum(&path).expect("sidecar readable");
        assert_eq!(claimed, format!("{on_disk:016x}"), "{row}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two traced requests with one id would write one sidecar, the
    /// survivor decided by thread timing: the later one is a typed
    /// `bad_request`, and the first one's sidecar holds its own stream.
    #[test]
    fn a_repeated_traced_id_in_one_batch_is_a_bad_request() {
        let dir = scratch_dir("dup");
        let s = service(ServeConfig {
            threads: 2,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let out = s.handle_batch(&[
            r#"{"id":"dup","workload":"MAIN","policy":"cd","trace":true}"#,
            r#"{"id":"dup","workload":"FDJAC","policy":"cd","trace":true,"client":"bob"}"#,
            r#"{"id":"dup","workload":"FDJAC","policy":"lru","frames":8}"#,
        ]);
        assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
        assert!(out[1].contains("\"error\":\"bad_request\""), "{}", out[1]);
        assert!(out[1].contains("trace sidecar"), "{}", out[1]);
        assert!(
            out[2].contains("\"ok\":true"),
            "untraced repeats run: {}",
            out[2]
        );
        let lines_at = out[0].find("\"trace_lines\":").expect("trace_lines") + 14;
        let claimed: u64 = out[0][lines_at..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .and_then(|n| n.parse().ok())
            .expect("a line count");
        let on_disk = JsonlSink::validate_file(&dir.join("serve-dup.trace.jsonl"));
        assert_eq!(on_disk, Ok(claimed), "the sidecar is the first request's");
        let bob = ClientStats {
            requests: 1,
            ok: 0,
            failed: 1,
        };
        assert_eq!(s.client_stats(), [("bob".to_string(), bob)]);
        // A later batch may reuse the id: its sidecar replaces the file.
        let again =
            s.handle_batch(&[r#"{"id":"dup","workload":"FDJAC","policy":"cd","trace":true}"#]);
        assert!(again[0].contains("\"ok\":true"), "{}", again[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sidecar whose writes fail (here a symlink to the full device)
    /// is a typed `pipeline` row, not an `ok` row counting lines that
    /// never reached the disk.
    #[cfg(target_os = "linux")]
    #[test]
    fn unwritable_trace_sidecar_is_a_pipeline_row() {
        let dir = scratch_dir("full");
        let sidecar = dir.join("serve-t1.trace.jsonl");
        std::os::unix::fs::symlink("/dev/full", &sidecar).expect("symlink the sidecar");
        let s = service(ServeConfig {
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let out = s.handle_batch(&[r#"{"id":"t1","workload":"MAIN","policy":"cd","trace":true}"#]);
        let want = format!(
            "writing trace sidecar {}: {}",
            sidecar.display(),
            std::io::Error::from_raw_os_error(28)
        );
        assert_eq!(out[0], encode_err("t1", ErrorKind::Pipeline, &want));
        assert_eq!(s.stats().failed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plain_requests_carry_no_observability_members() {
        let s = service(ServeConfig::default());
        let out = s.handle_batch(&[r#"{"id":"p","workload":"MAIN","policy":"lru"}"#]);
        assert!(!out[0].contains("trace_"), "{}", out[0]);
        assert!(!out[0].contains("\"metrics\""), "{}", out[0]);
    }

    #[test]
    fn unknown_request_fields_are_rejected_end_to_end() {
        let s = service(ServeConfig::default());
        let out = s.handle_batch(&[r#"{"id":"x","workload":"MAIN","policy":"cd","trase":true}"#]);
        assert!(out[0].contains("\"error\":\"bad_request\""), "{}", out[0]);
        assert!(out[0].contains("unknown request field"), "{}", out[0]);
    }

    #[test]
    fn per_client_stats_key_on_the_client_field() {
        let s = service(ServeConfig::default());
        let lines = vec![
            r#"{"id":"a1","workload":"MAIN","policy":"cd","client":"alice"}"#,
            r#"{"id":"a2","workload":"NOSUCH","policy":"cd","client":"alice"}"#,
            r#"{"id":"b1","workload":"MAIN","policy":"lru","frames":8,"client":"bob"}"#,
            r#"{"id":"n1","workload":"MAIN","policy":"ws","tau":500}"#,
        ];
        s.handle_batch(&lines);
        let stats = s.client_stats();
        assert_eq!(
            stats.iter().map(|(c, _)| c.as_str()).collect::<Vec<_>>(),
            ["alice", "bob"],
            "anonymous requests stay out of the per-client table"
        );
        let alice = stats[0].1;
        assert_eq!((alice.requests, alice.ok, alice.failed), (2, 1, 1));
        let bob = stats[1].1;
        assert_eq!((bob.requests, bob.ok, bob.failed), (1, 1, 0));
    }

    #[test]
    fn fleet_trace_extras_are_deterministic_across_service_threads() {
        let dir = scratch_dir("fleet");
        let lines: Vec<String> = (0..4)
            .map(|i| {
                format!(
                    r#"{{"id":"f{i}","job":"fleet","tenants":12,"seed":{i},"trace":true,"metrics":true}}"#
                )
            })
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let serial = service(ServeConfig {
            threads: 1,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .handle_batch(&refs);
        let parallel = service(ServeConfig {
            threads: 4,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .handle_batch(&refs);
        assert_eq!(serial, parallel);
        assert!(serial[0].contains("\"trace_c\":\""), "{}", serial[0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_control_sheds_beyond_queue_depth() {
        let s = service(ServeConfig {
            queue_depth: 2,
            ..ServeConfig::default()
        });
        let lines: Vec<String> = (0..5)
            .map(|i| format!(r#"{{"id":"q{i}","workload":"MAIN","policy":"cd"}}"#))
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let out = s.handle_batch(&refs);
        let shed: Vec<bool> = out
            .iter()
            .map(|l| l.contains("\"error\":\"overloaded\""))
            .collect();
        assert_eq!(shed, vec![false, false, true, true, true]);
        assert_eq!(s.stats().shed, 3);
    }

    #[test]
    fn zero_deadline_is_a_deterministic_typed_failure() {
        let s = service(ServeConfig::default());
        let lines = vec![r#"{"id":"dl","workload":"MAIN","policy":"cd","deadline_ms":0}"#];
        let a = s.handle_batch(&lines);
        assert!(a[0].contains("\"error\":\"deadline_exceeded\""), "{}", a[0]);
        assert_eq!(s.stats().deadline_exceeded, 1);
        // Replay: same typed failure, byte-identical (refs_done is 0
        // both times because the token expires before the first run).
        let b = s.handle_batch(&lines);
        assert_eq!(a, b);
    }

    #[test]
    fn injected_panics_are_retried_or_typed() {
        // 100% panic rate: every attempt panics, so the job fails as a
        // typed `panic` response after exhausting its retries.
        let always = Arc::new(FaultInjector::new(7).with_rate(FaultSite::JobPanic, 100));
        let s = service(ServeConfig {
            max_retries: 2,
            backoff_base: Duration::ZERO,
            ..ServeConfig::default()
        })
        .with_faults(Arc::clone(&always));
        let lines = vec![r#"{"id":"p0","workload":"MAIN","policy":"cd"}"#];
        let out = quiet_panics(|| s.handle_batch(&lines));
        assert!(out[0].contains("\"error\":\"panic\""), "{}", out[0]);
        assert!(out[0].contains("injected fault"), "{}", out[0]);
        assert_eq!(s.stats().retries, 2, "both retries were burned");

        // A rate that spares some attempt lets the retry loop recover:
        // find a seed where job 0 panics at attempt 0 but not attempt 1.
        let seed = (0..1000)
            .find(|&sd| {
                let f = FaultInjector::new(sd);
                f.should_fault(FaultSite::JobPanic, 0, 0)
                    && !f.should_fault(FaultSite::JobPanic, 0, 1)
            })
            .expect("such a seed exists");
        let flaky = Arc::new(FaultInjector::new(seed));
        let s2 = service(ServeConfig {
            max_retries: 2,
            backoff_base: Duration::ZERO,
            ..ServeConfig::default()
        })
        .with_faults(Arc::clone(&flaky));
        let out = quiet_panics(|| s2.handle_batch(&lines));
        assert!(
            out[0].contains("\"ok\":true"),
            "retry recovered: {}",
            out[0]
        );
        assert_eq!(s2.stats().retries, 1);
        assert_eq!(
            flaky.journal_lines().len(),
            1,
            "the injected panic journaled"
        );
    }

    #[test]
    fn cache_hits_skip_simulation_and_preserve_bytes() {
        let s = service(ServeConfig::default());
        let lines = vec![r#"{"id":"c1","workload":"FDJAC","policy":"lru","frames":10}"#];
        let cold = s.handle_batch(&lines);
        let warm = s.handle_batch(&lines);
        assert_eq!(cold, warm, "a cache hit must not change the response");
        let stats = s.cache().stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        assert_eq!(stats.sim_points, 1, "second call hit, no new simulation");
    }

    /// A flush that fails (a directory squats on the cache's temp path)
    /// changes no row and is counted; once the path clears, the next
    /// batch writes the entries to disk although it only hits the cache.
    #[test]
    fn failed_flushes_are_counted_and_their_entries_written_later() {
        let dir = scratch_dir("flush");
        let lines = [
            r#"{"id":"f1","workload":"MAIN","policy":"lru","frames":8}"#,
            r#"{"id":"f2","workload":"MAIN","policy":"ws","tau":500}"#,
        ];
        let s = service(ServeConfig {
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let tmp = dir.join("results.jsonl.tmp");
        std::fs::create_dir(&tmp).expect("squat the temp path");
        let first = s.handle_batch(&lines);
        assert_eq!(first, service(ServeConfig::default()).handle_batch(&lines));
        assert_eq!(s.stats().flush_failures, 1);
        std::fs::remove_dir(&tmp).expect("unsquat");
        assert_eq!(s.handle_batch(&lines), first);
        assert_eq!(s.cache().stats().cache_hits, 2, "the second batch only hit");
        assert_eq!(s.stats().flush_failures, 1);
        let persisted = std::fs::read_to_string(dir.join("results.jsonl")).expect("flushed");
        assert_eq!(persisted.lines().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inline_source_jobs_run() {
        let s = service(ServeConfig::default());
        let lines = vec![
            r#"{"id":"inl","source":"PROGRAM TINY\nPARAMETER (N = 32)\nDIMENSION A(N)\nDO 1 I = 1, N\n  A(I) = 0.0\n1 CONTINUE\nEND\n","name":"TINY","policy":"lru","frames":4}"#,
        ];
        let out = s.handle_batch(&lines);
        assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
        // Bad inline source is a typed pipeline error.
        let bad = vec![r#"{"id":"syn","source":"NOT FORTRAN AT ALL","policy":"cd"}"#];
        let out = s.handle_batch(&bad);
        assert!(out[0].contains("\"error\":\"pipeline\""), "{}", out[0]);
    }

    #[test]
    fn serve_stream_handles_batches_and_blank_lines() {
        let s = service(ServeConfig::default());
        let input = "\
{\"id\":\"s1\",\"workload\":\"MAIN\",\"policy\":\"cd\"}\n\
\n\
{\"id\":\"s2\",\"workload\":\"MAIN\",\"policy\":\"lru\",\"frames\":6}\n\
{\"id\":\"s3\",\"workload\":\"MAIN\",\"policy\":\"ws\",\"tau\":100}\n";
        let mut out = Vec::new();
        s.serve_stream(io::Cursor::new(input), &mut out)
            .expect("stream serves");
        let text = String::from_utf8(out).expect("utf8");
        let blocks: Vec<&str> = text.trim_end().split("\n\n").collect();
        assert_eq!(
            blocks.len(),
            2,
            "two batches → two response blocks:\n{text}"
        );
        assert_eq!(blocks[0].lines().count(), 1);
        assert_eq!(blocks[1].lines().count(), 2);
        assert!(text
            .lines()
            .filter(|l| !l.is_empty())
            .all(|l| l.contains("\"ok\":true")));
    }

    #[test]
    fn fleet_jobs_run_under_the_same_supervision() {
        let s = service(ServeConfig::default());
        let lines = vec![
            r#"{"id":"f1","job":"fleet","tenants":6,"workloads":"FDJAC","mix":"ws:2000,lru:16","frames":32,"cell":2,"seed":7}"#,
            r#"{"id":"f2","job":"fleet","tenants":4,"policy":"cd"}"#,
            r#"{"id":"f3","job":"fleet","tenants":4,"workloads":"NOSUCH"}"#,
            r#"{"id":"f4","job":"fleet","tenants":4,"deadline_ms":0}"#,
        ];
        let out = s.handle_batch(&lines);
        assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
        assert!(out[0].contains("\"job\":\"fleet\""), "{}", out[0]);
        assert!(out[0].contains("\"tenants\":6"), "{}", out[0]);
        assert!(out[1].contains("\"error\":\"bad_request\""), "{}", out[1]);
        assert!(
            out[2].contains("\"error\":\"unknown_workload\""),
            "{}",
            out[2]
        );
        assert!(
            out[3].contains("\"error\":\"deadline_exceeded\""),
            "{}",
            out[3]
        );
    }

    #[test]
    fn degenerate_fleet_cells_are_bad_requests() {
        let s = service(ServeConfig::default());
        let out = s.handle_batch(&[
            r#"{"id":"c","job":"fleet","tenants":4,"cell":0}"#,
            r#"{"id":"q","job":"fleet","tenants":4,"quantum":0}"#,
            r#"{"id":"f","job":"fleet","tenants":4,"frames":0}"#,
        ]);
        assert_eq!(
            out,
            [
                r#"{"v":1,"id":"c","ok":false,"error":"bad_request","detail":"a fleet needs at least one tenant per cell"}"#,
                r#"{"v":1,"id":"q","ok":false,"error":"bad_request","detail":"a fleet needs at least one reference per quantum"}"#,
                r#"{"v":1,"id":"f","ok":false,"error":"bad_request","detail":"a fleet needs at least one frame per cell"}"#,
            ]
        );
    }

    #[test]
    fn fleet_rows_are_deterministic_across_service_geometry() {
        let line = r#"{"id":"fd","job":"fleet","tenants":8,"workloads":"FDJAC,TQL","mix":"cd,ws:2000","frames":48,"cell":4,"seed":11}"#;
        let mk = |threads| {
            service(ServeConfig {
                threads,
                ..ServeConfig::default()
            })
            .handle_batch(&[line])
        };
        let serial = mk(1);
        assert!(serial[0].contains("\"ok\":true"), "{}", serial[0]);
        assert_eq!(serial, mk(4), "fleet rows are byte-identical");
        // And replaying on the same service instance re-runs the fleet
        // (no result cache) but produces the identical row.
        let s = service(ServeConfig::default());
        assert_eq!(s.handle_batch(&[line]), s.handle_batch(&[line]));
    }

    #[test]
    fn sweep_jobs_answer_whole_curves_from_one_pass() {
        let s = service(ServeConfig::default());
        let lines = vec![
            r#"{"id":"sw1","job":"sweep","workload":"MAIN","family":"lru"}"#,
            r#"{"id":"sw2","job":"sweep","workload":"MAIN","family":"ws","points":4}"#,
        ];
        let out = s.handle_batch(&lines);
        assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
        assert!(out[0].contains("\"family\":\"lru\""), "{}", out[0]);
        assert!(out[1].contains("\"family\":\"ws\""), "{}", out[1]);

        // The digest rows must match the same curves simulated point by
        // point, an engine the curve kernels do not share.
        let w = by_name("MAIN", Scale::Small).unwrap();
        let p = cdmm_core::prepare(w.name, &w.source, PipelineConfig::default()).unwrap();
        let per_point = |params: Vec<u64>, spec: fn(u64) -> PolicySpec| -> Vec<Point> {
            params
                .into_iter()
                .map(|param| Point {
                    param,
                    metrics: p.run_policy(spec(param)),
                })
                .collect()
        };
        let frames = sweep::full_lru_range(&p).map(|m| m as u64).collect();
        let lru = per_point(frames, |m| PolicySpec::Lru { frames: m as usize });
        assert_eq!(out[0], encode_sweep_ok("sw1", SweepFamily::Lru, &lru));
        let ws = per_point(sweep::ws_tau_grid(&p, 4), |tau| PolicySpec::Ws { tau });
        assert_eq!(out[1], encode_sweep_ok("sw2", SweepFamily::Ws, &ws));

        // Replay: the curve memo answers without a second trace pass,
        // and the rows stay byte-identical.
        let sims_before = s.cache().stats().sim_points;
        assert_eq!(s.handle_batch(&lines), out);
        assert_eq!(
            s.cache().stats().sim_points,
            sims_before,
            "warm sweep replays must not re-run the trace pass"
        );
    }

    #[test]
    fn sweep_jobs_share_supervision_and_typed_failures() {
        let s = service(ServeConfig::default());
        let lines = vec![
            r#"{"id":"g1","job":"sweep","workload":"NOSUCH","family":"lru"}"#,
            r#"{"id":"g2","job":"sweep","workload":"MAIN","family":"ws","deadline_ms":0}"#,
            r#"{"id":"g3","job":"sweep","workload":"MAIN","family":"lru","trace":true}"#,
        ];
        let out = s.handle_batch(&lines);
        assert!(
            out[0].contains("\"error\":\"unknown_workload\""),
            "{}",
            out[0]
        );
        assert!(
            out[1].contains("\"error\":\"deadline_exceeded\""),
            "{}",
            out[1]
        );
        assert!(out[2].contains("\"error\":\"bad_request\""), "{}", out[2]);
    }

    #[test]
    fn a_sweep_grid_answers_its_deadline_between_blocks() {
        // One element per page: a million-page LRU grid over a trace of
        // one reference. The curve pass is instant and the grid is the
        // work, so only a poll between grid blocks can stop the job.
        let s = service(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        });
        let line = r#"{"id":"big","job":"sweep","family":"lru","source":"PROGRAM BIG\nDIMENSION A(1000000)\nA(1) = 1.0\nEND\n","page_bytes":4,"deadline_ms":20}"#;
        let out = s.handle_batch(&[line]);
        assert!(
            out[0].contains("\"error\":\"deadline_exceeded\""),
            "{}",
            out[0]
        );
        assert!(out[0].contains("sweep points"), "{}", out[0]);
    }

    #[test]
    fn sweep_rows_are_deterministic_across_service_geometry() {
        let lines = vec![
            r#"{"id":"d1","job":"sweep","workload":"FDJAC","family":"lru"}"#,
            r#"{"id":"d2","job":"sweep","workload":"FDJAC","family":"ws"}"#,
            r#"{"id":"d3","job":"sweep","workload":"TQL","family":"ws","points":8}"#,
        ];
        let mk = |threads| {
            service(ServeConfig {
                threads,
                ..ServeConfig::default()
            })
            .handle_batch(&lines)
        };
        let serial = mk(1);
        assert!(
            serial.iter().all(|l| l.contains("\"ok\":true")),
            "{serial:?}"
        );
        assert_eq!(serial, mk(4), "sweep rows are byte-identical");
    }

    #[test]
    fn sweep_jobs_warm_the_per_point_cache_for_sim_jobs() {
        let s = service(ServeConfig::default());
        s.handle_batch(&[r#"{"id":"w0","job":"sweep","workload":"MAIN","family":"lru"}"#]);
        let sims_before = s.cache().stats().sim_points;
        let out = s.handle_batch(&[r#"{"id":"w1","workload":"MAIN","policy":"lru","frames":8}"#]);
        assert!(out[0].contains("\"ok\":true"), "{}", out[0]);
        assert_eq!(
            s.cache().stats().sim_points,
            sims_before,
            "the sweep already materialized every LRU point"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let base = Duration::from_millis(2);
        let d1 = backoff_delay(9, 3, 1, base);
        let d2 = backoff_delay(9, 3, 2, base);
        assert_eq!(d1, backoff_delay(9, 3, 1, base), "same inputs, same delay");
        assert!(d2 >= d1, "exponential growth");
        assert!(d1 >= base && d1 < base * 2, "attempt 1 = base + jitter");
        assert_eq!(backoff_delay(9, 3, 1, Duration::ZERO), Duration::ZERO);
    }

    /// A sim job's point goes through the plan's one memo: an untraced
    /// request may hit, a `metrics`/`trace` request always runs yet
    /// still warms the cache, and no request changes another's bytes.
    #[test]
    fn sim_jobs_share_the_plan_memo_traced_or_not() {
        let dir = scratch_dir("memo");
        let s = service(ServeConfig {
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let row = |id: &str, frames: u32, extra: &str| {
            format!(
                "{{\"v\":1,\"id\":\"{id}\",\"ok\":true,\"policy\":\"LRU({frames})\",\"refs\":1234,\
                 \"pf\":6,\"mi\":\"5424\",\"fmi\":\"21\",\"fs\":2000,\"peak\":6,\"rec\":0,\"deg\":0{extra}}}"
            )
        };
        let registry = ",\"metrics\":{\"faults\":6,\"refs\":1234,\"resident_pages\":6,\
                        \"fault_interarrival\":{\"n\":5,\"p50\":63,\"p99\":497,\"max\":497},\
                        \"resident_occupancy\":{\"n\":1234,\"p50\":6,\"p99\":6,\"max\":6}}";
        let sidecar = ",\"trace_lines\":6,\"trace_c\":\"3837a1ab632c6d8f\"";
        let steps = [
            (
                r#"{"id":"m1","workload":"FDJAC","policy":"lru","frames":8}"#,
                row("m1", 8, ""),
                (0, 1, 1, 1),
            ),
            (
                r#"{"id":"m2","workload":"FDJAC","policy":"lru","frames":8}"#,
                row("m2", 8, ""),
                (1, 1, 1, 1),
            ),
            (
                r#"{"id":"m3","workload":"FDJAC","policy":"lru","frames":8,"metrics":true}"#,
                row("m3", 8, registry),
                (1, 1, 2, 1),
            ),
            (
                r#"{"id":"m4","workload":"FDJAC","policy":"lru","frames":9,"trace":true}"#,
                row("m4", 9, sidecar),
                (1, 1, 3, 2),
            ),
            (
                r#"{"id":"m5","workload":"FDJAC","policy":"lru","frames":9}"#,
                row("m5", 9, ""),
                (2, 1, 3, 2),
            ),
        ];
        for (line, want, counts) in steps {
            assert_eq!(s.handle_batch(&[line]), [want], "{line}");
            let st = s.cache().stats();
            let got = (
                st.cache_hits,
                st.cache_misses,
                st.sim_points,
                s.cache().len(),
            );
            assert_eq!(
                got, counts,
                "(hits, misses, simulated, entries) after {line}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
