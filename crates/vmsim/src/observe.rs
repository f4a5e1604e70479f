//! Structured event tracing for the simulator and policies.
//!
//! The paper's CD policy is defined by *runtime decisions* — which
//! `ALLOCATE` alternative was granted, when a `PI = 1` request invokes
//! the swapper, when a `LOCK` survives (or is broken by) a reclaim
//! (Sections 3–4, Figure 6) — yet aggregate [`crate::Metrics`] cannot
//! show any of them. This module adds a typed event stream next to the
//! metrics: policies buffer [`SimEvent`]s at each decision point and the
//! driver ([`crate::sim::simulate_with`]) forwards them, timestamped
//! with the reference clock, to a [`Tracer`].
//!
//! A tracer has one setting, its [`Detail`] level, and every event has
//! a level too ([`SimEvent::detail`]). One rule ties the level to the
//! driver: below [`Detail::Decisions`] the run-level loop runs, handing
//! whole compressed runs to the policy's batch kernels; at
//! [`Detail::Decisions`] or above the per-reference loop runs and
//! drains policy events after every trace event. Below
//! [`Detail::Aggregates`] (the default [`NullTracer`] reports
//! [`Detail::Off`]) the run-level loop carries no tracing code at all.
//! At [`Detail::Aggregates`] it also hands the tracer each batch of
//! references its kernels account for in closed form
//! ([`Tracer::aggregate`] with a [`RefBatch`]), the policies' directive
//! outcomes, and eviction counts — what a
//! [`crate::MetricsRegistry`] needs, at simulation speed. Policies
//! guard their emission sites on the level the driver sets, so the
//! untraced path does no buffering and no allocation.
//!
//! Provided sinks:
//!
//! - [`NullTracer`] — the disabled default.
//! - [`EventLog`] — a bounded ring buffer of [`TimedEvent`]s (oldest
//!   events drop first) for in-process inspection and tests.
//! - [`JsonlSink`] — append-only, checksummed JSON-lines files, the
//!   same self-validating line discipline as the sweep result cache.
//! - [`crate::MetricsRegistry`] (in [`crate::stats`]) — counters and
//!   streaming histograms: inter-fault distance, resident occupancy and
//!   per-priority-index `ALLOCATE` outcomes.

use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use cdmm_trace::PageId;

/// What happened to an `ALLOCATE` directive (Figure 6's three exits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocDecision {
    /// A request fit and became the new allocation target.
    Granted,
    /// Nothing fit but the innermost listed priority exceeds 1: the
    /// program continues under its old allocation.
    HeldOver,
    /// Nothing fit and a `PI = 1` request is pending: the swapper must
    /// run.
    SwapNeeded,
}

/// One observable simulation event.
///
/// Events are `Copy` and carry only scalars so that buffering them in a
/// policy costs a few machine words per decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A page reference completed (emitted only to tracers at
    /// [`Detail::References`]).
    Ref {
        /// The referenced page.
        page: PageId,
        /// Resident-set size after the reference.
        resident: u32,
        /// Whether the reference faulted.
        fault: bool,
    },
    /// A page fault (always emitted while tracing).
    Fault {
        /// The faulting page.
        page: PageId,
        /// Resident-set size after the fault was serviced.
        resident: u32,
    },
    /// A page left the resident set by normal replacement.
    Evict {
        /// The evicted page.
        page: PageId,
    },
    /// An `ALLOCATE` directive was processed.
    Alloc {
        /// Priority index of the decisive request (the granted one, or
        /// the innermost listed PI when nothing fit).
        pi: u32,
        /// Pages of the decisive request (0 when nothing was granted).
        pages: u64,
        /// Which Figure 6 exit was taken.
        decision: AllocDecision,
    },
    /// A `LOCK` directive pinned resident pages.
    Lock {
        /// The lock's priority `PJ`.
        pj: u32,
        /// Pages pinned by this directive.
        pinned: u32,
    },
    /// An `UNLOCK` directive released pins.
    Unlock {
        /// Pages unpinned by this directive.
        released: u32,
    },
    /// Memory pressure broke a lock ("the operating system is entitled
    /// to release the locked pages"). Only a hard frame limit
    /// ([`crate::policy::cd::CdPolicy::with_hard_limit`]) can force one.
    LockBroken {
        /// The sacrificed page.
        page: PageId,
        /// Priority of the broken lock.
        pj: u32,
    },
    /// The directive validator clamped or discarded an invalid
    /// directive.
    Recovered {
        /// Total recoveries so far in this run.
        total: u64,
    },
    /// The policy stopped trusting its directive stream and fell back
    /// to plain LRU demand paging.
    Degraded,
    /// The multiprogramming swapper evicted a whole process.
    SwapOut {
        /// Index of the swapped process (submission order).
        process: u32,
    },
    /// The fleet scheduler admitted a tenant into its cell's memory
    /// pool (deterministic: cell-local, geometry-independent).
    TenantAdmitted {
        /// Submission index of the tenant across the whole fleet.
        tenant: u32,
        /// Whether the idle-cell deadlock breaker forced the admission
        /// past the entry-demand gate.
        forced: bool,
    },
    /// A tenant drove its reference string to completion.
    TenantFinished {
        /// Submission index of the finished tenant.
        tenant: u32,
    },
    /// The admission gate deferred an arriving tenant whose entry
    /// demand did not fit the cell's free frames.
    AdmissionDeferred {
        /// Submission index of the deferred tenant.
        tenant: u32,
        /// The entry demand (pages) the gate held the tenant to.
        demand: u64,
    },
    /// A cell's scheduler-queue depth after an admission transition:
    /// how many tenants are runnable versus parked.
    QueueDepth {
        /// The cell whose queue is being described.
        cell: u32,
        /// Tenants ready to run.
        ready: u32,
        /// Tenants blocked on fault service or swap-in.
        blocked: u32,
        /// Tenants swapped out by load control.
        swapped: u32,
    },
}

impl SimEvent {
    /// Short stable tag naming the event kind (used in the JSONL
    /// encoding and in summaries).
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::Ref { .. } => "ref",
            SimEvent::Fault { .. } => "fault",
            SimEvent::Evict { .. } => "evict",
            SimEvent::Alloc { .. } => "alloc",
            SimEvent::Lock { .. } => "lock",
            SimEvent::Unlock { .. } => "unlock",
            SimEvent::LockBroken { .. } => "lock_broken",
            SimEvent::Recovered { .. } => "recovered",
            SimEvent::Degraded => "degraded",
            SimEvent::SwapOut { .. } => "swap_out",
            SimEvent::TenantAdmitted { .. } => "tenant_admitted",
            SimEvent::TenantFinished { .. } => "tenant_finished",
            SimEvent::AdmissionDeferred { .. } => "admission_deferred",
            SimEvent::QueueDepth { .. } => "queue_depth",
        }
    }

    /// The least [`Detail`] a tracer needs to receive this event.
    pub fn detail(&self) -> Detail {
        match self {
            SimEvent::Ref { .. } => Detail::References,
            SimEvent::Fault { .. } | SimEvent::Evict { .. } => Detail::Decisions,
            SimEvent::Alloc { .. }
            | SimEvent::Lock { .. }
            | SimEvent::Unlock { .. }
            | SimEvent::LockBroken { .. }
            | SimEvent::Recovered { .. }
            | SimEvent::Degraded => Detail::Aggregates,
            SimEvent::SwapOut { .. }
            | SimEvent::TenantAdmitted { .. }
            | SimEvent::TenantFinished { .. }
            | SimEvent::AdmissionDeferred { .. }
            | SimEvent::QueueDepth { .. } => Detail::Scheduler,
        }
    }
}

/// A [`SimEvent`] stamped with the reference clock at which it occurred
/// (references processed so far; directive events carry the clock of
/// the preceding reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Reference clock.
    pub at: u64,
    /// The event.
    pub event: SimEvent,
}

/// How much of the event stream a [`Tracer`] receives. Levels are
/// ordered, and each includes the ones below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Detail {
    /// Nothing: the run-level loop runs and no event is built.
    Off,
    /// Fleet-scheduler events only: tenant lifecycle, admission, queue
    /// depth, swap-outs. Policies keep their batch kernels.
    Scheduler,
    /// Also the directive outcomes (`ALLOCATE`/`LOCK`/`UNLOCK`,
    /// recoveries, degradation, broken locks) and the references as
    /// [`RefBatch`]es through [`Tracer::aggregate`]. The run-level loop
    /// and the policies' batch kernels keep running.
    Aggregates,
    /// Also every runtime decision: faults and evictions one by one.
    /// Selects the per-reference loop.
    Decisions,
    /// Also one [`SimEvent::Ref`] per reference.
    References,
}

/// A batch of references, or of evictions, that a run accounted for at
/// once — what [`Tracer::aggregate`] receives at [`Detail::Aggregates`]
/// and above.
///
/// A batch handed over at clock `at` ends there: its `n` references
/// are the ones at clocks `at − n + 1 ..= at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefBatch {
    /// `n` references that all left `resident` pages resident, and
    /// either all faulted or all hit.
    Flat {
        /// References in the batch.
        n: u64,
        /// Resident-set size after each of them.
        resident: u64,
        /// Whether every one faulted (otherwise every one hit).
        fault: bool,
    },
    /// `n` faulting references growing the resident set from `from`
    /// pages under a cap: the `k`-th leaves `min(from + k, cap)` pages
    /// resident (all of them `cap` when `from ≥ cap`).
    Ramp {
        /// References in the batch.
        n: u64,
        /// Resident-set size before the first of them.
        from: u64,
        /// The frame cap (`u64::MAX` when uncapped).
        cap: u64,
    },
    /// This many pages left the resident set by normal replacement (the
    /// count of [`SimEvent::Evict`]s a decision-level run emits).
    Evictions(u64),
}

/// A sink for simulation events.
///
/// Drivers read [`Tracer::detail`] once per run: they build no event
/// the tracer's level excludes, below [`Detail::Decisions`] a
/// uniprogram run keeps the run-level loop, and below
/// [`Detail::Aggregates`] that loop carries no tracing code.
pub trait Tracer {
    /// The events this tracer wants. Defaults to
    /// [`Detail::Decisions`]; [`NullTracer`] reports [`Detail::Off`].
    fn detail(&self) -> Detail {
        Detail::Decisions
    }

    /// Receives one event at reference clock `at`.
    fn record(&mut self, at: u64, event: &SimEvent);

    /// Receives one batch ending at reference clock `at` (only at
    /// [`Detail::Aggregates`] or above). Uniprogram runs hand over every
    /// reference in some batch — the run-level loop as its kernels
    /// account for them, the per-reference loop one reference at a
    /// time — and every eviction as a count; fleets hand over only
    /// eviction counts. The default ignores batches.
    fn aggregate(&mut self, at: u64, batch: &RefBatch) {
        let _ = (at, batch);
    }

    /// Flushes any buffered output (called once at the end of a run).
    fn flush(&mut self) {}
}

/// The disabled tracer: records nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn detail(&self) -> Detail {
        Detail::Off
    }

    fn record(&mut self, _at: u64, _event: &SimEvent) {}
}

/// A bounded in-memory ring buffer of [`TimedEvent`]s.
///
/// When full, the oldest event is dropped (and counted) to admit the
/// newest — the tail of a run is always retained.
#[derive(Debug, Clone)]
pub struct EventLog {
    capacity: usize,
    buf: VecDeque<TimedEvent>,
    dropped: u64,
    detail: Detail,
}

impl EventLog {
    /// Creates a ring buffer holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event log needs a positive capacity");
        EventLog {
            capacity,
            buf: VecDeque::with_capacity(capacity),
            dropped: 0,
            detail: Detail::Decisions,
        }
    }

    /// The events to record (default [`Detail::Decisions`]).
    pub fn with_detail(mut self, detail: Detail) -> Self {
        self.detail = detail;
        self
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.buf.iter()
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Copies the retained events out, oldest first.
    pub fn to_vec(&self) -> Vec<TimedEvent> {
        self.buf.iter().copied().collect()
    }
}

impl Tracer for EventLog {
    fn detail(&self) -> Detail {
        self.detail
    }

    fn record(&mut self, at: u64, event: &SimEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TimedEvent { at, event: *event });
    }
}

// ---------------------------------------------------------------------
// Checksummed JSONL encoding.
//
// Same line discipline as the sweep result cache: every line carries a
// SplitMix64-folded checksum over its own payload, so a damaged file is
// detected line by line. (The mixer is duplicated here rather than
// imported because the cache lives in cdmm-core, which depends on this
// crate.)

/// SplitMix64 increment (golden-ratio constant).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output mixer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Checksum over a serialized line's payload prefix.
pub(crate) fn line_checksum(payload: &str) -> u64 {
    let mut h = mix(0x7ACE_0BE5_EED5_11E5);
    for chunk in payload.as_bytes().chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h = mix(h ^ u64::from_le_bytes(buf).wrapping_mul(GAMMA));
    }
    mix(h ^ payload.len() as u64)
}

/// Renders the event-specific JSON fields (no surrounding braces).
fn event_fields(event: &SimEvent) -> String {
    let kind = event.kind();
    match event {
        SimEvent::Ref {
            page,
            resident,
            fault,
        } => format!(
            "\"ev\":\"{kind}\",\"page\":{},\"resident\":{resident},\"fault\":{fault}",
            page.0
        ),
        SimEvent::Fault { page, resident } => format!(
            "\"ev\":\"{kind}\",\"page\":{},\"resident\":{resident}",
            page.0
        ),
        SimEvent::Evict { page } => format!("\"ev\":\"{kind}\",\"page\":{}", page.0),
        SimEvent::Alloc {
            pi,
            pages,
            decision,
        } => {
            let d = match decision {
                AllocDecision::Granted => "granted",
                AllocDecision::HeldOver => "held_over",
                AllocDecision::SwapNeeded => "swap_needed",
            };
            format!("\"ev\":\"{kind}\",\"pi\":{pi},\"pages\":{pages},\"decision\":\"{d}\"")
        }
        SimEvent::Lock { pj, pinned } => {
            format!("\"ev\":\"{kind}\",\"pj\":{pj},\"pinned\":{pinned}")
        }
        SimEvent::Unlock { released } => format!("\"ev\":\"{kind}\",\"released\":{released}"),
        SimEvent::LockBroken { page, pj } => {
            format!("\"ev\":\"{kind}\",\"page\":{},\"pj\":{pj}", page.0)
        }
        SimEvent::Recovered { total } => format!("\"ev\":\"{kind}\",\"total\":{total}"),
        SimEvent::Degraded => format!("\"ev\":\"{kind}\""),
        SimEvent::SwapOut { process } => format!("\"ev\":\"{kind}\",\"process\":{process}"),
        SimEvent::TenantAdmitted { tenant, forced } => {
            format!("\"ev\":\"{kind}\",\"tenant\":{tenant},\"forced\":{forced}")
        }
        SimEvent::TenantFinished { tenant } => format!("\"ev\":\"{kind}\",\"tenant\":{tenant}"),
        SimEvent::AdmissionDeferred { tenant, demand } => {
            format!("\"ev\":\"{kind}\",\"tenant\":{tenant},\"demand\":{demand}")
        }
        SimEvent::QueueDepth {
            cell,
            ready,
            blocked,
            swapped,
        } => format!(
            "\"ev\":\"{kind}\",\"cell\":{cell},\"ready\":{ready},\"blocked\":{blocked},\"swapped\":{swapped}"
        ),
    }
}

/// Serializes one timed event as a self-checksummed JSON line (without
/// the trailing newline).
pub fn encode_event_line(at: u64, event: &SimEvent) -> String {
    let payload = format!("{{\"v\":1,\"at\":{at},{}", event_fields(event));
    let c = line_checksum(&payload);
    format!("{payload},\"c\":\"{c:016x}\"}}")
}

/// Verifies one line produced by [`encode_event_line`]: version tag
/// present and checksum matching the payload prefix.
pub fn validate_event_line(line: &str) -> bool {
    let Some(cut) = line.rfind(",\"c\":\"") else {
        return false;
    };
    let payload = &line[..cut];
    if !payload.starts_with("{\"v\":1,\"at\":") {
        return false;
    }
    let tail = &line[cut + 6..];
    let Some(hex) = tail.strip_suffix("\"}") else {
        return false;
    };
    match u64::from_str_radix(hex, 16) {
        Ok(stored) => stored == line_checksum(payload),
        Err(_) => false,
    }
}

/// A tracer appending checksummed JSON lines to a file.
///
/// The file uses the same self-validating line discipline as the sweep
/// result cache (`target/cdmm-cache/results.jsonl`), so the same
/// tooling can audit both. Writes are buffered; the driver's end-of-run
/// [`Tracer::flush`] (or dropping the sink) flushes them.
///
/// [`Tracer::record`] returns nothing, so the sink keeps the first I/O
/// error a write or flush hit and writes nothing after it; callers read
/// it from [`JsonlSink::error`] once the run has flushed.
#[derive(Debug)]
pub struct JsonlSink {
    out: BufWriter<fs::File>,
    path: PathBuf,
    written: u64,
    detail: Detail,
    stream: u64,
    error: Option<std::io::Error>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        Ok(JsonlSink {
            out: BufWriter::new(fs::File::create(path)?),
            path: path.to_path_buf(),
            written: 0,
            detail: Detail::Decisions,
            stream: 0,
            error: None,
        })
    }

    /// The events to record (default [`Detail::Decisions`]).
    pub fn with_detail(mut self, detail: Detail) -> Self {
        self.detail = detail;
        self
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Lines written so far (to the buffer: a line is on disk only
    /// once a flush succeeded, see [`JsonlSink::error`]).
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The first I/O error a write or flush hit, if any. A sink with an
    /// error wrote an incomplete file and records nothing further.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Rolling checksum over every line written so far — a compact,
    /// deterministic fingerprint of the whole event stream (what the
    /// batch service reports back as `trace_c`).
    pub fn stream_checksum(&self) -> u64 {
        self.stream
    }

    /// Recomputes the [`JsonlSink::stream_checksum`] of a trace file on
    /// disk, validating every line on the way.
    pub fn file_stream_checksum(path: &Path) -> Result<u64, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let mut stream = 0u64;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            if !validate_event_line(line) {
                return Err(format!(
                    "{}:{}: damaged trace line: {line}",
                    path.display(),
                    i + 1
                ));
            }
            stream = mix(stream ^ line_checksum(line));
        }
        Ok(stream)
    }

    /// Validates every line of a trace file; returns the number of
    /// valid lines or a description of the first damaged one.
    pub fn validate_file(path: &Path) -> Result<u64, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let mut n = 0;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            if !validate_event_line(line) {
                return Err(format!(
                    "{}:{}: damaged trace line: {line}",
                    path.display(),
                    i + 1
                ));
            }
            n += 1;
        }
        Ok(n)
    }

    /// Reads a trace file back, tolerating damage only as a *torn tail*
    /// — the suffix a crash mid-append leaves behind. Returns
    /// `(valid_lines, torn_lines)` where `torn_lines` counts the
    /// trailing damaged run that was skipped. A damaged line followed by
    /// a valid one is mid-file corruption, not a torn tail, and is an
    /// error: the checksummed reader must never silently resurrect a
    /// file whose interior rotted.
    pub fn recover_file(path: &Path) -> Result<(u64, u64), String> {
        let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let mut valid = 0u64;
        let mut torn = 0u64;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            if validate_event_line(line) {
                if torn > 0 {
                    return Err(format!(
                        "{}:{}: valid line after {torn} damaged line(s): mid-file corruption",
                        path.display(),
                        i + 1
                    ));
                }
                valid += 1;
            } else {
                torn += 1;
            }
        }
        Ok((valid, torn))
    }
}

impl Tracer for JsonlSink {
    fn detail(&self) -> Detail {
        self.detail
    }

    fn record(&mut self, at: u64, event: &SimEvent) {
        if self.error.is_some() {
            return;
        }
        let line = encode_event_line(at, event);
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
            return;
        }
        self.stream = mix(self.stream ^ line_checksum(&line));
        self.written += 1;
    }

    fn flush(&mut self) {
        if let Err(e) = self.out.flush() {
            self.error.get_or_insert(e);
        }
    }
}

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `k ≥ 1` holds `[2^(k-1), 2^k)`.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Lower bound (inclusive) of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Upper bound (inclusive) of bucket `i`.
    pub fn bucket_hi(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Records `n` samples of the value `v` — the same state as `n`
    /// calls of [`Histogram::record`] (none when `n` is 0).
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(v)] += n;
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Samples in bucket `i`.
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Streaming percentile estimate: the upper bound of the bucket
    /// holding the `q`-quantile sample, clamped to the exact maximum.
    ///
    /// `q` is a fraction in `[0, 1]` (`0.5` = p50). Log bucketing makes
    /// the estimate exact for 0/1-valued samples and within a factor of
    /// two elsewhere; clamping to [`Histogram::max`] makes single-sample
    /// histograms report that sample for every percentile. Empty
    /// histograms report 0.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_hi(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lo, hi, count)`, in value order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), Self::bucket_hi(i), c))
    }
}

/// A fan-out tracer forwarding every event to two underlying tracers —
/// how one run feeds a user tracer and a
/// [`crate::stats::MetricsRegistry`] off one instrumented pass.
///
/// The tee reports the larger of its sides' [`Detail`] levels and
/// forwards each event only to a side whose level covers
/// [`SimEvent::detail`], so an attached decision-level tracer never
/// sees reference noise it did not ask for. Batches go to each side at
/// [`Detail::Aggregates`] or above.
pub struct Tee<'a, 'b> {
    a: &'a mut dyn Tracer,
    b: &'b mut dyn Tracer,
}

impl fmt::Debug for Tee<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tee")
            .field("a", &self.a.detail())
            .field("b", &self.b.detail())
            .finish()
    }
}

impl<'a, 'b> Tee<'a, 'b> {
    /// Fans one event stream out to `a` and `b`.
    pub fn new(a: &'a mut dyn Tracer, b: &'b mut dyn Tracer) -> Self {
        Tee { a, b }
    }
}

impl Tracer for Tee<'_, '_> {
    fn detail(&self) -> Detail {
        self.a.detail().max(self.b.detail())
    }

    fn record(&mut self, at: u64, event: &SimEvent) {
        let need = event.detail();
        if self.a.detail() >= need {
            self.a.record(at, event);
        }
        if self.b.detail() >= need {
            self.b.record(at, event);
        }
    }

    fn aggregate(&mut self, at: u64, batch: &RefBatch) {
        if self.a.detail() >= Detail::Aggregates {
            self.a.aggregate(at, batch);
        }
        if self.b.detail() >= Detail::Aggregates {
            self.b.aggregate(at, batch);
        }
    }

    fn flush(&mut self) {
        self.a.flush();
        self.b.flush();
    }
}

/// A wall-clock phase span: `enter` stamps the start, `exit` yields the
/// label and elapsed nanoseconds — a named timer for one layer or phase
/// of a run.
///
/// Spans measure wall time, so they live strictly outside the
/// deterministic core: nothing derived from a span may enter a
/// [`crate::FleetReport`].
#[derive(Debug)]
pub struct Span {
    label: &'static str,
    start: std::time::Instant,
}

impl Span {
    /// Opens a span over the named phase.
    pub fn enter(label: &'static str) -> Self {
        Span {
            label,
            start: std::time::Instant::now(),
        }
    }

    /// The phase label.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Nanoseconds elapsed so far (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Closes the span, yielding `(label, elapsed_ns)`.
    pub fn exit(self) -> (&'static str, u64) {
        let ns = self.elapsed_ns();
        (self.label, ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_is_off_and_levels_are_ordered() {
        assert_eq!(NullTracer.detail(), Detail::Off);
        assert!(Detail::Off < Detail::Scheduler);
        assert!(Detail::Scheduler < Detail::Aggregates);
        assert!(Detail::Aggregates < Detail::Decisions);
        assert!(Detail::Decisions < Detail::References);
    }

    #[test]
    fn spans_measure_monotonic_phases() {
        let span = Span::enter("simulate");
        assert_eq!(span.label(), "simulate");
        let early = span.elapsed_ns();
        let (label, ns) = span.exit();
        assert_eq!(label, "simulate");
        assert!(ns >= early, "span time is monotonic");
    }

    #[test]
    fn detail_defaults_to_decisions_and_composes() {
        assert_eq!(EventLog::new(4).detail(), Detail::Decisions);
        let sched = EventLog::new(4).with_detail(Detail::Scheduler);
        assert_eq!(sched.detail(), Detail::Scheduler);
        let mut full = EventLog::new(4);
        let mut none = EventLog::new(4).with_detail(Detail::Scheduler);
        let tee = Tee::new(&mut full, &mut none);
        assert_eq!(tee.detail(), Detail::Decisions, "tee: the larger side");
    }

    #[test]
    fn ring_buffer_wraps_and_counts_drops() {
        let mut log = EventLog::new(3);
        for i in 0..5u64 {
            log.record(
                i,
                &SimEvent::Evict {
                    page: PageId(i as u32),
                },
            );
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        // The oldest two (at=0,1) were dropped; 2,3,4 survive in order.
        let ats: Vec<u64> = log.events().map(|e| e.at).collect();
        assert_eq!(ats, vec![2, 3, 4]);
        assert_eq!(log.capacity(), 3);
        assert_eq!(log.to_vec().len(), 3);
    }

    #[test]
    fn ring_buffer_below_capacity_drops_nothing() {
        let mut log = EventLog::new(8);
        log.record(1, &SimEvent::Degraded);
        assert_eq!((log.len(), log.dropped()), (1, 0));
        assert!(!log.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_panics() {
        EventLog::new(0);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // 0 → bucket 0; 1 → bucket 1; powers of two open new buckets.
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.bucket_count(0), 1, "value 0");
        assert_eq!(h.bucket_count(1), 1, "value 1");
        assert_eq!(h.bucket_count(2), 2, "values 2..=3");
        assert_eq!(h.bucket_count(3), 2, "values 4..=7");
        assert_eq!(h.bucket_count(4), 1, "value 8");
        assert_eq!(h.bucket_count(10), 1, "value 1023");
        assert_eq!(h.bucket_count(11), 1, "value 1024");
        assert_eq!(h.bucket_count(64), 1, "value u64::MAX");
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(Histogram::bucket_lo(0), 0);
        assert_eq!(Histogram::bucket_hi(0), 0);
        assert_eq!(Histogram::bucket_lo(4), 8);
        assert_eq!(Histogram::bucket_hi(4), 15);
        assert_eq!(Histogram::bucket_hi(64), u64::MAX);
    }

    #[test]
    fn histogram_mean_and_nonzero_iteration() {
        let mut h = Histogram::new();
        h.record(2);
        h.record(4);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(2, 3, 1), (4, 7, 1)]);
        assert_eq!(Histogram::new().mean(), 0.0);
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // Log buckets bound every estimate by a factor of two from above.
        assert!(h.percentile(0.5) >= 500 && h.percentile(0.5) <= 1000);
        assert!(h.percentile(0.99) >= 990);
        assert_eq!(h.percentile(1.0), 1000, "p100 is the exact max");
        assert!(h.percentile(0.0) >= 1, "rank clamps to the first sample");
        assert!(h.percentile(0.5) <= h.percentile(0.9));
    }

    #[test]
    fn tee_splits_refs_by_detail() {
        let mut refs_log = EventLog::new(16).with_detail(Detail::References);
        let mut decisions_log = EventLog::new(16);
        let mut tee = Tee::new(&mut refs_log, &mut decisions_log);
        assert_eq!(tee.detail(), Detail::References, "one side wants refs");
        tee.record(
            1,
            &SimEvent::Ref {
                page: PageId(0),
                resident: 1,
                fault: false,
            },
        );
        tee.record(2, &SimEvent::Degraded);
        tee.flush();
        assert_eq!(refs_log.len(), 2, "ref-hungry side sees both");
        assert_eq!(decisions_log.len(), 1, "other side skips Ref events");
        assert_eq!(
            decisions_log.events().next().map(|e| e.event.kind()),
            Some("degraded")
        );
    }

    #[test]
    fn record_n_equals_n_single_records() {
        let cases = [
            (0u64, 3u64),
            (1, 1),
            (7, 5),
            (1024, 2),
            (u64::MAX, 4),
            (9, 0),
        ];
        let mut batched = Histogram::new();
        let mut single = Histogram::new();
        for (v, n) in cases {
            batched.record_n(v, n);
            for _ in 0..n {
                single.record(v);
            }
        }
        assert_eq!(batched.count(), single.count());
        assert_eq!(
            batched.max(),
            single.max(),
            "a zero-count batch sets no max"
        );
        assert_eq!(batched.mean(), single.mean());
        assert!((0..65).all(|i| batched.bucket_count(i) == single.bucket_count(i)));
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(batched.percentile(q), single.percentile(q), "q={q}");
        }
    }

    /// Counts the batches a tracer receives.
    struct Batches(Detail, Vec<RefBatch>);

    impl Tracer for Batches {
        fn detail(&self) -> Detail {
            self.0
        }

        fn record(&mut self, _at: u64, _event: &SimEvent) {}

        fn aggregate(&mut self, _at: u64, batch: &RefBatch) {
            self.1.push(*batch);
        }
    }

    #[test]
    fn tee_forwards_batches_to_sides_at_aggregates_or_above() {
        let mut agg = Batches(Detail::Aggregates, Vec::new());
        let mut sched = Batches(Detail::Scheduler, Vec::new());
        let mut tee = Tee::new(&mut agg, &mut sched);
        assert_eq!(tee.detail(), Detail::Aggregates);
        tee.aggregate(3, &RefBatch::Evictions(2));
        assert_eq!(agg.1, [RefBatch::Evictions(2)]);
        assert!(sched.1.is_empty(), "a scheduler-level side gets no batch");
    }

    #[test]
    fn event_lines_checksum_and_validate() {
        let e = SimEvent::Alloc {
            pi: 2,
            pages: 40,
            decision: AllocDecision::Granted,
        };
        let line = encode_event_line(17, &e);
        assert!(line.contains("\"ev\":\"alloc\""));
        assert!(line.contains("\"decision\":\"granted\""));
        assert!(validate_event_line(&line));
        // Any payload tamper breaks the checksum.
        let bad = line.replace("\"pages\":40", "\"pages\":41");
        assert_ne!(line, bad);
        assert!(!validate_event_line(&bad));
        assert!(!validate_event_line("not a trace line"));
        assert!(!validate_event_line("{\"v\":1,\"at\":0,\"c\":\"zz\"}"));
    }

    #[test]
    fn every_event_kind_encodes_validly() {
        let events = [
            SimEvent::Ref {
                page: PageId(1),
                resident: 2,
                fault: true,
            },
            SimEvent::Fault {
                page: PageId(1),
                resident: 2,
            },
            SimEvent::Evict { page: PageId(3) },
            SimEvent::Alloc {
                pi: 1,
                pages: 0,
                decision: AllocDecision::SwapNeeded,
            },
            SimEvent::Lock { pj: 2, pinned: 4 },
            SimEvent::Unlock { released: 4 },
            SimEvent::LockBroken {
                page: PageId(9),
                pj: 3,
            },
            SimEvent::Recovered { total: 7 },
            SimEvent::Degraded,
            SimEvent::SwapOut { process: 1 },
            SimEvent::TenantAdmitted {
                tenant: 17,
                forced: true,
            },
            SimEvent::TenantFinished { tenant: 17 },
            SimEvent::AdmissionDeferred {
                tenant: 9,
                demand: 20,
            },
            SimEvent::QueueDepth {
                cell: 4,
                ready: 2,
                blocked: 1,
                swapped: 1,
            },
        ];
        for e in events {
            let line = encode_event_line(42, &e);
            assert!(validate_event_line(&line), "{line}");
            assert!(line.contains(&format!("\"ev\":\"{}\"", e.kind())), "{line}");
        }
    }

    #[test]
    fn stream_checksum_fingerprints_the_whole_file() {
        let path = std::env::temp_dir().join(format!("cdmm-stream-{}.jsonl", std::process::id()));
        let mut sink = JsonlSink::create(&path).expect("create sink");
        sink.record(
            1,
            &SimEvent::TenantAdmitted {
                tenant: 0,
                forced: false,
            },
        );
        sink.record(2, &SimEvent::TenantFinished { tenant: 0 });
        sink.flush();
        let live = sink.stream_checksum();
        assert_ne!(live, 0);
        assert_eq!(JsonlSink::file_stream_checksum(&path), Ok(live));
        // Tampering changes the fingerprint path into an error.
        let text = fs::read_to_string(&path).expect("read");
        fs::write(&path, text.replace("\"tenant\":0", "\"tenant\":1")).expect("write");
        assert!(JsonlSink::file_stream_checksum(&path).is_err());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn jsonl_sink_writes_validating_lines() {
        let path = std::env::temp_dir().join(format!("cdmm-observe-{}.jsonl", std::process::id()));
        let mut sink = JsonlSink::create(&path).expect("create sink");
        sink.record(1, &SimEvent::Degraded);
        sink.record(2, &SimEvent::SwapOut { process: 3 });
        sink.flush();
        assert_eq!(sink.written(), 2);
        assert!(sink.error().is_none());
        assert_eq!(JsonlSink::validate_file(&path), Ok(2));
        // Corrupt a byte: validation pinpoints the line.
        let mut text = fs::read_to_string(&path).expect("read");
        text = text.replace("\"process\":3", "\"process\":4");
        fs::write(&path, text).expect("write");
        assert!(JsonlSink::validate_file(&path).unwrap_err().contains(":2:"));
        let _ = fs::remove_file(&path);
    }

    /// A sink on a full device keeps the first failed write, stops
    /// there, and reports it after the flush instead of dropping it.
    #[cfg(target_os = "linux")]
    #[test]
    fn jsonl_sink_keeps_its_first_io_error() {
        let mut sink = JsonlSink::create(Path::new("/dev/full")).expect("open /dev/full");
        sink.record(0, &SimEvent::Degraded);
        assert!(sink.error().is_none(), "one line still fits the buffer");
        for at in 1..1000 {
            sink.record(at, &SimEvent::Degraded);
        }
        let spilled = sink.written();
        assert!(spilled < 1000, "a spilled buffer failed a write");
        sink.flush();
        sink.record(1000, &SimEvent::Degraded);
        assert_eq!(sink.written(), spilled, "nothing is written after an error");
        // ENOSPC, from the first failed write rather than the flush.
        assert_eq!(sink.error().and_then(|e| e.raw_os_error()), Some(28));
    }
}
