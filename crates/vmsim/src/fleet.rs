//! Fleet-scale multiprogramming: thousands of tenants, sharded cells,
//! work-stealing workers, deterministic merge.
//!
//! The paper's Section 4 leaves CD's multiprogramming performance "still
//! to be evaluated". This module runs the Section-4 dispatch/swapper
//! loop, from a handful of processes up to fleet populations.
//!
//! # The determinism invariant
//!
//! The semantic unit of contention is the **cell**: a fixed group of
//! [`FleetConfig::tenants_per_cell`] tenants sharing
//! [`FleetConfig::frames_per_cell`] page frames under one Section-4
//! dispatch loop (round-robin quanta, fault blocking, PI-driven
//! ALLOCATE with the Figure-6 swapper, load control). Cell membership
//! is fixed by submission order alone. A **shard** is purely a unit of
//! work distribution — a contiguous batch of cells a worker claims (or
//! steals) — and never a memory domain. Because cells are mutually
//! independent and merged by cell index, the [`FleetReport`] is
//! byte-identical at any thread count *and* any shard count: execution
//! geometry is not allowed to touch semantics. This is the same
//! contract the sweep executor pins for parameter sweeps.
//!
//! # Run-granular dispatch
//!
//! Tenants execute their [`CompressedTrace`]s through the run-level
//! policy kernels: a quantum is carved into constant-stride chunks (and
//! whole steady-state cycles when they fit), faults are detected as the
//! metrics delta of each chunk, and the faulting tenant blocks for
//! `delta × fault_service` — batched fault service, the run-level
//! analogue of blocking per fault. Policy state, and therefore fault
//! counts, are byte-identical to the per-reference driver (the
//! `run_level_equivalence` contract); only the interleaving of *wall*
//! time differs from the retired per-ref driver.

use cdmm_trace::{COp, CancelToken, CompressedTrace, Event, PageId, Run};

use crate::error::SimError;
use crate::metrics::Metrics;
use crate::observe::{Histogram, NullTracer, SimEvent, Span, TimedEvent, Tracer};
use crate::policy::Policy;
use crate::progress::ProgressCounters;
use crate::stats::{HistogramSummary, MetricsRegistry, RegistrySnapshot};

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One tenant process submitted to the fleet.
pub struct TenantSpec {
    /// Tenant name (shows up in the per-tenant report).
    pub name: String,
    /// The tenant's reference trace, compressed.
    pub trace: CompressedTrace,
    /// The tenant's memory-management policy, ready to run.
    pub engine: Box<dyn Policy + Send>,
    /// Global clock time at which the tenant arrives (0 = present from
    /// the start). Arrival staggering is how fleet builders model
    /// submission jitter.
    pub arrival: u64,
}

/// When a newly arrived tenant is admitted into its cell's memory pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Admission {
    /// Admit on arrival, unconditionally.
    #[default]
    Free,
    /// Admit only when the cell's free frames cover the tenant's entry
    /// demand: the largest request at priority index ≤ the given level
    /// in its opening `ALLOCATE` (tenants without one demand nothing).
    /// The scheduler force-admits one waiting tenant whenever a cell
    /// would otherwise go idle, so admission control can delay but
    /// never deadlock a fleet.
    PiLevel(u32),
}

/// Fleet scheduling parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Page frames shared by the tenants of one cell.
    pub frames_per_cell: u64,
    /// Tenants per cell (the contention-domain size). The last cell may
    /// be smaller.
    pub tenants_per_cell: usize,
    /// References a tenant may run before being preempted.
    pub quantum: u64,
    /// Fault service time in references (also the swap-in delay).
    pub fault_service: u64,
    /// Admission-control rule for arriving tenants.
    pub admission: Admission,
    /// Work-distribution batches of cells (0 = auto). Never affects
    /// results, only which worker runs which cell.
    pub shards: usize,
    /// Worker threads (0 or 1 = serial). Never affects results.
    pub threads: usize,
    /// Collect a per-tenant [`MetricsRegistry`] snapshot. Forces
    /// in-policy event tracing, which disables the batch kernels —
    /// detailed and slow, off by default.
    pub collect_registries: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            frames_per_cell: 64,
            tenants_per_cell: 4,
            quantum: 300,
            fault_service: 2_000,
            admission: Admission::Free,
            shards: 0,
            threads: 1,
            collect_registries: false,
        }
    }
}

/// Result for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// The policy label the tenant ran under (e.g. `"CD(fit)"`).
    pub policy: String,
    /// Paging metrics (same definitions as uniprogramming).
    pub metrics: Metrics,
    /// Cell clock time at which the tenant was admitted.
    pub admitted_at: u64,
    /// Cell clock time at which the tenant finished.
    pub finished_at: u64,
    /// Times this tenant was swapped out by load control.
    pub swap_outs: u64,
    /// Per-tenant registry snapshot, when
    /// [`FleetConfig::collect_registries`] is on.
    pub registry: Option<RegistrySnapshot>,
}

/// Result for one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellReport {
    /// Cell completion time.
    pub makespan: u64,
    /// References executed (the cell's busy time).
    pub busy: u64,
    /// Total page faults over the cell's tenants.
    pub total_faults: u64,
    /// Swap-out events in this cell.
    pub swap_events: u64,
    /// Tenants admitted by the idle-cell deadlock breaker rather than
    /// by their entry demand fitting.
    pub forced_admissions: u64,
}

/// Result of one fleet run. Byte-identical across thread and shard
/// counts for the same tenants and configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-tenant results, in submission order.
    pub tenants: Vec<TenantReport>,
    /// Per-cell results, in cell order.
    pub cells: Vec<CellReport>,
    /// Slowest cell's completion time.
    pub makespan: u64,
    /// References executed over all tenants.
    pub total_refs: u64,
    /// Page faults over all tenants.
    pub total_faults: u64,
    /// Swap-out events over all cells.
    pub swap_events: u64,
    /// Busy time over summed cell makespans.
    pub cpu_utilization: f64,
    /// Per-cell utilization (`busy / makespan`, 0 for an instantly-done
    /// cell), in cell order — the deterministic utilization breakdown.
    /// Per-*worker* utilization is execution geometry and therefore
    /// lives in the wall-side [`FleetScorecard`] instead: a worker
    /// vector in this report would break byte-identity across thread
    /// counts.
    pub cpu_per_cell: Vec<f64>,
    /// Distribution of per-tenant space-time cost (`ST`, floored to
    /// integer cost units).
    pub st_cost: HistogramSummary,
    /// Distribution of per-tenant swap-out counts — the fleet's
    /// swapper-pressure profile.
    pub swap_pressure: HistogramSummary,
}

/// One worker's wall-side utilization timeline in a fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerTimeline {
    /// Worker index.
    pub worker: u32,
    /// Wall nanoseconds spent running cells.
    pub busy_ns: u64,
    /// Wall nanoseconds spent hunting for shards (or drained of work).
    pub idle_ns: u64,
    /// Cells this worker ran.
    pub cells_run: u64,
    /// Shards this worker claimed.
    pub claims: u64,
    /// Claims that were steals (shards outside the worker's own
    /// allotment).
    pub steals: u64,
}

impl WorkerTimeline {
    /// Fraction of this worker's wall time spent running cells.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

/// One cell's swapper-pressure breakdown in a [`FleetScorecard`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellPressure {
    /// Cell index.
    pub cell: u32,
    /// Swap-out events in this cell.
    pub swap_events: u64,
    /// Forced (deadlock-breaker) admissions in this cell.
    pub forced_admissions: u64,
    /// The cell's deterministic utilization (`busy / makespan`).
    pub utilization: f64,
    /// Wall nanoseconds the cell took on its worker.
    pub wall_ns: u64,
}

/// Wall-side scheduler telemetry for one fleet run: worker-utilization
/// timelines, shard claim/steal counters, phase spans, and per-cell
/// swapper-pressure breakdowns.
///
/// Everything here depends on execution geometry and wall clocks, so it
/// is kept strictly apart from the byte-identical [`FleetReport`]. The
/// scorecard is itself a [`Tracer`]: workers buffer their scheduler
/// events ([`SimEvent::ShardClaimed`], [`SimEvent::WorkerState`])
/// locally and the driver replays the buffers through
/// [`Tracer::record`] after the join.
#[derive(Debug, Clone, Default)]
pub struct FleetScorecard {
    /// Per-worker timelines, worker order.
    pub workers: Vec<WorkerTimeline>,
    /// Shards claimed over the run (every shard is claimed exactly
    /// once, so this equals the effective shard count).
    pub shard_claims: u64,
    /// Claims that were steals.
    pub shard_steals: u64,
    /// `(phase, wall_ns)` spans: prepare / simulate / report.
    pub phase_ns: Vec<(&'static str, u64)>,
    /// Per-cell pressure breakdowns, cell order.
    pub cells: Vec<CellPressure>,
    /// Raw scheduler events, wall-ns timestamps relative to run start.
    pub events: Vec<TimedEvent>,
}

impl FleetScorecard {
    /// An empty scorecard.
    pub fn new() -> Self {
        Self::default()
    }

    fn worker_mut(&mut self, w: u32) -> &mut WorkerTimeline {
        let idx = w as usize;
        if self.workers.len() <= idx {
            self.workers.resize_with(idx + 1, WorkerTimeline::default);
            for (i, t) in self.workers.iter_mut().enumerate() {
                t.worker = i as u32;
            }
        }
        &mut self.workers[idx]
    }

    /// Closes a phase [`Span`] into the phase timeline.
    pub fn close_span(&mut self, span: Span) {
        self.phase_ns.push(span.exit());
    }

    /// Wall nanoseconds recorded for a named phase (0 when absent).
    pub fn phase(&self, label: &str) -> u64 {
        self.phase_ns
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |(_, ns)| *ns)
    }

    /// The cells with the most swap-outs, descending, at most `n`.
    pub fn hottest_cells(&self, n: usize) -> Vec<CellPressure> {
        let mut cells = self.cells.clone();
        cells.sort_by(|a, b| b.swap_events.cmp(&a.swap_events).then(a.cell.cmp(&b.cell)));
        cells.truncate(n);
        cells
    }

    /// Renders a plain-text summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet scorecard: {} shard claims ({} stolen)",
            self.shard_claims, self.shard_steals
        );
        for (label, ns) in &self.phase_ns {
            let _ = writeln!(out, "  phase {label:<9} {:.3} ms", *ns as f64 / 1e6);
        }
        for w in &self.workers {
            let _ = writeln!(
                out,
                "  worker {}: {:.1}% busy, {} cells, {} claims ({} stolen)",
                w.worker,
                w.utilization() * 100.0,
                w.cells_run,
                w.claims,
                w.steals
            );
        }
        for c in self.hottest_cells(3) {
            if c.swap_events == 0 {
                break;
            }
            let _ = writeln!(
                out,
                "  cell {}: {} swap-outs, {} forced admissions, util {:.2}",
                c.cell, c.swap_events, c.forced_admissions, c.utilization
            );
        }
        out
    }
}

impl Tracer for FleetScorecard {
    fn record(&mut self, at: u64, event: &SimEvent) {
        match event {
            SimEvent::ShardClaimed { worker, stolen, .. } => {
                self.shard_claims += 1;
                if *stolen {
                    self.shard_steals += 1;
                }
                let w = self.worker_mut(*worker);
                w.claims += 1;
                if *stolen {
                    w.steals += 1;
                }
                self.events.push(TimedEvent { at, event: *event });
            }
            SimEvent::WorkerState { .. } => {
                self.events.push(TimedEvent { at, event: *event });
            }
            // The scorecard consumes only scheduler-plane events.
            _ => {}
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Not yet arrived (arrival time in the future).
    Arriving,
    /// Arrived, waiting for admission control.
    Waiting,
    Ready,
    /// Blocked on fault service or swap-in until the given time.
    Blocked(u64),
    /// Swapped out; waiting for memory.
    Swapped,
    Done,
}

struct Tenant {
    name: String,
    trace: CompressedTrace,
    engine: Box<dyn Policy + Send>,
    cursor: Cursor,
    state: State,
    arrival: u64,
    entry_demand: u64,
    metrics: Metrics,
    admitted_at: u64,
    finished_at: u64,
    swap_outs: u64,
    registry: Option<MetricsRegistry>,
    /// Submission index across the whole fleet (what `SwapOut` events
    /// name).
    global_index: u32,
}

impl Tenant {
    fn active_frames(&self) -> u64 {
        match self.state {
            State::Swapped | State::Arriving | State::Waiting => 0,
            _ => self.engine.resident() as u64,
        }
    }
}

/// Decode position inside a compressed trace: op index plus intra-run
/// and intra-cycle offsets, so a quantum boundary can split any op.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    op: usize,
    run_pos: u32,
    body_idx: usize,
    rep: u32,
}

/// One scheduling chunk: at most a quantum's worth of references, or a
/// directive. Directives are cloned out so the caller can mutate the
/// whole cell (swapper!) while holding one.
enum Chunk<'a> {
    Run {
        start: PageId,
        stride: i32,
        len: u32,
    },
    /// A whole cycle that fits in the remaining budget — handed to the
    /// steady-state cycle kernel in one call.
    Cycle {
        body: &'a [Run],
        reps: u32,
        refs: u64,
    },
    Dir(Event),
    Done,
}

fn offset_page(start: u32, stride: i32, off: u32) -> PageId {
    PageId((start as i64 + stride as i64 * off as i64) as u32)
}

fn next_chunk<'a>(ops: &'a [COp], cur: &mut Cursor, budget: u64) -> Chunk<'a> {
    debug_assert!(budget >= 1);
    let cap = budget.min(u32::MAX as u64) as u32;
    let Some(op) = ops.get(cur.op) else {
        return Chunk::Done;
    };
    match op {
        COp::Dir(e) => {
            cur.op += 1;
            Chunk::Dir(e.clone())
        }
        COp::Run { start, stride, len } => {
            let take = (len - cur.run_pos).min(cap);
            let s = offset_page(*start, *stride, cur.run_pos);
            if cur.run_pos + take == *len {
                cur.op += 1;
                cur.run_pos = 0;
            } else {
                cur.run_pos += take;
            }
            Chunk::Run {
                start: s,
                stride: *stride,
                len: take,
            }
        }
        COp::Cycle { body, reps } => {
            if cur.rep == 0 && cur.body_idx == 0 && cur.run_pos == 0 {
                let refs: u64 = body.iter().map(|r| r.len as u64).sum::<u64>() * *reps as u64;
                if refs <= budget {
                    cur.op += 1;
                    return Chunk::Cycle {
                        body,
                        reps: *reps,
                        refs,
                    };
                }
            }
            let run = &body[cur.body_idx];
            let take = (run.len - cur.run_pos).min(cap);
            let s = offset_page(run.start.0, run.stride, cur.run_pos);
            cur.run_pos += take;
            if cur.run_pos == run.len {
                cur.run_pos = 0;
                cur.body_idx += 1;
                if cur.body_idx == body.len() {
                    cur.body_idx = 0;
                    cur.rep += 1;
                    if cur.rep == *reps {
                        cur.op += 1;
                        cur.rep = 0;
                    }
                }
            }
            Chunk::Run {
                start: s,
                stride: run.stride,
                len: take,
            }
        }
    }
}

/// The entry demand an [`Admission::PiLevel`] gate holds a tenant to:
/// the largest request at `pi ≤ level` in the opening `ALLOCATE`
/// (before any reference), the smallest request at all when none
/// qualifies, and zero when the trace opens without an `ALLOCATE`.
fn entry_demand(trace: &CompressedTrace, level: u32) -> u64 {
    for op in trace.ops() {
        match op {
            COp::Dir(Event::Alloc(args)) => {
                return args
                    .iter()
                    .filter(|a| a.pi <= level)
                    .map(|a| a.pages)
                    .max()
                    .or_else(|| args.iter().map(|a| a.pages).min())
                    .unwrap_or(0);
            }
            COp::Dir(_) => continue,
            _ => break,
        }
    }
    0
}

/// Runs a fleet of tenants. See the module docs for the semantics; the
/// report is byte-identical at any `threads`/`shards` setting.
pub fn run_fleet(tenants: Vec<TenantSpec>, config: FleetConfig) -> Result<FleetReport, SimError> {
    run_fleet_with(tenants, config, &mut NullTracer)
}

/// [`run_fleet`] with an event [`Tracer`] attached. Per-cell events are
/// buffered during the (possibly parallel) run and replayed into the
/// tracer in cell order after the merge, so the tracer sees the same
/// deterministic stream at any thread count.
pub fn run_fleet_with(
    tenants: Vec<TenantSpec>,
    config: FleetConfig,
    tracer: &mut dyn Tracer,
) -> Result<FleetReport, SimError> {
    run_fleet_cancellable(tenants, config, tracer, &CancelToken::new())
}

/// [`run_fleet_with`] polling a [`CancelToken`] once per scheduling
/// burst; cancellation surfaces as [`SimError::DeadlineExceeded`].
pub fn run_fleet_cancellable(
    tenants: Vec<TenantSpec>,
    config: FleetConfig,
    tracer: &mut dyn Tracer,
    token: &CancelToken,
) -> Result<FleetReport, SimError> {
    run_fleet_observed(tenants, config, tracer, None, token).map(|(report, _)| report)
}

/// Which event streams a cell run feeds. Derived once per fleet run
/// from the attached tracer's appetite, then hoisted out of every hot
/// loop — the all-false case does no event work at all.
#[derive(Debug, Clone, Copy)]
struct Obs {
    /// Scheduler events (tenant lifecycle, admission gate, queue depth,
    /// swap-outs) enter the deterministic merged stream.
    sched: bool,
    /// In-policy decision events enter the deterministic merged stream.
    pstream: bool,
    /// Policies are instrumented and their buffers drained (implied by
    /// `pstream` or by per-tenant registries).
    pdrain: bool,
}

/// A worker's private observability state: scheduler events stamped
/// with wall-ns, busy time, and per-cell wall costs. Buffered locally —
/// no cross-worker synchronization — and folded into the
/// [`FleetScorecard`] after the join.
#[derive(Debug, Default)]
struct WorkerLocal {
    worker: u32,
    events: Vec<(u64, SimEvent)>,
    busy_ns: u64,
    cells_run: u64,
    ended_ns: u64,
    cell_walls: Vec<(usize, u64)>,
}

impl WorkerLocal {
    fn new(worker: u32) -> Self {
        WorkerLocal {
            worker,
            ..Self::default()
        }
    }
}

fn wall_ns(epoch: &Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one cell with wall-clock accounting and progress bumps wrapped
/// around the deterministic core.
fn run_cell_timed(
    idx: usize,
    cell: Vec<Tenant>,
    config: &FleetConfig,
    obs: Obs,
    token: &CancelToken,
    local: &mut WorkerLocal,
    progress: Option<&ProgressCounters>,
) -> Result<CellDone, SimError> {
    let tenants = cell.len() as u64;
    let t0 = Instant::now();
    let r = run_cell(idx as u32, cell, config, obs, token);
    let wall = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    local.busy_ns += wall;
    local.cells_run += 1;
    local.cell_walls.push((idx, wall));
    if let Some(p) = progress {
        p.sub_queued(tenants);
        if let Ok(done) = &r {
            p.add_done(tenants);
            p.add_refs(done.reports.iter().map(|t| t.metrics.refs).sum());
        }
        p.record_latency_ms(wall / 1_000_000);
    }
    r
}

/// [`run_fleet_cancellable`] with the full observability plane
/// attached: returns the wall-side [`FleetScorecard`] (worker
/// timelines, claim/steal counters, phase spans, per-cell pressure)
/// next to the deterministic report, and bumps the optional shared
/// [`ProgressCounters`] as cells finish so a
/// [`crate::progress::ProgressExporter`] can stream live frames.
///
/// The scorecard and progress counters are sampled from wall clocks and
/// execution geometry; neither can perturb the report, which stays
/// byte-identical at any `threads`/`shards` setting, traced or not.
pub fn run_fleet_observed(
    tenants: Vec<TenantSpec>,
    config: FleetConfig,
    tracer: &mut dyn Tracer,
    progress: Option<&ProgressCounters>,
    token: &CancelToken,
) -> Result<(FleetReport, FleetScorecard), SimError> {
    if tenants.is_empty() {
        return Err(SimError::NoProcesses);
    }
    if config.frames_per_cell == 0 {
        return Err(SimError::ZeroFrames {
            what: "the fleet scheduler",
        });
    }
    if config.quantum == 0 {
        return Err(SimError::InvalidConfig {
            what: "fleet quantum must be positive",
        });
    }
    if config.tenants_per_cell == 0 {
        return Err(SimError::InvalidConfig {
            what: "fleet cells must hold at least one tenant",
        });
    }

    let trace_on = tracer.enabled();
    let pstream = trace_on && tracer.wants_policy_events();
    let obs = Obs {
        sched: trace_on,
        pstream,
        pdrain: pstream || config.collect_registries,
    };

    let mut scorecard = FleetScorecard::new();
    let prep_span = Span::enter("prepare");

    // Build cells: contiguous groups in submission order. Membership
    // depends only on tenants_per_cell — never on shards or threads.
    let mut cells: Vec<Vec<Tenant>> = Vec::new();
    for (i, spec) in tenants.into_iter().enumerate() {
        if i % config.tenants_per_cell == 0 {
            cells.push(Vec::with_capacity(config.tenants_per_cell));
        }
        let demand = match config.admission {
            Admission::Free => 0,
            Admission::PiLevel(level) => entry_demand(&spec.trace, level),
        };
        let mut engine = spec.engine;
        if obs.pdrain {
            engine.set_tracing(true);
        }
        let cell = cells
            .last_mut()
            .expect("cell pushed on multiple boundary above");
        cell.push(Tenant {
            name: spec.name,
            trace: spec.trace,
            engine,
            cursor: Cursor::default(),
            state: State::Arriving,
            arrival: spec.arrival,
            entry_demand: demand,
            metrics: Metrics::new(config.fault_service),
            admitted_at: 0,
            finished_at: 0,
            swap_outs: 0,
            registry: config.collect_registries.then(MetricsRegistry::new),
            global_index: i as u32,
        });
    }
    let n_cells = cells.len();
    let total_tenants: u64 = cells.iter().map(|c| c.len() as u64).sum();
    if let Some(p) = progress {
        p.add_total(total_tenants);
        p.add_queued(total_tenants);
    }

    let threads = config.threads.clamp(1, n_cells);
    // Auto-sharding: enough batches that a stalled worker leaves meat
    // to steal, not so many that claim traffic dominates.
    let shards = if config.shards == 0 {
        n_cells.min(threads * 4)
    } else {
        config.shards.clamp(1, n_cells)
    };
    scorecard.close_span(prep_span);

    let sim_span = Span::enter("simulate");
    let epoch = Instant::now();
    let mut worker_locals: Vec<WorkerLocal>;
    let outputs: Vec<Mutex<Option<Result<CellDone, SimError>>>> = if threads == 1 {
        // Serial fast path: no claim traffic, same cell order. Every
        // shard is trivially claimed (never stolen) by worker 0.
        let mut local = WorkerLocal::new(0);
        for s in 0..shards {
            local.events.push((
                wall_ns(&epoch),
                SimEvent::ShardClaimed {
                    shard: s as u32,
                    worker: 0,
                    stolen: false,
                },
            ));
        }
        local.events.push((
            wall_ns(&epoch),
            SimEvent::WorkerState {
                worker: 0,
                busy: true,
            },
        ));
        let mut outs = Vec::with_capacity(n_cells);
        for (idx, cell) in cells.into_iter().enumerate() {
            outs.push(Mutex::new(Some(run_cell_timed(
                idx, cell, &config, obs, token, &mut local, progress,
            ))));
        }
        local.events.push((
            wall_ns(&epoch),
            SimEvent::WorkerState {
                worker: 0,
                busy: false,
            },
        ));
        local.ended_ns = wall_ns(&epoch);
        worker_locals = vec![local];
        outs
    } else {
        let inputs: Vec<Mutex<Option<Vec<Tenant>>>> =
            cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
        let outputs: Vec<Mutex<Option<Result<CellDone, SimError>>>> =
            (0..n_cells).map(|_| Mutex::new(None)).collect();
        let locals: Vec<Mutex<Option<WorkerLocal>>> =
            (0..threads).map(|_| Mutex::new(None)).collect();
        let claimed: Vec<AtomicBool> = (0..shards).map(|_| AtomicBool::new(false)).collect();
        let abort = AtomicBool::new(false);
        // Shard s covers the contiguous cell range [s*per, ...): balanced
        // split, remainder spread over the first shards.
        let shard_range = |s: usize| -> std::ops::Range<usize> {
            let per = n_cells / shards;
            let extra = n_cells % shards;
            let start = s * per + s.min(extra);
            let end = start + per + usize::from(s < extra);
            start..end
        };
        std::thread::scope(|scope| {
            for w in 0..threads {
                let inputs = &inputs;
                let outputs = &outputs;
                let locals = &locals;
                let claimed = &claimed;
                let abort = &abort;
                let config = &config;
                let epoch = &epoch;
                scope.spawn(move || {
                    let mut local = WorkerLocal::new(w as u32);
                    loop {
                        // Claim from the worker's own allotment first
                        // (shards w, w+T, …), then scan everyone's — the
                        // steal that keeps idle workers busy.
                        let own = (w..shards).step_by(threads);
                        let next = own
                            .chain(0..shards)
                            .find(|&s| !claimed[s].swap(true, Ordering::AcqRel));
                        let Some(s) = next else { break };
                        local.events.push((
                            wall_ns(epoch),
                            SimEvent::ShardClaimed {
                                shard: s as u32,
                                worker: w as u32,
                                stolen: s % threads != w,
                            },
                        ));
                        local.events.push((
                            wall_ns(epoch),
                            SimEvent::WorkerState {
                                worker: w as u32,
                                busy: true,
                            },
                        ));
                        for idx in shard_range(s) {
                            let Some(cell) =
                                inputs[idx].lock().unwrap_or_else(|e| e.into_inner()).take()
                            else {
                                continue;
                            };
                            if abort.load(Ordering::Relaxed) {
                                continue;
                            }
                            let r =
                                run_cell_timed(idx, cell, config, obs, token, &mut local, progress);
                            if r.is_err() {
                                abort.store(true, Ordering::Relaxed);
                            }
                            *outputs[idx].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
                        }
                        local.events.push((
                            wall_ns(epoch),
                            SimEvent::WorkerState {
                                worker: w as u32,
                                busy: false,
                            },
                        ));
                    }
                    local.ended_ns = wall_ns(epoch);
                    *locals[w].lock().unwrap_or_else(|e| e.into_inner()) = Some(local);
                });
            }
        });
        worker_locals = Vec::with_capacity(threads);
        for (w, slot) in locals.iter().enumerate() {
            worker_locals.push(
                slot.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .unwrap_or_else(|| WorkerLocal::new(w as u32)),
            );
        }
        outputs
    };
    scorecard.close_span(sim_span);

    // Fold the per-worker buffers into the scorecard: scheduler events
    // replay through the Tracer machinery, timings become timelines.
    let report_span = Span::enter("report");
    let mut wall_by_cell = vec![0u64; n_cells];
    for local in &mut worker_locals {
        for (at, e) in local.events.drain(..) {
            scorecard.record(at, &e);
        }
        let timeline = scorecard.worker_mut(local.worker);
        timeline.busy_ns = local.busy_ns;
        timeline.idle_ns = local.ended_ns.saturating_sub(local.busy_ns);
        timeline.cells_run = local.cells_run;
        for &(idx, wall) in &local.cell_walls {
            wall_by_cell[idx] = wall;
        }
    }

    // Deterministic merge, by cell index.
    let mut report = FleetReport {
        tenants: Vec::new(),
        cells: Vec::with_capacity(n_cells),
        makespan: 0,
        total_refs: 0,
        total_faults: 0,
        swap_events: 0,
        cpu_utilization: 0.0,
        cpu_per_cell: Vec::with_capacity(n_cells),
        st_cost: HistogramSummary::of(&Histogram::new()),
        swap_pressure: HistogramSummary::of(&Histogram::new()),
    };
    let mut st_hist = Histogram::new();
    let mut swap_hist = Histogram::new();
    let mut makespan_sum: u64 = 0;
    let mut busy_sum: u64 = 0;
    let mut replay: Vec<Vec<(u64, SimEvent)>> = Vec::new();
    for (idx, slot) in outputs.iter().enumerate() {
        let done = slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            // An aborted (skipped) cell only happens after some cell
            // errored; surface cancellation for it too.
            .unwrap_or(Err(SimError::DeadlineExceeded { refs_done: 0 }))?;
        for t in &done.reports {
            st_hist.record(t.metrics.st_cost() as u64);
            swap_hist.record(t.swap_outs);
            report.total_refs += t.metrics.refs;
        }
        report.tenants.extend(done.reports);
        report.makespan = report.makespan.max(done.cell.makespan);
        report.total_faults += done.cell.total_faults;
        report.swap_events += done.cell.swap_events;
        makespan_sum += done.cell.makespan;
        busy_sum += done.cell.busy;
        let cell_util = if done.cell.makespan == 0 {
            0.0
        } else {
            done.cell.busy as f64 / done.cell.makespan as f64
        };
        report.cpu_per_cell.push(cell_util);
        scorecard.cells.push(CellPressure {
            cell: idx as u32,
            swap_events: done.cell.swap_events,
            forced_admissions: done.cell.forced_admissions,
            utilization: cell_util,
            wall_ns: wall_by_cell[idx],
        });
        report.cells.push(done.cell);
        if trace_on {
            replay.push(done.events);
        }
    }
    report.cpu_utilization = if makespan_sum == 0 {
        0.0
    } else {
        busy_sum as f64 / makespan_sum as f64
    };
    report.st_cost = HistogramSummary::of(&st_hist);
    report.swap_pressure = HistogramSummary::of(&swap_hist);
    scorecard.close_span(report_span);
    if trace_on {
        for events in replay {
            for (at, e) in events {
                tracer.record(at, &e);
            }
        }
        tracer.flush();
    }
    Ok((report, scorecard))
}

struct CellDone {
    reports: Vec<TenantReport>,
    cell: CellReport,
    events: Vec<(u64, SimEvent)>,
}

/// What one scheduling chunk did, with every trace borrow dropped so
/// the caller can run the swapper over the whole cell.
enum Step {
    Ran { len: u64 },
    Dir(Event),
    Done,
}

fn run_cell(
    cell_index: u32,
    mut cell: Vec<Tenant>,
    config: &FleetConfig,
    obs: Obs,
    token: &CancelToken,
) -> Result<CellDone, SimError> {
    let mut clock: u64 = 0;
    let mut busy: u64 = 0;
    let mut swap_events: u64 = 0;
    let mut forced_admissions: u64 = 0;
    let mut next = 0usize;
    let mut pending: Vec<SimEvent> = Vec::new();
    let mut events: Vec<(u64, SimEvent)> = Vec::new();

    loop {
        if token.should_stop() {
            return Err(SimError::DeadlineExceeded {
                refs_done: cell.iter().map(|t| t.metrics.refs).sum(),
            });
        }
        // Wake blocked tenants; land arrivals.
        let mut admitted_now = false;
        for t in cell.iter_mut() {
            match t.state {
                State::Blocked(until) if until <= clock => t.state = State::Ready,
                State::Arriving if t.arrival <= clock => {
                    t.state = match config.admission {
                        Admission::Free => {
                            t.admitted_at = clock;
                            admitted_now = true;
                            let tenant = t.global_index;
                            note_tenant(
                                t,
                                clock,
                                SimEvent::TenantAdmitted {
                                    tenant,
                                    forced: false,
                                },
                                &mut events,
                                obs.sched,
                            );
                            State::Ready
                        }
                        Admission::PiLevel(_) => {
                            let tenant = t.global_index;
                            let demand = t.entry_demand;
                            note_tenant(
                                t,
                                clock,
                                SimEvent::AdmissionDeferred { tenant, demand },
                                &mut events,
                                obs.sched,
                            );
                            State::Waiting
                        }
                    };
                }
                _ => {}
            }
        }
        readmit(&mut cell, config, clock);
        for i in admit(&mut cell, config, clock) {
            admitted_now = true;
            let tenant = cell[i].global_index;
            note_tenant(
                &mut cell[i],
                clock,
                SimEvent::TenantAdmitted {
                    tenant,
                    forced: false,
                },
                &mut events,
                obs.sched,
            );
        }
        if admitted_now && obs.sched {
            events.push((clock, queue_depth_event(cell_index, &cell)));
        }

        if cell.iter().all(|t| matches!(t.state, State::Done)) {
            break;
        }

        let Some(pick) = pick_ready(&cell, &mut next) else {
            // Nobody is ready: jump to the earliest wake-up. If only
            // waiting/swapped tenants remain, force progress.
            let wake = cell
                .iter()
                .filter_map(|t| match t.state {
                    State::Blocked(until) => Some(until),
                    State::Arriving => Some(t.arrival),
                    _ => None,
                })
                .min();
            if let Some(at) = wake {
                clock = at.max(clock + 1);
                continue;
            }
            if let Some(i) = force_admit(&mut cell, clock) {
                forced_admissions += 1;
                let tenant = cell[i].global_index;
                note_tenant(
                    &mut cell[i],
                    clock,
                    SimEvent::TenantAdmitted {
                        tenant,
                        forced: true,
                    },
                    &mut events,
                    obs.sched,
                );
                if obs.sched {
                    events.push((clock, queue_depth_event(cell_index, &cell)));
                }
                continue;
            }
            force_readmit(&mut cell, clock);
            continue;
        };

        // One quantum of the picked tenant, chunk by chunk.
        let mut executed: u64 = 0;
        while executed < config.quantum {
            let faults_before = cell[pick].metrics.faults;
            let step = {
                let t = &mut cell[pick];
                match next_chunk(t.trace.ops(), &mut t.cursor, config.quantum - executed) {
                    Chunk::Done => Step::Done,
                    Chunk::Run { start, stride, len } => {
                        t.engine.reference_run(start, stride, len, &mut t.metrics);
                        Step::Ran { len: len as u64 }
                    }
                    Chunk::Cycle { body, reps, refs } => {
                        t.engine.reference_cycle(body, reps, &mut t.metrics);
                        Step::Ran { len: refs }
                    }
                    Chunk::Dir(e) => Step::Dir(e),
                }
            };
            match step {
                Step::Done => {
                    let t = &mut cell[pick];
                    t.state = State::Done;
                    t.finished_at = clock;
                    let tenant = t.global_index;
                    note_tenant(
                        t,
                        clock,
                        SimEvent::TenantFinished { tenant },
                        &mut events,
                        obs.sched,
                    );
                    break;
                }
                Step::Ran { len } => {
                    executed += len;
                    busy += len;
                    clock += len;
                    if obs.pdrain {
                        drain(
                            &mut cell[pick],
                            clock,
                            &mut pending,
                            &mut events,
                            obs.pstream,
                        );
                    }
                    let delta = cell[pick].metrics.faults - faults_before;
                    if delta > 0 {
                        // Memory pressure check after growth. The chunk
                        // may have grown by many pages, so relieve until
                        // the cell fits (or no victim remains).
                        loop {
                            let others = frames_used_except(&cell, pick);
                            if others + cell[pick].active_frames() <= config.frames_per_cell {
                                break;
                            }
                            let Some(v) = relieve_pressure(&mut cell, pick) else {
                                break;
                            };
                            swap_events += 1;
                            note_swap_out(&mut cell[v], clock, &mut events, obs.sched);
                        }
                        // Batched fault service: the whole chunk's
                        // faults are served back to back.
                        cell[pick].state = State::Blocked(clock + delta * config.fault_service);
                        break;
                    }
                }
                Step::Dir(event) => {
                    if matches!(event, Event::Alloc(_)) {
                        let others = frames_used_except(&cell, pick);
                        let t = &mut cell[pick];
                        t.engine
                            .set_available(config.frames_per_cell.saturating_sub(others));
                        t.engine.directive(&event);
                        if t.engine.swap_requested() {
                            // Figure 6: invoke the swapper and retry once.
                            let victim = relieve_pressure(&mut cell, pick);
                            let others = frames_used_except(&cell, pick);
                            let t = &mut cell[pick];
                            t.engine
                                .set_available(config.frames_per_cell.saturating_sub(others));
                            t.engine.directive(&event);
                            if let Some(v) = victim {
                                swap_events += 1;
                                note_swap_out(&mut cell[v], clock, &mut events, obs.sched);
                            }
                        }
                    } else {
                        cell[pick].engine.directive(&event);
                    }
                    if obs.pdrain {
                        drain(
                            &mut cell[pick],
                            clock,
                            &mut pending,
                            &mut events,
                            obs.pstream,
                        );
                    }
                    // Directives are free; the quantum continues.
                }
            }
        }
    }

    let reports = cell
        .into_iter()
        .map(|mut t| {
            t.metrics.recovered_directives = t.engine.recovered_directives();
            let registry = t.registry.map(|mut reg| {
                reg.add("refs", t.metrics.refs);
                reg.add("faults", t.metrics.faults);
                reg.add("swap_outs", t.swap_outs);
                reg.snapshot()
            });
            TenantReport {
                name: t.name,
                policy: t.engine.label(),
                metrics: t.metrics,
                admitted_at: t.admitted_at,
                finished_at: t.finished_at,
                swap_outs: t.swap_outs,
                registry,
            }
        })
        .collect::<Vec<_>>();
    let total_faults = reports.iter().map(|t| t.metrics.faults).sum();
    Ok(CellDone {
        reports,
        cell: CellReport {
            makespan: clock,
            busy,
            total_faults,
            swap_events,
            forced_admissions,
        },
        events,
    })
}

fn drain(
    t: &mut Tenant,
    clock: u64,
    pending: &mut Vec<SimEvent>,
    events: &mut Vec<(u64, SimEvent)>,
    push_on: bool,
) {
    t.engine.drain_events(pending);
    for e in pending.drain(..) {
        if let Some(reg) = &mut t.registry {
            reg.record(clock, &e);
        }
        if push_on {
            events.push((clock, e));
        }
    }
}

/// Stamps a scheduler event on a tenant: mirrored into its metrics
/// registry when one is attached, and into the cell's deterministic
/// event buffer when a tracer is listening.
fn note_tenant(
    t: &mut Tenant,
    clock: u64,
    ev: SimEvent,
    events: &mut Vec<(u64, SimEvent)>,
    sched_on: bool,
) {
    if let Some(reg) = &mut t.registry {
        reg.record(clock, &ev);
    }
    if sched_on {
        events.push((clock, ev));
    }
}

/// Snapshot of a cell's run queue, taken after the admission gate
/// moved somebody. Depends only on cell-local state, so it lands in
/// the deterministic stream.
fn queue_depth_event(cell_index: u32, cell: &[Tenant]) -> SimEvent {
    let (mut ready, mut blocked, mut swapped) = (0u32, 0u32, 0u32);
    for t in cell {
        match t.state {
            State::Ready => ready += 1,
            State::Blocked(_) => blocked += 1,
            State::Swapped => swapped += 1,
            _ => {}
        }
    }
    SimEvent::QueueDepth {
        cell: cell_index,
        ready,
        blocked,
        swapped,
    }
}

fn note_swap_out(
    victim: &mut Tenant,
    clock: u64,
    events: &mut Vec<(u64, SimEvent)>,
    sched_on: bool,
) {
    victim.swap_outs += 1;
    if sched_on || victim.registry.is_some() {
        let ev = SimEvent::SwapOut {
            process: victim.global_index,
        };
        if let Some(reg) = &mut victim.registry {
            reg.record(clock, &ev);
        }
        if sched_on {
            events.push((clock, ev));
        }
    }
}

fn pick_ready(cell: &[Tenant], next: &mut usize) -> Option<usize> {
    let n = cell.len();
    for k in 0..n {
        let i = (*next + k) % n;
        if matches!(cell[i].state, State::Ready) {
            *next = (i + 1) % n;
            return Some(i);
        }
    }
    None
}

fn frames_used_except(cell: &[Tenant], skip: usize) -> u64 {
    cell.iter()
        .enumerate()
        .filter(|(i, _)| *i != skip)
        .map(|(_, t)| t.active_frames())
        .sum()
}

/// Load control: swap out the non-running tenant holding the most
/// frames. Returns its index.
fn relieve_pressure(cell: &mut [Tenant], running: usize) -> Option<usize> {
    let victim = cell
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            *i != running
                && !matches!(t.state, State::Done | State::Swapped)
                && t.active_frames() > 0
        })
        .max_by_key(|(_, t)| t.active_frames())
        .map(|(i, _)| i)?;
    cell[victim].engine.swap_out();
    cell[victim].state = State::Swapped;
    Some(victim)
}

/// Admits waiting tenants whose entry demand fits the cell's free
/// frames, reserving each admitted demand against later ones this
/// round. Returns the cell-local indices admitted (empty vectors do
/// not allocate, so the common nobody-waiting case stays free).
fn admit(cell: &mut [Tenant], config: &FleetConfig, clock: u64) -> Vec<usize> {
    if !cell.iter().any(|t| matches!(t.state, State::Waiting)) {
        return Vec::new();
    }
    let used: u64 = cell.iter().map(Tenant::active_frames).sum();
    let mut free = config.frames_per_cell.saturating_sub(used);
    let mut admitted = Vec::new();
    for (i, t) in cell.iter_mut().enumerate() {
        if matches!(t.state, State::Waiting) && t.entry_demand <= free {
            free -= t.entry_demand;
            t.state = State::Ready;
            t.admitted_at = clock;
            admitted.push(i);
        }
    }
    admitted
}

/// Breaks admission-control starvation when a cell would otherwise sit
/// idle: admits the first waiting tenant unconditionally, returning
/// its cell-local index.
fn force_admit(cell: &mut [Tenant], clock: u64) -> Option<usize> {
    if let Some((i, t)) = cell
        .iter_mut()
        .enumerate()
        .find(|(_, t)| matches!(t.state, State::Waiting))
    {
        t.state = State::Ready;
        t.admitted_at = clock;
        return Some(i);
    }
    None
}

/// Breaks total-swap livelock by re-admitting the first swapped tenant
/// unconditionally.
fn force_readmit(cell: &mut [Tenant], clock: u64) {
    if let Some(t) = cell.iter_mut().find(|t| matches!(t.state, State::Swapped)) {
        t.state = State::Blocked(clock + 1);
    }
}

/// Re-admits swapped tenants when at least a quarter of the cell's
/// memory is free. Swap-in costs one fault-service delay.
fn readmit(cell: &mut [Tenant], config: &FleetConfig, clock: u64) {
    loop {
        let used: u64 = cell.iter().map(Tenant::active_frames).sum();
        let free = config.frames_per_cell.saturating_sub(used);
        if free < config.frames_per_cell / 4 + 1 {
            return;
        }
        let Some(t) = cell.iter_mut().find(|t| matches!(t.state, State::Swapped)) else {
            return;
        };
        t.state = State::Blocked(clock + config.fault_service);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::EventLog;
    use crate::policy::cd::{CdPolicy, CdSelector};
    use crate::policy::lru::Lru;
    use crate::policy::ws::WorkingSet;
    use cdmm_lang::ast::AllocArg;
    use cdmm_trace::{synth, Trace};

    fn ws_tenant(name: &str, pages: u32, cycles: u32, arrival: u64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            trace: CompressedTrace::from_trace(&synth::cyclic(pages, cycles)),
            engine: Box::new(WorkingSet::new(5_000)),
            arrival,
        }
    }

    #[test]
    fn single_tenant_matches_uniprogramming_faults() {
        let t = synth::cyclic(8, 20);
        let uni = crate::simulate(&t, &mut WorkingSet::new(5_000), crate::SimConfig::default());
        let r = run_fleet(vec![ws_tenant("t0", 8, 20, 0)], FleetConfig::default()).unwrap();
        assert_eq!(r.tenants[0].metrics.faults, uni.faults);
        assert_eq!(r.total_faults, uni.faults);
        assert_eq!(r.total_refs, uni.refs);
    }

    #[test]
    fn cells_partition_by_submission_order() {
        let specs: Vec<TenantSpec> = (0..10)
            .map(|i| ws_tenant(&format!("t{i}"), 4, 5, 0))
            .collect();
        let r = run_fleet(
            specs,
            FleetConfig {
                tenants_per_cell: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.cells.len(), 3);
        assert_eq!(r.tenants.len(), 10);
        assert_eq!(r.tenants[0].name, "t0");
        assert_eq!(r.tenants[9].name, "t9");
    }

    #[test]
    fn report_identical_across_threads_and_shards() {
        let mk = || -> Vec<TenantSpec> {
            (0..12)
                .map(|i| {
                    let pages = 6 + (i % 5) as u32 * 7;
                    ws_tenant(&format!("t{i}"), pages, 25, (i as u64 % 3) * 100)
                })
                .collect()
        };
        let base = FleetConfig {
            frames_per_cell: 24,
            tenants_per_cell: 3,
            ..Default::default()
        };
        let serial = run_fleet(mk(), base).unwrap();
        for (threads, shards) in [(2, 0), (4, 1), (4, 3), (8, 2)] {
            let r = run_fleet(
                mk(),
                FleetConfig {
                    threads,
                    shards,
                    ..base
                },
            )
            .unwrap();
            assert_eq!(r, serial, "threads={threads} shards={shards}");
        }
    }

    #[test]
    fn pressure_triggers_swapping_and_everyone_completes() {
        let specs: Vec<TenantSpec> = (0..3)
            .map(|i| ws_tenant(&format!("t{i}"), 30, 40, 0))
            .collect();
        let r = run_fleet(
            specs,
            FleetConfig {
                frames_per_cell: 40,
                tenants_per_cell: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            r.swap_events > 0,
            "over-committed WS must trigger load control"
        );
        for t in &r.tenants {
            assert_eq!(t.metrics.refs, 1_200, "{} still completes", t.name);
        }
        assert_eq!(r.swap_pressure.count, 3);
        assert!(r.swap_pressure.max > 0);
    }

    #[test]
    fn plentiful_memory_never_swaps() {
        let specs = vec![ws_tenant("a", 4, 20, 0), ws_tenant("b", 4, 20, 0)];
        let r = run_fleet(specs, FleetConfig::default()).unwrap();
        assert_eq!(r.cells.len(), 1, "both tenants share one 64-frame cell");
        assert_eq!(r.swap_events, 0);
        assert!(r.cpu_utilization > 0.0);
    }

    #[test]
    fn cd_denial_invokes_swapper() {
        let hog: Vec<Event> = (0..30u32)
            .cycle()
            .take(3_000)
            .map(|p| Event::Ref(PageId(p)))
            .collect();
        let mut cd_events = vec![Event::Alloc(vec![AllocArg { pi: 1, pages: 20 }])];
        cd_events.extend(
            (0..20u32)
                .cycle()
                .take(2_000)
                .map(|p| Event::Ref(PageId(p))),
        );
        let specs = vec![
            TenantSpec {
                name: "hog".into(),
                trace: CompressedTrace::from_trace(&Trace::from_events(hog)),
                engine: Box::new(WorkingSet::new(100_000)),
                arrival: 0,
            },
            TenantSpec {
                name: "cd".into(),
                trace: CompressedTrace::from_trace(&Trace::from_events(cd_events)),
                engine: Box::new(CdPolicy::new(CdSelector::FirstFit).with_min_alloc(2)),
                arrival: 0,
            },
        ];
        let r = run_fleet(
            specs,
            FleetConfig {
                frames_per_cell: 36,
                tenants_per_cell: 2,
                quantum: 500,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            r.swap_events > 0,
            "the CD PI=1 demand must swap the hog out"
        );
        assert_eq!(r.tenants[1].metrics.refs, 2_000, "CD tenant completes");
    }

    #[test]
    fn pi_admission_defers_but_never_starves() {
        // Opening ALLOCATE demands more than half the cell; with two
        // such tenants the second waits until the pool drains, and the
        // force-admit breaker guarantees completion regardless.
        let mk = |name: &str| {
            let mut ev = vec![Event::Alloc(vec![AllocArg { pi: 1, pages: 20 }])];
            ev.extend((0..20u32).cycle().take(600).map(|p| Event::Ref(PageId(p))));
            TenantSpec {
                name: name.into(),
                trace: CompressedTrace::from_trace(&Trace::from_events(ev)),
                engine: Box::new(CdPolicy::new(CdSelector::FirstFit).with_min_alloc(2)),
                arrival: 0,
            }
        };
        let r = run_fleet(
            vec![mk("a"), mk("b")],
            FleetConfig {
                frames_per_cell: 30,
                tenants_per_cell: 2,
                admission: Admission::PiLevel(1),
                ..Default::default()
            },
        )
        .unwrap();
        for t in &r.tenants {
            assert_eq!(t.metrics.refs, 600, "{} completes", t.name);
        }
        assert!(
            r.tenants[1].admitted_at >= r.tenants[0].admitted_at,
            "second tenant is not admitted before the first"
        );
    }

    #[test]
    fn lru_tenants_supported() {
        let r = run_fleet(
            vec![TenantSpec {
                name: "l".into(),
                trace: CompressedTrace::from_trace(&synth::cyclic(8, 10)),
                engine: Box::new(Lru::new(8)),
                arrival: 0,
            }],
            FleetConfig::default(),
        )
        .unwrap();
        assert_eq!(r.tenants[0].metrics.faults, 8);
    }

    #[test]
    fn degenerate_configs_are_typed_errors() {
        assert_eq!(
            run_fleet(vec![], FleetConfig::default()).err(),
            Some(SimError::NoProcesses)
        );
        let bad_frames = FleetConfig {
            frames_per_cell: 0,
            ..Default::default()
        };
        assert!(matches!(
            run_fleet(vec![ws_tenant("a", 2, 2, 0)], bad_frames),
            Err(SimError::ZeroFrames { .. })
        ));
        let bad_quantum = FleetConfig {
            quantum: 0,
            ..Default::default()
        };
        assert!(matches!(
            run_fleet(vec![ws_tenant("a", 2, 2, 0)], bad_quantum),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn registries_collect_per_tenant_counters() {
        let r = run_fleet(
            vec![ws_tenant("a", 6, 10, 0), ws_tenant("b", 6, 10, 0)],
            FleetConfig {
                collect_registries: true,
                ..Default::default()
            },
        )
        .unwrap();
        for t in &r.tenants {
            let snap = t.registry.as_ref().expect("registry collected");
            assert_eq!(snap.counter("refs"), t.metrics.refs);
            assert_eq!(snap.counter("faults"), t.metrics.faults);
        }
    }

    #[test]
    fn cancellation_surfaces_as_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let err = run_fleet_cancellable(
            vec![ws_tenant("a", 8, 20, 0)],
            FleetConfig::default(),
            &mut NullTracer,
            &token,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::DeadlineExceeded { .. }));
    }

    fn observe_mix() -> Vec<TenantSpec> {
        (0..8)
            .map(|i| {
                let pages = 6 + (i % 4) as u32 * 5;
                ws_tenant(&format!("t{i}"), pages, 15, (i as u64 % 2) * 50)
            })
            .collect()
    }

    #[test]
    fn scorecard_covers_workers_phases_and_cells() {
        let config = FleetConfig {
            frames_per_cell: 20,
            tenants_per_cell: 2,
            threads: 3,
            ..Default::default()
        };
        let mut log = EventLog::new(100_000);
        let (report, card) =
            run_fleet_observed(observe_mix(), config, &mut log, None, &CancelToken::new()).unwrap();
        assert!(!card.workers.is_empty());
        assert_eq!(
            card.workers.iter().map(|w| w.cells_run).sum::<u64>(),
            report.cells.len() as u64
        );
        assert!(card.shard_claims > 0);
        assert_eq!(
            card.shard_claims,
            card.workers.iter().map(|w| w.claims).sum::<u64>()
        );
        let labels: Vec<&str> = card.phase_ns.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, ["prepare", "simulate", "report"]);
        assert_eq!(card.cells.len(), report.cells.len());
        assert!(card.hottest_cells(2).len() <= 2);
        assert!(card.render().contains("worker"));
    }

    #[test]
    fn cpu_per_cell_is_deterministic_across_geometry() {
        let config = FleetConfig {
            frames_per_cell: 20,
            tenants_per_cell: 2,
            ..Default::default()
        };
        let serial = run_fleet(observe_mix(), config).unwrap();
        assert_eq!(serial.cpu_per_cell.len(), serial.cells.len());
        for (util, cell) in serial.cpu_per_cell.iter().zip(&serial.cells) {
            let expect = cell.busy as f64 / cell.makespan as f64;
            assert!((util - expect).abs() < 1e-12);
        }
        for threads in [2, 4] {
            let r = run_fleet(observe_mix(), FleetConfig { threads, ..config }).unwrap();
            assert_eq!(r.cpu_per_cell, serial.cpu_per_cell, "threads={threads}");
        }
    }

    #[test]
    fn scheduler_stream_is_geometry_invariant_and_typed() {
        let config = FleetConfig {
            frames_per_cell: 20,
            tenants_per_cell: 2,
            admission: Admission::PiLevel(1),
            ..Default::default()
        };
        let run = |threads: usize| {
            let mut log = EventLog::new(100_000);
            let (report, _) = run_fleet_observed(
                observe_mix(),
                FleetConfig { threads, ..config },
                &mut log,
                None,
                &CancelToken::new(),
            )
            .unwrap();
            assert_eq!(log.dropped(), 0);
            (report, log.to_vec())
        };
        let (base_report, base_events) = run(1);
        let kinds: Vec<&str> = base_events.iter().map(|e| e.event.kind()).collect();
        assert!(kinds.contains(&"tenant_admitted"));
        assert!(kinds.contains(&"tenant_finished"));
        assert!(kinds.contains(&"queue_depth"));
        // Geometry-dependent events never enter the merged stream.
        assert!(!kinds.contains(&"shard_claimed"));
        assert!(!kinds.contains(&"worker_state"));
        for threads in [2, 4, 8] {
            let (report, events) = run(threads);
            assert_eq!(report, base_report, "threads={threads}");
            assert_eq!(events, base_events, "threads={threads}");
        }
    }

    #[test]
    fn scheduler_only_tracer_keeps_policy_plane_dark() {
        let config = FleetConfig {
            frames_per_cell: 20,
            tenants_per_cell: 2,
            ..Default::default()
        };
        let untraced = run_fleet(observe_mix(), config).unwrap();
        let mut log = EventLog::new(100_000).with_policy_events(false);
        let (report, _) =
            run_fleet_observed(observe_mix(), config, &mut log, None, &CancelToken::new()).unwrap();
        assert_eq!(report, untraced, "tracer must not perturb the report");
        let sched_kinds = [
            "tenant_admitted",
            "tenant_finished",
            "admission_deferred",
            "queue_depth",
            "swap_out",
        ];
        for e in log.to_vec() {
            assert!(
                sched_kinds.contains(&e.event.kind()),
                "policy event {} leaked into a scheduler-only stream",
                e.event.kind()
            );
        }
    }
}
