//! Fleet-scale multiprogramming: thousands of tenants in independent
//! memory cells, one [`Executor`] job per cell, deterministic merge.
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
//! is fixed by submission order alone. Each cell is one job of the
//! shared [`Executor`], which only decides which worker runs it and
//! when. Because cells are mutually independent and merged by cell
//! index, the [`FleetReport`] is byte-identical at any thread count:
//! execution geometry is not allowed to touch semantics. This is the
//! same contract the executor pins for parameter sweeps.
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
use crate::executor::Executor;
use crate::metrics::{Metrics, Tally};
use crate::observe::{Detail, Histogram, RefBatch, SimEvent, Tracer};
use crate::policy::Policy;
use crate::progress::ProgressCounters;
use crate::stats::HistogramSummary;

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
    /// Worker threads (0 or 1 = serial). Never affects results.
    pub threads: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            frames_per_cell: 64,
            tenants_per_cell: 4,
            quantum: 300,
            fault_service: 2_000,
            admission: Admission::Free,
            threads: 1,
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

/// Result of one fleet run. Byte-identical across thread counts for
/// the same tenants and configuration.
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
    /// Nothing here names a worker: which thread ran a cell is
    /// execution geometry, and a worker vector would break
    /// byte-identity across thread counts.
    pub cpu_per_cell: Vec<f64>,
    /// Distribution of per-tenant space-time cost (`ST`, floored to
    /// integer cost units).
    pub st_cost: HistogramSummary,
    /// Distribution of per-tenant swap-out counts — the fleet's
    /// swapper-pressure profile.
    pub swap_pressure: HistogramSummary,
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

/// Which event streams a cell run feeds. Derived once per fleet run
/// from the tracer's [`Detail`], then hoisted out of every hot loop —
/// the all-false case does no event work at all.
#[derive(Debug, Clone, Copy)]
struct Obs {
    /// Scheduler events (tenant lifecycle, admission gate, queue depth,
    /// swap-outs) enter the deterministic merged stream.
    sched: bool,
    /// Policies are instrumented at [`Detail::Decisions`] and their
    /// events enter the deterministic merged stream.
    policy: bool,
}

/// Runs a fleet of tenants: the one fleet driver. See the module docs
/// for the semantics.
///
/// Cells are the jobs of an [`Executor`] with `config.threads`
/// workers. The tracer's [`Detail`] picks what the cells record. At
/// [`Detail::Scheduler`] they buffer scheduler events (tenant
/// lifecycle, admission decisions, queue depth, swap-outs) and the
/// policies keep their untraced batch kernels; at
/// [`Detail::Aggregates`] or above the policies are instrumented at
/// [`Detail::Decisions`] too and their events join the stream. Cell
/// buffers are replayed into the tracer in cell order after the merge,
/// so it sees the same deterministic stream at any thread count: each
/// event the tracer's level covers, and each [`SimEvent::Evict`] as a
/// one-page [`RefBatch::Evictions`] count. A fleet hands over no
/// reference batches.
///
/// The optional shared [`ProgressCounters`] are bumped as cells finish
/// so a [`crate::progress::ProgressExporter`] can stream live frames;
/// they cannot perturb the report, which is byte-identical at any
/// `threads` setting, traced or not. The token is polled once per
/// scheduling burst; cancellation surfaces as
/// [`SimError::DeadlineExceeded`], and cells not yet started when a
/// cell fails are skipped.
///
/// # Panics
///
/// A panicking tenant engine panics the whole run, naming its cell:
/// the executor reports the job index, which is the cell index.
pub fn run_fleet(
    tenants: Vec<TenantSpec>,
    config: FleetConfig,
    tracer: &mut dyn Tracer,
    progress: Option<&ProgressCounters>,
    token: &CancelToken,
) -> Result<FleetReport, SimError> {
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

    let detail = tracer.detail();
    let obs = Obs {
        sched: detail >= Detail::Scheduler,
        policy: detail >= Detail::Aggregates,
    };

    // Build cells: contiguous groups in submission order. Membership
    // depends only on tenants_per_cell — never on threads.
    let n_tenants = tenants.len();
    let mut cells: Vec<Vec<Tenant>> = Vec::new();
    for (i, spec) in tenants.into_iter().enumerate() {
        if i % config.tenants_per_cell == 0 {
            cells.push(Vec::with_capacity(
                config.tenants_per_cell.min(n_tenants - i),
            ));
        }
        let demand = match config.admission {
            Admission::Free => 0,
            Admission::PiLevel(level) => entry_demand(&spec.trace, level),
        };
        let mut engine = spec.engine;
        if obs.policy {
            // Evictions reach the tracer as counts of the tenants'
            // `Evict` events, which only a decision-level policy emits.
            engine.set_detail(Detail::Decisions);
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
            global_index: i as u32,
        });
    }
    let n_cells = cells.len();
    if let Some(p) = progress {
        p.add_total(n_tenants as u64);
        p.add_queued(n_tenants as u64);
    }

    // One executor job per cell. The executor lends each job by
    // reference, so the job takes its cell out of a slot; it returns
    // `None` for a cell it skipped because another cell had failed.
    let slots: Vec<Mutex<Option<Vec<Tenant>>>> =
        cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let abort = AtomicBool::new(false);
    let outputs = Executor::with_threads(config.threads).map(&slots, |idx, slot| {
        let cell = slot
            .lock()
            .expect("a slot is locked only to take its cell, which cannot panic")
            .take()
            .expect("the executor runs each cell once");
        if abort.load(Ordering::Relaxed) {
            return None;
        }
        let tenants = cell.len() as u64;
        let t0 = Instant::now();
        let r = run_cell(idx as u32, cell, &config, obs, token);
        if r.is_err() {
            abort.store(true, Ordering::Relaxed);
        }
        if let Some(p) = progress {
            p.sub_queued(tenants);
            if let Ok(done) = &r {
                p.add_done(tenants);
                p.add_refs(done.reports.iter().map(|t| t.metrics.refs).sum());
            }
            let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            p.record_latency_ms(wall_ns / 1_000_000);
        }
        Some(r)
    });

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
    for output in outputs {
        // A skipped cell only happens after some cell errored; surface
        // cancellation for it too.
        let done = output.unwrap_or(Err(SimError::DeadlineExceeded { refs_done: 0 }))?;
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
        report.cpu_per_cell.push(if done.cell.makespan == 0 {
            0.0
        } else {
            done.cell.busy as f64 / done.cell.makespan as f64
        });
        report.cells.push(done.cell);
        if obs.sched {
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
    if obs.sched {
        for events in replay {
            for (at, e) in events {
                if let SimEvent::Evict { .. } = e {
                    tracer.aggregate(at, &RefBatch::Evictions(1));
                }
                if e.detail() <= detail {
                    tracer.record(at, &e);
                }
            }
        }
        tracer.flush();
    }
    Ok(report)
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
                            let ev = SimEvent::TenantAdmitted {
                                tenant: t.global_index,
                                forced: false,
                            };
                            note(clock, ev, &mut events, obs.sched);
                            State::Ready
                        }
                        Admission::PiLevel(_) => {
                            let ev = SimEvent::AdmissionDeferred {
                                tenant: t.global_index,
                                demand: t.entry_demand,
                            };
                            note(clock, ev, &mut events, obs.sched);
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
            let ev = SimEvent::TenantAdmitted {
                tenant: cell[i].global_index,
                forced: false,
            };
            note(clock, ev, &mut events, obs.sched);
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
                let ev = SimEvent::TenantAdmitted {
                    tenant: cell[i].global_index,
                    forced: true,
                };
                note(clock, ev, &mut events, obs.sched);
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
                        let tally = &mut Tally::new(&mut t.metrics);
                        t.engine.reference_run(start, stride, len, tally);
                        Step::Ran { len: len as u64 }
                    }
                    Chunk::Cycle { body, reps, refs } => {
                        let tally = &mut Tally::new(&mut t.metrics);
                        t.engine.reference_cycle(body, reps, tally);
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
                    let ev = SimEvent::TenantFinished {
                        tenant: t.global_index,
                    };
                    note(clock, ev, &mut events, obs.sched);
                    break;
                }
                Step::Ran { len } => {
                    executed += len;
                    busy += len;
                    clock += len;
                    if obs.policy {
                        drain(&mut cell[pick], clock, &mut pending, &mut events);
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
                    if obs.policy {
                        drain(&mut cell[pick], clock, &mut pending, &mut events);
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
            TenantReport {
                name: t.name,
                policy: t.engine.label(),
                metrics: t.metrics,
                admitted_at: t.admitted_at,
                finished_at: t.finished_at,
                swap_outs: t.swap_outs,
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

/// Moves the tenant's buffered decision events into the cell's
/// deterministic event buffer, stamped with the cell clock.
fn drain(
    t: &mut Tenant,
    clock: u64,
    pending: &mut Vec<SimEvent>,
    events: &mut Vec<(u64, SimEvent)>,
) {
    t.engine.drain_events(pending);
    events.extend(pending.drain(..).map(|e| (clock, e)));
}

/// Stamps a scheduler event into the cell's deterministic event buffer
/// when a tracer is listening.
fn note(clock: u64, ev: SimEvent, events: &mut Vec<(u64, SimEvent)>, sched_on: bool) {
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
    let ev = SimEvent::SwapOut {
        process: victim.global_index,
    };
    note(clock, ev, events, sched_on);
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
    use crate::observe::{EventLog, NullTracer};
    use crate::policy::cd::{CdPolicy, CdSelector};
    use crate::policy::lru::Lru;
    use crate::policy::ws::WorkingSet;
    use cdmm_lang::ast::AllocArg;
    use cdmm_trace::{synth, Trace};

    /// An untraced, uncancelled run.
    fn run(tenants: Vec<TenantSpec>, config: FleetConfig) -> Result<FleetReport, SimError> {
        run_fleet(tenants, config, &mut NullTracer, None, &CancelToken::new())
    }

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
        let r = run(vec![ws_tenant("t0", 8, 20, 0)], FleetConfig::default()).unwrap();
        assert_eq!(r.tenants[0].metrics.faults, uni.faults);
        assert_eq!(r.total_faults, uni.faults);
        assert_eq!(r.total_refs, uni.refs);
    }

    #[test]
    fn cells_partition_by_submission_order() {
        let specs: Vec<TenantSpec> = (0..10)
            .map(|i| ws_tenant(&format!("t{i}"), 4, 5, 0))
            .collect();
        let r = run(
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
    fn report_identical_across_threads() {
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
        let serial = run(mk(), base).unwrap();
        for threads in [2, 3, 4, 8] {
            let r = run(mk(), FleetConfig { threads, ..base }).unwrap();
            assert_eq!(r, serial, "threads={threads}");
        }
    }

    #[test]
    fn pressure_triggers_swapping_and_everyone_completes() {
        let specs: Vec<TenantSpec> = (0..3)
            .map(|i| ws_tenant(&format!("t{i}"), 30, 40, 0))
            .collect();
        let r = run(
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
        let r = run(specs, FleetConfig::default()).unwrap();
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
        let r = run(
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
        let r = run(
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
        let r = run(
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
            run(vec![], FleetConfig::default()).err(),
            Some(SimError::NoProcesses)
        );
        let bad_frames = FleetConfig {
            frames_per_cell: 0,
            ..Default::default()
        };
        assert!(matches!(
            run(vec![ws_tenant("a", 2, 2, 0)], bad_frames),
            Err(SimError::ZeroFrames { .. })
        ));
        let bad_quantum = FleetConfig {
            quantum: 0,
            ..Default::default()
        };
        assert!(matches!(
            run(vec![ws_tenant("a", 2, 2, 0)], bad_quantum),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn cancellation_surfaces_as_deadline() {
        let token = CancelToken::new();
        token.cancel();
        let err = run_fleet(
            vec![ws_tenant("a", 8, 20, 0)],
            FleetConfig::default(),
            &mut NullTracer,
            None,
            &token,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::DeadlineExceeded { .. }));
    }

    #[test]
    fn cancelled_multi_cell_fleet_surfaces_deadline_at_any_thread_count() {
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            let tenants = (0..12)
                .map(|i| ws_tenant(&format!("t{i}"), 8, 20, 0))
                .collect();
            let config = FleetConfig {
                tenants_per_cell: 2,
                threads,
                ..Default::default()
            };
            let err = run_fleet(tenants, config, &mut NullTracer, None, &token).unwrap_err();
            assert!(
                matches!(err, SimError::DeadlineExceeded { .. }),
                "threads={threads}: {err:?}"
            );
        }
    }

    /// An engine that panics on its first reference.
    struct Exploding;

    impl Policy for Exploding {
        fn label(&self) -> String {
            "BOOM".into()
        }
        fn reference(&mut self, _page: PageId) -> bool {
            panic!("engine exploded")
        }
        fn resident(&self) -> usize {
            0
        }
    }

    #[test]
    fn panicking_engine_panics_the_run_naming_its_cell() {
        use crate::executor::panic_message;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        for threads in [1, 4] {
            let mut tenants: Vec<TenantSpec> = (0..8)
                .map(|i| ws_tenant(&format!("t{i}"), 4, 5, 0))
                .collect();
            // Two tenants per cell: tenant 5 lives in cell 2.
            tenants[5].engine = Box::new(Exploding);
            let config = FleetConfig {
                tenants_per_cell: 2,
                threads,
                ..Default::default()
            };
            let payload = catch_unwind(AssertUnwindSafe(|| run(tenants, config)))
                .expect_err("a panicking engine must panic the run");
            assert_eq!(
                panic_message(payload.as_ref()),
                "executor job 2 panicked: engine exploded",
                "threads={threads}"
            );
        }
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
    fn cpu_per_cell_is_deterministic_across_geometry() {
        let config = FleetConfig {
            frames_per_cell: 20,
            tenants_per_cell: 2,
            ..Default::default()
        };
        let serial = run(observe_mix(), config).unwrap();
        assert_eq!(serial.cpu_per_cell.len(), serial.cells.len());
        for (util, cell) in serial.cpu_per_cell.iter().zip(&serial.cells) {
            let expect = cell.busy as f64 / cell.makespan as f64;
            assert!((util - expect).abs() < 1e-12);
        }
        for threads in [2, 4] {
            let r = run(observe_mix(), FleetConfig { threads, ..config }).unwrap();
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
            let report = run_fleet(
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
        let untraced = run(observe_mix(), config).unwrap();
        let mut log = EventLog::new(100_000).with_detail(Detail::Scheduler);
        let report = run_fleet(observe_mix(), config, &mut log, None, &CancelToken::new()).unwrap();
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
