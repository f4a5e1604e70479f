//! Fleet assembly: clone paper workloads into thousands of tenants and
//! hand them to the cell scheduler in [`cdmm_vmsim::fleet`].
//!
//! The vmsim layer schedules *tenants it is given*; this module is the
//! part that manufactures them. A [`FleetSpec`] names a handful of
//! paper workloads, a policy mix, and a seed; [`prepare_fleet`] then
//! clones the workloads round-robin into `tenants` distinct tenants,
//! perturbing each one deterministically via
//! [`cdmm_trace::TenantJitter`]:
//!
//! - **arrival stagger** — tenants land spread over the first quanta of
//!   their cell rather than all at clock zero;
//! - **policy-parameter scaling** — WS windows, PFF thresholds and
//!   fixed allocations are scaled by ±25% permille factors;
//! - **page-geometry step** — each tenant traces its program at one of
//!   three page sizes (¾×, 1×, 1¼× the configured page), so cloned
//!   tenants fault on genuinely different reference strings;
//! - **chaos salt** — designated chaos tenants run their directive
//!   stream through the seeded [`cdmm_trace::DirectiveFuzzer`].
//!
//! Preparation is memoized per (workload, page size): a 2,000-tenant
//! fleet over 3 workloads compiles and traces at most 9 programs, then
//! clones the compressed traces (cheap `Vec` clones) per tenant.
//!
//! Everything is derived from `(spec, seed)` alone — never from the
//! thread count — so the fleet report does not depend on how it was
//! executed.

use std::collections::HashMap;
use std::fmt;

use cdmm_trace::{CancelToken, CompressedTrace, DirectiveFuzzer, TenantJitter};
use cdmm_vmsim::policy::cd::CdPolicy;
use cdmm_vmsim::policy::Policy;
use cdmm_vmsim::{
    run_fleet, Admission, FleetConfig, FleetReport, NullTracer, ProgressCounters, SimError,
    TenantSpec, Tracer,
};
use cdmm_workloads::Scale;

use crate::pipeline::{prepare, PipelineConfig, PipelineError, PolicySpec, Prepared};
use cdmm_locality::PageGeometry;
use cdmm_vmsim::policy::cd::CdSelector;

/// Directed perturbation of one tenant: its instrumented directive
/// stream is run through the seeded [`DirectiveFuzzer`] before the
/// fleet starts, and (for CD tenants) the engine is armed to degrade
/// to plain LRU after repeated directive violations.
///
/// Chaos only means something for tenants whose policy consumes
/// directives; a chaos spec naming a WS or LRU tenant is a no-op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Global tenant index the perturbation applies to.
    pub tenant: usize,
    /// How many directive-stream injections to apply.
    pub injections: usize,
    /// Violations tolerated before the CD engine degrades to LRU
    /// (`None` keeps strict directive trust).
    pub degrade_after: Option<u64>,
}

/// Everything needed to manufacture and schedule a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Number of tenant processes to clone.
    pub tenants: usize,
    /// Fleet seed: drives every per-tenant jitter stream.
    pub seed: u64,
    /// Workload size preset.
    pub scale: Scale,
    /// Paper workload names, assigned round-robin over tenants.
    pub workloads: Vec<String>,
    /// Policy specs, assigned round-robin over tenants (independently
    /// of the workload rotation).
    pub policy_mix: Vec<PolicySpec>,
    /// Page frames in each memory-pool cell.
    pub frames_per_cell: u64,
    /// Tenants sharing one cell (the contention domain).
    pub tenants_per_cell: usize,
    /// Scheduling quantum in references.
    pub quantum: u64,
    /// Admission control at cell entry.
    pub admission: Admission,
    /// Worker threads (1 = serial). Never affects results.
    pub threads: usize,
    /// Apply seeded per-tenant perturbation. Off, every clone of a
    /// workload is byte-identical (useful for scheduler-only studies).
    pub jitter: bool,
    /// Directed chaos tenants.
    pub chaos: Vec<ChaosSpec>,
    /// Compile/trace pipeline knobs shared by all tenants (geometry
    /// jitter steps off `config.geometry`).
    pub config: PipelineConfig,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            tenants: 8,
            seed: 1,
            scale: Scale::Small,
            workloads: vec!["FDJAC".into(), "TQL".into(), "HYBRJ".into()],
            policy_mix: vec![
                PolicySpec::Cd {
                    selector: CdSelector::FirstFit,
                },
                PolicySpec::Ws { tau: 2000 },
                PolicySpec::Lru { frames: 16 },
            ],
            frames_per_cell: 64,
            tenants_per_cell: 4,
            quantum: 300,
            admission: Admission::PiLevel(1),
            threads: 1,
            jitter: true,
            chaos: Vec::new(),
            config: PipelineConfig::default(),
        }
    }
}

/// Fleet assembly or execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// The spec names zero tenants, workloads or policies, or asks for
    /// cells with no tenants or frames, or a zero quantum.
    Empty(&'static str),
    /// A workload name not in the paper's table.
    UnknownWorkload(String),
    /// Compile/trace failure for one of the cloned programs.
    Pipeline(PipelineError),
    /// Scheduler failure (cancellation).
    Sim(SimError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Empty(what) => write!(f, "a fleet needs at least one {what}"),
            FleetError::UnknownWorkload(name) => write!(f, "unknown workload {name:?}"),
            FleetError::Pipeline(e) => write!(f, "preparing fleet tenant: {e}"),
            FleetError::Sim(e) => write!(f, "running fleet: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<PipelineError> for FleetError {
    fn from(e: PipelineError) -> Self {
        FleetError::Pipeline(e)
    }
}

impl From<SimError> for FleetError {
    fn from(e: SimError) -> Self {
        FleetError::Sim(e)
    }
}

/// A fleet manufactured and ready to run: tenants with cloned traces
/// and built engines, plus the scheduler configuration.
///
/// Running consumes the fleet (engines are stateful and single-use);
/// re-prepare from the spec to run again — preparation is memoized per
/// program, so this is cheap relative to the run itself.
pub struct PreparedFleet {
    tenants: Vec<TenantSpec>,
    config: FleetConfig,
}

impl PreparedFleet {
    /// Number of manufactured tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Runs the fleet to completion under a cooperative
    /// [`CancelToken`], with an event [`Tracer`] attached (cell event
    /// streams are replayed into it deterministically, in cell order;
    /// pass [`cdmm_vmsim::NullTracer`] for none).
    pub fn run_cancellable(
        self,
        tracer: &mut dyn Tracer,
        token: &CancelToken,
    ) -> Result<FleetReport, FleetError> {
        self.run_observed(tracer, None, token)
    }

    /// [`PreparedFleet::run_cancellable`] that also bumps the optional
    /// shared [`ProgressCounters`] as cells finish, so callers can
    /// stream live progress frames while the fleet runs.
    pub fn run_observed(
        self,
        tracer: &mut dyn Tracer,
        progress: Option<&ProgressCounters>,
        token: &CancelToken,
    ) -> Result<FleetReport, FleetError> {
        Ok(run_fleet(
            self.tenants,
            self.config,
            tracer,
            progress,
            token,
        )?)
    }
}

impl fmt::Debug for PreparedFleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedFleet")
            .field("tenants", &self.tenants.len())
            .field("config", &self.config)
            .finish()
    }
}

/// The page geometry a tenant traces at: steps ¾×, 1×, 1¼× the base
/// page, rounded down to a whole number of elements (never below one).
fn geometry_for(base: PageGeometry, step: u32) -> PageGeometry {
    let raw = match step {
        0 => base.page_bytes * 3 / 4,
        2 => base.page_bytes * 5 / 4,
        _ => base.page_bytes,
    };
    let page_bytes = (raw / base.elem_bytes).max(1) * base.elem_bytes;
    PageGeometry {
        page_bytes,
        elem_bytes: base.elem_bytes,
    }
}

/// Scales a policy's parameters by the tenant's jitter. CD variants are
/// untouched (their allocations come from directives, which already
/// vary with the geometry step); `VariableSampledWs` self-tunes.
fn perturb_spec(spec: PolicySpec, jit: &TenantJitter) -> PolicySpec {
    let tau = |v| TenantJitter::scale(v, jit.tau_permille);
    let frames = |v: usize| TenantJitter::scale(v as u64, jit.frames_permille) as usize;
    match spec {
        PolicySpec::Ws { tau: t } => PolicySpec::Ws { tau: tau(t) },
        PolicySpec::DampedWs {
            tau: t,
            reserve_cap,
        } => PolicySpec::DampedWs {
            tau: tau(t),
            reserve_cap,
        },
        PolicySpec::SampledWs { tau: t, sigma } => PolicySpec::SampledWs { tau: tau(t), sigma },
        PolicySpec::Pff { threshold } => PolicySpec::Pff {
            threshold: tau(threshold),
        },
        PolicySpec::Lru { frames: n } => PolicySpec::Lru { frames: frames(n) },
        PolicySpec::Fifo { frames: n } => PolicySpec::Fifo { frames: frames(n) },
        PolicySpec::Clock { frames: n } => PolicySpec::Clock { frames: frames(n) },
        PolicySpec::Opt { frames: n } => PolicySpec::Opt { frames: frames(n) },
        other => other,
    }
}

/// Builds the engine and trace for a chaos tenant: the instrumented
/// stream is fuzzed with the tenant's salted [`DirectiveFuzzer`] and
/// the CD engine armed with the degradation tripwire.
fn chaos_tenant(
    prepared: &Prepared,
    policy: PolicySpec,
    chaos: &ChaosSpec,
    seed: u64,
    salt: u64,
    min_alloc: u64,
) -> (CompressedTrace, Box<dyn Policy + Send>) {
    let report = DirectiveFuzzer::new(seed ^ salt)
        .with_injections(chaos.injections)
        .fuzz(prepared.cd_trace_flat());
    let trace = CompressedTrace::from_trace(&report.trace);
    let engine: Box<dyn Policy + Send> = match policy {
        PolicySpec::Cd { selector } => Box::new(
            CdPolicy::new(selector)
                .with_min_alloc(min_alloc)
                .with_degrade_after(chaos.degrade_after),
        ),
        PolicySpec::CdNoLocks { selector } => Box::new(
            CdPolicy::new(selector)
                .with_min_alloc(min_alloc)
                .with_locks(false)
                .with_degrade_after(chaos.degrade_after),
        ),
        _ => unreachable!("chaos_tenant is only called for directive-consuming policies"),
    };
    (trace, engine)
}

/// Manufactures a fleet from its spec: compiles and traces each
/// distinct (workload, page size) pair once, then clones perturbed
/// tenants from the memoized preparations.
pub fn prepare_fleet(spec: &FleetSpec) -> Result<PreparedFleet, FleetError> {
    if spec.tenants == 0 {
        return Err(FleetError::Empty("tenant"));
    }
    if spec.workloads.is_empty() {
        return Err(FleetError::Empty("workload"));
    }
    if spec.policy_mix.is_empty() {
        return Err(FleetError::Empty("policy in the mix"));
    }
    // The scheduler rejects these too, but only after every workload
    // is compiled, and as a run failure rather than a bad spec.
    if spec.frames_per_cell == 0 {
        return Err(FleetError::Empty("frame per cell"));
    }
    if spec.quantum == 0 {
        return Err(FleetError::Empty("reference per quantum"));
    }
    if spec.tenants_per_cell == 0 {
        return Err(FleetError::Empty("tenant per cell"));
    }

    // Resolve workload names up front so a typo fails before any
    // compilation happens.
    let mut sources = Vec::with_capacity(spec.workloads.len());
    for name in &spec.workloads {
        let w = cdmm_workloads::by_name(name, spec.scale)
            .ok_or_else(|| FleetError::UnknownWorkload(name.clone()))?;
        sources.push(w);
    }

    // Memoized preparation per (workload, page size).
    let mut prepared: Vec<Prepared> = Vec::new();
    let mut index: HashMap<(usize, u64), usize> = HashMap::new();

    let mut tenants = Vec::with_capacity(spec.tenants);
    for t in 0..spec.tenants {
        let jit = if spec.jitter {
            TenantJitter::for_tenant(spec.seed, t as u64)
        } else {
            TenantJitter::neutral()
        };
        let widx = t % sources.len();
        let geometry = geometry_for(spec.config.geometry, jit.geometry_step);
        let pidx = match index.entry((widx, geometry.page_bytes)) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let w = &sources[widx];
                let config = PipelineConfig {
                    geometry,
                    ..spec.config
                };
                prepared.push(prepare(w.name, &w.source, config)?);
                e.insert(prepared.len() - 1);
                prepared.len() - 1
            }
        };
        let p = &prepared[pidx];
        let policy = perturb_spec(spec.policy_mix[t % spec.policy_mix.len()], &jit);

        let chaos = spec.chaos.iter().find(|c| c.tenant == t);
        let (trace, engine) = match chaos {
            Some(c) if policy.uses_directives() => chaos_tenant(
                p,
                policy,
                c,
                spec.seed,
                jit.chaos_salt,
                spec.config.min_alloc,
            ),
            _ => {
                let trace = if policy.uses_directives() {
                    p.cd_trace().clone()
                } else {
                    p.plain_trace().clone()
                };
                (trace, p.build_policy(policy))
            }
        };
        tenants.push(TenantSpec {
            name: format!("{}-{:04}", p.name(), t),
            trace,
            engine,
            arrival: jit.arrival(spec.quantum),
        });
    }

    let config = FleetConfig {
        frames_per_cell: spec.frames_per_cell,
        tenants_per_cell: spec.tenants_per_cell,
        quantum: spec.quantum,
        fault_service: spec.config.fault_service,
        admission: spec.admission,
        threads: spec.threads,
    };
    Ok(PreparedFleet { tenants, config })
}

/// Prepares and runs a fleet in one call.
pub fn run_fleet_spec(spec: &FleetSpec) -> Result<FleetReport, FleetError> {
    prepare_fleet(spec)?.run_cancellable(&mut NullTracer, &CancelToken::new())
}

/// One operating point of a [`fleet_frames_sweep`]: the deterministic
/// aggregates of the fleet scheduled at one cell size.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFramesPoint {
    /// Frames in each memory-pool cell at this point.
    pub frames_per_cell: u64,
    /// Page faults over all tenants.
    pub total_faults: u64,
    /// Swap-out events over all cells.
    pub swap_events: u64,
    /// Slowest cell's completion time.
    pub makespan: u64,
    /// Busy time over summed cell makespans.
    pub cpu_utilization: f64,
    /// Median per-tenant space-time cost.
    pub st_p50: u64,
    /// 99th-percentile per-tenant space-time cost.
    pub st_p99: u64,
}

/// A Table-2-style sweep of one fleet over cell sizes, with the
/// standalone reference column the paper's Table 2 compares families
/// against.
#[derive(Debug, Clone)]
pub struct FleetFramesSweep {
    /// Sum over all tenants of each tenant program's *standalone*
    /// minimal-ST cost under fixed-allocation LRU — what the population
    /// would cost with no memory contention at all, each program at its
    /// own best allocation. Computed by the one-pass LRU curve kernel:
    /// one stack-distance pass per distinct workload answers the whole
    /// `1..=V` family.
    pub standalone_lru_st: f64,
    /// The fleet's operating points, in the order of the input frames.
    pub points: Vec<FleetFramesPoint>,
}

/// Sweeps `spec` over frames-per-cell values, re-running the (otherwise
/// identical) fleet at each cell size, and folds in the kernel-derived
/// standalone LRU reference. The fleet runs dominate; the reference
/// column costs one trace pass per distinct workload through the
/// [`crate::sweep::SweepPlan`] curve cache.
pub fn fleet_frames_sweep(
    spec: &FleetSpec,
    frames: &[u64],
    cache: &crate::sweep::ResultCache,
) -> Result<FleetFramesSweep, FleetError> {
    // The reference column is frames-independent: fold each distinct
    // workload's LRU family to its minimal-ST point once, then charge
    // every tenant its workload's best standalone cost.
    let mut best_st: HashMap<String, f64> = HashMap::new();
    let mut standalone = 0.0f64;
    for t in 0..spec.tenants {
        let name = &spec.workloads[t % spec.workloads.len()];
        if !best_st.contains_key(name) {
            let w = cdmm_workloads::by_name(name, spec.scale)
                .ok_or_else(|| FleetError::UnknownWorkload(name.clone()))?;
            let p = prepare(w.name, &w.source, spec.config)?;
            let plan = crate::sweep::SweepPlan::new(cache, &p);
            let params: Vec<u64> = crate::sweep::full_lru_range(&p).map(|m| m as u64).collect();
            let points = plan.lru_grid(
                &crate::sweep::Executor::serial(),
                &plan.lru_curve(),
                &params,
            );
            let best = crate::sweep::min_st(&points);
            best_st.insert(name.clone(), best.metrics.st_cost());
        }
        standalone += best_st[name];
    }

    let mut points = Vec::with_capacity(frames.len());
    for &f in frames {
        let mut s = spec.clone();
        s.frames_per_cell = f;
        let report = run_fleet_spec(&s)?;
        points.push(FleetFramesPoint {
            frames_per_cell: f,
            total_faults: report.total_faults,
            swap_events: report.swap_events,
            makespan: report.makespan,
            cpu_utilization: report.cpu_utilization,
            st_p50: report.st_cost.p50,
            st_p99: report.st_cost.p99,
        });
    }
    Ok(FleetFramesSweep {
        standalone_lru_st: standalone,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> FleetSpec {
        FleetSpec {
            tenants: 6,
            seed: 42,
            workloads: vec!["FDJAC".into()],
            policy_mix: vec![PolicySpec::Ws { tau: 2000 }, PolicySpec::Lru { frames: 16 }],
            tenants_per_cell: 2,
            ..FleetSpec::default()
        }
    }

    #[test]
    fn spec_prepares_clones_and_runs() {
        let spec = small_spec();
        let fleet = prepare_fleet(&spec).unwrap();
        assert_eq!(fleet.tenant_count(), 6);
        let report = fleet
            .run_cancellable(&mut NullTracer, &CancelToken::new())
            .unwrap();
        assert_eq!(report.tenants.len(), 6);
        assert_eq!(report.cells.len(), 3);
        for t in &report.tenants {
            assert!(t.metrics.refs > 0, "{} ran", t.name);
        }
    }

    #[test]
    fn jitter_perturbs_policy_parameters() {
        let report = run_fleet_spec(&small_spec()).unwrap();
        // With jitter on, the two WS tenants should not share a label
        // with probability ~1 for this seed (their τ differs).
        let ws_labels: Vec<&str> = report
            .tenants
            .iter()
            .filter(|t| t.policy.starts_with("WS"))
            .map(|t| t.policy.as_str())
            .collect();
        assert!(ws_labels.len() >= 2);
        assert!(
            ws_labels.windows(2).any(|w| w[0] != w[1]),
            "jitter left all WS windows identical: {ws_labels:?}"
        );
    }

    #[test]
    fn unknown_workload_is_a_typed_error() {
        let mut spec = small_spec();
        spec.workloads = vec!["NOSUCH".into()];
        assert_eq!(
            prepare_fleet(&spec).err(),
            Some(FleetError::UnknownWorkload("NOSUCH".into()))
        );
    }

    #[test]
    fn empty_specs_are_typed_errors() {
        let mut spec = small_spec();
        spec.tenants = 0;
        assert!(matches!(prepare_fleet(&spec), Err(FleetError::Empty(_))));
        let mut spec = small_spec();
        spec.workloads.clear();
        assert!(matches!(prepare_fleet(&spec), Err(FleetError::Empty(_))));
        let mut spec = small_spec();
        spec.policy_mix.clear();
        assert!(matches!(prepare_fleet(&spec), Err(FleetError::Empty(_))));
        // Degenerate cells are bad specs too, rejected before any
        // workload name resolves (NOSUCH would otherwise fail first).
        let base = FleetSpec {
            workloads: vec!["NOSUCH".into()],
            ..small_spec()
        };
        for (bad, what) in [
            (
                FleetSpec {
                    frames_per_cell: 0,
                    ..base.clone()
                },
                "frame per cell",
            ),
            (
                FleetSpec {
                    quantum: 0,
                    ..base.clone()
                },
                "reference per quantum",
            ),
            (
                FleetSpec {
                    tenants_per_cell: 0,
                    ..base.clone()
                },
                "tenant per cell",
            ),
        ] {
            assert_eq!(prepare_fleet(&bad).err(), Some(FleetError::Empty(what)));
        }
    }

    #[test]
    fn frames_sweep_is_deterministic_and_carries_the_reference_column() {
        let spec = small_spec();
        let cache = crate::sweep::ResultCache::in_memory();
        let frames = [16u64, 32, 64];
        let a = fleet_frames_sweep(&spec, &frames, &cache).unwrap();
        assert_eq!(a.points.len(), 3);
        assert!(a.standalone_lru_st > 0.0);
        for (pt, &f) in a.points.iter().zip(&frames) {
            assert_eq!(pt.frames_per_cell, f);
            assert!(pt.total_faults > 0, "frames={f}");
        }
        // Replaying the sweep (warm curve cache) changes nothing.
        let b = fleet_frames_sweep(&spec, &frames, &cache).unwrap();
        assert_eq!(a.points, b.points);
        assert_eq!(a.standalone_lru_st.to_bits(), b.standalone_lru_st.to_bits());
    }

    #[test]
    fn chaos_tenant_runs() {
        let mut spec = small_spec();
        spec.policy_mix = vec![PolicySpec::Cd {
            selector: CdSelector::FirstFit,
        }];
        spec.chaos = vec![ChaosSpec {
            tenant: 0,
            injections: 2,
            degrade_after: Some(1),
        }];
        let report = run_fleet_spec(&spec).unwrap();
        assert_eq!(report.tenants.len(), 6);
        for t in &report.tenants {
            assert!(t.metrics.refs > 0, "{} survives chaos", t.name);
        }
    }
}
