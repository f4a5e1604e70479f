//! The [`Fleet`] facade: a fluent builder for fleet-scale
//! multiprogramming, mirroring [`crate::Simulation`].
//!
//! A fleet clones a few paper workloads into many tenant processes
//! (deterministically perturbed per tenant), partitions them into
//! fixed-size memory cells, and runs every cell through the paper's
//! Section-4 dispatch/swapper loop — sharded and work-stealing, with a
//! report that is byte-identical at any shard or thread count.
//!
//! ```
//! use cdmm_repro::{Fleet, PolicySpec};
//!
//! let report = Fleet::tenants(6)
//!     .workloads(["FDJAC"])
//!     .policy_mix([PolicySpec::Ws { tau: 2000 }, PolicySpec::Lru { frames: 16 }])
//!     .tenants_per_cell(2)
//!     .run()
//!     .expect("built-in workload");
//! assert_eq!(report.tenants.len(), 6);
//! assert!(report.total_faults > 0);
//! ```

use std::fmt;

use cdmm_core::fleet::{prepare_fleet, ChaosSpec, FleetError, FleetSpec, PreparedFleet};
use cdmm_core::PolicySpec;
use cdmm_vmsim::{Admission, CancelToken, FleetReport, FleetScorecard, NullTracer, Tracer};
use cdmm_workloads::Scale;

/// Fluent builder over the fleet scheduler; see the
/// [module docs](self) for an example.
///
/// Defaults: 8 tenants cloned from `FDJAC`/`TQL`/`HYBRJ` at
/// [`Scale::Small`] under a CD/WS/LRU policy mix, 4 tenants per
/// 64-frame cell, a 300-reference quantum, PI-level-1 admission,
/// seeded per-tenant jitter on, serial execution.
pub struct Fleet<'t> {
    spec: FleetSpec,
    tracer: Option<&'t mut dyn Tracer>,
}

impl fmt::Debug for Fleet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fleet")
            .field("spec", &self.spec)
            .field("traced", &self.tracer.is_some())
            .finish()
    }
}

impl<'t> Fleet<'t> {
    /// Starts a fleet of `n` tenant processes.
    pub fn tenants(n: usize) -> Self {
        Fleet {
            spec: FleetSpec {
                tenants: n,
                ..FleetSpec::default()
            },
            tracer: None,
        }
    }

    /// Fleet seed — drives every per-tenant perturbation stream
    /// (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// The paper workloads to clone, assigned round-robin over tenants.
    pub fn workloads<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.spec.workloads = names.into_iter().map(Into::into).collect();
        self
    }

    /// Workload size preset (default [`Scale::Small`]).
    pub fn scale(mut self, scale: Scale) -> Self {
        self.spec.scale = scale;
        self
    }

    /// The policy mix, assigned round-robin over tenants (independently
    /// of the workload rotation).
    pub fn policy_mix<I>(mut self, mix: I) -> Self
    where
        I: IntoIterator<Item = PolicySpec>,
    {
        self.spec.policy_mix = mix.into_iter().collect();
        self
    }

    /// Page frames per memory cell (default 64).
    pub fn frames_per_cell(mut self, frames: u64) -> Self {
        self.spec.frames_per_cell = frames;
        self
    }

    /// Tenants sharing one cell — the contention domain (default 4).
    pub fn tenants_per_cell(mut self, n: usize) -> Self {
        self.spec.tenants_per_cell = n;
        self
    }

    /// Scheduling quantum in references (default 300).
    pub fn quantum(mut self, refs: u64) -> Self {
        self.spec.quantum = refs;
        self
    }

    /// Fault service time in references (default 2000; also the
    /// swap-in delay).
    pub fn fault_service(mut self, refs: u64) -> Self {
        self.spec.config.fault_service = refs;
        self
    }

    /// Admission control at cell entry (default
    /// [`Admission::PiLevel`]`(1)`).
    pub fn admission(mut self, admission: Admission) -> Self {
        self.spec.admission = admission;
        self
    }

    /// Work-distribution batches; 0 means one shard per cell (the
    /// default). Never changes the report.
    pub fn shards(mut self, shards: usize) -> Self {
        self.spec.shards = shards;
        self
    }

    /// Worker threads (default 1 = serial). Never changes the report.
    pub fn threads(mut self, threads: usize) -> Self {
        self.spec.threads = threads;
        self
    }

    /// Seeded per-tenant perturbation (default on). Off, every clone
    /// of a workload is byte-identical.
    pub fn jitter(mut self, enabled: bool) -> Self {
        self.spec.jitter = enabled;
        self
    }

    /// Adds a directed chaos tenant: its directive stream is fuzzed
    /// and (for CD tenants) the engine armed to degrade to LRU.
    pub fn chaos(mut self, chaos: ChaosSpec) -> Self {
        self.spec.chaos.push(chaos);
        self
    }

    /// Attaches an event tracer — an [`cdmm_vmsim::EventLog`], a
    /// [`cdmm_vmsim::MetricsRegistry`], or both through a
    /// [`cdmm_vmsim::Tee`]; cell event streams are replayed into it
    /// deterministically, in cell order, after the run.
    pub fn tracer(mut self, tracer: &'t mut dyn Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The underlying [`FleetSpec`], for everything the builder does
    /// not wrap.
    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    /// Manufactures the fleet without running it (compile + trace +
    /// clone), returning a handle that runs it once.
    pub fn prepare(&self) -> Result<PreparedFleet, FleetError> {
        prepare_fleet(&self.spec)
    }

    /// Prepares and runs the fleet to completion.
    pub fn run(self) -> Result<FleetReport, FleetError> {
        self.run_scored().map(|(report, _)| report)
    }

    /// Prepares and runs the fleet, returning the wall-side
    /// [`FleetScorecard`] (worker timelines, shard claim/steal
    /// counters, phase spans, hottest cells) next to the deterministic
    /// report. The scorecard describes *this* execution's geometry and
    /// timing; the report never varies with it.
    pub fn run_scored(self) -> Result<(FleetReport, FleetScorecard), FleetError> {
        let fleet = prepare_fleet(&self.spec)?;
        let mut untraced = NullTracer;
        let tracer = self.tracer.unwrap_or(&mut untraced);
        fleet.run_observed(tracer, None, &CancelToken::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmm_vmsim::policy::cd::CdSelector;

    fn small<'t>() -> Fleet<'t> {
        Fleet::tenants(6)
            .workloads(["FDJAC"])
            .policy_mix([PolicySpec::Ws { tau: 2000 }, PolicySpec::Lru { frames: 16 }])
            .tenants_per_cell(2)
            .seed(7)
    }

    #[test]
    fn builder_runs_and_reports_every_tenant() {
        let report = small().run().expect("fleet runs");
        assert_eq!(report.tenants.len(), 6);
        assert_eq!(report.cells.len(), 3);
        assert!(report.cpu_utilization > 0.0);
    }

    #[test]
    fn report_is_identical_across_execution_geometry() {
        let serial = small().run().expect("serial");
        let parallel = small().threads(4).shards(2).run().expect("parallel");
        assert_eq!(serial, parallel, "threads/shards never change the report");
    }

    fn cd_fleet<'t>() -> Fleet<'t> {
        small().policy_mix([PolicySpec::Cd {
            selector: CdSelector::FirstFit,
        }])
    }

    #[test]
    fn tracer_observes_without_changing_the_run() {
        let mut log = cdmm_vmsim::EventLog::new(1 << 14);
        let traced = cd_fleet().tracer(&mut log).run().expect("traced");
        let plain = cd_fleet().run().expect("plain");
        assert_eq!(traced, plain);
        assert!(!log.is_empty(), "cell streams replay into the tracer");
    }

    #[test]
    fn cd_mix_and_admission_compose() {
        let report = Fleet::tenants(4)
            .workloads(["FDJAC"])
            .policy_mix([PolicySpec::Cd {
                selector: CdSelector::FirstFit,
            }])
            .tenants_per_cell(2)
            .admission(Admission::PiLevel(1))
            .run()
            .expect("CD fleet");
        for t in &report.tenants {
            assert!(t.policy.starts_with("CD"), "{}", t.policy);
            assert!(t.metrics.refs > 0);
        }
    }

    #[test]
    fn scored_run_reports_workers_without_changing_the_report() {
        let (report, scorecard) = small().threads(3).run_scored().expect("scored");
        assert_eq!(report, small().run().expect("plain"));
        assert!(!scorecard.workers.is_empty());
        assert_eq!(
            scorecard.workers.iter().map(|w| w.cells_run).sum::<u64>(),
            report.cells.len() as u64
        );
        assert!(scorecard.shard_claims > 0);
        assert_eq!(scorecard.cells.len(), report.cells.len());
    }
}
