//! Fleet-scale multiprogramming from the root crate.
//!
//! A fleet clones a few paper workloads into many tenant processes
//! (deterministically perturbed per tenant), partitions them into
//! fixed-size memory cells, and runs every cell through the paper's
//! Section-4 dispatch/swapper loop as one executor job, with a report
//! that is byte-identical at any thread count. Describe the fleet with a
//! [`FleetSpec`] and run it with [`run_fleet_spec`]; [`prepare_fleet`]
//! splits preparation from the run, which then takes a tracer and a
//! cancel token.
//!
//! ```
//! use cdmm_repro::{run_fleet_spec, FleetSpec, PolicySpec};
//!
//! let report = run_fleet_spec(&FleetSpec {
//!     tenants: 6,
//!     workloads: vec!["FDJAC".into()],
//!     policy_mix: vec![PolicySpec::Ws { tau: 2000 }, PolicySpec::Lru { frames: 16 }],
//!     tenants_per_cell: 2,
//!     ..FleetSpec::default()
//! })
//! .expect("built-in workload");
//! assert_eq!(report.tenants.len(), 6);
//! assert!(report.total_faults > 0);
//! ```

pub use cdmm_core::fleet::{
    prepare_fleet, run_fleet_spec, ChaosSpec, FleetError, FleetSpec, PreparedFleet,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Admission, CancelToken, CdSelector, EventLog, PolicySpec};

    fn small() -> FleetSpec {
        FleetSpec {
            tenants: 6,
            seed: 7,
            workloads: vec!["FDJAC".into()],
            policy_mix: vec![PolicySpec::Ws { tau: 2000 }, PolicySpec::Lru { frames: 16 }],
            tenants_per_cell: 2,
            ..FleetSpec::default()
        }
    }

    #[test]
    fn spec_runs_and_reports_every_tenant() {
        let report = run_fleet_spec(&small()).expect("fleet runs");
        assert_eq!(report.tenants.len(), 6);
        assert_eq!(report.cells.len(), 3);
        assert!(report.cpu_utilization > 0.0);
    }

    #[test]
    fn report_is_identical_across_execution_geometry() {
        let serial = run_fleet_spec(&small()).expect("serial");
        let parallel = run_fleet_spec(&FleetSpec {
            threads: 4,
            ..small()
        })
        .expect("parallel");
        assert_eq!(serial, parallel, "threads never change the report");
    }

    fn cd_fleet() -> FleetSpec {
        FleetSpec {
            policy_mix: vec![PolicySpec::Cd {
                selector: CdSelector::FirstFit,
            }],
            ..small()
        }
    }

    #[test]
    fn tracer_observes_without_changing_the_run() {
        let mut log = EventLog::new(1 << 14);
        let traced = prepare_fleet(&cd_fleet())
            .expect("fleet prepares")
            .run_cancellable(&mut log, &CancelToken::new())
            .expect("traced");
        let plain = run_fleet_spec(&cd_fleet()).expect("plain");
        assert_eq!(traced, plain);
        assert!(!log.is_empty(), "cell streams replay into the tracer");
    }

    #[test]
    fn cd_mix_and_admission_compose() {
        let report = run_fleet_spec(&FleetSpec {
            tenants: 4,
            workloads: vec!["FDJAC".into()],
            policy_mix: vec![PolicySpec::Cd {
                selector: CdSelector::FirstFit,
            }],
            tenants_per_cell: 2,
            admission: Admission::PiLevel(1),
            ..FleetSpec::default()
        })
        .expect("CD fleet");
        for t in &report.tenants {
            assert!(t.policy.starts_with("CD"), "{}", t.policy);
            assert!(t.metrics.refs > 0);
        }
    }
}
