//! Multiprogramming (the paper's future work): run a mix of the paper's
//! programs in one shared memory cell, described by a [`FleetSpec`],
//! once with every tenant under CD's dynamic first-fit directive
//! selection and once under the Working Set policy, and compare
//! completion time, faults and swap activity.
//!
//! Run with `cargo run --release --example multiprogramming`.

use cdmm_repro::{run_fleet_spec, Admission, CdSelector, FleetSpec, PolicySpec};

fn main() {
    for frames in [24u64, 48, 96] {
        println!("=== {frames} shared frames ===");
        for (label, mix) in [
            (
                "CD",
                PolicySpec::Cd {
                    selector: CdSelector::FirstFit,
                },
            ),
            ("WS", PolicySpec::Ws { tau: 2_000 }),
        ] {
            // One three-tenant cell under free admission with jitter
            // off reproduces the classic shared-pool round-robin run.
            let r = run_fleet_spec(&FleetSpec {
                tenants: 3,
                workloads: vec!["FDJAC".into(), "TQL".into(), "HYBRJ".into()],
                policy_mix: vec![mix],
                frames_per_cell: frames,
                tenants_per_cell: 3,
                admission: Admission::Free,
                jitter: false,
                ..FleetSpec::default()
            })
            .expect("built-in workloads");
            println!(
                "  {label}: makespan {:>10}  total faults {:>6}  swaps {:>3}  cpu {:>5.1}%",
                r.makespan,
                r.total_faults,
                r.swap_events,
                r.cpu_utilization * 100.0
            );
            for t in &r.tenants {
                println!(
                    "      {:<11} PF {:>6}  MEM {:>6.2}  finished at {:>10}",
                    t.name,
                    t.metrics.faults,
                    t.metrics.mean_mem(),
                    t.finished_at
                );
            }
        }
        println!();
    }
}
