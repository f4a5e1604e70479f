//! Ablation-study benches: LOCK handling, the WS policy family on the
//! same trace, and a three-tenant fleet cell.

use cdmm_bench::timing::run;
use cdmm_core::experiments::Harness;
use cdmm_core::{selector_for, PolicySpec};
use cdmm_trace::{synth, CompressedTrace};
use cdmm_vmsim::policy::cd::{CdPolicy, CdSelector};
use cdmm_vmsim::policy::pff::Pff;
use cdmm_vmsim::policy::ws::WorkingSet;
use cdmm_vmsim::policy::ws_variants::{DampedWs, SampledWs, VariableSampledWs};
use cdmm_vmsim::{run_fleet, Admission, CancelToken, FleetConfig, NullTracer, TenantSpec};
use cdmm_vmsim::{simulate, SimConfig};
use cdmm_workloads::Scale;

const SAMPLES: u32 = 10;

fn main() {
    let mut h = Harness::new(Scale::Small);
    let (_, variant) = h.resolve("MAIN");
    let selector = selector_for(variant.level);
    // Prepare once, outside the timed loop.
    let _ = h.prepared("MAIN");
    run("ablation_cd_locks_main", SAMPLES, || {
        let p = h.prepared("MAIN");
        (
            p.run_policy(PolicySpec::Cd { selector }),
            p.run_policy(PolicySpec::CdNoLocks { selector }),
        )
    });

    // Phased trace: the workload class the WS variants were invented for.
    let phases: Vec<synth::Phase> = (0..8)
        .map(|i| synth::Phase {
            base: if i % 2 == 0 { 0 } else { 16 },
            pages: 12,
            refs: 2_000,
        })
        .collect();
    let trace = synth::phased(&phases, 5);
    println!("ws_family ({} refs)", trace.ref_count());
    run("ws", SAMPLES, || {
        let mut p = WorkingSet::new(300);
        simulate(&trace, &mut p, SimConfig::default())
    });
    run("dws", SAMPLES, || {
        let mut p = DampedWs::new(300, 16);
        simulate(&trace, &mut p, SimConfig::default())
    });
    run("sws", SAMPLES, || {
        let mut p = SampledWs::new(300, 50);
        simulate(&trace, &mut p, SimConfig::default())
    });
    run("vsws", SAMPLES, || {
        let mut p = VariableSampledWs::new(50, 600, 10);
        simulate(&trace, &mut p, SimConfig::default())
    });
    run("pff", SAMPLES, || {
        let mut p = Pff::new(150);
        simulate(&trace, &mut p, SimConfig::default())
    });

    run("multiprog_three_ws_processes", SAMPLES, || {
        let cyclic = CompressedTrace::from_trace(&synth::cyclic(12, 40));
        let tenant = |name: &str, cd: bool| TenantSpec {
            name: name.to_string(),
            trace: cyclic.clone(),
            engine: if cd {
                Box::new(CdPolicy::new(CdSelector::FirstFit).with_min_alloc(2))
            } else {
                Box::new(WorkingSet::new(2_000))
            },
            arrival: 0,
        };
        let tenants = vec![tenant("a", false), tenant("b", false), tenant("c", true)];
        run_fleet(
            tenants,
            FleetConfig {
                frames_per_cell: 30,
                tenants_per_cell: 3,
                admission: Admission::Free,
                ..Default::default()
            },
            &mut NullTracer,
            None,
            &CancelToken::new(),
        )
    })
}
