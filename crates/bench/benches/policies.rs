//! Raw policy throughput on synthetic reference strings (references per
//! second through each policy implementation): the per-reference
//! `cdmm_oracle::simulate` first, then the run-level `simulate_with`
//! that production runs take, over a compressed loop-nest trace and a
//! fault-heavy double sweep under a large OPT allocation.

use cdmm_bench::timing::run;
use cdmm_oracle::simulate;
use cdmm_trace::{synth, CompressedTrace, PageId, TraceBuilder};
use cdmm_vmsim::policy::cd::{CdPolicy, CdSelector};
use cdmm_vmsim::policy::clock::Clock;
use cdmm_vmsim::policy::fifo::Fifo;
use cdmm_vmsim::policy::lru::Lru;
use cdmm_vmsim::policy::opt::Opt;
use cdmm_vmsim::policy::pff::Pff;
use cdmm_vmsim::policy::ws::WorkingSet;
use cdmm_vmsim::policy::Policy;
use cdmm_vmsim::{simulate_with, CancelToken, Metrics, NullTracer, SimConfig};

const LEN: usize = 50_000;
const PAGES: u32 = 128;
const SAMPLES: u32 = 20;
const SWEEP: u32 = 200_000;

fn main() {
    let trace = synth::uniform(PAGES, LEN, 42);
    println!("policy_throughput ({LEN} refs over {PAGES} pages)");

    run("lru/64", SAMPLES, || {
        let mut p = Lru::new(64);
        simulate(&trace, &mut p, SimConfig::default())
    });
    run("fifo/64", SAMPLES, || {
        let mut p = Fifo::new(64);
        simulate(&trace, &mut p, SimConfig::default())
    });
    run("clock/64", SAMPLES, || {
        let mut p = Clock::new(64);
        simulate(&trace, &mut p, SimConfig::default())
    });
    run("ws/1000", SAMPLES, || {
        let mut p = WorkingSet::new(1_000);
        simulate(&trace, &mut p, SimConfig::default())
    });
    run("pff/200", SAMPLES, || {
        let mut p = Pff::new(200);
        simulate(&trace, &mut p, SimConfig::default())
    });
    run("opt/64", SAMPLES, || {
        let mut p = Opt::for_trace(&trace, 64);
        simulate(&trace, &mut p, SimConfig::default())
    });
    run("cd/64", SAMPLES, || {
        let mut p = CdPolicy::new(CdSelector::Outermost).with_min_alloc(64);
        simulate(&trace, &mut p, SimConfig::default())
    });

    // The stack-distance pass that replaces V separate LRU runs.
    run("stack_profile/compute", SAMPLES, || {
        cdmm_vmsim::stack::StackProfile::compute(&trace)
    });

    // A locality-heavy trace stresses the eviction paths.
    let nested = synth::nested_loops(50, 8, 32, 10);
    println!("nested_loop_trace ({} refs)", nested.ref_count());
    run("lru_16", SAMPLES, || {
        let mut p = Lru::new(16);
        simulate(&nested, &mut p, SimConfig::default())
    });
    run("ws_500", SAMPLES, || {
        let mut p = WorkingSet::new(500);
        let m = simulate(&nested, &mut p, SimConfig::default());
        (m, p.resident())
    });

    // The same trace compressed, through the run-level kernels: 16
    // frames thrash the 32-page inner loop (mixed runs fall back per
    // reference), 40 hold all of it (steady cycles batch).
    let compressed = CompressedTrace::from_trace(&nested);
    println!(
        "run_level_nested_loop_trace ({} refs in {} ops)",
        compressed.ref_count(),
        compressed.op_count()
    );
    for frames in [16, 40] {
        run(&format!("run_level/lru_{frames}"), SAMPLES, || {
            run_level(&compressed, &mut Lru::new(frames))
        });
        run(&format!("run_level/fifo_{frames}"), SAMPLES, || {
            run_level(&compressed, &mut Fifo::new(frames))
        });
        run(&format!("run_level/clock_{frames}"), SAMPLES, || {
            run_level(&compressed, &mut Clock::new(frames))
        });
        run(&format!("run_level/opt_{frames}"), SAMPLES, || {
            run_level(&compressed, &mut Opt::for_trace(&compressed, frames))
        });
    }
    run("run_level/pff_200", SAMPLES, || {
        run_level(&compressed, &mut Pff::new(200))
    });

    // A fault-heavy large allocation: two sweeps over SWEEP pages under
    // OPT(SWEEP / 2) evict on every fault after the first half-sweep,
    // so this row prices an eviction when the resident set is large.
    let mut sweeps = TraceBuilder::new();
    for _ in 0..2 {
        sweeps.push_run(PageId(0), 1, SWEEP);
    }
    let sweeps = sweeps.finish(SWEEP);
    println!("double_sweep_trace ({} refs)", sweeps.ref_count());
    run("run_level/opt_half_sweep", SAMPLES, || {
        run_level(&sweeps, &mut Opt::for_trace(&sweeps, SWEEP as usize / 2))
    });
}

/// The run-level loop production runs take, untraced, under an idle token.
fn run_level<P: Policy>(trace: &CompressedTrace, policy: &mut P) -> Metrics {
    simulate_with(
        trace,
        policy,
        SimConfig::default(),
        &mut NullTracer,
        &CancelToken::new(),
    )
    .expect("an idle token never stops the run")
}
