//! Operating-curve experiment (an extended "figure"): PF-vs-MEM curves
//! for LRU, WS and the VMIN optimal frontier, with CD's directive-set
//! points overlaid. Pass `--small` for the reduced test scale.

use cdmm_core::curves;
use cdmm_core::experiments::Harness;
use cdmm_core::sweep::{self, SweepPlan};

fn main() {
    let env = cdmm_bench::BenchEnv::from_env();
    let mut h = Harness::new(env.scale());
    for row in ["MAIN", "FDJAC", "CONDUCT"] {
        let (w, _) = h.resolve(row);
        let variants = w.variants.clone();
        let name = w.name;
        h.prepare_rows(&[row]);
        let p = h.prepared_ref(row);
        println!(
            "=== {name} (R = {}, V = {}) ===",
            p.plain_trace().ref_count(),
            p.virtual_pages()
        );

        let plan = SweepPlan::new(h.result_cache(), p);
        let frames: Vec<u64> = sweep::full_lru_range(p).map(|m| m as u64).collect();
        let taus = sweep::ws_tau_grid(p, 4);
        let frontier = curves::vmin_curve(p, 4);
        for (label, curve) in [
            (
                "LRU",
                plan.lru_grid(h.executor(), &plan.lru_curve(), &frames),
            ),
            ("WS", plan.ws_grid(h.executor(), &plan.ws_curve(), &taus)),
            ("VMIN", frontier.clone()),
        ] {
            println!("  {label} curve (param, MEM, PF):");
            let step = (curve.len() / 8).max(1);
            for pt in curve.iter().step_by(step) {
                println!(
                    "    {:>8} {:>9.2} {:>8}",
                    pt.param,
                    pt.metrics.mean_mem(),
                    pt.metrics.faults
                );
            }
        }
        println!("  CD points (variant, MEM, PF, frontier gap):");
        for (vname, pt) in curves::cd_points(p, &variants) {
            println!(
                "    {:<10} {:>9.2} {:>8}   {:>6.2}x",
                vname,
                pt.metrics.mean_mem(),
                pt.metrics.faults,
                curves::frontier_gap(&pt, &frontier)
            );
        }
        println!();
    }
    env.finish();
}
