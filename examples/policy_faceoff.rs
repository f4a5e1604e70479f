//! Policy face-off on a real workload: run one of the paper's traced
//! programs under the full policy zoo — CD, LRU, WS, FIFO, OPT, PFF and
//! the WS variants — and print the PF / MEM / ST trade-off each policy
//! achieves. Every policy is named as a `PolicySpec` value and run on
//! one `Prepared` program.
//!
//! Run with `cargo run --release --example policy_faceoff [PROGRAM]`
//! (default CONDUCT; any of the nine paper programs works).

use cdmm_repro::{by_name, prepare, CdSelector, Metrics, PipelineConfig, PolicySpec, Scale};

fn main() {
    let program = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "CONDUCT".to_string());
    let w = by_name(&program, Scale::Small)
        .unwrap_or_else(|| panic!("unknown workload {program:?}; try MAIN, FDJAC, TQL, ..."));
    let p = prepare(w.name, &w.source, PipelineConfig::default()).unwrap_or_else(|e| panic!("{e}"));

    println!(
        "{}: {} refs over {} pages\n",
        p.name(),
        p.plain_trace().ref_count(),
        p.virtual_pages()
    );

    let cd_spec = PolicySpec::Cd {
        selector: CdSelector::AtLevel(2),
    };
    let cd = p.run_policy(cd_spec);
    let frames = cd.mean_mem().round().max(1.0) as usize;
    let tau = 1_000;

    let specs = [
        PolicySpec::Cd {
            selector: CdSelector::Outermost,
        },
        PolicySpec::Cd {
            selector: CdSelector::Innermost,
        },
        PolicySpec::Lru { frames },
        PolicySpec::Ws { tau },
        PolicySpec::Fifo { frames },
        PolicySpec::Opt { frames },
        PolicySpec::Pff { threshold: 200 },
        PolicySpec::DampedWs {
            tau,
            reserve_cap: 8,
        },
        PolicySpec::SampledWs { tau, sigma: 100 },
        PolicySpec::VariableSampledWs {
            min_interval: 50,
            max_interval: 2_000,
            fault_quota: 10,
        },
    ];
    // (label, metrics) rows, CD at level 2 first.
    let mut rows: Vec<(String, Metrics)> = vec![(p.policy_label(cd_spec), cd)];
    rows.extend(specs.iter().map(|&s| (p.policy_label(s), p.run_policy(s))));

    println!(
        "{:<18} {:>8} {:>9} {:>13} {:>9}",
        "policy", "PF", "MEM", "ST", "peak"
    );
    for (label, m) in &rows {
        println!(
            "{:<18} {:>8} {:>9.2} {:>13.3e} {:>9}",
            label,
            m.faults,
            m.mean_mem(),
            m.st_cost(),
            m.peak_resident
        );
    }

    let find = |prefix: &str| {
        rows.iter()
            .find(|(label, _)| label.starts_with(prefix))
            .map(|(_, m)| m)
            .unwrap_or_else(|| panic!("{prefix} row"))
    };
    let (opt, lru) = (find("OPT"), find("LRU"));
    assert!(opt.faults <= lru.faults, "OPT lower-bounds LRU");
    println!("\nSanity: OPT({frames}) <= LRU({frames}) in faults, as theory demands.");
}
