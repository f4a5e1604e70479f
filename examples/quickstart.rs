//! Quickstart: compile a numerical program, let the compiler insert
//! memory directives, and compare the CD policy against LRU and WS —
//! one `prepare`, then one `run_policy` per policy.
//!
//! Run with `cargo run --example quickstart`.

use cdmm_repro::{prepare, CdSelector, PipelineConfig, PolicySpec};

const SOURCE: &str = "
PROGRAM DEMO
PARAMETER (N = 64, NT = 8)
DIMENSION A(N,N), B(N,N), S(N)
C Initialize both fields.
DO 5 J = 1, N
  DO 6 I = 1, N
    A(I,J) = FLOAT(I + J)
    B(I,J) = 0.0
6 CONTINUE
5 CONTINUE
C Time steps: a streaming update phase and a row-reduction phase.
DO 10 T = 1, NT
  DO 20 J = 1, N
    DO 30 I = 1, N
      B(I,J) = 0.5 * (A(I,J) + B(I,J))
30  CONTINUE
20 CONTINUE
  DO 40 J = 1, N
    S(J) = 0.0
    DO 50 K = 1, N
      S(J) = S(J) + A(J,K)
50  CONTINUE
40 CONTINUE
10 CONTINUE
END
";

fn main() {
    // Compile, analyse, insert directives, and trace — once.
    let p = prepare("DEMO", SOURCE, PipelineConfig::default()).expect("pipeline");

    println!(
        "DEMO: {} array references over {} virtual pages, {} directives inserted\n",
        p.plain_trace().ref_count(),
        p.virtual_pages(),
        p.cd_trace().directive_count(),
    );

    // CD honoring the mid-level requests.
    let cd_spec = PolicySpec::Cd {
        selector: CdSelector::AtLevel(2),
    };
    let cd = p.run_policy(cd_spec);

    // Classic baselines at comparable operating points.
    let frames = cd.mean_mem().round() as usize;
    let lru_spec = PolicySpec::Lru { frames };
    let lru = p.run_policy(lru_spec);
    let ws_spec = PolicySpec::Ws { tau: 2_000 };
    let ws = p.run_policy(ws_spec);

    println!("{:<18} {:>10} {:>10} {:>14}", "policy", "PF", "MEM", "ST");
    for (spec, m) in [(cd_spec, &cd), (lru_spec, &lru), (ws_spec, &ws)] {
        println!(
            "{:<18} {:>10} {:>10.2} {:>14.3e}",
            p.policy_label(spec),
            m.faults,
            m.mean_mem(),
            m.st_cost()
        );
    }
    println!(
        "\nAt the same average memory, CD faults {}x less than LRU.",
        if cd.faults > 0 {
            lru.faults / cd.faults.max(1)
        } else {
            0
        }
    );
}
