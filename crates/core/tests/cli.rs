//! `cdmm simulate` end to end. Every policy the CLI offers goes through
//! `PolicySpec` and `Prepared::run_policy`, so a degenerate allocation
//! or window clamps to one exactly as it does at every other entry
//! point, instead of panicking.

use std::path::PathBuf;
use std::process::Command;

use cdmm_core::{prepare, PipelineConfig, PolicySpec};
use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_workloads::Scale;

const SOURCE: &str = "PROGRAM T\nPARAMETER (N = 48)\nDIMENSION A(N,N), V(N)\n\
                      DO 10 J = 1, N\nDO 20 K = 1, N\nA(K,J) = V(K) + 1.0\n\
                      20 CONTINUE\n10 CONTINUE\nEND\n";

/// Writes the program to a temp file private to this process and test.
fn source_file(test: &str) -> PathBuf {
    let name = format!("cdmm_cli_{}_{test}.f", std::process::id());
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, SOURCE).expect("write source");
    path
}

fn simulate(file: &PathBuf, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cdmm"))
        .arg("simulate")
        .arg(file)
        .args(args)
        .output()
        .expect("cdmm runs");
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn zero_parameters_clamp_to_one_for_every_policy() {
    let file = source_file("clamp");
    for (policy, flag) in [
        ("lru", "--frames"),
        ("fifo", "--frames"),
        ("clock", "--frames"),
        ("opt", "--frames"),
        ("ws", "--tau"),
        ("pff", "--tau"),
    ] {
        let zero = simulate(&file, &["--policy", policy, flag, "0"]);
        let one = simulate(&file, &["--policy", policy, flag, "1"]);
        assert_eq!(zero, one, "{policy} {flag} 0");
        assert!(zero.contains(policy), "{zero}");
    }
    std::fs::remove_file(&file).ok();
}

#[test]
fn every_wire_policy_runs_its_own_spec() {
    // The eight policies the serve protocol and `PolicySpec` offer, each
    // checked against the metrics of the spec it must map to. FDJAC at
    // these two allocations tells every pair of specs apart, which the
    // last assertion pins, so a name wired to the wrong spec fails here.
    let source = cdmm_workloads::by_name("FDJAC", Scale::Paper)
        .expect("FDJAC is a paper workload")
        .source;
    let prepared = prepare("CLI", &source, PipelineConfig::default()).expect("FDJAC prepares");
    let level = CdSelector::AtLevel(2);
    let mut seen: Vec<Vec<String>> = Vec::new();
    for frames in [8, 3] {
        let policies = [
            ("cd", PolicySpec::Cd { selector: level }),
            ("cd-nolocks", PolicySpec::CdNoLocks { selector: level }),
            ("lru", PolicySpec::Lru { frames }),
            ("ws", PolicySpec::Ws { tau: 1000 }),
            ("fifo", PolicySpec::Fifo { frames }),
            ("clock", PolicySpec::Clock { frames }),
            ("opt", PolicySpec::Opt { frames }),
            ("pff", PolicySpec::Pff { threshold: 1000 }),
        ];
        let mut lines = Vec::new();
        for (name, spec) in policies {
            let m = prepared.run_policy(spec);
            let expected = format!(
                "PF {:>8}  MEM {:>8.2}  ST {:>12.4e}  peak {:>5}",
                m.faults,
                m.mean_mem(),
                m.st_cost(),
                m.peak_resident
            );
            let args = ["--policy", name, "--frames", &frames.to_string()];
            let out = simulate(&PathBuf::from("@FDJAC"), &args);
            let line = out.lines().last().expect("a metrics line");
            assert_eq!(line, format!("{name:<12} {expected}"), "{args:?}");
            lines.push(expected);
        }
        seen.push(lines);
    }
    for i in 0..8 {
        for j in 0..i {
            assert!(
                seen.iter().any(|lines| lines[i] != lines[j]),
                "policies {i} and {j} agree at every allocation"
            );
        }
    }
}
