//! `cdmm simulate` end to end. Every policy the CLI offers goes through
//! `PolicySpec` and `Prepared::run_policy`, so a degenerate allocation
//! or window clamps to one exactly as it does at every other entry
//! point, instead of panicking.

use std::path::PathBuf;
use std::process::Command;

const SOURCE: &str = "PROGRAM T\nPARAMETER (N = 48)\nDIMENSION A(N,N), V(N)\n\
                      DO 10 J = 1, N\nDO 20 K = 1, N\nA(K,J) = V(K) + 1.0\n\
                      20 CONTINUE\n10 CONTINUE\nEND\n";

fn source_file() -> PathBuf {
    let path = std::env::temp_dir().join(format!("cdmm_cli_{}.f", std::process::id()));
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
    let file = source_file();
    for (policy, flag) in [
        ("lru", "--frames"),
        ("fifo", "--frames"),
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
