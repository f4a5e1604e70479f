//! Output checks, run outside the timed loop.
//!
//! Every response must be `ok`; the first rows of a recorded seed must
//! hash to the recorded digest; and a sample of rows is recomputed
//! through a different engine than the one the service used.

use cdmm_core::fleet::run_fleet_spec;
use cdmm_core::sweep::{full_lru_range, ws_tau_grid};
use cdmm_core::{prepare_cancellable, CancelToken, PipelineConfig, Point, PolicySpec, Prepared};
use cdmm_serve::request::{encode_fleet_ok, encode_ok, encode_sweep_ok, Request};
use cdmm_serve::{parse_request, SweepFamily, WorkSource};
use cdmm_vmsim::LruCurve;
use cdmm_workloads::by_name;

use crate::stream::{round_len, Workload};

/// The seed the benchmark runs without `--seed`.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning, to check results on unseen inputs.
pub const HELD_OUT_SEED: u64 = 1000;

/// Digests of a round's rows (the whole stream), recorded for the
/// default and the held-out seed. A change that alters any simulated number, or
/// the stream itself, fails here.
const RECORDED: &[(Workload, u64, u64)] = &[
    (Workload::Cold, DEFAULT_SEED, 0xd9a5_3720_7d2a_402b),
    (Workload::Cold, HELD_OUT_SEED, 0xf563_0da0_04b7_a0f1),
    (Workload::Warm, DEFAULT_SEED, 0xb180_7409_9e8c_09f4),
    (Workload::Warm, HELD_OUT_SEED, 0x91f0_c3dc_5367_d782),
    (Workload::Fleet, DEFAULT_SEED, 0x7586_20bd_722c_9c29),
    (Workload::Fleet, HELD_OUT_SEED, 0x13e8_67ec_d7df_3eb1),
];

/// FNV-1a over the rows, newline-separated.
pub fn digest(rows: &[String]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for row in rows {
        for b in row.bytes().chain(std::iter::once(b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Checks the recorded digest of a round's rows, when the seed has one.
pub fn check_digest(w: Workload, seed: u64, rows: &[String]) -> Result<Option<u64>, String> {
    let n = round_len(w);
    if rows.len() != n {
        return Err(format!("{} rows for a {n}-row round", rows.len()));
    }
    let got = digest(rows);
    match RECORDED.iter().find(|(rw, rs, _)| *rw == w && *rs == seed) {
        Some(&(_, _, want)) if want != got => Err(format!(
            "{} seed {seed}: digest of the round's {n} rows is {got:016x}, recorded {want:016x}",
            w.name()
        )),
        Some(_) => Ok(Some(got)),
        None => Ok(None),
    }
}

/// Every response must be `ok`.
pub fn all_ok(rows: &[String]) -> Result<(), String> {
    match rows.iter().position(|r| !r.contains("\"ok\":true")) {
        Some(i) => Err(format!("request {i} failed: {}", rows[i])),
        None => Ok(()),
    }
}

fn prepare_named(name: &str) -> Result<Prepared, String> {
    let w = by_name(name, cdmm_workloads::Scale::Paper).ok_or(format!("no workload {name}"))?;
    prepare_cancellable(
        w.name,
        &w.source,
        PipelineConfig::default(),
        &CancelToken::new(),
    )
    .map_err(|e| e.to_string())
}

fn expect_eq(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}:\n  service: {got}\n  engine:  {want}"))
    }
}

/// Recomputes a sample of rows through a second engine:
///
/// - `cold` LRU rows from the one-pass [`LruCurve`];
/// - `warm` `"metrics":true` rows (per-reference driver) from the
///   run-level `Prepared::run_policy`, and sweep rows from per-point
///   `run_policy` results;
/// - `fleet` rows from the same spec run on two threads.
///
/// Returns how many rows were checked.
pub fn cross_engine(w: Workload, lines: &[String], rows: &[String]) -> Result<usize, String> {
    let mut checked = 0;
    let mut metrics_rows = 0;
    let mut sweeps = [false; 2];
    for (line, row) in lines.iter().zip(rows) {
        let req = parse_request(line)?;
        match (w, &req) {
            (Workload::Cold, Request::Sim(r)) if checked < 2 => {
                let (PolicySpec::Lru { frames }, WorkSource::Inline { name, source }) =
                    (r.policy, &r.work)
                else {
                    continue;
                };
                let p = prepare_cancellable(name, source, r.pipeline_config(), &CancelToken::new())
                    .map_err(|e| e.to_string())?;
                let m =
                    LruCurve::compute(p.plain_trace()).metrics_at(frames, p.config().fault_service);
                let want = encode_ok(&r.id, &p.policy_label(r.policy), &m);
                expect_eq("cold LRU row vs LruCurve", row, &want)?;
                checked += 1;
            }
            (Workload::Warm, Request::Sim(r)) if r.metrics && metrics_rows < 2 => {
                let WorkSource::Named(name) = &r.work else {
                    continue;
                };
                let p = prepare_named(name)?;
                let want = encode_ok(&r.id, &p.policy_label(r.policy), &p.run_policy(r.policy));
                let head = want.strip_suffix('}').expect("rows are objects");
                if !row.starts_with(&format!("{head},\"metrics\":{{")) {
                    expect_eq("metrics row vs run-level run_policy", row, &want)?;
                }
                metrics_rows += 1;
                checked += 1;
            }
            (Workload::Warm, Request::Sweep(r)) => {
                let slot = &mut sweeps[(r.family == SweepFamily::Ws) as usize];
                if *slot {
                    continue;
                }
                *slot = true;
                let WorkSource::Named(name) = &r.work else {
                    continue;
                };
                let p = prepare_named(name)?;
                let points: Vec<Point> = match r.family {
                    SweepFamily::Lru => full_lru_range(&p)
                        .map(|m| Point {
                            param: m as u64,
                            metrics: p.run_policy(PolicySpec::Lru { frames: m }),
                        })
                        .collect(),
                    SweepFamily::Ws => ws_tau_grid(&p, r.points.unwrap_or(6))
                        .into_iter()
                        .map(|tau| Point {
                            param: tau,
                            metrics: p.run_policy(PolicySpec::Ws { tau }),
                        })
                        .collect(),
                };
                let want = encode_sweep_ok(&r.id, r.family, &points);
                expect_eq("sweep row vs per-point run_policy", row, &want)?;
                checked += 1;
            }
            (Workload::Fleet, Request::Fleet(r)) if checked < 1 => {
                let mut spec = r.fleet_spec();
                spec.threads = 2;
                let report = run_fleet_spec(&spec).map_err(|e| e.to_string())?;
                expect_eq(
                    "fleet row vs 2-thread run",
                    row,
                    &encode_fleet_ok(&r.id, &report),
                )?;
                checked += 1;
            }
            _ => {}
        }
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_rows() {
        let a = digest(&["ab".into(), "c".into()]);
        let b = digest(&["a".into(), "bc".into()]);
        assert_ne!(a, b);
        assert_eq!(a, digest(&["ab".into(), "c".into()]));
    }
}
