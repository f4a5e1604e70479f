//! `perfbench`: the end-to-end and per-layer benchmark of the
//! `cdmm-serve` request path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold|warm|fleet|all --seed N --seconds S --trace 0|1
//! ```
//!
//! One process drives an in-process [`BatchService`] configured like the
//! README's daemon (persistent cache directory, fresh per service; 5000
//! ms default deadline; queue depth 32; one worker thread per CPU) with a
//! closed loop: one client, one request per batch, the next request sent
//! when the previous response arrives.
//!
//! A workload's stream is a fixed list of request lines, and a run plays
//! it in rounds: each round starts a fresh service (the round's set-up)
//! and sends every line once, so every round does the same work, cold
//! requests included. Rounds go on while the next one still fits in the
//! time budget. Identical rounds let a run report medians over work that
//! does not change with the seed or with how far a faster build gets:
//! latency percentiles over every round trip of the run, throughput from
//! the median round. Every round must answer byte for byte what the
//! first did.
//!
//! With `--trace 0` it measures the end-to-end metrics and prints the
//! composition of a round (count and loop time per request class). With
//! `--trace 1` it plays untraced rounds over a quarter of the time, then
//! one more round in which each request is followed by a replay of the
//! service's calls through the layers' public functions inside spans
//! (see `replay.rs`); it reports per-layer self times, an Amdahl table
//! and the tracing overhead; the spans themselves go to
//! `perfbench/.run/spans-<workload>-<seed>.jsonl` when the run ends.
//! Either way every answer is checked, and the last stdout line is one
//! JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//! `--workload all` runs every workload, untraced then traced, each in
//! its own process.

mod check;
mod replay;
mod span;
mod stream;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use cdmm_serve::{BatchService, ServeConfig};

use crate::replay::{Mirror, PREPARE, PREPARE_PARTS, ROOT};
use crate::span::{self_times, Recorder};
use crate::stream::{Stream, Workload};

const USAGE: &str =
    "usage: perfbench [--workload cold|warm|fleet|all] [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups timed between two requests of the timed loop, on top of the
/// one that starts each round; `setup_s` is the median of them all. On a
/// shared virtual machine the host's speed can shift by half for seconds
/// at a time, so they are spread over the loop (see [`play_rounds`])
/// rather than run back to back, and sample the same mix of host states
/// as the loop itself: one every 0.3 s on `cold` and `fleet`, whose
/// set-up takes milliseconds. A warm set-up prepares nine paper programs
/// (about a second), and its rounds alone time enough of them.
fn extra_setups(w: Workload) -> usize {
    match w {
        Workload::Warm => 0,
        Workload::Cold | Workload::Fleet => 100,
    }
}

/// Layers, in pipeline order.
const LAYERS: [&str; 7] = [
    "serve",
    "workloads",
    "lang",
    "locality",
    "trace",
    "core",
    "vmsim",
];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: check::DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workload = None,
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Where runs keep their cache directories and span files.
fn run_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".run")
}

/// Removes a run directory when the run ends, however it ends.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One metric as printed: value, unit, and how many samples it rests on.
struct Metric {
    value: f64,
    unit: &'static str,
    samples: usize,
}

type Metrics = BTreeMap<String, Metric>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str, samples: usize) {
    m.insert(
        name.to_string(),
        Metric {
            value,
            unit,
            samples,
        },
    );
}

/// What a run prints as its last line.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

impl Outcome {
    fn json(&self) -> String {
        let mut body = String::new();
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                r#"{sep}"{name}": {{"value": {}, "unit": "{}"}}"#,
                m.value, m.unit
            );
        }
        format!(
            r#"{{"correct": true, "attempted": {}, "failed": {}, "metrics": {{{body}}}}}"#,
            self.attempted, self.failed
        )
    }
}

/// A started service with the lines a round sends, plus how long
/// starting took.
struct Setup {
    service: BatchService,
    lines: Vec<String>,
    seconds: f64,
}

/// Starts a service like the README daemon, generates the stream, and
/// (on `warm`) prepares the nine paper programs through the service.
fn setup(w: Workload, seed: u64, dir: &Path) -> Result<Setup, String> {
    let t0 = Instant::now();
    let service = BatchService::new(ServeConfig {
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        queue_depth: 32,
        default_deadline_ms: Some(replay::DEADLINE_MS),
        cache_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start the service: {e}"))?;
    let mut stream = Stream::new(w, seed);
    let lines = (0..stream::round_len(w))
        .map(|i| stream.line(i).to_string())
        .collect();
    for line in stream.setup_lines() {
        let out = service.handle_batch(&[&line]);
        check::all_ok(&out).map_err(|e| format!("set-up: {e}"))?;
    }
    Ok(Setup {
        service,
        lines,
        seconds: t0.elapsed().as_secs_f64(),
    })
}

/// Times further set-ups of the run's workload and seed, each in a
/// service of its own that is dropped at once.
struct SetupSampler {
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    want: usize,
    budget: Duration,
    secs: Vec<f64>,
}

impl SetupSampler {
    /// Times one set-up if the loop, `done` into its budget, has reached
    /// the next of `want` even steps; says whether it did. At most one
    /// per gap between two requests: a set-up right after another runs
    /// faster than one after a request, so bursts would shift the figure
    /// with the loop's speed.
    fn maybe_sample(&mut self, done: Duration) -> Result<bool, String> {
        let k = self.secs.len();
        if k >= self.want || done < self.budget / self.want as u32 * k as u32 {
            return Ok(false);
        }
        let sub = self.dir.join(format!("setup-{k}"));
        let s = setup(self.workload, self.seed, &sub)?;
        self.secs.push(s.seconds);
        drop(s);
        let _ = std::fs::remove_dir_all(&sub);
        Ok(true)
    }
}

/// One round: a fresh set-up, then every line of the stream once.
struct Round {
    /// How long the round's set-up took, in seconds.
    setup_s: f64,
    /// Per-request `handle_batch` round trips (ns), in stream order.
    lat: Vec<u64>,
    rows: Vec<String>,
    /// The loop's wall time, set-ups sampled within it excluded.
    wall: Duration,
    /// Process high-water RSS once the round's last answer arrived, MB.
    rss_mb: f64,
}

/// Plays rounds while one more, as long as the last, still fits in
/// `budget` of loop time (at least one). Each round's service is dropped
/// before the next starts, so one round's programs and cache never show
/// in another's memory. With a `sampler`, the loop pauses its clock
/// between two requests to time a set-up at even steps of the budget.
fn play_rounds(
    w: Workload,
    seed: u64,
    dir: &Path,
    budget: Duration,
    mut sampler: Option<&mut SetupSampler>,
) -> Result<Vec<Round>, String> {
    let mut rounds: Vec<Round> = Vec::new();
    let mut spent = Duration::ZERO;
    while rounds.last().is_none_or(|r| spent + r.wall <= budget) {
        let sub = dir.join(format!("round-{}", rounds.len()));
        let s = setup(w, seed, &sub)?;
        let mut lat = Vec::with_capacity(s.lines.len());
        let mut rows = Vec::with_capacity(s.lines.len());
        let mut paused = Duration::ZERO;
        let start = Instant::now();
        for line in &s.lines {
            let t0 = Instant::now();
            let out = s.service.handle_batch(&[line]);
            lat.push(t0.elapsed().as_nanos() as u64);
            rows.extend(out);
            if let Some(sm) = sampler.as_deref_mut() {
                let p0 = Instant::now();
                if sm.maybe_sample(spent + (p0 - start) - paused)? {
                    paused += p0.elapsed();
                }
            }
        }
        let wall = start.elapsed() - paused;
        let rss_mb = peak_rss_mb()?;
        let setup_s = s.seconds;
        drop(s);
        let _ = std::fs::remove_dir_all(&sub);
        spent += wall;
        rounds.push(Round {
            setup_s,
            lat,
            rows,
            wall,
            rss_mb,
        });
    }
    Ok(rounds)
}

/// Every round must answer what the first did, byte for byte: the same
/// lines on a fresh service give the same rows.
fn rounds_agree(rounds: &[Round]) -> Result<(), String> {
    let first = &rounds[0].rows;
    for (k, r) in rounds.iter().enumerate().skip(1) {
        if let Some(i) = (0..first.len().max(r.rows.len())).find(|&i| first.get(i) != r.rows.get(i))
        {
            return Err(format!(
                "round {k} answered request {i} differently from round 0:\n  round 0: {:?}\n  round {k}: {:?}",
                first.get(i),
                r.rows.get(i)
            ));
        }
    }
    Ok(())
}

/// Runs every output check on `rows`, the responses to `lines`, the
/// stream of one round.
fn check_outputs(
    w: Workload,
    seed: u64,
    lines: &[String],
    rows: &[String],
) -> Result<String, String> {
    check::all_ok(rows)?;
    let digest = check::check_digest(w, seed, rows)?;
    let checked = check::cross_engine(w, lines, rows)?;
    let n = rows.len();
    Ok(match digest {
        Some(d) => format!("all ok; digest {d:016x} of {n} rows matches; {checked} rows re-derived"),
        None => format!(
            "all ok; digest {:016x} of {n} rows (none recorded for this seed); {checked} rows re-derived",
            check::digest(rows)
        ),
    })
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Process high-water resident set, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The `refs` field of a response row.
fn row_refs(row: &str) -> u64 {
    row.split("\"refs\":")
        .nth(1)
        .and_then(|r| r.split([',', '}']).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Request count and summed latency (ns) per request class over one
/// round: the job or policy kind, with `"metrics":true` requests and
/// repeats of an earlier request body counted apart.
fn composition(lines: &[String], lat: &[u64]) -> BTreeMap<String, (usize, u64)> {
    let mut seen = std::collections::HashSet::new();
    let mut out: BTreeMap<String, (usize, u64)> = BTreeMap::new();
    for (line, &ns) in lines.iter().zip(lat) {
        let field = |key: &str| {
            line.split(&format!(r#""{key}":""#))
                .nth(1)
                .and_then(|r| r.split('"').next())
        };
        let body = &line[line.find(',').map_or(0, |c| c + 1)..];
        let class = match (field("job"), field("policy")) {
            (Some("sweep"), _) => format!("sweep {}", field("family").unwrap_or("?")),
            (Some(job), _) => job.to_string(),
            (None, policy) => {
                let policy = policy.unwrap_or("?");
                if line.contains(r#""metrics":true"#) {
                    format!("metrics {policy}")
                } else if !seen.insert(body.to_string()) {
                    format!("repeat {policy}")
                } else {
                    policy.to_string()
                }
            }
        };
        let e = out.entry(class).or_default();
        e.0 += 1;
        e.1 += ns;
    }
    out
}

/// Each request's mean round trip (ns) over the rounds, in stream order.
fn mean_latencies(rounds: &[Round]) -> Vec<u64> {
    (0..rounds[0].lat.len())
        .map(|i| rounds.iter().map(|r| r.lat[i]).sum::<u64>() / rounds.len() as u64)
        .collect()
}

/// The end-to-end metrics of an untraced run, from its rounds and every
/// set-up it timed. Latency percentiles are over every round trip of the
/// run; `jobs_per_s` and `refs_per_s` divide one round's ok rows and
/// their simulated references by the median round's wall time, which a
/// few seconds of a slower host (a round is a few seconds) do not move.
fn e2e_metrics(rounds: &[Round], setup_secs: Vec<f64>) -> Metrics {
    let mut all: Vec<u64> = rounds.iter().flat_map(|r| r.lat.iter().copied()).collect();
    all.sort_unstable();
    let sent = all.len();
    let round_s = median(rounds.iter().map(|r| r.wall.as_secs_f64()).collect());
    let ok_rows: Vec<&String> = rounds[0]
        .rows
        .iter()
        .filter(|r| r.contains("\"ok\":true"))
        .collect();
    let refs: u64 = ok_rows.iter().map(|r| row_refs(r)).sum();
    let mut m = Metrics::new();
    put(
        &mut m,
        "jobs_per_s",
        ok_rows.len() as f64 / round_s,
        "1/s",
        sent,
    );
    put(
        &mut m,
        "latency_p50_ms",
        percentile(&all, 0.5) as f64 / 1e6,
        "ms",
        sent,
    );
    put(
        &mut m,
        "latency_p90_ms",
        percentile(&all, 0.9) as f64 / 1e6,
        "ms",
        sent,
    );
    put(&mut m, "refs_per_s", refs as f64 / round_s, "1/s", sent);
    put(&mut m, "peak_rss_mb", rounds[0].rss_mb, "MB", 1);
    let repeats = setup_secs.len();
    put(&mut m, "setup_s", median(setup_secs), "s", repeats);
    m
}

fn untraced(args: &Args, w: Workload, dir: &Path) -> Result<Outcome, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut sampler = SetupSampler {
        workload: w,
        seed: args.seed,
        dir: dir.to_path_buf(),
        want: extra_setups(w),
        budget,
        secs: Vec::new(),
    };
    let rounds = play_rounds(w, args.seed, dir, budget, Some(&mut sampler))?;
    let lines = stream::round(w, args.seed);
    let verdict = check_outputs(w, args.seed, &lines, &rounds[0].rows)?;
    rounds_agree(&rounds)?;

    let n = lines.len();
    let sent = n * rounds.len();
    let failed: usize = rounds
        .iter()
        .map(|r| r.rows.iter().filter(|x| !x.contains("\"ok\":true")).count())
        .sum();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall.as_secs_f64()).collect();
    let loop_s: f64 = walls.iter().sum();
    let mean = mean_latencies(&rounds);
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    setups.extend(sampler.secs);
    let m = e2e_metrics(&rounds, setups);

    println!(
        "perfbench {} seed {}: {} rounds of {n} requests, {sent} sent in {loop_s:.3} s of loop time, {failed} failed (failed_ratio {} over {sent} requests)",
        w.name(),
        args.seed,
        rounds.len(),
        failed as f64 / sent as f64
    );
    println!(
        "  round loop times (s): {}",
        walls
            .iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (name, metric) in &m {
        println!(
            "  {name:<16} {:>14.4} {:<4} n={}",
            metric.value, metric.unit, metric.samples
        );
    }
    let beyond = sent - ((0.9 * sent as f64).ceil() as usize).clamp(1, sent);
    println!(
        "  latency percentiles are over all {sent} round trips; {beyond} lie above latency_p90_ms{}",
        if beyond < 10 {
            " (fewer than 10: under 100 round trips)"
        } else {
            ""
        }
    );
    println!(
        "  composition of a round (requests, share of requests, share of loop time, mean latency):"
    );
    let total: u64 = mean.iter().sum();
    for (class, (k, t)) in &composition(&lines, &mean) {
        println!(
            "    {class:<18} {k:>6} {:>6.1}% {:>6.1}% {:>10.3} ms",
            100.0 * *k as f64 / n as f64,
            100.0 * *t as f64 / total as f64,
            *t as f64 / *k as f64 / 1e6
        );
    }
    println!(
        "  checks: {verdict}; all {} rounds answered alike",
        rounds.len()
    );
    Ok(Outcome {
        attempted: sent,
        failed,
        metrics: m,
    })
}

/// Share ranges this benchmark was designed from, checked against the
/// traced run: (workload, what, share of request time lo..hi, claim).
const ESTIMATES: &[(Workload, &str, f64, f64, &str)] = &[
    (
        Workload::Cold,
        "trace",
        0.85,
        1.0,
        "the two interpreter passes are ~98% of prepare",
    ),
    (
        Workload::Cold,
        "lang+locality",
        0.0,
        0.01,
        "lexing through instrumentation ~0.2% of prepare",
    ),
    (
        Workload::Cold,
        "vmsim",
        0.0,
        0.05,
        "one CD/LRU/WS simulation ~1-2% of a cold request",
    ),
    (
        Workload::Warm,
        "trace",
        0.0,
        0.001,
        "prepare is bypassed on warm",
    ),
    (
        Workload::Warm,
        "core.cache_flush",
        0.2,
        0.7,
        "the flush after a miss about doubles the median request",
    ),
    (
        Workload::Fleet,
        "core.fleet_prepare",
        0.0,
        0.45,
        "per-job prepare ~45% of a 2000-tenant job, less at more tenants",
    ),
];

fn traced(args: &Args, w: Workload, dir: &Path) -> Result<Outcome, String> {
    // Pass A: untraced rounds over a quarter of the time, the baseline
    // for the tracing overhead.
    let base = play_rounds(
        w,
        args.seed,
        &dir.join("a"),
        Duration::from_secs_f64(args.seconds / 4.0),
        None,
    )?;
    rounds_agree(&base)?;
    let base_lat: Vec<u64> = base.iter().flat_map(|r| r.lat.iter().copied()).collect();
    drop(base);

    // Pass B: one more round, each request followed by its traced replay.
    let b = setup(w, args.seed, &dir.join("b"))?;
    let stream = Stream::new(w, args.seed);
    let mut mirror = Mirror::new(&dir.join("mirror"))?;
    let mut discard = Recorder::new();
    for line in stream.setup_lines() {
        mirror.replay(&mut discard, usize::MAX, &line)?;
    }
    mirror.reset_counts();
    let mut rec = Recorder::new();
    let n = b.lines.len();
    let mut hb = Vec::with_capacity(n);
    let mut rows = Vec::with_capacity(n);
    let retries0 = b.service.stats().retries;
    for (i, line) in b.lines.iter().enumerate() {
        let t0 = Instant::now();
        let row = b.service.handle_batch(&[line]).remove(0);
        hb.push(t0.elapsed().as_nanos() as u64);
        let replayed = mirror.replay(&mut rec, i, line)?;
        if replayed != row {
            return Err(format!(
                "replay of request {i} diverged from the service:\n  service: {row}\n  replay:  {replayed}"
            ));
        }
        rows.push(row);
    }
    let retries = b.service.stats().retries - retries0;
    let failed = rows.iter().filter(|r| !r.contains("\"ok\":true")).count();
    let verdict = check_outputs(w, args.seed, &b.lines, &rows)?;

    let spans_path = run_root().join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
    std::fs::write(&spans_path, rec.to_jsonl()).map_err(|e| e.to_string())?;

    let m = layer_metrics(&rec, &hb, &base_lat, &mirror, retries);
    print_amdahl(w, args.seed, &m, n, &spans_path, &verdict);
    Ok(Outcome {
        attempted: n,
        failed,
        metrics: m,
    })
}

/// Per-layer metrics from the spans of the traced pass. `hb` holds the
/// traced pass's `handle_batch` times, `base` the untraced pass's.
fn layer_metrics(
    rec: &Recorder,
    hb: &[u64],
    base: &[u64],
    mirror: &Mirror,
    retries: u64,
) -> Metrics {
    let spans = rec.spans();
    let selfs = self_times(spans);
    let n = hb.len();
    let total: u64 = hb.iter().sum();
    let mut by_name: BTreeMap<&str, (u64, BTreeSet<usize>)> = BTreeMap::new();
    let mut by_layer: BTreeMap<&str, u64> = LAYERS.iter().map(|l| (*l, 0)).collect();
    let mut per_request = vec![0u64; n];
    for (s, &own) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += own;
        e.1.insert(s.request);
        if s.name != ROOT && s.name != PREPARE {
            *by_layer
                .get_mut(s.layer())
                .expect("spans are named after a layer") += own;
            per_request[s.request] += own;
        }
    }
    let mut m = Metrics::new();
    let mean_ms = |name: &str| {
        by_name.get(name).map_or((0.0, 0), |(t, reqs)| {
            (*t as f64 / reqs.len() as f64 / 1e6, reqs.len())
        })
    };
    for name in [
        "serve.parse",
        "serve.encode",
        "workloads.by_name",
        "lang.parse",
        "lang.sema",
        "lang.to_source",
        "locality.analyze",
        "locality.instrument",
        "trace.interp_plain",
        "trace.interp_cd",
        "core.align",
        "core.fingerprint",
        "core.prepare",
        "core.policy_label",
        "core.cache_lookup",
        "core.cache_insert",
        "core.cache_flush",
        "core.sweep_points",
        "core.fleet_prepare",
        "vmsim.sim_run_level",
        "vmsim.sim_per_ref",
        "vmsim.report",
        "vmsim.lru_curve",
        "vmsim.ws_curve",
        "vmsim.fleet_run",
    ] {
        let (v, k) = mean_ms(name);
        put(&mut m, &format!("{name}_ms"), v, "ms", k);
    }
    for (layer, t) in &by_layer {
        put(
            &mut m,
            &format!("{layer}.share"),
            *t as f64 / total.max(1) as f64,
            "ratio",
            n,
        );
    }
    let unattributed: i64 = hb
        .iter()
        .zip(&per_request)
        .map(|(&h, &a)| h as i64 - a as i64)
        .sum();
    put(
        &mut m,
        "serve.unattributed_ms",
        unattributed as f64 / n as f64 / 1e6,
        "ms",
        n,
    );
    put(
        &mut m,
        "serve.request_ms",
        total as f64 / n as f64 / 1e6,
        "ms",
        n,
    );
    let base_mean = base.iter().sum::<u64>() as f64 / base.len() as f64;
    put(
        &mut m,
        "serve.trace_overhead_ms",
        (total as f64 / n as f64 - base_mean) / 1e6,
        "ms",
        n,
    );
    put(&mut m, "serve.retries", retries as f64, "count", n);

    let time_of = |names: &[&str]| -> u64 {
        names
            .iter()
            .filter_map(|x| by_name.get(x))
            .map(|(t, _)| *t)
            .sum()
    };
    let c = &mirror.counts;
    let per = |x: u64, k: u64| if k == 0 { 0.0 } else { x as f64 / k as f64 };
    let rate = |x: u64, ns: u64| {
        if ns == 0 {
            0.0
        } else {
            x as f64 / (ns as f64 / 1e9)
        }
    };
    let k = c.prepares as usize;
    put(
        &mut m,
        "trace.refs",
        per(c.plain_refs, c.prepares),
        "count",
        k,
    );
    put(&mut m, "trace.ops", per(c.ops, c.prepares), "count", k);
    put(
        &mut m,
        "trace.refs_per_op",
        per(c.interp_refs, c.ops),
        "ratio",
        k,
    );
    put(
        &mut m,
        "trace.directives",
        per(c.directives, c.prepares),
        "count",
        k,
    );
    let interp = time_of(&["trace.interp_plain", "trace.interp_cd"]);
    put(
        &mut m,
        "trace.interp_refs_per_s",
        rate(c.interp_refs, interp),
        "1/s",
        k,
    );
    let prepare = time_of(&[PREPARE]);
    put(
        &mut m,
        "core.prepare_coverage",
        per(time_of(&PREPARE_PARTS), prepare),
        "ratio",
        k,
    );
    let (hits, lookups) = mirror.cache_hits();
    put(
        &mut m,
        "core.cache_hit_ratio",
        per(hits, lookups),
        "ratio",
        lookups as usize,
    );
    put(
        &mut m,
        "core.cache_flush_bytes",
        per(c.flush_bytes, c.flushes),
        "bytes",
        c.flushes as usize,
    );
    let sim = time_of(&["vmsim.sim_run_level", "vmsim.sim_per_ref", "vmsim.report"]);
    put(
        &mut m,
        "vmsim.refs_per_s",
        rate(c.sim_refs, sim),
        "1/s",
        c.sim_points as usize,
    );
    put(
        &mut m,
        "vmsim.faults",
        per(c.sim_faults, c.sim_points),
        "count",
        c.sim_points as usize,
    );
    let fleet = time_of(&["vmsim.fleet_run"]);
    let jobs = c.fleet_jobs as usize;
    put(
        &mut m,
        "vmsim.fleet_tenants_per_s",
        rate(c.fleet_tenants, fleet),
        "1/s",
        jobs,
    );
    put(
        &mut m,
        "vmsim.fleet_swaps",
        per(c.fleet_swaps, c.fleet_jobs),
        "count",
        jobs,
    );
    m
}

fn print_amdahl(w: Workload, seed: u64, m: &Metrics, n: usize, spans: &Path, verdict: &str) {
    let request_ms = m["serve.request_ms"].value;
    println!(
        "perfbench {} seed {seed}, traced: {n} requests, mean handle_batch {request_ms:.4} ms",
        w.name()
    );
    println!("  {:<24} {:>12} {:>8}", "layer", "self ms/req", "share");
    for layer in LAYERS {
        let share = m[&format!("{layer}.share")].value;
        println!(
            "  {layer:<24} {:>12.4} {:>7.2}%",
            share * request_ms,
            share * 100.0
        );
    }
    let un = m["serve.unattributed_ms"].value;
    println!(
        "  {:<24} {un:>12.4} {:>7.2}%",
        "serve.unattributed",
        un / request_ms * 100.0
    );
    println!(
        "  tracing overhead: {:.4} ms per request (traced minus untraced handle_batch)",
        m["serve.trace_overhead_ms"].value
    );
    for &(_, what, lo, hi, claim) in ESTIMATES.iter().filter(|e| e.0 == w) {
        let share = match what {
            "lang+locality" => m["lang.share"].value + m["locality.share"].value,
            layer if LAYERS.contains(&layer) => m[&format!("{layer}.share")].value,
            call => {
                let per_request = &m[&format!("{call}_ms")];
                per_request.value * per_request.samples as f64 / (request_ms * n as f64)
            }
        };
        let verdict = if (lo..=hi).contains(&share) {
            "agrees"
        } else {
            "CONTRADICTS the estimate; the measured share stands"
        };
        println!(
            "  estimate {what}: {:.2}% of request time, expected {:.1}-{:.1}% ({claim}): {verdict}",
            share * 100.0,
            lo * 100.0,
            hi * 100.0
        );
    }
    for (name, metric) in m {
        println!(
            "  {name:<28} {:>16.6} {:<6} n={}",
            metric.value, metric.unit, metric.samples
        );
    }
    println!("  spans: {}", spans.display());
    println!("  checks: {verdict}");
}

/// Runs every workload, untraced then traced, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status();
            ok &= matches!(status, Ok(s) if s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return run_all(&args);
    };
    let dir = run_root().join(format!("{}-{}", w.name(), std::process::id()));
    let _guard = DirGuard(dir.clone());
    let result = if args.trace {
        traced(&args, w, &dir)
    } else {
        untraced(&args, w, &dir)
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench {}: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 0.5), 50);
        assert_eq!(percentile(&xs, 0.9), 90);
        assert_eq!(percentile(&[7], 0.9), 7);
    }

    /// The metric names listed in one section of BENCHMARK.json.
    fn listed(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("names are strings")].to_string())
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn metric_names_are_valid_and_match_benchmark_json() {
        let round = Round {
            setup_s: 0.5,
            lat: vec![3, 1, 2],
            rows: vec![r#"{"ok":true,"refs":10}"#.to_string(); 3],
            wall: Duration::from_secs(1),
            rss_mb: 10.0,
        };
        let e2e = e2e_metrics(&[round], vec![0.5]);
        let mut want = listed("end_to_end");
        want.sort();
        assert_eq!(e2e.keys().cloned().collect::<Vec<_>>(), want);

        let dir = run_root().join(format!("test-names-{}", std::process::id()));
        let _guard = DirGuard(dir.clone());
        let mirror = Mirror::new(&dir).expect("mirror cache");
        let layer = layer_metrics(&Recorder::new(), &[5], &[4], &mirror, 0);
        let mut want = listed("per_layer");
        want.sort();
        assert_eq!(layer.keys().cloned().collect::<Vec<_>>(), want);

        for name in e2e.keys().chain(layer.keys()) {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn refs_field_is_read_from_every_row_kind() {
        assert_eq!(
            row_refs(r#"{"v":1,"id":"a","ok":true,"policy":"LRU(8)","refs":123,"pf":4}"#),
            123
        );
        assert_eq!(
            row_refs(r#"{"v":1,"id":"b","ok":true,"job":"sweep","points":3,"refs":77}"#),
            77
        );
    }
}
