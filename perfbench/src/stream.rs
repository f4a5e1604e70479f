//! Seeded request-stream generators, one per workload.
//!
//! A stream is a deterministic function of its seed: the generators use
//! a SplitMix64 sequence and nothing else, so one seed always yields the
//! byte-identical request lines. The service under test only ever sees
//! those lines.

use std::collections::HashSet;

use cdmm_workloads::{all, Scale};

/// The benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Never-seen inline program variants: every request prepares.
    Cold,
    /// Already-prepared paper programs: simulation, report path,
    /// sweep curves and the result cache.
    Warm,
    /// Multi-tenant fleet jobs: the fleet scheduler.
    Fleet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Cold, Workload::Warm, Workload::Fleet];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold",
            Workload::Warm => "warm",
            Workload::Fleet => "fleet",
        }
    }
}

/// Lines one round sends: the whole stream a run replays, sized so a
/// round takes a few seconds and a run holds several.
///
/// - `cold`: each of the nine programs once under each of CD, LRU and WS;
/// - `warm`: [`WARM_LINES`];
/// - `fleet`: every combination of the job parameters' cycles (mix of 4,
///   frames of 3 per 4 jobs, cell of 2 per 12 jobs, admission of 3).
pub fn round_len(w: Workload) -> usize {
    match w {
        Workload::Cold => 27,
        Workload::Warm => WARM_LINES,
        Workload::Fleet => 24,
    }
}

/// The lines one round of `w` sends for `seed`, in order.
pub fn round(w: Workload, seed: u64) -> Vec<String> {
    let mut s = Stream::new(w, seed);
    (0..round_len(w)).map(|i| s.line(i).to_string()).collect()
}

/// SplitMix64: a tiny, dependency-free, fully deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream-specific `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}

/// Escapes text for a JSON string value.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A lazily extended request stream.
pub struct Stream {
    gen: Gen,
    lines: Vec<String>,
}

enum Gen {
    Cold(ColdGen),
    Warm(WarmGen),
    Fleet(FleetGen),
}

impl Stream {
    /// The stream of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let gen = match workload {
            Workload::Cold => Gen::Cold(ColdGen::new(seed)),
            Workload::Warm => Gen::Warm(WarmGen::new(seed)),
            Workload::Fleet => Gen::Fleet(FleetGen::new(seed)),
        };
        Stream {
            gen,
            lines: Vec::new(),
        }
    }

    /// Request line `i`, generating up to it as needed.
    pub fn line(&mut self, i: usize) -> &str {
        while self.lines.len() <= i {
            let n = self.lines.len();
            let line = match &mut self.gen {
                Gen::Cold(g) => g.line(n),
                Gen::Warm(g) => g.line(n),
                Gen::Fleet(g) => g.line(n),
            };
            self.lines.push(line);
        }
        &self.lines[i]
    }

    /// The requests that must run before the stream starts: the warm
    /// workload prepares the nine paper programs; the others need none.
    pub fn setup_lines(&self) -> Vec<String> {
        match &self.gen {
            Gen::Warm(g) => g
                .programs
                .iter()
                .enumerate()
                .map(|(k, w)| {
                    format!(
                        r#"{{"id":"warm-setup-{k}","workload":"{w}","scale":"paper","policy":"cd"}}"#
                    )
                })
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// How far, in units, a cold variant moves each `PARAMETER` value. A
/// round needs only three variants of a program, one per policy, and
/// FDJAC, with its single parameter, has four at two units. Small moves
/// keep every variant within a few percent of its paper program's work,
/// so a round costs about the same whatever the seed: at a quarter of
/// each value (the largest move that keeps all nine programs valid) a
/// cubic program's variants range from 0.4 to 2 times its work, and the
/// peak RSS of five seeds' runs spread by 18% (7% at two units).
const COLD_STEPS: i64 = 2;

/// One paper program split around its `PARAMETER` statement, with a
/// seeded order over its perturbed parameter vectors.
struct ColdProgram {
    name: &'static str,
    paper: String,
    head: String,
    tail: String,
    params: Vec<(String, i64)>,
    /// Per-parameter deltas in seeded order, grouped in sign orbits;
    /// consumed front to back.
    deltas: Vec<Vec<i64>>,
    next: usize,
}

impl ColdProgram {
    fn new(name: &'static str, paper: String, rng: &mut Rng) -> ColdProgram {
        let start = paper
            .find("PARAMETER (")
            .unwrap_or_else(|| panic!("{name}: no PARAMETER statement"));
        let open = start + "PARAMETER (".len();
        let close = open + paper[open..].find(')').expect("PARAMETER list closes");
        let params: Vec<(String, i64)> = paper[open..close]
            .split(',')
            .map(|kv| {
                let (k, v) = kv
                    .split_once('=')
                    .expect("PARAMETER entries are NAME = value");
                (
                    k.trim().to_string(),
                    v.trim().parse().expect("PARAMETER values are integers"),
                )
            })
            .collect();
        // Up to COLD_STEPS units (and at most a quarter of the value)
        // either way, every combination but the paper's own, grouped
        // into orbits under sign flips: one non-negative vector stands
        // for all its sign variants, which are emitted together, mirror
        // images adjacent, so a round's programs are as much larger as
        // they are smaller than the paper's. Orbits are ranked by
        // relative size and visited in bit-reversed rank order from a
        // seeded start, so any prefix of the stream spreads evenly from
        // small to large perturbations: the seed picks the variants, not
        // how much work they add up to.
        let mut canon: Vec<Vec<i64>> = vec![Vec::new()];
        for (_, v) in &params {
            canon = canon
                .into_iter()
                .flat_map(|d| {
                    (0..=(v / 4).min(COLD_STEPS)).map(move |x| {
                        let mut d = d.clone();
                        d.push(x);
                        d
                    })
                })
                .collect();
        }
        canon.retain(|d| d.iter().any(|&x| x != 0));
        for i in (1..canon.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            canon.swap(i, j);
        }
        let size = |d: &Vec<i64>| -> f64 {
            d.iter()
                .zip(&params)
                .map(|(x, (_, v))| (*x as f64 / *v as f64).powi(2))
                .sum()
        };
        canon.sort_by(|a, b| size(a).total_cmp(&size(b)));
        let deltas = spread(canon.len(), rng)
            .into_iter()
            .flat_map(|r| sign_orbit(&canon[r]))
            .collect();
        ColdProgram {
            name,
            head: paper[..start].to_string(),
            tail: paper[close + 1..].to_string(),
            paper,
            params,
            deltas,
            next: 0,
        }
    }

    fn source(&self, delta: &[i64]) -> String {
        let list: Vec<String> = self
            .params
            .iter()
            .zip(delta)
            .map(|((k, v), d)| format!("{k} = {}", v + d))
            .collect();
        format!("{}PARAMETER ({}){}", self.head, list.join(", "), self.tail)
    }
}

/// `0..n` (`n >= 2`) in bit-reversed order from a seeded start: any
/// prefix spreads evenly over the range, so a prefix of a sorted list
/// holds as many high entries as low ones.
fn spread(n: usize, rng: &mut Rng) -> Vec<usize> {
    let bits = usize::BITS - n.next_power_of_two().leading_zeros() - 1;
    let offset = rng.below(1 << bits) as usize;
    (0..1usize << bits)
        .map(|j| ((j + offset) % (1 << bits)).reverse_bits() >> (usize::BITS - bits))
        .filter(|&r| r < n)
        .collect()
}

/// Every sign variant of `d` (flipping any of its nonzero entries), each
/// mask followed by its complement so mirror images sit side by side.
fn sign_orbit(d: &[i64]) -> Vec<Vec<i64>> {
    let nonzero: Vec<usize> = (0..d.len()).filter(|&k| d[k] != 0).collect();
    let full = (1usize << nonzero.len()) - 1;
    let flip = |mask: usize| -> Vec<i64> {
        let mut v = d.to_vec();
        for (bit, &k) in nonzero.iter().enumerate() {
            if mask >> bit & 1 == 1 {
                v[k] = -v[k];
            }
        }
        v
    };
    (0..=full / 2)
        .flat_map(|m| [flip(m), flip(full ^ m)])
        .collect()
}

/// `cold`: every request names a never-seen variant of a paper program.
struct ColdGen {
    seed: u64,
    rng: Rng,
    programs: Vec<ColdProgram>,
    emitted: HashSet<String>,
}

impl ColdGen {
    fn new(seed: u64) -> ColdGen {
        let mut rng = Rng::new(seed, 1);
        let programs = all(Scale::Paper)
            .into_iter()
            .map(|w| ColdProgram::new(w.name, w.source, &mut rng))
            .collect();
        ColdGen {
            seed,
            rng,
            programs,
            emitted: HashSet::new(),
        }
    }

    /// The next variant of program `k` that is neither a paper source
    /// nor already emitted; `None` once the program has none left.
    fn variant(&mut self, k: usize) -> Option<String> {
        let p = &mut self.programs[k];
        while p.next < p.deltas.len() {
            let src = p.source(&p.deltas[p.next]);
            p.next += 1;
            if src != p.paper && self.emitted.insert(src.clone()) {
                return Some(src);
            }
        }
        None
    }

    fn line(&mut self, i: usize) -> String {
        let n = self.programs.len();
        // Programs rotate so every run sees the same mix; each program
        // cycles through CD, LRU and WS.
        let (k, source) = (0..n)
            .map(|off| (i + off) % n)
            .find_map(|k| self.variant(k).map(|s| (k, s)))
            .expect("cold stream exhausted every program variant");
        let policy = match (i / n) % 3 {
            0 => r#""policy":"cd""#.to_string(),
            1 => format!(r#""policy":"lru","frames":{}"#, self.rng.range(8, 64)),
            _ => format!(r#""policy":"ws","tau":{}"#, self.rng.range(500, 8000)),
        };
        format!(
            r#"{{"id":"cold-{}-{i}","name":"{}","source":"{}",{policy}}}"#,
            self.seed,
            self.programs[k].name,
            json_escape(&source),
        )
    }
}

// The warm shares below are chosen, not measured: the repository has no
// record of real traffic. An untraced run prints the composition of a
// round (requests and loop time per class).

/// Lines in the warm stream, which every round replays whole: 32 blocks
/// of 20 lines, a round of five to eight seconds on a 2-vCPU machine.
pub const WARM_LINES: usize = 640;

/// Slots of each 20-line block that repeat an earlier distinct point
/// (30%): cache hits beside the misses.
const WARM_REPEAT_SLOTS: [usize; 6] = [2, 5, 9, 12, 15, 18];

/// The slot of each block that asks for `"metrics":true` (5%).
const WARM_METRICS_SLOT: usize = 7;

/// The slot that carries a sweep in 18 of the 32 blocks, evenly spread:
/// one LRU and one WS sweep per program.
const WARM_SWEEP_SLOT: usize = 17;

/// Every wire policy, in rotation over the distinct-point slots: 398
/// slots give each 49 or 50 points, within the 54 (9 programs × 6
/// levels) that each CD family has.
const WARM_ROTATION: [&str; 8] = [
    "cd",
    "cd-nolocks",
    "lru",
    "ws",
    "fifo",
    "clock",
    "opt",
    "pff",
];

/// The `"metrics":true` slots alternate between these families.
const WARM_METRICS: [&str; 2] = ["lru", "ws"];

/// Every operating point of one policy family on the nine programs, in
/// seeded order, each handed out once.
struct Pool {
    policy: &'static str,
    /// The family's parameter fields (`,"frames":8`, ...).
    params: Vec<String>,
    /// Indices `program + 9 * param`, in the order they are handed out.
    order: Vec<u32>,
    next: usize,
}

impl Pool {
    fn new(policy: &'static str, programs: usize, rng: &mut Rng) -> Pool {
        let params: Vec<String> = match policy {
            "cd" | "cd-nolocks" => [
                r#""outermost""#,
                r#""innermost""#,
                r#""first-fit""#,
                "1",
                "2",
                "3",
            ]
            .iter()
            .map(|l| format!(r#","level":{l}"#))
            .collect(),
            "lru" | "fifo" | "clock" | "opt" => {
                (2..=160).map(|f| format!(r#","frames":{f}"#)).collect()
            }
            // m·10^e plus a jitter below the next step: all distinct.
            "ws" => decades(2..=4, 100)
                .map(|t| format!(r#","tau":{t}"#))
                .collect(),
            _ => decades(1..=3, 10)
                .map(|t| format!(r#","threshold":{t}"#))
                .collect(),
        };
        // Point j goes to program (first + j) mod `programs`, and each
        // program takes its (ascending) parameters in `spread` order: a
        // round's points fall on every program about equally and spread
        // over each range, so the seed picks the points, not how much work
        // they add up to.
        let first = rng.below(programs as u64) as usize;
        let per_program: Vec<Vec<usize>> =
            (0..programs).map(|_| spread(params.len(), rng)).collect();
        let order = (0..programs * params.len())
            .map(|j| {
                let p = (first + j) % programs;
                (p + programs * per_program[p][j / programs]) as u32
            })
            .collect();
        Pool {
            policy,
            params,
            order,
            next: 0,
        }
    }

    /// The next unused point as a request body.
    fn take(&mut self, programs: &[&str]) -> String {
        let k = *self
            .order
            .get(self.next)
            .unwrap_or_else(|| panic!("{}: every point used", self.policy))
            as usize;
        self.next += 1;
        let (w, param) = (
            programs[k % programs.len()],
            &self.params[k / programs.len()],
        );
        format!(
            r#""workload":"{w}","scale":"paper","policy":"{}"{param}"#,
            self.policy
        )
    }
}

/// `m·10^e + j` for `m` in 1..=9, `e` in `exps` and `j` below `jitter`.
fn decades(exps: std::ops::RangeInclusive<u32>, jitter: u64) -> impl Iterator<Item = u64> {
    exps.flat_map(move |e| {
        (1..=9u64).flat_map(move |m| (0..jitter).map(move |j| m * 10u64.pow(e) + j))
    })
}

/// `warm`: operating points over the nine prepared paper programs, on a
/// fixed schedule of 20-line blocks (see the `WARM_*` constants).
struct WarmGen {
    seed: u64,
    rng: Rng,
    programs: Vec<&'static str>,
    pools: Vec<Pool>,
    /// Request bodies (without id) of earlier distinct points.
    distinct: Vec<String>,
    metrics: usize,
    sweeps: usize,
}

impl WarmGen {
    fn new(seed: u64) -> WarmGen {
        let mut rng = Rng::new(seed, 2);
        let programs: Vec<&'static str> = all(Scale::Paper).into_iter().map(|w| w.name).collect();
        let pools = WARM_ROTATION
            .into_iter()
            .map(|p| Pool::new(p, programs.len(), &mut rng))
            .collect();
        WarmGen {
            seed,
            rng,
            programs,
            pools,
            distinct: Vec::new(),
            metrics: 0,
            sweeps: 0,
        }
    }

    /// The next unused point of `policy`'s pool.
    fn take(&mut self, policy: &str) -> String {
        self.pools
            .iter_mut()
            .find(|p| p.policy == policy)
            .expect("every warm policy has a pool")
            .take(&self.programs)
    }

    fn line(&mut self, i: usize) -> String {
        let (block, slot) = (i / 20, i % 20);
        let (blocks, sweeps) = (WARM_LINES / 20, 2 * self.programs.len());
        let body =
            if slot == WARM_SWEEP_SLOT && (block + 1) * sweeps / blocks > block * sweeps / blocks {
                let w = self.programs[self.sweeps / 2];
                let family = ["lru", "ws"][self.sweeps % 2];
                self.sweeps += 1;
                format!(r#""job":"sweep","workload":"{w}","scale":"paper","family":"{family}""#)
            } else if WARM_REPEAT_SLOTS.contains(&slot) && !self.distinct.is_empty() {
                let k = self.rng.below(self.distinct.len() as u64) as usize;
                self.distinct[k].clone()
            } else if slot == WARM_METRICS_SLOT {
                let policy = WARM_METRICS[self.metrics % WARM_METRICS.len()];
                self.metrics += 1;
                format!(r#"{},"metrics":true"#, self.take(policy))
            } else {
                let policy = WARM_ROTATION[self.distinct.len() % WARM_ROTATION.len()];
                let body = self.take(policy);
                self.distinct.push(body.clone());
                body
            };
        format!(r#"{{"id":"warm-{}-{i}",{body}}}"#, self.seed)
    }
}

/// Tenants per fleet job: enough that the scheduler, not the 27 small
/// per-job prepares, dominates the job.
pub const FLEET_TENANTS: u64 = 3000;

/// `fleet`: small-scale multi-tenant jobs, one fresh seed each.
struct FleetGen {
    seed: u64,
    rng: Rng,
}

impl FleetGen {
    fn new(seed: u64) -> FleetGen {
        FleetGen {
            seed,
            rng: Rng::new(seed, 3),
        }
    }

    fn line(&mut self, i: usize) -> String {
        let mixes = [
            "cd,ws:2000,lru:16",
            "cd,lru:12",
            "ws:1500,lru:20,cd:innermost",
            "cd:outermost,ws:3000,fifo:16",
        ];
        let frames = [12, 16, 24][(i / 4) % 3];
        let cell = [4, 8][(i / 12) % 2];
        let admission = [r#""free""#, "1", "2"][i % 3];
        format!(
            r#"{{"id":"fleet-{}-{i}","job":"fleet","tenants":{FLEET_TENANTS},"seed":{},"mix":"{}","frames":{frames},"cell":{cell},"admission":{admission}}}"#,
            self.seed,
            self.rng.next_u64() >> 16,
            mixes[i % mixes.len()],
        )
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    fn lines(w: Workload, seed: u64, n: usize) -> Vec<String> {
        let mut s = Stream::new(w, seed);
        (0..n).map(|i| s.line(i).to_string()).collect()
    }

    #[test]
    fn one_seed_gives_a_byte_identical_stream() {
        for w in Workload::ALL {
            let a = lines(w, 7, 60).join("\n");
            let b = lines(w, 7, 60).join("\n");
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, lines(w, 8, 60).join("\n"), "{}: seed ignored", w.name());
        }
    }

    #[test]
    fn cold_stream_never_repeats_a_program() {
        let papers: HashSet<String> = all(Scale::Paper)
            .into_iter()
            .map(|w| json_escape(&w.source))
            .collect();
        let mut s = Stream::new(Workload::Cold, 3);
        let mut seen = HashSet::new();
        // Past the four variants of FDJAC and TQL, so exhausted programs
        // are skipped.
        for i in 0..150 {
            let line = s.line(i);
            let src = line
                .split(r#""source":""#)
                .nth(1)
                .and_then(|rest| rest.split(r#"","policy""#).next())
                .expect("cold lines carry a source")
                .to_string();
            assert!(!papers.contains(&src), "line {i} is a paper source");
            assert!(seen.insert(src), "line {i} repeats a program");
        }
    }

    #[test]
    fn cold_round_runs_each_program_once_per_policy() {
        for seed in [1, 1000] {
            let mut pairs = HashSet::new();
            for line in round(Workload::Cold, seed) {
                let name = line
                    .split(r#""name":""#)
                    .nth(1)
                    .unwrap()
                    .split('"')
                    .next()
                    .unwrap();
                let policy = policy(&line).to_string();
                assert!(pairs.insert((name.to_string(), policy)), "{line}");
            }
            assert_eq!(pairs.len(), 27);
        }
    }

    #[test]
    fn cold_generator_rejects_paper_sources_and_repeats() {
        let mut rng = Rng::new(1, 1);
        let w = cdmm_workloads::by_name("FDJAC", Scale::Paper).expect("FDJAC exists");
        let mut p = ColdProgram::new(w.name, w.source.clone(), &mut rng);
        assert_eq!(
            p.deltas.len(),
            4,
            "N = 64 moves by up to 2 either way, never by 0"
        );
        assert_eq!(p.source(&[0]), w.source, "the split round-trips");
        // Force the paper's own vector and a repeat to the front.
        let first = p.deltas[0].clone();
        p.deltas.insert(0, vec![0]);
        p.deltas.insert(2, first);
        let mut g = ColdGen {
            seed: 1,
            rng,
            programs: vec![p],
            emitted: HashSet::new(),
        };
        let mut got = Vec::new();
        while let Some(src) = g.variant(0) {
            got.push(src);
        }
        assert_eq!(got.len(), 4);
        assert!(!got.contains(&w.source));
    }

    #[test]
    fn sign_orbits_pair_mirror_images() {
        assert_eq!(sign_orbit(&[3]), vec![vec![3], vec![-3]]);
        assert_eq!(
            sign_orbit(&[2, 0, 5]),
            vec![
                vec![2, 0, 5],
                vec![-2, 0, -5],
                vec![-2, 0, 5],
                vec![2, 0, -5]
            ]
        );
    }

    #[test]
    fn cold_variants_cover_every_perturbation_once() {
        let mut rng = Rng::new(9, 1);
        let w = cdmm_workloads::by_name("MAIN", Scale::Paper).expect("MAIN exists");
        let p = ColdProgram::new(w.name, w.source, &mut rng);
        // MAIN's (36, 5, 5) gives ±2, ±1, ±1: 5·3·3 vectors, minus zero.
        let unique: HashSet<&Vec<i64>> = p.deltas.iter().collect();
        assert_eq!((p.deltas.len(), unique.len()), (44, 44));
    }

    /// A line without its `"id"` member.
    fn body(line: &str) -> &str {
        &line[line.find(',').expect("lines have an id") + 1..]
    }

    fn policy(line: &str) -> &str {
        line.split(r#""policy":""#)
            .nth(1)
            .and_then(|r| r.split('"').next())
            .unwrap_or("sweep")
    }

    #[test]
    fn warm_round_holds_the_whole_mix() {
        for seed in [1, 1000] {
            let lines = round(Workload::Warm, seed);
            assert_eq!(lines.len(), WARM_LINES);
            let mut seen = HashSet::new();
            let mut distinct: HashMap<&str, usize> = HashMap::new();
            let mut taken: HashMap<(&str, &str), usize> = HashMap::new();
            let (mut repeats, mut metrics, mut sweeps) = (0, 0, Vec::new());
            for (i, line) in lines.iter().enumerate() {
                let b = body(line);
                if b.contains(r#""job":"sweep""#) {
                    assert_eq!(i % 20, WARM_SWEEP_SLOT);
                    sweeps.push(i / 20);
                } else if WARM_REPEAT_SLOTS.contains(&(i % 20)) {
                    assert!(seen.contains(b), "line {i} repeats no earlier point");
                    repeats += 1;
                } else {
                    // Every other point is new, metrics ones included.
                    assert!(
                        seen.insert(b.replace(r#","metrics":true"#, "")),
                        "line {i} repeats"
                    );
                    let program = b.split(r#""workload":""#).nth(1).unwrap();
                    let program = &program[..program.find('"').unwrap()];
                    *taken.entry((policy(line), program)).or_default() += 1;
                    if b.contains(r#""metrics":true"#) {
                        metrics += 1;
                    } else {
                        *distinct.entry(policy(line)).or_default() += 1;
                    }
                }
            }
            assert_eq!(repeats, 6 * WARM_LINES / 20);
            assert_eq!(metrics, WARM_LINES / 20);
            // The 18 sweeps: one LRU and one WS per program, no two in a
            // block and never three blocks apart.
            assert_eq!(sweeps.len(), 18);
            assert!(sweeps.windows(2).all(|w| (1..=2).contains(&(w[1] - w[0]))));
            for family in ["lru", "ws"] {
                let per_program: HashSet<&str> = lines
                    .iter()
                    .filter(|l| l.contains(&format!(r#""family":"{family}""#)))
                    .map(|l| {
                        l.split(r#""workload":""#)
                            .nth(1)
                            .unwrap()
                            .split('"')
                            .next()
                            .unwrap()
                    })
                    .collect();
                assert_eq!(per_program.len(), 9, "{family}");
            }
            // All eight wire policies in equal shares.
            assert_eq!(distinct.len(), 8, "all eight wire policies");
            // Each pool hands its points to the nine programs in turn.
            for p in WARM_ROTATION {
                let counts: Vec<usize> = taken
                    .iter()
                    .filter(|((q, _), _)| *q == p)
                    .map(|(_, &k)| k)
                    .collect();
                let (lo, hi) = (counts.iter().min(), counts.iter().max());
                assert!(
                    counts.len() == 9 && hi.unwrap() - lo.unwrap() <= 1,
                    "{p}: {counts:?}"
                );
            }
            let (lo, hi) = (distinct.values().min(), distinct.values().max());
            assert!(hi.unwrap() - lo.unwrap() <= 1, "{distinct:?}");
            assert!(*lo.unwrap() >= 49);
        }
    }
}
