//! The JSONL request/response schema of `cdmm-serve`.
//!
//! One request per line, one flat JSON object per request — parsed by a
//! small hand-rolled scanner (the workspace is dependency-free by
//! design, so there is no serde to lean on). Values are strings,
//! numbers, booleans, or null; nested objects and arrays are rejected
//! with a typed `bad_request` response rather than a panic.
//!
//! Responses are likewise one JSON object per line. Success rows carry
//! only deterministic simulation fields — no wall times, no cache-hit
//! flags — so the same request always produces the byte-identical row,
//! whether it was simulated, recalled from the crash-safe cache, or
//! retried around an injected fault. That invariant is what the chaos
//! suite pins.
//!
//! Three job kinds share the schema, selected by the optional `job`
//! field: `"sim"` (the default — one program, one policy, one
//! [`Metrics`] row), `"fleet"` (a seeded multiprogramming run over
//! cloned paper workloads, answered with the integer digest of a
//! [`FleetReport`]), and `"sweep"` (a whole LRU or WS operating curve
//! answered by the one-pass sweep kernels, digested to one
//! checksummed row).

use std::collections::BTreeMap;
use std::fmt;

use cdmm_core::fleet::FleetSpec;
use cdmm_core::sweep::{KeyHasher, Point};
use cdmm_core::{PageGeometry, PipelineConfig, PolicySpec};
use cdmm_vmsim::policy::cd::CdSelector;
use cdmm_vmsim::{Admission, FleetReport, Metrics, RegistrySnapshot};
use cdmm_workloads::Scale;

/// Where the job's program comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkSource {
    /// A named workload from the paper's suite (`"MAIN"`, `"FDJAC"`, …).
    Named(String),
    /// Inline mini-FORTRAN source shipped in the request.
    Inline {
        /// Program name for labels and cache keys.
        name: String,
        /// The source text.
        source: String,
    },
}

/// One parsed job request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Caller-chosen id, echoed on the response line.
    pub id: String,
    /// The program to simulate.
    pub work: WorkSource,
    /// Workload scale for named workloads.
    pub scale: Scale,
    /// The policy operating point to run.
    pub policy: PolicySpec,
    /// Page size in bytes (default: the paper's 256).
    pub page_bytes: Option<u64>,
    /// Fault service time in references (default 2000).
    pub fault_service: Option<u64>,
    /// Minimum CD allocation in pages (default 2).
    pub min_alloc: Option<u64>,
    /// Per-job deadline in milliseconds (absent: service default).
    pub deadline_ms: Option<u64>,
    /// Stream the job's [`cdmm_vmsim::SimEvent`]s to a checksummed
    /// JSONL sidecar and echo its fingerprint on the response.
    pub trace: bool,
    /// Attach an integer [`cdmm_vmsim::RegistrySnapshot`] digest to the
    /// response.
    pub metrics: bool,
    /// Caller identity for per-client accounting in the daemon's
    /// shutdown summary.
    pub client: Option<String>,
}

impl JobRequest {
    /// The pipeline configuration this request asks for.
    pub fn pipeline_config(&self) -> PipelineConfig {
        pipeline_config(self.page_bytes, self.fault_service, self.min_alloc)
    }
}

/// The default pipeline configuration with a request's optional
/// geometry and simulation knobs applied.
fn pipeline_config(
    page_bytes: Option<u64>,
    fault_service: Option<u64>,
    min_alloc: Option<u64>,
) -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    if let Some(pb) = page_bytes {
        cfg.geometry = PageGeometry::new(pb.max(4), cfg.geometry.elem_bytes);
    }
    if let Some(fs) = fault_service {
        cfg.fault_service = fs;
    }
    if let Some(ma) = min_alloc {
        cfg.min_alloc = ma;
    }
    cfg
}

/// The most tenants one fleet job may ask for. Preparing a fleet costs
/// memory and time per tenant before any deadline is polled, so a
/// larger count is a `bad_request`, not an unbounded job.
pub const MAX_FLEET_TENANTS: u64 = 10_000;

/// One parsed fleet job (`"job":"fleet"`): a seeded multiprogramming
/// run over cloned paper workloads, executed by the fleet scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRequest {
    /// Caller-chosen id, echoed on the response line.
    pub id: String,
    /// Tenant processes to manufacture (at most
    /// [`MAX_FLEET_TENANTS`]).
    pub tenants: u64,
    /// Fleet seed (absent: the [`FleetSpec`] default).
    pub seed: Option<u64>,
    /// Work-distribution shards (never affects the report).
    pub shards: Option<u64>,
    /// Workload rotation, from the comma-separated `workloads` field.
    /// Empty means the default rotation.
    pub workloads: Vec<String>,
    /// Policy rotation, from the comma-separated `mix` field (e.g.
    /// `"cd,ws:2000,lru:16"`). Empty means the default mix.
    pub mix: Vec<PolicySpec>,
    /// Page frames per memory-pool cell.
    pub frames: Option<u64>,
    /// Tenants sharing one cell.
    pub cell: Option<u64>,
    /// Scheduling quantum in references.
    pub quantum: Option<u64>,
    /// Admission control (absent: the [`FleetSpec`] default).
    pub admission: Option<Admission>,
    /// Seeded per-tenant perturbation (absent: on).
    pub jitter: Option<bool>,
    /// Workload scale preset.
    pub scale: Scale,
    /// Per-job deadline in milliseconds (absent: service default).
    pub deadline_ms: Option<u64>,
    /// Stream the fleet's merged scheduler/policy events to a
    /// checksummed JSONL sidecar and echo its fingerprint.
    pub trace: bool,
    /// Attach an integer [`cdmm_vmsim::RegistrySnapshot`] digest folded
    /// from the fleet's merged event stream.
    pub metrics: bool,
    /// Caller identity for per-client accounting in the daemon's
    /// shutdown summary.
    pub client: Option<String>,
}

impl FleetRequest {
    /// The fleet specification this request asks for. Execution
    /// geometry is pinned to one thread: parallelism in the service
    /// comes from running many jobs at once, and the report is
    /// byte-identical at any thread count anyway.
    pub fn fleet_spec(&self) -> FleetSpec {
        let mut spec = FleetSpec {
            tenants: self.tenants as usize,
            scale: self.scale,
            threads: 1,
            ..FleetSpec::default()
        };
        if let Some(s) = self.seed {
            spec.seed = s;
        }
        if let Some(s) = self.shards {
            spec.shards = s as usize;
        }
        if !self.workloads.is_empty() {
            spec.workloads = self.workloads.clone();
        }
        if !self.mix.is_empty() {
            spec.policy_mix = self.mix.clone();
        }
        if let Some(f) = self.frames {
            spec.frames_per_cell = f;
        }
        if let Some(c) = self.cell {
            spec.tenants_per_cell = c as usize;
        }
        if let Some(q) = self.quantum {
            spec.quantum = q;
        }
        if let Some(a) = self.admission {
            spec.admission = a;
        }
        if let Some(j) = self.jitter {
            spec.jitter = j;
        }
        spec
    }
}

/// The policy family a sweep job asks a whole operating curve of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepFamily {
    /// LRU over every allocation `1..=V` (the full memory-size axis).
    Lru,
    /// WS over a geometric window grid.
    Ws,
}

impl SweepFamily {
    /// Stable wire tag of the family.
    pub fn tag(self) -> &'static str {
        match self {
            SweepFamily::Lru => "lru",
            SweepFamily::Ws => "ws",
        }
    }
}

/// One parsed sweep job (`"job":"sweep"`): a whole-family operating
/// curve of one program, answered by the one-pass sweep kernels and
/// digested into a single deterministic response row.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Caller-chosen id, echoed on the response line.
    pub id: String,
    /// The program to sweep.
    pub work: WorkSource,
    /// Workload scale for named workloads.
    pub scale: Scale,
    /// Which policy family's curve to answer.
    pub family: SweepFamily,
    /// WS grid density in points per decade (default 6). Rejected for
    /// LRU sweeps, which always cover the full allocation range.
    pub points: Option<u32>,
    /// Page size in bytes (default: the paper's 256).
    pub page_bytes: Option<u64>,
    /// Fault service time in references (default 2000).
    pub fault_service: Option<u64>,
    /// Minimum CD allocation in pages (default 2).
    pub min_alloc: Option<u64>,
    /// Per-job deadline in milliseconds (absent: service default).
    pub deadline_ms: Option<u64>,
    /// Caller identity for per-client accounting.
    pub client: Option<String>,
}

impl SweepRequest {
    /// The pipeline configuration this request asks for.
    pub fn pipeline_config(&self) -> PipelineConfig {
        pipeline_config(self.page_bytes, self.fault_service, self.min_alloc)
    }
}

/// One parsed request line: any kind of job the service accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A single-program simulation (the default when `job` is absent
    /// or `"sim"`).
    Sim(JobRequest),
    /// A fleet multiprogramming run (`"job":"fleet"`).
    Fleet(FleetRequest),
    /// A whole-family operating-curve sweep (`"job":"sweep"`).
    Sweep(SweepRequest),
}

impl Request {
    /// The caller-chosen id, whatever the job kind.
    pub fn id(&self) -> &str {
        match self {
            Request::Sim(r) => &r.id,
            Request::Fleet(r) => &r.id,
            Request::Sweep(r) => &r.id,
        }
    }

    /// The per-job deadline, whatever the job kind.
    pub fn deadline_ms(&self) -> Option<u64> {
        match self {
            Request::Sim(r) => r.deadline_ms,
            Request::Fleet(r) => r.deadline_ms,
            Request::Sweep(r) => r.deadline_ms,
        }
    }

    /// Whether the caller asked for the per-job event stream. Sweep
    /// jobs never stream: the curve kernels skip simulation entirely,
    /// so there is no event stream to forward (the parser rejects
    /// `"trace":true` on them).
    pub fn trace(&self) -> bool {
        match self {
            Request::Sim(r) => r.trace,
            Request::Fleet(r) => r.trace,
            Request::Sweep(_) => false,
        }
    }

    /// Whether the caller asked for a metrics digest on the response.
    pub fn metrics(&self) -> bool {
        match self {
            Request::Sim(r) => r.metrics,
            Request::Fleet(r) => r.metrics,
            Request::Sweep(_) => false,
        }
    }

    /// The caller identity, whatever the job kind.
    pub fn client(&self) -> Option<&str> {
        match self {
            Request::Sim(r) => r.client.as_deref(),
            Request::Fleet(r) => r.client.as_deref(),
            Request::Sweep(r) => r.client.as_deref(),
        }
    }
}

/// Typed failure classes a response line can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line did not parse or misses required fields.
    BadRequest,
    /// A named workload does not exist at the requested scale.
    UnknownWorkload,
    /// The compile → trace pipeline rejected the program.
    Pipeline,
    /// The job panicked (after exhausting its retries).
    Panic,
    /// The job's deadline expired before the trace ended.
    DeadlineExceeded,
    /// Admission control shed the job: the batch exceeded the queue
    /// depth.
    Overloaded,
}

impl ErrorKind {
    /// Stable wire tag of the error class.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownWorkload => "unknown_workload",
            ErrorKind::Pipeline => "pipeline",
            ErrorKind::Panic => "panic",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Overloaded => "overloaded",
        }
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Escapes a string for embedding in a JSON value.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes a success response: id, policy label, and the
/// deterministic [`Metrics`] fields only.
pub fn encode_ok(id: &str, label: &str, m: &Metrics) -> String {
    format!(
        "{{\"v\":1,\"id\":\"{}\",\"ok\":true,\"policy\":\"{}\",\"refs\":{},\"pf\":{},\"mi\":\"{}\",\"fmi\":\"{}\",\"fs\":{},\"peak\":{},\"rec\":{},\"deg\":{}}}",
        escape_json(id),
        escape_json(label),
        m.refs,
        m.faults,
        m.mem_integral,
        m.fault_mem_integral,
        m.fault_service,
        m.peak_resident,
        m.recovered_directives,
        m.degraded_refs,
    )
}

/// Serializes a fleet success response: id and the deterministic
/// [`FleetReport`] digest, integers only (CPU utilization ships as
/// permille so the row stays float-free and byte-stable).
pub fn encode_fleet_ok(id: &str, r: &FleetReport) -> String {
    let cpu_pm = (r.cpu_utilization * 1000.0).round() as u64;
    format!(
        "{{\"v\":1,\"id\":\"{}\",\"ok\":true,\"job\":\"fleet\",\"tenants\":{},\"cells\":{},\"makespan\":{},\"refs\":{},\"pf\":{},\"swaps\":{},\"cpu_pm\":{},\"st_p50\":{},\"st_p99\":{},\"sw_p50\":{},\"sw_p99\":{}}}",
        escape_json(id),
        r.tenants.len(),
        r.cells.len(),
        r.makespan,
        r.total_refs,
        r.total_faults,
        r.swap_events,
        cpu_pm,
        r.st_cost.p50,
        r.st_cost.p99,
        r.swap_pressure.p50,
        r.swap_pressure.p99,
    )
}

/// Serializes a sweep success response: the curve digested to one
/// deterministic, integer-only row. `pf_hi`/`pf_lo` bracket the fault
/// counts over the sweep, and `curve_c` is a 128-bit content checksum
/// over every point's parameter and full [`Metrics`] — the row pins the
/// whole curve byte-for-byte without shipping thousands of points.
pub fn encode_sweep_ok(id: &str, family: SweepFamily, points: &[Point]) -> String {
    let refs = points.first().map_or(0, |p| p.metrics.refs);
    let (mut pf_hi, mut pf_lo) = (0u64, u64::MAX);
    let mut h = KeyHasher::new();
    for p in points {
        pf_hi = pf_hi.max(p.metrics.faults);
        pf_lo = pf_lo.min(p.metrics.faults);
        let m = &p.metrics;
        h.write_u64(p.param);
        h.write_u64(m.refs);
        h.write_u64(m.faults);
        h.write_u64((m.mem_integral >> 64) as u64);
        h.write_u64(m.mem_integral as u64);
        h.write_u64((m.fault_mem_integral >> 64) as u64);
        h.write_u64(m.fault_mem_integral as u64);
        h.write_u64(m.fault_service);
        h.write_u64(m.peak_resident as u64);
        h.write_u64(m.recovered_directives);
        h.write_u64(m.degraded_refs);
    }
    if points.is_empty() {
        pf_lo = 0;
    }
    let c = h.finish();
    format!(
        "{{\"v\":1,\"id\":\"{}\",\"ok\":true,\"job\":\"sweep\",\"family\":\"{}\",\"points\":{},\"refs\":{},\"pf_hi\":{},\"pf_lo\":{},\"curve_c\":\"{:016x}{:016x}\"}}",
        escape_json(id),
        family.tag(),
        points.len(),
        refs,
        pf_hi,
        pf_lo,
        c.hi,
        c.lo,
    )
}

/// Splices extra `"key":value` text into a response row, right before
/// its closing brace. `extra` must already be valid JSON member text
/// (no leading comma); an empty `extra` returns the row unchanged.
pub fn attach_fields(row: &str, extra: &str) -> String {
    if extra.is_empty() {
        return row.to_string();
    }
    match row.strip_suffix('}') {
        Some(head) => format!("{head},{extra}}}"),
        None => row.to_string(),
    }
}

/// Serializes a [`RegistrySnapshot`] as a deterministic, integer-only
/// JSON member (`"metrics":{...}`): counters and gauges verbatim,
/// histograms as `n`/`p50`/`p99`/`max` digests. Means are floats and
/// deliberately dropped — response rows must stay byte-stable.
pub fn encode_registry(snap: &RegistrySnapshot) -> String {
    let mut out = String::from("\"metrics\":{");
    let mut first = true;
    let push = |out: &mut String, text: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&text);
    };
    for (name, v) in &snap.counters {
        push(
            &mut out,
            format!("\"{}\":{v}", escape_json(name)),
            &mut first,
        );
    }
    for (name, v) in &snap.gauges {
        push(
            &mut out,
            format!("\"{}\":{v}", escape_json(name)),
            &mut first,
        );
    }
    for (name, h) in &snap.hists {
        push(
            &mut out,
            format!(
                "\"{}\":{{\"n\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                escape_json(name),
                h.count,
                h.p50,
                h.p99,
                h.max
            ),
            &mut first,
        );
    }
    out.push('}');
    out
}

/// Serializes a typed failure response.
pub fn encode_err(id: &str, kind: ErrorKind, detail: &str) -> String {
    format!(
        "{{\"v\":1,\"id\":\"{}\",\"ok\":false,\"error\":\"{}\",\"detail\":\"{}\"}}",
        escape_json(id),
        kind.tag(),
        escape_json(detail),
    )
}

/// One scalar JSON value the flat schema accepts.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    /// Numbers keep their raw text; fields parse them into the width
    /// they need.
    Num(String),
    Bool(bool),
    Null,
}

/// Scans one flat JSON object (`{"k":v,...}`) into a field map.
/// Rejects nesting, duplicate keys, and trailing garbage.
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, Scalar>, String> {
    let mut chars = line.char_indices().peekable();
    let mut fields = BTreeMap::new();

    let skip_ws = |chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>| {
        while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            chars.next();
        }
    };

    fn parse_string(
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Result<String, String> {
        match chars.next() {
            Some((_, '"')) => {}
            other => return Err(format!("expected string, found {other:?}")),
        }
        let mut out = String::new();
        loop {
            match chars.next() {
                None => return Err("unterminated string".into()),
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = chars
                                .next()
                                .and_then(|(_, c)| c.to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some((_, c)) => out.push(c),
            }
        }
    }

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        _ => return Err("request is not a JSON object".into()),
    }
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars).map_err(|e| format!("key: {e}"))?;
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ':')) => {}
                _ => return Err(format!("missing ':' after \"{key}\"")),
            }
            skip_ws(&mut chars);
            let value = match chars.peek() {
                Some((_, '"')) => Scalar::Str(parse_string(&mut chars)?),
                Some((_, '{')) | Some((_, '[')) => {
                    return Err(format!("field \"{key}\": nested values are not supported"))
                }
                Some((start, _)) => {
                    let start = *start;
                    let mut end = line.len();
                    while let Some((i, c)) = chars.peek() {
                        if matches!(c, ',' | '}') || c.is_ascii_whitespace() {
                            end = *i;
                            break;
                        }
                        chars.next();
                    }
                    let raw = &line[start..end];
                    match raw {
                        "true" => Scalar::Bool(true),
                        "false" => Scalar::Bool(false),
                        "null" => Scalar::Null,
                        n if n.parse::<f64>().is_ok() => Scalar::Num(n.to_string()),
                        other => return Err(format!("field \"{key}\": bad value `{other}`")),
                    }
                }
                None => return Err("truncated object".into()),
            };
            if fields.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate field \"{key}\""));
            }
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => break,
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
    skip_ws(&mut chars);
    if let Some((_, c)) = chars.next() {
        return Err(format!("trailing garbage `{c}` after object"));
    }
    Ok(fields)
}

fn get_str(fields: &BTreeMap<String, Scalar>, key: &str) -> Result<Option<String>, String> {
    match fields.get(key) {
        None | Some(Scalar::Null) => Ok(None),
        Some(Scalar::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(format!("field \"{key}\" must be a string, got {other:?}")),
    }
}

fn get_u64(fields: &BTreeMap<String, Scalar>, key: &str) -> Result<Option<u64>, String> {
    match fields.get(key) {
        None | Some(Scalar::Null) => Ok(None),
        Some(Scalar::Num(n)) => n
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("field \"{key}\" must be a non-negative integer, got `{n}`")),
        Some(other) => Err(format!("field \"{key}\" must be a number, got {other:?}")),
    }
}

fn get_bool(fields: &BTreeMap<String, Scalar>, key: &str) -> Result<Option<bool>, String> {
    match fields.get(key) {
        None | Some(Scalar::Null) => Ok(None),
        Some(Scalar::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(format!("field \"{key}\" must be a boolean, got {other:?}")),
    }
}

/// Resolves the `policy`/`level`/`frames`/`tau`/`threshold` fields into
/// a [`PolicySpec`].
fn parse_policy(fields: &BTreeMap<String, Scalar>) -> Result<PolicySpec, String> {
    let name = get_str(fields, "policy")?.ok_or("missing required field \"policy\"")?;
    let selector = || -> Result<CdSelector, String> {
        match fields.get("level") {
            None | Some(Scalar::Null) => Ok(CdSelector::Outermost),
            Some(Scalar::Str(s)) => match s.as_str() {
                "outermost" => Ok(CdSelector::Outermost),
                "innermost" => Ok(CdSelector::Innermost),
                "first-fit" => Ok(CdSelector::FirstFit),
                other => Err(format!("unknown CD level \"{other}\"")),
            },
            Some(Scalar::Num(n)) => {
                let k: u32 = n
                    .parse()
                    .map_err(|_| format!("CD level must be a small integer, got `{n}`"))?;
                Ok(CdSelector::AtLevel(k))
            }
            Some(other) => Err(format!("bad \"level\": {other:?}")),
        }
    };
    let frames = || -> Result<usize, String> {
        get_u64(fields, "frames")?
            .map(|f| f as usize)
            .ok_or_else(|| format!("policy \"{name}\" needs a \"frames\" field"))
    };
    match name.as_str() {
        "cd" => Ok(PolicySpec::Cd {
            selector: selector()?,
        }),
        "cd-nolocks" => Ok(PolicySpec::CdNoLocks {
            selector: selector()?,
        }),
        "lru" => Ok(PolicySpec::Lru { frames: frames()? }),
        "fifo" => Ok(PolicySpec::Fifo { frames: frames()? }),
        "clock" => Ok(PolicySpec::Clock { frames: frames()? }),
        "opt" => Ok(PolicySpec::Opt { frames: frames()? }),
        "ws" => Ok(PolicySpec::Ws {
            tau: get_u64(fields, "tau")?.ok_or("policy \"ws\" needs a \"tau\" field")?,
        }),
        "pff" => Ok(PolicySpec::Pff {
            threshold: get_u64(fields, "threshold")?
                .ok_or("policy \"pff\" needs a \"threshold\" field")?,
        }),
        other => Err(format!("unknown policy \"{other}\"")),
    }
}

/// Parses one policy token of the fleet `mix` string: a bare name
/// (`"cd"`, `"cd:innermost"`) or a `name:parameter` pair (`"ws:2000"`,
/// `"lru:16"`).
fn parse_mix_token(tok: &str) -> Result<PolicySpec, String> {
    let (name, arg) = match tok.split_once(':') {
        Some((n, a)) => (n, Some(a)),
        None => (tok, None),
    };
    let num = |what: &str| -> Result<u64, String> {
        arg.ok_or_else(|| format!("mix policy \"{name}\" needs \"{name}:<{what}>\""))?
            .parse::<u64>()
            .map_err(|_| format!("mix policy \"{tok}\": {what} must be a non-negative integer"))
    };
    // Fleet CD defaults to the dynamic first-fit selector — the one
    // selector designed for a shared, contended pool.
    let selector = || -> Result<CdSelector, String> {
        match arg {
            None | Some("first-fit") => Ok(CdSelector::FirstFit),
            Some("outermost") => Ok(CdSelector::Outermost),
            Some("innermost") => Ok(CdSelector::Innermost),
            Some(k) => k
                .parse::<u32>()
                .map(CdSelector::AtLevel)
                .map_err(|_| format!("mix policy \"{tok}\": unknown CD level \"{k}\"")),
        }
    };
    match name {
        "cd" => Ok(PolicySpec::Cd {
            selector: selector()?,
        }),
        "cd-nolocks" => Ok(PolicySpec::CdNoLocks {
            selector: selector()?,
        }),
        "lru" => Ok(PolicySpec::Lru {
            frames: num("frames")? as usize,
        }),
        "fifo" => Ok(PolicySpec::Fifo {
            frames: num("frames")? as usize,
        }),
        "clock" => Ok(PolicySpec::Clock {
            frames: num("frames")? as usize,
        }),
        "opt" => Ok(PolicySpec::Opt {
            frames: num("frames")? as usize,
        }),
        "ws" => Ok(PolicySpec::Ws { tau: num("tau")? }),
        "pff" => Ok(PolicySpec::Pff {
            threshold: num("threshold")?,
        }),
        other => Err(format!("unknown mix policy \"{other}\"")),
    }
}

/// Top-level fields a sim job accepts. Anything else is a typed
/// `bad_request` — a `"trace":true` typo must fail loudly, not
/// silently run without the passthrough it asked for.
const SIM_KEYS: &[&str] = &[
    "id",
    "job",
    "workload",
    "source",
    "name",
    "policy",
    "level",
    "frames",
    "tau",
    "threshold",
    "scale",
    "page_bytes",
    "fault_service",
    "min_alloc",
    "deadline_ms",
    "trace",
    "metrics",
    "client",
];

/// Top-level fields a sweep job accepts. No `trace`/`metrics`: the
/// curve kernels never simulate, so there is no event stream to opt
/// into — a request asking for one must fail loudly.
const SWEEP_KEYS: &[&str] = &[
    "id",
    "job",
    "workload",
    "source",
    "name",
    "family",
    "points",
    "scale",
    "page_bytes",
    "fault_service",
    "min_alloc",
    "deadline_ms",
    "client",
];

/// Top-level fields a fleet job accepts.
const FLEET_KEYS: &[&str] = &[
    "id",
    "job",
    "tenants",
    "seed",
    "shards",
    "workloads",
    "mix",
    "frames",
    "cell",
    "quantum",
    "admission",
    "jitter",
    "scale",
    "deadline_ms",
    "trace",
    "metrics",
    "client",
];

/// Rejects any top-level field outside the job kind's schema.
fn reject_unknown(fields: &BTreeMap<String, Scalar>, known: &[&str]) -> Result<(), String> {
    for key in fields.keys() {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown request field \"{key}\""));
        }
    }
    Ok(())
}

/// Parses the `scale` preset every job kind accepts (default: small).
fn parse_scale(fields: &BTreeMap<String, Scalar>) -> Result<Scale, String> {
    match get_str(fields, "scale")?.as_deref() {
        None | Some("small") => Ok(Scale::Small),
        Some("paper") => Ok(Scale::Paper),
        Some(other) => Err(format!("unknown scale \"{other}\"")),
    }
}

/// Parses the optional `client` identity every job kind accepts.
fn parse_client(fields: &BTreeMap<String, Scalar>) -> Result<Option<String>, String> {
    let client = get_str(fields, "client")?;
    if client.as_deref() == Some("") {
        return Err("field \"client\" must be non-empty".into());
    }
    Ok(client)
}

/// Parses the `trace`/`metrics`/`client` observability fields shared by
/// the sim and fleet job kinds.
fn parse_observability(
    fields: &BTreeMap<String, Scalar>,
) -> Result<(bool, bool, Option<String>), String> {
    let trace = get_bool(fields, "trace")?.unwrap_or(false);
    let metrics = get_bool(fields, "metrics")?.unwrap_or(false);
    Ok((trace, metrics, parse_client(fields)?))
}

/// Parses the fleet job fields into a [`FleetRequest`].
fn parse_fleet(id: String, fields: &BTreeMap<String, Scalar>) -> Result<FleetRequest, String> {
    for sim_only in ["workload", "source", "policy", "level"] {
        if fields.contains_key(sim_only) {
            return Err(format!("field \"{sim_only}\" does not apply to fleet jobs"));
        }
    }
    reject_unknown(fields, FLEET_KEYS)?;
    let tenants = get_u64(fields, "tenants")?.ok_or("fleet jobs need a \"tenants\" field")?;
    if tenants > MAX_FLEET_TENANTS {
        return Err(format!(
            "field \"tenants\" must be at most {MAX_FLEET_TENANTS}, got {tenants}"
        ));
    }
    let workloads = match get_str(fields, "workloads")? {
        None => Vec::new(),
        Some(s) => {
            let names: Vec<String> = s
                .split(',')
                .map(str::trim)
                .filter(|n| !n.is_empty())
                .map(String::from)
                .collect();
            if names.is_empty() {
                return Err("field \"workloads\" names no workloads".into());
            }
            names
        }
    };
    let mix = match get_str(fields, "mix")? {
        None => Vec::new(),
        Some(s) => {
            let toks: Vec<&str> = s
                .split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .collect();
            if toks.is_empty() {
                return Err("field \"mix\" names no policies".into());
            }
            toks.into_iter()
                .map(parse_mix_token)
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    let admission = match fields.get("admission") {
        None | Some(Scalar::Null) => None,
        Some(Scalar::Str(s)) if s == "free" => Some(Admission::Free),
        Some(Scalar::Num(n)) => Some(Admission::PiLevel(n.parse::<u32>().map_err(|_| {
            format!("field \"admission\" must be \"free\" or a PI level, got `{n}`")
        })?)),
        Some(other) => {
            return Err(format!(
                "field \"admission\" must be \"free\" or a PI level, got {other:?}"
            ))
        }
    };
    let scale = parse_scale(fields)?;
    let (trace, metrics, client) = parse_observability(fields)?;
    Ok(FleetRequest {
        id,
        tenants,
        seed: get_u64(fields, "seed")?,
        shards: get_u64(fields, "shards")?,
        workloads,
        mix,
        frames: get_u64(fields, "frames")?,
        cell: get_u64(fields, "cell")?,
        quantum: get_u64(fields, "quantum")?,
        admission,
        jitter: get_bool(fields, "jitter")?,
        scale,
        deadline_ms: get_u64(fields, "deadline_ms")?,
        trace,
        metrics,
        client,
    })
}

/// Parses one request line, dispatching on the optional `job` field
/// (`"sim"`, the default, or `"fleet"`). Errors are caller-facing
/// strings — they end up in the `detail` of a `bad_request` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields = parse_flat_object(line)?;
    let id = get_str(&fields, "id")?.ok_or("missing required field \"id\"")?;
    if id.is_empty() {
        return Err("field \"id\" must be non-empty".into());
    }
    match get_str(&fields, "job")?.as_deref() {
        None | Some("sim") => parse_sim(id, &fields).map(Request::Sim),
        Some("fleet") => parse_fleet(id, &fields).map(Request::Fleet),
        Some("sweep") => parse_sweep(id, &fields).map(Request::Sweep),
        Some(other) => Err(format!("unknown job kind \"{other}\"")),
    }
}

/// Resolves the shared `workload`/`source`/`name` fields into a
/// [`WorkSource`].
fn parse_work(fields: &BTreeMap<String, Scalar>) -> Result<WorkSource, String> {
    match (get_str(fields, "workload")?, get_str(fields, "source")?) {
        (Some(w), None) => Ok(WorkSource::Named(w)),
        (None, Some(src)) => Ok(WorkSource::Inline {
            name: get_str(fields, "name")?.unwrap_or_else(|| "INLINE".into()),
            source: src,
        }),
        (Some(_), Some(_)) => Err("give \"workload\" or \"source\", not both".into()),
        (None, None) => Err("missing \"workload\" or \"source\"".into()),
    }
}

/// Parses the sweep job fields into a [`SweepRequest`].
fn parse_sweep(id: String, fields: &BTreeMap<String, Scalar>) -> Result<SweepRequest, String> {
    for sim_only in [
        "policy",
        "level",
        "frames",
        "tau",
        "threshold",
        "trace",
        "metrics",
    ] {
        if fields.contains_key(sim_only) {
            return Err(format!("field \"{sim_only}\" does not apply to sweep jobs"));
        }
    }
    reject_unknown(fields, SWEEP_KEYS)?;
    let family = match get_str(fields, "family")?.as_deref() {
        Some("lru") => SweepFamily::Lru,
        Some("ws") => SweepFamily::Ws,
        Some(other) => return Err(format!("unknown sweep family \"{other}\"")),
        None => return Err("sweep jobs need a \"family\" field (\"lru\" or \"ws\")".into()),
    };
    let points = get_u64(fields, "points")?;
    if let Some(p) = points {
        if family == SweepFamily::Lru {
            return Err("field \"points\" only applies to \"ws\" sweeps".into());
        }
        if p == 0 || p > 64 {
            return Err("field \"points\" must be in 1..=64 (points per decade)".into());
        }
    }
    let scale = parse_scale(fields)?;
    let client = parse_client(fields)?;
    Ok(SweepRequest {
        id,
        work: parse_work(fields)?,
        scale,
        family,
        points: points.map(|p| p as u32),
        page_bytes: get_u64(fields, "page_bytes")?,
        fault_service: get_u64(fields, "fault_service")?,
        min_alloc: get_u64(fields, "min_alloc")?,
        deadline_ms: get_u64(fields, "deadline_ms")?,
        client,
    })
}

/// Parses the classic single-simulation job fields.
fn parse_sim(id: String, fields: &BTreeMap<String, Scalar>) -> Result<JobRequest, String> {
    reject_unknown(fields, SIM_KEYS)?;
    let work = parse_work(fields)?;
    let scale = parse_scale(fields)?;
    let (trace, metrics, client) = parse_observability(fields)?;
    Ok(JobRequest {
        id,
        work,
        scale,
        policy: parse_policy(fields)?,
        page_bytes: get_u64(fields, "page_bytes")?,
        fault_service: get_u64(fields, "fault_service")?,
        min_alloc: get_u64(fields, "min_alloc")?,
        deadline_ms: get_u64(fields, "deadline_ms")?,
        trace,
        metrics,
        client,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(line: &str) -> JobRequest {
        match parse_request(line).expect("parses") {
            Request::Sim(r) => r,
            other => panic!("expected a sim job, got {other:?}"),
        }
    }

    fn fleet(line: &str) -> FleetRequest {
        match parse_request(line).expect("parses") {
            Request::Fleet(r) => r,
            other => panic!("expected a fleet job, got {other:?}"),
        }
    }

    fn sweep(line: &str) -> SweepRequest {
        match parse_request(line).expect("parses") {
            Request::Sweep(r) => r,
            other => panic!("expected a sweep job, got {other:?}"),
        }
    }

    #[test]
    fn sweep_requests_parse_and_validate() {
        let r = sweep(r#"{"id":"s1","job":"sweep","workload":"MAIN","family":"lru"}"#);
        assert_eq!(r.family, SweepFamily::Lru);
        assert_eq!(r.points, None);
        assert_eq!(r.scale, Scale::Small);

        let r = sweep(
            r#"{"id":"s2","job":"sweep","workload":"FDJAC","family":"ws","points":4,"deadline_ms":500,"client":"carol"}"#,
        );
        assert_eq!(r.family, SweepFamily::Ws);
        assert_eq!(r.points, Some(4));
        assert_eq!(r.deadline_ms, Some(500));
        assert_eq!(r.client.as_deref(), Some("carol"));

        for bad in [
            // Simulation-only fields must fail loudly, not be ignored.
            r#"{"id":"x","job":"sweep","workload":"MAIN","family":"lru","policy":"lru"}"#,
            r#"{"id":"x","job":"sweep","workload":"MAIN","family":"lru","trace":true}"#,
            r#"{"id":"x","job":"sweep","workload":"MAIN","family":"lru","metrics":true}"#,
            // `points` is a WS grid knob; LRU always sweeps the full range.
            r#"{"id":"x","job":"sweep","workload":"MAIN","family":"lru","points":4}"#,
            r#"{"id":"x","job":"sweep","workload":"MAIN","family":"ws","points":0}"#,
            r#"{"id":"x","job":"sweep","workload":"MAIN","family":"opt"}"#,
            r#"{"id":"x","job":"sweep","workload":"MAIN"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn sweep_rows_digest_the_whole_curve() {
        let mk = |param, faults| Point {
            param,
            metrics: Metrics {
                refs: 100,
                faults,
                ..Metrics::default()
            },
        };
        let row = encode_sweep_ok("s", SweepFamily::Lru, &[mk(1, 40), mk(2, 12)]);
        assert!(row.contains("\"job\":\"sweep\""), "{row}");
        assert!(row.contains("\"family\":\"lru\""), "{row}");
        assert!(row.contains("\"points\":2"), "{row}");
        assert!(row.contains("\"refs\":100"), "{row}");
        assert!(row.contains("\"pf_hi\":40"), "{row}");
        assert!(row.contains("\"pf_lo\":12"), "{row}");
        // The checksum pins every point: a one-fault drift must move it.
        let drifted = encode_sweep_ok("s", SweepFamily::Lru, &[mk(1, 40), mk(2, 13)]);
        let c = |r: &str| r.split("\"curve_c\":\"").nth(1).unwrap().to_string();
        assert_ne!(c(&row), c(&drifted));
        // And the empty sweep still encodes a well-formed row.
        let empty = encode_sweep_ok("s", SweepFamily::Ws, &[]);
        assert!(empty.contains("\"points\":0"), "{empty}");
        assert!(empty.contains("\"pf_lo\":0"), "{empty}");
    }

    #[test]
    fn minimal_request_parses() {
        let r = sim(r#"{"id":"j1","workload":"MAIN","policy":"lru","frames":8}"#);
        assert_eq!(r.id, "j1");
        assert_eq!(r.work, WorkSource::Named("MAIN".into()));
        assert_eq!(r.scale, Scale::Small);
        assert_eq!(r.policy, PolicySpec::Lru { frames: 8 });
        assert_eq!(r.deadline_ms, None);
    }

    #[test]
    fn inline_source_with_escapes_parses() {
        let r = sim(
            r#"{"id":"j2","source":"PROGRAM T\nEND\n","name":"T","policy":"cd","level":"innermost","deadline_ms":250}"#,
        );
        match &r.work {
            WorkSource::Inline { name, source } => {
                assert_eq!(name, "T");
                assert_eq!(source, "PROGRAM T\nEND\n");
            }
            other => panic!("wrong work source {other:?}"),
        }
        assert_eq!(
            r.policy,
            PolicySpec::Cd {
                selector: CdSelector::Innermost
            }
        );
        assert_eq!(r.deadline_ms, Some(250));
    }

    #[test]
    fn numeric_cd_level_and_knobs() {
        let r = sim(
            r#"{"id":"j3","workload":"FDJAC","scale":"paper","policy":"cd","level":2,"page_bytes":512,"fault_service":1000,"min_alloc":4}"#,
        );
        assert_eq!(r.scale, Scale::Paper);
        assert_eq!(
            r.policy,
            PolicySpec::Cd {
                selector: CdSelector::AtLevel(2)
            }
        );
        let cfg = r.pipeline_config();
        assert_eq!(cfg.geometry.page_bytes, 512);
        assert_eq!(cfg.fault_service, 1000);
        assert_eq!(cfg.min_alloc, 4);
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        for (line, needle) in [
            ("not json", "not a JSON object"),
            ("{\"id\":\"x\"}", "workload"),
            (r#"{"id":"x","workload":"MAIN"}"#, "policy"),
            (r#"{"id":"x","workload":"MAIN","policy":"lru"}"#, "frames"),
            (
                r#"{"id":"x","workload":"MAIN","policy":"zap"}"#,
                "unknown policy",
            ),
            (
                r#"{"id":"x","workload":"M","source":"S","policy":"cd"}"#,
                "not both",
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","level":"middle"}"#,
                "unknown CD level",
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","scale":"huge"}"#,
                "unknown scale",
            ),
            (r#"{"id":"x","nested":{"a":1},"policy":"cd"}"#, "nested"),
            (
                r#"{"id":"x","id":"y","workload":"MAIN","policy":"cd"}"#,
                "duplicate",
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd"} extra"#,
                "trailing",
            ),
            (r#"{"id":"","workload":"MAIN","policy":"cd"}"#, "non-empty"),
            (
                r#"{"id":"x","workload":"MAIN","policy":"ws","tau":-4}"#,
                "non-negative",
            ),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(
                err.contains(needle),
                "`{line}` → `{err}` (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn ok_rows_are_deterministic_and_escaped() {
        let m = Metrics {
            refs: 100,
            faults: 7,
            mem_integral: 12345,
            fault_mem_integral: 678,
            fault_service: 2000,
            peak_resident: 9,
            recovered_directives: 1,
            degraded_refs: 0,
        };
        let a = encode_ok("job \"quoted\"", "LRU(8)", &m);
        let b = encode_ok("job \"quoted\"", "LRU(8)", &m);
        assert_eq!(a, b);
        assert!(a.contains(r#"\"quoted\""#));
        assert!(a.contains("\"ok\":true"));
        assert!(a.contains("\"pf\":7"));
    }

    #[test]
    fn error_rows_carry_the_typed_tag() {
        let line = encode_err("j9", ErrorKind::Overloaded, "queue depth 4 exceeded");
        assert!(line.contains("\"ok\":false"));
        assert!(line.contains("\"error\":\"overloaded\""));
        for kind in [
            ErrorKind::BadRequest,
            ErrorKind::UnknownWorkload,
            ErrorKind::Pipeline,
            ErrorKind::Panic,
            ErrorKind::DeadlineExceeded,
            ErrorKind::Overloaded,
        ] {
            assert!(!kind.tag().is_empty());
            assert_eq!(kind.to_string(), kind.tag());
        }
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let nasty = "line1\nline2\t\"quoted\" \\ slash\u{1}";
        let line = format!(
            "{{\"id\":\"{}\",\"workload\":\"MAIN\",\"policy\":\"cd\"}}",
            escape_json(nasty)
        );
        let r = sim(&line);
        assert_eq!(r.id, nasty);
    }

    #[test]
    fn fleet_request_parses_with_defaults() {
        let r = fleet(r#"{"id":"f1","job":"fleet","tenants":64}"#);
        assert_eq!(r.id, "f1");
        assert_eq!(r.tenants, 64);
        let spec = r.fleet_spec();
        assert_eq!(spec.tenants, 64);
        assert_eq!(spec.threads, 1, "fleet jobs are pinned to one thread");
        assert_eq!(spec.seed, FleetSpec::default().seed);
        assert_eq!(spec.workloads, FleetSpec::default().workloads);
    }

    #[test]
    fn fleet_request_parses_every_knob() {
        let r = fleet(
            r#"{"id":"f2","job":"fleet","tenants":128,"seed":42,"shards":5,"workloads":"FDJAC, TQL","mix":"cd:innermost,ws:2000,lru:16","frames":48,"cell":3,"quantum":200,"admission":2,"jitter":false,"deadline_ms":900}"#,
        );
        assert_eq!(r.workloads, vec!["FDJAC".to_string(), "TQL".to_string()]);
        assert_eq!(
            r.mix,
            vec![
                PolicySpec::Cd {
                    selector: CdSelector::Innermost
                },
                PolicySpec::Ws { tau: 2000 },
                PolicySpec::Lru { frames: 16 },
            ]
        );
        assert_eq!(r.deadline_ms, Some(900));
        let spec = r.fleet_spec();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.shards, 5);
        assert_eq!(spec.frames_per_cell, 48);
        assert_eq!(spec.tenants_per_cell, 3);
        assert_eq!(spec.quantum, 200);
        assert_eq!(spec.admission, Admission::PiLevel(2));
        assert!(!spec.jitter);
    }

    #[test]
    fn mix_tokens_cover_the_policy_families() {
        for (tok, want) in [
            (
                "cd",
                PolicySpec::Cd {
                    selector: CdSelector::FirstFit,
                },
            ),
            (
                "cd:3",
                PolicySpec::Cd {
                    selector: CdSelector::AtLevel(3),
                },
            ),
            (
                "cd-nolocks:outermost",
                PolicySpec::CdNoLocks {
                    selector: CdSelector::Outermost,
                },
            ),
            ("fifo:9", PolicySpec::Fifo { frames: 9 }),
            ("clock:9", PolicySpec::Clock { frames: 9 }),
            ("opt:9", PolicySpec::Opt { frames: 9 }),
            ("pff:150", PolicySpec::Pff { threshold: 150 }),
        ] {
            assert_eq!(parse_mix_token(tok).expect(tok), want);
        }
    }

    #[test]
    fn malformed_fleet_requests_are_typed_errors() {
        for (line, needle) in [
            (r#"{"id":"x","job":"fleet"}"#, "tenants"),
            (
                r#"{"id":"x","job":"fleet","tenants":10001}"#,
                "at most 10000",
            ),
            (
                r#"{"id":"x","job":"batch","tenants":4}"#,
                "unknown job kind",
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"policy":"cd"}"#,
                "does not apply to fleet jobs",
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"mix":"zap"}"#,
                "unknown mix policy",
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"mix":"lru"}"#,
                "needs \"lru:<frames>\"",
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"mix":" , "}"#,
                "no policies",
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"workloads":","}"#,
                "no workloads",
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"admission":"vip"}"#,
                "admission",
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"jitter":7}"#,
                "boolean",
            ),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(
                err.contains(needle),
                "`{line}` → `{err}` (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn fleet_rows_are_integer_only_and_deterministic() {
        use cdmm_vmsim::{Histogram, HistogramSummary};
        let mut st = Histogram::new();
        let mut sw = Histogram::new();
        st.record(10);
        st.record(90);
        sw.record(3);
        let r = FleetReport {
            tenants: Vec::new(),
            cells: Vec::new(),
            makespan: 1234,
            total_refs: 999,
            total_faults: 55,
            swap_events: 4,
            cpu_utilization: 0.756,
            cpu_per_cell: Vec::new(),
            st_cost: HistogramSummary::of(&st),
            swap_pressure: HistogramSummary::of(&sw),
        };
        let a = encode_fleet_ok("f9", &r);
        assert_eq!(a, encode_fleet_ok("f9", &r));
        assert!(a.contains("\"job\":\"fleet\""), "{a}");
        assert!(a.contains("\"cpu_pm\":756"), "{a}");
        assert!(a.contains("\"st_p99\":"), "{a}");
        assert!(!a.contains('.'), "floats leaked into the row: {a}");
    }

    #[test]
    fn unknown_top_level_fields_are_rejected() {
        for (line, needle) in [
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","trace_on":true}"#,
                "unknown request field \"trace_on\"",
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","Trace":true}"#,
                "unknown request field \"Trace\"",
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"shard":3}"#,
                "unknown request field \"shard\"",
            ),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(
                err.contains(needle),
                "`{line}` → `{err}` (wanted `{needle}`)"
            );
        }
    }

    #[test]
    fn observability_fields_parse_on_both_job_kinds() {
        let r = sim(
            r#"{"id":"t1","workload":"MAIN","policy":"cd","trace":true,"metrics":true,"client":"alice"}"#,
        );
        assert!(r.trace && r.metrics);
        assert_eq!(r.client.as_deref(), Some("alice"));
        let r = sim(r#"{"id":"t2","workload":"MAIN","policy":"cd"}"#);
        assert!(!r.trace && !r.metrics && r.client.is_none());
        let f = fleet(r#"{"id":"t3","job":"fleet","tenants":4,"trace":true,"client":"bob"}"#);
        assert!(f.trace && !f.metrics);
        assert_eq!(f.client.as_deref(), Some("bob"));
        for (line, needle) in [
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","trace":1}"#,
                "boolean",
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","client":""}"#,
                "non-empty",
            ),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "`{line}` → `{err}`");
        }
    }

    #[test]
    fn attached_fields_splice_before_the_closing_brace() {
        let row = encode_err("a", ErrorKind::Pipeline, "x");
        assert_eq!(attach_fields(&row, ""), row);
        let spliced = attach_fields(&row, "\"trace_lines\":4");
        assert!(spliced.ends_with(",\"trace_lines\":4}"), "{spliced}");
        assert_eq!(spliced.matches('{').count(), 1);
    }

    #[test]
    fn registry_digest_is_integer_only() {
        use cdmm_vmsim::{MetricsRegistry, SimEvent, Tracer};
        let mut reg = MetricsRegistry::new();
        for at in 0..50 {
            reg.record(
                at,
                &SimEvent::SwapOut {
                    process: at as u32 % 7,
                },
            );
        }
        let text = encode_registry(&reg.snapshot());
        assert!(text.starts_with("\"metrics\":{"), "{text}");
        assert!(text.contains("\"swap_outs\":50"), "{text}");
        assert!(!text.contains('.'), "floats leaked: {text}");
        assert_eq!(text, encode_registry(&reg.snapshot()));
    }
}
