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
//! checksummed row). One table, `FIELDS`, lists every top-level field
//! with its treatment under each kind; the fields all kinds share are
//! read once, and each request carries the core's own
//! [`PipelineConfig`] or [`FleetSpec`].

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
    /// The defaults with `page_bytes`, `fault_service` and `min_alloc`
    /// applied.
    config: PipelineConfig,
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
        self.config
    }
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
    /// The [`FleetSpec`] defaults with the request's knobs applied.
    spec: FleetSpec,
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
        self.spec.clone()
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
    /// The defaults with `page_bytes`, `fault_service` and `min_alloc`
    /// applied.
    config: PipelineConfig,
    /// Per-job deadline in milliseconds (absent: service default).
    pub deadline_ms: Option<u64>,
    /// Caller identity for per-client accounting.
    pub client: Option<String>,
}

impl SweepRequest {
    /// The pipeline configuration this request asks for.
    pub fn pipeline_config(&self) -> PipelineConfig {
        self.config
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

    /// Whether the job streams a trace sidecar (sweeps never do).
    pub fn traced(&self) -> bool {
        match self {
            Request::Sim(r) => r.trace,
            Request::Fleet(r) => r.trace,
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

/// The three job kinds, in the column order of `FIELDS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    Sim,
    Sweep,
    Fleet,
}

impl JobKind {
    fn tag(self) -> &'static str {
        match self {
            JobKind::Sim => "sim",
            JobKind::Sweep => "sweep",
            JobKind::Fleet => "fleet",
        }
    }
}

/// How one job kind treats a top-level request field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Treatment {
    /// The kind reads the field.
    Accepted,
    /// Another kind's field: `field "X" does not apply to K jobs`.
    Foreign,
    /// `unknown request field "X"`, as is any name not in `FIELDS`.
    Unknown,
}

use Treatment::{Accepted, Foreign, Unknown};

/// The request schema: every top-level field with its treatment under
/// `[sim, sweep, fleet]`. A field outside a kind's schema is a typed
/// `bad_request` — a `"trace":true` typo must fail loudly, not
/// silently run without the passthrough it asked for. The README's
/// field table mirrors this one (a unit test compares them).
const FIELDS: &[(&str, [Treatment; 3])] = &[
    ("id", [Accepted, Accepted, Accepted]),
    ("job", [Accepted, Accepted, Accepted]),
    ("workload", [Accepted, Accepted, Foreign]),
    ("source", [Accepted, Accepted, Foreign]),
    ("name", [Accepted, Accepted, Unknown]),
    ("policy", [Accepted, Foreign, Foreign]),
    ("level", [Accepted, Foreign, Foreign]),
    ("frames", [Accepted, Foreign, Accepted]),
    ("tau", [Accepted, Foreign, Unknown]),
    ("threshold", [Accepted, Foreign, Unknown]),
    ("family", [Unknown, Accepted, Unknown]),
    ("points", [Unknown, Accepted, Unknown]),
    ("tenants", [Unknown, Unknown, Accepted]),
    ("seed", [Unknown, Unknown, Accepted]),
    ("workloads", [Unknown, Unknown, Accepted]),
    ("mix", [Unknown, Unknown, Accepted]),
    ("cell", [Unknown, Unknown, Accepted]),
    ("quantum", [Unknown, Unknown, Accepted]),
    ("admission", [Unknown, Unknown, Accepted]),
    ("jitter", [Unknown, Unknown, Accepted]),
    ("scale", [Accepted, Accepted, Accepted]),
    ("page_bytes", [Accepted, Accepted, Unknown]),
    ("fault_service", [Accepted, Accepted, Unknown]),
    ("min_alloc", [Accepted, Accepted, Unknown]),
    ("deadline_ms", [Accepted, Accepted, Accepted]),
    // A sweep never simulates, so it has no event stream to opt into.
    ("trace", [Accepted, Foreign, Accepted]),
    ("metrics", [Accepted, Foreign, Accepted]),
    ("client", [Accepted, Accepted, Accepted]),
];

/// Rejects the first foreign field in `FIELDS` order, then the first
/// field (in name order) the kind does not accept.
fn check_fields(fields: &BTreeMap<String, Scalar>, kind: JobKind) -> Result<(), String> {
    let col = kind as usize;
    if let Some((name, _)) = FIELDS
        .iter()
        .find(|(name, t)| t[col] == Foreign && fields.contains_key(*name))
    {
        return Err(format!(
            "field \"{name}\" does not apply to {} jobs",
            kind.tag()
        ));
    }
    let accepted = |key: &str| FIELDS.iter().any(|(n, t)| *n == key && t[col] == Accepted);
    match fields.keys().find(|key| !accepted(key)) {
        Some(key) => Err(format!("unknown request field \"{key}\"")),
        None => Ok(()),
    }
}

/// Parses one request line: the fields every kind shares once, then
/// the kind's own. Errors are caller-facing strings — they end up in
/// the `detail` of a `bad_request` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let fields = parse_flat_object(line)?;
    let id = get_str(&fields, "id")?.ok_or("missing required field \"id\"")?;
    if id.is_empty() {
        return Err("field \"id\" must be non-empty".into());
    }
    let kind = match get_str(&fields, "job")?.as_deref() {
        None | Some("sim") => JobKind::Sim,
        Some("sweep") => JobKind::Sweep,
        Some("fleet") => JobKind::Fleet,
        Some(other) => return Err(format!("unknown job kind \"{other}\"")),
    };
    check_fields(&fields, kind)?;
    let scale = match get_str(&fields, "scale")?.as_deref() {
        None | Some("small") => Scale::Small,
        Some("paper") => Scale::Paper,
        Some(other) => return Err(format!("unknown scale \"{other}\"")),
    };
    let trace = get_bool(&fields, "trace")?.unwrap_or(false);
    let metrics = get_bool(&fields, "metrics")?.unwrap_or(false);
    let client = get_str(&fields, "client")?;
    if client.as_deref() == Some("") {
        return Err("field \"client\" must be non-empty".into());
    }
    let deadline_ms = get_u64(&fields, "deadline_ms")?;
    Ok(match kind {
        JobKind::Sim => Request::Sim(JobRequest {
            id,
            work: parse_work(&fields)?,
            scale,
            policy: parse_policy(&fields)?,
            config: parse_config(&fields)?,
            deadline_ms,
            trace,
            metrics,
            client,
        }),
        JobKind::Sweep => {
            let (family, points) = parse_family(&fields)?;
            Request::Sweep(SweepRequest {
                id,
                work: parse_work(&fields)?,
                scale,
                family,
                points,
                config: parse_config(&fields)?,
                deadline_ms,
                client,
            })
        }
        JobKind::Fleet => Request::Fleet(FleetRequest {
            id,
            spec: parse_fleet(&fields, scale)?,
            deadline_ms,
            trace,
            metrics,
            client,
        }),
    })
}

/// Resolves the `workload`/`source`/`name` fields into a
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

/// The default [`PipelineConfig`] with the `page_bytes` (at least 4),
/// `fault_service` and `min_alloc` fields applied.
fn parse_config(fields: &BTreeMap<String, Scalar>) -> Result<PipelineConfig, String> {
    let mut cfg = PipelineConfig::default();
    if let Some(pb) = get_u64(fields, "page_bytes")? {
        cfg.geometry = PageGeometry::new(pb.max(4), cfg.geometry.elem_bytes);
    }
    cfg.fault_service = get_u64(fields, "fault_service")?.unwrap_or(cfg.fault_service);
    cfg.min_alloc = get_u64(fields, "min_alloc")?.unwrap_or(cfg.min_alloc);
    Ok(cfg)
}

/// Parses a sweep's `family` and its WS grid density `points`.
fn parse_family(fields: &BTreeMap<String, Scalar>) -> Result<(SweepFamily, Option<u32>), String> {
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
    Ok((family, points.map(|p| p as u32)))
}

/// The [`FleetSpec`] defaults with the fleet fields applied, execution
/// pinned to one thread (see [`FleetRequest::fleet_spec`]).
fn parse_fleet(fields: &BTreeMap<String, Scalar>, scale: Scale) -> Result<FleetSpec, String> {
    let tenants = get_u64(fields, "tenants")?.ok_or("fleet jobs need a \"tenants\" field")?;
    if tenants > MAX_FLEET_TENANTS {
        return Err(format!(
            "field \"tenants\" must be at most {MAX_FLEET_TENANTS}, got {tenants}"
        ));
    }
    let mut spec = FleetSpec {
        tenants: tenants as usize,
        scale,
        threads: 1,
        ..FleetSpec::default()
    };
    if let Some(s) = get_str(fields, "workloads")? {
        spec.workloads = s
            .split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .map(String::from)
            .collect();
        if spec.workloads.is_empty() {
            return Err("field \"workloads\" names no workloads".into());
        }
    }
    if let Some(s) = get_str(fields, "mix")? {
        let toks: Vec<&str> = s
            .split(',')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .collect();
        if toks.is_empty() {
            return Err("field \"mix\" names no policies".into());
        }
        spec.policy_mix = toks
            .into_iter()
            .map(parse_mix_token)
            .collect::<Result<_, _>>()?;
    }
    match fields.get("admission") {
        None | Some(Scalar::Null) => {}
        Some(Scalar::Str(s)) if s == "free" => spec.admission = Admission::Free,
        Some(Scalar::Num(n)) => {
            spec.admission = Admission::PiLevel(n.parse::<u32>().map_err(|_| {
                format!("field \"admission\" must be \"free\" or a PI level, got `{n}`")
            })?)
        }
        Some(other) => {
            return Err(format!(
                "field \"admission\" must be \"free\" or a PI level, got {other:?}"
            ))
        }
    }
    spec.seed = get_u64(fields, "seed")?.unwrap_or(spec.seed);
    spec.frames_per_cell = get_u64(fields, "frames")?.unwrap_or(spec.frames_per_cell);
    spec.tenants_per_cell = get_u64(fields, "cell")?.map_or(spec.tenants_per_cell, |c| c as usize);
    spec.quantum = get_u64(fields, "quantum")?.unwrap_or(spec.quantum);
    spec.jitter = get_bool(fields, "jitter")?.unwrap_or(spec.jitter);
    Ok(spec)
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

    /// One line per rejection site: each line carries exactly one fault,
    /// and its `bad_request` detail is pinned byte for byte.
    #[test]
    fn every_single_fault_detail_is_pinned() {
        for (line, want) in [
            // The flat-object scanner.
            ("not json", "request is not a JSON object"),
            (
                r#"{"id":"x","nested":{"a":1},"policy":"cd"}"#,
                r#"field "nested": nested values are not supported"#,
            ),
            (
                r#"{"id":"x","id":"y","workload":"MAIN","policy":"cd"}"#,
                r#"duplicate field "id""#,
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd"} extra"#,
                "trailing garbage `e` after object",
            ),
            (
                r#"{"id":"x","workload":MAIN,"policy":"cd"}"#,
                r#"field "workload": bad value `MAIN`"#,
            ),
            (r#"{"id" "x"}"#, r#"missing ':' after "id""#),
            (r#"{"id":"x""#, "expected ',' or '}', found None"),
            // Identity and job kind.
            (
                r#"{"workload":"MAIN","policy":"cd"}"#,
                r#"missing required field "id""#,
            ),
            (
                r#"{"id":"","workload":"MAIN","policy":"cd"}"#,
                r#"field "id" must be non-empty"#,
            ),
            (
                r#"{"id":7,"workload":"MAIN","policy":"cd"}"#,
                r#"field "id" must be a string, got Num("7")"#,
            ),
            (
                r#"{"id":"x","job":"batch","tenants":4}"#,
                r#"unknown job kind "batch""#,
            ),
            // Unknown and foreign fields, per kind.
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","trace_on":true}"#,
                r#"unknown request field "trace_on""#,
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","Trace":true}"#,
                r#"unknown request field "Trace""#,
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","tenants":4}"#,
                r#"unknown request field "tenants""#,
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","family":"lru"}"#,
                r#"unknown request field "family""#,
            ),
            (
                r#"{"id":"x","job":"sweep","workload":"MAIN","family":"lru","tenants":4}"#,
                r#"unknown request field "tenants""#,
            ),
            (
                r#"{"id":"x","job":"sweep","workload":"MAIN","family":"lru","policy":"lru"}"#,
                r#"field "policy" does not apply to sweep jobs"#,
            ),
            (
                r#"{"id":"x","job":"sweep","workload":"MAIN","family":"lru","frames":8}"#,
                r#"field "frames" does not apply to sweep jobs"#,
            ),
            (
                r#"{"id":"x","job":"sweep","workload":"MAIN","family":"lru","trace":true}"#,
                r#"field "trace" does not apply to sweep jobs"#,
            ),
            (
                r#"{"id":"x","job":"sweep","workload":"MAIN","family":"lru","metrics":true}"#,
                r#"field "metrics" does not apply to sweep jobs"#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"shards":3}"#,
                r#"unknown request field "shards""#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"name":"T"}"#,
                r#"unknown request field "name""#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"tau":9}"#,
                r#"unknown request field "tau""#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"page_bytes":512}"#,
                r#"unknown request field "page_bytes""#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"family":"lru"}"#,
                r#"unknown request field "family""#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"workload":"MAIN"}"#,
                r#"field "workload" does not apply to fleet jobs"#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"source":"S"}"#,
                r#"field "source" does not apply to fleet jobs"#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"policy":"cd"}"#,
                r#"field "policy" does not apply to fleet jobs"#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"level":2}"#,
                r#"field "level" does not apply to fleet jobs"#,
            ),
            // Fields every kind shares.
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","scale":"huge"}"#,
                r#"unknown scale "huge""#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"scale":"huge"}"#,
                r#"unknown scale "huge""#,
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","client":""}"#,
                r#"field "client" must be non-empty"#,
            ),
            (
                r#"{"id":"x","job":"sweep","workload":"MAIN","family":"lru","client":3}"#,
                r#"field "client" must be a string, got Num("3")"#,
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","trace":1}"#,
                r#"field "trace" must be a boolean, got Num("1")"#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"metrics":"yes"}"#,
                r#"field "metrics" must be a boolean, got Str("yes")"#,
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","deadline_ms":-1}"#,
                "field \"deadline_ms\" must be a non-negative integer, got `-1`",
            ),
            (
                r#"{"id":"x","job":"sweep","workload":"MAIN","family":"lru","job_kind":1}"#,
                r#"unknown request field "job_kind""#,
            ),
            // The work source.
            (
                r#"{"id":"x","workload":"M","source":"S","policy":"cd"}"#,
                r#"give "workload" or "source", not both"#,
            ),
            (
                r#"{"id":"x","policy":"cd"}"#,
                r#"missing "workload" or "source""#,
            ),
            (r#"{"id":"x"}"#, r#"missing "workload" or "source""#),
            (
                r#"{"id":"x","job":"sweep","family":"lru"}"#,
                r#"missing "workload" or "source""#,
            ),
            (
                r#"{"id":"x","source":"S","name":4,"policy":"cd"}"#,
                r#"field "name" must be a string, got Num("4")"#,
            ),
            // Policy, CD level and policy parameters.
            (
                r#"{"id":"x","workload":"MAIN"}"#,
                r#"missing required field "policy""#,
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"zap"}"#,
                r#"unknown policy "zap""#,
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","level":"middle"}"#,
                r#"unknown CD level "middle""#,
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd-nolocks","level":-1}"#,
                "CD level must be a small integer, got `-1`",
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","level":true}"#,
                r#"bad "level": Bool(true)"#,
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"lru"}"#,
                r#"policy "lru" needs a "frames" field"#,
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"opt","frames":"8"}"#,
                r#"field "frames" must be a number, got Str("8")"#,
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"ws"}"#,
                r#"policy "ws" needs a "tau" field"#,
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"ws","tau":-4}"#,
                "field \"tau\" must be a non-negative integer, got `-4`",
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"pff"}"#,
                r#"policy "pff" needs a "threshold" field"#,
            ),
            // Pipeline knobs.
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","page_bytes":1.5}"#,
                "field \"page_bytes\" must be a non-negative integer, got `1.5`",
            ),
            (
                r#"{"id":"x","job":"sweep","workload":"MAIN","family":"lru","fault_service":true}"#,
                r#"field "fault_service" must be a number, got Bool(true)"#,
            ),
            (
                r#"{"id":"x","workload":"MAIN","policy":"cd","min_alloc":-2}"#,
                "field \"min_alloc\" must be a non-negative integer, got `-2`",
            ),
            // Sweep family and grid density.
            (
                r#"{"id":"x","job":"sweep","workload":"MAIN"}"#,
                r#"sweep jobs need a "family" field ("lru" or "ws")"#,
            ),
            (
                r#"{"id":"x","job":"sweep","workload":"MAIN","family":"opt"}"#,
                r#"unknown sweep family "opt""#,
            ),
            (
                r#"{"id":"x","job":"sweep","workload":"MAIN","family":"lru","points":4}"#,
                r#"field "points" only applies to "ws" sweeps"#,
            ),
            (
                r#"{"id":"x","job":"sweep","workload":"MAIN","family":"ws","points":0}"#,
                r#"field "points" must be in 1..=64 (points per decade)"#,
            ),
            (
                r#"{"id":"x","job":"sweep","workload":"MAIN","family":"ws","points":65}"#,
                r#"field "points" must be in 1..=64 (points per decade)"#,
            ),
            // Fleet knobs.
            (
                r#"{"id":"x","job":"fleet"}"#,
                r#"fleet jobs need a "tenants" field"#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":10001}"#,
                r#"field "tenants" must be at most 10000, got 10001"#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"workloads":" , "}"#,
                r#"field "workloads" names no workloads"#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"mix":","}"#,
                r#"field "mix" names no policies"#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"mix":"cd,zap"}"#,
                r#"unknown mix policy "zap""#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"mix":"lru"}"#,
                r#"mix policy "lru" needs "lru:<frames>""#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"mix":"ws:x"}"#,
                r#"mix policy "ws:x": tau must be a non-negative integer"#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"mix":"cd:zz"}"#,
                r#"mix policy "cd:zz": unknown CD level "zz""#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"admission":"vip"}"#,
                r#"field "admission" must be "free" or a PI level, got Str("vip")"#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"admission":-1}"#,
                "field \"admission\" must be \"free\" or a PI level, got `-1`",
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"jitter":7}"#,
                r#"field "jitter" must be a boolean, got Num("7")"#,
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"seed":-1}"#,
                "field \"seed\" must be a non-negative integer, got `-1`",
            ),
            (
                r#"{"id":"x","job":"fleet","tenants":4,"quantum":"fast"}"#,
                r#"field "quantum" must be a number, got Str("fast")"#,
            ),
        ] {
            assert_eq!(parse_request(line).expect_err(line), want, "{line}");
        }
    }

    /// The README's field table is the schema clients read: the same
    /// fields in the same order, each with the treatment `FIELDS` gives
    /// it ("yes" and "required" are both accepted).
    #[test]
    fn readme_field_table_matches_the_schema() {
        let readme = include_str!("../../../README.md");
        let table: Vec<(&str, [Treatment; 3])> = readme
            .lines()
            .skip_while(|l| *l != "| field | sim | sweep | fleet | meaning |")
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|row| {
                let cells: Vec<&str> = row.split('|').map(str::trim).collect();
                let treat = |cell: &str| match cell {
                    "yes" | "required" => Accepted,
                    "does not apply" => Foreign,
                    "unknown" => Unknown,
                    other => panic!("`{other}` in README row {row}"),
                };
                let name = cells[1].trim_matches('`');
                (name, [treat(cells[2]), treat(cells[3]), treat(cells[4])])
            })
            .collect();
        assert_eq!(table, FIELDS);
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
        let spec = r.fleet_spec();
        assert_eq!(spec.tenants, 64);
        assert_eq!(spec.threads, 1, "fleet jobs are pinned to one thread");
        assert_eq!(spec.seed, FleetSpec::default().seed);
        assert_eq!(spec.workloads, FleetSpec::default().workloads);
    }

    #[test]
    fn fleet_request_parses_every_knob() {
        let r = fleet(
            r#"{"id":"f2","job":"fleet","tenants":128,"seed":42,"workloads":"FDJAC, TQL","mix":"cd:innermost,ws:2000,lru:16","frames":48,"cell":3,"quantum":200,"admission":2,"jitter":false,"deadline_ms":900}"#,
        );
        let spec = r.fleet_spec();
        assert_eq!(spec.workloads, vec!["FDJAC".to_string(), "TQL".to_string()]);
        assert_eq!(
            spec.policy_mix,
            vec![
                PolicySpec::Cd {
                    selector: CdSelector::Innermost
                },
                PolicySpec::Ws { tau: 2000 },
                PolicySpec::Lru { frames: 16 },
            ]
        );
        assert_eq!(r.deadline_ms, Some(900));
        assert_eq!(spec.seed, 42);
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
