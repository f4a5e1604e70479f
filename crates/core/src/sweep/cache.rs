//! Content-addressed result cache for sweep points.
//!
//! Every simulated operating point is keyed by a 128-bit SplitMix64-based
//! hash of everything that determines its result: the program source, the
//! plain and directive (instrumented) traces, the page geometry and
//! pipeline knobs, and the (policy, parameter) pair. Results are held in
//! memory and optionally persisted as JSON lines under
//! `target/cdmm-cache/`, so re-running a table after an unrelated edit
//! only simulates the invalidated points.
//!
//! Every persisted line carries a checksum over its own payload; a line
//! that fails to parse or whose checksum does not match is discarded and
//! the point recomputed — a poisoned cache is never trusted.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cdmm_trace::synth::{mix, GAMMA};
use cdmm_trace::{COp, CompressedTrace, Event};
use cdmm_vmsim::{ExecStats, LruCurve, Metrics, WsCurve};

/// A 128-bit content hash identifying one simulation input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl CacheKey {
    /// Renders the key as 32 hex digits.
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses a 32-hex-digit key.
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(CacheKey { hi, lo })
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// A streaming hasher producing [`CacheKey`]s from two independent
/// SplitMix64 lanes (dependency-free, stable across platforms and runs).
#[derive(Debug, Clone)]
pub struct KeyHasher {
    a: u64,
    b: u64,
    len: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyHasher {
    /// Creates a hasher with fixed seeds.
    pub fn new() -> Self {
        KeyHasher {
            a: mix(0x5EED_0001),
            b: mix(0xCAFE_F00D),
            len: 0,
        }
    }

    /// Absorbs one 64-bit word.
    pub fn write_u64(&mut self, v: u64) {
        self.len = self.len.wrapping_add(1);
        self.a = mix(self.a.wrapping_add(GAMMA) ^ v);
        self.b = mix(self.b.rotate_left(23) ^ v.wrapping_mul(GAMMA));
    }

    /// Absorbs a 128-bit word.
    pub fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    /// Absorbs raw bytes (length-prefixed, 8-byte little-endian chunks).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    /// Absorbs a string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Finalizes the key.
    pub fn finish(&self) -> CacheKey {
        CacheKey {
            hi: mix(self.a ^ self.len),
            lo: mix(self.b ^ self.len.wrapping_mul(GAMMA)),
        }
    }
}

/// Absorbs one event (reference or directive) into a hasher.
fn fingerprint_event(h: &mut KeyHasher, e: &Event) {
    match e {
        Event::Ref(p) => {
            h.write_u64(1);
            h.write_u64(p.0 as u64);
        }
        Event::Alloc(args) => {
            h.write_u64(2);
            h.write_u64(args.len() as u64);
            for a in args {
                h.write_u64(a.pi as u64);
                h.write_u64(a.pages);
            }
        }
        Event::Lock { pj, ranges } => {
            h.write_u64(3);
            h.write_u64(*pj as u64);
            h.write_u64(ranges.len() as u64);
            for r in ranges {
                h.write_u64(r.start as u64);
                h.write_u64(r.end as u64);
            }
        }
        Event::Unlock { ranges } => {
            h.write_u64(4);
            h.write_u64(ranges.len() as u64);
            for r in ranges {
                h.write_u64(r.start as u64);
                h.write_u64(r.end as u64);
            }
        }
    }
}

/// Absorbs a compressed trace — reference string *and* directive
/// stream — by its run/directive ops: O(ops), not O(references). The
/// builder is deterministic, so two compressed traces encode the same
/// event stream iff their ops are identical, and hashing the ops
/// distinguishes content exactly.
pub fn fingerprint_compressed(h: &mut KeyHasher, t: &CompressedTrace) {
    h.write_u64(t.virtual_pages() as u64);
    h.write_u64(t.op_count() as u64);
    for op in t.ops() {
        match op {
            COp::Run { start, stride, len } => {
                h.write_u64(5);
                h.write_u64(*start as u64);
                h.write_u64(*stride as u32 as u64);
                h.write_u64(*len as u64);
            }
            COp::Cycle { body, reps } => {
                h.write_u64(6);
                h.write_u64(*reps as u64);
                h.write_u64(body.len() as u64);
                for r in body.iter() {
                    h.write_u64(r.start.0 as u64);
                    h.write_u64(r.stride as u32 as u64);
                    h.write_u64(r.len as u64);
                }
            }
            COp::Dir(e) => fingerprint_event(h, e),
        }
    }
}

/// Checksum over a serialized cache entry's payload fields.
fn entry_checksum(key: CacheKey, m: &Metrics) -> u64 {
    let mut h = KeyHasher::new();
    h.write_u64(key.hi);
    h.write_u64(key.lo);
    h.write_u64(m.refs);
    h.write_u64(m.faults);
    h.write_u128(m.mem_integral);
    h.write_u128(m.fault_mem_integral);
    h.write_u64(m.fault_service);
    h.write_u64(m.peak_resident as u64);
    h.write_u64(m.recovered_directives);
    h.write_u64(m.degraded_refs);
    h.finish().lo
}

/// Serializes one cache entry as a JSON line.
pub fn encode_line(key: CacheKey, m: &Metrics) -> String {
    format!(
        "{{\"v\":1,\"k\":\"{}\",\"refs\":{},\"pf\":{},\"mi\":\"{}\",\"fmi\":\"{}\",\"fs\":{},\"peak\":{},\"rec\":{},\"deg\":{},\"c\":\"{:016x}\"}}",
        key.to_hex(),
        m.refs,
        m.faults,
        m.mem_integral,
        m.fault_mem_integral,
        m.fault_service,
        m.peak_resident,
        m.recovered_directives,
        m.degraded_refs,
        entry_checksum(key, m),
    )
}

/// Extracts the raw text of `"name":value` from a JSON-line, without
/// surrounding quotes.
fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

/// Parses one JSON line back into a cache entry. Returns `None` — the
/// entry is discarded — on any syntactic damage, unknown version, or
/// checksum mismatch.
pub fn decode_line(line: &str) -> Option<(CacheKey, Metrics)> {
    if field(line, "v")? != "1" {
        return None;
    }
    let key = CacheKey::from_hex(field(line, "k")?)?;
    let m = Metrics {
        refs: field(line, "refs")?.parse().ok()?,
        faults: field(line, "pf")?.parse().ok()?,
        mem_integral: field(line, "mi")?.parse().ok()?,
        fault_mem_integral: field(line, "fmi")?.parse().ok()?,
        fault_service: field(line, "fs")?.parse().ok()?,
        peak_resident: field(line, "peak")?.parse().ok()?,
        recovered_directives: field(line, "rec")?.parse().ok()?,
        degraded_refs: field(line, "deg")?.parse().ok()?,
    };
    let stored = u64::from_str_radix(field(line, "c")?, 16).ok()?;
    if stored != entry_checksum(key, &m) {
        return None;
    }
    Some((key, m))
}

/// File name of the persisted entries inside a cache directory.
const CACHE_FILE: &str = "results.jsonl";

/// Sibling file collecting damaged lines found by the startup fsck, for
/// post-mortem inspection; never read back as entries.
const QUARANTINE_FILE: &str = "results.jsonl.quarantine";

/// The temp-file sibling every atomic rewrite goes through.
fn tmp_path(path: &Path) -> PathBuf {
    let mut p = path.as_os_str().to_owned();
    p.push(".tmp");
    PathBuf::from(p)
}

/// Writes `contents` to `path` via temp file + `rename`, so readers (and
/// crash recovery) only ever see the old file or the complete new one —
/// a kill mid-write leaves the previous generation intact.
fn atomic_write(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut out = fs::File::create(&tmp)?;
        out.write_all(contents.as_bytes())?;
        out.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// The bytes of the last successful flush, kept so the next flush
/// encodes only the entries inserted since.
struct Image {
    /// Every line written, newline included, in key order.
    text: String,
    /// `(key, end of its line in text)`, key-ascending.
    lines: Vec<(CacheKey, usize)>,
}

impl Image {
    /// Encodes `entries` whole.
    fn encode(mut entries: Vec<(CacheKey, Metrics)>) -> Image {
        entries.sort_by_key(|(k, _)| *k);
        let mut image = Image {
            text: String::new(),
            lines: Vec::with_capacity(entries.len()),
        };
        for (k, m) in &entries {
            image.push(*k, &encode_line(*k, m));
        }
        image
    }

    fn push(&mut self, key: CacheKey, line: &str) {
        self.text.push_str(line);
        self.text.push('\n');
        self.lines.push((key, self.text.len()));
    }

    /// This image with `fresh` lines (key-ascending, unique) merged in,
    /// each replacing the line of an equal key.
    fn merged(&self, fresh: &[(CacheKey, String)]) -> Image {
        let mut out = Image {
            text: String::with_capacity(self.text.len() + fresh.len() * 128),
            lines: Vec::with_capacity(self.lines.len() + fresh.len()),
        };
        let mut i = 0;
        for (key, line) in fresh {
            i = self.copy_lines(&mut out, i, |k| k < *key);
            if self.lines.get(i).is_some_and(|&(k, _)| k == *key) {
                i += 1;
            }
            out.push(*key, line);
        }
        self.copy_lines(&mut out, i, |_| true);
        out
    }

    /// Copies this image's lines into `out` from index `i` on, while
    /// `keep` holds for their keys; returns the first index not copied.
    fn copy_lines(&self, out: &mut Image, mut i: usize, keep: impl Fn(CacheKey) -> bool) -> usize {
        while let Some(&(k, end)) = self.lines.get(i) {
            if !keep(k) {
                break;
            }
            let start = if i == 0 { 0 } else { self.lines[i - 1].1 };
            out.text.push_str(&self.text[start..end]);
            out.lines.push((k, out.text.len()));
            i += 1;
        }
        i
    }
}

struct Store {
    path: Option<PathBuf>,
    map: Mutex<HashMap<CacheKey, Metrics>>,
    pending: Mutex<Vec<(CacheKey, Metrics)>>,
    /// What the last successful flush wrote (`None` before the first).
    image: Mutex<Option<Image>>,
    /// Whole-trace sweep curves, keyed per program. Memory-only: a
    /// curve rebuilds in one trace pass, so persisting it would cost
    /// more than it saves, and the per-point entries it feeds still
    /// flow into the persisted `map`.
    lru_curves: Mutex<HashMap<CacheKey, Arc<LruCurve>>>,
    ws_curves: Mutex<HashMap<CacheKey, Arc<WsCurve>>>,
}

/// A concurrent result cache with hit/miss and simulation wall-time
/// counters.
///
/// All methods take `&self`; the cache is safe to share across executor
/// workers. The counters are live even when storage is disabled, so the
/// execution engine always reports per-point timing.
pub struct ResultCache {
    store: Option<Store>,
    hits: AtomicU64,
    misses: AtomicU64,
    sim_points: AtomicU64,
    sim_wall_ns: AtomicU64,
    discarded: u64,
}

impl ResultCache {
    /// A cache that stores nothing (every lookup misses); counters still
    /// track points and wall time.
    pub fn disabled() -> Self {
        Self::with_store(None, 0)
    }

    fn with_store(store: Option<Store>, discarded: u64) -> Self {
        ResultCache {
            store,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            sim_points: AtomicU64::new(0),
            sim_wall_ns: AtomicU64::new(0),
            discarded,
        }
    }

    /// An in-memory cache (no persistence).
    pub fn in_memory() -> Self {
        Self::with_store(
            Some(Store {
                path: None,
                map: Mutex::new(HashMap::new()),
                pending: Mutex::new(Vec::new()),
                image: Mutex::new(None),
                lru_curves: Mutex::new(HashMap::new()),
                ws_curves: Mutex::new(HashMap::new()),
            }),
            0,
        )
    }

    /// Opens (creating if needed) a persistent cache in `dir`, running a
    /// startup fsck over its `results.jsonl`:
    ///
    /// - a stale `.tmp` sibling (crash between write and rename) is
    ///   deleted — it was never the live file;
    /// - every valid entry is loaded;
    /// - damaged lines (torn tail from a kill mid-append, bit rot,
    ///   stale format) are appended to `results.jsonl.quarantine`, the
    ///   live file is compacted to valid entries only via atomic
    ///   rename, and the count lands in
    ///   [`ResultCache::discarded_entries`].
    ///
    /// The fsck is idempotent: reopening a quarantined cache finds a
    /// clean file and quarantines nothing.
    pub fn at_dir(dir: &Path) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let path = dir.join(CACHE_FILE);
        let _ = fs::remove_file(tmp_path(&path));
        let mut map = HashMap::new();
        let mut entries = Vec::new();
        let mut damaged: Vec<String> = Vec::new();
        if let Ok(text) = fs::read_to_string(&path) {
            for line in text.lines() {
                if line.trim().is_empty() {
                    continue;
                }
                match decode_line(line) {
                    Some((k, m)) => {
                        if map.insert(k, m).is_none() {
                            entries.push((k, m));
                        }
                    }
                    None => damaged.push(line.to_string()),
                }
            }
        }
        if !damaged.is_empty() {
            let mut q = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(QUARANTINE_FILE))?;
            for line in &damaged {
                writeln!(q, "{line}")?;
            }
            q.sync_all()?;
            // Compact the live file down to its valid entries so the
            // damage is dealt with exactly once.
            entries.sort_by_key(|(k, _)| *k);
            let mut clean = String::new();
            for (k, m) in &entries {
                clean.push_str(&encode_line(*k, m));
                clean.push('\n');
            }
            atomic_write(&path, &clean)?;
        }
        Ok(Self::with_store(
            Some(Store {
                path: Some(path),
                map: Mutex::new(map),
                pending: Mutex::new(Vec::new()),
                image: Mutex::new(None),
                lru_curves: Mutex::new(HashMap::new()),
                ws_curves: Mutex::new(HashMap::new()),
            }),
            damaged.len() as u64,
        ))
    }

    /// Opens the default persistent cache under `target/cdmm-cache/`
    /// (override the root with `CDMM_CACHE_DIR`).
    pub fn persistent() -> std::io::Result<Self> {
        let dir = std::env::var_os("CDMM_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                std::env::var_os("CARGO_TARGET_DIR")
                    .map(PathBuf::from)
                    .unwrap_or_else(|| PathBuf::from("target"))
                    .join("cdmm-cache")
            });
        Self::at_dir(&dir)
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.store
            .as_ref()
            .map_or(0, |s| s.map.lock().expect("cache lock").len())
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Persisted lines discarded at load time (corrupt or stale format).
    pub fn discarded_entries(&self) -> u64 {
        self.discarded
    }

    /// Looks a key up, counting a hit or miss.
    pub fn lookup(&self, key: CacheKey) -> Option<Metrics> {
        let found = self
            .store
            .as_ref()
            .and_then(|s| s.map.lock().expect("cache lock").get(&key).copied());
        let hit = found.is_some();
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores a freshly computed result.
    pub fn insert(&self, key: CacheKey, m: Metrics) {
        if let Some(s) = &self.store {
            s.map.lock().expect("cache lock").insert(key, m);
            if s.path.is_some() {
                s.pending.lock().expect("cache lock").push((key, m));
            }
        }
    }

    /// Recalls or builds the whole LRU sweep curve for one program.
    ///
    /// Curves are held in memory only and shared by `Arc` — one entry
    /// answers every allocation of the program's sweep. A disabled
    /// cache just builds (mirroring how point lookups always miss).
    /// `build` returns `None` when a cancellation poll stopped it, and
    /// a stopped build is not memoized. The builder runs outside the
    /// map lock; two racing builders may both compute, and the first
    /// insert wins — both results are identical by construction.
    pub(crate) fn lru_curve(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> Option<LruCurve>,
    ) -> Option<Arc<LruCurve>> {
        memo_curve(self.store.as_ref().map(|s| &s.lru_curves), key, build)
    }

    /// Recalls or builds the whole WS sweep curve for one program; see
    /// [`ResultCache::lru_curve`] for the sharing semantics.
    pub(crate) fn ws_curve(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> Option<WsCurve>,
    ) -> Option<Arc<WsCurve>> {
        memo_curve(self.store.as_ref().map(|s| &s.ws_curves), key, build)
    }

    /// Records the wall time of one simulated (non-cached) point.
    pub fn record_sim(&self, wall: Duration) {
        self.sim_points.fetch_add(1, Ordering::Relaxed);
        self.sim_wall_ns.fetch_add(
            wall.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Persists the cache. Returns the number of newly flushed entries
    /// (0 for memory-only and disabled caches, or when nothing changed).
    ///
    /// The write is crash-safe: the full entry set (sorted by key, so
    /// the file is deterministic) goes to a `.tmp` sibling, is synced,
    /// and atomically renamed over `results.jsonl`. A `kill -9` at any
    /// instant leaves either the previous complete generation or the
    /// new one — never a torn file. A failed write keeps its entries
    /// pending, so the next flush (or the one on drop) writes them.
    pub fn flush(&self) -> std::io::Result<usize> {
        let Some(s) = &self.store else { return Ok(0) };
        let Some(path) = &s.path else { return Ok(0) };
        let drained = std::mem::take(&mut *s.pending.lock().expect("cache lock"));
        if drained.is_empty() {
            return Ok(0);
        }
        // Held across the write, so flushes take turns on the temp file.
        let mut image = s.image.lock().expect("cache lock");
        let next = match image.as_ref() {
            // The first flush encodes every entry; later ones only the
            // keys inserted since, at their current values, merged into
            // what was written last.
            None => {
                let map = s.map.lock().expect("cache lock");
                Image::encode(map.iter().map(|(k, m)| (*k, *m)).collect())
            }
            Some(written) => {
                let mut keys: Vec<CacheKey> = drained.iter().map(|(k, _)| *k).collect();
                keys.sort_unstable();
                keys.dedup();
                let fresh: Vec<(CacheKey, Metrics)> = {
                    let map = s.map.lock().expect("cache lock");
                    keys.iter().map(|k| (*k, map[k])).collect()
                };
                let fresh: Vec<(CacheKey, String)> = fresh
                    .iter()
                    .map(|(k, m)| (*k, encode_line(*k, m)))
                    .collect();
                written.merged(&fresh)
            }
        };
        if let Err(e) = atomic_write(path, &next.text) {
            s.pending.lock().expect("cache lock").extend(drained);
            return Err(e);
        }
        *image = Some(next);
        Ok(drained.len())
    }

    /// Snapshot of the execution counters.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            sim_points: self.sim_points.load(Ordering::Relaxed),
            sim_wall_ns: self.sim_wall_ns.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ResultCache {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// The curve memo of [`ResultCache::lru_curve`] and
/// [`ResultCache::ws_curve`] over one family's map (`None`: a disabled
/// cache, which only builds).
fn memo_curve<C>(
    map: Option<&Mutex<HashMap<CacheKey, Arc<C>>>>,
    key: CacheKey,
    build: impl FnOnce() -> Option<C>,
) -> Option<Arc<C>> {
    let Some(map) = map else {
        return build().map(Arc::new);
    };
    if let Some(c) = map.lock().expect("cache lock").get(&key) {
        return Some(Arc::clone(c));
    }
    let built = Arc::new(build()?);
    Some(Arc::clone(
        map.lock().expect("cache lock").entry(key).or_insert(built),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics(seed: u64) -> Metrics {
        Metrics {
            refs: seed * 31 + 7,
            faults: seed * 3,
            mem_integral: (seed as u128) << 64 | 42,
            fault_mem_integral: seed as u128 * 999,
            fault_service: 2000,
            peak_resident: seed as usize % 97,
            recovered_directives: seed % 5,
            degraded_refs: seed % 11,
        }
    }

    #[test]
    fn hasher_is_deterministic_and_sensitive() {
        let mut a = KeyHasher::new();
        let mut b = KeyHasher::new();
        a.write_str("hello");
        b.write_str("hello");
        assert_eq!(a.finish(), b.finish());
        let mut c = KeyHasher::new();
        c.write_str("hellp");
        assert_ne!(a.finish(), c.finish());
        // Length is absorbed: "ab","c" != "a","bc".
        let mut d = KeyHasher::new();
        d.write_str("ab");
        d.write_str("c");
        let mut e = KeyHasher::new();
        e.write_str("a");
        e.write_str("bc");
        assert_ne!(d.finish(), e.finish());
    }

    #[test]
    fn key_hex_round_trips() {
        let k = CacheKey {
            hi: 0x0123_4567_89ab_cdef,
            lo: 0xfedc_ba98_7654_3210,
        };
        assert_eq!(CacheKey::from_hex(&k.to_hex()), Some(k));
        assert_eq!(CacheKey::from_hex("zz"), None);
    }

    #[test]
    fn line_round_trips_bit_exactly() {
        for seed in 0..50 {
            let key = CacheKey {
                hi: mix(seed),
                lo: mix(seed ^ GAMMA),
            };
            let m = sample_metrics(seed);
            let line = encode_line(key, &m);
            let (k2, m2) = decode_line(&line).expect("round trip");
            assert_eq!(k2, key);
            assert_eq!(m2, m, "u128 integrals survive the string encoding");
        }
    }

    #[test]
    fn tampered_lines_are_rejected() {
        let key = CacheKey { hi: 1, lo: 2 };
        let m = sample_metrics(9);
        let good = encode_line(key, &m);
        assert!(decode_line(&good).is_some());
        // Flip the fault count: checksum must catch it.
        let bad = good.replace("\"pf\":27", "\"pf\":28");
        assert_ne!(good, bad);
        assert_eq!(decode_line(&bad), None);
        assert_eq!(decode_line("not json at all"), None);
        assert_eq!(decode_line("{\"v\":2}"), None);
    }

    #[test]
    fn disabled_cache_counts_misses_only() {
        let c = ResultCache::disabled();
        let k = CacheKey { hi: 7, lo: 8 };
        assert_eq!(c.lookup(k), None);
        c.insert(k, sample_metrics(1));
        assert_eq!(c.lookup(k), None, "disabled cache stores nothing");
        let s = c.stats();
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 2);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cdmm-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn flush_is_atomic_and_round_trips() {
        let dir = temp_dir("atomic");
        let c = ResultCache::at_dir(&dir).expect("open");
        for seed in 0..20u64 {
            c.insert(
                CacheKey {
                    hi: mix(seed),
                    lo: mix(seed ^ 1),
                },
                sample_metrics(seed),
            );
        }
        assert_eq!(c.flush().expect("flush"), 20);
        assert_eq!(c.flush().expect("flush"), 0, "nothing pending");
        assert!(
            !tmp_path(&dir.join(CACHE_FILE)).exists(),
            "tmp renamed away"
        );

        // Every persisted line is valid and the reopen sees all entries.
        let text = fs::read_to_string(dir.join(CACHE_FILE)).expect("read");
        assert_eq!(text.lines().count(), 20);
        assert!(text.lines().all(|l| decode_line(l).is_some()));
        let c2 = ResultCache::at_dir(&dir).expect("reopen");
        assert_eq!(c2.len(), 20);
        assert_eq!(c2.discarded_entries(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Later flushes encode only what changed since the last one; the
    /// file they leave must be exactly the full re-encode of every
    /// entry, through re-inserted keys, a failed flush and a reopen.
    #[test]
    fn incremental_flushes_write_the_full_re_encode() {
        let dir = temp_dir("incremental");
        let path = dir.join(CACHE_FILE);
        let key = |n: u64| CacheKey { hi: mix(n), lo: n };
        let mut want: std::collections::BTreeMap<CacheKey, Metrics> = Default::default();
        let full = |want: &std::collections::BTreeMap<CacheKey, Metrics>| -> String {
            want.iter()
                .map(|(k, m)| encode_line(*k, m) + "\n")
                .collect()
        };
        let c = ResultCache::at_dir(&dir).expect("open");
        let mut n = 0u64;
        for round in 0..12u64 {
            for _ in 0..1 + mix(round) % 9 {
                n += 1;
                // Now and then an earlier key comes back with a new value.
                let k = if n.is_multiple_of(4) {
                    key(mix(n) % n)
                } else {
                    key(n)
                };
                let m = sample_metrics(mix(n ^ round) % 1000);
                c.insert(k, m);
                want.insert(k, m);
            }
            if round == 5 {
                fs::create_dir(tmp_path(&path)).expect("squat on the temp path");
                assert!(c.flush().is_err());
                fs::remove_dir(tmp_path(&path)).expect("unsquat");
                continue;
            }
            c.flush().expect("flush");
            let text = fs::read_to_string(&path).expect("read");
            assert_eq!(text, full(&want), "round {round}");
        }
        drop(c);
        let c = ResultCache::at_dir(&dir).expect("reopen");
        let m = sample_metrics(3);
        c.insert(key(1), m);
        want.insert(key(1), m);
        c.flush().expect("flush");
        assert_eq!(fs::read_to_string(&path).expect("read"), full(&want));
        drop(c);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A flush whose write fails (here a directory squats on the temp
    /// path) loses nothing: the next flush, or the one on drop, writes
    /// the entries it could not.
    #[test]
    fn failed_flush_keeps_its_entries_pending() {
        let dir = temp_dir("flushfail");
        let path = dir.join(CACHE_FILE);
        let lines = || fs::read_to_string(&path).map_or(0, |t| t.lines().count());
        let c = ResultCache::at_dir(&dir).expect("open");
        c.insert(CacheKey { hi: 1, lo: 1 }, sample_metrics(1));
        fs::create_dir(tmp_path(&path)).expect("squat the temp path");
        assert!(c.flush().is_err(), "the temp file cannot be created");
        fs::remove_dir(tmp_path(&path)).expect("unsquat");
        assert_eq!(c.flush().expect("flush"), 1, "the entry is still pending");
        assert_eq!(lines(), 1);

        c.insert(CacheKey { hi: 2, lo: 2 }, sample_metrics(2));
        fs::create_dir(tmp_path(&path)).expect("squat again");
        assert!(c.flush().is_err());
        fs::remove_dir(tmp_path(&path)).expect("unsquat");
        drop(c);
        assert_eq!(lines(), 2, "the flush on drop wrote the pending entry");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flushed_file_is_sorted_and_deterministic() {
        let run = |dir: &Path, order: &[u64]| {
            let c = ResultCache::at_dir(dir).expect("open");
            for &seed in order {
                c.insert(
                    CacheKey {
                        hi: mix(seed),
                        lo: seed,
                    },
                    sample_metrics(seed),
                );
            }
            c.flush().expect("flush");
            fs::read_to_string(dir.join(CACHE_FILE)).expect("read")
        };
        let d1 = temp_dir("sorted-a");
        let d2 = temp_dir("sorted-b");
        let a = run(&d1, &[3, 1, 4, 1, 5, 9, 2, 6]);
        let b = run(&d2, &[9, 6, 5, 4, 3, 2, 1, 1]);
        assert_eq!(a, b, "insertion order must not leak into the file");
        let _ = fs::remove_dir_all(&d1);
        let _ = fs::remove_dir_all(&d2);
    }

    #[test]
    fn fsck_quarantines_torn_tail_and_compacts() {
        let dir = temp_dir("fsck");
        let k1 = CacheKey { hi: 1, lo: 10 };
        let k2 = CacheKey { hi: 2, lo: 20 };
        let good1 = encode_line(k1, &sample_metrics(1));
        let good2 = encode_line(k2, &sample_metrics(2));
        // A kill -9 mid-append leaves a torn final line.
        let torn = &good2[..good2.len() / 2];
        fs::write(dir.join(CACHE_FILE), format!("{good1}\n{good2}\n{torn}\n")).expect("seed file");

        let c = ResultCache::at_dir(&dir).expect("fsck open");
        assert_eq!(c.len(), 2);
        assert_eq!(c.discarded_entries(), 1);
        assert_eq!(c.lookup(k1), Some(sample_metrics(1)));
        assert_eq!(c.lookup(k2), Some(sample_metrics(2)));

        // The torn line moved to quarantine; the live file is clean.
        let q = fs::read_to_string(dir.join(QUARANTINE_FILE)).expect("quarantine");
        assert_eq!(q.lines().collect::<Vec<_>>(), vec![torn]);
        let live = fs::read_to_string(dir.join(CACHE_FILE)).expect("live");
        assert_eq!(live.lines().count(), 2);
        assert!(live.lines().all(|l| decode_line(l).is_some()));

        // Idempotent: the next open quarantines nothing.
        drop(c);
        let c2 = ResultCache::at_dir(&dir).expect("reopen");
        assert_eq!(c2.discarded_entries(), 0);
        assert_eq!(c2.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_file_is_removed_on_open() {
        let dir = temp_dir("staletmp");
        let path = dir.join(CACHE_FILE);
        fs::write(
            &path,
            format!(
                "{}\n",
                encode_line(CacheKey { hi: 5, lo: 6 }, &sample_metrics(5))
            ),
        )
        .expect("seed");
        fs::write(tmp_path(&path), "half-written generation").expect("tmp");
        let c = ResultCache::at_dir(&dir).expect("open");
        assert!(!tmp_path(&path).exists(), "stale tmp dropped");
        assert_eq!(c.len(), 1);
        assert_eq!(c.discarded_entries(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_is_reported_in_discarded_entries() {
        let dir = temp_dir("qobs");
        fs::write(dir.join(CACHE_FILE), "torn garbage line\nmore rot\n").expect("seed");
        let c = ResultCache::at_dir(&dir).expect("open");
        assert_eq!(c.discarded_entries(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_cache_hits_after_insert() {
        let c = ResultCache::in_memory();
        let k = CacheKey { hi: 7, lo: 8 };
        let m = sample_metrics(3);
        assert_eq!(c.lookup(k), None);
        c.insert(k, m);
        assert_eq!(c.lookup(k), Some(m));
        let s = c.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
        assert!((s.hit_rate() - 50.0).abs() < 1e-9);
    }
}
