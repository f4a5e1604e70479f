//! The shared `BENCH_*.json` artifact format: one schema for every
//! bench binary, so the perf-regression gate can diff any of them
//! against checked-in baselines.
//!
//! An [`Artifact`] is a flat list of entries, each a stable string id
//! plus ordered numeric fields. It serializes to pretty-printed JSON
//! with a `schema` version tag (see [`SCHEMA`]) and parses back with a
//! small built-in reader — the workspace has no serde, and the format
//! is deliberately narrow: strings appear only as ids and tags, every
//! measurement is a number.
//!
//! Determinism: fields keep insertion order, integers print exactly,
//! and floats print with Rust's shortest-round-trip `Display`, so
//! re-generating an artifact from the same run yields byte-identical
//! bytes — the property the drift gate and `CDMM_BLESS` workflow rely
//! on. Field-name conventions carry the gate semantics: names ending
//! in `_ns` and the name `refs_per_sec` are wall-clock measurements
//! (machine-dependent, threshold-compared); everything else must match
//! the baseline exactly.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Artifact schema version tag. Bump when the shape changes; the
/// parser accepts the current tag and every entry of
/// [`COMPAT_SCHEMAS`], and rejects everything else. `cdmm-bench/2`
/// differs from `/1` only by fields no bench writes any more, so `/1`
/// baselines still parse.
pub const SCHEMA: &str = "cdmm-bench/2";

/// Older schema tags [`Artifact::from_json`] still accepts, so
/// archived baselines (e.g. `baselines/trajectory/`) remain readable.
pub const COMPAT_SCHEMAS: &[&str] = &["cdmm-bench/1"];

/// A numeric field value: integers survive exactly, everything else is
/// an IEEE double.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// An exact unsigned integer.
    U(u64),
    /// A double (printed with shortest-round-trip `Display`).
    F(f64),
}

impl Num {
    /// The value as a double (exact for integers below 2^53 — every
    /// counter the bench suite emits).
    pub fn as_f64(self) -> f64 {
        match self {
            Num::U(v) => v as f64,
            Num::F(v) => v,
        }
    }
}

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Num::U(v) => write!(f, "{v}"),
            Num::F(v) => {
                debug_assert!(v.is_finite(), "artifacts hold finite measurements");
                // `1.0` Display-prints as "1": force a float marker so
                // the field round-trips as F, not U.
                if *v == v.trunc() && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
        }
    }
}

/// One measured row: a stable id (e.g. `"MAIN/CD"` or
/// `"table3/FDJAC"`) plus ordered `(field, value)` measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Stable identity used to match baseline and fresh rows.
    pub id: String,
    /// Ordered numeric fields.
    pub fields: Vec<(String, Num)>,
}

impl Entry {
    /// A new entry with no fields.
    pub fn new(id: impl Into<String>) -> Self {
        Entry {
            id: id.into(),
            fields: Vec::new(),
        }
    }

    /// Appends an exact integer field.
    pub fn int(mut self, name: &str, v: u64) -> Self {
        self.fields.push((name.to_string(), Num::U(v)));
        self
    }

    /// Appends a double field.
    pub fn float(mut self, name: &str, v: f64) -> Self {
        self.fields.push((name.to_string(), Num::F(v)));
        self
    }

    /// Looks a field up by name.
    pub fn get(&self, name: &str) -> Option<Num> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// A full `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Artifact kind — `"perf"` or `"tables"`; names the output file
    /// `BENCH_<kind>.json`.
    pub kind: String,
    /// Workload scale tag (`"paper"` or `"small"`); baselines only
    /// compare against fresh artifacts of the same scale.
    pub scale: String,
    /// The measured rows.
    pub entries: Vec<Entry>,
}

impl Artifact {
    /// An empty artifact of the given kind and scale.
    pub fn new(kind: &str, scale: &str) -> Self {
        Artifact {
            kind: kind.to_string(),
            scale: scale.to_string(),
            entries: Vec::new(),
        }
    }

    /// The file name this artifact writes to: `BENCH_<kind>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.kind)
    }

    /// Serializes to pretty-printed, deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"kind\": \"{}\",\n", self.kind));
        s.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        s.push_str("  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!("    {{\"id\": \"{}\"", e.id));
            for (name, v) in &e.fields {
                s.push_str(&format!(", \"{name}\": {v}"));
            }
            s.push('}');
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Parses an artifact back from [`Artifact::to_json`] output (or
    /// any JSON of the same narrow shape).
    pub fn from_json(text: &str) -> Result<Artifact, String> {
        Parser::new(text).document()
    }

    /// Writes the artifact into `dir` (created if missing) as
    /// `BENCH_<kind>.json`; returns the written path.
    pub fn write_to_dir(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Reads `BENCH_<kind>.json` from `dir`.
    pub fn read_from_dir(dir: &Path, kind: &str) -> Result<Artifact, String> {
        let path = dir.join(format!("BENCH_{kind}.json"));
        let text =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let a = Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if a.kind != kind {
            return Err(format!(
                "{}: kind {:?} does not match file name (expected {kind:?})",
                path.display(),
                a.kind
            ));
        }
        Ok(a)
    }
}

/// True when a field name denotes a wall-clock measurement (machine-
/// dependent, threshold-compared by the regression gate) rather than a
/// deterministic simulation metric (exact-compared). `_ns` names are
/// durations (regress upward); `_per_sec` names are throughputs
/// (regress downward).
pub fn is_wall_field(name: &str) -> bool {
    name.ends_with("_ns") || name.ends_with("_per_sec")
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            s: text.as_bytes(),
            i: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, ch: u8) -> Result<(), String> {
        match self.peek() {
            Some(c) if c == ch => {
                self.i += 1;
                Ok(())
            }
            other => Err(format!(
                "expected {:?} at byte {}, found {:?}",
                ch as char,
                self.i,
                other.map(|c| c as char)
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.i;
        while self.i < self.s.len() && self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                return Err(format!("escape sequences unsupported at byte {}", self.i));
            }
            self.i += 1;
        }
        if self.i >= self.s.len() {
            return Err("unterminated string".to_string());
        }
        let out = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        self.i += 1;
        Ok(out)
    }

    fn number(&mut self) -> Result<Num, String> {
        self.skip_ws();
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i])
            .map_err(|_| "non-utf8 number".to_string())?;
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Num::U(v));
        }
        text.parse::<f64>()
            .map(Num::F)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    fn entry(&mut self) -> Result<Entry, String> {
        self.expect(b'{')?;
        let mut entry = Entry::new("");
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            if key == "id" {
                entry.id = self.string()?;
            } else {
                let v = self.number()?;
                entry.fields.push((key, v));
            }
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    break;
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
        if entry.id.is_empty() {
            return Err("entry without an \"id\"".to_string());
        }
        Ok(entry)
    }

    fn document(&mut self) -> Result<Artifact, String> {
        self.expect(b'{')?;
        let mut schema = None;
        let mut artifact = Artifact::new("", "");
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "schema" => schema = Some(self.string()?),
                "kind" => artifact.kind = self.string()?,
                "scale" => artifact.scale = self.string()?,
                "entries" => {
                    self.expect(b'[')?;
                    if self.peek() == Some(b']') {
                        self.i += 1;
                    } else {
                        loop {
                            artifact.entries.push(self.entry()?);
                            match self.peek() {
                                Some(b',') => self.i += 1,
                                Some(b']') => {
                                    self.i += 1;
                                    break;
                                }
                                other => {
                                    return Err(format!("expected ',' or ']', found {other:?}"))
                                }
                            }
                        }
                    }
                }
                other => return Err(format!("unknown artifact key {other:?}")),
            }
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    break;
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
        match schema.as_deref() {
            Some(tag) if tag == SCHEMA || COMPAT_SCHEMAS.contains(&tag) => {}
            Some(other) => return Err(format!("schema {other:?} is not the supported {SCHEMA:?}")),
            None => return Err("artifact has no \"schema\" tag".to_string()),
        }
        if self.peek().is_some() {
            return Err("trailing content after artifact".to_string());
        }
        Ok(artifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        let mut a = Artifact::new("perf", "small");
        a.entries.push(
            Entry::new("MAIN/CD")
                .int("refs", 59_053)
                .int("faults", 123)
                .float("mean_mem", 2.5)
                .float("refs_per_sec", 1.25e8)
                .int("simulate_ns", 472_424),
        );
        a.entries
            .push(Entry::new("MAIN/LRU").int("refs", 59_053).float("st", 4.0));
        a
    }

    #[test]
    fn json_round_trips_exactly() {
        let a = sample();
        let text = a.to_json();
        let b = Artifact::from_json(&text).expect("parses");
        assert_eq!(a, b);
        assert_eq!(b.to_json(), text, "re-serialization is byte-identical");
    }

    #[test]
    fn schema_version_is_enforced() {
        let text = sample().to_json().replace(SCHEMA, "cdmm-bench/0");
        let err = Artifact::from_json(&text).unwrap_err();
        assert!(err.contains("cdmm-bench/0"), "{err}");
        let untagged = r#"{"kind": "perf", "scale": "small", "entries": []}"#;
        assert!(Artifact::from_json(untagged)
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn previous_schema_versions_still_parse() {
        let a = sample();
        for old in COMPAT_SCHEMAS {
            let text = a.to_json().replace(SCHEMA, old);
            let b = Artifact::from_json(&text).expect("compat schema parses");
            assert_eq!(a, b);
            // Re-serialization upgrades the tag to the current schema.
            assert!(b.to_json().contains(SCHEMA));
        }
    }

    #[test]
    fn floats_keep_their_type_through_a_round_trip() {
        let mut a = Artifact::new("perf", "small");
        a.entries
            .push(Entry::new("x").float("whole", 4.0).int("count", 4));
        let b = Artifact::from_json(&a.to_json()).expect("parses");
        assert_eq!(b.entries[0].get("whole"), Some(Num::F(4.0)));
        assert_eq!(b.entries[0].get("count"), Some(Num::U(4)));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            r#"{"schema": "cdmm-bench/1", "entries": [{"refs": 1}]}"#,
            r#"{"schema": "cdmm-bench/1", "bogus": 3}"#,
        ] {
            assert!(Artifact::from_json(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn wall_fields_are_classified_by_name() {
        assert!(is_wall_field("simulate_ns"));
        assert!(is_wall_field("refs_per_sec"));
        assert!(is_wall_field("requests_per_sec"));
        assert!(!is_wall_field("faults"));
        assert!(!is_wall_field("mean_mem"));
        assert!(!is_wall_field("scheduler_depth"));
    }

    #[test]
    fn dir_round_trip() {
        let dir = std::env::temp_dir().join(format!("cdmm-artifact-{}", std::process::id()));
        let a = sample();
        let path = a.write_to_dir(&dir).expect("writes");
        assert!(path.ends_with("BENCH_perf.json"));
        let b = Artifact::read_from_dir(&dir, "perf").expect("reads");
        assert_eq!(a, b);
        assert!(Artifact::read_from_dir(&dir, "tables")
            .unwrap_err()
            .contains("BENCH_tables.json"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
