//! Seeded I/O and job fault injection for the chaos suite.
//!
//! Every decision the injector makes is a pure function of `(seed,
//! site, job, attempt)` through SplitMix64, so a chaos run is exactly
//! replayable: the same seed injects the same torn writes and mid-job
//! panics, and the chaos tests can assert the surviving responses
//! byte-identical to a fault-free run.
//!
//! Injected faults are journaled as JSON lines; CI uploads the journal
//! as an artifact so a red chaos job ships its own repro script.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::Mutex;

use cdmm_trace::synth::{mix, GAMMA};

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic inside a running job (before its simulation starts).
    JobPanic,
    /// Truncate a file mid-line, as a `kill -9` during an append would.
    TornWrite,
}

impl FaultSite {
    fn tag(self) -> u64 {
        match self {
            FaultSite::JobPanic => 0x1,
            FaultSite::TornWrite => 0x2,
        }
    }

    fn index(self) -> usize {
        (self.tag() - 1) as usize
    }
}

/// A deterministic, seeded fault injector with a JSONL journal.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    /// Injection probability per site, in percent.
    rates: [u8; 2],
    journal: Mutex<Vec<String>>,
}

impl FaultInjector {
    /// An injector with default rates: 30% mid-job panics; torn writes
    /// always fire when [`FaultInjector::tear_tail`] is invoked.
    pub fn new(seed: u64) -> Self {
        FaultInjector {
            seed,
            rates: [30, 100],
            journal: Mutex::new(Vec::new()),
        }
    }

    /// Overrides one site's injection probability (percent, clamped to
    /// 100).
    pub fn with_rate(mut self, site: FaultSite, percent: u8) -> Self {
        self.rates[site.index()] = percent.min(100);
        self
    }

    /// The injector's seed (for journal headers and repro lines).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Deterministic roll in `[0, bound)` for a site/job/attempt tuple.
    fn roll(&self, site: FaultSite, job: u64, attempt: u64, bound: u64) -> u64 {
        let z = mix(self.seed ^ site.tag().wrapping_mul(GAMMA))
            .wrapping_add(job.wrapping_mul(GAMMA))
            .wrapping_add(attempt);
        mix(z) % bound.max(1)
    }

    /// Whether a fault fires at this site for this `(job, attempt)`.
    pub fn should_fault(&self, site: FaultSite, job: u64, attempt: u64) -> bool {
        self.roll(site, job, attempt, 100) < self.rates[site.index()] as u64
    }

    fn log(&self, line: String) {
        self.journal.lock().expect("journal lock").push(line);
    }

    /// Panics with a deterministic message when the roll says so —
    /// call at the top of a supervised job to simulate a crashing run.
    pub fn maybe_panic(&self, job: u64, attempt: u64) {
        if self.should_fault(FaultSite::JobPanic, job, attempt) {
            self.log(format!(
                "{{\"site\":\"job_panic\",\"job\":{job},\"attempt\":{attempt}}}"
            ));
            panic!("injected fault: job {job} attempt {attempt}");
        }
    }

    /// Truncates `path` at a deterministic offset inside its final
    /// non-empty line — the torn tail a `kill -9` mid-append leaves.
    /// Returns the number of bytes cut (0 when the file is too small to
    /// tear). `salt` distinguishes repeated tears of the same file.
    pub fn tear_tail(&self, path: &Path, salt: u64) -> io::Result<u64> {
        let data = fs::read(path)?;
        let trimmed = data.iter().rposition(|&b| b != b'\n').map_or(0, |i| i + 1);
        if trimmed < 2 {
            return Ok(0);
        }
        let last_start = data[..trimmed]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let last_len = trimmed - last_start;
        if last_len < 2 {
            return Ok(0);
        }
        // Keep at least one byte of the final line so the remnant is a
        // genuinely torn record, not a clean shorter file.
        let keep = 1 + self.roll(FaultSite::TornWrite, salt, 0, last_len as u64 - 1) as usize;
        let cut_at = last_start + keep;
        let f = fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(cut_at as u64)?;
        f.sync_all()?;
        let cut = (data.len() - cut_at) as u64;
        self.log(format!(
            "{{\"site\":\"torn_write\",\"path\":\"{}\",\"salt\":{salt},\"cut_bytes\":{cut}}}",
            path.display()
        ));
        Ok(cut)
    }

    /// Snapshot of the journal lines recorded so far.
    pub fn journal_lines(&self) -> Vec<String> {
        self.journal.lock().expect("journal lock").clone()
    }

    /// Writes the journal (with a seed header) to `path`.
    pub fn write_journal(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"v\":1,\"kind\":\"fault-journal\",\"seed\":{}}}\n",
            self.seed
        ));
        for line in self.journal_lines() {
            out.push_str(&line);
            out.push('\n');
        }
        fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let a = FaultInjector::new(42);
        let b = FaultInjector::new(42);
        let c = FaultInjector::new(43);
        let plan = |f: &FaultInjector| -> Vec<bool> {
            (0..64)
                .map(|j| f.should_fault(FaultSite::JobPanic, j, 0))
                .collect()
        };
        assert_eq!(plan(&a), plan(&b), "same seed, same plan");
        assert_ne!(plan(&a), plan(&c), "different seed, different plan");
        assert!(
            plan(&a).iter().any(|&x| x) && plan(&a).iter().any(|&x| !x),
            "default rate faults some but not all jobs"
        );
    }

    #[test]
    fn rates_bound_the_plan() {
        let never = FaultInjector::new(1).with_rate(FaultSite::JobPanic, 0);
        let always = FaultInjector::new(1).with_rate(FaultSite::JobPanic, 100);
        for j in 0..32 {
            assert!(!never.should_fault(FaultSite::JobPanic, j, 0));
            assert!(always.should_fault(FaultSite::JobPanic, j, 0));
        }
    }

    #[test]
    fn maybe_panic_fires_and_journals() {
        let f = FaultInjector::new(7).with_rate(FaultSite::JobPanic, 100);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.maybe_panic(3, 1)))
            .expect_err("must panic at 100%");
        std::panic::set_hook(hook);
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "injected fault: job 3 attempt 1");
        assert_eq!(
            f.journal_lines(),
            vec!["{\"site\":\"job_panic\",\"job\":3,\"attempt\":1}".to_string()]
        );
    }

    #[test]
    fn tear_tail_cuts_inside_the_final_line() {
        let dir = std::env::temp_dir().join(format!("cdmm-faults-tear-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("file.jsonl");
        fs::write(&path, "first line intact\nsecond line gets torn\n").expect("seed");
        let f = FaultInjector::new(99);
        let cut = f.tear_tail(&path, 0).expect("tear");
        assert!(cut > 0);
        let text = fs::read_to_string(&path).expect("read back");
        assert!(text.starts_with("first line intact\n"), "{text:?}");
        let tail = &text["first line intact\n".len()..];
        assert!(!tail.is_empty() && tail.len() < "second line gets torn\n".len());
        // Deterministic: a same-seed injector cuts at the same offset.
        fs::write(&path, "first line intact\nsecond line gets torn\n").expect("reseed");
        FaultInjector::new(99).tear_tail(&path, 0).expect("tear 2");
        assert_eq!(fs::read_to_string(&path).expect("read"), text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_file_has_header_and_lines() {
        let dir = std::env::temp_dir().join(format!("cdmm-faults-journal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let f = FaultInjector::new(1234).with_rate(FaultSite::JobPanic, 100);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.maybe_panic(0, 0)));
        std::panic::set_hook(hook);
        let path = dir.join("journal.jsonl");
        f.write_journal(&path).expect("write journal");
        let text = fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seed\":1234"));
        assert!(lines[1].contains("\"site\":\"job_panic\""));
        let _ = fs::remove_dir_all(&dir);
    }
}
