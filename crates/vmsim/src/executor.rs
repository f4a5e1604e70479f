//! The workspace's one thread pool: a parallel map with deterministic
//! result order.
//!
//! The executor spreads a flat job list over `std::thread::scope`
//! workers that pull indices from a shared atomic cursor — a work queue
//! with no per-worker imbalance, so one slow job (a large LRU
//! allocation, a long WS window, a crowded fleet cell) does not idle
//! the other cores. Results are merged by *job index*, never by
//! completion order, so the output is bit-identical for every thread
//! count; `with_threads(1)` runs the jobs inline in order, reproducing
//! the serial path exactly. Parameter sweeps (`cdmm_core::sweep`) and
//! the fleet scheduler ([`crate::run_fleet`], one job per cell) both
//! run on it.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A job that panicked inside the executor.
///
/// [`Executor::try_map`] isolates each job behind `catch_unwind`, so one
/// bad job (a policy tripping an internal assertion on a hostile input)
/// becomes one `Err` slot in the merged output instead of tearing down
/// the whole sweep. The index names the failing job in the submitted
/// grid; merge order keeps errors as deterministic as results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Index of the failing job in the submitted slice.
    pub index: usize,
    /// The captured panic message.
    pub message: String,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobError {}

/// Renders a panic payload as text: the `&str`/`String` message when the
/// panic carried one, a placeholder otherwise.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A deterministic parallel map over a flat job grid.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// An executor using all available parallelism.
    pub fn new() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_threads(n)
    }

    /// A single-threaded executor (the bit-identical serial path).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// An executor with exactly `n` worker threads (`n` is clamped to at
    /// least 1).
    pub fn with_threads(n: usize) -> Self {
        Executor { threads: n.max(1) }
    }

    /// An executor honoring the `CDMM_THREADS` environment variable,
    /// falling back to the available parallelism.
    pub fn from_env() -> Self {
        match std::env::var("CDMM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
        {
            Some(n) => Self::with_threads(n),
            None => Self::new(),
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every job and returns the results in job order,
    /// regardless of which worker finished which job when.
    ///
    /// # Panics
    ///
    /// Panics if any job panicked, naming the lowest panicking job index
    /// and its message (`executor job 3 panicked: ...`). All jobs still
    /// run first — this is [`Executor::try_map`] with the error lifted
    /// back into a panic for callers that treat a bad job as a bug.
    pub fn map<J, T, F>(&self, jobs: &[J], f: F) -> Vec<T>
    where
        J: Sync,
        T: Send,
        F: Fn(usize, &J) -> T + Sync,
    {
        self.try_map(jobs, f)
            .into_iter()
            .map(|r| match r {
                Ok(t) => t,
                Err(e) => panic!("executor {e}"),
            })
            .collect()
    }

    /// Applies `f` to every job, isolating each behind `catch_unwind`:
    /// a panicking job yields `Err(`[`JobError`]`)` in its slot while
    /// every other job still runs and returns. Results are merged by job
    /// index, so the output — errors included — is bit-identical at any
    /// thread count.
    pub fn try_map<J, T, F>(&self, jobs: &[J], f: F) -> Vec<Result<T, JobError>>
    where
        J: Sync,
        T: Send,
        F: Fn(usize, &J) -> T + Sync,
    {
        let run = |i: usize, j: &J| -> Result<T, JobError> {
            catch_unwind(AssertUnwindSafe(|| f(i, j))).map_err(|payload| JobError {
                index: i,
                message: panic_message(payload.as_ref()),
            })
        };
        if self.threads == 1 || jobs.len() <= 1 {
            return jobs.iter().enumerate().map(|(i, j)| run(i, j)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let workers = self.threads.min(jobs.len());
        let mut slots: Vec<Option<Result<T, JobError>>> = Vec::with_capacity(jobs.len());
        slots.resize_with(jobs.len(), || None);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs.len() {
                                break;
                            }
                            local.push((i, run(i, &jobs[i])));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                // `run` catches every unwind, so a worker can only die
                // outside job code (e.g. allocation failure growing its
                // result vec) — still name the cause rather than
                // unwrapping blind.
                match h.join() {
                    Ok(local) => {
                        for (i, t) in local {
                            slots[i] = Some(t);
                        }
                    }
                    Err(payload) => panic!(
                        "executor worker died outside job code: {}",
                        panic_message(payload.as_ref())
                    ),
                }
            }
        });
        slots
            .into_iter()
            .map(|o| o.expect("every claimed job produced a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let jobs: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = jobs.iter().map(|j| j * j + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = Executor::with_threads(threads).map(&jobs, |_, &j| j * j + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let jobs: Vec<usize> = (0..1000).collect();
        let runs = AtomicU64::new(0);
        let got = Executor::with_threads(7).map(&jobs, |i, &j| {
            runs.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, j, "index matches the job slot");
            i
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1000);
        assert_eq!(got, jobs);
    }

    #[test]
    fn empty_and_singleton_grids() {
        let e = Executor::with_threads(4);
        let empty: Vec<u32> = vec![];
        assert!(e.map(&empty, |_, &j| j).is_empty());
        assert_eq!(e.map(&[41u32], |_, &j| j + 1), vec![42]);
    }

    #[test]
    fn thread_count_is_clamped() {
        assert_eq!(Executor::with_threads(0).threads(), 1);
        assert!(Executor::new().threads() >= 1);
    }

    /// Keeps injected test panics from spamming stderr through the
    /// default hook while the closure runs.
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = catch_unwind(AssertUnwindSafe(f));
        std::panic::set_hook(hook);
        match out {
            Ok(r) => r,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    #[test]
    fn try_map_isolates_panicking_jobs() {
        let jobs: Vec<u64> = (0..100).collect();
        for threads in [1, 4, 16] {
            let got = quiet_panics(|| {
                Executor::with_threads(threads).try_map(&jobs, |_, &j| {
                    if j % 10 == 3 {
                        panic!("job {j} went bad");
                    }
                    j * 2
                })
            });
            assert_eq!(got.len(), 100, "threads={threads}");
            for (i, r) in got.iter().enumerate() {
                if i % 10 == 3 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, i);
                    assert_eq!(e.message, format!("job {i} went bad"));
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i as u64 * 2), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn try_map_errors_are_deterministic_across_thread_counts() {
        let jobs: Vec<u64> = (0..57).collect();
        let run = |threads| {
            quiet_panics(|| {
                Executor::with_threads(threads).try_map(&jobs, |_, &j| {
                    if j % 7 == 0 {
                        panic!("sevens fail");
                    }
                    j
                })
            })
        };
        let serial = run(1);
        for threads in [2, 5, 32] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn map_panic_names_the_failing_job() {
        let jobs: Vec<u64> = (0..20).collect();
        let payload = quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                Executor::with_threads(4).map(&jobs, |_, &j| {
                    if j == 13 || j == 17 {
                        panic!("boom");
                    }
                    j
                })
            }))
        })
        .expect_err("map must propagate the panic");
        let msg = panic_message(payload.as_ref());
        assert_eq!(
            msg, "executor job 13 panicked: boom",
            "lowest failing index wins deterministically"
        );
    }

    #[test]
    fn job_error_display_and_panic_message() {
        let e = JobError {
            index: 7,
            message: "stack overflow in policy".into(),
        };
        assert_eq!(e.to_string(), "job 7 panicked: stack overflow in policy");
        assert_eq!(panic_message(&"literal"), "literal");
        assert_eq!(panic_message(&String::from("owned")), "owned");
        assert_eq!(panic_message(&42u32), "non-string panic payload");
    }
}
