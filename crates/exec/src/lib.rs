//! # portopt-exec
//!
//! The shared parallel-execution subsystem: a chunked **shared-cursor
//! executor** over an indexed task grid, used by every sweep in the
//! workspace (dataset generation, the leave-one-out harness, the figure
//! binaries).
//!
//! ## Determinism contract
//!
//! [`Executor::map_indexed`] evaluates a pure function `f(i)` for every
//! index `i < n` and returns the results **in index order**, regardless of
//! the number of worker threads or how the scheduler interleaves them.
//! Workers race only over *which* thread computes a task, never over what
//! the task computes or where its result lands; as long as `f` is a pure
//! function of its index, the output vector is bit-for-bit identical for
//! any thread count (including 1). Every sweep in `portopt` is built on
//! this property — `portopt_core::dataset::generate` asserts it in its
//! `generation_is_deterministic` test.
//!
//! ```
//! use portopt_exec::Executor;
//!
//! let task = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(7);
//! let on_one_thread: Vec<u64> = (0..100).map(task).collect();
//! // Same grid on 4 workers: same vector, whatever the interleaving was.
//! assert_eq!(Executor::new(4).map_indexed(100, task), on_one_thread);
//! ```
//!
//! ## Scheduling
//!
//! Workers share one atomic cursor over the index range. Each claims the
//! next contiguous chunk of indices with a single `fetch_add` and runs it,
//! until the cursor passes `n`; a worker that finds the cursor exhausted
//! returns at once, since no unclaimed work remains anywhere. Chunks keep
//! neighbouring tasks (which tend to touch the same program) on one core;
//! claiming small chunks on demand keeps all cores busy when per-task cost
//! is skewed — the situation a `(program, setting)` grid is always in,
//! since compile and profile times vary by orders of magnitude across
//! settings. With one worker the same claim loop runs on the calling
//! thread.
//!
//! A panic in any task is re-raised to the caller; it moves the cursor to
//! the end, so sibling workers finish their current chunk and claim no
//! more work.
//!
//! For workloads that arrive one item at a time instead of as a grid (the
//! `portopt-serve` prediction service), [`queue::ServiceQueue`] accumulates
//! submissions and drains them as batches onto the same executor.
//!
//! ## Observability
//!
//! Every `map_indexed` call runs inside a `portopt_trace` span and
//! reports aggregate compute-vs-idle microseconds, idle being worker time
//! (`workers × wall`) not spent in tasks (a `debug`-level event and
//! span-close fields); queue drains emit `trace`-level depth samples.
//! With tracing unsinked and below the stderr filter the cost is a few
//! relaxed atomics per chunk.

#![warn(missing_docs)]

pub mod artifact;
pub mod cache;
pub mod queue;

pub use cache::{CacheEntryInfo, CacheError, CacheStats, DiskCache, GcReport};
pub use queue::{ServiceQueue, SubmitError, Ticket};

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of threads the host advertises (cgroup-aware); 1 if unknown.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolves a user-facing thread-count request: `0` means "auto" (use
/// [`available_threads`]); any other value is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// A shared-cursor executor with a fixed worker count.
///
/// Cheap to construct (no threads are kept alive between calls — workers
/// are scoped to each [`map_indexed`](Executor::map_indexed) call, so an
/// `Executor` can be created per sweep without pool-lifecycle concerns).
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// Creates an executor; `threads == 0` selects all available cores.
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: resolve_threads(threads),
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `f(0..n)` across the workers and returns the results in
    /// index order. See the crate docs for the determinism contract.
    ///
    /// # Panics
    /// Re-raises the first panic observed in any task.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n).max(1);
        let sp = portopt_trace::span(
            "exec",
            "map_indexed",
            &[("n", n.into()), ("workers", workers.into())],
        );

        // Contiguous chunks keep neighbouring tasks on one core.
        let chunk = (n / (workers * 8)).max(1);
        let cursor = AtomicUsize::new(0);
        let compute_us = AtomicU64::new(0);
        let claim = || claim_chunks(&cursor, n, chunk, &f, &compute_us);
        let parts: Vec<std::thread::Result<Vec<(usize, T)>>> = if workers == 1 {
            vec![claim()]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers).map(|_| s.spawn(claim)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().and_then(|part| part))
                    .collect()
            })
        };
        let wall_us = sp.elapsed_us();
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for part in parts {
            // Re-raise the first task panic, in worker order.
            for (i, v) in part.unwrap_or_else(|payload| std::panic::resume_unwind(payload)) {
                slots[i] = Some(v);
            }
        }

        let compute_us = compute_us.load(Ordering::Relaxed);
        let idle_us = (workers as u64 * wall_us).saturating_sub(compute_us);
        portopt_trace::debug!(
            "exec",
            {
                n = n,
                workers = workers,
                compute_us = compute_us,
                idle_us = idle_us
            },
            "map_indexed drained"
        );
        sp.close_with(&[
            ("compute_us", compute_us.into()),
            ("idle_us", idle_us.into()),
        ]);
        slots
            .into_iter()
            .map(|s| s.expect("every index covered exactly once"))
            .collect()
    }

    /// Maps `f` over a slice, returning results in input order (a
    /// convenience wrapper over [`map_indexed`](Executor::map_indexed)).
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.map_indexed(items.len(), |i| f(&items[i]))
    }
}

impl Default for Executor {
    /// An executor over all available cores.
    fn default() -> Self {
        Executor::new(0)
    }
}

/// One worker's claim loop: takes `chunk`-sized index ranges from the
/// shared cursor until it passes `n`, then returns its `(index, result)`
/// pairs. An exhausted cursor means no unclaimed work exists anywhere, so
/// the worker is done. A panicking task moves the cursor to `n`, so every
/// sibling stops at its next claim, and its payload is returned.
fn claim_chunks<T, F>(
    cursor: &AtomicUsize,
    n: usize,
    chunk: usize,
    f: &F,
    compute_us: &AtomicU64,
) -> std::thread::Result<Vec<(usize, T)>>
where
    F: Fn(usize) -> T,
{
    let mut out = Vec::new();
    loop {
        // Relaxed suffices: the cursor publishes no data; results reach the
        // caller through the thread join.
        let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
        if lo >= n {
            return Ok(out);
        }
        let chunk_start = std::time::Instant::now();
        for i in lo..(lo + chunk).min(n) {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                Ok(v) => out.push((i, v)),
                Err(payload) => {
                    cursor.store(n, Ordering::Relaxed);
                    return Err(payload);
                }
            }
        }
        compute_us.fetch_add(chunk_start.elapsed().as_micros() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn resolves_zero_to_available() {
        assert_eq!(resolve_threads(0), available_threads());
        assert_eq!(resolve_threads(3), 3);
        assert!(Executor::new(0).threads() >= 1);
    }

    #[test]
    fn identical_results_across_thread_counts() {
        // A task whose value depends only on its index; heavy enough that
        // interleavings differ run to run.
        let task = |i: usize| -> u64 {
            let mut h = i as u64 + 0x9E37_79B9_7F4A_7C15;
            for _ in 0..50 {
                h ^= h >> 33;
                h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            }
            h
        };
        let reference: Vec<u64> = (0..1000).map(task).collect();
        for threads in [1, 2, 8] {
            let got = Executor::new(threads).map_indexed(1000, task);
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn empty_grid() {
        let ex = Executor::new(4);
        let out: Vec<u32> = ex.map_indexed(0, |_| unreachable!("no tasks"));
        assert!(out.is_empty());
        let none: [u8; 0] = [];
        let out2: Vec<u32> = ex.map(&none, |_| unreachable!("no tasks"));
        assert!(out2.is_empty());
    }

    #[test]
    fn one_element_grid() {
        let out = Executor::new(8).map_indexed(1, |i| i + 41);
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..777).map(|_| AtomicUsize::new(0)).collect();
        let out = Executor::new(5).map_indexed(777, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..777).collect::<Vec<_>>());
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i}");
        }
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<i64> = (0..257).map(|i| i * 3).collect();
        let out = Executor::new(4).map(&items, |&x| x + 1);
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_task_propagates() {
        for threads in [1, 4] {
            let ex = Executor::new(threads);
            let err = catch_unwind(AssertUnwindSafe(|| {
                ex.map_indexed(64, |i| {
                    if i == 13 {
                        panic!("task 13 exploded");
                    }
                    i
                })
            }))
            .expect_err("panic must propagate");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .map(String::from)
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("exploded"), "threads {threads}: {msg}");
        }
    }

    #[test]
    fn stealing_balances_skewed_tasks() {
        // Front-loaded cost: without stealing, worker 0 would do almost all
        // the work. We can't observe wall-time reliably on CI, but we can
        // check the result is still correct under heavy skew.
        let out = Executor::new(4).map_indexed(256, |i| {
            if i < 8 {
                let mut acc = 0u64;
                for k in 0..200_000u64 {
                    acc = acc.wrapping_add(k ^ i as u64);
                }
                acc & 1
            } else {
                (i as u64) & 1
            }
        });
        for (i, v) in out.iter().enumerate().skip(8) {
            assert_eq!(*v, (i as u64) & 1);
        }
    }
}
