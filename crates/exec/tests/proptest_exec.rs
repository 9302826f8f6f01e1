//! Property-based testing of the executor's contract: for any grid size
//! and worker count, `map_indexed` returns the sequential map in index
//! order, runs every index exactly once, and re-raises a task panic with
//! its payload without running any index twice.

use portopt_exec::Executor;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A task whose value depends only on its index.
fn task(i: usize) -> u64 {
    (i as u64 ^ 0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
        .rotate_left(17)
}

fn counters(n: usize) -> Vec<AtomicUsize> {
    (0..n).map(|_| AtomicUsize::new(0)).collect()
}

proptest! {
    #[test]
    fn map_indexed_equals_the_sequential_map(n in 0usize..=3000, threads in 1usize..=9) {
        let reference: Vec<u64> = (0..n).map(task).collect();
        prop_assert_eq!(Executor::new(threads).map_indexed(n, task), reference);
    }

    #[test]
    fn every_index_runs_exactly_once(n in 0usize..=3000, threads in 1usize..=9) {
        let runs = counters(n);
        let out = Executor::new(threads).map_indexed(n, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        prop_assert_eq!(out, (0..n).collect::<Vec<_>>());
        for (i, r) in runs.iter().enumerate() {
            prop_assert_eq!(r.load(Ordering::Relaxed), 1, "index {}", i);
        }
    }

    #[test]
    fn a_panic_propagates_with_its_payload(
        n in 1usize..=3000,
        threads in 1usize..=9,
        at in 0.0f64..1.0,
    ) {
        let k = ((n as f64 * at) as usize).min(n - 1);
        let runs = counters(n);
        let err = catch_unwind(AssertUnwindSafe(|| {
            Executor::new(threads).map_indexed(n, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                if i == k {
                    std::panic::panic_any(k);
                }
                i
            })
        }))
        .expect_err("the panic must propagate");
        prop_assert_eq!(err.downcast_ref::<usize>(), Some(&k));
        prop_assert_eq!(runs[k].load(Ordering::Relaxed), 1);
        for (i, r) in runs.iter().enumerate() {
            prop_assert!(r.load(Ordering::Relaxed) <= 1, "index {} ran twice", i);
        }
    }
}
