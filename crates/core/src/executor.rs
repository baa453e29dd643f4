//! The panic-isolated sweep executor (DESIGN.md §7, §10).
//!
//! Experiment drivers fan thousands of independent cells out over a
//! host thread pool. One poisoned cell must cost exactly that cell:
//! every item runs under `catch_unwind`, a panicking item is retried
//! once (transient host conditions), and a second panic becomes an
//! `Err(SimError::WorkerPanicked)` entry in the result vector — the
//! other items' results survive, so a 12-workload figure degrades to
//! 11/12 instead of killing the bench binary.
//!
//! Scheduling is greedy self-scheduling ("work stealing" from a single
//! shared queue): workers claim the next unclaimed item via one atomic
//! counter the moment they go idle. Nothing is pre-partitioned, so the
//! idle tail is bounded by the single longest item — a worker stuck on
//! a slow cell never strands cheap cells behind it. Results are
//! accumulated in per-worker buffers (no per-item locks on the claim
//! path) and merged positionally after the pool joins.
//!
//! The worker count is `TLPSIM_THREADS` if set (a positive integer,
//! read by the rule of [`crate::settings`] when each sweep starts —
//! anything else is a typed error, never a silent fallback), else the
//! host's available parallelism, clamped to the item count.
//! `TLPSIM_THREADS=1` bypasses the pool entirely: items run on the
//! calling thread in index order, which makes sweeps deterministic for
//! debugging and bisection.
//!
//! A cooperative interrupt ([`crate::interrupt`]) stops the claim loop:
//! no new items start, in-flight items run to their own checkpoint, and
//! every unstarted item's slot reports [`SimError::Interrupted`] so the
//! caller can tell "not done yet" from "failed".

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use tlpsim_trace::CounterSnapshot;

use crate::error::SimError;
use crate::{interrupt, settings};

/// Lock a mutex, recovering from poisoning: a worker that panicked
/// while holding a lock must not take the whole campaign down. Only
/// correct for data that is valid at every await-free lock release —
/// the pattern every mutex in this workspace follows (caches and files
/// only ever hold fully-constructed entries).
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Render a panic payload for diagnostics.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Number of workers a sweep over `n_items` items will use: the
/// `TLPSIM_THREADS` override if set ([`settings::threads`]), else the
/// host's available parallelism, clamped to the item count.
///
/// # Errors
/// [`SimError::InvalidConfig`] when `TLPSIM_THREADS` is set but is not
/// a positive integer. The seed silently fell back to host parallelism
/// on garbage, which turned `TLPSIM_THREADS=1` typos into
/// non-deterministic "deterministic" sweeps.
pub fn worker_count(n_items: usize) -> Result<usize, SimError> {
    let host = match settings::threads().map_err(SimError::InvalidConfig)? {
        Some(n) => n,
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4),
    };
    Ok(host.min(n_items.max(1)))
}

/// Run `f` over `items` on a host thread pool, preserving order.
///
/// This is the sweep executor used by the experiment drivers: each
/// item is typically one design-space cell (internally ~12 simulated
/// chips). Failure containment:
///
/// * `f` returning `Err` surfaces that error at the item's position;
/// * `f` panicking is caught, retried once, and on a second panic
///   surfaced as [`SimError::WorkerPanicked`] — the worker thread and
///   every other item keep going.
///
/// With one worker (item count, host parallelism or `TLPSIM_THREADS`
/// equal to 1) no threads are spawned: items run on the calling thread
/// in index order.
///
/// A malformed `TLPSIM_THREADS` makes every slot
/// [`SimError::InvalidConfig`] — nothing runs under a configuration the
/// user did not ask for. A cooperative interrupt mid-sweep leaves
/// unstarted items as [`SimError::Interrupted`].
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<Result<R, SimError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, SimError> + Sync,
{
    par_map_with(items, f, |_, _| {})
}

/// [`par_map`] with a completion hook: `on_done(i, &result)` runs the
/// moment item `i` finishes (on the worker that ran it, concurrently
/// across workers), before the pool joins. This is how the sweep
/// journal gets its write-ahead property — a cell is durably recorded
/// when it completes, not when the whole sweep does, so a crash loses
/// at most the in-flight cells.
///
/// The hook is not called for items that never ran (interrupt,
/// worker-config error).
pub fn par_map_with<T, R, F, C>(items: &[T], f: F, on_done: C) -> Vec<Result<R, SimError>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> Result<R, SimError> + Sync,
    C: Fn(usize, &Result<R, SimError>) + Sync,
{
    let n = items.len();
    let run_one = |i: usize| -> Result<R, SimError> {
        let mut last_panic = String::new();
        for _attempt in 0..2 {
            // AssertUnwindSafe: on panic the item's partial state is
            // discarded entirely — only its Err entry escapes.
            match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
                Ok(r) => return r,
                Err(p) => last_panic = panic_detail(p.as_ref()),
            }
        }
        Err(SimError::WorkerPanicked {
            item: i,
            detail: last_panic,
        })
    };
    let run_and_report = |i: usize| -> Result<R, SimError> {
        let r = run_one(i);
        on_done(i, &r);
        r
    };

    let n_workers = match worker_count(n) {
        Ok(w) => w,
        // Surface the configuration error at every position: the sweep
        // shape is preserved and nothing is silently recomputed under a
        // worker count the user did not configure.
        Err(e) => return (0..n).map(|_| Err(e.clone())).collect(),
    };
    if n_workers <= 1 {
        return (0..n)
            .map(|i| {
                if interrupt::requested() {
                    Err(SimError::Interrupted)
                } else {
                    run_and_report(i)
                }
            })
            .collect();
    }

    // Greedy self-scheduling: one shared claim counter, per-worker
    // result buffers. A worker claims an item the moment it goes idle,
    // so no item ever waits behind an unrelated slow one. An interrupt
    // parks the claim counter past the end: idle workers drain out and
    // busy ones finish (and checkpoint) their current item.
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, Result<R, SimError>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        if interrupt::requested() {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, run_and_report(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });

    let mut out: Vec<Option<Result<R, SimError>>> = (0..n).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        out[i] = Some(r);
    }
    let interrupted = interrupt::requested();
    out.into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                if interrupted {
                    // Never claimed because the sweep was interrupted:
                    // resumable, not failed.
                    Err(SimError::Interrupted)
                } else {
                    // Only reachable if a worker died outside
                    // catch_unwind (e.g. an abort-on-OOM race); the
                    // item's position still gets a typed error instead
                    // of poisoning the sweep.
                    Err(SimError::WorkerPanicked {
                        item: i,
                        detail: "item was never processed".into(),
                    })
                }
            })
        })
        .collect()
}

/// Fold the counter snapshots of a sweep's *successful* items into one
/// aggregate, counting how many items contributed.
///
/// This is the registry-backed replacement for ad-hoc per-field stat
/// summing: any layer that publishes into a [`CounterSnapshot`]
/// (pipeline, caches, DRAM, CPI stacks) aggregates across a sweep with
/// no per-subsystem plumbing. Integer counters sum; gauges
/// (`set_f64`) keep the last written value, so averages should be
/// published as sum + count pairs by the producer. Failed items
/// (`Err` cells) contribute nothing — the aggregate degrades exactly
/// like the sweep itself does.
pub fn aggregate_counters<'a, I>(results: I) -> (CounterSnapshot, usize)
where
    I: IntoIterator<Item = &'a Result<CounterSnapshot, SimError>>,
{
    let mut agg = CounterSnapshot::new();
    let mut n_ok = 0;
    for snap in results.into_iter().filter_map(|r| r.as_ref().ok()) {
        agg.merge(snap);
        n_ok += 1;
    }
    (agg, n_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex;

    /// Serializes tests that mutate `TLPSIM_THREADS` (process-global).
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    struct EnvGuard;
    impl EnvGuard {
        fn set(v: &str) -> Self {
            std::env::set_var("TLPSIM_THREADS", v);
            EnvGuard
        }
    }
    impl Drop for EnvGuard {
        fn drop(&mut self) {
            std::env::remove_var("TLPSIM_THREADS");
        }
    }

    #[test]
    fn preserves_order() {
        // The same results in the same order at any width.
        let _l = lock_unpoisoned(&ENV_LOCK);
        let items: Vec<u64> = (0..100).collect();
        for threads in ["1", "8"] {
            let _g = EnvGuard::set(threads);
            let out = par_map(&items, |&x| Ok(x * 2));
            let vals: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(vals, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn one_panicking_item_degrades_not_kills() {
        let items: Vec<u64> = (0..12).collect();
        let out = par_map(&items, |&x| {
            if x == 7 {
                panic!("cell {x} is poisoned");
            }
            Ok(x)
        });
        assert_eq!(out.len(), 12);
        for (i, r) in out.iter().enumerate() {
            if i == 7 {
                match r {
                    Err(SimError::WorkerPanicked { item, detail }) => {
                        assert_eq!(*item, 7);
                        assert!(detail.contains("poisoned"));
                    }
                    other => panic!("expected WorkerPanicked, got {other:?}"),
                }
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64);
            }
        }
    }

    #[test]
    fn transient_panic_is_retried_once() {
        let fails = AtomicU32::new(0);
        let items = [0u32];
        let out = par_map(&items, |_| {
            if fails.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            Ok(99u32)
        });
        assert_eq!(out[0].as_ref().unwrap(), &99);
        assert_eq!(fails.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn err_results_pass_through_without_retry() {
        let calls = AtomicU32::new(0);
        let items = [0u32];
        let out = par_map(&items, |_| -> Result<(), SimError> {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(SimError::InvalidConfig("nope".into()))
        });
        assert!(matches!(out[0], Err(SimError::InvalidConfig(_))));
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "Err is not a panic; no retry"
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let items: Vec<u8> = Vec::new();
        let out = par_map(&items, |&x| Ok(x));
        assert!(out.is_empty());
    }

    #[test]
    fn threads_env_overrides_worker_count() {
        let _l = lock_unpoisoned(&ENV_LOCK);
        let _g = EnvGuard::set("3");
        assert_eq!(worker_count(100).unwrap(), 3);
        assert_eq!(
            worker_count(2).unwrap(),
            2,
            "still clamped to the item count"
        );
        drop(_g);
        std::env::remove_var("TLPSIM_THREADS");
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        assert_eq!(
            worker_count(1_000_000).unwrap(),
            host,
            "unset uses the host"
        );
        // Empty or blank means unset, by the one rule of `settings`.
        for blank in ["", "  "] {
            let _g = EnvGuard::set(blank);
            assert_eq!(worker_count(1_000_000).unwrap(), host, "{blank:?}");
        }
    }

    #[test]
    fn malformed_threads_env_is_a_typed_error_not_a_fallback() {
        let _l = lock_unpoisoned(&ENV_LOCK);
        for bad in ["not-a-number", "0", "-2", "1.5"] {
            let _g = EnvGuard::set(bad);
            match worker_count(8) {
                Err(SimError::InvalidConfig(msg)) => {
                    assert!(msg.contains(bad), "diagnostic must quote {bad:?}: {msg}")
                }
                other => panic!("TLPSIM_THREADS={bad:?}: expected InvalidConfig, got {other:?}"),
            }
            // The sweep surface: every slot reports the same error and
            // nothing is computed.
            let ran = AtomicU32::new(0);
            let out = par_map(&[1u8, 2, 3], |_| {
                ran.fetch_add(1, Ordering::SeqCst);
                Ok(())
            });
            assert_eq!(out.len(), 3);
            assert!(out
                .iter()
                .all(|r| matches!(r, Err(SimError::InvalidConfig(_)))));
            assert_eq!(ran.load(Ordering::SeqCst), 0, "nothing may run");
        }
    }

    #[test]
    fn lock_unpoisoned_recovers_a_poisoned_mutex() {
        let m = Mutex::new(41);
        // Poison it: a thread panics while holding the guard.
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                let _g = m.lock().unwrap();
                panic!("poison the lock");
            });
            assert!(h.join().is_err(), "the poisoning thread must panic");
        });
        assert!(m.is_poisoned());
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 42, "data survives the poison");
    }

    #[test]
    fn completion_hook_sees_every_processed_item() {
        let _l = lock_unpoisoned(&ENV_LOCK);
        let _g = EnvGuard::set("2");
        let seen = Mutex::new(Vec::new());
        let items: Vec<u32> = (0..9).collect();
        let out = par_map_with(
            &items,
            |&x| {
                if x == 4 {
                    Err(SimError::InvalidConfig("cell 4".into()))
                } else {
                    Ok(x * 10)
                }
            },
            |i, r| seen.lock().unwrap().push((i, r.is_ok())),
        );
        assert_eq!(out.len(), 9);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let want: Vec<(usize, bool)> = (0..9).map(|i| (i, i != 4)).collect();
        assert_eq!(seen, want, "hook fires once per item, Ok and Err alike");
    }

    // Interrupt-driven executor behavior is covered in
    // `tests/interrupt_sweep.rs`: the flag is process-global, so those
    // tests live in their own binary where raising it cannot race the
    // other par_map tests here.

    #[test]
    fn single_thread_is_serial_in_order_on_calling_thread() {
        let _l = lock_unpoisoned(&ENV_LOCK);
        let _g = EnvGuard::set("1");
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let items: Vec<usize> = (0..32).collect();
        let out = par_map(&items, |&x| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "serial path must not spawn"
            );
            order.lock().unwrap().push(x);
            Ok(x)
        });
        assert!(out.iter().all(|r| r.is_ok()));
        assert_eq!(*order.lock().unwrap(), items, "index order, deterministic");
    }

    #[test]
    fn aggregate_counters_sums_successes_and_skips_failures() {
        let items: Vec<u64> = (0..4).collect();
        let out = par_map(&items, |&x| {
            if x == 2 {
                return Err(SimError::InvalidConfig("poisoned cell".into()));
            }
            let mut s = CounterSnapshot::new();
            s.add_u64("run.cycles", 10 * (x + 1));
            s.add_u64(&format!("cell{x}.only"), 1);
            Ok(s)
        });
        let (agg, n_ok) = aggregate_counters(&out);
        assert_eq!(n_ok, 3);
        assert_eq!(agg.get_u64("run.cycles"), Some(10 + 20 + 40));
        assert_eq!(agg.get_u64("cell2.only"), None, "failed cell excluded");
        assert_eq!(agg.get_u64("cell3.only"), Some(1));
    }

    #[test]
    fn idle_tail_is_bounded_by_greedy_scheduling() {
        // Two workers, one slow item and six fast ones. The slow item
        // refuses to finish until all fast items have completed — which
        // is only possible if the *other* worker drains every fast item
        // while this one is stuck. Static partitioning (half the items
        // pre-assigned to the stuck worker) would deadlock here; the
        // 10s ceiling turns that into a loud failure.
        let _l = lock_unpoisoned(&ENV_LOCK);
        let _g = EnvGuard::set("2");
        let fast_done = AtomicU32::new(0);
        let items: Vec<u32> = (0..7).collect();
        let out = par_map(&items, |&x| {
            if x == 0 {
                let t0 = std::time::Instant::now();
                while fast_done.load(Ordering::SeqCst) < 6 {
                    assert!(
                        t0.elapsed().as_secs() < 10,
                        "fast items starved behind the slow one"
                    );
                    std::thread::yield_now();
                }
            } else {
                fast_done.fetch_add(1, Ordering::SeqCst);
            }
            Ok(x)
        });
        assert!(out.iter().all(|r| r.is_ok()));
    }
}
