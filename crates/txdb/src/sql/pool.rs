//! Scoped-thread worker pool for morsel-driven parallelism.
//!
//! [`scatter`] is the one parallel primitive every parallel operator
//! uses: a fixed list of `morsels` (contiguous, locally-ordered units
//! of work) is claimed off a shared atomic counter by `workers`
//! threads, each morsel's result lands in its own slot, and the caller
//! receives the results **in morsel order** — so concatenating them
//! reproduces the exact serial stream and the executor's canonical
//! ascending-RowId contract survives parallel execution byte-for-byte.
//!
//! Cancellation protocol:
//!
//! - A morsel that returns `Err` flips the shared cancel flag; sibling
//!   workers stop claiming new morsels (already-claimed morsels finish,
//!   so a completed slot is never torn). [`scatter`] then reports the
//!   **lowest-indexed** completed error, which for budget exhaustion is
//!   the same charge the serial sweep would have tripped on first when
//!   no sibling raced past it.
//! - A panicking worker flips the same flag from a drop guard before
//!   unwinding, so its siblings drain quickly; `std::thread::scope`
//!   joins every worker and re-raises the panic on the calling thread.
//!   Either way no partial output escapes and no worker is left
//!   running.
//!
//! Threads are scoped (`std::thread::scope`), so workers may borrow the
//! table, snapshot and compiled predicates directly from the calling
//! frame — no `Arc`, no new crates. The spawning thread participates as
//! a worker itself, so `workers = n` spawns only `n - 1` threads and
//! `workers = 1` (or a single morsel) runs the task inline with zero
//! synchronization — exactly today's serial code path.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::error::Result;

/// Clamp a planned degree of parallelism to the work actually
/// available: never more workers than morsels, never fewer than one.
pub(crate) fn effective_workers(planned: usize, morsels: usize) -> usize {
    planned.min(morsels).max(1)
}

/// Split `count` items into ceil(count / morsel) contiguous `(start,
/// end)` index ranges of at most `morsel` items each, in order.
pub(crate) fn morsel_bounds(count: usize, morsel: usize) -> Vec<(usize, usize)> {
    let morsel = morsel.max(1);
    (0..count.div_ceil(morsel))
        .map(|i| (i * morsel, ((i + 1) * morsel).min(count)))
        .collect()
}

/// Sets the shared cancel flag when dropped mid-unwind, so a panicking
/// worker's siblings stop claiming morsels before the scope joins.
struct CancelOnPanic<'f>(&'f AtomicBool);

impl Drop for CancelOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Run `task(0..morsels)` across `workers` scoped threads and return
/// the results in morsel order (see the module docs for the ordering
/// and cancellation contract). With one worker or one morsel the tasks
/// run inline on the calling thread — the serial path, stopping at the
/// first error exactly like the pre-parallel executor.
pub(crate) fn scatter<T, F>(workers: usize, morsels: usize, task: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let workers = effective_workers(workers, morsels);
    if workers == 1 {
        return (0..morsels).map(task).collect();
    }

    let slots: Vec<Mutex<Option<Result<T>>>> = (0..morsels).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let cancel = AtomicBool::new(false);
    let run_worker = || {
        let _guard = CancelOnPanic(&cancel);
        loop {
            if cancel.load(Ordering::Relaxed) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= morsels {
                break;
            }
            let result = task(i);
            if result.is_err() {
                cancel.store(true, Ordering::Relaxed);
            }
            // Storing the result is a single assignment, so a slot whose
            // lock was poisoned by a panicking worker is still valid.
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(run_worker);
        }
        // The calling thread is a worker too: one fewer spawn and no
        // idle wait while the scope joins.
        run_worker();
    });

    // Gather in morsel order. A cancelled run leaves unclaimed slots
    // empty; the lowest-indexed *completed* error is the statement's
    // error (every slot below it holds a successful result, since the
    // worker that claimed it ran to completion before storing).
    let mut out = Vec::with_capacity(morsels);
    for slot in slots {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            // Unclaimed after cancellation: a lower-indexed error (or a
            // panic, which never reaches this point) is responsible.
            None => break,
        }
    }
    if out.len() == morsels {
        Ok(out)
    } else {
        unreachable!("cancellation without a completed error or panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TxdbError;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn results_arrive_in_morsel_order() {
        for workers in [1, 2, 4, 8] {
            let got = scatter(workers, 37, |i| Ok(i * 10)).unwrap();
            assert_eq!(got, (0..37).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn morsel_bounds_cover_exactly_once() {
        assert_eq!(morsel_bounds(0, 4), Vec::<(usize, usize)>::new());
        assert_eq!(morsel_bounds(10, 4), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(morsel_bounds(8, 4), vec![(0, 4), (4, 8)]);
        assert_eq!(morsel_bounds(3, 0), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn an_erroring_morsel_cancels_and_surfaces_atomically() {
        let ran = AtomicUsize::new(0);
        let err = scatter(4, 1000, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 3 {
                Err(TxdbError::ResourceExhausted {
                    budget: 1,
                    requested: 2,
                })
            } else {
                // Slow the healthy morsels down so the cancel flag has
                // time to be observed — otherwise siblings could drain
                // all 1000 trivial morsels before the error lands.
                std::thread::sleep(std::time::Duration::from_micros(500));
                Ok(i)
            }
        })
        .unwrap_err();
        assert!(matches!(err, TxdbError::ResourceExhausted { .. }));
        assert!(
            ran.load(Ordering::Relaxed) < 1000,
            "cancellation must stop siblings from draining all morsels"
        );
    }

    #[test]
    fn the_lowest_completed_error_wins() {
        // Serial path: stops at the first error, later morsels never run.
        let err = scatter(1, 8, |i| {
            if i >= 2 {
                Err(TxdbError::Parse(format!("m{i}")))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, TxdbError::Parse("m2".into()));
        // Parallel: whichever erroring morsels complete, the gathered
        // error is the lowest-indexed one among them.
        let err = scatter(4, 8, |i| {
            if i >= 2 {
                Err(TxdbError::Parse(format!("m{i}")))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        let TxdbError::Parse(msg) = err else {
            panic!("wrong error kind")
        };
        assert!(msg.starts_with('m'));
    }

    #[test]
    fn a_panicking_worker_propagates_and_joins_all_siblings() {
        // The deliberately panicking worker of the fault-injection
        // sweep: the panic must reach the caller (no deadlock — the
        // catch_unwind returning at all proves every scoped worker
        // joined) and siblings must stop claiming morsels.
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            scatter(4, 1000, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 5 {
                    panic!("worker down");
                }
                // As in the error test above: give the unwinding
                // worker's drop guard time to stop the siblings.
                std::thread::sleep(std::time::Duration::from_micros(500));
                Ok(i)
            })
        }));
        assert!(result.is_err(), "the panic must propagate to the caller");
        assert!(
            ran.load(Ordering::Relaxed) < 1000,
            "the cancel guard must stop siblings after a panic"
        );
    }
}
