//! Worker-thread budgeting and the one fork-join helper shared by every
//! parallel component.
//!
//! Every worker count in the workspace (the tempering worker pool, the
//! shard engine's cluster solves and halo epochs, the exhaustive solver's
//! branches, the workload runner's trials) resolves through
//! [`effective_parallelism`] instead of calling
//! [`std::thread::available_parallelism`] directly, so a single CLI flag
//! (`--threads`) or environment variable (`TSAJS_THREADS`) caps the whole
//! process. Every one-shot pool among them runs through [`fan_out`]; only
//! the tempering ladder keeps threads of its own, alive across the rounds
//! of one solve.
//!
//! Resolution order:
//!
//! 1. an explicit, per-call override (e.g. from `--threads N`), when `> 0`;
//! 2. the `TSAJS_THREADS` environment variable, when it parses to `> 0`;
//! 3. [`std::thread::available_parallelism`], falling back to 1.
//!
//! The result is always at least 1. Note that worker count never affects
//! *results* anywhere in the workspace — every parallel component is
//! deterministic by construction — only wall-clock time.

/// Environment variable consulted when no explicit thread override is given.
pub const THREADS_ENV_VAR: &str = "TSAJS_THREADS";

/// Resolve the number of worker threads a parallel component should use.
///
/// `explicit` is an optional per-call override (typically wired to a
/// `--threads` CLI flag); zero is treated as "not set". See the module
/// docs for the full resolution order.
///
/// ## Example
///
/// ```
/// use mec_types::threads::effective_parallelism;
///
/// // An explicit override always wins.
/// assert_eq!(effective_parallelism(Some(3)), 3);
/// // Without one, the result is still at least one worker.
/// assert!(effective_parallelism(None) >= 1);
/// ```
#[must_use]
pub fn effective_parallelism(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        if n > 0 {
            return n;
        }
    }
    if let Ok(raw) = std::env::var(THREADS_ENV_VAR) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f(item)` for every item and returns the results in item order.
///
/// `W = min(workers, items.len())` workers claim the items one at a time,
/// in ascending index order, each taking the next unclaimed item as soon
/// as it finishes its last one, so a slow item holds back no item queued
/// behind it. Which worker runs an item therefore depends on timing, but
/// the results do not: each result lands in its item's slot. With
/// `W <= 1` every item runs inline on the caller and no thread starts.
/// Items are passed by value, so a caller can lend `&mut` items (each is
/// owned by the one worker that claims it), shared `&` items or plain
/// values.
///
/// # Panics
///
/// If `f` panics on an item, the panic is re-raised on the caller with
/// that item's own payload once every worker has stopped. The other
/// workers finish the remaining items first. If several items panic, the
/// payload of one of them is re-raised.
///
/// ## Example
///
/// ```
/// use mec_types::threads::fan_out;
///
/// let squares = fan_out(3, vec![1u64, 2, 3, 4, 5], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub fn fan_out<T: Send, R: Send>(
    workers: usize,
    items: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let len = items.len();
    let width = workers.min(len);
    if width <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = std::sync::Mutex::new(items.into_iter().enumerate());
    // The guard drops when `claim` returns: no lock is held while `f` runs.
    let claim = || queue.lock().expect("queue lock never held across f").next();
    let work = || {
        let mut done = Vec::new();
        while let Some((i, item)) = claim() {
            done.push((i, f(item)));
        }
        done
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..width).map(|_| scope.spawn(work)).collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, result) in done {
                        slots[i] = Some(result);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|result| result.expect("every item was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_override_wins_and_zero_is_ignored() {
        assert_eq!(effective_parallelism(Some(7)), 7);
        assert_eq!(effective_parallelism(Some(1)), 1);
        // Zero falls through to the environment / hardware default.
        assert!(effective_parallelism(Some(0)) >= 1);
    }

    #[test]
    fn default_is_at_least_one_worker() {
        assert!(effective_parallelism(None) >= 1);
    }

    #[test]
    fn fan_out_returns_results_in_item_order_at_any_width() {
        let items: Vec<usize> = (0..7).collect();
        let expected: Vec<(usize, usize)> = items.iter().map(|&x| (x, 10 * x)).collect();
        for workers in [0, 1, 2, 3, 7, 16] {
            let got = fan_out(workers, items.clone(), |x| (x, 10 * x));
            assert_eq!(got, expected, "workers {workers}");
        }
    }

    #[test]
    fn fan_out_lets_free_workers_claim_past_a_slow_item() {
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;
        // Item 0 finishes only after items 1..=5 have: the other worker
        // must claim every one of them while item 0 is still running.
        let finished = (Mutex::new(0usize), Condvar::new());
        fan_out(2, (0..6).collect(), |i: usize| {
            let (count, changed) = &finished;
            let mut done = count.lock().unwrap();
            if i == 0 {
                let (_done, wait) = changed
                    .wait_timeout_while(done, Duration::from_secs(10), |n| *n < 5)
                    .unwrap();
                assert!(!wait.timed_out(), "items queued behind item 0");
            } else {
                *done += 1;
                changed.notify_all();
            }
        });
        // One worker runs inline on the caller.
        let caller = std::thread::current().id();
        assert!(fan_out(1, vec![(); 4], |()| std::thread::current().id())
            .iter()
            .all(|&id| id == caller));
    }

    #[test]
    fn fan_out_of_nothing_is_empty() {
        for workers in [0, 1, 4] {
            let out: Vec<u8> = fan_out(workers, Vec::<u8>::new(), |x| x);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn fan_out_writes_through_mutable_borrows() {
        let mut cells = vec![0usize; 5];
        let refs: Vec<(usize, &mut usize)> = cells.iter_mut().enumerate().collect();
        let ran = fan_out(2, refs, |(i, cell)| *cell = i + 1);
        assert_eq!(ran.len(), 5);
        assert_eq!(cells, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "item 3 failed")]
    fn fan_out_reraises_a_worker_panic_with_its_own_payload() {
        let _ = fan_out(2, (0..6).collect(), |i: usize| {
            if i == 3 {
                panic!("item 3 failed");
            }
            i
        });
    }
}
