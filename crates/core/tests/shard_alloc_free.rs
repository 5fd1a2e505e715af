//! Heap-allocation regression gate for the shard engine's per-cluster
//! proposal loop.
//!
//! A pipelined Jacobi-with-aging reconcile epoch runs
//! [`tsajs::shard::descent`] once per visited cluster, and a city-scale
//! solve runs many epochs — so a stray allocation inside the descent's
//! bound/score/apply/commit cycle multiplies across the whole metro. This
//! test installs a counting global allocator, drives the descent to its
//! fixed point (where scratch buffers have reached steady-state
//! capacity), then asserts that a full re-scan of the neighborhood at the
//! fixed point allocates nothing — at the reconcile floor and at floor
//! 0.0, where the same scan runs as the tempering quench. Every
//! candidate is bounded before it is priced, and the quench re-scan must
//! settle some through the bound, so the gated path is the one counted.
//!
//! It must stay the only `#[test]` in this binary: the libtest harness
//! runs tests on worker threads whose setup allocates, so a sibling test
//! running concurrently would leak its allocations into our count.

use mec_radio::{ChannelGains, OfdmaConfig};
use mec_system::{Assignment, IncrementalObjective, Scenario, UserSpec};
use mec_types::{Cycles, Hertz, ServerProfile, Watts};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tsajs::shard::{descent, publish_halo_delta, DESCENT_IMPROVEMENT_FLOOR};

/// Pass-through allocator that counts every acquisition path
/// (fresh allocations, zeroed allocations and reallocations).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A cluster-shaped subproblem with a halo installed, like every cluster
/// visit during a reconciliation sweep sees it.
fn cluster_scenario(gains: ChannelGains) -> Scenario {
    let (users, servers, subchannels) = (
        gains.num_users(),
        gains.num_servers(),
        gains.num_subchannels(),
    );
    let mut sc = Scenario::new(
        vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); users],
        vec![ServerProfile::paper_default(); servers],
        OfdmaConfig::new(Hertz::from_mega(20.0), subchannels).unwrap(),
        gains,
        Watts::new(1e-13),
    )
    .unwrap();
    let ext: Vec<f64> = (0..subchannels * servers)
        .map(|i| 1e-13 * (1.0 + i as f64))
        .collect();
    sc.set_external_rx(Some(ext)).unwrap();
    sc
}

#[test]
fn the_descent_loop_performs_zero_heap_allocations_at_fixed_point() {
    let scenario = cluster_scenario(ChannelGains::uniform(12, 3, 4, 1e-10).unwrap());
    let initial = Assignment::all_local(&scenario);
    let mut inc = IncrementalObjective::new(&scenario, initial).unwrap();

    // Warm-up: run the descent to its fixed point. This both reaches the
    // local optimum and lets the incremental state's journaling scratch
    // grow to steady-state capacity.
    let outcome = descent(&mut inc, 1_000_000, DESCENT_IMPROVEMENT_FLOOR);
    assert!(outcome.changed, "the cold start must find improving moves");
    assert!(outcome.spent > 0);
    assert!(!outcome.exhausted, "the budget is ample for this instance");

    // At the fixed point a further pass re-scores the full neighborhood
    // (thousands of speculative proposals) and accepts nothing — exactly
    // the steady-state shape of a converged reconciliation sweep. It must
    // not touch the heap at all.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let outcome = descent(&mut inc, 1_000_000, DESCENT_IMPROVEMENT_FLOOR);
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert!(!outcome.changed, "fixed point must be stable");
    assert!(
        outcome.spent > 0,
        "the pass still scans the full neighborhood"
    );
    // Identical users on uniform links leave every co-channel occupant
    // enough Γ to relieve that the bound settles nothing here: each
    // candidate is bounded, then priced.
    assert!(outcome.bounded <= outcome.spent);
    assert_eq!(
        delta, 0,
        "the per-cluster descent loop heap-allocated {delta} times over {} \
         proposals at the fixed point; it must be allocation-free",
        outcome.spent
    );

    // The same scan is the tempering quench, run with floor 0.0 (any
    // strict improvement). Identical users would let ulp-level drift
    // cycle at that floor, so the quench gets distinct links. Settle it,
    // then pin a further full pass: it must not touch the heap either.
    let varied = cluster_scenario(
        ChannelGains::from_fn(12, 3, 4, |u, s, j| {
            1e-11 * (1.0 + ((u.index() * 7 + s.index() * 3 + j.index()) % 11) as f64)
        })
        .unwrap(),
    );
    let mut quench = IncrementalObjective::new(&varied, Assignment::all_local(&varied)).unwrap();
    let settle = descent(&mut quench, 1_000_000, 0.0);
    assert!(settle.changed && !settle.exhausted, "the quench settles");
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let outcome = descent(&mut quench, 1_000_000, 0.0);
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert!(!outcome.changed, "the quench's fixed point must be stable");
    assert!(outcome.spent > 0);
    assert!(
        outcome.bounded > 0 && outcome.bounded <= outcome.spent,
        "the quench re-scan must run through the bound gate"
    );
    assert_eq!(
        delta, 0,
        "the scan heap-allocated {delta} times over {} proposals as the \
         quench (floor 0.0) on a settled state; it must be allocation-free",
        outcome.spent
    );

    // The warm path's steady-state pair: patching the previous decision
    // onto a churned population and publishing a halo delta into the
    // exchange. Both run once per CityScale batch, against buffers that
    // reached capacity on the first batch — so at steady state neither
    // may touch the heap either.
    let prev = inc.assignment().clone();
    let map: Vec<Option<mec_types::UserId>> = (0..prev.num_users())
        .map(|v| {
            if v % 10 == 0 {
                None
            } else {
                Some(mec_types::UserId::new(v))
            }
        })
        .collect();
    let mut patched =
        Assignment::with_dims(prev.num_users(), prev.num_servers(), prev.num_subchannels());
    let mut continued = vec![false; prev.num_users()];
    let n_halo = scenario.num_subchannels() * scenario.num_servers();
    let mut totals = vec![0.5e-13; n_halo];
    let contrib_prev = vec![0.1e-13; n_halo];
    let contrib_next = vec![0.2e-13; n_halo];
    // Warm-up pass lets every buffer reach capacity.
    prev.patched_into(&map, &mut patched, &mut continued)
        .unwrap();
    publish_halo_delta(&mut totals, &contrib_prev, &contrib_next);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    prev.patched_into(&map, &mut patched, &mut continued)
        .unwrap();
    let max_delta = publish_halo_delta(&mut totals, &contrib_prev, &contrib_next);
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert!(max_delta > 0.0);
    assert_eq!(
        delta, 0,
        "the warm patch + delta-publish cycle heap-allocated {delta} times; \
         it must be allocation-free at steady state"
    );
}
