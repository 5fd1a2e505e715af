//! Heap-allocation regression gate for the search hot loops.
//!
//! Two cycles run tens of thousands of times per solve, so a single
//! stray allocation per proposal dominates the wall-clock budget:
//!
//! - propose → apply → commit/undo, the evaluator's mutation path;
//! - [`tsajs::annealing::step`], the gated step that the TTSA chain and
//!   every tempering replica run: draw → settle a null move, or bound →
//!   price (only when the bound cannot settle the move) → apply + commit
//!   on accept.
//!
//! This test installs a counting global allocator, warms each loop up
//! until every scratch buffer has reached its steady-state capacity,
//! then asserts that 10 000 further proposals allocate nothing at all.
//!
//! It must stay the only `#[test]` in this binary: the libtest harness
//! runs tests on worker threads whose setup allocates, so a sibling
//! test running concurrently would leak its allocations into our count.

use mec_radio::{ChannelGains, OfdmaConfig};
use mec_system::{IncrementalObjective, Scenario, UserSpec};
use mec_types::{Cycles, Hertz, ServerProfile, Watts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use tsajs::annealing::{step as solver_step, Step};
use tsajs::NeighborhoodKernel;

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

fn scenario(users: usize, servers: usize, subchannels: usize) -> Scenario {
    Scenario::new(
        vec![UserSpec::paper_default_with_workload(Cycles::from_mega(2000.0)).unwrap(); users],
        vec![ServerProfile::paper_default(); servers],
        OfdmaConfig::new(Hertz::from_mega(20.0), subchannels).unwrap(),
        ChannelGains::uniform(users, servers, subchannels, 1e-6).unwrap(),
        Watts::new(1e-13),
    )
    .unwrap()
}

/// One Metropolis-shaped hot-loop iteration: draw a move, apply it,
/// keep improvements and a pseudo-random share of the rest, undo the
/// remainder, and refresh the incumbent clone on improvement.
fn step(
    scenario: &Scenario,
    kernel: &NeighborhoodKernel,
    inc: &mut IncrementalObjective<'_>,
    best: &mut mec_system::Assignment,
    best_obj: &mut f64,
    rng: &mut StdRng,
) {
    let (mv, _) = kernel.propose_move(scenario, inc.assignment(), rng);
    let candidate = inc.apply(&mv);
    if candidate >= inc.current() || rng.gen::<f64>() < 0.3 {
        inc.commit();
        if candidate > *best_obj {
            *best_obj = candidate;
            best.clone_from(inc.assignment());
        }
    } else {
        inc.undo();
    }
}

/// Fixed temperature of the counted solver steps.
const TEMPERATURE: f64 = 0.5;

#[test]
fn the_hot_loop_performs_zero_heap_allocations() {
    let scenario = scenario(12, 3, 4);
    let kernel = NeighborhoodKernel::new();
    let mut rng = StdRng::seed_from_u64(7);
    let initial = mec_system::Assignment::all_local(&scenario);
    let mut inc = IncrementalObjective::new(&scenario, initial).unwrap();
    let mut best = inc.assignment().clone();
    let mut best_obj = inc.current();

    // Warm-up: let the undo log, the evaluation scratch and the
    // incumbent clone reach their steady-state capacities.
    for _ in 0..2_000 {
        step(
            &scenario,
            &kernel,
            &mut inc,
            &mut best,
            &mut best_obj,
            &mut rng,
        );
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10_000 {
        step(
            &scenario,
            &kernel,
            &mut inc,
            &mut best,
            &mut best_obj,
            &mut rng,
        );
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "the propose/apply/commit-or-undo loop heap-allocated {delta} \
         times over 10000 proposals; the hot loop must be allocation-free"
    );

    // The solver step on a fresh walk: warm up the pending-move
    // machinery, then count.
    let mut rng = StdRng::seed_from_u64(11);
    let initial = mec_system::Assignment::all_local(&scenario);
    let mut inc = IncrementalObjective::new(&scenario, initial).unwrap();
    let mut current_obj = inc.current();
    for _ in 0..2_000 {
        solver_step(&kernel, &mut inc, &mut current_obj, TEMPERATURE, &mut rng);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let (mut null, mut bounded, mut priced) = (0u32, 0u32, 0u32);
    for _ in 0..10_000 {
        match solver_step(&kernel, &mut inc, &mut current_obj, TEMPERATURE, &mut rng) {
            Step::Null => null += 1,
            Step::Bounded => bounded += 1,
            Step::Rejected | Step::Better | Step::Worse => priced += 1,
        }
    }
    let delta = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "the propose/bound/score/accept loop heap-allocated {delta} times \
         over 10000 proposals; the solver step must be allocation-free"
    );
    assert!(
        bounded > 0 && priced > 0,
        "the counted steps must exercise both the bound-settled and the \
         priced branch ({bounded} bound-settled, {priced} priced of 10000)"
    );
    assert!(
        null > 0,
        "the counted steps must exercise the null-move branch (none of 10000)"
    );
}
