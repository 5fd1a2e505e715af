//! Property-based tests over the core data structures and the objective
//! math, spanning crates.

use proptest::prelude::*;
use tsajs_mec::prelude::*;
use tsajs_mec::radio::compute_sinrs;

/// Strategy: a random scenario geometry with log-uniform channel gains.
fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (2usize..=8, 1usize..=4, 1usize..=4, 0u64..1000).prop_map(|(u, s, n, seed)| {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let gains =
            ChannelGains::from_fn(u, s, n, |_, _, _| 10.0_f64.powf(rng.gen_range(-14.0..-9.0)))
                .unwrap();
        Scenario::new(
            vec![
                mec_system::UserSpec::paper_default_with_workload(Cycles::from_mega(
                    rng.gen_range(500.0..4000.0)
                ))
                .unwrap();
                u
            ],
            vec![ServerProfile::paper_default(); s],
            OfdmaConfig::new(constants::DEFAULT_BANDWIDTH, n).unwrap(),
            gains,
            constants::DEFAULT_NOISE.to_watts(),
        )
        .unwrap()
    })
}

/// Strategy: a random feasible assignment for a scenario.
fn arb_assignment(scenario: &Scenario, seed: u64) -> Assignment {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Assignment::all_local(scenario);
    for u in scenario.user_ids() {
        if rng.gen_bool(0.6) {
            let s = ServerId::new(rng.gen_range(0..scenario.num_servers()));
            if let Some(j) = x.free_subchannel(s) {
                x.assign(u, s, j).unwrap();
            }
        }
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The closed-form objective (Eq. 24) always equals the direct
    /// weighted sum of per-user utilities (Eq. 10/11) under KKT allocation.
    #[test]
    fn closed_form_matches_direct_evaluation(
        scenario in arb_scenario(),
        seed in 0u64..1000,
    ) {
        let x = arb_assignment(&scenario, seed);
        let evaluator = Evaluator::new(&scenario);
        let closed = evaluator.objective(&x);
        let direct = evaluator.evaluate(&x).unwrap().system_utility;
        prop_assert!(
            (closed - direct).abs() < 1e-9 * direct.abs().max(1.0),
            "closed {closed} vs direct {direct}"
        );
    }

    /// The fast O(T·S) SINR computation equals the reference O(T²) one.
    #[test]
    fn fast_sinr_equals_reference(
        scenario in arb_scenario(),
        seed in 0u64..1000,
    ) {
        let x = arb_assignment(&scenario, seed);
        let txs = x.transmissions();
        let fast = Evaluator::new(&scenario).sinrs(&txs);
        let slow = compute_sinrs(
            scenario.gains(),
            scenario.tx_powers_watts(),
            scenario.noise().as_watts(),
            &txs,
        );
        for (f, s) in fast.iter().zip(&slow) {
            prop_assert!((f - s).abs() <= 1e-9 * s.max(1e-300), "{f} vs {s}");
        }
    }

    /// KKT allocation is feasible and exactly exhausts each loaded server.
    #[test]
    fn kkt_allocation_is_feasible_and_tight(
        scenario in arb_scenario(),
        seed in 0u64..1000,
    ) {
        let x = arb_assignment(&scenario, seed);
        let f = mec_system::kkt_allocation(&scenario, &x);
        prop_assert!(f.verify(&scenario, &x).is_ok());
        for s in scenario.server_ids() {
            let users: Vec<_> = x.server_users_iter(s).collect();
            if !users.is_empty() {
                let load = f.server_load(s, &x).as_hz();
                let cap = scenario.server(s).capacity().as_hz();
                prop_assert!((load - cap).abs() < cap * 1e-9, "server {s} not exhausted");
            }
        }
    }

    /// KKT is optimal: no other sampled feasible allocation scores a lower
    /// execution cost Σ η/f.
    #[test]
    fn kkt_beats_random_feasible_allocations(
        scenario in arb_scenario(),
        seed in 0u64..1000,
        perturbation in 0.05f64..0.95,
    ) {
        let x = arb_assignment(&scenario, seed);
        let kkt = mec_system::kkt_allocation(&scenario, &x);
        let cost = |shares: &dyn Fn(UserId) -> f64| -> f64 {
            scenario
                .user_ids()
                .filter(|u| x.is_offloaded(*u))
                .map(|u| {
                    let eta = 0.5 * scenario.user(u).device.cpu().as_hz();
                    eta / shares(u)
                })
                .sum()
        };
        let kkt_cost = cost(&|u| kkt.share(u).as_hz());
        // Perturbed allocation: skew shares toward the first user on each
        // server, renormalized to capacity.
        for s in scenario.server_ids() {
            let users: Vec<_> = x.server_users_iter(s).collect();
            if users.len() < 2 {
                continue;
            }
            let cap = scenario.server(s).capacity().as_hz();
            let mut shares: Vec<f64> = users
                .iter()
                .map(|u| kkt.share(*u).as_hz())
                .collect();
            shares[0] += perturbation * shares[1];
            shares[1] *= 1.0 - perturbation;
            let total: f64 = shares.iter().sum();
            let scale = cap / total;
            let perturbed_cost: f64 = users
                .iter()
                .zip(&shares)
                .map(|(u, sh)| {
                    let eta = 0.5 * scenario.user(*u).device.cpu().as_hz();
                    eta / (sh * scale)
                })
                .sum();
            let kkt_server_cost: f64 = users
                .iter()
                .map(|u| {
                    let eta = 0.5 * scenario.user(*u).device.cpu().as_hz();
                    eta / kkt.share(*u).as_hz()
                })
                .sum();
            prop_assert!(
                kkt_server_cost <= perturbed_cost + 1e-9 * perturbed_cost.abs(),
                "perturbed allocation beat KKT on server {s}"
            );
        }
        prop_assert!(kkt_cost.is_finite());
    }

    /// Arbitrary sequences of assignment mutations preserve feasibility.
    #[test]
    fn assignment_mutations_preserve_feasibility(
        scenario in arb_scenario(),
        ops in prop::collection::vec((0u8..4, 0usize..8, 0usize..4, 0usize..4), 1..50),
    ) {
        let mut x = Assignment::all_local(&scenario);
        for (op, u, s, j) in ops {
            let u = UserId::new(u % scenario.num_users());
            let s = ServerId::new(s % scenario.num_servers());
            let j = SubchannelId::new(j % scenario.num_subchannels());
            match op {
                0 => { let _ = x.assign(u, s, j); }
                1 => { x.release(u); }
                2 => { let _ = x.move_to(u, s, j); }
                _ => { let _ = x.assign_evicting(u, s, j); }
            }
            x.verify_feasible(&scenario).unwrap();
        }
    }

    /// The TTSA neighborhood kernel only emits feasible decisions, from any
    /// feasible starting point.
    #[test]
    fn ttsa_kernel_closure_over_feasible_space(
        scenario in arb_scenario(),
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let kernel = tsajs::NeighborhoodKernel::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = arb_assignment(&scenario, seed);
        for _ in 0..30 {
            let (next, _) = kernel.propose(&scenario, &x, &mut rng);
            next.verify_feasible(&scenario).unwrap();
            x = next;
        }
    }

    /// After any random sequence of applied (committed) and undone
    /// neighborhood moves, the incremental delta-evaluation state agrees
    /// with the from-scratch reference `objective_with` to 1e-9 relative
    /// tolerance, and undone moves restore the previous value bit-exactly.
    #[test]
    fn incremental_objective_matches_reference(
        scenario in arb_scenario(),
        seed in 0u64..1000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let kernel = tsajs::NeighborhoodKernel::new();
        let evaluator = Evaluator::new(&scenario);
        let mut scratch = mec_system::EvalScratch::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inc =
            mec_system::IncrementalObjective::new(&scenario, arb_assignment(&scenario, seed))
                .unwrap();
        for step in 0..60 {
            let before = inc.current();
            let (mv, _) = kernel.propose_move(&scenario, inc.assignment(), &mut rng);
            inc.apply(&mv);
            if rng.gen_bool(0.4) {
                inc.undo();
                prop_assert_eq!(
                    inc.current().to_bits(),
                    before.to_bits(),
                    "undo must restore the objective bit-exactly"
                );
            } else {
                inc.commit();
            }
            inc.assignment().verify_feasible(&scenario).unwrap();
            let reference = evaluator.objective_with(inc.assignment(), &mut scratch);
            let current = inc.current();
            prop_assert!(
                (current - reference).abs() <= 1e-9 * reference.abs().max(1.0),
                "step {step}: incremental {current} vs reference {reference}"
            );
        }
        // A resync discards all drift: the state must again match a fresh
        // build of the same decision exactly.
        inc.resync();
        let rebuilt =
            mec_system::IncrementalObjective::new(&scenario, inc.assignment().clone()).unwrap();
        prop_assert_eq!(inc.current().to_bits(), rebuilt.current().to_bits());
    }

    /// The exhaustive optimum dominates TSAJS, and TSAJS dominates the
    /// all-local decision, on any small instance.
    #[test]
    fn optimality_sandwich(seed in 0u64..50) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let (u, s, n) = (rng.gen_range(2..5), rng.gen_range(1..3), rng.gen_range(1..3));
        let gains = ChannelGains::from_fn(u, s, n, |_, _, _| {
            10.0_f64.powf(rng.gen_range(-13.0..-9.0))
        })
        .unwrap();
        let scenario = Scenario::new(
            vec![
                mec_system::UserSpec::paper_default_with_workload(
                    Cycles::from_mega(2000.0)
                ).unwrap();
                u
            ],
            vec![ServerProfile::paper_default(); s],
            OfdmaConfig::new(constants::DEFAULT_BANDWIDTH, n).unwrap(),
            gains,
            constants::DEFAULT_NOISE.to_watts(),
        )
        .unwrap();
        let optimum = ExhaustiveSolver::new().solve(&scenario).unwrap().utility;
        let tsajs = TsajsSolver::new(
            TtsaConfig::paper_default()
                .with_min_temperature(1e-2)
                .with_seed(seed),
        )
        .solve(&scenario)
        .unwrap()
        .utility;
        prop_assert!(tsajs <= optimum + 1e-9);
        prop_assert!(tsajs >= 0.0, "TSAJS should never end below all-local");
        prop_assert!(optimum >= 0.0);
    }
}

/// Reference for `survivor_map`: the quadratic first-index scan.
fn survivor_scan(prev_ids: &[u64], ids: &[u64]) -> Vec<Option<UserId>> {
    ids.iter()
        .map(|id| {
            (0..prev_ids.len())
                .find(|&i| prev_ids[i] == *id)
                .map(UserId::new)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `survivor_map` equals the quadratic scan on random population
    /// streams: departures, fresh arrivals, duplicate ids, and ids that
    /// depart and re-arrive within one batch (moving to the end, so the
    /// two lists no longer share an order).
    #[test]
    fn survivor_map_equals_the_quadratic_scan(seed in 0u64..1_000_000, batches in 1usize..12) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use tsajs_mec::system::survivor_map;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<u64> = (0..rng.gen_range(0..20u64)).collect();
        let mut next_id = ids.len() as u64;
        for _ in 0..batches {
            let prev = ids.clone();
            for _ in 0..rng.gen_range(0..8) {
                match rng.gen_range(0..5) {
                    0 | 1 if !ids.is_empty() => {
                        ids.remove(rng.gen_range(0..ids.len()));
                    }
                    2 => {
                        ids.push(next_id);
                        next_id += 1;
                    }
                    3 if !prev.is_empty() => {
                        let id = prev[rng.gen_range(0..prev.len())];
                        ids.retain(|&x| x != id);
                        ids.push(id);
                    }
                    _ if !ids.is_empty() => {
                        let id = ids[rng.gen_range(0..ids.len())];
                        ids.push(id);
                    }
                    _ => {}
                }
            }
            prop_assert_eq!(survivor_map(&prev, &ids), survivor_scan(&prev, &ids));
        }
    }
}
