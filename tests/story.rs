//! A full "day in the life" integration test: generate a network, persist
//! it as a spec, schedule it with TSAJS, certify the result against the
//! upper bound, render it to SVG, serve the same population through the
//! threaded scheduler service, then follow the users through a mobility
//! episode with incremental re-scheduling.

use rand::SeedableRng;
use tsajs_mec::baselines::upper_bound;
use tsajs_mec::online::{OnlineConfig, OnlineEngine};
use tsajs_mec::prelude::*;
use tsajs_mec::service::{RequestKind, SchedulerCore, ServiceConfig, ServiceRuntime};
use tsajs_mec::system::ScenarioSnapshot;
use tsajs_mec::topology::place_users_uniform;
use tsajs_mec::tsajs::ResolveMode;
use tsajs_mec::viz::SvgScene;

#[test]
fn end_to_end_story() {
    // 1. Build the network and keep the user positions for rendering.
    let params = ExperimentParams::paper_default()
        .with_users(14)
        .with_workload(Cycles::from_mega(2000.0));
    let generator = ScenarioGenerator::new(params);
    let layout = generator.layout().unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let positions = place_users_uniform(&layout, 14, &mut rng);
    let scenario = generator.generate_at(&positions, 77).unwrap();

    // 2. Persist and reload through the spec — the reloaded instance must
    //    behave identically.
    let spec = ScenarioSnapshot::from_scenario(&scenario);
    let reloaded = spec.into_scenario().unwrap();
    assert_eq!(reloaded.gains(), scenario.gains());

    // 3. Schedule the reloaded instance with a quick TSAJS schedule.
    let solution = TsajsSolver::new(
        TtsaConfig::paper_default()
            .with_min_temperature(1e-3)
            .with_seed(77),
    )
    .solve(&reloaded)
    .unwrap();
    solution.assignment.verify_feasible(&scenario).unwrap();

    // 4. Certify against the interference-free bound.
    let bound = upper_bound(&scenario);
    assert!(bound.assignment_bound >= solution.utility - 1e-9);
    let quality = bound.quality(solution.utility);
    assert!(
        quality > 0.5,
        "certified quality suspiciously low: {quality}"
    );

    // 5. Render the schedule.
    let svg = SvgScene::new(&layout)
        .with_users(&positions)
        .with_assignment(&solution.assignment)
        .render();
    assert!(svg.contains("<polygon"));
    assert_eq!(
        svg.matches("<line").count(),
        solution.assignment.num_offloaded(),
        "one link per offloaded user"
    );

    // 6. Serve the same population through the threaded scheduler
    //    service. It draws its own positions and shadowing, so it checks
    //    the serving path rather than re-deciding step 3's instance.
    let mut config = ServiceConfig::quick(77).with_threads(Some(1));
    config.params = params;
    let runtime = ServiceRuntime::spawn(SchedulerCore::new(config).unwrap());
    for user in 0..14 {
        runtime.submit(RequestKind::Arrival { user }).unwrap();
    }
    let core = runtime.shutdown().unwrap();
    let served = core.snapshot();
    assert_eq!(served.users.len(), 14);
    assert!(served.utility.is_finite());
    assert_eq!(core.metrics().overload_rejections, 0);

    // 7. Mobility episode with incremental re-scheduling.
    let base = TtsaConfig::paper_default().with_min_temperature(1e-3);
    let config = OnlineConfig::vehicular()
        .with_base(base)
        .with_mode(ResolveMode::warm(150));
    let mut engine = OnlineEngine::with_static_population(params, config, 77).unwrap();
    let reports = engine.run(4).unwrap();
    assert_eq!(reports.len(), 4);
    assert!(reports.iter().all(|r| r.utility.is_finite()));
    // Refresh epochs stay within their budget (rounded up to an epoch).
    for r in &reports[1..] {
        assert!(r.proposals <= 150 + base.inner_iterations as u64);
    }
}
