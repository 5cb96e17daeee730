//! The shared reference snapshot against the uncached path: a repair job
//! that breaks the worker's resident known-good snapshot
//! (`VerifierContext::reference_snapshot` + `FaultSites::inject`, or the
//! job a context prepares) must get exactly the broken configs and ground
//! truth that rendering and scanning the scenario from scratch gives
//! (`clean_configs_for` + `fault_inject::inject`), must repair it exactly
//! as a one-shot session on that map does, and a pinned family must
//! render each network once per worker, not once per job.

use cosynth::{RepairOutcome, RepairSession, VerifierContext};
use cosynth_fleet::{
    clean_configs_for, fault_seed, scenario_for, scenario_for_tuned, SessionTuning,
};
use llm_sim::{ErrorModel, SimulatedGpt4};
use std::sync::Arc;
use topo_model::Scenario;

/// Asserts the shared and the uncached path break `scenario` alike.
fn assert_shared_matches_uncached(ctx: &mut VerifierContext, scenario: &Scenario, index: usize) {
    let seed = fault_seed(1, index);
    let reference = ctx.reference_snapshot(scenario);
    let shared = reference
        .sites
        .inject(&reference.configs(), seed)
        .expect("shared path injects");
    let uncached =
        fault_inject::inject(&clean_configs_for(scenario), seed).expect("uncached path injects");
    assert_eq!(
        shared.fault, uncached.fault,
        "{} (index {index})",
        scenario.name
    );
    assert_eq!(
        shared.configs, uncached.configs,
        "{} (index {index})",
        scenario.name
    );
}

/// Everything a repair outcome reports that is content, not timing.
fn content(o: &RepairOutcome) -> String {
    format!(
        "{:?}|{}|{}|{:?}|{:?}|{:?}|{:?}",
        o.configs, o.repaired, o.rounds, o.first_localization, o.global, o.leverage, o.log
    )
}

/// Asserts that the job `ctx` prepares for `scenario` is the scenario the
/// fleet generates for `index`, and that running it repairs exactly as a
/// one-shot `run_in` session on the uncached broken map does.
fn assert_job_matches_one_shot(
    ctx: &mut VerifierContext,
    scenario: Scenario,
    expected: &Scenario,
    index: usize,
) {
    let seed = fault_seed(1, index);
    let job = ctx.prepare_repair(scenario, seed).expect("job prepares");
    assert_eq!(job.scenario(), expected, "index {index}");
    let injection =
        fault_inject::inject(&clean_configs_for(expected), seed).expect("uncached path injects");
    assert_eq!(job.fault(), &injection.fault, "index {index}");
    assert_eq!(job.snapshot().to_map(), injection.configs, "index {index}");
    let model = || SimulatedGpt4::new(ErrorModel::paper_default(), 1000 + index as u64);
    let prepared = RepairSession::default().run_job(&mut model(), &job, ctx);
    let one_shot = RepairSession::default().run_in(
        &mut model(),
        expected,
        &injection,
        &mut VerifierContext::without_pooling(),
    );
    assert_eq!(
        content(&prepared),
        content(&one_shot),
        "{} (index {index})",
        expected.name
    );
}

#[test]
fn shared_reference_snapshot_breaks_like_the_uncached_path() {
    // One resident context across both windows, as a fleet worker.
    let mut ctx = VerifierContext::new();
    let tuning = SessionTuning {
        scenario_family: Some("as-graph-64"),
        ..SessionTuning::default()
    };
    let mut snapshots: Vec<Arc<cosynth::ReferenceSnapshot>> = Vec::new();
    for index in 0..16 {
        let scenario = scenario_for_tuned(1, index, &tuning);
        assert_shared_matches_uncached(&mut ctx, &scenario, index);
        let snapshot = ctx.reference_snapshot(&scenario);
        if !snapshots.iter().any(|s| Arc::ptr_eq(s, &snapshot)) {
            snapshots.push(snapshot);
        }
    }
    // One topology per (seed, family) and one of four intents: the
    // window renders at most four networks.
    let built = ctx.memo_counters().statics_builds;
    assert!(
        built <= 4,
        "{built} statics bundles for one pinned topology"
    );
    assert!(
        snapshots.len() <= 4,
        "{} reference snapshots for one pinned topology",
        snapshots.len()
    );

    // The rotation: six families, star included, a new network almost
    // every index.
    for index in 0..12 {
        let scenario = scenario_for(1, index);
        assert_shared_matches_uncached(&mut ctx, &scenario, index);
    }
}

#[test]
fn prepared_jobs_repair_like_one_shot_sessions_on_the_uncached_map() {
    // One resident context over the pinned window — each job's scenario
    // built on the context's one drawn network — and then the rotation.
    let mut ctx = VerifierContext::new();
    let tuning = SessionTuning {
        scenario_family: Some("as-graph-64"),
        ..SessionTuning::default()
    };
    for index in 0..16 {
        let network = ctx.pinned_network("as-graph-64", 1, || {
            scenario_gen::pinned_network("as-graph-64", 1).expect("large family")
        });
        let (topology, stubs) = &*network;
        let scenario =
            scenario_gen::pinned_scenario("as-graph-64", 1, index, topology.clone(), stubs);
        let expected = scenario_for_tuned(1, index, &tuning);
        assert_job_matches_one_shot(&mut ctx, scenario, &expected, index);
    }
    let memo = ctx.memo_counters();
    assert_eq!(
        (memo.networks_drawn, memo.networks_reused),
        (1, 15),
        "{memo:?}"
    );
    assert!(memo.texts_reused > memo.texts_rendered, "{memo:?}");
    for index in 0..12 {
        let scenario = scenario_for(1, index);
        assert_job_matches_one_shot(&mut ctx, scenario.clone(), &scenario, index);
    }
    assert_eq!(ctx.memo_counters().confirm_mismatches, 0);
}
