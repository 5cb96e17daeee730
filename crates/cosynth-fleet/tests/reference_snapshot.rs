//! The shared reference snapshot against the uncached path: a repair job
//! that breaks the worker's resident known-good snapshot
//! (`VerifierContext::reference_snapshot` + `FaultSites::inject`) must
//! get exactly the broken configs and ground truth that rendering and
//! scanning the scenario from scratch gives (`clean_configs_for` +
//! `fault_inject::inject`), and a pinned family must render each
//! network once per worker, not once per job.

use cosynth::VerifierContext;
use cosynth_fleet::{
    clean_configs_for, fault_seed, scenario_for, scenario_for_tuned, SessionTuning,
};
use std::sync::Arc;
use topo_model::Scenario;

/// Asserts the shared and the uncached path break `scenario` alike.
fn assert_shared_matches_uncached(ctx: &mut VerifierContext, scenario: &Scenario, index: usize) {
    let seed = fault_seed(1, index);
    let reference = ctx.reference_snapshot(scenario);
    let shared = reference
        .sites
        .inject(&reference.configs, seed)
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
