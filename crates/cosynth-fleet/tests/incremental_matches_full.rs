//! A/B determinism pin for incremental re-verification: per-seed
//! session **content** is byte-identical between full re-verification
//! (`--no-incremental`) and the incremental dirty-set schedule (default)
//! — across seeds and both use cases.
//! Wall-clock, trace span counts, and pool counters are the only
//! excluded fields (see `cosynth::incremental` for why).
//!
//! Plus the dirty-set soundness property the bookkeeping rests on: an
//! edit to one device leaves every device outside its dirty set with a
//! byte-identical rendered config and a byte-identical verdict.

use cosynth::{DependencyTracker, Modularizer, VerifierContext, VerifyMode};
use cosynth_fleet::{
    clean_configs_for, run_repair_session_tuned, run_session_tuned, SessionTuning,
};

/// Everything a repair session reports that is content, not timing.
fn repair_signature(tuning: &SessionTuning, seed: u64, index: usize) -> String {
    let mut ctx = VerifierContext::new();
    let r = run_repair_session_tuned(seed, index, &mut ctx, tuning);
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:?}",
        r.index,
        r.scenario,
        r.family,
        r.intent,
        r.class,
        r.device,
        r.repaired,
        r.rounds,
        r.localized,
        r.auto,
        r.human,
        r.deadline_exceeded,
        r.retries,
        r.cost
    )
}

/// Everything a synthesis session reports that is content, not timing.
fn synthesis_signature(
    tuning: &SessionTuning,
    seed: u64,
    index: usize,
    ctx: &mut VerifierContext,
) -> String {
    let r = run_session_tuned(seed, index, ctx, tuning);
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:?}",
        r.index,
        r.scenario,
        r.family,
        r.intent,
        r.auto,
        r.human,
        r.local_ok,
        r.global_ok,
        r.sim_rounds,
        r.violations,
        r.deadline_exceeded,
        r.retries,
        r.cost
    )
}

fn modes() -> [(&'static str, VerifyMode); 2] {
    [
        ("full", VerifyMode::full()),
        ("incremental", VerifyMode::default()),
    ]
}

/// 64 sessions — two seeds × sixteen indices × both use cases — each
/// run under both verification modes; every content field must
/// match the full-re-verification baseline exactly.
#[test]
fn incremental_matches_full_across_seeds_and_use_cases() {
    for seed in [1, 7] {
        for index in 0..16 {
            let signatures: Vec<(&str, String, String)> = modes()
                .into_iter()
                .map(|(name, verify)| {
                    let tuning = SessionTuning {
                        verify,
                        ..Default::default()
                    };
                    (
                        name,
                        repair_signature(&tuning, seed, index),
                        synthesis_signature(&tuning, seed, index, &mut VerifierContext::new()),
                    )
                })
                .collect();
            let (_, repair_ref, synth_ref) = &signatures[0];
            for (name, repair_sig, synth_sig) in &signatures[1..] {
                assert_eq!(
                    repair_sig, repair_ref,
                    "repair s{seed} i{index}: {name} diverged from full"
                );
                assert_eq!(
                    synth_sig, synth_ref,
                    "synthesis s{seed} i{index}: {name} diverged from full"
                );
            }
        }
    }
}

/// The same pin on an internet-scale family, where the dirty-set
/// bookkeeping actually earns its keep — and where the cross-session
/// memo is hot, so sessions sharing one worker context must still match
/// the cold full baseline.
#[test]
fn incremental_matches_full_on_a_large_family() {
    let mut warm_ctx = VerifierContext::new();
    for index in 0..6 {
        let full = SessionTuning {
            verify: VerifyMode::full(),
            scenario_family: Some("fat-tree-36"),
            ..Default::default()
        };
        let incremental = SessionTuning {
            scenario_family: Some("fat-tree-36"),
            ..Default::default()
        };
        let mut cold_ctx = VerifierContext::new();
        let a = run_repair_session_tuned(3, index, &mut cold_ctx, &full);
        let b = run_repair_session_tuned(3, index, &mut warm_ctx, &incremental);
        assert_eq!(
            (
                &a.scenario,
                &a.class,
                &a.device,
                a.repaired,
                a.rounds,
                a.localized,
                a.auto,
                a.human,
                a.retries,
                &a.cost
            ),
            (
                &b.scenario,
                &b.class,
                &b.device,
                b.repaired,
                b.rounds,
                b.localized,
                b.auto,
                b.human,
                b.retries,
                &b.cost
            ),
            "fat-tree-36 i{index}: warm incremental diverged from cold full"
        );
    }
}

/// The synthesis counterpart: one resident context runs the rotation's
/// sessions in incremental mode, so its verdict and report memos are hot
/// with earlier sessions' drafts and snapshots, and every session must
/// still match a cold full-mode session. A memo key that leaves out an
/// input the verdict reads shows up here.
#[test]
fn incremental_synthesis_matches_full_on_a_warm_worker() {
    let full = SessionTuning {
        verify: VerifyMode::full(),
        ..Default::default()
    };
    let incremental = SessionTuning::default();
    let mut warm_ctx = VerifierContext::new();
    for seed in [1, 7] {
        for index in 0..32 {
            let cold = synthesis_signature(&full, seed, index, &mut VerifierContext::new());
            let warm = synthesis_signature(&incremental, seed, index, &mut warm_ctx);
            assert_eq!(
                warm, cold,
                "synthesis s{seed} i{index}: warm incremental diverged from cold full"
            );
        }
    }
    let memo = warm_ctx.memo_counters();
    assert!(
        memo.verdict_hits > 0,
        "the warm worker must answer checks from its memo: {memo:?}"
    );
    assert_eq!(memo.confirm_mismatches, 0, "{memo:?}");
}

/// Dirty-set soundness: edit one device, and every device outside
/// `DependencyTracker::dirty_of(edited)` keeps a byte-identical rendered
/// config (trivially — only one text changed) **and** a byte-identical
/// per-device verdict, computed via the public sweep on a one-assignment
/// slice in a fresh context each time.
#[test]
fn devices_outside_the_dirty_set_keep_config_and_verdict() {
    for family in ["fat-tree-36", "as-graph-64"] {
        let scenario = scenario_gen::generate_family(family, 5, 0);
        let tracker = DependencyTracker::new(&scenario);
        let assignments = Modularizer::assign_scenario(&scenario);
        let configs = clean_configs_for(&scenario);
        // Edit a sample of devices: the first, one interior, the last.
        let names: Vec<&str> = assignments.iter().map(|a| a.name.as_str()).collect();
        for &edited in [names[0], names[names.len() / 2], names[names.len() - 1]].iter() {
            let mut broken = configs.clone();
            let text = broken.get_mut(edited).expect("edited device has a config");
            text.push_str("\nroute-map BOGUS permit 10\n");
            let dirty = tracker.dirty_of(edited);
            // Sample the untouched complement rather than sweeping all n
            // devices per edit — the property is per-device, so a
            // deterministic sample pins it without quadratic test time.
            let outside: Vec<_> = assignments
                .iter()
                .filter(|a| !dirty.contains(&a.name))
                .step_by(7)
                .collect();
            assert!(
                !outside.is_empty(),
                "{family}: dirty set covered everything"
            );
            for a in outside {
                assert_eq!(
                    configs[&a.name], broken[&a.name],
                    "{family}: {} is outside the dirty set of {edited} but its \
                     rendered config changed",
                    a.name
                );
                let one = std::slice::from_ref(a);
                let before = cosynth::repair::localize(
                    &scenario,
                    one,
                    &configs,
                    &mut VerifierContext::new(),
                );
                let after =
                    cosynth::repair::localize(&scenario, one, &broken, &mut VerifierContext::new());
                assert_eq!(
                    before, after,
                    "{family}: {}'s verdict moved on an edit to {edited} outside \
                     its dependency neighborhood",
                    a.name
                );
            }
        }
    }
}
