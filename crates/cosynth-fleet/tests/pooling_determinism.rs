//! Determinism guard for the resident engine: a fleet run whose workers
//! recycle BDD managers must produce **byte-identical** session content
//! to one-shot sessions over the same indices, each building every
//! symbolic space against a fresh manager on its own unpooled context
//! — across both use cases. Only wall-clock fields may differ.
//!
//! This is the contract that lets the pooled path replace the fresh
//! path without re-validating any committed `BENCH_*.json` provenance:
//! `Ref`s depend on the op sequence alone, no verifier state outlives
//! the local verdict that built it, and the verdict memo every worker
//! of a pool shares serves only pure, confirmed values.

use cosynth::VerifierContext;
use cosynth_fleet::{
    run_case, run_repair_session_in, FleetConfig, Repair, SessionTuning, Synthesis, UseCase,
};
use telemetry::Stage;

const SESSIONS: usize = 16;

fn cfg() -> FleetConfig {
    FleetConfig {
        sessions: SESSIONS,
        seed: 1,
        threads: 2,
        families: None,
        tuning: SessionTuning::default(),
    }
}

/// The fresh side: one-shot sessions over `indices` under `tuning`, each
/// on its own unpooled context, which must show zero manager reuse.
fn one_shot<U: UseCase>(
    indices: impl Iterator<Item = usize>,
    tuning: &SessionTuning,
) -> Vec<U::Result> {
    indices
        .map(|index| {
            let mut ctx = VerifierContext::without_pooling();
            let result = U::run_session(1, index, &mut ctx, tuning);
            assert_eq!(ctx.pool.reuses, 0, "one-shot session {index} recycled");
            result
        })
        .collect()
}

#[test]
fn pooled_and_fresh_synthesis_fleets_are_byte_identical() {
    let pooled = run_case::<Synthesis>(&cfg());
    let fresh = one_shot::<Synthesis>(pooled.results.iter().map(|r| r.index), &cfg().tuning);
    let fresh_rows = Synthesis::aggregate(&fresh);
    assert_eq!(fresh.len(), SESSIONS);
    assert_eq!(pooled.results.len(), SESSIONS);
    // The pooled run must actually have recycled — otherwise this test
    // compares the fresh path against itself.
    assert!(
        pooled.pool.manager_reuses > 0,
        "pooled run never recycled: {:?}",
        pooled.pool
    );
    for (a, b) in fresh.iter().zip(&pooled.results) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.scenario, b.scenario, "session {}", a.index);
        assert_eq!(a.family, b.family, "session {}", a.index);
        assert_eq!(a.intent, b.intent, "session {}", a.index);
        // Convergence + leverage fields: the committed BENCH content.
        assert_eq!(a.auto, b.auto, "session {}", a.index);
        assert_eq!(a.human, b.human, "session {}", a.index);
        assert_eq!(a.local_ok, b.local_ok, "session {}", a.index);
        assert_eq!(a.global_ok, b.global_ok, "session {}", a.index);
        assert_eq!(a.sim_rounds, b.sim_rounds, "session {}", a.index);
        assert_eq!(a.violations, b.violations, "session {}", a.index);
        assert_eq!(a.panicked, b.panicked, "session {}", a.index);
    }
    // Aggregate rows agree on everything except wall-clock spreads.
    for (a, b) in fresh_rows.iter().zip(&pooled.rows) {
        assert_eq!(a.family, b.family);
        assert_eq!(a.sessions, b.sessions);
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.fault_survivals, b.fault_survivals);
        assert_eq!((a.auto, a.human), (b.auto, b.human));
    }
}

#[test]
fn pooled_and_fresh_repair_fleets_are_byte_identical() {
    // The rotation on two workers, and a pinned large family on four,
    // where every worker races on the pool's one memo for the same
    // network, statics bundles, reference texts and verdicts.
    let pinned = FleetConfig {
        threads: 4,
        tuning: SessionTuning {
            scenario_family: Some("as-graph-64"),
            ..SessionTuning::default()
        },
        ..cfg()
    };
    for cfg in [cfg(), pinned] {
        let pooled = run_case::<Repair>(&cfg);
        let fresh = one_shot::<Repair>(pooled.results.iter().map(|r| r.index), &cfg.tuning);
        assert_eq!(pooled.results.len(), SESSIONS);
        assert!(
            pooled.pool.manager_reuses > 0,
            "pooled run never recycled: {:?}",
            pooled.pool
        );
        assert_eq!(pooled.pool.memo.confirm_mismatches, 0, "{:?}", pooled.pool);
        for (a, b) in fresh.iter().zip(&pooled.results) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.scenario, b.scenario, "session {}", a.index);
            assert_eq!(a.family, b.family, "session {}", a.index);
            assert_eq!(a.intent, b.intent, "session {}", a.index);
            assert_eq!(a.class, b.class, "session {}", a.index);
            assert_eq!(a.device, b.device, "session {}", a.index);
            // Repair fields: the committed BENCH content.
            assert_eq!(a.repaired, b.repaired, "session {}", a.index);
            assert_eq!(a.rounds, b.rounds, "session {}", a.index);
            assert_eq!(a.localized, b.localized, "session {}", a.index);
            assert_eq!((a.auto, a.human), (b.auto, b.human), "session {}", a.index);
            assert_eq!(a.panicked, b.panicked, "session {}", a.index);
            assert_eq!(
                (a.cost.total_calls(), a.cost.total_milli_cost()),
                (b.cost.total_calls(), b.cost.total_milli_cost()),
                "session {}",
                a.index
            );
        }
    }
    // Even the space-build profile is identical: pooling changes where
    // managers come from, never which spaces a session builds. That
    // depends on what its pool's verdict memo holds from earlier
    // sessions, so the profile is compared where that history is fixed:
    // every session in index order through one resident context per
    // side.
    let mut fresh_ctx = VerifierContext::without_pooling();
    let mut pooled_ctx = VerifierContext::new();
    for index in 0..SESSIONS {
        let a = run_repair_session_in(1, index, &mut fresh_ctx);
        let b = run_repair_session_in(1, index, &mut pooled_ctx);
        assert_eq!(
            a.trace.get(Stage::SpaceBuild).count,
            b.trace.get(Stage::SpaceBuild).count,
            "session {index}"
        );
    }
    assert!(
        pooled_ctx.pool.reuses > 0,
        "resident context never recycled"
    );
    // The peak arena is a property of the session content, so both
    // shapes observe the same high-water mark.
    assert_eq!(fresh_ctx.pool.peak_nodes, pooled_ctx.pool.peak_nodes);
}
