//! Routing-degeneracy pin: a cascade wrapping exactly ONE tier must be
//! observationally identical to calling that tier directly — same
//! session content, same prompts, same convergence, same cost ledger —
//! across every tier and both use cases.
//!
//! This is the contract that makes [`llm_sim::CascadeRouter`] safe to
//! put in front of any backend: with no escalation possible, the router
//! must add nothing and remove nothing. If this pin holds, any
//! difference a multi-tier route produces is attributable to routing
//! policy alone, never to the wrapper.

use cosynth::VerifierContext;
use cosynth_fleet::{
    run_case, run_repair_session_tuned, FleetConfig, Repair, SessionTuning, Synthesis,
};
use llm_sim::{BackendChoice, Tier};

const SESSIONS: usize = 16;

fn cfg(backend: BackendChoice) -> FleetConfig {
    FleetConfig {
        sessions: SESSIONS,
        seed: 1,
        threads: 2,
        families: None,
        tuning: SessionTuning {
            backend,
            ..SessionTuning::default()
        },
    }
}

#[test]
fn single_tier_cascade_matches_direct_backend_for_synthesis() {
    for tier in Tier::ALL {
        let direct = run_case::<Synthesis>(&cfg(BackendChoice::Tier(tier)));
        let cascade = run_case::<Synthesis>(&cfg(BackendChoice::CascadeOf(tier)));
        assert_eq!(direct.results.len(), SESSIONS, "{}", tier.name());
        assert_eq!(cascade.results.len(), SESSIONS, "{}", tier.name());
        for (a, b) in direct.results.iter().zip(&cascade.results) {
            let at = (tier.name(), a.index);
            assert_eq!(a.index, b.index);
            assert_eq!(a.scenario, b.scenario, "{at:?}");
            assert_eq!(a.family, b.family, "{at:?}");
            assert_eq!(a.intent, b.intent, "{at:?}");
            // Convergence + leverage fields: the committed BENCH content.
            assert_eq!(a.auto, b.auto, "{at:?}");
            assert_eq!(a.human, b.human, "{at:?}");
            assert_eq!(a.local_ok, b.local_ok, "{at:?}");
            assert_eq!(a.global_ok, b.global_ok, "{at:?}");
            assert_eq!(a.sim_rounds, b.sim_rounds, "{at:?}");
            assert_eq!(a.violations, b.violations, "{at:?}");
            assert_eq!(a.panicked, b.panicked, "{at:?}");
            // The wrapper may not change what the session was billed.
            assert_eq!(a.cost, b.cost, "{at:?}");
        }
        for (a, b) in direct.rows.iter().zip(&cascade.rows) {
            assert_eq!(a.family, b.family);
            assert_eq!(a.sessions, b.sessions);
            assert_eq!(a.converged, b.converged);
            assert_eq!(a.fault_survivals, b.fault_survivals);
            assert_eq!((a.auto, a.human), (b.auto, b.human));
            assert_eq!(a.llm_calls, b.llm_calls);
            assert_eq!(a.milli_cost, b.milli_cost);
        }
    }
}

#[test]
fn single_tier_cascade_matches_direct_backend_for_repair() {
    for tier in Tier::ALL {
        let direct = run_case::<Repair>(&cfg(BackendChoice::Tier(tier)));
        let cascade = run_case::<Repair>(&cfg(BackendChoice::CascadeOf(tier)));
        for (a, b) in direct.results.iter().zip(&cascade.results) {
            let at = (tier.name(), a.index);
            assert_eq!(a.index, b.index);
            assert_eq!(a.scenario, b.scenario, "{at:?}");
            assert_eq!(a.class, b.class, "{at:?}");
            assert_eq!(a.device, b.device, "{at:?}");
            // Repair fields: the committed BENCH content.
            assert_eq!(a.repaired, b.repaired, "{at:?}");
            assert_eq!(a.rounds, b.rounds, "{at:?}");
            assert_eq!(a.localized, b.localized, "{at:?}");
            assert_eq!((a.auto, a.human), (b.auto, b.human), "{at:?}");
            assert_eq!(a.panicked, b.panicked, "{at:?}");
            assert_eq!(a.cost, b.cost, "{at:?}");
        }
        // The space-cache profile depends on what the worker's verdict
        // memo holds from earlier sessions, so it is compared where that
        // history is fixed: every session in index order through one
        // resident context per side.
        let direct_tuning = cfg(BackendChoice::Tier(tier)).tuning;
        let cascade_tuning = cfg(BackendChoice::CascadeOf(tier)).tuning;
        let mut direct_ctx = VerifierContext::new();
        let mut cascade_ctx = VerifierContext::new();
        for index in 0..SESSIONS {
            let at = (tier.name(), index);
            let a = run_repair_session_tuned(1, index, &mut direct_ctx, &direct_tuning);
            let b = run_repair_session_tuned(1, index, &mut cascade_ctx, &cascade_tuning);
            assert_eq!(a.space_hits, b.space_hits, "{at:?}");
            assert_eq!(a.space_misses, b.space_misses, "{at:?}");
        }
    }
}
