//! Cost-ledger conservation under chaos: whatever the fault schedule
//! does — shed batches, worker panics, expired deadlines, flaky
//! transports — the drained fleet's total model cost must equal the sum
//! of per-backend calls priced at each tier's unit cost, the cost-side
//! mirror of the `accounted()` outcome identity. Shed and panicked
//! sessions contribute empty ledgers; a conserved total proves nothing
//! was double-billed and nothing leaked.

use cosynth_fleet::{run_chaos, ChaosConfig};
use llm_sim::Tier;

#[test]
fn chaos_fleet_cost_is_conserved_across_seeds() {
    for seed in [1, 7, 23] {
        let report = run_chaos(&ChaosConfig {
            sessions: 24,
            seed,
            threads: 2,
            queue_depth: 8,
        })
        .unwrap_or_else(|e| panic!("seed {seed}: chaos I/O error {e}"));
        let s = &report.summary;
        assert!(s.accounted(), "seed {seed}: outcome identity failed: {s:?}");
        // The ledger's own invariant: total = Σ tiers' calls × unit.
        assert!(
            s.cost_accounted(),
            "seed {seed}: cost ledger not conserved: {s:?}"
        );
        // Recomputed independently over the known tier price sheet, the
        // way the fleetd metrics snapshot does it: no record may carry
        // an unknown backend or a wrong unit price.
        let repriced: u64 = Tier::ALL
            .iter()
            .enumerate()
            .map(|(i, t)| s.backend_calls[i] * t.unit_milli_cost())
            .sum();
        assert_eq!(
            s.milli_cost, repriced,
            "seed {seed}: ledger total disagrees with the tier price sheet"
        );
        // Chaos completes at least one session at these scales, and a
        // completed session always billed at least one call.
        assert!(s.completed > 0, "seed {seed}: nothing completed: {s:?}");
        assert!(
            s.llm_calls >= s.completed as u64,
            "seed {seed}: {} completed sessions but only {} billed calls",
            s.completed,
            s.llm_calls
        );
    }
}

#[test]
fn chaos_cost_counters_replay_deterministically_per_seed() {
    let run = |seed| {
        let r = run_chaos(&ChaosConfig {
            sessions: 24,
            seed,
            threads: 2,
            queue_depth: 8,
        })
        .unwrap();
        (r.summary.llm_calls, r.summary.milli_cost)
    };
    assert_eq!(
        run(5),
        run(5),
        "cost counters must be a pure function of seed"
    );
}
