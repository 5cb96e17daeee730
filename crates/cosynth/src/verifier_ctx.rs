//! The worker-resident verifier context: a pool of recycled BDD
//! managers plus a handle on the pool-lifetime verdict memo.
//!
//! Every symbolic local check runs inside a `RouteSpace`, and before
//! pooling every space build paid `Manager::with_capacity` — ~1.3 MB of
//! fresh table allocation per policy router per session, released again
//! a few milliseconds later. A fleet worker that stays resident can
//! amortize that: [`ManagerPool`] keeps cleared managers (tables intact
//! at whatever size they grew to) and hands them back to the next space
//! build.
//!
//! A local verdict with symbolic checks builds one space on a manager
//! from the pool, runs every check in it, and releases the manager
//! before it returns. Nothing a verdict builds outlives it, so a worker
//! holds at most one manager at a time and allocates one for its whole
//! lifetime.
//!
//! The split of responsibilities:
//!
//! * [`ManagerPool`] — **worker-lifetime** state: cleared managers plus
//!   reuse/allocation counters, the count of managers handed out and not
//!   yet returned, and the peak node count observed at release time
//!   (read from `Manager::stats` by way of `node_count`).
//! * [`VerifierContext`] — the pool, the live session's stage trace,
//!   and a handle on the pool-lifetime [`VerdictMemo`] of
//!   `cosynth::incremental` (readable through
//!   [`VerifierContext::memo_counters`]): every worker of a pool holds
//!   the same memo ([`VerifierContext::with_memo`]), while the manager
//!   pool stays the worker's own.
//!
//! Determinism: a recycled manager reproduces a fresh manager's `Ref`s
//! for the same op sequence (refs are assigned in insertion order from
//! an empty arena; table capacity never enters the result), so pooled
//! and fresh-per-space fleets produce identical session content — the
//! determinism guard in `cosynth-fleet` pins this.

use crate::incremental::VerdictMemo;
use bdd::Manager;
use bf_lite::LocalPolicyCheck;
use net_model::RouteAdvertisement;
use policy_symbolic::RouteSpace;
use std::sync::Arc;
use telemetry::{SessionTrace, Stage};

/// A pool of cleared, ready-to-recycle BDD managers with reuse
/// accounting. Managers are cleared on [`ManagerPool::release`] (not on
/// acquire), so the peak node count is captured while the arena is
/// still populated and an acquire is a plain `Vec::pop`.
///
/// The pool counts every manager it hands out until it comes back:
/// `allocs == idle() + in_use + quarantined` on a pooling pool.
#[derive(Default)]
pub struct ManagerPool {
    free: Vec<Manager>,
    /// When false, released managers are dropped instead of retained —
    /// the fresh-per-space shape of a one-shot session, which the
    /// determinism guard compares resident workers against.
    retain: bool,
    /// Acquisitions served by a recycled manager.
    pub reuses: usize,
    /// Acquisitions that had to allocate a fresh manager.
    pub allocs: usize,
    /// Largest node arena seen at release time (from
    /// [`Manager::node_count`], the `node_count` field of
    /// [`bdd::ManagerStats`]).
    pub peak_nodes: usize,
    /// Managers handed out by [`ManagerPool::acquire`] and not yet
    /// released: +1 on acquire, −1 on release. A manager a panic drops
    /// on its way out stays counted here until
    /// [`VerifierContext::quarantine`] moves it to `quarantined`.
    pub in_use: usize,
    /// Managers that never came back because the session that held them
    /// panicked (see [`VerifierContext::quarantine`]): the unwind
    /// dropped them, possibly mid-mutation, so no future tenant sees
    /// their arenas.
    pub quarantined: usize,
}

impl ManagerPool {
    /// A pool that retains and recycles released managers.
    pub fn new() -> Self {
        ManagerPool {
            retain: true,
            ..Default::default()
        }
    }

    /// A pool that never retains: every acquire allocates, every
    /// release drops. Counters still run, so one-shot sessions report
    /// the same shape.
    pub fn disabled() -> Self {
        ManagerPool::default()
    }

    /// Managers currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// Hands out a cleared manager: recycled if one is parked, freshly
    /// allocated otherwise.
    ///
    /// A *pooling* pool sizes fresh allocations to the workload it has
    /// actually observed (the node high-water mark of released
    /// managers, floor 2^10) instead of the conservative
    /// [`RouteSpace::DEFAULT_NODE_CAPACITY`]. This is the pool's
    /// second, larger lever after allocation reuse: per-device route
    /// spaces on this workload peak in the hundreds of nodes, so
    /// right-sized tables stay L2-resident and a build (or a
    /// [`Manager::clear`]) touches a couple hundred KB rather than the
    /// default sizing's ~1.2 MB — a one-shot construction cannot know
    /// that and must over-provision. If a workload outgrows the hint,
    /// the unique table grows organically and the grown manager is what
    /// gets recycled. A *disabled* pool reproduces the historical
    /// fresh-per-space path exactly (default capacity per build), which
    /// is what every one-shot session runs.
    pub fn acquire(&mut self) -> Manager {
        self.in_use += 1;
        match self.free.pop() {
            Some(m) => {
                self.reuses += 1;
                m
            }
            None => {
                self.allocs += 1;
                let hint = if self.retain {
                    self.peak_nodes.next_power_of_two().max(1 << 10)
                } else {
                    RouteSpace::DEFAULT_NODE_CAPACITY
                };
                Manager::with_capacity(hint)
            }
        }
    }

    /// Takes back a manager this pool handed out: records its
    /// high-water mark, clears it, and parks it for the next acquire
    /// (or drops it when pooling is disabled).
    pub fn release(&mut self, mut mgr: Manager) {
        self.peak_nodes = self.peak_nodes.max(mgr.node_count());
        if self.retain {
            mgr.clear();
            self.free.push(mgr);
        }
        self.in_use -= 1;
    }
}

/// Lifetime counters of a pool's verdict memo (see
/// `cosynth::incremental`), read through [`VerdictMemo::counters`] or
/// [`VerifierContext::memo_counters`]. Every worker of the pool adds to
/// the same counters, so they are read once per pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounters {
    /// Verdict lookups (per-device local and campion verdicts of both
    /// use cases, whole sweeps, whole-network reports) answered from the
    /// memo.
    pub verdict_hits: usize,
    /// Per-device, whole-sweep and whole-network verdicts computed and
    /// inserted.
    pub verdict_misses: usize,
    /// Memo hits whose stored confirmation (text length plus a second,
    /// independent fingerprint, folded over the network for a
    /// whole-snapshot entry) disagreed with the text's: the key collided,
    /// so the verdict was recomputed and the entry replaced.
    pub confirm_mismatches: usize,
    /// `(topology, policies)` statics bundles built.
    pub statics_builds: usize,
    /// Statics lookups answered by a resident bundle.
    pub statics_hits: usize,
    /// Known-good reference texts rendered and scanned.
    pub texts_rendered: usize,
    /// Reference texts served by an earlier render of the same prompt.
    pub texts_reused: usize,
    /// Pinned large-family networks drawn.
    pub networks_drawn: usize,
    /// Pinned-network lookups answered by a network already drawn.
    pub networks_reused: usize,
    /// Pinned scenario bodies built, one per `(family, seed, intent)`
    /// the pool has run while the memo keeps it.
    pub scenarios_built: usize,
    /// Topology fingerprints computed for statics lookups and pinned
    /// scenario bodies; a topology a pinned body holds is fingerprinted
    /// once.
    pub topology_fps: usize,
}

/// Worker-resident verifier state: the manager pool, the live session's
/// stage trace, and a handle on the pool's verdict memo. Create one per
/// worker on the pool's memo ([`VerifierContext::with_memo`]), or one
/// alone — a pool of one — per session for one-shot runs; call
/// [`VerifierContext::begin_session`] at every session start, and hand
/// it to [`crate::SynthesisSession::run_scenario_in`] /
/// [`crate::RepairSession::run_in`].
pub struct VerifierContext {
    /// Worker-lifetime manager pool.
    pub pool: ManagerPool,
    /// Sessions started on this context.
    pub sessions: usize,
    /// The live session's stage trace: one [`Stage::SpaceBuild`] span
    /// per local verdict with symbolic checks, plus the [`Stage::Parse`]
    /// and [`Stage::Check`] spans of every local verdict computed (not
    /// answered from the memo). Reset by [`Self::begin_session`] and
    /// merged into the outcome's trace when the session ends.
    pub trace: SessionTrace,
    /// The pool's memo of `crate::incremental`, shared by every worker
    /// context of the pool: per-device local verdicts (every synthesis
    /// draft and every repair sweep in incremental mode checks through
    /// them), campion verdicts, whole sweeps and whole-network reports,
    /// each confirmed on every hit, plus the statics bundles, rendered
    /// reference texts and pinned networks that repair job preparation
    /// reads in either mode. `--no-incremental` sessions bypass the
    /// verdicts. Survives [`Self::begin_session`] by design: a synthesis
    /// model returns many drafts unchanged, within a session and across
    /// sessions on the same scenario, and on a fleet pinned to one
    /// `(seed, family)` topology repair sessions differ only in their
    /// intent and fault, so most verdicts recur verbatim, on whichever
    /// worker. Entries are pure values (no managers), so quarantine
    /// leaves them alone.
    pub(crate) memo: Arc<VerdictMemo>,
}

impl Default for VerifierContext {
    fn default() -> Self {
        Self::new()
    }
}

impl VerifierContext {
    /// A context with manager pooling on — the resident-worker shape —
    /// and a memo of its own: a pool of one.
    pub fn new() -> Self {
        Self::with_memo(VerdictMemo::for_pool(1))
    }

    /// A context that builds every space fresh — the one-shot shape
    /// (identical results, no reuse) that `run_scenario` / `run` use —
    /// with a memo of its own: a pool of one.
    pub fn without_pooling() -> Self {
        Self::with_parts(ManagerPool::disabled(), VerdictMemo::for_pool(1))
    }

    /// A worker's context in a pool: manager pooling on, and `memo`, the
    /// verdict memo every worker of the pool holds
    /// ([`VerdictMemo::for_pool`] sized for the pool).
    pub fn with_memo(memo: Arc<VerdictMemo>) -> Self {
        Self::with_parts(ManagerPool::new(), memo)
    }

    fn with_parts(pool: ManagerPool, memo: Arc<VerdictMemo>) -> Self {
        VerifierContext {
            pool,
            sessions: 0,
            trace: SessionTrace::new(),
            memo,
        }
    }

    /// Starts a session: counts it and resets the live stage trace.
    pub fn begin_session(&mut self) {
        self.sessions += 1;
        self.trace = SessionTrace::new();
    }

    /// Does nothing: no state outlives a verdict, so there is nothing
    /// to fold back at a worker's retirement. Kept only because the
    /// traced pass of `perfbench` still calls it; ROADMAP item 6's
    /// benchmark-scoped change drops that call, and this goes after it.
    pub fn flush(&mut self) {}

    /// The first of `checks` that the parsed draft `device` violates,
    /// with the route that violates it. When any check is symbolic, one
    /// space is built on a manager from the pool (one
    /// [`Stage::SpaceBuild`] span) and serves every symbolic check;
    /// concrete checks (local-pref probes) need no space at all. Each
    /// check run is one [`Stage::Check`] span. The manager goes back to
    /// the pool before the call returns.
    pub(crate) fn first_violation(
        &mut self,
        device: &config_ir::Device,
        checks: &[LocalPolicyCheck],
    ) -> Option<(LocalPolicyCheck, RouteAdvertisement)> {
        let mut space = checks.iter().any(LocalPolicyCheck::is_symbolic).then(|| {
            let pool = &mut self.pool;
            self.trace.time(Stage::SpaceBuild, || {
                bf_lite::space_for_checks_in(pool.acquire(), device, checks)
            })
        });
        let violation = checks.iter().find_map(|check| {
            let result = self.trace.time(Stage::Check, || match space.as_mut() {
                Some(space) if check.is_symbolic() => {
                    bf_lite::check_local_policy_in(space, device, check)
                }
                _ => bf_lite::check_local_policy(device, check),
            });
            result.err().map(|witness| (check.clone(), witness))
        });
        if let Some(space) = space {
            self.pool.release(space.into_manager());
        }
        violation
    }

    /// The lifetime counters of the context's memo: the whole pool's,
    /// not this worker's share.
    pub fn memo_counters(&self) -> MemoCounters {
        self.memo.counters()
    }

    /// Always `(0, 0)`: there is no space cache to count. Kept only
    /// because the traced pass of `perfbench` still reads it;
    /// ROADMAP item 6's benchmark-scoped change drops that read, and
    /// this goes after it.
    pub fn cache_totals(&self) -> (usize, usize) {
        (0, 0)
    }

    /// Accounts for a session that panicked: every manager it held when
    /// the panic unwound was dropped with the stack frame that held it
    /// (a verdict's space lives on its stack), possibly mid-mutation, so
    /// none reached the free list. Quarantine moves those managers from
    /// [`ManagerPool::in_use`] to [`ManagerPool::quarantined`]. The
    /// context itself stays usable: after quarantine it is
    /// observationally a context whose pool is merely colder.
    pub fn quarantine(&mut self) {
        self.pool.quarantined += self.pool.in_use;
        self.pool.in_use = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use config_ir::{ClauseAction, IrClause, IrPolicy, Modifier};
    use std::collections::BTreeSet;

    fn tagging_device(name: &str, community: &str) -> config_ir::Device {
        let mut d = config_ir::Device::named(name);
        let mut p = IrPolicy::new("ADD_COMM");
        p.clauses.push(IrClause {
            id: "10".into(),
            action: ClauseAction::Permit,
            conditions: vec![],
            modifiers: vec![Modifier::SetCommunities {
                communities: BTreeSet::from([community.parse().unwrap()]),
                additive: true,
            }],
        });
        d.policies.push(p);
        d
    }

    /// A draft whose policy tags nothing: it violates every carry check.
    fn untagged_device(name: &str) -> config_ir::Device {
        let mut d = config_ir::Device::named(name);
        let mut p = IrPolicy::new("ADD_COMM");
        p.clauses.push(IrClause::permit_all("10"));
        d.policies.push(p);
        d
    }

    fn carry_check(community: &str) -> bf_lite::LocalPolicyCheck {
        bf_lite::LocalPolicyCheck::PermittedRoutesCarry {
            chain: vec!["ADD_COMM".into()],
            community: community.parse().unwrap(),
        }
    }

    /// Every manager the pool ever allocated is parked, out, or
    /// quarantined.
    fn assert_conserved(pool: &ManagerPool, at: &str) {
        assert_eq!(
            pool.allocs,
            pool.idle() + pool.in_use + pool.quarantined,
            "conservation violated at {at}: allocs={} idle={} in_use={} quarantined={}",
            pool.allocs,
            pool.idle(),
            pool.in_use,
            pool.quarantined
        );
    }

    #[test]
    fn pool_recycles_released_managers() {
        let mut pool = ManagerPool::new();
        let m1 = pool.acquire();
        assert_eq!((pool.reuses, pool.allocs, pool.in_use), (0, 1, 1));
        pool.release(m1);
        assert_eq!((pool.idle(), pool.in_use), (1, 0));
        let _m2 = pool.acquire();
        assert_eq!((pool.reuses, pool.allocs, pool.in_use), (1, 1, 1));
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn disabled_pool_never_retains_but_still_counts() {
        let mut pool = ManagerPool::disabled();
        let mut m = pool.acquire();
        m.new_vars(3);
        let v = m.var(0);
        let w = m.var(1);
        let _ = m.and(v, w);
        let nodes = m.node_count();
        pool.release(m);
        assert_eq!((pool.idle(), pool.in_use), (0, 0));
        assert_eq!(pool.peak_nodes, nodes);
        let _ = pool.acquire();
        assert_eq!((pool.reuses, pool.allocs), (0, 2));
    }

    #[test]
    fn verdicts_return_their_manager_before_they_end() {
        let mut ctx = VerifierContext::new();
        ctx.begin_session();
        let d = tagging_device("r1", "100:1");
        let checks = [carry_check("100:1")];
        assert!(ctx.first_violation(&d, &checks).is_none());
        assert_eq!(
            (ctx.pool.allocs, ctx.pool.in_use, ctx.pool.idle()),
            (1, 0, 1)
        );
        assert!(ctx.pool.peak_nodes > 1, "release recorded the arena size");
        // The same draft again builds its space again, on the same
        // manager.
        assert!(ctx.first_violation(&d, &checks).is_none());
        assert_eq!(ctx.trace.get(Stage::SpaceBuild).count, 2);
        assert_eq!(ctx.trace.get(Stage::Check).count, 2);

        // The next session starts a fresh trace and still recycles.
        ctx.begin_session();
        assert_eq!(ctx.trace.get(Stage::SpaceBuild).count, 0);
        let bad = untagged_device("r2");
        assert!(ctx.first_violation(&bad, &checks).is_some());
        assert_eq!((ctx.pool.reuses, ctx.pool.allocs), (2, 1), "one manager");
        assert_eq!((ctx.pool.in_use, ctx.pool.idle()), (0, 1));

        // A verdict with only concrete checks builds no space.
        let probe = [bf_lite::LocalPolicyCheck::PermittedRoutesSetLocalPref {
            chain: vec!["ADD_COMM".into()],
            value: 200,
        }];
        let _ = ctx.first_violation(&d, &probe);
        assert_eq!(ctx.trace.get(Stage::SpaceBuild).count, 1);
        assert_eq!((ctx.pool.reuses, ctx.pool.allocs), (2, 1));
        assert_eq!(ctx.sessions, 2);
    }

    #[test]
    fn quarantine_drops_managers_instead_of_recycling() {
        let mut ctx = VerifierContext::new();
        ctx.begin_session();
        let d = tagging_device("r1", "100:1");
        let checks = [carry_check("100:1")];
        assert!(ctx.first_violation(&d, &checks).is_none());
        // A verdict panics while it holds a space built on the pool's
        // manager: the unwind drops the space, so the manager never
        // comes back.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _space = bf_lite::space_for_checks_in(ctx.pool.acquire(), &d, &checks);
            panic!("injected verdict panic");
        }));
        assert!(unwound.is_err());
        assert_eq!((ctx.pool.in_use, ctx.pool.idle()), (1, 0));
        assert_conserved(&ctx.pool, "after the unwind");
        ctx.quarantine();
        assert_eq!((ctx.pool.quarantined, ctx.pool.in_use), (1, 0));
        assert_eq!(ctx.pool.idle(), 0, "poisoned manager never parked");
        // The next session on this context allocates fresh.
        ctx.begin_session();
        assert!(ctx.first_violation(&d, &checks).is_none());
        assert_eq!((ctx.pool.reuses, ctx.pool.allocs), (1, 2));
        assert_conserved(&ctx.pool, "after the next verdict");

        // A manager still held when quarantine runs (a frame the unwind
        // has not reached yet) is counted too, and is dropped, never
        // released.
        let held = ctx.pool.acquire();
        ctx.quarantine();
        assert_eq!((ctx.pool.quarantined, ctx.pool.in_use), (2, 0));
        drop(held);
        assert_eq!(ctx.pool.idle(), 0);
        assert_conserved(&ctx.pool, "after a held manager's quarantine");
    }

    #[test]
    fn quarantine_conservation_law_over_random_op_sequences() {
        // Property-style: over a seeded random interleaving of sessions,
        // verdicts, verdicts that unwind with their space, and
        // quarantines, every manager ever allocated is exactly one of
        // parked / in use / quarantined — a quarantined manager is never
        // recycled and no counter drifts.
        let mut rng = llm_sim::rng::SimRng::seed_from_u64(0xC0FFEE);
        let routers = ["r1", "r2", "r3", "r4", "r5"];
        let mut ctx = VerifierContext::new();
        ctx.begin_session();
        for step in 0..400 {
            let name = routers[rng.index(routers.len())];
            let community = format!("100:{}", 1 + rng.index(3));
            let checks = [carry_check(&community)];
            match rng.index(10) {
                0 => ctx.begin_session(),
                1 | 2 => ctx.quarantine(),
                3 => {
                    // A verdict that unwinds drops its space on the way
                    // out instead of releasing the manager.
                    let d = tagging_device(name, &community);
                    drop(bf_lite::space_for_checks_in(
                        ctx.pool.acquire(),
                        &d,
                        &checks,
                    ));
                }
                4..=6 => {
                    let d = untagged_device(name);
                    assert!(ctx.first_violation(&d, &checks).is_some());
                }
                _ => {
                    let d = tagging_device(name, &community);
                    assert!(ctx.first_violation(&d, &checks).is_none());
                }
            }
            assert_conserved(&ctx.pool, &format!("step {step}"));
            assert!(ctx.pool.idle() <= 1, "a worker holds one manager at a time");
        }
        assert!(ctx.pool.quarantined > 0, "the sequence must quarantine");
        assert!(ctx.pool.reuses > 0, "and still exercise recycling");
    }

    #[test]
    fn pooled_and_fresh_spaces_agree_on_witnesses() {
        // A buggy draft checked through a *recycled* manager must yield
        // the exact witness a fresh space yields.
        let d = untagged_device("r1");
        let checks = [carry_check("100:1")];
        let fresh = bf_lite::check_local_policy(&d, &checks[0]).unwrap_err();

        let mut ctx = VerifierContext::new();
        // Warm the pool with an unrelated tenant first.
        ctx.begin_session();
        let other = tagging_device("r9", "222:2");
        assert!(ctx
            .first_violation(&other, &[carry_check("222:2")])
            .is_none());
        ctx.begin_session();
        assert!(ctx.pool.idle() > 0, "recycled manager available");
        let (check, pooled) = ctx.first_violation(&d, &checks).expect("violated");
        assert_eq!(ctx.pool.reuses, 1, "the build must have recycled");
        assert_eq!(check.describe(), checks[0].describe());
        assert_eq!(fresh, pooled);
    }
}
