//! The worker-resident verifier context: a pool of recycled BDD
//! managers plus the per-session [`RouteSpaceCache`].
//!
//! Every symbolic local check runs inside a `RouteSpace`, and before
//! pooling every space build paid `Manager::with_capacity` — ~1.3 MB of
//! fresh table allocation per policy router per session, released again
//! a few milliseconds later. A fleet worker that stays resident can
//! amortize that: [`ManagerPool`] keeps cleared managers (tables intact
//! at whatever size they grew to) and hands them back to the next space
//! build, so a worker allocates tables once per concurrent space, not
//! once per session.
//!
//! The split of responsibilities:
//!
//! * [`ManagerPool`] — **worker-lifetime** state: cleared managers plus
//!   reuse/allocation counters and the peak node count observed at
//!   release time (read from `Manager::stats` by way of `node_count`).
//! * [`RouteSpaceCache`] — **session-lifetime** state: one warm space
//!   per router draft, invalidated by config-IR fingerprint.
//! * [`VerifierContext`] — both, wired together, plus a handle on the
//!   pool-lifetime [`VerdictMemo`] of `cosynth::incremental` (readable
//!   through [`VerifierContext::memo_counters`]): every worker of a pool
//!   holds the same memo ([`VerifierContext::with_memo`]), while the
//!   manager pool and the space cache stay the worker's own. Sessions call
//!   [`VerifierContext::begin_session`], which drains the previous
//!   session's spaces back into the pool and zeroes the cache counters,
//!   so per-session accounting (and with it every committed
//!   `BENCH_*.json` field) is byte-identical to a context created
//!   fresh for that one session.
//!
//! Determinism: a recycled manager reproduces a fresh manager's `Ref`s
//! for the same op sequence (refs are assigned in insertion order from
//! an empty arena; table capacity never enters the result), so pooled
//! and fresh-per-space fleets produce identical session content — the
//! determinism guard in `cosynth-fleet` pins this.

use crate::incremental::VerdictMemo;
use crate::space_cache::RouteSpaceCache;
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
    /// Managers dropped by [`VerifierContext::quarantine`] instead of
    /// recycled: a panicked session may have left them mid-mutation, so
    /// their arenas cannot be trusted by the next tenant.
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

    /// Takes a manager back: records its high-water mark, clears it,
    /// and parks it for the next acquire (or drops it when pooling is
    /// disabled).
    pub fn release(&mut self, mut mgr: Manager) {
        self.peak_nodes = self.peak_nodes.max(mgr.node_count());
        if self.retain {
            mgr.clear();
            self.free.push(mgr);
        }
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

/// Worker-resident verifier state: the manager pool plus the
/// session-scoped route-space cache, and a handle on the pool's verdict
/// memo. Create one per worker on the pool's memo
/// ([`VerifierContext::with_memo`]), or one alone — a pool of one — per
/// session for one-shot runs (a context is also the cheap way to get the
/// old behaviour); call [`VerifierContext::begin_session`] at every
/// session start, and hand it to
/// [`crate::SynthesisSession::run_scenario_in`] /
/// [`crate::RepairSession::run_in`].
pub struct VerifierContext {
    /// Worker-lifetime manager pool.
    pub pool: ManagerPool,
    /// Session-lifetime space cache (drained back into the pool by
    /// [`VerifierContext::begin_session`]).
    pub cache: RouteSpaceCache,
    /// Sessions started on this context.
    pub sessions: usize,
    /// Space-cache hits accumulated over *completed* sessions (the
    /// live session's counters sit in `cache.hits` until the next
    /// `begin_session` folds them in).
    pub cache_hits_total: usize,
    /// Space-cache misses accumulated over completed sessions.
    pub cache_misses_total: usize,
    /// The live session's stage trace: [`Stage::SpaceBuild`] /
    /// [`Stage::SpaceHit`] spans recorded by [`Self::space_for`], plus
    /// the [`Stage::Parse`] and [`Stage::Check`] spans of every local
    /// verdict computed (not answered from the memo). Reset by
    /// [`Self::begin_session`] and merged into the outcome's trace by the
    /// session driver.
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

    /// A worker's context in a pool: manager pooling on, a fresh space
    /// cache, and `memo`, the verdict memo every worker of the pool
    /// holds ([`VerdictMemo::for_pool`] sized for the pool).
    pub fn with_memo(memo: Arc<VerdictMemo>) -> Self {
        Self::with_parts(ManagerPool::new(), memo)
    }

    fn with_parts(pool: ManagerPool, memo: Arc<VerdictMemo>) -> Self {
        VerifierContext {
            pool,
            cache: RouteSpaceCache::new(),
            sessions: 0,
            cache_hits_total: 0,
            cache_misses_total: 0,
            trace: SessionTrace::new(),
            memo,
        }
    }

    /// Starts a session: folds the previous session's cache counters
    /// into the lifetime totals, drains its warm spaces back into the
    /// manager pool, and zeroes the per-session counters. After this
    /// the cache is observationally a fresh `RouteSpaceCache`, which is
    /// what keeps per-session content and accounting byte-identical to
    /// an unpooled run.
    pub fn begin_session(&mut self) {
        self.sessions += 1;
        self.trace = SessionTrace::new();
        self.flush();
    }

    /// Folds the live session's cache counters into the lifetime totals
    /// and parks its spaces in the pool, without opening a new session.
    /// Workers call this once at retirement so the final session's
    /// counters (and manager high-water marks) reach the fleet report.
    pub fn flush(&mut self) {
        self.cache_hits_total += self.cache.hits;
        self.cache_misses_total += self.cache.misses;
        for space in self.cache.drain() {
            self.pool.release(space.into_manager());
        }
        self.cache.hits = 0;
        self.cache.misses = 0;
    }

    /// The space for `router`'s current draft — the pooled equivalent
    /// of [`RouteSpaceCache::space_for`]. The lookup is timed into the
    /// live session's trace: a rebuild records a [`Stage::SpaceBuild`]
    /// span, a warm answer a [`Stage::SpaceHit`] span (classified by
    /// whether the cache's miss counter moved, so trace counts always
    /// reconcile with the cache counters).
    pub fn space_for(
        &mut self,
        router: &str,
        device: &config_ir::Device,
        checks: &[bf_lite::LocalPolicyCheck],
    ) -> &mut RouteSpace {
        let misses_before = self.cache.misses;
        let start = std::time::Instant::now();
        let _ = self
            .cache
            .space_for_in(&mut self.pool, router, device, checks);
        let stage = if self.cache.misses > misses_before {
            Stage::SpaceBuild
        } else {
            Stage::SpaceHit
        };
        self.trace.record(stage, start.elapsed());
        self.cache.space_mut(router).expect("space just ensured")
    }

    /// The first of `checks` that `router`'s parsed draft violates, with
    /// the route that violates it. One space lookup ([`Self::space_for`])
    /// serves every symbolic check; concrete checks (local-pref probes)
    /// need no space at all. Each check run is one [`Stage::Check`] span.
    pub(crate) fn first_violation(
        &mut self,
        router: &str,
        device: &config_ir::Device,
        checks: &[LocalPolicyCheck],
    ) -> Option<(LocalPolicyCheck, RouteAdvertisement)> {
        let symbolic = checks.iter().any(LocalPolicyCheck::is_symbolic);
        if symbolic {
            self.space_for(router, device, checks);
        }
        // The space lives in the cache and the spans go to the trace:
        // disjoint fields, so both borrows hold at once.
        let mut space = self.cache.space_mut(router);
        for check in checks {
            let result = self
                .trace
                .time(Stage::Check, || match space.as_deref_mut() {
                    Some(space) if check.is_symbolic() => {
                        bf_lite::check_local_policy_in(space, device, check)
                    }
                    _ => bf_lite::check_local_policy(device, check),
                });
            if let Err(witness) = result {
                return Some((check.clone(), witness));
            }
        }
        None
    }

    /// The lifetime counters of the context's memo: the whole pool's,
    /// not this worker's share.
    pub fn memo_counters(&self) -> MemoCounters {
        self.memo.counters()
    }

    /// Lifetime cache totals including the live session's counters.
    pub fn cache_totals(&self) -> (usize, usize) {
        (
            self.cache_hits_total + self.cache.hits,
            self.cache_misses_total + self.cache.misses,
        )
    }

    /// Poisons the live session's state after a panic: its counters are
    /// folded into the lifetime totals (the work *was* done), but every
    /// manager it owned is **dropped**, never released back into the
    /// pool — a panic may have unwound mid-mutation, leaving an arena no
    /// future tenant can trust. Each dropped manager bumps
    /// [`ManagerPool::quarantined`]. The context itself stays usable:
    /// after quarantine it is observationally a context whose pool is
    /// merely colder.
    pub fn quarantine(&mut self) {
        self.cache_hits_total += self.cache.hits;
        self.cache_misses_total += self.cache.misses;
        self.cache.hits = 0;
        self.cache.misses = 0;
        for space in self.cache.drain() {
            self.pool.quarantined += 1;
            drop(space);
        }
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

    fn carry_check(community: &str) -> bf_lite::LocalPolicyCheck {
        bf_lite::LocalPolicyCheck::PermittedRoutesCarry {
            chain: vec!["ADD_COMM".into()],
            community: community.parse().unwrap(),
        }
    }

    #[test]
    fn pool_recycles_released_managers() {
        let mut pool = ManagerPool::new();
        let m1 = pool.acquire();
        assert_eq!((pool.reuses, pool.allocs), (0, 1));
        pool.release(m1);
        assert_eq!(pool.idle(), 1);
        let _m2 = pool.acquire();
        assert_eq!((pool.reuses, pool.allocs), (1, 1));
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
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.peak_nodes, nodes);
        let _ = pool.acquire();
        assert_eq!((pool.reuses, pool.allocs), (0, 2));
    }

    #[test]
    fn begin_session_resets_cache_and_refills_pool() {
        let mut ctx = VerifierContext::new();
        ctx.begin_session();
        let d = tagging_device("r1", "100:1");
        let checks = [carry_check("100:1")];
        let space = ctx.space_for("r1", &d, &checks);
        assert!(bf_lite::check_local_policy_in(space, &d, &checks[0]).is_ok());
        let _ = ctx.space_for("r1", &d, &checks);
        assert_eq!((ctx.cache.hits, ctx.cache.misses), (1, 1));
        assert_eq!(ctx.pool.allocs, 1);

        // Next session: counters reset, the space's manager is parked,
        // and the rebuild is served from the pool.
        ctx.begin_session();
        assert_eq!((ctx.cache.hits, ctx.cache.misses), (0, 0));
        assert_eq!(ctx.cache.len(), 0, "spaces drained");
        assert_eq!(ctx.pool.idle(), 1);
        let _ = ctx.space_for("r1", &d, &checks);
        assert_eq!(ctx.pool.reuses, 1);
        assert_eq!(ctx.pool.allocs, 1, "no second allocation");
        assert_eq!(ctx.cache_totals(), (1, 2));
        assert!(ctx.pool.peak_nodes > 1, "release recorded the arena size");
    }

    #[test]
    fn quarantine_drops_managers_instead_of_recycling() {
        let mut ctx = VerifierContext::new();
        ctx.begin_session();
        let d = tagging_device("r1", "100:1");
        let checks = [carry_check("100:1")];
        let _ = ctx.space_for("r1", &d, &checks);
        assert_eq!(ctx.pool.allocs, 1);
        // The session panics: its manager must not reach the free list.
        ctx.quarantine();
        assert_eq!(ctx.pool.quarantined, 1);
        assert_eq!(ctx.pool.idle(), 0, "poisoned manager never parked");
        assert_eq!(ctx.cache.len(), 0);
        // The next session on this context allocates fresh.
        ctx.begin_session();
        let _ = ctx.space_for("r1", &d, &checks);
        assert_eq!(ctx.pool.reuses, 0, "nothing to recycle after quarantine");
        assert_eq!(ctx.pool.allocs, 2);
    }

    #[test]
    fn quarantine_conservation_law_over_random_op_sequences() {
        // Property-style: over a seeded random interleaving of sessions,
        // space builds, and quarantines, every manager ever allocated is
        // exactly one of parked / cached / quarantined — a quarantined
        // manager is never recycled and no counter drifts.
        let mut rng = llm_sim::rng::SimRng::seed_from_u64(0xC0FFEE);
        let routers = ["r1", "r2", "r3", "r4", "r5"];
        let mut ctx = VerifierContext::new();
        ctx.begin_session();
        for step in 0..400 {
            match rng.index(10) {
                0 => ctx.begin_session(),
                1 | 2 => ctx.quarantine(),
                _ => {
                    let name = routers[rng.index(routers.len())];
                    let community = format!("100:{}", 1 + rng.index(3));
                    let d = tagging_device(name, &community);
                    let checks = [carry_check(&community)];
                    let _ = ctx.space_for(name, &d, &checks);
                }
            }
            assert_eq!(
                ctx.pool.allocs,
                ctx.pool.idle() + ctx.cache.len() + ctx.pool.quarantined,
                "conservation violated at step {step}: allocs={} idle={} \
                 cached={} quarantined={}",
                ctx.pool.allocs,
                ctx.pool.idle(),
                ctx.cache.len(),
                ctx.pool.quarantined
            );
        }
        assert!(ctx.pool.quarantined > 0, "the sequence must quarantine");
        assert!(ctx.pool.reuses > 0, "and still exercise recycling");
    }

    #[test]
    fn pooled_and_fresh_spaces_agree_on_witnesses() {
        // A buggy draft checked through a *recycled* manager must yield
        // the exact witness a fresh space yields.
        let mut d = config_ir::Device::named("r1");
        let mut p = IrPolicy::new("ADD_COMM");
        p.clauses.push(IrClause::permit_all("10"));
        d.policies.push(p);
        let checks = [carry_check("100:1")];
        let fresh = bf_lite::check_local_policy(&d, &checks[0]).unwrap_err();

        let mut ctx = VerifierContext::new();
        // Warm the pool with an unrelated tenant first.
        ctx.begin_session();
        let other = tagging_device("r9", "222:2");
        let other_checks = [carry_check("222:2")];
        let _ = ctx.space_for("r9", &other, &other_checks);
        ctx.begin_session();
        assert!(ctx.pool.idle() > 0, "recycled manager available");
        let space = ctx.space_for("r1", &d, &checks);
        let pooled = bf_lite::check_local_policy_in(space, &d, &checks[0]).unwrap_err();
        assert_eq!(ctx.pool.reuses, 1, "the build must have recycled");
        assert_eq!(fresh, pooled);
    }
}
