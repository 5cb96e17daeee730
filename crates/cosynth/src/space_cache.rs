//! Per-router-draft symbolic space cache.
//!
//! The VPP loop re-verifies every candidate config a model emits, and
//! each symbolic local check used to rebuild its `RouteSpace` (a BDD
//! manager pre-sized for the 40+ variable route encoding, plus the
//! compiled policy transfer) from scratch — the dominant cost of chain
//! and star sessions measured in `BENCH_scenarios.json`. This cache
//! keys one space per router on a fingerprint of the draft's config IR
//! (plus the check set, which fixes the community universe):
//!
//! * **Hit** — the draft parsed to the same IR as the cached one (a
//!   failed rectification attempt returned the previous config
//!   verbatim, or a round that fails in the syntax or topology phase
//!   never reached the symbolic checks at all), so the warm space with
//!   its populated BDD unique table and op caches is reused. In
//!   incremental mode the worker's verdict memo answers a verbatim
//!   repeat before it gets here, so the hits left are drafts whose text
//!   changed but whose IR did not, and full mode's repeats.
//! * **Miss / invalidation** — a rectification edit changed the
//!   router's IR, so the entry is replaced. Only that router's entry is
//!   touched; other routers' spaces survive the whole session.
//!
//! Sharing one space across a draft's checks is sound because
//! [`bf_lite::space_for_checks`] includes every check's community up
//! front, and a community variable unconstrained by both policy and
//! query never appears on a counterexample path — witnesses are
//! byte-identical to the uncached per-check spaces, which is what keeps
//! fleet leverage/convergence fields reproducible across kernels.

use bdd::FxHasher;
use bf_lite::LocalPolicyCheck;
use config_ir::Device;
use policy_symbolic::RouteSpace;
use std::collections::BTreeMap;
use std::hash::Hasher;

/// One cached space and the draft fingerprint it was built for.
struct Entry {
    fingerprint: u64,
    space: RouteSpace,
}

/// Session-scoped cache: one [`RouteSpace`] per router name, invalidated
/// by config-IR fingerprint. Create one per synthesis session and pass
/// it through the rectification loop.
#[derive(Default)]
pub struct RouteSpaceCache {
    entries: BTreeMap<String, Entry>,
    /// Lookups answered by a cached space.
    pub hits: usize,
    /// Lookups that (re)built the space — first sight of a router or a
    /// rectification edit to it.
    pub misses: usize,
}

impl RouteSpaceCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of routers with a live cached space.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no spaces are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The space for `router`'s current draft, rebuilt iff the draft's
    /// IR (or the check set) changed since the last call. Builds are
    /// fresh (unpooled); resident workers use
    /// [`RouteSpaceCache::space_for_in`] via
    /// [`crate::verifier_ctx::VerifierContext`] instead.
    pub fn space_for(
        &mut self,
        router: &str,
        device: &Device,
        checks: &[LocalPolicyCheck],
    ) -> &mut RouteSpace {
        let mut pool = crate::verifier_ctx::ManagerPool::disabled();
        self.space_for_in(&mut pool, router, device, checks)
    }

    /// [`RouteSpaceCache::space_for`] with (re)builds drawing their BDD
    /// manager from `pool` — and invalidated entries releasing theirs
    /// back to it — so a worker amortizes table allocation across every
    /// session it runs. Verdicts and witnesses are bit-identical to the
    /// fresh path.
    pub fn space_for_in(
        &mut self,
        pool: &mut crate::verifier_ctx::ManagerPool,
        router: &str,
        device: &Device,
        checks: &[LocalPolicyCheck],
    ) -> &mut RouteSpace {
        let fingerprint = ir_fingerprint(device, checks);
        let hit = self
            .entries
            .get(router)
            .is_some_and(|e| e.fingerprint == fingerprint);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
            // Release the stale manager *before* acquiring, so an
            // invalidated entry's own manager can serve its rebuild
            // instead of forcing a fresh allocation per invalidation.
            if let Some(stale) = self.entries.remove(router) {
                pool.release(stale.space.into_manager());
            }
            let space = bf_lite::space_for_checks_in(pool.acquire(), device, checks);
            self.entries
                .insert(router.to_string(), Entry { fingerprint, space });
        }
        &mut self.entries.get_mut(router).expect("just ensured").space
    }

    /// The cached space for `router`, if one is live — a plain map
    /// lookup with no fingerprint work. Used by
    /// [`crate::verifier_ctx::VerifierContext`] to re-borrow the space
    /// it just ensured after recording the lookup's timing.
    pub fn space_mut(&mut self, router: &str) -> Option<&mut RouteSpace> {
        self.entries.get_mut(router).map(|e| &mut e.space)
    }

    /// Empties the cache, yielding every cached space (so a pool can
    /// reclaim the managers). Counters are left untouched.
    pub fn drain(&mut self) -> Vec<RouteSpace> {
        std::mem::take(&mut self.entries)
            .into_values()
            .map(|e| e.space)
            .collect()
    }
}

/// Fingerprints a draft's config IR together with its check set.
///
/// The IR's `Debug` form is a complete rendering of the lowered config
/// (policies, sets, interfaces, BGP stanzas), so hashing it captures
/// exactly the inputs the symbolic space depends on — while drafts that
/// differ only in surface text (whitespace, comments, stanza order the
/// lowering normalizes) still share a fingerprint. The checks fix the
/// extra community variables `space_for_checks` adds. The rendering is
/// streamed straight into the hasher via a `fmt::Write` adapter — no
/// intermediate `String` per round.
pub fn ir_fingerprint(device: &Device, checks: &[LocalPolicyCheck]) -> u64 {
    use std::fmt::Write as _;
    let mut w = HashWriter(FxHasher::default());
    let _ = write!(w, "{device:?}");
    for c in checks {
        let _ = write!(w, "{c:?}");
    }
    w.0.finish()
}

/// `fmt::Write` → `Hasher` adapter for [`ir_fingerprint`].
struct HashWriter(FxHasher);

impl std::fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use config_ir::{ClauseAction, IrClause, IrPolicy, Modifier};
    use std::collections::BTreeSet;

    fn tagging_device(name: &str, community: &str) -> Device {
        let mut d = Device::named(name);
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

    fn carry_check(community: &str) -> LocalPolicyCheck {
        LocalPolicyCheck::PermittedRoutesCarry {
            chain: vec!["ADD_COMM".into()],
            community: community.parse().unwrap(),
        }
    }

    #[test]
    fn same_draft_hits_different_draft_misses() {
        let mut cache = RouteSpaceCache::new();
        let d = tagging_device("r1", "100:1");
        let checks = [carry_check("100:1")];
        let _ = cache.space_for("r1", &d, &checks);
        let _ = cache.space_for("r1", &d, &checks);
        assert_eq!((cache.hits, cache.misses), (1, 1));
        // A second router gets its own entry without evicting the first.
        let d2 = tagging_device("r2", "100:1");
        let _ = cache.space_for("r2", &d2, &checks);
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits, cache.misses), (1, 2));
    }

    #[test]
    fn rectification_edit_invalidates_stale_space() {
        let mut cache = RouteSpaceCache::new();
        let d = tagging_device("r1", "100:1");
        let checks = [carry_check("100:1")];
        let space = cache.space_for("r1", &d, &checks);
        assert!(
            space.community_var("200:2".parse().unwrap()).is_none(),
            "community 200:2 must not be in the pre-edit universe"
        );
        // The rectified draft tags a different community: the stale
        // space (whose universe lacks it) must NOT be reused.
        let rectified = tagging_device("r1", "200:2");
        let checks2 = [carry_check("200:2")];
        let space = cache.space_for("r1", &rectified, &checks2);
        assert!(
            space.community_var("200:2".parse().unwrap()).is_some(),
            "invalidation must rebuild the space over the new universe"
        );
        assert_eq!((cache.hits, cache.misses), (0, 2));
        assert_eq!(cache.len(), 1, "replaced in place, not accumulated");
    }

    #[test]
    fn cached_and_fresh_spaces_agree_on_verdicts_and_witnesses() {
        let mut cache = RouteSpaceCache::new();
        // A buggy draft (tags nothing) checked twice through the cache
        // must yield the identical witness a fresh space yields.
        let mut d = Device::named("r1");
        let mut p = IrPolicy::new("ADD_COMM");
        p.clauses.push(IrClause::permit_all("10"));
        d.policies.push(p);
        let checks = [carry_check("100:1")];
        let fresh = bf_lite::check_local_policy(&d, &checks[0]);
        let via_cache = {
            let space = cache.space_for("r1", &d, &checks);
            bf_lite::check_local_policy_in(space, &d, &checks[0])
        };
        let again = {
            let space = cache.space_for("r1", &d, &checks);
            bf_lite::check_local_policy_in(space, &d, &checks[0])
        };
        assert_eq!(fresh.clone().unwrap_err(), via_cache.unwrap_err());
        assert_eq!(fresh.unwrap_err(), again.unwrap_err());
        assert_eq!(cache.hits, 1);
    }
}
