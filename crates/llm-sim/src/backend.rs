//! Pluggable, priced model backends.
//!
//! The paper's leverage metric counts human prompts the verifier saves;
//! a backend's price says what each of the remaining calls costs. This
//! module supplies the pieces:
//!
//! * [`Tier`] — the simulated backend family and the fleet-facing
//!   selector (`fleet --backend <name>`): the existing calibrated GPT-4
//!   plus three error-model-derived accuracy/cost points
//!   (`sim-cheap`/`sim-std`/`sim-premium`). [`Tier::build`] makes one
//!   boxed backend per session, byte-identical to the historical
//!   hard-wired construction for the default tier.
//! * [`CostRecord`] / [`CostLedger`] — per-backend call accounting
//!   (unit cost in integer milli-units, call count, accumulated
//!   simulated latency) with a conservation identity
//!   (`total == Σ calls × unit_cost`) every layer above re-checks.
//! * [`ModelBackend`] — the backend contract on top of
//!   [`LanguageModel`]: a priced, self-accounting completion source.

use crate::error_model::TransportModel;
use crate::gpt4::SimulatedGpt4;
use crate::model::LanguageModel;
use crate::ErrorModel;

/// One simulated backend tier: an accuracy/cost point derived from the
/// error model. `Gpt4` is the historical calibrated model (same error
/// model as [`ErrorModel::paper_default`], premium price); `Std` shares
/// its accuracy at a mid-market price; `Cheap` and `Premium` bracket it.
/// `Default` is the historical hard-wired backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Noisy and nearly free: bumped draft-fault and repair-pathology
    /// rates.
    Cheap,
    /// The paper-calibrated error model at a mid-market price.
    Std,
    /// Accurate and expensive: halved fault rates, tamed repair
    /// pathologies.
    Premium,
    /// The original simulated GPT-4: paper-calibrated accuracy at the
    /// premium price. The zero-knob default backend.
    #[default]
    Gpt4,
}

impl Tier {
    /// Every tier, cheapest first, with the historical default last.
    pub const ALL: [Tier; 4] = [Tier::Cheap, Tier::Std, Tier::Premium, Tier::Gpt4];

    /// The stable backend name used by `fleet --backend`, cost records,
    /// and bench files.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Cheap => "sim-cheap",
            Tier::Std => "sim-std",
            Tier::Premium => "sim-premium",
            Tier::Gpt4 => "simulated-gpt4",
        }
    }

    /// The snake_case suffix used for per-tier registry counters
    /// (`backend_calls_<suffix>`).
    pub fn metric_suffix(self) -> &'static str {
        match self {
            Tier::Cheap => "sim_cheap",
            Tier::Std => "sim_std",
            Tier::Premium => "sim_premium",
            Tier::Gpt4 => "simulated_gpt4",
        }
    }

    /// Price per completion call in integer milli-units of currency.
    /// Integer so ledgers sum exactly and the conservation identity is
    /// decidable without float tolerance.
    pub fn unit_milli_cost(self) -> u64 {
        match self {
            Tier::Cheap => 1,
            Tier::Std => 5,
            Tier::Premium => 25,
            Tier::Gpt4 => 25,
        }
    }

    /// Simulated per-call latency in milliseconds — *accounted*, never
    /// slept, exactly like the retry layer's backoff.
    pub fn latency_ms(self) -> u64 {
        match self {
            Tier::Cheap => 200,
            Tier::Std => 450,
            Tier::Premium => 900,
            Tier::Gpt4 => 900,
        }
    }

    /// The tier's error model. `Std` and `Gpt4` are the paper
    /// calibration; `Cheap`/`Premium` are derived from it (see
    /// [`ErrorModel::sim_cheap`] / [`ErrorModel::sim_premium`]). All
    /// four leave the transport knobs at zero.
    pub fn error_model(self) -> ErrorModel {
        match self {
            Tier::Cheap => ErrorModel::sim_cheap(),
            Tier::Std => ErrorModel::sim_std(),
            Tier::Premium => ErrorModel::sim_premium(),
            Tier::Gpt4 => ErrorModel::paper_default(),
        }
    }

    /// Parses a backend name as printed by [`Tier::name`].
    pub fn parse(s: &str) -> Option<Tier> {
        Tier::ALL.into_iter().find(|t| t.name() == s)
    }

    /// Builds this tier's backend for one session. For the default tier
    /// this is exactly the historical construction
    /// (`SimulatedGpt4::new(paper_default + transport, seed)`), so
    /// zero-knob session content stays byte-identical.
    pub fn build(self, seed: u64, transport: TransportModel) -> Box<dyn LanguageModel + Send> {
        Box::new(SimulatedGpt4::for_tier(self, seed).with_transport(transport))
    }
}

/// One backend's row in a [`CostLedger`]: how many calls it served, at
/// what unit price, and the simulated latency it accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostRecord {
    /// Backend name ([`Tier::name`] for the sim tiers).
    pub backend: &'static str,
    /// Price per call in milli-units.
    pub unit_milli_cost: u64,
    /// Completion calls charged to this backend.
    pub calls: u64,
    /// Total simulated latency across those calls, milliseconds.
    pub latency_ms: u64,
}

impl CostRecord {
    /// This record's total cost: `calls × unit_milli_cost`.
    pub fn milli_cost(&self) -> u64 {
        self.calls * self.unit_milli_cost
    }
}

/// Per-backend cost accounting for one session (or one fleet, after
/// [`CostLedger::absorb`]). The running `total_milli_cost` is charged
/// call by call and must always equal the sum over records — the
/// conservation identity ([`CostLedger::conserved`]) that the service
/// registry and the chaos harness re-check from their own counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostLedger {
    records: Vec<CostRecord>,
    total_milli_cost: u64,
}

impl CostLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Charges one completion call to `backend` at `unit_milli_cost`,
    /// accumulating `latency_ms` of simulated latency.
    pub fn charge(&mut self, backend: &'static str, unit_milli_cost: u64, latency_ms: u64) {
        self.total_milli_cost += unit_milli_cost;
        if let Some(r) = self.records.iter_mut().find(|r| r.backend == backend) {
            r.calls += 1;
            r.latency_ms += latency_ms;
        } else {
            self.records.push(CostRecord {
                backend,
                unit_milli_cost,
                calls: 1,
                latency_ms,
            });
        }
    }

    /// The per-backend records, in first-charged order.
    pub fn records(&self) -> &[CostRecord] {
        &self.records
    }

    /// Total cost charged so far, milli-units.
    pub fn total_milli_cost(&self) -> u64 {
        self.total_milli_cost
    }

    /// Total completion calls across all backends.
    pub fn total_calls(&self) -> u64 {
        self.records.iter().map(|r| r.calls).sum()
    }

    /// Total simulated latency across all backends, milliseconds.
    pub fn total_latency_ms(&self) -> u64 {
        self.records.iter().map(|r| r.latency_ms).sum()
    }

    /// Calls charged to one backend by name (0 when absent).
    pub fn calls_for(&self, backend: &str) -> u64 {
        self.records
            .iter()
            .find(|r| r.backend == backend)
            .map_or(0, |r| r.calls)
    }

    /// Whether nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The conservation identity: the running total equals the sum of
    /// `calls × unit_milli_cost` over the records.
    pub fn conserved(&self) -> bool {
        self.total_milli_cost == self.records.iter().map(CostRecord::milli_cost).sum::<u64>()
    }

    /// Folds another ledger's records into this one (fleet/service
    /// aggregation).
    pub fn absorb(&mut self, other: &CostLedger) {
        self.total_milli_cost += other.total_milli_cost;
        for r in &other.records {
            if let Some(mine) = self.records.iter_mut().find(|m| m.backend == r.backend) {
                mine.calls += r.calls;
                mine.latency_ms += r.latency_ms;
            } else {
                self.records.push(*r);
            }
        }
    }

    /// The charges accumulated since `baseline` was snapshotted from the
    /// same backend: each record minus the baseline's, and the running
    /// total minus the baseline's running total (both saturating). Lets
    /// a caller that reuses one backend across sessions extract each
    /// session's own cost. The total is not rebuilt from the records, so
    /// a ledger whose running total drifted from its records yields a
    /// delta that fails [`CostLedger::conserved`] too.
    pub fn since(&self, baseline: &CostLedger) -> CostLedger {
        let mut out = CostLedger {
            records: Vec::new(),
            total_milli_cost: self
                .total_milli_cost
                .saturating_sub(baseline.total_milli_cost),
        };
        for r in &self.records {
            let base = baseline.records.iter().find(|b| b.backend == r.backend);
            let calls = r.calls.saturating_sub(base.map_or(0, |b| b.calls));
            if calls == 0 {
                continue;
            }
            out.records.push(CostRecord {
                backend: r.backend,
                unit_milli_cost: r.unit_milli_cost,
                calls,
                latency_ms: r
                    .latency_ms
                    .saturating_sub(base.map_or(0, |b| b.latency_ms)),
            });
        }
        out
    }
}

/// A priced, self-accounting completion backend: the contract every
/// backend (the simulated tiers, a future real API client) must satisfy
/// on top of [`LanguageModel`]. The identity is [`LanguageModel::name`];
/// the ledger is [`LanguageModel::cost`]; this trait adds the price
/// point.
pub trait ModelBackend: LanguageModel {
    /// Price per call, milli-units.
    fn unit_milli_cost(&self) -> u64;

    /// Simulated per-call latency, milliseconds.
    fn latency_ms(&self) -> u64;
}

impl ModelBackend for SimulatedGpt4 {
    fn unit_milli_cost(&self) -> u64 {
        self.tier().unit_milli_cost()
    }

    fn latency_ms(&self) -> u64 {
        self.tier().latency_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_parse_roundtrip() {
        for t in Tier::ALL {
            assert_eq!(Tier::parse(t.name()), Some(t));
            assert_eq!(t.metric_suffix(), t.name().replace('-', "_"));
        }
        assert_eq!(Tier::parse("gpt-5"), None);
    }

    #[test]
    fn ledger_charges_and_conserves() {
        let mut l = CostLedger::new();
        assert!(l.is_empty() && l.conserved());
        l.charge("sim-cheap", 1, 200);
        l.charge("sim-cheap", 1, 200);
        l.charge("sim-premium", 25, 900);
        assert_eq!(l.total_milli_cost(), 27);
        assert_eq!(l.total_calls(), 3);
        assert_eq!(l.total_latency_ms(), 1300);
        assert_eq!(l.calls_for("sim-cheap"), 2);
        assert_eq!(l.calls_for("sim-std"), 0);
        assert!(l.conserved());
    }

    #[test]
    fn ledger_absorb_and_since_are_inverse() {
        let mut base = CostLedger::new();
        base.charge("sim-std", 5, 450);
        let snapshot = base.clone();
        base.charge("sim-std", 5, 450);
        base.charge("sim-cheap", 1, 200);
        let delta = base.since(&snapshot);
        assert_eq!(delta.total_milli_cost(), 6);
        assert_eq!(delta.calls_for("sim-std"), 1);
        assert_eq!(delta.calls_for("sim-cheap"), 1);
        let mut rebuilt = snapshot.clone();
        rebuilt.absorb(&delta);
        assert_eq!(rebuilt, base);
    }

    #[test]
    fn since_keeps_a_drifting_total_visible() {
        let mut ledger = CostLedger::new();
        ledger.charge("sim-std", 5, 450);
        let baseline = ledger.clone();
        ledger.charge("sim-std", 5, 450);
        // A charge that bills 1 m$ more than its record says.
        ledger.total_milli_cost += 1;
        assert!(!ledger.conserved());
        let delta = ledger.since(&baseline);
        assert_eq!(delta.total_milli_cost(), 6);
        assert_eq!(delta.calls_for("sim-std"), 1);
        assert!(!delta.conserved(), "{delta:?}");
    }

    #[test]
    fn default_choice_is_the_historical_backend() {
        assert_eq!(Tier::default(), Tier::Gpt4);
        assert_eq!(Tier::default().name(), "simulated-gpt4");
    }
}
