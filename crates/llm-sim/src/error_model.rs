//! The error model: which faults appear and how repairs regress.

use crate::faults::FaultKind;
use std::collections::BTreeMap;

/// Transport-level failure rates for the simulated chat API: the layer
/// *under* the content error model. Content faults (the Table 2/3
/// catalogue) are things the model says wrongly; transport faults are
/// completions the client never usably receives — the request times
/// out, the response is cut off mid-fence, or the payload arrives
/// garbled. All three surface as a typed
/// [`crate::model::TransportError`] from
/// [`crate::model::LanguageModel::try_complete`], which is what the
/// session retry/backoff layer keys on.
///
/// Every stock [`ErrorModel`] constructor leaves these at zero, so the
/// content streams of all committed benches are byte-identical to the
/// pre-transport model; only callers that opt in (the chaos harness's
/// flaky-backend directive) consume draws from the transport stream.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransportModel {
    /// Probability a request times out (no server-side state advances —
    /// the request never arrived).
    pub p_timeout: f64,
    /// Probability the completion is truncated in flight (the server
    /// answered and its state advanced, but the client can't use it).
    pub p_truncated: f64,
    /// Probability the payload is garbled in flight (same server-side
    /// semantics as truncation; a different client-side detection path).
    pub p_malformed: f64,
}

impl TransportModel {
    /// Whether any transport fault can fire. When false the transport
    /// RNG stream is never consumed — the zero-knob guarantee above.
    pub fn any(&self) -> bool {
        self.p_timeout > 0.0 || self.p_truncated > 0.0 || self.p_malformed > 0.0
    }

    /// The chaos harness's flaky-backend profile: faults are common
    /// enough to force retries in nearly every session, rare enough
    /// that a bounded retry budget still converges.
    pub fn flaky() -> Self {
        TransportModel {
            p_timeout: 0.25,
            p_truncated: 0.15,
            p_malformed: 0.10,
        }
    }
}

/// Probabilistic model of the simulated GPT-4's error behaviour.
///
/// Calibration targets (see EXPERIMENTS.md): with `paper_default`, the
/// translation session exhibits all eight Table 2 error types and lands
/// in the paper's leverage band (≈10×), and the 7-router synthesis lands
/// near 6× with exactly the two human escalations the paper describes.
#[derive(Debug, Clone)]
pub struct ErrorModel {
    /// Probability each fault class appears in a first draft.
    pub p_fault: BTreeMap<FaultKind, f64>,
    /// After a successful repair, probability of introducing one new
    /// not-yet-seen fault ("fix one error, introduce new errors").
    pub p_regress_new: f64,
    /// After a successful repair, probability of *reintroducing* a
    /// previously fixed fault.
    pub p_reintroduce: f64,
    /// Whether the model heeds the IIP database (suppresses preventable
    /// classes).
    pub respect_iip: bool,
    /// Repair sessions: probability an attempted fix lands on the wrong
    /// line (a cosmetic edit elsewhere; the fault stays in place).
    pub p_repair_wrong_line: f64,
    /// Repair sessions: probability a successful fix introduces one
    /// fresh auto-fixable fault as a regression.
    pub p_repair_regress: f64,
    /// Transport-level failure rates (zero in every stock constructor;
    /// see [`TransportModel`]).
    pub transport: TransportModel,
}

impl ErrorModel {
    /// The calibration used for the headline experiments: every Table 2
    /// fault appears deterministically in the translation draft; the
    /// paper's two egregious synthesis cases appear deterministically on
    /// the hub; topology faults appear with moderate probability; repairs
    /// regress at the rates that land leverage in the paper's band.
    pub fn paper_default() -> Self {
        let mut p_fault = BTreeMap::new();
        for f in FaultKind::TRANSLATION {
            p_fault.insert(f, 1.0);
        }
        // Synthesis: preventable classes are likely without IIPs; the two
        // human cases are certain (they are the paper's findings); the
        // topology classes appear at moderate rates.
        p_fault.insert(FaultKind::CliPromptLines, 0.8);
        p_fault.insert(FaultKind::WrongKeywordLines, 0.6);
        p_fault.insert(FaultKind::MatchCommunityLiteral, 0.7);
        p_fault.insert(FaultKind::MissingAdditive, 0.7);
        p_fault.insert(FaultKind::MisplacedNeighborCmd, 1.0);
        p_fault.insert(FaultKind::AndSemanticsFilter, 1.0);
        p_fault.insert(FaultKind::WrongIfaceAddress, 0.15);
        p_fault.insert(FaultKind::WrongLocalAs, 0.1);
        p_fault.insert(FaultKind::WrongRouterId, 0.15);
        p_fault.insert(FaultKind::MissingNeighbor, 0.15);
        p_fault.insert(FaultKind::MissingNetwork, 0.2);
        p_fault.insert(FaultKind::ExtraNetwork, 0.1);
        p_fault.insert(FaultKind::ExtraNeighbor, 0.08);
        ErrorModel {
            p_fault,
            p_regress_new: 0.3,
            p_reintroduce: 0.18,
            respect_iip: true,
            p_repair_wrong_line: 0.25,
            p_repair_regress: 0.2,
            transport: TransportModel::default(),
        }
    }

    /// A flawless model (ablation baseline: "a future GPT-6" — leverage
    /// collapses because nothing needs correcting).
    pub fn flawless() -> Self {
        ErrorModel {
            p_fault: BTreeMap::new(),
            p_regress_new: 0.0,
            p_reintroduce: 0.0,
            respect_iip: true,
            p_repair_wrong_line: 0.0,
            p_repair_regress: 0.0,
            transport: TransportModel::default(),
        }
    }

    /// The `sim-cheap` backend tier: a noisier model. Topology-fault
    /// draft rates are bumped and the repair pathologies (wrong-line
    /// fixes, regressions, reintroductions) are markedly more common, so
    /// sessions need more verify rounds, paid for with calls that are
    /// nearly free.
    pub fn sim_cheap() -> Self {
        let mut m = Self::paper_default();
        m.p_regress_new = 0.45;
        m.p_reintroduce = 0.3;
        m.p_repair_wrong_line = 0.45;
        m.p_repair_regress = 0.35;
        m.p_fault.insert(FaultKind::WrongIfaceAddress, 0.25);
        m.p_fault.insert(FaultKind::WrongLocalAs, 0.18);
        m.p_fault.insert(FaultKind::WrongRouterId, 0.25);
        m.p_fault.insert(FaultKind::MissingNeighbor, 0.25);
        m.p_fault.insert(FaultKind::MissingNetwork, 0.3);
        m.p_fault.insert(FaultKind::ExtraNetwork, 0.18);
        m.p_fault.insert(FaultKind::ExtraNeighbor, 0.15);
        m
    }

    /// The `sim-std` backend tier: the paper calibration at a
    /// mid-market price point. Identical error behaviour to
    /// [`ErrorModel::paper_default`]; only the tier's unit cost differs.
    pub fn sim_std() -> Self {
        Self::paper_default()
    }

    /// The `sim-premium` backend tier: a more accurate model. Topology
    /// draft-fault rates are halved and the repair pathologies tamed;
    /// the paper's two hard cases stay certain (they are findings about
    /// the task, not the tier).
    pub fn sim_premium() -> Self {
        let mut m = Self::paper_default();
        m.p_regress_new = 0.1;
        m.p_reintroduce = 0.05;
        m.p_repair_wrong_line = 0.1;
        m.p_repair_regress = 0.05;
        m.p_fault.insert(FaultKind::WrongIfaceAddress, 0.075);
        m.p_fault.insert(FaultKind::WrongLocalAs, 0.05);
        m.p_fault.insert(FaultKind::WrongRouterId, 0.075);
        m.p_fault.insert(FaultKind::MissingNeighbor, 0.075);
        m.p_fault.insert(FaultKind::MissingNetwork, 0.1);
        m.p_fault.insert(FaultKind::ExtraNetwork, 0.05);
        m.p_fault.insert(FaultKind::ExtraNeighbor, 0.04);
        m
    }

    /// `paper_default` with the IIP database ignored (the IIP ablation).
    pub fn without_iip() -> Self {
        ErrorModel {
            respect_iip: false,
            ..Self::paper_default()
        }
    }

    /// A deterministic single-fault model for unit tests.
    pub fn only(fault: FaultKind) -> Self {
        let mut p_fault = BTreeMap::new();
        p_fault.insert(fault, 1.0);
        ErrorModel {
            p_fault,
            p_regress_new: 0.0,
            p_reintroduce: 0.0,
            respect_iip: true,
            p_repair_wrong_line: 0.0,
            p_repair_regress: 0.0,
            transport: TransportModel::default(),
        }
    }

    /// Appearance probability for a fault (0 when unlisted).
    pub fn probability(&self, f: FaultKind) -> f64 {
        let base = self.p_fault.get(&f).copied().unwrap_or(0.0);
        if self.respect_iip && f.iip_preventable() {
            0.0
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_has_all_translation_faults_certain() {
        let m = ErrorModel::paper_default();
        for f in FaultKind::TRANSLATION {
            assert_eq!(m.probability(f), 1.0, "{f:?}");
        }
    }

    #[test]
    fn iip_suppresses_preventable_classes() {
        let m = ErrorModel::paper_default();
        assert_eq!(m.probability(FaultKind::CliPromptLines), 0.0);
        assert_eq!(m.probability(FaultKind::MissingAdditive), 0.0);
        let m = ErrorModel::without_iip();
        assert!(m.probability(FaultKind::CliPromptLines) > 0.0);
        assert!(m.probability(FaultKind::MissingAdditive) > 0.0);
    }

    #[test]
    fn iip_does_not_suppress_hard_cases() {
        let m = ErrorModel::paper_default();
        assert_eq!(m.probability(FaultKind::AndSemanticsFilter), 1.0);
        assert_eq!(m.probability(FaultKind::MisplacedNeighborCmd), 1.0);
    }

    #[test]
    fn flawless_has_no_faults() {
        let m = ErrorModel::flawless();
        for f in FaultKind::TRANSLATION.iter().chain(&FaultKind::SYNTHESIS) {
            assert_eq!(m.probability(*f), 0.0);
        }
    }

    #[test]
    fn only_isolates_one_fault() {
        let m = ErrorModel::only(FaultKind::WrongMed);
        assert_eq!(m.probability(FaultKind::WrongMed), 1.0);
        assert_eq!(m.probability(FaultKind::OspfCostWrong), 0.0);
    }
}
