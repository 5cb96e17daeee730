//! Backend conformance suite: the contract every [`LanguageModel`]
//! backend must honour, run over all four simulated tiers.
//!
//! The contract:
//! 1. per-seed determinism — the same seed drives the same conversation
//!    to byte-identical replies and an identical cost ledger;
//! 2. transport faults surface as the matching typed
//!    [`TransportError`], never as content;
//! 3. every attempt (success or transport failure) records exactly one
//!    backend span when traced;
//! 4. the cost ledger is monotone (one charge per completion) and
//!    conserved (total = Σ per-backend calls × unit cost);
//! 5. timeouts are uncharged (the request never arrived), while
//!    truncation/garbling burn a billed completion.

use llm_sim::model::fence;
use llm_sim::prompts::TRANSLATE_TASK;
use llm_sim::{
    LanguageModel, Message, ModelBackend, SimulatedGpt4, Tier, TransportError, TransportModel,
};
use telemetry::{SessionTrace, Stage};

const CISCO: &str = "\
hostname border1
interface Ethernet0/1
 ip address 10.0.1.1 255.255.255.0
router bgp 100
 network 1.2.3.0 mask 255.255.255.0
 neighbor 2.3.4.5 remote-as 200
 neighbor 2.3.4.5 route-map to_provider out
ip prefix-list our-networks seq 5 permit 1.2.3.0/24 ge 24
route-map to_provider permit 10
 match ip address prefix-list our-networks
 set metric 50
route-map to_provider deny 100
";

fn task_prompt() -> String {
    format!("{TRANSLATE_TASK}\n{}", fence(CISCO))
}

/// Verifier-style rectification feedback: none of these carry a task
/// marker.
const FEEDBACKS: [&str; 4] = [
    "In the original configuration, the BGP MED value set is 50, but in \
     the translation it is 999.",
    "In the original configuration, there is a route-map to_provider, but \
     in the translation there is no corresponding policy.",
    "The interface address 10.0.1.1 does not match the translation.",
    "There is a syntax error near the policy-statement block.",
];

/// Drives a task-plus-feedback conversation and returns every reply.
fn drive(llm: &mut dyn LanguageModel) -> Vec<String> {
    let mut transcript = vec![Message::user(task_prompt())];
    let mut replies = Vec::new();
    let r = llm.complete(&transcript);
    transcript.push(Message::assistant(r.clone()));
    replies.push(r);
    for fb in FEEDBACKS {
        transcript.push(Message::user(fb));
        let r = llm.complete(&transcript);
        transcript.push(Message::assistant(r.clone()));
        replies.push(r);
    }
    replies
}

#[test]
fn per_seed_determinism_with_identical_cost_ledgers() {
    for tier in Tier::ALL {
        let clean = TransportModel::default();
        let mut a = tier.build(7, clean);
        let mut b = tier.build(7, clean);
        assert_eq!(
            drive(a.as_mut()),
            drive(b.as_mut()),
            "{}: same seed must replay byte-identically",
            tier.name()
        );
        assert_eq!(
            a.cost(),
            b.cost(),
            "{}: same conversation must bill identically",
            tier.name()
        );
        assert!(a.cost().conserved(), "{}", tier.name());
    }
}

#[test]
fn transport_faults_surface_as_typed_errors() {
    let classes = [
        (
            TransportModel {
                p_timeout: 1.0,
                ..Default::default()
            },
            TransportError::Timeout,
        ),
        (
            TransportModel {
                p_truncated: 1.0,
                ..Default::default()
            },
            TransportError::TruncatedResponse,
        ),
        (
            TransportModel {
                p_malformed: 1.0,
                ..Default::default()
            },
            TransportError::MalformedPayload,
        ),
    ];
    for tier in Tier::ALL {
        for (transport, expected) in classes {
            let mut llm = tier.build(3, transport);
            let got = llm.try_complete(&[Message::user(task_prompt())]);
            assert_eq!(
                got.err(),
                Some(expected),
                "{}: a certain {} must surface as its typed error",
                tier.name(),
                expected.code()
            );
        }
    }
}

#[test]
fn every_attempt_records_one_backend_span() {
    for tier in Tier::ALL {
        // Three clean attempts: three spans.
        let mut llm = tier.build(5, TransportModel::default());
        let mut trace = SessionTrace::new();
        let transcript = [Message::user(task_prompt())];
        for _ in 0..3 {
            llm.try_complete_traced(&transcript, &mut trace).unwrap();
        }
        assert_eq!(
            trace.get(Stage::Backend).count,
            3,
            "{}: one span per successful attempt",
            tier.name()
        );
        // Two timed-out attempts: still one span each.
        let mut flaky = tier.build(
            5,
            TransportModel {
                p_timeout: 1.0,
                ..Default::default()
            },
        );
        let mut trace = SessionTrace::new();
        for _ in 0..2 {
            let _ = flaky.try_complete_traced(&transcript, &mut trace);
        }
        assert_eq!(
            trace.get(Stage::Backend).count,
            2,
            "{}: failed attempts are spans too",
            tier.name()
        );
    }
}

#[test]
fn cost_ledger_is_monotone_and_conserved() {
    for tier in Tier::ALL {
        let mut llm = tier.build(11, TransportModel::default());
        let mut transcript = vec![Message::user(task_prompt())];
        let mut last_calls = 0;
        for turn in 0..FEEDBACKS.len() + 1 {
            let r = llm.complete(&transcript);
            transcript.push(Message::assistant(r));
            if let Some(fb) = FEEDBACKS.get(turn) {
                transcript.push(Message::user(*fb));
            }
            let ledger = llm.cost();
            assert_eq!(
                ledger.total_calls(),
                last_calls + 1,
                "{}: exactly one charge per completion",
                tier.name()
            );
            last_calls = ledger.total_calls();
            assert!(ledger.conserved(), "{}", tier.name());
            for rec in ledger.records() {
                let billed = Tier::parse(rec.backend)
                    .unwrap_or_else(|| panic!("{}: unknown backend {}", tier.name(), rec.backend));
                assert_eq!(
                    rec.unit_milli_cost,
                    billed.unit_milli_cost(),
                    "{}",
                    tier.name()
                );
            }
        }
    }
}

#[test]
fn timeouts_are_uncharged_but_burned_completions_are_billed() {
    for tier in Tier::ALL {
        let transcript = [Message::user(task_prompt())];
        let mut timeout = tier.build(
            9,
            TransportModel {
                p_timeout: 1.0,
                ..Default::default()
            },
        );
        assert!(timeout.try_complete(&transcript).is_err());
        assert_eq!(
            timeout.cost().total_calls(),
            0,
            "{}: a timeout never reached the backend, so it cannot bill",
            tier.name()
        );
        for transport in [
            TransportModel {
                p_truncated: 1.0,
                ..Default::default()
            },
            TransportModel {
                p_malformed: 1.0,
                ..Default::default()
            },
        ] {
            let mut burned = tier.build(9, transport);
            assert!(burned.try_complete(&transcript).is_err());
            assert_eq!(
                burned.cost().total_calls(),
                1,
                "{}: a truncated/garbled completion was produced and is billed",
                tier.name()
            );
        }
    }
}

#[test]
fn tier_backends_report_their_price_sheet() {
    for t in Tier::ALL {
        let gpt = SimulatedGpt4::for_tier(t, 1);
        assert_eq!(gpt.unit_milli_cost(), t.unit_milli_cost());
        assert_eq!(gpt.latency_ms(), t.latency_ms());
        assert_eq!(gpt.name(), t.name());
    }
}
