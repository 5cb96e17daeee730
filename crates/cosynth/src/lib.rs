//! # cosynth — Verified Prompt Programming for router configurations
//!
//! The paper's envisioned system (Figure 3), built in full: the triple
//! `(A, V, H)` where the verification suite `V` sits between the LLM `A`
//! and the human `H`, automatically converting verifier findings into
//! natural-language rectification prompts and only escalating to the
//! human when automatic correction stalls.
//!
//! ## Components (paper name → module)
//!
//! * Humanizer (Figure 2's `H` boxes) → [`humanizer`]: formulaic prompt
//!   templates with typed holes, reproducing Tables 1 and 3.
//! * IIP database → [`iip`]: initial instruction prompts loaded at the
//!   start of every chat (Section 4.2's four entries).
//! * Modularizer → [`modularizer`]: topology JSON → per-router textual
//!   descriptions + local policy specs (Lightyear-style decomposition).
//! * Composer → [`composer`]: per-router outputs reassembled into a
//!   Batfish-lite snapshot for the whole-network check.
//! * The VPP drivers → [`translation`] (use case 1: Cisco→Juniper on one
//!   router, verified by Batfish parse + Campion), [`synthesis`] (use
//!   case 2: no-transit on a star, verified by Batfish parse + topology
//!   verifier + Batfish searchRoutePolicies, then whole-network
//!   simulation), and [`repair`] (use case 3: a fault-injected running
//!   snapshot is localized through the same verifier channels and
//!   repaired, with escalation to the human rewrite when automated
//!   repair stalls).
//! * Leverage accounting → [`leverage`]: `L = automated / human` prompts.
//!   The initial task prompt is counted as neither (it exists identically
//!   in plain pair programming); human prompts are the manual correction
//!   prompts the verifier loop could not avoid.
//! * Session reports → [`report`]: regenerates Table 1, Table 2 and
//!   Table 3 from live runs.
//! * Verifier context → [`verifier_ctx`]: the worker-resident
//!   recycled-BDD-manager pool. A local verdict builds one `RouteSpace`
//!   on a pooled manager for all of a draft's symbolic checks and
//!   returns the manager before it ends, so a resident worker allocates
//!   one manager for every session it runs (`run_scenario_in` /
//!   `run_in` are the pooled session entry points).
//! * Incremental re-verification → [`incremental`]: the one local
//!   verdict both use cases run, the worker's confirmed verdict memo in
//!   front of it (a draft the worker has checked before costs one
//!   hash), and the dependency tracker that makes repair-session cost
//!   scale with the edit instead of the network ([`VerifyMode`] selects
//!   full or incremental re-verification; content is byte-identical
//!   across the two).

pub mod composer;
pub mod humanizer;
pub mod iip;
pub mod incremental;
pub mod leverage;
pub mod modularizer;
pub mod repair;
pub mod report;
pub mod session;
pub mod snapshot;
pub mod synthesis;
pub mod translation;
pub mod verifier_ctx;

pub use composer::{check_scenario, compose_and_check, GlobalCheckReport, GlobalViolation};
pub use humanizer::Humanizer;
pub use iip::IipDatabase;
pub use incremental::{
    reference_configs, DependencyTracker, ReferenceSnapshot, RepairJob, VerdictMemo, VerifyMode,
};
pub use leverage::Leverage;
pub use modularizer::{LocalPolicySpec, Modularizer, RouterAssignment};
pub use repair::{Localization, RepairOutcome, RepairSession};
pub use report::{scenario_table, FamilyRow};
pub use session::{LoggedPrompt, PromptKind, SessionLimits, SessionTranscript};
pub use snapshot::ConfigSnapshot;
pub use synthesis::{SpecStyle, SynthesisOutcome, SynthesisSession};
pub use translation::{ErrorRow, TranslationOutcome, TranslationSession};
pub use verifier_ctx::{ManagerPool, MemoCounters, VerifierContext};
