//! # llm-sim — the language-model substrate
//!
//! The paper studies a loop *around* GPT-4; it had no API access and
//! simulated calls by hand-feeding ChatGPT. This crate is the
//! reproduction's substitution for that manual step (documented in
//! DESIGN.md §3): a [`LanguageModel`] trait plus [`SimulatedGpt4`], a
//! generative model of GPT-4's observed behaviour on the two tasks,
//! calibrated to the paper's error catalogue:
//!
//! * **First drafts** are the *reference* solution (the provably correct
//!   translation/synthesis from `config-ir`) perturbed by faults drawn
//!   from an [`ErrorModel`] under a seeded RNG — one fault constructor per
//!   error the paper reports (Tables 2 and 3, Sections 3.2 and 4.2).
//! * **Rectification prompts** are classified against the humanizer's
//!   formulaic templates ([`prompts::PromptClass`]); matching faults are
//!   repaired according to their per-class repair behaviour: most fix on
//!   the generated prompt, the paper's two hard cases (`ge 24` prefix
//!   lengths, BGP redistribution; AND/OR stanzas and misplaced `neighbor`
//!   lines in synthesis) require a human prompt, and the `ge 24` repair
//!   takes the paper's detour through fresh invalid syntax.
//! * **Pathologies**: with model-controlled probabilities a successful
//!   repair introduces a new fault or *reintroduces a previously fixed
//!   one* ("Sometimes it even reintroduces errors that were previously
//!   fixed!").
//! * The IIP database ("initial instruction prompts") suppresses the
//!   preventable error classes exactly as Section 4.2 describes.
//!
//! The trait boundary means a real API client can replace the simulation
//! without touching COSYNTH.

pub mod backend;
pub mod error_model;
pub mod faults;
pub mod gpt4;
pub mod model;
pub mod prompts;
pub mod rng;
pub mod synth_task;
pub mod translate_task;

pub use backend::{CostLedger, CostRecord, ModelBackend, Tier};
pub use error_model::{ErrorModel, TransportModel};
pub use faults::{FaultKind, RepairBehavior};
pub use gpt4::SimulatedGpt4;
pub use model::{LanguageModel, Message, Role, ScriptedLlm, TransportError};
pub use prompts::PromptClass;
