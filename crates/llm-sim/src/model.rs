//! The language-model trait and a scripted stand-in for tests.

/// Message author role, chat-API style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// System / initial instruction prompt.
    System,
    /// The orchestrator or human.
    User,
    /// The model.
    Assistant,
}

/// One chat message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Author role.
    pub role: Role,
    /// Message text.
    pub content: String,
}

impl Message {
    /// A system message.
    pub fn system(content: impl Into<String>) -> Self {
        Message {
            role: Role::System,
            content: content.into(),
        }
    }

    /// A user message.
    pub fn user(content: impl Into<String>) -> Self {
        Message {
            role: Role::User,
            content: content.into(),
        }
    }

    /// An assistant message.
    pub fn assistant(content: impl Into<String>) -> Self {
        Message {
            role: Role::Assistant,
            content: content.into(),
        }
    }
}

/// A typed transport-level failure from [`LanguageModel::try_complete`]:
/// the request produced no usable completion. Distinct from a *content*
/// error (a wrong config is still a completion) — transport failures are
/// what the session retry/backoff layer retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The request timed out; the backend never saw it.
    Timeout,
    /// The response was cut off in flight (e.g. an unterminated fence).
    TruncatedResponse,
    /// The payload arrived but was garbled beyond use.
    MalformedPayload,
}

impl TransportError {
    /// Stable kebab-case code for logs and JSON events.
    pub fn code(&self) -> &'static str {
        match self {
            TransportError::Timeout => "timeout",
            TransportError::TruncatedResponse => "truncated-response",
            TransportError::MalformedPayload => "malformed-payload",
        }
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

/// A chat-completion language model. COSYNTH drives everything through
/// this trait; `SimulatedGpt4` implements it here, and a real API client
/// could implement it elsewhere.
pub trait LanguageModel {
    /// Produces the assistant's next message for a transcript.
    fn complete(&mut self, transcript: &[Message]) -> String;

    /// [`LanguageModel::complete`] over a fallible transport: returns a
    /// typed [`TransportError`] when no usable completion arrives. The
    /// default implementation models a perfect transport, so every
    /// existing backend (and every test double) keeps its behaviour;
    /// `SimulatedGpt4` overrides this to roll its
    /// [`crate::error_model::TransportModel`] knobs.
    fn try_complete(&mut self, transcript: &[Message]) -> Result<String, TransportError> {
        Ok(self.complete(transcript))
    }

    /// [`LanguageModel::try_complete`] with the attempt timed into
    /// `trace` as one [`telemetry::Stage::Backend`] span. Retrying
    /// callers record one span per attempt, so the trace's backend
    /// *count* is the attempt count (completions + transport failures)
    /// while the session's prompt log only grows on success — the gap
    /// between the two is the retry traffic. Timing is recorded after
    /// the call returns and never inspected by the backend, so traced
    /// and untraced runs produce byte-identical completions.
    fn try_complete_traced(
        &mut self,
        transcript: &[Message],
        trace: &mut telemetry::SessionTrace,
    ) -> Result<String, TransportError> {
        trace.time(telemetry::Stage::Backend, || self.try_complete(transcript))
    }

    /// [`LanguageModel::complete`] with the call timed into `trace` as
    /// one backend span (the infallible escalation path).
    fn complete_traced(
        &mut self,
        transcript: &[Message],
        trace: &mut telemetry::SessionTrace,
    ) -> String {
        trace.time(telemetry::Stage::Backend, || self.complete(transcript))
    }

    /// Model name for reports.
    fn name(&self) -> &str {
        "llm"
    }

    /// The backend's cumulative cost ledger
    /// ([`crate::backend::CostLedger`]). The default is a cost-free
    /// model — an always-empty ledger — so test doubles and thin
    /// wrappers keep compiling; self-accounting backends
    /// (`SimulatedGpt4`) override it.
    fn cost(&self) -> crate::backend::CostLedger {
        crate::backend::CostLedger::new()
    }
}

/// Extracts the last ``` fenced block from a message, if any — the
/// convention COSYNTH uses to pass configs in prompts and the simulated
/// model uses to return them.
pub fn last_fenced_block(text: &str) -> Option<String> {
    let mut blocks = Vec::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            match current.take() {
                Some(block) => blocks.push(block),
                None => current = Some(String::new()),
            }
        } else if let Some(b) = current.as_mut() {
            b.push_str(line);
            b.push('\n');
        }
    }
    blocks.pop()
}

/// Wraps a config in a fenced block.
pub fn fence(config: &str) -> String {
    format!("```\n{}```\n", ensure_trailing_newline(config))
}

fn ensure_trailing_newline(s: &str) -> String {
    if s.ends_with('\n') {
        s.to_string()
    } else {
        format!("{s}\n")
    }
}

/// A deterministic scripted model for unit tests: pops canned responses.
pub struct ScriptedLlm {
    responses: std::collections::VecDeque<String>,
}

impl ScriptedLlm {
    /// Builds from responses served in order; repeats the last one when
    /// exhausted.
    pub fn new<I: IntoIterator<Item = String>>(responses: I) -> Self {
        ScriptedLlm {
            responses: responses.into_iter().collect(),
        }
    }
}

impl LanguageModel for ScriptedLlm {
    fn complete(&mut self, _transcript: &[Message]) -> String {
        if self.responses.len() > 1 {
            self.responses.pop_front().unwrap()
        } else {
            self.responses.front().cloned().unwrap_or_default()
        }
    }

    fn name(&self) -> &str {
        "scripted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fenced_block_extraction() {
        let text = "Here is the config:\n```\nhostname r1\n```\nDone.";
        assert_eq!(last_fenced_block(text).unwrap(), "hostname r1\n");
    }

    #[test]
    fn last_block_wins() {
        let text = "```\nfirst\n```\nand\n```\nsecond\n```";
        assert_eq!(last_fenced_block(text).unwrap(), "second\n");
    }

    #[test]
    fn no_block_is_none() {
        assert_eq!(last_fenced_block("no code here"), None);
    }

    #[test]
    fn fence_roundtrip() {
        let cfg = "hostname r1\nrouter bgp 1";
        let fenced = fence(cfg);
        assert_eq!(
            last_fenced_block(&fenced).unwrap(),
            "hostname r1\nrouter bgp 1\n"
        );
    }

    #[test]
    fn scripted_llm_pops_then_repeats() {
        let mut m = ScriptedLlm::new(vec!["a".to_string(), "b".to_string()]);
        assert_eq!(m.complete(&[]), "a");
        assert_eq!(m.complete(&[]), "b");
        assert_eq!(m.complete(&[]), "b");
    }

    #[test]
    fn traced_calls_match_untraced_content_and_record_backend_spans() {
        use telemetry::{SessionTrace, Stage};
        let transcript = [Message::user("go")];
        let mut plain = ScriptedLlm::new(vec!["a".to_string(), "b".to_string()]);
        let mut traced = ScriptedLlm::new(vec!["a".to_string(), "b".to_string()]);
        let mut trace = SessionTrace::new();
        assert_eq!(
            traced.try_complete_traced(&transcript, &mut trace).unwrap(),
            plain.try_complete(&transcript).unwrap()
        );
        assert_eq!(
            traced.complete_traced(&transcript, &mut trace),
            plain.complete(&transcript)
        );
        assert_eq!(trace.get(Stage::Backend).count, 2, "one span per call");
    }

    #[test]
    fn message_constructors() {
        assert_eq!(Message::system("x").role, Role::System);
        assert_eq!(Message::user("x").role, Role::User);
        assert_eq!(Message::assistant("x").role, Role::Assistant);
    }
}
