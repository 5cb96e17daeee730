//! Per-session stage traces: where one session's wall-clock went.
//!
//! A [`SessionTrace`] is deliberately *not* a span list. Sessions run
//! hundreds of verify rounds, and a growable list of timestamped spans
//! would make the outcome size (and allocation profile) depend on
//! timing-adjacent control flow. Instead the trace is a fixed array of
//! [`StageCell`]s — `{count, total_ns}` per [`Stage`] — so recording a
//! span is two integer adds into inline storage, merging two traces is
//! elementwise addition, and the type stays `Copy`.
//!
//! Equality ignores the nanosecond totals: two traces compare equal
//! when their per-stage *counts* agree. Counts are a function of
//! session content (how many backend calls, how many parse rounds),
//! while totals are wall-clock — this is what lets outcomes that derive
//! `PartialEq` keep asserting determinism across runs whose timings
//! necessarily differ.

use std::time::{Duration, Instant};

/// A pipeline stage worth timing separately. The taxonomy follows the
/// synthesis/repair loop: prompt assembly, the (simulated) LLM call,
/// vendor parse/lower, route-space construction, symbolic policy
/// checks, bf-lite scenario simulation, and repair-loop fault
/// localization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum Stage {
    /// Rendering the task/repair prompt for one router assignment.
    PromptRender,
    /// One backend completion attempt (retries count separately — a
    /// session that retried twice records three backend spans).
    Backend,
    /// Vendor-config parse + lowering to IR (`bf_lite::parse_config`).
    Parse,
    /// Building the one `RouteSpace` a local verdict's symbolic checks
    /// share.
    SpaceBuild,
    /// Symbolic local-policy checks inside an existing space.
    Check,
    /// bf-lite whole-scenario simulation (`check_scenario` /
    /// `compose_and_check`).
    Sim,
    /// Repair-loop fault localization (parse/topo/symbolic/campion).
    Localize,
}

impl Stage {
    /// Number of stages (the length of [`Stage::ALL`]).
    pub const COUNT: usize = 7;

    /// Every stage, in declaration order (the order traces serialize
    /// in).
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::PromptRender,
        Stage::Backend,
        Stage::Parse,
        Stage::SpaceBuild,
        Stage::Check,
        Stage::Sim,
        Stage::Localize,
    ];

    /// The stable snake_case name used in JSON lines, metric names, and
    /// `BENCH_telemetry.json`.
    pub fn name(self) -> &'static str {
        match self {
            Stage::PromptRender => "prompt_render",
            Stage::Backend => "backend",
            Stage::Parse => "parse",
            Stage::SpaceBuild => "space_build",
            Stage::Check => "check",
            Stage::Sim => "sim",
            Stage::Localize => "localize",
        }
    }

    /// Index into a per-stage array.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One stage's accumulator: how many spans were recorded and their
/// total duration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCell {
    /// Spans recorded for this stage.
    pub count: u64,
    /// Total time across those spans, in nanoseconds.
    pub total_ns: u64,
}

impl StageCell {
    /// Total time in (fractional) milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1_000_000.0
    }
}

/// Where a session spent its time, by stage. See the module docs for
/// the design constraints (fixed size, `Copy`, count-only equality).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionTrace {
    cells: [StageCell; Stage::COUNT],
}

/// Count-only equality: wall-clock totals are explicitly *not* content
/// (two identical runs never agree on nanoseconds), so they do not
/// participate. This keeps outcomes carrying a trace comparable across
/// reruns.
impl PartialEq for SessionTrace {
    fn eq(&self, other: &Self) -> bool {
        self.cells
            .iter()
            .zip(other.cells.iter())
            .all(|(a, b)| a.count == b.count)
    }
}

impl Eq for SessionTrace {}

impl SessionTrace {
    /// An empty trace (all cells zero).
    pub fn new() -> Self {
        SessionTrace::default()
    }

    /// Records one span of `elapsed` against `stage`.
    pub fn record(&mut self, stage: Stage, elapsed: Duration) {
        self.record_ns(stage, elapsed.as_nanos() as u64);
    }

    /// Records one span of `ns` nanoseconds against `stage`.
    pub fn record_ns(&mut self, stage: Stage, ns: u64) {
        let cell = &mut self.cells[stage.index()];
        cell.count += 1;
        cell.total_ns = cell.total_ns.saturating_add(ns);
    }

    /// Times `f` and records the elapsed time as one `stage` span,
    /// returning `f`'s result. The scoped-timer entry point used at
    /// every instrumentation site.
    pub fn time<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(stage, start.elapsed());
        out
    }

    /// Adds every cell of `other` into `self` (used to merge the
    /// transcript-held trace with the context-held trace at outcome
    /// assembly).
    pub fn merge(&mut self, other: &SessionTrace) {
        for stage in Stage::ALL {
            let theirs = other.cells[stage.index()];
            let cell = &mut self.cells[stage.index()];
            cell.count += theirs.count;
            cell.total_ns = cell.total_ns.saturating_add(theirs.total_ns);
        }
    }

    /// The accumulator for one stage.
    pub fn get(&self, stage: Stage) -> StageCell {
        self.cells[stage.index()]
    }

    /// Iterates the non-empty stages in declaration order.
    pub fn stages(&self) -> impl Iterator<Item = (Stage, StageCell)> + '_ {
        Stage::ALL
            .into_iter()
            .map(|s| (s, self.cells[s.index()]))
            .filter(|(_, c)| c.count > 0)
    }

    /// Whether no span was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(|c| c.count == 0)
    }

    /// Total recorded time across all stages, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.cells.iter().map(|c| c.total_ns).sum()
    }

    /// Renders the non-empty stages as a JSON object:
    /// `{"backend":{"count":4,"ms":1.203},...}`. Stage order is
    /// [`Stage::ALL`]; an empty trace renders as `{}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (stage, cell)) in self.stages().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"ms\":{:.3}}}",
                stage.name(),
                cell.count,
                cell.total_ms()
            ));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge_accumulate() {
        let mut a = SessionTrace::new();
        a.record_ns(Stage::Backend, 1_000);
        a.record_ns(Stage::Backend, 2_000);
        a.record_ns(Stage::Parse, 500);
        assert_eq!(
            a.get(Stage::Backend),
            StageCell {
                count: 2,
                total_ns: 3_000
            }
        );
        let mut b = SessionTrace::new();
        b.record_ns(Stage::Backend, 10);
        b.record_ns(Stage::Sim, 7);
        a.merge(&b);
        assert_eq!(
            a.get(Stage::Backend),
            StageCell {
                count: 3,
                total_ns: 3_010
            }
        );
        assert_eq!(a.get(Stage::Sim).count, 1);
        assert_eq!(a.total_ns(), 3_517);
        assert!(!a.is_empty());
        assert!(SessionTrace::new().is_empty());
    }

    #[test]
    fn equality_ignores_durations() {
        let mut a = SessionTrace::new();
        let mut b = SessionTrace::new();
        a.record_ns(Stage::Check, 1);
        b.record_ns(Stage::Check, 999_999);
        assert_eq!(a, b, "same counts, different wall-clock");
        b.record_ns(Stage::Check, 1);
        assert_ne!(a, b, "counts diverged");
    }

    #[test]
    fn time_runs_the_closure_and_records() {
        let mut t = SessionTrace::new();
        let v = t.time(Stage::Sim, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.get(Stage::Sim).count, 1);
    }

    #[test]
    fn json_renders_nonempty_stages_in_order() {
        let mut t = SessionTrace::new();
        t.record_ns(Stage::Sim, 2_000_000);
        t.record_ns(Stage::PromptRender, 1_000_000);
        let j = t.to_json();
        assert_eq!(
            j,
            "{\"prompt_render\":{\"count\":1,\"ms\":1.000},\"sim\":{\"count\":1,\"ms\":2.000}}"
        );
        assert_eq!(SessionTrace::new().to_json(), "{}");
    }

    #[test]
    fn stage_names_are_unique_and_stable() {
        let names: std::collections::BTreeSet<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Stage::COUNT);
        assert_eq!(Stage::ALL[Stage::Backend.index()], Stage::Backend);
    }
}
